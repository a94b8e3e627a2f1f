"""Minimal dense tensor library with reverse-mode automatic differentiation.

Tensors hold contiguous row-major float64 arrays. Operations record onto the
active :class:`Tape` (define-by-run); the tape is rebuilt on every forward
pass and replayed in reverse by :func:`backward`. Only the operations needed
by the perception model are implemented; there is no broadcasting beyond the
row-vector / column-vector cases the model actually uses.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class GradientError(RuntimeError):
    """A gradient-related contract was violated (non-scalar loss, missing grads)."""


class Tensor:
    """Dense float64 array with optional gradient storage.

    Tensors without ``requires_grad`` are plain values; they never receive
    gradients and are safe to share read-only across threads.
    """

    __slots__ = ("data", "requires_grad", "_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: Optional[str] = None):
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._grad: Optional[np.ndarray] = None
        self.name = name

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def grad(self) -> Optional[np.ndarray]:
        return self._grad

    @grad.setter
    def grad(self, value) -> None:
        if value is None:
            self._grad = None
            return
        arr = np.asarray(value, dtype=np.float64)
        if arr.shape != self.data.shape:
            raise ShapeError(f"grad shape {arr.shape} != data shape {self.data.shape}")
        self._grad = arr

    def accumulate_grad(self, delta: np.ndarray) -> None:
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        self._grad += delta

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of size {self.data.size}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}{tag})"


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


class Tape:
    """Ordered record of operations from one forward pass.

    Nodes are appended in execution order, which for define-by-run execution
    is a topological order of the graph. ``backward`` replays the list in
    reverse. Clearing the tape drops the nodes only; tensor values are
    untouched.
    """

    _active: Optional["Tape"] = None

    def __init__(self):
        self.nodes: list[tuple[Tensor, tuple[Tensor, ...], Callable[[np.ndarray], None]]] = []

    def __enter__(self) -> "Tape":
        self._prev = Tape._active
        Tape._active = self
        return self

    def __exit__(self, *exc) -> None:
        Tape._active = self._prev

    def record(self, out: Tensor, inputs: Sequence[Tensor],
               backward_fn: Callable[[np.ndarray], None]) -> None:
        self.nodes.append((out, tuple(inputs), backward_fn))

    def clear(self) -> None:
        self.nodes.clear()

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(t) into every requires_grad tensor on the tape.

        Tensors recorded on the tape that the loss does not reach end up with
        all-zero gradients rather than stale or missing ones.
        """
        if loss.size != 1:
            raise GradientError(f"backward needs a scalar loss, got shape {loss.shape}")
        loss.accumulate_grad(np.ones_like(loss.data))
        for out, inputs, backward_fn in reversed(self.nodes):
            g = out._grad
            if g is None:
                continue
            backward_fn(g)
        for out, inputs, _ in self.nodes:
            for t in (out,) + inputs:
                if t.requires_grad and t._grad is None:
                    t._grad = np.zeros_like(t.data)


def backward(loss: Tensor, tape: Optional[Tape] = None) -> None:
    t = tape or Tape._active
    if t is None:
        raise GradientError("backward called with no tape active or supplied")
    t.backward(loss)


def _record(out: Tensor, inputs: Sequence[Tensor],
            backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    tape = Tape._active
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.record(out, inputs, backward_fn)
    return out


# ---------------------------------------------------------------------------
# elementwise / structural operations
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data)

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(g)

    return _record(out, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub shapes differ: {a.shape} vs {b.shape}")
    out = Tensor(a.data - b.data)

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(-g)

    return _record(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul shapes differ: {a.shape} vs {b.shape}")
    out = Tensor(a.data * b.data)

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g * b.data)
        if b.requires_grad:
            b.accumulate_grad(g * a.data)

    return _record(out, (a, b), bw)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c)

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g * c)

    return _record(out, (a,), bw)


def add_rowvec(x: Tensor, b: Tensor) -> Tensor:
    """x[n, d] + b[d] broadcast across rows."""
    if x.data.ndim != 2 or b.data.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeError(f"add_rowvec shapes: {x.shape} + {b.shape}")
    out = Tensor(x.data + b.data[None, :])

    def bw(g):
        if x.requires_grad:
            x.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=0))

    return _record(out, (x, b), bw)


def scale_columns(x: Tensor, s: Tensor) -> Tensor:
    """y[i, j] = x[i, j] * s[j]; used by DoRA magnitudes and IA3 scalings."""
    if x.data.ndim != 2 or s.data.ndim != 1 or x.shape[1] != s.shape[0]:
        raise ShapeError(f"scale_columns shapes: {x.shape} * {s.shape}")
    out = Tensor(x.data * s.data[None, :])

    def bw(g):
        if x.requires_grad:
            x.accumulate_grad(g * s.data[None, :])
        if s.requires_grad:
            s.accumulate_grad((g * x.data).sum(axis=0))

    return _record(out, (x, s), bw)


def pow_const(x: Tensor, p: float) -> Tensor:
    p = float(p)
    out = Tensor(np.power(x.data, p))

    def bw(g):
        if x.requires_grad:
            x.accumulate_grad(g * p * np.power(x.data, p - 1.0))

    return _record(out, (x,), bw)


def log(x: Tensor) -> Tensor:
    out = Tensor(np.log(x.data))

    def bw(g):
        if x.requires_grad:
            x.accumulate_grad(g / x.data)

    return _record(out, (x,), bw)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes through unclipped entries only."""
    out_data = np.clip(x.data, lo, hi)
    mask = (x.data > lo) & (x.data < hi)
    out = Tensor(out_data)

    def bw(g):
        if x.requires_grad:
            x.accumulate_grad(g * mask)

    return _record(out, (x,), bw)


_SIGMOID_LO = np.nextafter(0.0, 1.0)
_SIGMOID_HI = np.nextafter(1.0, 0.0)


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic function, evaluated branch-wise for stability.

    Outputs are nudged off the exact 0/1 endpoints that float64 rounding
    would otherwise produce for |x| beyond ~37.
    """
    d = x.data
    out_data = np.empty_like(d)
    pos = d >= 0
    out_data[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    out_data[~pos] = ex / (1.0 + ex)
    np.clip(out_data, _SIGMOID_LO, _SIGMOID_HI, out=out_data)
    out = Tensor(out_data)

    def bw(g):
        if x.requires_grad:
            x.accumulate_grad(g * out_data * (1.0 - out_data))

    return _record(out, (x,), bw)


def tanh(x: Tensor) -> Tensor:
    out_data = np.tanh(x.data)
    out = Tensor(out_data)

    def bw(g):
        if x.requires_grad:
            x.accumulate_grad(g * (1.0 - out_data * out_data))

    return _record(out, (x,), bw)


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(np.array(x.data.sum()))

    def bw(g):
        if x.requires_grad:
            x.accumulate_grad(np.full_like(x.data, g.flat[0]))

    return _record(out, (x,), bw)


def column_sums(x: Tensor) -> Tensor:
    """Sum a 2-D tensor over rows, returning a length-d vector."""
    if x.data.ndim != 2:
        raise ShapeError(f"column_sums expects 2-D, got {x.shape}")
    out = Tensor(x.data.sum(axis=0))

    def bw(g):
        if x.requires_grad:
            x.accumulate_grad(np.broadcast_to(g[None, :], x.shape).copy())

    return _record(out, (x,), bw)


def mean_rows(x: Tensor) -> Tensor:
    """Mean over rows of a 2-D tensor -> shape (1, d)."""
    if x.data.ndim != 2:
        raise ShapeError(f"mean_rows expects 2-D, got {x.shape}")
    n = x.shape[0]
    out = Tensor(x.data.mean(axis=0, keepdims=True))

    def bw(g):
        if x.requires_grad:
            x.accumulate_grad(np.broadcast_to(g / n, x.shape).copy())

    return _record(out, (x,), bw)


def tile_rows(x: Tensor, n: int) -> Tensor:
    """Repeat a (1, d) row n times -> (n, d)."""
    if x.data.ndim != 2 or x.shape[0] != 1:
        raise ShapeError(f"tile_rows expects (1, d), got {x.shape}")
    out = Tensor(np.broadcast_to(x.data, (n, x.shape[1])).copy())

    def bw(g):
        if x.requires_grad:
            x.accumulate_grad(g.sum(axis=0, keepdims=True))

    return _record(out, (x,), bw)


def reshape(x: Tensor, shape: tuple) -> Tensor:
    """Row-major reshape; always copies (no view aliasing on the tape)."""
    out = Tensor(x.data.reshape(shape).copy())

    def bw(g):
        if x.requires_grad:
            x.accumulate_grad(g.reshape(x.shape))

    return _record(out, (x,), bw)


def transpose2d(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose2d expects 2-D, got {x.shape}")
    out = Tensor(x.data.T.copy())

    def bw(g):
        if x.requires_grad:
            x.accumulate_grad(g.T)

    return _record(out, (x,), bw)


def concat_rows(parts: Iterable[Tensor]) -> Tensor:
    parts = list(parts)
    if not parts or any(p.data.ndim != 2 for p in parts):
        raise ShapeError("concat_rows expects 2-D tensors")
    width = parts[0].shape[1]
    if any(p.shape[1] != width for p in parts):
        raise ShapeError("concat_rows width mismatch")
    out = Tensor(np.concatenate([p.data for p in parts], axis=0))
    sizes = [p.shape[0] for p in parts]

    def bw(g):
        off = 0
        for p, n in zip(parts, sizes):
            if p.requires_grad:
                p.accumulate_grad(g[off:off + n])
            off += n

    return _record(out, tuple(parts), bw)


def concat_cols(parts: Iterable[Tensor]) -> Tensor:
    parts = list(parts)
    if not parts or any(p.data.ndim != 2 for p in parts):
        raise ShapeError("concat_cols expects 2-D tensors")
    height = parts[0].shape[0]
    if any(p.shape[0] != height for p in parts):
        raise ShapeError("concat_cols height mismatch")
    out = Tensor(np.concatenate([p.data for p in parts], axis=1))
    sizes = [p.shape[1] for p in parts]

    def bw(g):
        off = 0
        for p, n in zip(parts, sizes):
            if p.requires_grad:
                p.accumulate_grad(g[:, off:off + n])
            off += n

    return _record(out, tuple(parts), bw)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"slice_rows expects 2-D, got {x.shape}")
    if not (0 <= start < stop <= x.shape[0]):
        raise ShapeError(f"slice_rows [{start}:{stop}] out of range for {x.shape}")
    out = Tensor(x.data[start:stop].copy())

    def bw(g):
        if x.requires_grad:
            full = np.zeros_like(x.data)
            full[start:stop] = g
            x.accumulate_grad(full)

    return _record(out, (x,), bw)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"slice_cols expects 2-D, got {x.shape}")
    if not (0 <= start < stop <= x.shape[1]):
        raise ShapeError(f"slice_cols [{start}:{stop}] out of range for {x.shape}")
    out = Tensor(x.data[:, start:stop].copy())

    def bw(g):
        if x.requires_grad:
            full = np.zeros_like(x.data)
            full[:, start:stop] = g
            x.accumulate_grad(full)

    return _record(out, (x,), bw)


# ---------------------------------------------------------------------------
# linear algebra / neural-net operations
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g @ b.data.T)
        if b.requires_grad:
            b.accumulate_grad(a.data.T @ g)

    return _record(out, (a, b), bw)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stabilized softmax along ``axis``; each slice sums to 1."""
    ax = axis if axis >= 0 else x.data.ndim + axis
    if not (0 <= ax < x.data.ndim):
        raise ShapeError(f"softmax axis {axis} invalid for {x.shape}")
    shifted = x.data - x.data.max(axis=ax, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=ax, keepdims=True)
    out = Tensor(out_data)

    def bw(g):
        if x.requires_grad:
            dot = (g * out_data).sum(axis=ax, keepdims=True)
            x.accumulate_grad(out_data * (g - dot))

    return _record(out, (x,), bw)


LAYER_NORM_EPS = 1e-5


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row of a 2-D tensor to zero mean / unit variance, then
    apply the per-feature affine (gain, bias)."""
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm expects 2-D, got {x.shape}")
    d = x.shape[1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm affine shapes {gain.shape}/{bias.shape} for width {d}")
    mu = x.data.mean(axis=1, keepdims=True)
    var = x.data.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = (x.data - mu) * inv
    out = Tensor(xhat * gain.data[None, :] + bias.data[None, :])

    def bw(g):
        if gain.requires_grad:
            gain.accumulate_grad((g * xhat).sum(axis=0))
        if bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=0))
        if x.requires_grad:
            gh = g * gain.data[None, :]
            m1 = gh.mean(axis=1, keepdims=True)
            m2 = (gh * xhat).mean(axis=1, keepdims=True)
            x.accumulate_grad((gh - m1 - xhat * m2) * inv)

    return _record(out, (x, gain, bias), bw)


def conv1x1(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Per-pixel linear map: x[C_in, H, W] -> [C_out, H, W]."""
    if x.data.ndim != 3 or w.data.ndim != 2:
        raise ShapeError(f"conv1x1 expects x[C,H,W], w[Co,Ci]; got {x.shape}, {w.shape}")
    c_in, h, wid = x.shape
    c_out, c_in_w = w.shape
    if c_in != c_in_w:
        raise ShapeError(f"conv1x1 channel mismatch: {c_in} vs {c_in_w}")
    if b.shape != (c_out,):
        raise ShapeError(f"conv1x1 bias shape {b.shape}, expected ({c_out},)")
    xf = x.data.reshape(c_in, h * wid)
    # einsum keeps a plain sequential reduction, so the result is bit-equal
    # to a per-pixel linear map (BLAS gemm would differ in the last ulp).
    out = Tensor(np.einsum("oc,chw->ohw", w.data, x.data) + b.data[:, None, None])

    def bw(g):
        gf = g.reshape(c_out, h * wid)
        if w.requires_grad:
            w.accumulate_grad(gf @ xf.T)
        if b.requires_grad:
            b.accumulate_grad(gf.sum(axis=1))
        if x.requires_grad:
            x.accumulate_grad((w.data.T @ gf).reshape(c_in, h, wid))

    return _record(out, (x, w, b), bw)


_INTERP_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _interp_matrix(n_in: int, factor: int) -> np.ndarray:
    """Align-corners bilinear interpolation matrix (n_in*factor, n_in)."""
    key = (n_in, factor)
    cached = _INTERP_CACHE.get(key)
    if cached is not None:
        return cached
    n_out = n_in * factor
    u = np.zeros((n_out, n_in))
    if n_in == 1 or n_out == 1:
        u[:, 0] = 1.0
    else:
        pos = np.arange(n_out) * (n_in - 1) / (n_out - 1)
        i0 = np.minimum(np.floor(pos).astype(int), n_in - 2)
        frac = pos - i0
        u[np.arange(n_out), i0] = 1.0 - frac
        u[np.arange(n_out), i0 + 1] += frac
    _INTERP_CACHE[key] = u
    return u


def bilinear_upsample(x: Tensor, factor: int) -> Tensor:
    """Align-corners bilinear upsampling of x[C, H, W] by an integer factor."""
    if x.data.ndim != 3:
        raise ShapeError(f"bilinear_upsample expects [C,H,W], got {x.shape}")
    if not isinstance(factor, int) or factor < 1:
        raise ValueError(f"upsample factor must be a positive integer, got {factor}")
    _, h, wid = x.shape
    uh = _interp_matrix(h, factor)
    uw = _interp_matrix(wid, factor)
    out = Tensor(np.matmul(np.matmul(uh, x.data), uw.T))

    def bw(g):
        if x.requires_grad:
            x.accumulate_grad(np.matmul(np.matmul(uh.T, g), uw))

    return _record(out, (x,), bw)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class AdamState:
    """Per-parameter Adam moment buffers; the step counter is shared."""

    __slots__ = ("m", "v")

    def __init__(self, shape: tuple):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)


class Adam:
    """Adam with bias correction. ``step`` applies the update and clears grads."""

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        if lr <= 0 or not (0 <= beta1 < 1) or not (0 <= beta2 < 1) or epsilon <= 0:
            raise ValueError("invalid Adam hyperparameters")
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self.state = {id(p): AdamState(p.shape) for p in self.params}

    def step(self) -> None:
        missing = [p for p in self.params if p.grad is None]
        if missing:
            names = ", ".join(repr(p.name or "<unnamed>") for p in missing[:4])
            raise GradientError(f"adam step with unpopulated gradients: {names}")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p in self.params:
            st = self.state[id(p)]
            g = p.grad
            st.m = self.beta1 * st.m + (1.0 - self.beta1) * g
            st.v = self.beta2 * st.v + (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (st.m / bc1) / (np.sqrt(st.v / bc2) + self.epsilon)
            p.grad = None


def he_normal(rng: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    return rng.normal(0.0, 1.0 / math.sqrt(max(fan_in, 1)), size=shape)
