"""Minimal dense tensor library with reverse-mode automatic differentiation.

Tensors hold contiguous row-major float64 arrays. Operations record onto the
active :class:`Tape` (define-by-run); the tape is rebuilt on every forward
pass and replayed in reverse by :meth:`Tape.backward`. Only the operations
needed by the perception model are implemented; there is no broadcasting
beyond the row-vector / column-vector cases the model actually uses.

Every operation computes its output and gives one gradient expression per
input; :func:`_op` records it. The gradient rule is the same for all of
them: in backward, an input receives its expression's value only if it
``requires_grad``, added to what it already holds, in input order.

What a node holds: the :class:`GradCell` of its output, the cells of its
inputs that require grad, and one closure that holds, for each of those
inputs, the gradient expression and only the arrays that expression reads.
The tape holds no tensor, so an output's data lives as long as the forward
code holds the tensor, or a recorded expression reads the array; an output
no expression reads (raw attention logits, the residual sum before a
``layer_norm``, a pre-activation before ``tanh``) is freed as soon as the
forward drops it.

Gradient lifetime: leaves (``requires_grad`` tensors no recorded node
produced, such as parameters) keep ``.grad`` after backward, and so does
the loss; an intermediate's gradient is freed as soon as its node has run.
A first write takes the contribution as is; later writes add out of place,
so a gradient array shared between tensors is never modified. A leaf held
by an :class:`Adam` writes into its slice of the optimizer's flat gradient
instead: the first write copies the contribution in, later writes add in
place, and the step clears ``.grad`` to ``None``.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Callable, Iterable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class GradientError(RuntimeError):
    """A gradient-related contract was violated (non-scalar loss, missing grads)."""


class GradCell:
    """The gradient of one tensor, held apart from its data so that a tape
    can keep it without keeping the data alive. A cell with a ``target``
    (a leaf's slice of an optimizer's flat gradient) writes into it."""

    __slots__ = ("grad", "shape", "target")

    def __init__(self, shape: tuple):
        self.grad: Optional[np.ndarray] = None
        self.shape = shape
        self.target: Optional[np.ndarray] = None

    def add(self, delta: np.ndarray) -> None:
        # A non-contiguous first delta (a transposed view) is copied: as an
        # output gradient it would select a different BLAS kernel downstream.
        if self.grad is None:
            if self.target is None:
                self.grad = np.ascontiguousarray(delta)
            else:
                self.target[...] = delta
                self.grad = self.target
        elif self.target is None:
            self.grad = self.grad + delta
        else:
            self.grad += delta


class Tensor:
    """Dense float64 array with optional gradient storage.

    Tensors without ``requires_grad`` are plain values; they never receive
    gradients and are safe to share read-only across threads.
    """

    __slots__ = ("data", "requires_grad", "_cell", "name")

    def __init__(self, data, requires_grad: bool = False, name: Optional[str] = None):
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._cell: Optional[GradCell] = None
        self.name = name

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def cell(self) -> GradCell:
        """This tensor's gradient cell, made on first use."""
        cell = self._cell
        if cell is None:
            cell = self._cell = GradCell(self.data.shape)
        return cell

    @property
    def grad(self) -> Optional[np.ndarray]:
        cell = self._cell
        return None if cell is None else cell.grad

    @grad.setter
    def grad(self, value) -> None:
        if value is None:
            if self._cell is not None:
                self._cell.grad = None
            return
        arr = np.asarray(value, dtype=np.float64)
        if arr.shape != self.data.shape:
            raise ShapeError(f"grad shape {arr.shape} != data shape {self.data.shape}")
        self.cell.grad = None
        self.cell.add(arr)

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

    Nodes are ``(output cell, input cells, backward_fn)``, appended in
    execution order, which for define-by-run execution is a topological
    order of the graph. ``backward`` replays the list in reverse. Clearing
    the tape drops the nodes only; tensor values are untouched.
    """

    _active: Optional["Tape"] = None

    def __init__(self):
        self.nodes: list[tuple[GradCell, tuple[GradCell, ...],
                               Callable[[np.ndarray], None]]] = []

    def __enter__(self) -> "Tape":
        self._prev = Tape._active
        Tape._active = self
        return self

    def __exit__(self, *exc) -> None:
        Tape._active = self._prev

    def record(self, out: GradCell, inputs: Sequence[GradCell],
               backward_fn: Callable[[np.ndarray], None]) -> None:
        """Append a node: ``backward_fn`` maps the gradient held by ``out``
        into the ``inputs`` cells."""
        self.nodes.append((out, tuple(inputs), backward_fn))

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(t) into every leaf on the tape: each input
        cell that no recorded node produced.

        Gradient lifetime: the loss and the leaves keep ``.grad``; each
        intermediate's gradient is freed (``None``) once its node has run.
        Leaves the loss does not reach end up with all-zero gradients rather
        than stale or missing ones.
        """
        if loss.size != 1:
            raise GradientError(f"backward needs a scalar loss, got shape {loss.shape}")
        loss_cell = loss.cell
        loss_cell.add(np.ones_like(loss.data))
        for out, inputs, backward_fn in reversed(self.nodes):
            g = out.grad
            if g is None:
                continue
            backward_fn(g)
            if out is not loss_cell:
                out.grad = None
        produced = {id(out) for out, _, _ in self.nodes}
        for _, inputs, _ in self.nodes:
            for cell in inputs:
                if cell.grad is None and id(cell) not in produced:
                    cell.add(np.zeros(cell.shape))


def _op(name: str, data: np.ndarray, inputs: Sequence[Tensor],
        *grads: Callable[[np.ndarray], np.ndarray]) -> Tensor:
    """Output ``Tensor(data)`` of op ``name``, recorded on the active tape
    when an input requires grad; ``grads[i]`` maps the output's gradient to
    the contribution of ``inputs[i]`` and is kept only if that input
    requires grad. ``name`` is the backward closure's ``__qualname__``, so a
    profiler can tell the ops apart."""
    out = Tensor(data)
    tape = Tape._active
    if tape is None:
        return out
    pairs = [(t.cell, grad) for t, grad in zip(inputs, grads) if t.requires_grad]
    if not pairs:
        return out

    def bw(g):
        for cell, grad in pairs:
            cell.add(grad(g))

    bw.__qualname__ = name
    out.requires_grad = True
    tape.record(out.cell, [cell for cell, _ in pairs], bw)
    return out


# ---------------------------------------------------------------------------
# elementwise / structural operations
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")
    return _op("add", a.data + b.data, (a, b), lambda g: g, lambda g: g)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub shapes differ: {a.shape} vs {b.shape}")
    return _op("sub", a.data - b.data, (a, b), lambda g: g, lambda g: -g)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul shapes differ: {a.shape} vs {b.shape}")
    av, bv = a.data, b.data
    return _op("mul", av * bv, (a, b), lambda g: g * bv, lambda g: g * av)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _op("scale", a.data * c, (a,), lambda g: g * c)


def add_rowvec(x: Tensor, b: Tensor) -> Tensor:
    """x[n, d] + b[d] broadcast across rows."""
    if x.data.ndim != 2 or b.data.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeError(f"add_rowvec shapes: {x.shape} + {b.shape}")
    return _op("add_rowvec", x.data + b.data[None, :], (x, b),
               lambda g: g, lambda g: g.sum(axis=0))


def scale_columns(x: Tensor, s: Tensor) -> Tensor:
    """y[i, j] = x[i, j] * s[j]; used by DoRA magnitudes and IA3 scalings."""
    if x.data.ndim != 2 or s.data.ndim != 1 or x.shape[1] != s.shape[0]:
        raise ShapeError(f"scale_columns shapes: {x.shape} * {s.shape}")
    xv, sv = x.data, s.data[None, :]
    return _op("scale_columns", xv * sv, (x, s),
               lambda g: g * sv, lambda g: (g * xv).sum(axis=0))


def pow_const(x: Tensor, p: float) -> Tensor:
    p = float(p)
    xv = x.data
    return _op("pow_const", np.power(xv, p), (x,),
               lambda g: g * p * np.power(xv, p - 1.0))


def log(x: Tensor) -> Tensor:
    xv = x.data
    return _op("log", np.log(xv), (x,), lambda g: g / xv)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes through unclipped entries only."""
    mask = (x.data > lo) & (x.data < hi)
    return _op("clip", np.clip(x.data, lo, hi), (x,), lambda g: g * mask)


_SIGMOID_LO = np.nextafter(0.0, 1.0)
_SIGMOID_HI = np.nextafter(1.0, 0.0)


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic function, from exp(-|x|), which cannot overflow.

    Outputs are nudged off the exact 0/1 endpoints that float64 rounding
    would otherwise produce for |x| beyond ~37.
    """
    d = x.data
    e = np.abs(d)
    np.negative(e, out=e)
    np.exp(e, out=e)                  # exp(-x) where x >= 0, else exp(x)
    out_data = np.where(d >= 0, 1.0, e)
    out_data /= e + 1.0
    np.clip(out_data, _SIGMOID_LO, _SIGMOID_HI, out=out_data)
    return _op("sigmoid", out_data, (x,), lambda g: g * out_data * (1.0 - out_data))


def tanh(x: Tensor) -> Tensor:
    out_data = np.tanh(x.data)
    return _op("tanh", out_data, (x,), lambda g: g * (1.0 - out_data * out_data))


def sum_all(x: Tensor) -> Tensor:
    shape = x.shape
    return _op("sum_all", np.array(x.data.sum()), (x,),
               lambda g: np.full(shape, g.flat[0]))


def column_sums(x: Tensor) -> Tensor:
    """Sum a 2-D tensor over rows, returning a length-d vector."""
    if x.data.ndim != 2:
        raise ShapeError(f"column_sums expects 2-D, got {x.shape}")
    shape = x.shape
    return _op("column_sums", x.data.sum(axis=0), (x,),
               lambda g: np.broadcast_to(g[None, :], shape).copy())


def mean_rows(x: Tensor) -> Tensor:
    """Mean over rows of a 2-D tensor -> shape (1, d)."""
    if x.data.ndim != 2:
        raise ShapeError(f"mean_rows expects 2-D, got {x.shape}")
    shape = x.shape
    n = shape[0]
    return _op("mean_rows", x.data.mean(axis=0, keepdims=True), (x,),
               lambda g: np.broadcast_to(g / n, shape).copy())


def tile_rows(x: Tensor, n: int) -> Tensor:
    """Repeat a (1, d) row n times -> (n, d)."""
    if x.data.ndim != 2 or x.shape[0] != 1:
        raise ShapeError(f"tile_rows expects (1, d), got {x.shape}")
    return _op("tile_rows", np.broadcast_to(x.data, (n, x.shape[1])).copy(), (x,),
               lambda g: g.sum(axis=0, keepdims=True))


def reshape(x: Tensor, shape: tuple) -> Tensor:
    """Row-major reshape; always copies (no view aliasing on the tape)."""
    in_shape = x.shape
    return _op("reshape", x.data.reshape(shape).copy(), (x,),
               lambda g: g.reshape(in_shape))


def transpose2d(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose2d expects 2-D, got {x.shape}")
    return _op("transpose2d", x.data.T.copy(), (x,), lambda g: g.T)


def _span(axis: int, start: int, stop: int) -> tuple:
    """Index of ``start:stop`` along ``axis`` of a 2-D array."""
    return (slice(None),) * axis + (slice(start, stop),)


def _concat(name: str, parts: Iterable[Tensor], axis: int) -> Tensor:
    parts = list(parts)
    if not parts or any(p.data.ndim != 2 for p in parts):
        raise ShapeError(f"{name} expects 2-D tensors")
    if any(p.shape[1 - axis] != parts[0].shape[1 - axis] for p in parts):
        raise ShapeError(f"{name} {('width', 'height')[axis]} mismatch")
    ends = accumulate(p.shape[axis] for p in parts)
    spans = [_span(axis, stop - p.shape[axis], stop) for p, stop in zip(parts, ends)]
    return _op(name, np.concatenate([p.data for p in parts], axis=axis), tuple(parts),
               *(lambda g, i=i: g[i] for i in spans))


def concat_rows(parts: Iterable[Tensor]) -> Tensor:
    return _concat("concat_rows", parts, 0)


def concat_cols(parts: Iterable[Tensor]) -> Tensor:
    return _concat("concat_cols", parts, 1)


def _slice(name: str, x: Tensor, start: int, stop: int, axis: int) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"{name} expects 2-D, got {x.shape}")
    if not (0 <= start < stop <= x.shape[axis]):
        raise ShapeError(f"{name} [{start}:{stop}] out of range for {x.shape}")
    i = _span(axis, start, stop)
    shape = x.shape

    def scatter(g):
        full = np.zeros(shape)
        full[i] = g
        return full

    return _op(name, x.data[i].copy(), (x,), scatter)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    return _slice("slice_rows", x, start, stop, 0)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    return _slice("slice_cols", x, start, stop, 1)


# ---------------------------------------------------------------------------
# linear algebra / neural-net operations
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    av, bv = a.data, b.data
    return _op("matmul", av @ bv, (a, b), lambda g: g @ bv.T, lambda g: av.T @ g)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stabilized softmax along ``axis``; each slice sums to 1."""
    ax = axis if axis >= 0 else x.data.ndim + axis
    if not (0 <= ax < x.data.ndim):
        raise ShapeError(f"softmax axis {axis} invalid for {x.shape}")
    out_data = x.data - x.data.max(axis=ax, keepdims=True)
    np.exp(out_data, out=out_data)
    out_data /= out_data.sum(axis=ax, keepdims=True)

    def grad_x(g):
        dx = g * out_data
        np.subtract(g, dx.sum(axis=ax, keepdims=True), out=dx)
        dx *= out_data
        return dx

    return _op("softmax", out_data, (x,), grad_x)


LAYER_NORM_EPS = 1e-5


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row of a 2-D tensor to zero mean / unit variance, then
    apply the per-feature affine (gain, bias)."""
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm expects 2-D, got {x.shape}")
    d = x.shape[1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm affine shapes {gain.shape}/{bias.shape} for width {d}")
    # Row means and variances are written out as np.mean / np.var compute
    # them (a sum, then a divide by the count), so the bits are theirs.
    xhat = x.data - np.add.reduce(x.data, axis=1, keepdims=True) / d
    var = np.add.reduce(np.square(xhat), axis=1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv
    gv = gain.data[None, :]

    def grad_x(g):
        gh = g * gv
        m1 = np.add.reduce(gh, axis=1, keepdims=True) / d
        t = gh * xhat
        m2 = np.add.reduce(t, axis=1, keepdims=True) / d
        np.multiply(xhat, m2, out=t)
        gh -= m1
        gh -= t
        gh *= inv
        return gh

    out_data = xhat * gv
    out_data += bias.data[None, :]
    return _op("layer_norm", out_data, (x, gain, bias), grad_x,
               lambda g: (g * xhat).sum(axis=0), lambda g: g.sum(axis=0))


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
    wv = w.data
    # einsum keeps a plain sequential reduction, so the result is bit-equal
    # to a per-pixel linear map (BLAS gemm would differ in the last ulp).
    return _op("conv1x1",
               np.einsum("oc,chw->ohw", wv, x.data) + b.data[:, None, None], (x, w, b),
               lambda g: (wv.T @ g.reshape(c_out, h * wid)).reshape(c_in, h, wid),
               lambda g: g.reshape(c_out, h * wid) @ xf.T,
               lambda g: g.reshape(c_out, h * wid).sum(axis=1))


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
    return _op("bilinear_upsample", np.matmul(np.matmul(uh, x.data), uw.T), (x,),
               lambda g: np.matmul(np.matmul(uh.T, g), uw))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class Adam:
    """Adam with bias correction. ``step`` applies the update and clears grads.

    The optimizer owns its parameters' values and gradients: ``data`` and
    ``grad`` are flat vectors, each parameter's ``data`` is a view of its
    slice ``spans[i]`` of the one, and its gradient cell writes into the same
    slice of the other. The moments ``m`` and ``v`` are flat too, so one step
    is one set of elementwise ops over every parameter at once.
    """

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        if lr <= 0 or not (0 <= beta1 < 1) or not (0 <= beta2 < 1) or epsilon <= 0:
            raise ValueError("invalid Adam hyperparameters")
        self.params = list(params)
        if not self.params:
            raise ValueError("Adam needs at least one parameter")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        ends = list(accumulate(p.size for p in self.params))
        self.spans = [(stop - p.size, stop) for p, stop in zip(self.params, ends)]
        self.data = np.concatenate([p.data.ravel() for p in self.params])
        self.grad = np.zeros_like(self.data)
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)
        for p, (a, b) in zip(self.params, self.spans):
            p.data = self.data[a:b].reshape(p.shape)
            p.cell.target = self.grad[a:b].reshape(p.shape)
            p.grad = p.grad                 # a gradient already held moves in

    def step(self) -> None:
        missing = [p for p in self.params if p.grad is None]
        if missing:
            names = ", ".join(repr(p.name or "<unnamed>") for p in missing[:4])
            raise GradientError(f"adam step with unpopulated gradients: {names}")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        # In place, but with the operations of m = b1*m + (1-b1)*g,
        # v = b2*v + (1-b2)*(g*g) and lr*(m/bc1) / (sqrt(v/bc2) + eps), so
        # every element gets the bits a per-parameter update gives it. The
        # gradients are spent: squared in place, then cleared below.
        g, m, v = self.grad, self.m, self.v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        g *= g
        g *= 1.0 - self.beta2
        v *= self.beta2
        v += g
        u = m / bc1
        u *= self.lr
        den = v / bc2
        np.sqrt(den, out=den)
        den += self.epsilon
        u /= den
        self.data -= u
        for p in self.params:
            p.grad = None


def he_normal(rng: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    return rng.normal(0.0, 1.0 / math.sqrt(max(fan_in, 1)), size=shape)
