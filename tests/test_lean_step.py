"""The training step against its references: the one-pass ``sigmoid``,
``layer_norm`` and ``softmax`` kernels against the numpy expressions they
replace, the flat-vector Adam against a per-parameter loop, the flat
parameter store it owns, and what a tape keeps alive after the forward."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from clothfold import autodiff as ad
from clothfold import checkpoint as ck
from clothfold.perception import ModelConfig, PerceptionModel
from clothfold.trainer import action_to_heatmap
from clothfold.trainer.train import PreparedSample, sample_loss


# -- kernel oracles: the expressions the kernels replaced ------------------------

def _sigmoid_ref(d):
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    out[~pos] = ex / (1.0 + ex)
    np.clip(out, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0), out=out)
    return out, lambda g: g * out * (1.0 - out)


def _softmax_ref(x, ax):
    shifted = x - x.max(axis=ax, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=ax, keepdims=True)
    return out, lambda g: out * (g - (g * out).sum(axis=ax, keepdims=True))


def _layer_norm_ref(x, gain, bias):
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + ad.LAYER_NORM_EPS)
    xhat = (x - mu) * inv

    def grads(g):
        gh = g * gain[None, :]
        m1 = gh.mean(axis=1, keepdims=True)
        m2 = (gh * xhat).mean(axis=1, keepdims=True)
        return ((gh - m1 - xhat * m2) * inv, (g * xhat).sum(axis=0), g.sum(axis=0))

    return xhat * gain[None, :] + bias[None, :], grads


_SPECIAL = [0.0, -0.0, np.inf, -np.inf, 37.5, -37.5, 40.0, -40.0, 745.2, -745.2,
            1e308, -1e308, 5e-324, -5e-324]
_values = st.one_of(st.floats(-60.0, 60.0), st.floats(-1e3, 1e3), st.sampled_from(_SPECIAL))


@st.composite
def _kernel_inputs(draw, ndim_max=2):
    """An array with special values and, sometimes, constant rows; and a
    gradient of the same shape."""
    shape = tuple(draw(st.lists(st.integers(1, 7), min_size=2 if ndim_max == 2 else 1,
                                max_size=ndim_max)))
    x = draw(arrays(np.float64, shape, elements=_values))
    if draw(st.booleans()):
        rows = draw(st.lists(st.integers(0, shape[0] - 1), max_size=shape[0]))
        for r in rows:
            x[r] = draw(_values)
    g = draw(arrays(np.float64, shape, elements=st.floats(-10.0, 10.0)))
    return x, g


def _assert_same(want, got):
    """Byte-equal, or NaN where the reference is NaN (NaN payloads and signs
    are not specified by IEEE 754)."""
    assert got.shape == want.shape and got.flags.c_contiguous
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert want[~nan].tobytes() == got[~nan].tobytes()


def _run(op, *arrays_):
    """The op's output and its recorded backward, applied to ``g``, under a
    tape with every input requiring grad."""
    xs = [ad.Tensor(a, requires_grad=True) for a in arrays_]
    with ad.Tape() as tape:
        out = op(*xs)
    (_, _, backward_fn), = tape.nodes

    def backward(g):
        backward_fn(g)
        return [x.grad for x in xs]

    return out.data, backward


@settings(max_examples=150, deadline=None)
@given(_kernel_inputs(ndim_max=3), st.booleans())
def test_sigmoid_matches_reference(case, with_nan):
    x, g = case
    if with_nan:
        x.flat[0] = np.nan
    with np.errstate(all="ignore"):
        want, want_bw = _sigmoid_ref(x)
        got, got_bw = _run(ad.sigmoid, x)
        _assert_same(want, got)
        _assert_same(want_bw(g), got_bw(g)[0])


@settings(max_examples=150, deadline=None)
@given(_kernel_inputs(), st.sampled_from([-1, 0, 1]), st.booleans())
def test_softmax_matches_reference(case, axis, with_nan):
    x, g = case
    if with_nan:
        x.flat[-1] = np.nan
    with np.errstate(all="ignore"):
        want, want_bw = _softmax_ref(x, axis % 2)
        got, got_bw = _run(lambda t: ad.softmax(t, axis=axis), x)
        _assert_same(want, got)
        _assert_same(want_bw(g), got_bw(g)[0])


@settings(max_examples=150, deadline=None)
@given(_kernel_inputs(), st.data())
def test_layer_norm_matches_reference(case, data):
    x, g = case
    d = x.shape[1]
    affine = arrays(np.float64, (d,), elements=st.floats(-3.0, 3.0))
    gain, bias = data.draw(affine), data.draw(affine)
    if data.draw(st.booleans()):
        x.flat[data.draw(st.integers(0, x.size - 1))] = np.nan
    with np.errstate(all="ignore"):
        want, want_bw = _layer_norm_ref(x, gain, bias)
        got, got_bw = _run(ad.layer_norm, x, gain, bias)
        _assert_same(want, got)
        for w, a in zip(want_bw(g), got_bw(g)):
            _assert_same(w, a)


def test_kernel_rows_of_note():
    """Rows the strategies may not reach every run: ±0, a constant row, and
    |x| past the point where float64 sigmoid rounds to 0 or 1."""
    x = np.array([[0.0, -0.0, 37.0, -37.0, 38.0, -38.0, 800.0, -800.0],
                  [2.5] * 8])
    g = np.linspace(-1.0, 1.0, 16).reshape(2, 8)
    gain, bias = np.linspace(0.5, 1.5, 8), np.linspace(-0.1, 0.1, 8)
    for want, got in ((_sigmoid_ref(x), _run(ad.sigmoid, x)),
                      (_softmax_ref(x, 1), _run(ad.softmax, x))):
        _assert_same(want[0], got[0])
        _assert_same(want[1](g), got[1](g)[0])
    want, want_bw = _layer_norm_ref(x, gain, bias)
    got, got_bw = _run(ad.layer_norm, x, gain, bias)
    _assert_same(want, got)
    for w, a in zip(want_bw(g), got_bw(g)):
        _assert_same(w, a)


# -- Adam on one flat vector -------------------------------------------------------

def _adam_reference(params, grads_per_step, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-parameter loop: final data and moments of each parameter."""
    data = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grads_per_step, start=1):
        bc1 = 1.0 - beta1 ** t
        bc2 = 1.0 - beta2 ** t
        for i, g in enumerate(grads):
            m[i] = beta1 * m[i] + (1.0 - beta1) * g
            v[i] = beta2 * v[i] + (1.0 - beta2) * (g * g)
            data[i] -= lr * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + eps)
    return data, m, v


def test_flat_adam_matches_per_parameter_loop():
    rng = np.random.default_rng(11)
    shapes = [(3, 4), (5,), (1, 1), (2, 3, 2), (7,)]
    # Parameters no larger than an update, so a last-bit change in the
    # update shows in the data.
    init = [rng.normal(scale=1e-3, size=s) for s in shapes]
    steps = []
    for step in range(5):
        grads = [rng.normal(scale=10.0 ** rng.integers(-3, 3), size=s) for s in shapes]
        grads[1] = np.zeros(shapes[1])                   # a zero gradient
        if step == 2:
            grads[0] = np.zeros(shapes[0])
        steps.append(grads)
    want, want_m, want_v = _adam_reference(init, steps)

    params = [ad.Tensor(a, requires_grad=True) for a in init]
    opt = ad.Adam(params, lr=1e-3)
    for grads in steps:
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()
        assert all(p.grad is None for p in params)
    for i, (p, (a, b)) in enumerate(zip(params, opt.spans)):
        assert p.data.tobytes() == want[i].tobytes(), i
        assert b - a == p.size
        assert opt.m[a:b].tobytes() == want_m[i].tobytes(), i
        assert opt.v[a:b].tobytes() == want_v[i].tobytes(), i
    # The spans tile the flat moments, which the step updates in place.
    assert [a for a, _ in opt.spans[1:]] == [b for _, b in opt.spans[:-1]]
    assert opt.spans[0][0] == 0 and opt.spans[-1][1] == opt.m.size
    m = opt.m
    m0 = m.copy()
    params[0].grad = np.ones(shapes[0])
    for p in params[1:]:
        p.grad = np.zeros(p.shape)
    opt.step()
    assert opt.m is m
    a, b = opt.spans[0]
    assert not np.array_equal(m[a:b], m0[a:b])
    with pytest.raises(ValueError):
        ad.Adam([])


_SHAPES = st.lists(st.lists(st.integers(1, 24), min_size=1, max_size=3).map(tuple),
                   min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(shapes=_SHAPES, seed=st.integers(0, 2 ** 32 - 1), exponent=st.integers(-8, 8))
def test_slice_sums_of_squares_equal_per_tensor_sums(shapes, seed, exponent):
    """``clip_gradients`` sums each parameter's slice of the squared flat
    gradient; each sum must have the bits of ``(g ** 2).sum()`` on the
    parameter's own array."""
    rng = np.random.default_rng(seed)
    grads = [rng.normal(scale=10.0 ** exponent, size=s) for s in shapes]
    params = [ad.Tensor(np.zeros(s), requires_grad=True) for s in shapes]
    opt = ad.Adam(params)
    for p, g in zip(params, grads):
        p.grad = g
    sq = opt.grad * opt.grad
    for (a, b), g in zip(opt.spans, grads):
        assert sq[a:b].sum().tobytes() == (g ** 2).sum().tobytes()


def test_store_aliases_values_gradients_loads_and_pokes(tmp_path):
    cfg = ModelConfig(embed_dim=16, depth=1, image_size=32)
    model = PerceptionModel(cfg)
    params = list(model.trainable_parameters().values())
    before = [p.data.copy() for p in params]
    opt = ad.Adam(params, lr=1e-3)
    assert opt.data.size == sum(p.size for p in params)
    for p, (a, b), x in zip(params, opt.spans, before):
        assert p.data.tobytes() == x.tobytes()
        assert np.shares_memory(p.data, opt.data[a:b])
        p.grad = np.full(p.shape, 2.0)                  # lands in the slice
        assert np.shares_memory(p.grad, opt.grad[a:b])
    assert (opt.grad == 2.0).all()
    frozen = list(model.frozen_parameters().values())
    assert not any(np.shares_memory(t.data, opt.data) for t in frozen)

    # A checkpoint load writes into the store; the step moves what it loaded.
    other = PerceptionModel(cfg)
    rng = np.random.default_rng(2)
    for t in other.trainable_parameters().values():
        t.data += rng.normal(0.0, 0.1, t.shape)
    path = tmp_path / "m.cfck"
    ck.save_checkpoint(path, other)
    ck.load_into_model(ck.load_checkpoint(path), model)
    loaded = np.concatenate([t.data.ravel()
                             for t in other.trainable_parameters().values()])
    assert opt.data.tobytes() == loaded.tobytes()
    opt.step()
    assert all(p.grad is None for p in params)
    assert (np.abs(opt.data - loaded) > 0).all()
    with pytest.raises(ad.GradientError):
        opt.step()

    # grad_check's scalar pokes and restores reach the vector.
    p, (a, b) = params[-1], opt.spans[-1]
    p.data.flat[b - a - 1] = 7.0
    assert opt.data[b - 1] == 7.0
    p.data[:] = 0.5
    assert (opt.data[a:b] == 0.5).all()


# -- what the tape keeps -----------------------------------------------------------

def _sample(model: PerceptionModel) -> PreparedSample:
    rng = np.random.default_rng(0)
    size = model.cfg.image_size
    pick, place = (size // 7, size // 5), (size // 2, size // 3)
    return PreparedSample(rng.uniform(-1.0, 1.0, (size, size, 4)),
                          model.tokenize("fold the left sleeve to the center "
                                         "and fold the right sleeve to the center"),
                          action_to_heatmap(pick, 3.0, size, size),
                          action_to_heatmap(place, 3.0, size, size), pick, place)


def test_tape_holds_under_55_percent_of_the_old_forward_memory():
    """At D=32, the tape that held every op's inputs and output kept 9.63 MB
    alive after the forward of one sample."""
    model = PerceptionModel(ModelConfig(embed_dim=32))
    sample = _sample(model)
    with ad.Tape():
        sample_loss(model, sample)                      # warm caches
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with ad.Tape() as tape:
            loss = sample_loss(model, sample)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(tape.nodes) > 0 and loss.size == 1
    assert held <= 0.55 * 9.63e6, held


@pytest.mark.parametrize("op", ["softmax", "tanh", "layer_norm"])
def test_inputs_no_gradient_reads_die_with_the_forward(monkeypatch, op):
    """Pre-softmax logits, pre-activations and pre-norm residual sums are
    read by no gradient, so nothing keeps them once the forward drops them."""
    refs = []
    original = getattr(ad, op)

    def spy(x, *args, **kwargs):
        refs.append(weakref.ref(x.data))
        return original(x, *args, **kwargs)

    monkeypatch.setattr(ad, op, spy)
    model = PerceptionModel(ModelConfig(embed_dim=16, depth=1, image_size=32))
    with ad.Tape() as tape:
        loss = sample_loss(model, _sample(model))
    assert refs and loss.size == 1 and tape.nodes
    assert all(r() is None for r in refs)


def _captured_arrays(tape):
    """Every array reachable from the tape's nodes through closures,
    containers, cells and tensors."""
    found, seen, stack = [], set(), list(tape.nodes)
    while stack:
        obj = stack.pop()
        if obj is None or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, ad.Tensor):
            stack.append(obj.data)
        elif isinstance(obj, ad.GradCell):
            stack.append(obj.grad)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif hasattr(obj, "__code__"):
            stack.extend(c.cell_contents for c in obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
    return found


# (op, input shapes, index of the input whose array no kept gradient reads
# when input 0 is frozen)
_FROZEN_CASES = [
    ("add", ad.add, [(3, 4), (3, 4)], 0),
    ("sub", ad.sub, [(3, 4), (3, 4)], 0),
    ("add_rowvec", ad.add_rowvec, [(3, 4), (4,)], 0),
    ("concat_rows", lambda a, b: ad.concat_rows([a, b, a]), [(2, 4), (3, 4)], 0),
    ("concat_cols", lambda a, b: ad.concat_cols([a, b]), [(3, 2), (3, 4)], 0),
    ("layer_norm", ad.layer_norm, [(3, 4), (4,), (4,)], 0),
    ("mul", ad.mul, [(3, 4), (3, 4)], 1),
    ("matmul", ad.matmul, [(3, 4), (4, 2)], 1),
    ("scale_columns", ad.scale_columns, [(3, 4), (4,)], 1),
    ("conv1x1", ad.conv1x1, [(3, 2, 2), (2, 3), (2,)], 1),
]


@pytest.mark.parametrize("name,op,shapes,unread", _FROZEN_CASES,
                         ids=[c[0] for c in _FROZEN_CASES])
def test_frozen_input_gradient_is_not_kept(name, op, shapes, unread):
    """A frozen input's gradient expression is dropped at record time, with
    the arrays only it reads; a frozen input's own array is kept only where
    another input's gradient reads it."""
    rng = np.random.default_rng(5)
    xs = [ad.Tensor(rng.uniform(0.5, 1.5, size=s), requires_grad=i != 0)
          for i, s in enumerate(shapes)]
    with ad.Tape() as tape:
        op(*xs)
    (_, inputs, backward_fn), = tape.nodes
    assert backward_fn.__qualname__ == name
    assert xs[0]._cell is None and len(inputs) == len({id(x) for x in xs[1:]})
    target = xs[unread].data
    assert not any(np.shares_memory(a, target) for a in _captured_arrays(tape))


def test_output_of_an_earlier_tape_is_a_leaf_of_a_later_one():
    rng = np.random.default_rng(8)
    x = ad.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    with ad.Tape():
        h = ad.matmul(x, w)
    with ad.Tape() as tape:
        unreached = ad.tanh(h)
        tape.backward(ad.sum_all(ad.scale(h, 2.0)))
    assert h.grad.tobytes() == np.full((2, 3), 2.0).tobytes()
    assert unreached.grad is None
    assert x.grad is None and w.grad is None
