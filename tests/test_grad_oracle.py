"""Gradient storage against its reference: zero-filled buffers added to in
place, and every recorded gradient cell zero-filled after backward.

``autodiff`` takes a first gradient contribution as is, adds later ones out
of place, frees intermediate gradients and zero-fills only unreached leaves;
a leaf in an optimizer's flat store copies its first contribution into its
slice and adds later ones in place. Every leaf gradient must be bit-equal to
the reference's.
"""

import numpy as np
import pytest

from clothfold import autodiff as ad
from clothfold.perception import ModelConfig, PerceptionModel
from clothfold.trainer import action_to_heatmap
from clothfold.trainer.train import PreparedSample, sample_loss


def _reference_add(self, delta):
    if self.grad is None:
        self.grad = np.zeros(self.shape)
    self.grad += delta


def _reference_backward(self, loss):
    if loss.size != 1:
        raise ad.GradientError(f"backward needs a scalar loss, got shape {loss.shape}")
    loss.cell.add(np.ones_like(loss.data))
    for out, inputs, backward_fn in reversed(self.nodes):
        if out.grad is not None:
            backward_fn(out.grad)
    for out, inputs, _ in self.nodes:
        for cell in (out,) + inputs:
            if cell.grad is None:
                cell.grad = np.zeros(cell.shape)


def _both(monkeypatch, run):
    """Leaf gradients of ``run()`` under the reference and under autodiff."""
    with monkeypatch.context() as m:
        m.setattr(ad.GradCell, "add", _reference_add)
        m.setattr(ad.Tape, "backward", _reference_backward)
        want = run()
    return want, run()


def _assert_bit_equal(want: dict, got: dict):
    assert want.keys() == got.keys()
    for name in want:
        assert got[name].shape == want[name].shape, name
        assert got[name].tobytes() == want[name].tobytes(), name


# -- one perception-model sample ------------------------------------------------

def _sample(model: PerceptionModel, seed: int) -> PreparedSample:
    rng = np.random.default_rng(seed)
    size = model.cfg.image_size
    pick = tuple(int(v) for v in rng.integers(0, size, 2))
    place = tuple(int(v) for v in rng.integers(0, size, 2))
    return PreparedSample(rng.uniform(-1.0, 1.0, (size, size, 4)),
                          model.tokenize("fold the left sleeve to the center "
                                         "and fold the right sleeve to the center"),
                          action_to_heatmap(pick, 3.0, size, size),
                          action_to_heatmap(place, 3.0, size, size), pick, place)


@pytest.mark.parametrize("point", ["init", "generic"])
@pytest.mark.parametrize("num_heads", [1, 2])
@pytest.mark.parametrize("fusion", ["cross-attention", "transformer"])
@pytest.mark.parametrize("adapter", ["dora", "lora", "ia3", "none"])
def test_model_gradients_bit_equal_reference(monkeypatch, adapter, fusion, num_heads,
                                             point):
    cfg = ModelConfig(embed_dim=32, num_heads=num_heads, depth=1, image_size=32,
                      adapter=adapter, fusion=fusion)
    samples = [_sample(PerceptionModel(cfg), seed) for seed in (0, 1)]

    def run(store=False):
        model = PerceptionModel(cfg)
        params = model.trainable_parameters()
        opt = ad.Adam(params.values()) if store else None
        if point == "generic":
            # Off the initial point, where several adapter factors are zero.
            rng = np.random.default_rng(3)
            for p in params.values():
                p.data += rng.normal(0.0, 0.05, p.shape)
        # Two samples sum into one step's gradients, as in ``train``.
        for s in samples:
            with ad.Tape() as tape:
                tape.backward(sample_loss(model, s, 0.5))
        # In the store, every gradient is read from the optimizer's vector.
        assert opt is None or all(np.shares_memory(p.grad, opt.grad)
                                  for p in params.values())
        return {k: p.grad for k, p in params.items()}

    want, got = _both(monkeypatch, run)
    _assert_bit_equal(want, got)
    # Again with the trainables in an optimizer's flat store.
    _assert_bit_equal(want, run(store=True))


# -- aliasing rows ---------------------------------------------------------------

def _leaves(rng, *shapes):
    return [ad.Tensor(rng.uniform(-1.0, 1.0, s), requires_grad=True, name=f"x{i}")
            for i, s in enumerate(shapes)]


def _backward(loss_fn, leaves, times=1):
    for _ in range(times):
        with ad.Tape() as tape:
            tape.backward(loss_fn())
    return {t.name: t.grad for t in leaves}


def _add_self():
    x, = _leaves(np.random.default_rng(0), (3, 4))
    return _backward(lambda: ad.sum_all(ad.add(x, x)), [x])


def _shared_g_accumulated_again():
    # ``add`` hands one array to both a and b; a then gets mul's contribution.
    a, b = _leaves(np.random.default_rng(1), (3, 4), (3, 4))
    return _backward(lambda: ad.sum_all(ad.add(ad.mul(a, a), ad.add(a, b))), [a, b])


def _concat_repeated_part():
    # The first part's gradient is a view of the concat's, which ``add`` also
    # hands to d.
    x, d, w = _leaves(np.random.default_rng(2), (2, 3), (4, 3), (4, 3))
    return _backward(
        lambda: ad.sum_all(ad.mul(ad.add(ad.concat_rows([x, x]), d), w)), [x, d, w])


def _concat_cols_repeated_part():
    x, y = _leaves(np.random.default_rng(3), (3, 2), (3, 1))
    return _backward(
        lambda: ad.sum_all(ad.tanh(ad.concat_cols([x, y, x]))), [x, y])


def _two_backward_calls():
    x, w = _leaves(np.random.default_rng(4), (2, 3), (3, 3))
    return _backward(lambda: ad.sum_all(ad.tanh(ad.matmul(x, w))), [x, w], times=2)


def _transposed_first_write():
    # transpose2d hands back a transposed view; the matmul that consumes it as
    # its output gradient must see the same layout as the reference's.
    x, w, q = _leaves(np.random.default_rng(5), (32, 32), (32, 32), (32, 32))
    return _backward(
        lambda: ad.sum_all(ad.tanh(ad.matmul(q, ad.transpose2d(ad.matmul(x, w))))),
        [x, w, q])


def _unreached_leaf():
    x, y = _leaves(np.random.default_rng(6), (2, 2), (2, 2))

    def loss():
        ad.mul(x, x)
        return ad.sum_all(y)

    return _backward(loss, [x, y])


@pytest.mark.parametrize("row", [_add_self, _shared_g_accumulated_again,
                                 _concat_repeated_part, _concat_cols_repeated_part,
                                 _two_backward_calls, _transposed_first_write,
                                 _unreached_leaf], ids=lambda f: f.__name__.lstrip("_"))
def test_aliasing_bit_equal_reference(monkeypatch, row):
    want, got = _both(monkeypatch, row)
    _assert_bit_equal(want, got)


def test_intermediate_gradients_freed_loss_and_leaves_kept():
    x, w = _leaves(np.random.default_rng(7), (2, 3), (3, 3))
    with ad.Tape() as tape:
        h = ad.matmul(x, w)
        t = ad.tanh(h)
        unreached = ad.mul(x, x)
        loss = ad.sum_all(t)
        tape.backward(loss)
    assert h.grad is None and t.grad is None and unreached.grad is None
    assert loss.grad == 1.0
    assert x.grad is not None and w.grad is not None
