"""Tensor/autodiff operation contracts: worked examples, finite-difference
oracles, and algebraic properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from clothfold import autodiff as ad
from conftest import finite_difference, rel_err


class TestTensor:
    def test_flat_row_major_storage(self, rng):
        t = ad.Tensor(rng.normal(size=(3, 4, 5)))
        assert t.data.flags["C_CONTIGUOUS"]
        assert t.size == 60 and int(np.prod(t.shape)) == t.data.size

    def test_grad_shape_enforced(self):
        t = ad.Tensor(np.zeros((2, 3)), requires_grad=True)
        with pytest.raises(ad.ShapeError):
            t.grad = np.zeros((3, 2))

    def test_finite_outputs_on_finite_inputs(self, rng):
        x = ad.Tensor(rng.uniform(-50, 50, size=(4, 6)))
        for out in (ad.sigmoid(x), ad.softmax(x), ad.tanh(x)):
            assert np.isfinite(out.data).all()


class TestMatmul:
    def test_identity(self, rng):
        b = rng.normal(size=(3, 5))
        out = ad.matmul(ad.Tensor(np.eye(3)), ad.Tensor(b))
        np.testing.assert_array_equal(out.data, b)

    def test_hand_computed_product(self):
        out = ad.matmul(ad.Tensor([[1.0, 2.0], [3.0, 4.0]]), ad.Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 3))))

    def test_gradient_vs_finite_differences(self, rng, tape_grad):
        a = ad.Tensor(rng.uniform(-1, 1, size=(3, 4)), requires_grad=True)
        b = ad.Tensor(rng.uniform(-1, 1, size=(4, 2)), requires_grad=True)
        _, (ga, gb) = tape_grad(lambda: ad.sum_all(ad.matmul(a, b)), [a, b])
        fa, fb = finite_difference(
            lambda: float((a.data @ b.data).sum()), [a, b])
        assert rel_err(ga, fa) < 1e-6
        assert rel_err(gb, fb) < 1e-6


class TestSoftmax:
    def test_constant_slice_uniform(self):
        out = ad.softmax(ad.Tensor(np.full((1, 4), 3.7)))
        np.testing.assert_allclose(out.data, 0.25, atol=1e-15)

    def test_slices_sum_to_one(self, rng):
        out = ad.softmax(ad.Tensor(rng.normal(size=(5, 7))), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    @given(arrays(np.float64, (3, 5), elements=st.floats(-30, 30)),
           st.floats(-100, 100))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, x, c):
        a = ad.softmax(ad.Tensor(x)).data
        b = ad.softmax(ad.Tensor(x + c)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_gradient_vs_finite_differences(self, rng, tape_grad):
        x = ad.Tensor(rng.uniform(-1, 1, size=(3, 6)), requires_grad=True)
        w = rng.normal(size=(3, 6))

        def loss():
            return ad.sum_all(ad.mul(ad.softmax(x, axis=-1), ad.constant(w)))

        _, (gx,) = tape_grad(loss, [x])
        (fx,) = finite_difference(lambda: float(
            (np.exp(x.data - x.data.max(-1, keepdims=True))
             / np.exp(x.data - x.data.max(-1, keepdims=True)).sum(-1, keepdims=True)
             * w).sum()), [x])
        assert rel_err(gx, fx) < 1e-6


class TestLayerNorm:
    def test_constant_slice_zeros(self):
        out = ad.layer_norm(ad.Tensor(np.full((2, 8), 5.0)),
                            ad.Tensor(np.ones(8)), ad.Tensor(np.zeros(8)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-9)

    def test_pre_affine_mean_zero(self, rng):
        x = rng.normal(size=(4, 16))
        out = ad.layer_norm(ad.Tensor(x), ad.Tensor(np.ones(16)),
                            ad.Tensor(np.zeros(16)))
        assert np.abs(out.data.mean(axis=1)).max() < 1e-9

    def test_gradient_vs_finite_differences(self, rng, tape_grad):
        x = ad.Tensor(rng.uniform(-1, 1, size=(3, 8)), requires_grad=True)
        g = ad.Tensor(rng.uniform(0.5, 1.5, size=8), requires_grad=True)
        b = ad.Tensor(rng.uniform(-0.5, 0.5, size=8), requires_grad=True)
        w = rng.normal(size=(3, 8))

        def loss():
            return ad.sum_all(ad.mul(ad.layer_norm(x, g, b), ad.constant(w)))

        _, grads = tape_grad(loss, [x, g, b])

        def np_loss():
            mu = x.data.mean(1, keepdims=True)
            s = np.sqrt(x.data.var(1, keepdims=True) + ad.LAYER_NORM_EPS)
            return float((((x.data - mu) / s * g.data + b.data) * w).sum())

        fds = finite_difference(np_loss, [x, g, b])
        for got, want in zip(grads, fds):
            assert rel_err(got, want) < 1e-5


class TestSigmoid:
    def test_zero_maps_to_half(self):
        assert ad.sigmoid(ad.Tensor([0.0])).data[0] == 0.5

    @given(arrays(np.float64, (8,), elements=st.floats(-200, 200)))
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, x):
        s = ad.sigmoid(ad.Tensor(x)).data + ad.sigmoid(ad.Tensor(-x)).data
        np.testing.assert_allclose(s, 1.0, atol=1e-12)

    def test_outputs_strictly_inside_unit_interval(self):
        out = ad.sigmoid(ad.Tensor([-700.0, 0.0, 700.0])).data
        assert (out > 0).all() and (out < 1).all()

    def test_gradient_vs_finite_differences(self, rng, tape_grad):
        x = ad.Tensor(rng.uniform(-2, 2, size=(3, 4)), requires_grad=True)
        _, (gx,) = tape_grad(lambda: ad.sum_all(ad.sigmoid(x)), [x])
        (fx,) = finite_difference(
            lambda: float((1 / (1 + np.exp(-x.data))).sum()), [x])
        assert rel_err(gx, fx) < 1e-6
        s = 1 / (1 + np.exp(-x.data))
        np.testing.assert_allclose(gx, s * (1 - s), atol=1e-12)


class TestConv1x1:
    def test_identity_weights(self, rng):
        x = rng.normal(size=(3, 4, 5))
        out = ad.conv1x1(ad.Tensor(x), ad.Tensor(np.eye(3)), ad.Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, x)

    def test_constant_input(self, rng):
        c = 0.7
        w = rng.normal(size=(2, 3))
        b = rng.normal(size=2)
        out = ad.conv1x1(ad.Tensor(np.full((3, 4, 4), c)), ad.Tensor(w), ad.Tensor(b))
        expect = w.sum(axis=1) * c + b
        for o in range(2):
            np.testing.assert_allclose(out.data[o], expect[o], atol=1e-12)

    def test_matches_per_pixel_matmul_oracle(self, rng):
        x = rng.normal(size=(2, 3, 3))
        w = rng.normal(size=(4, 2))
        b = rng.normal(size=4)
        out = ad.conv1x1(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b)).data
        # brute-force oracle: sequential per-pixel accumulation, bit-exact
        for i in range(3):
            for j in range(3):
                for o in range(4):
                    acc = 0.0
                    for c in range(2):
                        acc += w[o, c] * x[c, i, j]
                    assert out[o, i, j] == acc + b[o]

    def test_gradient_vs_finite_differences(self, rng, tape_grad):
        x = ad.Tensor(rng.uniform(-1, 1, size=(2, 3, 3)), requires_grad=True)
        w = ad.Tensor(rng.uniform(-1, 1, size=(3, 2)), requires_grad=True)
        b = ad.Tensor(rng.uniform(-1, 1, size=3), requires_grad=True)
        _, grads = tape_grad(lambda: ad.sum_all(ad.sigmoid(ad.conv1x1(x, w, b))),
                             [x, w, b])

        def np_loss():
            y = (w.data @ x.data.reshape(2, 9) + b.data[:, None])
            return float((1 / (1 + np.exp(-y))).sum())

        for got, want in zip(grads, finite_difference(np_loss, [x, w, b])):
            assert rel_err(got, want) < 1e-6


class TestBilinearUpsample:
    def test_constant_image(self):
        out = ad.bilinear_upsample(ad.Tensor(np.full((2, 3, 3), 4.2)), 3)
        np.testing.assert_allclose(out.data, 4.2, atol=1e-12)
        assert out.shape == (2, 9, 9)

    def test_factor_one_identity(self, rng):
        x = rng.normal(size=(1, 4, 4))
        np.testing.assert_array_equal(ad.bilinear_upsample(ad.Tensor(x), 1).data, x)

    def test_align_corners_column_interpolation(self):
        x = ad.Tensor(np.array([[[0.0, 1.0], [0.0, 1.0]]]))
        out = ad.bilinear_upsample(x, 2).data
        np.testing.assert_allclose(out[0, 0], [0.0, 1 / 3, 2 / 3, 1.0], atol=1e-12)

    def test_one_pixel_wide_axis_repeats(self):
        # A one-patch grid (model.image_size == model.patch_size) upsamples
        # maps one pixel wide.
        x = ad.Tensor(np.array([[[1.0, 3.0]]]))
        out = ad.bilinear_upsample(x, 2).data
        np.testing.assert_allclose(out[0], [[1.0, 5 / 3, 7 / 3, 3.0]] * 2, atol=1e-12)

    def test_extremes_bounded_by_input(self, rng):
        x = rng.normal(size=(2, 5, 4))
        out = ad.bilinear_upsample(ad.Tensor(x), 3).data
        assert out.max() <= x.max() + 1e-12 and out.min() >= x.min() - 1e-12

    def test_factor_zero_rejected(self):
        with pytest.raises(ValueError):
            ad.bilinear_upsample(ad.Tensor(np.zeros((1, 2, 2))), 0)

    def test_gradient_vs_finite_differences(self, rng, tape_grad):
        x = ad.Tensor(rng.uniform(-1, 1, size=(2, 3, 4)), requires_grad=True)
        w = rng.normal(size=(2, 6, 8))
        _, (gx,) = tape_grad(
            lambda: ad.sum_all(ad.mul(ad.bilinear_upsample(x, 2), ad.constant(w))), [x])

        def np_loss():
            return float((ad.bilinear_upsample(ad.Tensor(x.data), 2).data * w).sum())

        (fx,) = finite_difference(np_loss, [x])
        assert rel_err(gx, fx) < 1e-6


class TestBackward:
    def test_sum_gives_ones(self, rng):
        x = ad.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        with ad.Tape() as tape:
            tape.backward(ad.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 3)))

    def test_unreached_leaf_keeps_no_gradient(self, rng):
        x = ad.Tensor(rng.normal(size=(2, 2)), requires_grad=True, name="x")
        y = ad.Tensor(rng.normal(size=(2, 2)), requires_grad=True, name="y")
        opt = ad.Adam([x, y])
        with ad.Tape() as tape:
            ad.mul(x, x)                 # recorded but not part of the loss
            tape.backward(ad.sum_all(y))
        assert x.grad is None
        with pytest.raises(ad.GradientError, match="'x'"):
            opt.step()

    def test_non_scalar_loss_rejected(self, rng):
        x = ad.Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        with ad.Tape() as tape:
            y = ad.mul(x, x)
            with pytest.raises(ad.GradientError):
                tape.backward(y)

    def test_grad_accumulates_across_backward_calls(self, rng):
        x = ad.Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        for _ in range(2):
            with ad.Tape() as tape:
                tape.backward(ad.sum_all(x))
        np.testing.assert_array_equal(x.grad, 2 * np.ones((2, 2)))

    def test_composite_chain_vs_finite_differences(self, rng, tape_grad):
        x = ad.Tensor(rng.uniform(-1, 1, size=(4, 4)), requires_grad=True)
        w = ad.Tensor(rng.uniform(-1, 1, size=(4, 4)), requires_grad=True)

        def forward():
            h = ad.tanh(ad.matmul(x, w))
            s = ad.softmax(h, axis=-1)
            return ad.sum_all(ad.mul(s, s))

        _, grads = tape_grad(forward, [x, w])

        def np_loss():
            h = np.tanh(x.data @ w.data)
            e = np.exp(h - h.max(-1, keepdims=True))
            s = e / e.sum(-1, keepdims=True)
            return float((s * s).sum())

        for got, want in zip(grads, finite_difference(np_loss, [x, w])):
            assert rel_err(got, want) < 1e-5


class TestStructuralOps:
    def test_concat_slice_roundtrip(self, rng):
        a = ad.Tensor(rng.normal(size=(2, 4)))
        b = ad.Tensor(rng.normal(size=(3, 4)))
        cat = ad.concat_rows([a, b])
        np.testing.assert_array_equal(ad.slice_rows(cat, 0, 2).data, a.data)
        np.testing.assert_array_equal(ad.slice_rows(cat, 2, 5).data, b.data)

    def test_scale_columns_gradients(self, rng, tape_grad):
        x = ad.Tensor(rng.uniform(-1, 1, size=(3, 4)), requires_grad=True)
        s = ad.Tensor(rng.uniform(0.5, 1.5, size=4), requires_grad=True)
        _, grads = tape_grad(lambda: ad.sum_all(ad.sigmoid(ad.scale_columns(x, s))),
                             [x, s])

        def np_loss():
            return float((1 / (1 + np.exp(-(x.data * s.data[None, :])))).sum())

        for got, want in zip(grads, finite_difference(np_loss, [x, s])):
            assert rel_err(got, want) < 1e-6

    def test_mean_tile_rows_gradients(self, rng, tape_grad):
        x = ad.Tensor(rng.uniform(-1, 1, size=(3, 4)), requires_grad=True)
        w = rng.normal(size=(5, 4))
        _, (gx,) = tape_grad(
            lambda: ad.sum_all(ad.mul(ad.tile_rows(ad.mean_rows(x), 5),
                                      ad.constant(w))), [x])
        (fx,) = finite_difference(
            lambda: float((np.broadcast_to(x.data.mean(0, keepdims=True),
                                           (5, 4)) * w).sum()), [x])
        assert rel_err(gx, fx) < 1e-6

    def test_clip_gradient_mask(self):
        x = ad.Tensor(np.array([-1.0, 0.3, 2.0]), requires_grad=True)
        with ad.Tape() as tape:
            tape.backward(ad.sum_all(ad.clip(x, 0.0, 1.0)))
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = ad.Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = ad.Adam([p], lr=0.1)
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_single_step_descends_quadratic(self):
        # f(w) = w^2 from w=1: the first Adam step moves by ~lr toward 0.
        w = ad.Tensor(np.array([1.0]), requires_grad=True)
        opt = ad.Adam([w], lr=0.1)
        with ad.Tape() as tape:
            tape.backward(ad.sum_all(ad.mul(w, w)))
        opt.step()
        assert w.data[0] ** 2 < 1.0
        np.testing.assert_allclose(w.data[0], 0.9, atol=1e-7)

    def test_training_regime_defaults(self):
        from clothfold.trainer import TrainConfig
        opt = ad.Adam([ad.Tensor(np.zeros(2), requires_grad=True)])
        cfg = TrainConfig()
        assert opt.lr == 1e-4
        assert cfg.learning_rate == 1e-4
        assert cfg.batch_size == 16
        assert cfg.epochs == 100

    def test_missing_gradient_rejected(self):
        p = ad.Tensor(np.zeros(2), requires_grad=True, name="p")
        opt = ad.Adam([p])
        with pytest.raises(ad.GradientError):
            opt.step()

    def test_step_clears_gradients(self):
        p = ad.Tensor(np.array([1.0]), requires_grad=True)
        opt = ad.Adam([p], lr=0.01)
        p.grad = np.ones(1)
        opt.step()
        assert p.grad is None

    def test_moment_shapes_and_counter(self, rng):
        p = ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        opt = ad.Adam([p], lr=0.01)
        assert opt.spans == [(0, 6)]
        assert opt.m.shape == (6,) and opt.v.shape == (6,)
        for expected_t in (1, 2, 3):
            p.grad = np.ones((3, 2))
            opt.step()
            assert opt.t == expected_t


class TestDeterminism:
    def test_forward_is_bit_deterministic(self, rng):
        x = rng.normal(size=(6, 6))
        a = ad.softmax(ad.tanh(ad.Tensor(x))).data
        b = ad.softmax(ad.tanh(ad.Tensor(x.copy()))).data
        assert np.array_equal(a, b)


# (op name, input shapes, op applied to the inputs); inputs are drawn from
# [0.5, 1.5], inside the domains of log and pow_const.
_OP_CASES = [
    ("add", [(3, 4), (3, 4)], ad.add),
    ("sub", [(3, 4), (3, 4)], ad.sub),
    ("mul", [(3, 4), (3, 4)], ad.mul),
    ("scale", [(3, 4)], lambda x: ad.scale(x, -1.7)),
    ("add_rowvec", [(3, 4), (4,)], ad.add_rowvec),
    ("scale_columns", [(3, 4), (4,)], ad.scale_columns),
    ("pow_const", [(3, 4)], lambda x: ad.pow_const(x, 1.5)),
    ("log", [(3, 4)], ad.log),
    ("clip", [(3, 4)], lambda x: ad.clip(x, 0.8, 1.2)),
    ("sigmoid", [(3, 4)], ad.sigmoid),
    ("tanh", [(3, 4)], ad.tanh),
    ("sum_all", [(3, 4)], ad.sum_all),
    ("column_sums", [(3, 4)], ad.column_sums),
    ("mean_rows", [(3, 4)], ad.mean_rows),
    ("tile_rows", [(1, 4)], lambda x: ad.tile_rows(x, 3)),
    ("reshape", [(3, 4)], lambda x: ad.reshape(x, (2, 6))),
    ("transpose2d", [(3, 4)], ad.transpose2d),
    ("concat_rows", [(2, 4), (3, 4)], lambda a, b: ad.concat_rows([a, b, a])),
    ("concat_cols", [(3, 2), (3, 4)], lambda a, b: ad.concat_cols([a, b, a])),
    ("slice_rows", [(4, 3)], lambda x: ad.slice_rows(x, 1, 3)),
    ("slice_cols", [(3, 4)], lambda x: ad.slice_cols(x, 1, 3)),
    ("matmul", [(3, 4), (4, 2)], ad.matmul),
    ("softmax", [(3, 4)], ad.softmax),
    ("softmax", [(3, 4)], lambda x: ad.softmax(x, axis=0)),
    ("layer_norm", [(3, 4), (4,), (4,)], ad.layer_norm),
    ("conv1x1", [(3, 2, 2), (2, 3), (2,)], ad.conv1x1),
    ("bilinear_upsample", [(2, 2, 3)], lambda x: ad.bilinear_upsample(x, 2)),
    ("add", [(3, 4)], lambda x: ad.add(x, x)),              # aliased inputs
    ("mul", [(3, 4)], lambda x: ad.mul(x, x)),
    ("matmul", [(3, 3)], lambda x: ad.matmul(x, x)),
]
_OP_IDS = [f"{name}-{i}" for i, (name, _, _) in enumerate(_OP_CASES)]


def _run_op(op, shapes, frozen=()):
    """Leaf inputs, the op's output, the tape and the input gradients of the
    loss sum(op(inputs) * w); inputs whose index is in ``frozen`` do not
    require grad."""
    rng = np.random.default_rng(3)
    xs = [ad.Tensor(rng.uniform(0.5, 1.5, size=s), requires_grad=i not in frozen)
          for i, s in enumerate(shapes)]
    with ad.Tape() as tape:
        out = op(*xs)
        w = rng.normal(size=out.shape)
        tape.backward(ad.sum_all(ad.mul(out, ad.constant(w))))
    return xs, out, w, tape


@pytest.mark.parametrize("name,shapes,op", _OP_CASES, ids=_OP_IDS)
def test_op_gradient_vs_finite_differences(name, shapes, op):
    xs, out, w, tape = _run_op(op, shapes)
    (backward_fn,) = [fn for o, _, fn in tape.nodes if o is out.cell]
    assert backward_fn.__qualname__.split(".", 1)[0] == name
    fds = finite_difference(lambda: float((op(*xs).data * w).sum()), xs)
    for x, fd in zip(xs, fds):
        assert rel_err(x.grad, fd) < 1e-5


@pytest.mark.parametrize("name,shapes,op",
                         [c for c in _OP_CASES if len(c[1]) > 1],
                         ids=[i for i, c in zip(_OP_IDS, _OP_CASES) if len(c[1]) > 1])
def test_frozen_input_gets_no_gradient(name, shapes, op):
    xs, _, _, _ = _run_op(op, shapes)
    frozen_xs, _, _, _ = _run_op(op, shapes, frozen=(0,))
    assert frozen_xs[0].grad is None
    for x, fx in zip(xs[1:], frozen_xs[1:]):
        np.testing.assert_array_equal(fx.grad, x.grad)
