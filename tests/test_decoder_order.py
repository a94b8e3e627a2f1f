"""The decoder's convolution-before-upsample order against the stage order it
replaced (``conv -> tanh -> up`` per stage), forward and backward, over patch
sizes whose factor lists differ, with non-zero biases so the bias has to pass
through each upsample."""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from clothfold import autodiff as ad
from clothfold.perception import ModelConfig
from clothfold.perception.decoder import CunDecoder

REL_TOL = 1e-12


def _stage_order_forward(dec: CunDecoder, fused: ad.Tensor) -> ad.Tensor:
    """The decoder as it was: each stage convolves, squashes (all but the
    last) and then upsamples, so every convolution runs on the finer grid."""
    cfg = dec.cfg
    n = fused.shape[0]
    g = cfg.grid_side
    x = ad.slice_rows(fused, 1, n)
    x = ad.reshape(ad.transpose2d(x), (cfg.embed_dim, g, g))
    last = len(dec.factors) - 1
    for i, (w, b, f) in enumerate(zip(dec.weights, dec.biases, dec.factors)):
        x = ad.conv1x1(x, w, b)
        if i != last:
            x = ad.tanh(x)
        x = ad.bilinear_upsample(x, f)
    return ad.sigmoid(ad.reshape(x, (cfg.image_size, cfg.image_size)))


def _run(forward, dec, fused, weight):
    """Heatmap, input gradient and decoder parameter gradients of
    ``sum(weight * forward(fused))``, plus the op name of every tape node."""
    params = [*dec.weights, *dec.biases]
    for t in (fused, *params):
        t.grad = None
    with ad.Tape() as tape:
        out = forward(dec, fused)
        tape.backward(ad.sum_all(ad.mul(out, ad.constant(weight))))
    ops = Counter(fn.__qualname__ for _, _, fn in tape.nodes)
    return out.data, fused.grad.copy(), [p.grad.copy() for p in params], ops


def _assert_close(got, want, what):
    scale = np.abs(want).max()
    err = np.abs(got - want).max()
    assert err <= REL_TOL * scale, f"{what}: max |diff| {err:.3g} vs max |value| {scale:.3g}"


@settings(max_examples=40, deadline=None)
@given(patch_size=st.sampled_from([2, 3, 4, 6, 8]),
       embed_dim=st.sampled_from([4, 8, 16, 32]),
       grid=st.integers(2, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_reordered_decoder_matches_stage_order(patch_size, embed_dim, grid, seed):
    cfg = ModelConfig(embed_dim=embed_dim, depth=1, patch_size=patch_size,
                      image_size=grid * patch_size, seed=1)
    rng = np.random.default_rng(seed)
    dec = CunDecoder(cfg, rng, "dec")
    for b in dec.biases:
        b.data[:] = rng.normal(size=b.shape)
    fused = ad.Tensor(rng.normal(size=(cfg.num_patches + 1, embed_dim)), requires_grad=True)
    weight = rng.normal(size=(cfg.image_size, cfg.image_size))

    q, g_in, g_params, ops = _run(CunDecoder.forward, dec, fused, weight)
    q_ref, g_in_ref, g_params_ref, ops_ref = _run(_stage_order_forward, dec, fused, weight)

    _assert_close(q, q_ref, "heatmap")
    _assert_close(g_in, g_in_ref, "input gradient")
    for p, got, want in zip([*dec.weights, *dec.biases], g_params, g_params_ref):
        _assert_close(got, want, f"{p.name} gradient")
    assert ops == ops_ref

