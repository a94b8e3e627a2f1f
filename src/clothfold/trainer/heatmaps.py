"""Ground-truth heatmap construction and the pixel-wise BCE training loss."""

from __future__ import annotations

import numpy as np

from .. import autodiff as ad

BCE_CLAMP = 1e-7
ONE_HOT_SIGMA = 0.25     # below this sigma the target degenerates to one-hot


def action_to_heatmap(pixel: tuple[int, int], sigma: float, h: int, w: int) -> np.ndarray:
    """Unnormalized Gaussian bump with peak 1.0 at ``pixel`` (row, col)."""
    r, c = pixel
    if not (0 <= r < h and 0 <= c < w):
        raise ValueError(f"pixel {pixel} outside {h}x{w} map")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    out = np.zeros((h, w))
    if sigma < ONE_HOT_SIGMA:
        out[r, c] = 1.0
        return out
    rows = np.arange(h)[:, None] - r
    cols = np.arange(w)[None, :] - c
    d2 = rows.astype(np.float64) ** 2 + cols.astype(np.float64) ** 2
    return np.exp(-d2 / (2.0 * sigma * sigma))


def bce(q: ad.Tensor, q_gt: np.ndarray) -> ad.Tensor:
    """Binary cross-entropy summed over pixels, with the prediction clamped
    to [1e-7, 1 - 1e-7] before the logs."""
    if q.shape != q_gt.shape:
        raise ad.ShapeError(f"bce shapes differ: {q.shape} vs {q_gt.shape}")
    gt = ad.constant(q_gt)
    one_minus_gt = ad.constant(1.0 - q_gt)
    one = ad.constant(np.ones_like(q_gt))
    qc = ad.clip(q, BCE_CLAMP, 1.0 - BCE_CLAMP)
    pos = ad.mul(gt, ad.log(qc))
    neg = ad.mul(one_minus_gt, ad.log(ad.sub(one, qc)))
    return ad.scale(ad.sum_all(ad.add(pos, neg)), -1.0)


def total_loss(q_pick: ad.Tensor, q_place: ad.Tensor,
               q_pick_gt: np.ndarray, q_place_gt: np.ndarray) -> ad.Tensor:
    """Sum of the pick and place BCE terms."""
    return ad.add(bce(q_pick, q_pick_gt), bce(q_place, q_place_gt))
