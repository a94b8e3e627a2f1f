"""Parameter-efficient adapters for the frozen encoder's attention layers.

The weight-decomposed adapter splits a frozen matrix into direction and
magnitude: the low-rank product B@A updates the direction, the magnitude
vector rescales each column. The plain low-rank adapter adds B@A directly;
the activation-scaling adapter multiplies key/value activations per column.
All of them leave the frozen weight bit-identical.
"""

from __future__ import annotations

import numpy as np

from .. import autodiff as ad


class LoraAdapter:
    """W_eff = W0 + B @ A with zero-initialized B."""

    def __init__(self, w0: ad.Tensor, rank: int, rng: np.random.Generator, name: str):
        d_out, d_in = w0.shape
        self.w0 = w0
        self.rank = rank
        self.b = ad.Tensor(np.zeros((d_out, rank)), requires_grad=True, name=f"{name}.b")
        self.a = ad.Tensor(rng.normal(0.0, 0.01, size=(rank, d_in)),
                           requires_grad=True, name=f"{name}.a")
        self.tensors = [self.b, self.a]

    def effective(self) -> ad.Tensor:
        return ad.add(self.w0, ad.matmul(self.b, self.a))


class DoraAdapter(LoraAdapter):
    """W_eff = m * column_normalize(W0 + B @ A); starts exactly at W0."""

    def __init__(self, w0: ad.Tensor, rank: int, rng: np.random.Generator, name: str):
        super().__init__(w0, rank, rng, name)
        m0 = np.sqrt((w0.data * w0.data).sum(axis=0))
        self.m = ad.Tensor(m0, requires_grad=True, name=f"{name}.m")
        self.tensors.append(self.m)

    def effective(self) -> ad.Tensor:
        direction = super().effective()
        col_sq = ad.column_sums(ad.mul(direction, direction))
        inv_norm = ad.pow_const(col_sq, -0.5)
        return ad.scale_columns(direction, ad.mul(inv_norm, self.m))


class Ia3Adapter:
    """Per-column scaling of key/value activations, initialized to ones."""

    def __init__(self, dim: int, name: str):
        self.lk = ad.Tensor(np.ones(dim), requires_grad=True, name=f"{name}.lk")
        self.lv = ad.Tensor(np.ones(dim), requires_grad=True, name=f"{name}.lv")
        self.tensors = [self.lk, self.lv]

    def scale_k(self, k: ad.Tensor) -> ad.Tensor:
        return ad.scale_columns(k, self.lk)

    def scale_v(self, v: ad.Tensor) -> ad.Tensor:
        return ad.scale_columns(v, self.lv)

