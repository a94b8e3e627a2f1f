"""Convolutional upsampling decoder: fused tokens -> full-resolution heatmap.

Stages of 1x1 convolution, tanh and align-corners bilinear upsampling carry
the patch grid back to image resolution; a final sigmoid maps the single
output channel to probabilities. Channel widths halve per stage down to the
single-channel output, and the per-stage upsampling factors multiply back to
the patch size.

Each convolution after the first runs before the previous stage's upsample,
on the coarser grid. In real arithmetic that is the per-stage ``conv -> tanh
-> up``: a 1x1 convolution commutes with the upsample, and its bias passes
through because every interpolation row sums to 1. Only the rounding differs.
"""

from __future__ import annotations

import numpy as np

from .. import autodiff as ad
from .config import ModelConfig


class CunDecoder:
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, name: str):
        self.cfg = cfg
        self.name = name
        self.factors = cfg.upsample_factors()
        channels = [cfg.embed_dim]
        for i in range(len(self.factors) - 1):
            channels.append(max(channels[-1] // 2, 1))
        channels.append(1)
        self.weights: list[ad.Tensor] = []
        self.biases: list[ad.Tensor] = []
        self.tensors: list[ad.Tensor] = []
        for i, (c_in, c_out) in enumerate(zip(channels[:-1], channels[1:])):
            self.weights.append(ad.Tensor(ad.he_normal(rng, (c_out, c_in), c_in),
                                          requires_grad=True, name=f"{name}.stage{i}.w"))
            self.biases.append(ad.Tensor(np.zeros(c_out),
                                         requires_grad=True, name=f"{name}.stage{i}.b"))
            self.tensors += (self.weights[-1], self.biases[-1])

    def forward(self, fused_tokens: ad.Tensor) -> ad.Tensor:
        """(P+1) x D fused features (row 0 = prepended token) -> H x W logits
        through sigmoid. P is the patch grid's side squared. Three stages run
        ``conv0 tanh conv1 up0 tanh conv2 up1 up2``: the same function as
        ``conv0 tanh up0 conv1 tanh up1 conv2 up2`` (see the module docstring)."""
        cfg = self.cfg
        n, d = fused_tokens.shape
        if n != cfg.num_patches + 1 or d != cfg.embed_dim:
            raise ad.ShapeError(f"decoder expects ({cfg.num_patches + 1}, "
                                f"{cfg.embed_dim}), got {fused_tokens.shape}")
        g = cfg.grid_side
        x = ad.slice_rows(fused_tokens, 1, n)                 # drop the prepended token
        x = ad.reshape(ad.transpose2d(x), (cfg.embed_dim, g, g))
        x = ad.conv1x1(x, self.weights[0], self.biases[0])
        for w, b, f in zip(self.weights[1:], self.biases[1:], self.factors):
            x = ad.bilinear_upsample(ad.conv1x1(ad.tanh(x), w, b), f)
        x = ad.bilinear_upsample(x, self.factors[-1])
        x = ad.reshape(x, (cfg.image_size, cfg.image_size))
        return ad.sigmoid(x)
