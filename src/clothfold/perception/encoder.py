"""Frozen dual-tower encoder (seeded stand-in for a pretrained VLM backbone).

Both towers are small post-norm transformer encoders over float64 tensors.
Tower weights never require gradients; the only trainable pieces inside are
the per-layer adapters on the query/value projections.
"""

from __future__ import annotations

import math

import numpy as np

from .. import autodiff as ad
from .adapters import DoraAdapter, Ia3Adapter, LoraAdapter
from .config import ModelConfig


def scaled_attention(q: ad.Tensor, k: ad.Tensor, v: ad.Tensor,
                     num_heads: int, head_dim: int) -> ad.Tensor:
    """softmax(Q K^T / sqrt(d_h)) V, per head, outputs re-concatenated."""
    outs = []
    for h in range(num_heads):
        lo, hi = h * head_dim, (h + 1) * head_dim
        qs = ad.slice_cols(q, lo, hi) if num_heads > 1 else q
        ks = ad.slice_cols(k, lo, hi) if num_heads > 1 else k
        vs = ad.slice_cols(v, lo, hi) if num_heads > 1 else v
        logits = ad.scale(ad.matmul(qs, ad.transpose2d(ks)), 1.0 / math.sqrt(head_dim))
        outs.append(ad.matmul(ad.softmax(logits, axis=-1), vs))
    return outs[0] if num_heads == 1 else ad.concat_cols(outs)


def _frozen(rng: np.random.Generator, shape, fan_in: int, name: str) -> ad.Tensor:
    return ad.Tensor(ad.he_normal(rng, shape, fan_in), requires_grad=False, name=name)


class EncoderBlock:
    """Post-norm transformer block with frozen weights and optional adapters.

    Frozen weights and adapter factors draw from separate generators so the
    towers are bit-identical across adapter and fusion choices.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, name: str,
                 rng_adapt: np.random.Generator | None = None):
        d = cfg.embed_dim
        hidden = cfg.mlp_ratio * d
        self.cfg = cfg
        self.name = name
        self.wq = _frozen(rng, (d, d), d, f"{name}.wq")
        self.wk = _frozen(rng, (d, d), d, f"{name}.wk")
        self.wv = _frozen(rng, (d, d), d, f"{name}.wv")
        self.wo = _frozen(rng, (d, d), d, f"{name}.wo")
        self.ln1_g = ad.Tensor(np.ones(d), name=f"{name}.ln1.g")
        self.ln1_b = ad.Tensor(np.zeros(d), name=f"{name}.ln1.b")
        self.mlp_w1 = _frozen(rng, (d, hidden), d, f"{name}.mlp.w1")
        self.mlp_b1 = ad.Tensor(np.zeros(hidden), name=f"{name}.mlp.b1")
        self.mlp_w2 = _frozen(rng, (hidden, d), hidden, f"{name}.mlp.w2")
        self.mlp_b2 = ad.Tensor(np.zeros(d), name=f"{name}.mlp.b2")
        self.ln2_g = ad.Tensor(np.ones(d), name=f"{name}.ln2.g")
        self.ln2_b = ad.Tensor(np.zeros(d), name=f"{name}.ln2.b")
        self.tensors = [self.wq, self.wk, self.wv, self.wo, self.ln1_g, self.ln1_b,
                        self.mlp_w1, self.mlp_b1, self.mlp_w2, self.mlp_b2,
                        self.ln2_g, self.ln2_b]

        self.q_adapter = self.v_adapter = self.ia3 = None
        rng_adapt = rng_adapt if rng_adapt is not None else rng
        if cfg.adapter in ("dora", "lora"):
            cls = DoraAdapter if cfg.adapter == "dora" else LoraAdapter
            self.q_adapter = cls(self.wq, cfg.dora_rank, rng_adapt, f"adapter.{name}.q")
            self.v_adapter = cls(self.wv, cfg.dora_rank, rng_adapt, f"adapter.{name}.v")
            self.tensors += self.q_adapter.tensors + self.v_adapter.tensors
        elif cfg.adapter == "ia3":
            self.ia3 = Ia3Adapter(cfg.embed_dim, f"adapter.{name}")
            self.tensors += self.ia3.tensors

    def forward(self, x: ad.Tensor) -> ad.Tensor:
        wq = self.q_adapter.effective() if self.q_adapter else self.wq
        wv = self.v_adapter.effective() if self.v_adapter else self.wv
        q = ad.matmul(x, wq)
        k = ad.matmul(x, self.wk)
        v = ad.matmul(x, wv)
        if self.ia3 is not None:
            k = self.ia3.scale_k(k)
            v = self.ia3.scale_v(v)
        att = scaled_attention(q, k, v, self.cfg.num_heads, self.cfg.head_dim)
        h = ad.layer_norm(ad.add(x, ad.matmul(att, self.wo)), self.ln1_g, self.ln1_b)
        m = ad.tanh(ad.add_rowvec(ad.matmul(h, self.mlp_w1), self.mlp_b1))
        m = ad.add_rowvec(ad.matmul(m, self.mlp_w2), self.mlp_b2)
        return ad.layer_norm(ad.add(h, m), self.ln2_g, self.ln2_b)


class FrozenEncoder:
    """Seeded text + image towers. ``encode`` returns token-level language
    features and patch-level visual features."""

    def __init__(self, cfg: ModelConfig, vocab_size: int, rng: np.random.Generator,
                 rng_adapt: np.random.Generator | None = None):
        d = cfg.embed_dim
        self.cfg = cfg
        self.vocab_size = vocab_size
        self.token_emb = ad.Tensor(rng.normal(0.0, 1.0, size=(vocab_size, d)),
                                   name="text.embed.token")
        self.text_pos = ad.Tensor(rng.normal(0.0, 0.2, size=(cfg.max_text_len, d)),
                                  name="text.embed.pos")
        self.patch_w = _frozen(rng, (cfg.patch_dim, d), cfg.patch_dim, "image.embed.patch_w")
        self.patch_b = ad.Tensor(np.zeros(d), name="image.embed.patch_b")
        self.image_pos = ad.Tensor(rng.normal(0.0, 0.2, size=(cfg.num_patches, d)),
                                   name="image.embed.pos")
        self.text_blocks = [EncoderBlock(cfg, rng, f"text.block{i}", rng_adapt)
                            for i in range(cfg.depth)]
        self.image_blocks = [EncoderBlock(cfg, rng, f"image.block{i}", rng_adapt)
                             for i in range(cfg.depth)]
        self.tensors = [self.token_emb, self.text_pos, self.patch_w, self.patch_b,
                        self.image_pos]
        for block in self.text_blocks + self.image_blocks:
            self.tensors += block.tensors

    def patchify(self, image4: np.ndarray) -> np.ndarray:
        cfg = self.cfg
        h, w, c = image4.shape
        if h != cfg.image_size or w != cfg.image_size or c != 4:
            raise ad.ShapeError(f"expected {cfg.image_size}x{cfg.image_size}x4 input, "
                                f"got {image4.shape}")
        g, ps = cfg.grid_side, cfg.patch_size
        patches = image4.reshape(g, ps, g, ps, 4).transpose(0, 2, 1, 3, 4)
        return patches.reshape(cfg.num_patches, cfg.patch_dim)

    def embed_text(self, token_ids: list[int]) -> ad.Tensor:
        n = len(token_ids)
        if n == 0:
            raise ad.ShapeError("cannot encode an empty token list")
        if n > self.cfg.max_text_len:
            raise ad.ShapeError(f"{n} tokens exceed max length {self.cfg.max_text_len}")
        ids = np.asarray(token_ids, dtype=np.int64)
        if ids.min() < 0 or ids.max() >= self.vocab_size:
            raise ad.ShapeError("token id outside the vocabulary")
        return ad.constant(self.token_emb.data[ids] + self.text_pos.data[:n])

    def embed_image(self, image4: np.ndarray) -> ad.Tensor:
        patches = self.patchify(np.asarray(image4, dtype=np.float64))
        return ad.constant(patches @ self.patch_w.data + self.patch_b.data
                           + self.image_pos.data)

    def encode(self, token_ids: list[int], image4: np.ndarray) -> tuple[ad.Tensor, ad.Tensor]:
        f_l = self.embed_text(token_ids)
        for block in self.text_blocks:
            f_l = block.forward(f_l)
        f_o = self.embed_image(image4)
        for block in self.image_blocks:
            f_o = block.forward(f_o)
        return f_l, f_o
