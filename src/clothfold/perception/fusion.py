"""Cross-modal fusion.

The primary path is bidirectional cross-attention: image tokens query the
language segment while the language segment queries the image; the language-
query output is mean-pooled, broadcast across image rows, concatenated on the
feature axis, projected back to width D, and folded into the image stream
through a residual + layer norm. A plain self-attention ("transformer")
fusion over the concatenated sequence is kept as an ablation baseline.
"""

from __future__ import annotations

import numpy as np

from .. import autodiff as ad
from .config import ModelConfig
from .encoder import EncoderBlock, scaled_attention


class LearnableTokens:
    """Prepended modality tokens: two language branches plus one shared
    visual token referenced by both the pick and place passes."""

    def __init__(self, dim: int, rng: np.random.Generator):
        self.t_l1 = ad.Tensor(rng.normal(0.0, 0.02, size=(1, dim)),
                              requires_grad=True, name="tokens.t_l1")
        self.t_l2 = ad.Tensor(rng.normal(0.0, 0.02, size=(1, dim)),
                              requires_grad=True, name="tokens.t_l2")
        self.t_o = ad.Tensor(rng.normal(0.0, 0.02, size=(1, dim)),
                             requires_grad=True, name="tokens.t_o")
        self.tensors = [self.t_l1, self.t_l2, self.t_o]


def prepend_tokens(f_l1: ad.Tensor, f_l2: ad.Tensor, f_o: ad.Tensor,
                   tokens: LearnableTokens) -> tuple[ad.Tensor, ad.Tensor, ad.Tensor]:
    """[t || f] for each modality; row counts become T1+1, T2+1, P+1."""
    return (ad.concat_rows([tokens.t_l1, f_l1]),
            ad.concat_rows([tokens.t_l2, f_l2]),
            ad.concat_rows([tokens.t_o, f_o]))


class FusionBlock:
    """Bidirectional cross-attention weights, shared by both branches."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        d = cfg.embed_dim
        self.cfg = cfg

        def w(shape, fan_in, name):
            return ad.Tensor(ad.he_normal(rng, shape, fan_in),
                             requires_grad=True, name=name)

        self.w_o_q = w((d, d), d, "fusion.w_o_q")
        self.w_o_k = w((d, d), d, "fusion.w_o_k")
        self.w_o_v = w((d, d), d, "fusion.w_o_v")
        self.w_l_q = w((d, d), d, "fusion.w_l_q")
        self.w_l_k = w((d, d), d, "fusion.w_l_k")
        self.w_l_v = w((d, d), d, "fusion.w_l_v")
        self.w_p = w((2 * d, d), 2 * d, "fusion.w_p")
        self.ln_g = ad.Tensor(np.ones(d), requires_grad=True, name="fusion.ln.g")
        self.ln_b = ad.Tensor(np.zeros(d), requires_grad=True, name="fusion.ln.b")
        self.tensors = [self.w_o_q, self.w_o_k, self.w_o_v, self.w_l_q, self.w_l_k,
                        self.w_l_v, self.w_p, self.ln_g, self.ln_b]

    def fuse(self, f_o: ad.Tensor, f_l: ad.Tensor) -> ad.Tensor:
        """Fuse one language segment into the image stream; output keeps the
        image's (P+1) x D shape regardless of the segment length."""
        cfg = self.cfg
        q_o = ad.matmul(f_o, self.w_o_q)
        k_o = ad.matmul(f_l, self.w_o_k)
        v_o = ad.matmul(f_l, self.w_o_v)
        s_vis = scaled_attention(q_o, k_o, v_o, cfg.num_heads, cfg.head_dim)

        q_l = ad.matmul(f_l, self.w_l_q)
        k_l = ad.matmul(f_o, self.w_l_k)
        v_l = ad.matmul(f_o, self.w_l_v)
        s_text = scaled_attention(q_l, k_l, v_l, cfg.num_heads, cfg.head_dim)

        # The text-query output has one row per text token; pool and broadcast
        # it so the feature-axis concatenation lines up with the image rows and
        # the residual below stays exactly shape-compatible.
        s_text_rows = ad.tile_rows(ad.mean_rows(s_text), f_o.shape[0])
        fused = ad.matmul(ad.concat_cols([s_vis, s_text_rows]), self.w_p)
        return ad.layer_norm(ad.add(fused, f_o), self.ln_g, self.ln_b)


class TransformerFusion:
    """Ablation baseline: self-attention over [F_o || F_l], image rows out."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.blocks = [EncoderBlock(ModelConfig(**{**cfg.to_record(), "adapter": "none"}),
                                    rng, f"fusion.block{i}") for i in range(2)]
        self.tensors = [t for block in self.blocks for t in block.tensors]
        for t in self.tensors:
            t.requires_grad = True      # fusion is trainable, unlike the towers

    def fuse(self, f_o: ad.Tensor, f_l: ad.Tensor) -> ad.Tensor:
        x = ad.concat_rows([f_o, f_l])
        for block in self.blocks:
            x = block.forward(x, block.wq, block.wv)
        return ad.slice_rows(x, 0, f_o.shape[0])
