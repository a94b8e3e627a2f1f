"""The full perception network: frozen towers + adapters, conjunction-based
feature segmentation, learnable prepended tokens, cross-modal fusion, and two
heatmap decoders with argmax action selection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import autodiff as ad
from ..sim.expert import PickPlaceAction
from ..sim.render import Observation
from .config import ModelConfig
from .decoder import CunDecoder
from .encoder import FrozenEncoder
from .fusion import (FusionBlock, LearnableTokens, TransformerFusion,
                     prepend_tokens)
from .vocab import default_vocabulary, tokenize

DEPTH_RANGE = 0.05      # meters of depth variation mapped onto [0, 1]


class EmptyMaskError(RuntimeError):
    """Workspace segmentation found no cloth pixels."""


class SegmentationError(ad.ShapeError):
    pass


def segment_workspace(obs: Observation, crop_size: int) -> tuple[Observation, tuple[int, int]]:
    """Suppress background pixels and center-crop to the model resolution.

    Returns the masked observation plus the (row, col) crop offset needed to
    map model pixels back into the full frame. Idempotent on its own output.
    """
    mask = obs.cloth_mask
    if not mask.any():
        raise EmptyMaskError("no cloth pixels found in the observation")
    h, w = mask.shape
    if crop_size > min(h, w):
        raise SegmentationError(f"crop {crop_size} larger than image {h}x{w}")
    r0 = (h - crop_size) // 2
    c0 = (w - crop_size) // 2
    window = (slice(r0, r0 + crop_size), slice(c0, c0 + crop_size))
    mask = mask[window]
    if not mask.any():
        raise EmptyMaskError("center crop removed all cloth pixels")
    rgb, depth = obs.crop(window)
    rgb = np.where(mask[..., None], rgb, 0.0)
    depth = np.where(mask, depth, obs.camera.table_depth)
    return Observation(rgb, depth, obs.camera), (r0, c0)


def normalize_observation(obs: Observation) -> np.ndarray:
    """RGB stays in [0,1]; depth becomes height above the table in [0,1]."""
    depth_norm = np.clip((obs.camera.table_depth - obs.depth) / DEPTH_RANGE, 0.0, 1.0)
    return np.concatenate([obs.rgb, depth_norm[..., None]], axis=-1)


@dataclass
class HeatmapPair:
    q_pick: np.ndarray    # [H, W] in (0, 1)
    q_place: np.ndarray


def select_action(q_pick: np.ndarray, q_place: np.ndarray) -> PickPlaceAction:
    """Argmax pixels; ties resolve to the smallest row-major index."""
    w = q_pick.shape[1]
    return PickPlaceAction(divmod(int(np.argmax(q_pick)), w),
                           divmod(int(np.argmax(q_place)), w))


class PerceptionModel:
    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.vocab = default_vocabulary()
        self._and_id = self.vocab.word_to_id["and"]
        # Separate streams keep the frozen towers bit-identical across
        # adapter and fusion choices.
        seeds = np.random.SeedSequence(cfg.seed).spawn(4)
        rng_frozen, rng_adapt, rng_fusion, rng_dec = map(np.random.default_rng, seeds)
        self.encoder = FrozenEncoder(cfg, len(self.vocab), rng_frozen, rng_adapt)
        self.tokens = LearnableTokens(cfg.embed_dim, rng_fusion)
        if cfg.fusion == "cross-attention":
            self.fusion = FusionBlock(cfg, rng_fusion)
        else:
            self.fusion = TransformerFusion(cfg, rng_fusion)
        self.decoder_pick = CunDecoder(cfg, rng_dec, "decoder.pick")
        self.decoder_place = CunDecoder(cfg, rng_dec, "decoder.place")
        self._params = {t.name: t for part in (self.encoder, self.fusion, self.tokens,
                                               self.decoder_pick, self.decoder_place)
                        for t in part.tensors}

    # -- parameter registry -------------------------------------------------
    # Each component lists its tensors in ``tensors`` as it makes them; the
    # trainable order, and with it the optimizer's flat layout, is the order
    # of those lists filtered by ``requires_grad``.

    def named_parameters(self) -> dict[str, ad.Tensor]:
        return dict(self._params)

    def frozen_parameters(self) -> dict[str, ad.Tensor]:
        return {k: t for k, t in self._params.items() if not t.requires_grad}

    def trainable_parameters(self) -> dict[str, ad.Tensor]:
        return {k: t for k, t in self._params.items() if t.requires_grad}

    def parameter_census(self) -> dict[str, int]:
        trainable = sum(t.size for t in self.trainable_parameters().values())
        frozen = sum(t.size for t in self.frozen_parameters().values())
        return {"trainable": trainable, "frozen": frozen, "total": trainable + frozen}

    # -- forward pieces -----------------------------------------------------

    def tokenize(self, text: str) -> list[int]:
        return tokenize(text, self.vocab, max_len=self.cfg.max_text_len)

    def encode(self, token_ids: list[int], image4: np.ndarray) -> tuple[ad.Tensor, ad.Tensor]:
        return self.encoder.encode(token_ids, image4)

    def segment_text_features(self, f_l: ad.Tensor,
                              token_ids: list[int]) -> tuple[ad.Tensor, ad.Tensor]:
        """Split token features at the conjunction; its row is dropped."""
        if len(token_ids) != f_l.shape[0]:
            raise ad.ShapeError(f"{len(token_ids)} ids vs {f_l.shape[0]} feature rows")
        if self._and_id not in token_ids:
            raise ad.ShapeError("no conjunction token in the instruction")
        i = token_ids.index(self._and_id)
        if i == 0 or i == len(token_ids) - 1:
            raise ad.ShapeError("conjunction cannot start or end the instruction")
        return ad.slice_rows(f_l, 0, i), ad.slice_rows(f_l, i + 1, f_l.shape[0])

    def forward_heatmaps(self, image4: np.ndarray,
                         token_ids: list[int]) -> tuple[ad.Tensor, ad.Tensor]:
        """Differentiable core: masked RGB-D input + token ids -> two maps."""
        f_l, f_o = self.encode(token_ids, image4)
        f_l1, f_l2 = self.segment_text_features(f_l, token_ids)
        cap_l1, cap_l2, cap_o = prepend_tokens(f_l1, f_l2, f_o, self.tokens)
        fused_pick = self.fusion.fuse(cap_o, cap_l1)
        fused_place = self.fusion.fuse(cap_o, cap_l2)
        return (self.decoder_pick.forward(fused_pick),
                self.decoder_place.forward(fused_place))

    def forward(self, obs: Observation, subtask) -> tuple[HeatmapPair, PickPlaceAction]:
        """Full inference on a masked, cropped observation."""
        text = subtask.text if hasattr(subtask, "text") else str(subtask)
        token_ids = self.tokenize(text)
        image4 = normalize_observation(obs)
        q_pick_t, q_place_t = self.forward_heatmaps(image4, token_ids)
        pair = HeatmapPair(q_pick_t.data.copy(), q_place_t.data.copy())
        return pair, select_action(pair.q_pick, pair.q_place)
