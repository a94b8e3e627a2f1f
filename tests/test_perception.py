"""Perception model contracts: encoding shapes, adapters, fusion, decoding,
action selection, workspace segmentation, and the trainable census."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from clothfold import autodiff as ad
from clothfold import sim
from clothfold.perception import (ModelConfig, PerceptionModel, TokenizeError,
                                  default_vocabulary, segment_workspace,
                                  select_action, tokenize)
from clothfold.perception.fusion import prepend_tokens
from clothfold.perception.model import EmptyMaskError
from clothfold.planner import GrammarError, validate_subtask


@pytest.fixture(scope="module")
def small_cfg():
    return ModelConfig(embed_dim=16, depth=1, patch_size=56, image_size=112,
                       seed=11)


@pytest.fixture(scope="module")
def small_model(small_cfg):
    return PerceptionModel(small_cfg)


@pytest.fixture(scope="module")
def towel_obs():
    env = sim.ClothSim(sim.init_cloth("towel"))
    return env.observe()


@pytest.fixture(scope="module")
def towel_seg(towel_obs):
    return segment_workspace(towel_obs, 112)


SENTENCE = "Grasp the left leg and place it over the right leg"


class TestTokenize:
    def test_known_words(self):
        ids = tokenize("Grasp the left leg")
        assert len(ids) == 4
        assert all(i != default_vocabulary().unk_id for i in ids)

    def test_case_folding(self):
        assert tokenize("GRASP the LEFT leg") == tokenize("grasp the left leg")

    def test_unknown_word_maps_to_unk(self):
        ids = tokenize("grasp the zorp leg")
        assert ids[2] == default_vocabulary().unk_id

    def test_empty_text_rejected(self):
        with pytest.raises(TokenizeError):
            tokenize("  !! ")

    def test_max_len_enforced(self):
        with pytest.raises(TokenizeError):
            tokenize("a " * 40, max_len=24)

    def test_vocabulary_covers_all_template_surface_forms(self):
        # training text must never fall back to UNK
        from clothfold.planner import decompose
        from clothfold.planner.templates import (AUX_FAMILIES, PREP_VARIANTS,
                                                 TASK_FAMILIES, command_bank)
        unk = default_vocabulary().unk_id
        for family in TASK_FAMILIES + AUX_FAMILIES:
            for v in range(len(PREP_VARIANTS)):
                for s in decompose(command_bank(family)[v]):
                    assert unk not in tokenize(s.text), s.text


class TestEncode:
    def test_shape_arithmetic_224(self):
        cfg = ModelConfig(embed_dim=16, depth=1, patch_size=16, image_size=224,
                          seed=1)
        model = PerceptionModel(cfg)
        ids = model.tokenize(SENTENCE)
        assert len(ids) == 11
        image4 = np.zeros((224, 224, 4))
        f_l, f_o = model.encoder.encode(ids, image4)
        assert f_l.shape == (11, 16)
        assert f_o.shape == (196, 16)

    def test_deterministic(self, small_model, towel_seg):
        img, _ = towel_seg
        ids = small_model.tokenize(SENTENCE)
        a_l, a_o = small_model.encoder.encode(ids, img)
        b_l, b_o = small_model.encoder.encode(ids, img)
        assert np.array_equal(a_l.data, b_l.data)
        assert np.array_equal(a_o.data, b_o.data)

    def test_resolution_mismatch(self, small_model):
        with pytest.raises(ad.ShapeError):
            small_model.encoder.encode([1, 2], np.zeros((64, 64, 4)))

    def test_empty_token_list_rejected(self, small_model):
        with pytest.raises(ad.ShapeError, match="empty token list"):
            small_model.encoder.embed_text([])

    def test_tokens_beyond_max_text_len_rejected(self, small_model):
        n = small_model.cfg.max_text_len
        small_model.encoder.embed_text([1] * n)
        with pytest.raises(ad.ShapeError, match=f"{n + 1} tokens exceed max length {n}"):
            small_model.encoder.embed_text([1] * (n + 1))

    @pytest.mark.parametrize("bad", [-1, len(default_vocabulary())])
    def test_token_id_outside_vocabulary_rejected(self, small_model, bad):
        with pytest.raises(ad.ShapeError, match="outside the vocabulary"):
            small_model.encoder.embed_text([1, bad, 2])

    def test_adapters_disabled_equals_frozen_oracle(self, small_cfg, small_model,
                                                     towel_seg):
        # Adapters start at W0, and an adapter-free model of the same config
        # and seed has bit-equal towers: it is the frozen-encoder oracle.
        img, _ = towel_seg
        ids = small_model.tokenize(SENTENCE)
        with_adapters = small_model.encoder.encode(ids, img)
        without = PerceptionModel(replace(small_cfg, adapter="none")).encoder.encode(ids, img)
        assert np.abs(with_adapters[0].data - without[0].data).max() < 1e-12
        assert np.abs(with_adapters[1].data - without[1].data).max() < 1e-12


class TestDora:
    def test_identity_at_init(self, small_model):
        for block in small_model.encoder.text_blocks + small_model.encoder.image_blocks:
            for adapter in (block.q_adapter, block.v_adapter):
                eff = adapter.effective()
                assert np.abs(eff.data - adapter.w0.data).max() < 1e-12

    def test_column_norm_equals_magnitude(self, rng):
        cfg = ModelConfig(embed_dim=16, depth=1, patch_size=56, image_size=112,
                          seed=5)
        model = PerceptionModel(cfg)
        adapter = model.encoder.text_blocks[0].q_adapter
        adapter.b.data[:] = rng.normal(size=adapter.b.shape)
        adapter.a.data[:] = rng.normal(size=adapter.a.shape)
        adapter.m.data[:] = np.abs(rng.normal(size=adapter.m.shape)) + 0.25
        eff = adapter.effective().data
        norms = np.sqrt((eff ** 2).sum(axis=0))
        assert np.abs(norms - adapter.m.data).max() < 1e-9

    def test_gradients_reach_all_factors(self, small_model, towel_seg):
        img, _ = towel_seg
        ids = small_model.tokenize(SENTENCE)
        adapter = small_model.encoder.text_blocks[0].q_adapter
        adapter.b.data[:] = 0.01      # leave the zero point so A gets signal
        with ad.Tape() as tape:
            q_pick, _ = small_model.forward_heatmaps(img, ids)
            tape.backward(ad.sum_all(q_pick))
        for t in (adapter.b, adapter.a, adapter.m):
            assert t.grad is not None and np.abs(t.grad).max() > 0
        adapter.b.data[:] = 0.0

    def test_frozen_towers_never_require_grad(self, small_model):
        for name, t in small_model.frozen_parameters().items():
            assert not t.requires_grad, name


class TestFusion:
    def test_output_shape_for_any_text_length(self, small_model, rng):
        cfg = small_model.cfg
        p1 = cfg.num_patches + 1
        f_o = ad.Tensor(rng.normal(size=(p1, cfg.embed_dim)))
        for t_len in (1, 2, 5, 9):
            f_l = ad.Tensor(rng.normal(size=(t_len, cfg.embed_dim)))
            fused = small_model.fusion.fuse(f_o, f_l)
            assert fused.shape == (p1, cfg.embed_dim)

    def test_zero_projection_reduces_to_layernorm(self, small_model, rng):
        cfg = small_model.cfg
        block = small_model.fusion
        p1 = cfg.num_patches + 1
        f_o = ad.Tensor(rng.normal(size=(p1, cfg.embed_dim)))
        f_l = ad.Tensor(rng.normal(size=(4, cfg.embed_dim)))
        saved = block.w_p.data.copy()
        block.w_p.data[:] = 0.0
        fused = block.fuse(f_o, f_l)
        expect = ad.layer_norm(f_o, block.ln_g, block.ln_b)
        block.w_p.data[:] = saved
        np.testing.assert_array_equal(fused.data, expect.data)

    def test_single_key_attention_collapse(self, small_model, rng):
        # with one text row, softmax over the single key is 1 everywhere, so
        # the image-query attention output equals that token's value projection
        cfg = small_model.cfg
        block = small_model.fusion
        f_o = ad.Tensor(rng.normal(size=(cfg.num_patches + 1, cfg.embed_dim)))
        f_l = ad.Tensor(rng.normal(size=(1, cfg.embed_dim)))
        v_row = (f_l.data @ block.w_o_v.data)[0]
        q_o = ad.matmul(f_o, block.w_o_q)
        k_o = ad.matmul(f_l, block.w_o_k)
        v_o = ad.matmul(f_l, block.w_o_v)
        att = ad.softmax(ad.scale(ad.matmul(q_o, ad.transpose2d(k_o)),
                                  1.0 / np.sqrt(cfg.head_dim)), axis=-1)
        s_vis = ad.matmul(att, v_o)
        np.testing.assert_allclose(s_vis.data,
                                   np.broadcast_to(v_row, s_vis.shape), atol=1e-12)

    def test_prepended_rows(self, small_model, rng):
        cfg = small_model.cfg
        f_l1 = ad.Tensor(rng.normal(size=(4, cfg.embed_dim)))
        f_l2 = ad.Tensor(rng.normal(size=(6, cfg.embed_dim)))
        f_o = ad.Tensor(rng.normal(size=(cfg.num_patches, cfg.embed_dim)))
        c1, c2, co = prepend_tokens(f_l1, f_l2, f_o, small_model.tokens)
        assert c1.shape[0] == 5 and c2.shape[0] == 7
        assert co.shape[0] == cfg.num_patches + 1
        np.testing.assert_array_equal(co.data[0], small_model.tokens.t_o.data[0])

    def test_language_tokens_receive_gradient(self, small_model, towel_seg):
        img, _ = towel_seg
        ids = small_model.tokenize(SENTENCE)
        with ad.Tape() as tape:
            q_pick, q_place = small_model.forward_heatmaps(img, ids)
            tape.backward(ad.sum_all(ad.add(q_pick, q_place)))
        for t in (small_model.tokens.t_l1, small_model.tokens.t_l2,
                  small_model.tokens.t_o):
            assert t.grad is not None and np.abs(t.grad).max() > 0

    def test_shared_visual_token_is_same_tensor(self, small_model, towel_seg):
        # One visual token serves both passes: each heatmap alone sends it a
        # gradient, and the model registers it once.
        img, _ = towel_seg
        ids = small_model.tokenize(SENTENCE)
        t_o = small_model.tokens.t_o
        for branch in (0, 1):
            t_o.grad = None
            with ad.Tape() as tape:
                heatmap = small_model.forward_heatmaps(img, ids)[branch]
                tape.backward(ad.sum_all(heatmap))
            assert np.abs(t_o.grad).max() > 0, branch
        assert [p for p in small_model.trainable_parameters().values()
                if p is t_o] == [t_o]


class TestSegmentTextFeatures:
    def test_reference_sentence_split(self, small_model, rng):
        ids = small_model.tokenize(SENTENCE)
        assert len(ids) == 11
        f_l = ad.Tensor(rng.normal(size=(11, small_model.cfg.embed_dim)))
        f1, f2 = small_model.segment_text_features(f_l, ids)
        assert f1.shape[0] == 4 and f2.shape[0] == 6

    def test_minimal_split(self, small_model, rng):
        ids = small_model.tokenize("leg and waist")
        f_l = ad.Tensor(rng.normal(size=(3, small_model.cfg.embed_dim)))
        f1, f2 = small_model.segment_text_features(f_l, ids)
        assert f1.shape[0] == 1 and f2.shape[0] == 1

    def test_partition_reconstructs(self, small_model, rng):
        ids = small_model.tokenize(SENTENCE)
        f_l = ad.Tensor(rng.normal(size=(11, small_model.cfg.embed_dim)))
        f1, f2 = small_model.segment_text_features(f_l, ids)
        i = ids.index(default_vocabulary().word_to_id["and"])
        rebuilt = np.vstack([f1.data, f_l.data[i:i + 1], f2.data])
        np.testing.assert_array_equal(rebuilt, f_l.data)

    def test_ids_and_feature_rows_must_agree(self, small_model, rng):
        ids = small_model.tokenize(SENTENCE)
        f_l = ad.Tensor(rng.normal(size=(10, small_model.cfg.embed_dim)))
        with pytest.raises(ad.ShapeError, match="11 ids vs 10 feature rows"):
            small_model.segment_text_features(f_l, ids)

    @pytest.mark.parametrize("text", ["and left leg", "left leg and"])
    def test_conjunction_at_either_end_rejected(self, small_model, rng, text):
        ids = small_model.tokenize(text)
        f_l = ad.Tensor(rng.normal(size=(3, small_model.cfg.embed_dim)))
        with pytest.raises(GrammarError) as err:
            small_model.segment_text_features(f_l, ids)
        assert err.value.reason == "empty-phrase"

    def test_missing_conjunction_rejected(self, small_model, rng):
        ids = small_model.tokenize("grasp the left leg")
        f_l = ad.Tensor(rng.normal(size=(4, small_model.cfg.embed_dim)))
        with pytest.raises(GrammarError) as err:
            small_model.segment_text_features(f_l, ids)
        assert err.value.reason == "missing-conjunction"


class TestDecoder:
    def test_output_shape_and_range(self, small_model, rng):
        cfg = small_model.cfg
        fused = ad.Tensor(rng.normal(size=(cfg.num_patches + 1, cfg.embed_dim)))
        out = small_model.decoder_pick.forward(fused)
        assert out.shape == (cfg.image_size, cfg.image_size)
        assert (out.data > 0).all() and (out.data < 1).all()

    def test_constant_input_zero_weights_gives_sigmoid_bias(self, rng):
        cfg = ModelConfig(embed_dim=16, depth=1, patch_size=56, image_size=112,
                          seed=2)
        model = PerceptionModel(cfg)
        dec = model.decoder_pick
        for w in dec.weights:
            w.data[:] = 0.0
        bias = 0.31
        dec.biases[-1].data[:] = bias
        for b in dec.biases[:-1]:
            b.data[:] = 0.0
        fused = ad.Tensor(rng.normal(size=(cfg.num_patches + 1, cfg.embed_dim)))
        out = dec.forward(fused)
        np.testing.assert_allclose(out.data, 1 / (1 + np.exp(-bias)), atol=1e-12)

    def test_pick_place_decoders_independent(self, small_model, rng):
        cfg = small_model.cfg
        fused = ad.Tensor(rng.normal(size=(cfg.num_patches + 1, cfg.embed_dim)))
        a = small_model.decoder_pick.forward(fused).data
        b = small_model.decoder_place.forward(fused).data
        assert not np.array_equal(a, b)

    def test_upsample_factors_multiply_to_patch_size(self):
        # The decoder upsamples the patch grid by these factors, back to the image.
        for ps in range(2, 65):
            cfg = ModelConfig(embed_dim=16, depth=1, patch_size=ps, image_size=2 * ps)
            factors = cfg.upsample_factors()
            assert all(type(f) is int and f >= 2 for f in factors)
            assert int(np.prod(factors)) == ps


class TestSelectAction:
    def test_single_peak(self):
        q = np.full((16, 16), 0.1)
        q[7, 3] = 1.0
        pick, _ = select_action(q, q)
        assert pick == (7, 3)

    def test_row_major_tie_break(self):
        q = np.zeros((8, 8))
        q[0, 5] = 0.7
        q[2, 1] = 0.7
        pick, _ = select_action(q, q)
        assert pick == (0, 5)

    def test_monotone_transform_invariance(self, rng):
        q = rng.uniform(0.01, 0.99, size=(12, 12))
        a, _ = select_action(q, q)
        b, _ = select_action(np.tanh(3 * q) + 2, np.tanh(3 * q) + 2)
        assert a == b


class TestSegmentWorkspace:
    def test_mask_equals_renderer_mask(self, towel_obs):
        mask = towel_obs.rgb.max(axis=-1) > 0.05
        np.testing.assert_array_equal(mask, towel_obs.cloth_mask)
        img, (r0, c0) = segment_workspace(towel_obs, 112)
        np.testing.assert_array_equal(
            img[..., :3].max(axis=-1) > 0.05, towel_obs.cloth_mask[r0:r0 + 112, c0:c0 + 112])

    def test_pure_background_rejected(self):
        m = sim.init_cloth("towel")
        m.active[:] = False
        obs = sim.render(m, sim.default_camera())
        with pytest.raises(EmptyMaskError):
            segment_workspace(obs, 112)

    def test_background_suppressed(self, towel_obs):
        img, (r0, c0) = segment_workspace(towel_obs, 112)
        assert img.shape == (112, 112, 4) and img.dtype == np.float64
        off_cloth = ~towel_obs.cloth_mask[r0:r0 + 112, c0:c0 + 112]
        assert off_cloth.any()
        assert (img[off_cloth] == 0).all()


class TestForward:
    def test_shape_contract_and_determinism(self, small_model, towel_seg):
        img, _ = towel_seg
        st_ = validate_subtask(
            "Grasp the left edge of the Towel and place it to the right edge")
        (q_pick1, q_place1), (pick1, _) = small_model.forward(img, st_)
        (q_pick2, _), (pick2, _) = small_model.forward(img, st_)
        assert q_pick1.shape == (112, 112)
        assert q_place1.shape == (112, 112)
        assert (q_pick1 > 0).all() and (q_pick1 < 1).all()
        assert np.array_equal(q_pick1, q_pick2)
        assert pick1 == pick2


class TestMultiHead:
    def test_two_head_model_forward_and_gradients(self, rng):
        cfg = ModelConfig(embed_dim=16, num_heads=2, depth=1, patch_size=56,
                          image_size=112, seed=9)
        assert cfg.head_dim == 8
        model = PerceptionModel(cfg)
        env = sim.ClothSim(sim.init_cloth("towel"))
        img, _ = segment_workspace(env.observe(), 112)
        ids = model.tokenize(SENTENCE)
        with ad.Tape() as tape:
            q_pick, _ = model.forward_heatmaps(img, ids)
            tape.backward(ad.sum_all(q_pick))
        assert q_pick.shape == (112, 112)
        grads = [t.grad for t in model.fusion.tensors]
        assert all(g is not None for g in grads)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(embed_dim=16, num_heads=3)


def _per_block(prefix, names):
    return [f"{prefix}{tower}.block{i}.{n}" for tower in ("text", "image")
            for i in range(2) for n in names]


# The trainable order of the parent of the one-registry change at D=16,
# depth 2: it fixes ``Adam.spans``, the flat layout and the clip norm's
# per-slice summation order. The span digests are
# ``sha256(json.dumps(Adam(trainable).spans))[:16]`` at that commit.
_BLOCK = ["wq", "wk", "wv", "wo", "ln1.g", "ln1.b", "mlp.w1", "mlp.b1", "mlp.w2",
          "mlp.b2", "ln2.g", "ln2.b"]
_PARENT_ADAPTER_ORDER = {
    "dora": _per_block("adapter.", [f"{qv}.{f}" for qv in "qv" for f in "bam"]),
    "lora": _per_block("adapter.", [f"{qv}.{f}" for qv in "qv" for f in "ba"]),
    "ia3": _per_block("adapter.", ["lk", "lv"]),
    "none": [],
}
_PARENT_FUSION_ORDER = {
    "cross-attention": [f"fusion.{n}" for n in ("w_o_q", "w_o_k", "w_o_v", "w_l_q",
                                                "w_l_k", "w_l_v", "w_p", "ln.g", "ln.b")],
    "transformer": [f"fusion.block{i}.{n}" for i in range(2) for n in _BLOCK],
}
_PARENT_TAIL_ORDER = ["tokens.t_l1", "tokens.t_l2", "tokens.t_o"] + [
    f"decoder.{head}.stage{i}.{wb}" for head in ("pick", "place")
    for i in range(4) for wb in "wb"]
_PARENT_SPANS_SHA = {
    ("dora", "cross-attention"): "9faef1525671474f",
    ("dora", "transformer"): "d1abea3dd3e29902",
    ("lora", "cross-attention"): "b23a38bb08098172",
    ("lora", "transformer"): "e77507c6084ff2ca",
    ("ia3", "cross-attention"): "eb1b89717bcf509d",
    ("ia3", "transformer"): "cbed6436272470e6",
    ("none", "cross-attention"): "77c4ba3806742ba1",
    ("none", "transformer"): "60aab81a6ac2b833",
}


class TestCensus:
    @pytest.mark.parametrize("adapter", ["dora", "lora", "ia3", "none"])
    @pytest.mark.parametrize("fusion", ["cross-attention", "transformer"])
    def test_registry_names_split_and_order(self, adapter, fusion):
        cfg = ModelConfig(embed_dim=16, depth=2, patch_size=16, image_size=112,
                          seed=3, adapter=adapter, fusion=fusion)
        model = PerceptionModel(cfg)
        named = model.named_parameters()
        assert all(k == t.name for k, t in named.items())
        trainable, frozen = model.trainable_parameters(), model.frozen_parameters()
        assert not trainable.keys() & frozen.keys()
        assert {**trainable, **frozen} == named
        assert all(t.requires_grad for t in trainable.values())
        assert not any(t.requires_grad for t in frozen.values())
        assert list(trainable) == (_PARENT_ADAPTER_ORDER[adapter]
                                   + _PARENT_FUSION_ORDER[fusion] + _PARENT_TAIL_ORDER)
        frozen_order = (["text.embed.token", "text.embed.pos", "image.embed.patch_w",
                         "image.embed.patch_b", "image.embed.pos"] + _per_block("", _BLOCK))
        assert list(frozen) == frozen_order
        spans = ad.Adam(trainable.values()).spans
        digest = hashlib.sha256(json.dumps(spans).encode()).hexdigest()[:16]
        assert digest == _PARENT_SPANS_SHA[adapter, fusion]

    @pytest.mark.parametrize("adapter", ["dora", "lora", "ia3", "none"])
    @pytest.mark.parametrize("fusion", ["cross-attention", "transformer"])
    def test_census_matches_formula(self, adapter, fusion):
        cfg = ModelConfig(embed_dim=16, depth=2, patch_size=16, image_size=112,
                          seed=3, adapter=adapter, fusion=fusion)
        model = PerceptionModel(cfg)
        n_layers = 2 * cfg.depth                 # text and image blocks
        d, r = cfg.embed_dim, cfg.dora_rank
        expected_adapter = {"dora": n_layers * 2 * (2 * d * r + d),    # q and v
                            "lora": n_layers * 2 * (2 * d * r),
                            "ia3": n_layers * 2 * d,                   # lk and lv
                            "none": 0}[adapter]
        channels = [d]                           # halved per stage, then 1
        for _ in cfg.upsample_factors()[1:]:
            channels.append(max(channels[-1] // 2, 1))
        channels.append(1)
        decoder = sum(c_in * c_out + c_out for c_in, c_out in zip(channels, channels[1:]))
        others = sum(t.size for t in model.fusion.tensors) + 3 * d + 2 * decoder
        assert model.parameter_census()["trainable"] == expected_adapter + others

    def test_checkpoint_names_cover_census(self, small_model):
        named = small_model.named_parameters()
        total = sum(t.size for t in named.values())
        census = small_model.parameter_census()
        assert total == census["total"]

    def test_frozen_bits_unchanged_by_adapter_forward(self, small_model, towel_seg):
        img, _ = towel_seg
        ids = small_model.tokenize(SENTENCE)
        before = {k: t.data.copy() for k, t in small_model.frozen_parameters().items()}
        with ad.Tape() as tape:
            q_pick, _ = small_model.forward_heatmaps(img, ids)
            tape.backward(ad.sum_all(q_pick))
        for k, t in small_model.frozen_parameters().items():
            assert np.array_equal(before[k], t.data), k
