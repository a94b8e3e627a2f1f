"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.

Full-scale headline numbers are out of reach at desk scale by design; these
criteria are oracle- and property-based instead.
"""

import hashlib
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from clothfold import autodiff as ad
from clothfold import checkpoint as ck
from clothfold import evaluation, planner, sim
from clothfold.perception import (ModelConfig, PerceptionModel,
                                  segment_workspace)
from clothfold.planner.llm import LlmBackendConfig, llm_decompose
from clothfold.planner.templates import AUX_FAMILIES, TASK_FAMILIES
from clothfold.trainer import (TrainConfig, generate_dataset, grad_check,
                               load_dataset, prepare_sample, run_ablation,
                               train)
from test_sim import reflect_oracle


def report(name, passed, detail=""):
    print(f"\n[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def desk_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance") / "dataset"
    generate_dataset(root, seed=0, episodes_per_family=1)
    return root, load_dataset(root)


class TestAcceptance:
    def test_criterion_01_gradient_correctness(self, desk_dataset):
        _, (_, demos) = desk_dataset
        cfg = ModelConfig(embed_dim=16, depth=1, patch_size=56, image_size=112,
                          seed=11)
        model = PerceptionModel(cfg)
        sample = prepare_sample(model, demos[0], sigma_hm=4.0)
        t0 = time.time()
        result = grad_check(model, sample, seed=0, h=1e-5)
        dt = time.time() - t0
        report("criterion 1: gradient correctness",
               result.max_rel_err < 1e-4 and dt < 60.0,
               f"max rel err {result.max_rel_err:.3e} over {result.n_scalars} "
               f"trainable scalars in {dt:.1f} s (worst {result.worst_param})")

    def test_criterion_02_dora_identity_and_norm(self):
        cfg = ModelConfig(embed_dim=32, depth=2, patch_size=16, image_size=112,
                          seed=4)
        model = PerceptionModel(cfg)
        env = sim.ClothSim(sim.init_cloth("towel"))
        img, _ = segment_workspace(env.observe(), cfg.image_size)
        st = planner.validate_subtask(
            "Grasp the left edge of the Towel and place it to the right edge")
        fresh, _ = model.forward(img, st)
        # Same config and seed without adapters: bit-equal frozen, fusion,
        # token and decoder tensors, so the frozen-encoder oracle.
        bare, _ = PerceptionModel(replace(cfg, adapter="none")).forward(img, st)
        identity_err = max(np.abs(q_fresh - q_bare).max()
                           for q_fresh, q_bare in zip(fresh, bare))

        rng = np.random.default_rng(0)
        norm_err = 0.0
        for block in model.encoder.text_blocks + model.encoder.image_blocks:
            for adapter in (block.q_adapter, block.v_adapter):
                adapter.b.data[:] = rng.normal(size=adapter.b.shape)
                adapter.a.data[:] = rng.normal(size=adapter.a.shape)
                adapter.m.data[:] = np.abs(rng.normal(size=adapter.m.shape)) + 0.3
                eff = adapter.effective().data
                norms = np.sqrt((eff ** 2).sum(axis=0))
                norm_err = max(norm_err, np.abs(norms - adapter.m.data).max())
        report("criterion 2: weight-decomposed adapter identity & norm",
               identity_err < 1e-12 and norm_err < 1e-9,
               f"identity err {identity_err:.2e} (< 1e-12), "
               f"column-norm err {norm_err:.2e} (< 1e-9)")

    def test_criterion_03_fusion_contracts(self):
        cfg = ModelConfig(embed_dim=16, depth=1, patch_size=56, image_size=112,
                          seed=7)
        model = PerceptionModel(cfg)
        block = model.fusion
        rng = np.random.default_rng(1)
        p1 = cfg.num_patches + 1

        shapes_ok = True
        for t_len in (1, 2, 4, 9, 15):
            f_o = ad.Tensor(rng.normal(size=(p1, cfg.embed_dim)))
            f_l = ad.Tensor(rng.normal(size=(t_len, cfg.embed_dim)))
            shapes_ok &= block.fuse(f_o, f_l).shape == (p1, cfg.embed_dim)

        f_o = ad.Tensor(rng.normal(size=(p1, cfg.embed_dim)))
        f_l = ad.Tensor(rng.normal(size=(5, cfg.embed_dim)))
        saved = block.w_p.data.copy()
        block.w_p.data[:] = 0.0
        reduced = block.fuse(f_o, f_l)
        expected = ad.layer_norm(f_o, block.ln_g, block.ln_b)
        residual_exact = np.array_equal(reduced.data, expected.data)
        block.w_p.data[:] = saved

        f_single = ad.Tensor(rng.normal(size=(1, cfg.embed_dim)))
        v_row = (f_single.data @ block.w_o_v.data)[0]
        att = ad.softmax(ad.scale(ad.matmul(ad.matmul(f_o, block.w_o_q),
                                            ad.transpose2d(ad.matmul(f_single, block.w_o_k))),
                                  1.0 / np.sqrt(cfg.head_dim)), axis=-1)
        s_vis = ad.matmul(att, ad.matmul(f_single, block.w_o_v))
        collapse_err = np.abs(s_vis.data - v_row[None, :]).max()
        report("criterion 3: fusion contracts",
               shapes_ok and residual_exact and collapse_err < 1e-12,
               f"(P+1)xD shape for all text lengths: {shapes_ok}; zero-projection "
               f"residual exact: {residual_exact}; single-key collapse err "
               f"{collapse_err:.2e}")

    def test_criterion_04_fold_oracle_equivalence(self):
        rng = np.random.default_rng(2024)
        mesh = sim.init_cloth("towel", (10, 10), 0.5)
        worst = 0.0
        for _ in range(10):
            pts = mesh.active_positions()
            pick = pts[rng.integers(len(pts))] + rng.uniform(-0.015, 0.015, 2)
            place = rng.uniform(-0.15, 0.15, 2)
            folded = sim.fold(mesh, pick, place)
            expected = reflect_oracle(mesh, pick, place)
            worst = max(worst, float(np.abs(folded.positions - expected).max()))
        report("criterion 4: fold matches brute-force reflection oracle",
               worst < 1e-12, f"max deviation {worst:.2e} m over 10 random folds")

    def test_criterion_05_expert_closure(self):
        t0 = time.time()
        all_pass = True
        details = []
        for seed in (0, 1, 2):
            bench = evaluation.run_benchmark(
                None, evaluation.BenchmarkConfig(episodes_per_cell=2, seed=seed))
            per_cell = all(c["sr_percent"] == 100.0 for c in bench.cells.values())
            worst_mpd = max(c["mean_mpd_m"] for c in bench.cells.values())
            all_pass &= per_cell
            details.append(f"seed {seed}: SR100={per_cell} maxMPD {worst_mpd:.4f}")
        dt = time.time() - t0
        report("criterion 5: expert-in-the-loop closure",
               all_pass and dt < 30.0,
               "; ".join(details) + f"; {dt:.1f} s (< 30 s)")

    def test_criterion_06_planner_exactness(self):
        fig2 = planner.decompose("Fold the Trousers in half from left to right")
        fig2_ok = [s.text for s in fig2] == [
            "Grasp the left waist of the Trousers and place it to the right waist",
            "Grasp the left leg of the Trousers and place it to the right leg"]
        sleeves = planner.decompose("Fold the sleeve towards the inner of the T-Shirt")
        sleeves_ok = [s.text for s in sleeves] == [
            "Grasp the left sleeve of the T-Shirt and place it to the left middle part",
            "Grasp the right sleeve of the T-Shirt and place it to the right middle part"]

        bank_ok = True
        n_cmds = 0
        for family in TASK_FAMILIES + AUX_FAMILIES:
            for cmd in planner.command_bank(family):
                n_cmds += 1
                try:
                    for s in planner.decompose(cmd):
                        planner.validate_subtask(s.text, cloth_kind=s.cloth_kind)
                except planner.PlanningError:
                    bank_ok = False

        def canned(content):
            return lambda url, body, headers, timeout: {
                "choices": [{"message": {"content": content}}]}

        backend = LlmBackendConfig(endpoint_url="http://localhost:1/v1")
        good = llm_decompose("Fold the Trousers in half from left to right", backend,
                             transport=canned(
                                 "1. Grasp the left waist of the Trousers and place it "
                                 "to the right waist\n2. Grasp the left leg of the "
                                 "Trousers and place it to the right leg\n"))
        fallback = llm_decompose("Fold the Trousers in half from left to right",
                                 backend, transport=canned("Wave the cloth"))
        llm_ok = ([s.text for s in good] == [s.text for s in fig2]
                  and [s.text for s in fallback] == [s.text for s in fig2])
        report("criterion 6: planner exactness",
               fig2_ok and sleeves_ok and bank_ok and llm_ok,
               f"reference plans verbatim: {fig2_ok and sleeves_ok}; "
               f"{n_cmds} bank commands validate: {bank_ok}; "
               f"backend grammar-check + fallback: {llm_ok}")

    def test_criterion_07_learning_sanity(self, desk_dataset):
        _, (_, demos) = desk_dataset
        subset = demos[:8]
        cfg = ModelConfig(embed_dim=32, depth=2, patch_size=8, image_size=112,
                          seed=3)
        model = PerceptionModel(cfg)
        # epochs, demo count, width, and lr fixed by the criterion; batch size 1
        # turns the 200 epochs into enough optimizer steps to localize.
        tc = TrainConfig(epochs=200, batch_size=1, learning_rate=1e-3,
                         val_fraction=0.0, seed=0)
        t0 = time.time()
        result = train(subset, model, tc)
        dt = time.time() - t0
        ep1 = result.loss_curve[0]["train_loss"]
        ratio = result.final_train_loss / ep1

        hits = 0
        for d in subset:
            s = prepare_sample(model, d, tc.sigma_hm)
            q_pick, q_place = model.forward_heatmaps(s.image4, s.token_ids)
            pr, pc = divmod(int(np.argmax(q_pick.data)), cfg.image_size)
            lr, lc = divmod(int(np.argmax(q_place.data)), cfg.image_size)
            if (np.hypot(pr - s.pick_crop[0], pc - s.pick_crop[1]) <= cfg.patch_size
                    and np.hypot(lr - s.place_crop[0], lc - s.place_crop[1])
                    <= cfg.patch_size):
                hits += 1
        report("criterion 7: learning sanity (overfit run)",
               ratio < 0.05 and hits >= 0.9 * len(subset) and dt < 600,
               f"final/epoch-1 loss {ratio:.4f} (< 0.05); argmax within "
               f"{cfg.patch_size} px on {hits}/{len(subset)} demos (need >= 90%); "
               f"{dt:.0f} s (< 600 s)")

    def test_criterion_08_metric_identities(self):
        m = sim.init_cloth("towel", (10, 10), 0.3)
        shifted = m.copy()
        shifted.positions = shifted.positions + np.array([0.01, 0.0])
        mpd_ok = (evaluation.mpd(m, m.copy()) == 0.0
                  and abs(evaluation.mpd(m, shifted) - 0.01) < 1e-15
                  and evaluation.mpd(m, shifted) == evaluation.mpd(shifted, m))

        a = np.zeros((4, 8), bool); a[:, 0:4] = True
        b = np.zeros((4, 8), bool); b[:, 2:6] = True
        disjoint_a = np.zeros((4, 4), bool); disjoint_a[0] = True
        disjoint_b = np.zeros((4, 4), bool); disjoint_b[2] = True
        miou_ok = (evaluation.miou(a, a) == 1.0
                   and evaluation.miou(disjoint_a, disjoint_b) == 0.0
                   and abs(evaluation.miou(a, b) - 1 / 3) < 1e-12)

        sr_ok = (evaluation.success(0.0124) is True
                 and evaluation.success(0.0125) is False
                 and evaluation.success(0.0) is True)
        report("criterion 8: metric identities",
               mpd_ok and miou_ok and sr_ok,
               f"MPD zero/translation/symmetry: {mpd_ok}; "
               f"MIoU 1.0/0.0/one-third: {miou_ok}; strict 0.0125 boundary: {sr_ok}")

    def test_criterion_09_determinism_and_persistence(self, tmp_path):
        def dir_hash(d):
            h = hashlib.sha256()
            for p in sorted(Path(d).rglob("*")):
                if p.is_file():
                    h.update(p.relative_to(d).as_posix().encode())
                    h.update(p.read_bytes())
            return h.hexdigest()

        generate_dataset(tmp_path / "a", seed=7, episodes_per_family=1)
        generate_dataset(tmp_path / "b", seed=7, episodes_per_family=1)
        data_ok = dir_hash(tmp_path / "a") == dir_hash(tmp_path / "b")

        rep1 = evaluation.run_benchmark(
            None, evaluation.BenchmarkConfig(episodes_per_cell=1, seed=5))
        rep2 = evaluation.run_benchmark(
            None, evaluation.BenchmarkConfig(episodes_per_cell=1, seed=5))
        report_ok = rep1.to_csv() == rep2.to_csv() and rep1.cells == rep2.cells

        cfg = ModelConfig(embed_dim=16, depth=1, patch_size=16, image_size=112,
                          seed=8)
        model = PerceptionModel(cfg)
        rng = np.random.default_rng(3)
        for t in model.trainable_parameters().values():
            t.data[:] = rng.normal(size=t.shape)
        ck.save_checkpoint(tmp_path / "m.cfck", model)
        loaded = ck.load_checkpoint(tmp_path / "m.cfck")
        ckpt_ok = all(np.array_equal(loaded.tensors[k], t.data)
                      for k, t in model.named_parameters().items())
        ck.save_checkpoint(tmp_path / "m2.cfck",
                           ck.model_from_checkpoint(loaded))
        ckpt_ok &= (tmp_path / "m.cfck").read_bytes() == (tmp_path / "m2.cfck").read_bytes()
        report("criterion 9: determinism & persistence",
               data_ok and report_ok and ckpt_ok,
               f"same-seed dataset bytes equal: {data_ok}; same-seed report "
               f"equal: {report_ok}; checkpoint round trip bit-exact: {ckpt_ok}")

    def test_criterion_10_ablation_harness(self, desk_dataset):
        root, (manifest, demos) = desk_dataset
        train_demos = [d for d in demos if d.demo.split == "train"][:8]
        if not train_demos:
            train_demos = demos[:8]
        cfg = ModelConfig(embed_dim=16, depth=1, patch_size=16, image_size=112,
                          seed=2)
        tc = TrainConfig(epochs=1, batch_size=4, learning_rate=1e-3,
                         val_fraction=0.0, seed=0)
        t0 = time.time()
        ablation = run_ablation(train_demos, cfg, tc, manifest.camera,
                                evaluation.BenchmarkConfig(episodes_per_cell=1, seed=0))
        dt = time.time() - t0
        combos = {(r["adapter"], r["fusion"]) for r in ablation.rows}
        expected = {(a, f) for a in ("dora", "lora", "ia3", "none")
                    for f in ("cross-attention", "transformer")}
        schema_ok = combos == expected
        fields_ok = all({"sr_avg", "mpd_avg", "miou_avg", "trainable_params"}
                        <= set(r) for r in ablation.rows)
        per_family_ok = all(any(k.startswith("sr/") for k in r)
                            for r in ablation.rows)
        csv_ok = ablation.to_csv().startswith("adapter,fusion,")
        report("criterion 10: ablation harness",
               schema_ok and fields_ok and per_family_ok and csv_ok,
               f"8/8 adapter x fusion combos ran in {dt:.0f} s; schema complete: "
               f"{schema_ok and fields_ok and per_family_ok and csv_ok} "
               "(values are desk-scale only)")
