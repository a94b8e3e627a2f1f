"""``.github/bench_pairs.py``: the pair summary and claim rule on synthetic
records, and one tiny end-to-end pair against the committed tree."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", REPO / ".github" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def pairs_of(base, head, metric="items_per_s"):
    """Pairs whose ``metric`` reads ``base[i]`` and ``head[i]``; every other
    metric reads 1.0 on both sides."""
    def side(value):
        return {"end_to_end": {name: (value if name == metric else 1.0)
                               for name in bench_pairs.BETTER}}
    return [{"base": side(b), "head": side(h)} for b, h in zip(base, head)]


BASE10 = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0, 101.0, 99.0]


class TestSummary:
    def test_quartiles_inclusive(self):
        assert bench_pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)
        assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)

    def test_a_clear_gain_is_a_claim(self):
        m = bench_pairs.summarize(pairs_of(BASE10, [v * 1.1 for v in BASE10]))["items_per_s"]
        assert m["wins"] == 10 and m["pairs"] == 10
        assert m["base"] == {"q1": 99.0, "median": 100.0, "q3": 101.0}
        assert m["base_iqr"] == 2.0 and m["median_gain"] == pytest.approx(10.0)
        assert m["median_gain_share"] == pytest.approx(0.1)
        assert m["claim"]

    def test_the_same_figures_are_no_claim_and_no_win(self):
        summary = bench_pairs.summarize(pairs_of(BASE10, BASE10))
        for m in summary.values():
            assert m["wins"] == 0 and m["median_gain"] == 0 and not m["claim"]

    def test_eight_wins_of_ten_are_no_claim(self):
        head = [v * 1.1 for v in BASE10[:8]] + [v * 0.9 for v in BASE10[8:]]
        m = bench_pairs.summarize(pairs_of(BASE10, head))["items_per_s"]
        assert m["wins"] == 8 and not m["claim"]

    def test_a_gain_inside_the_base_spread_is_no_claim(self):
        # Ten wins of 1% each, but the base's quartiles are 2 apart.
        m = bench_pairs.summarize(pairs_of(BASE10, [v + 1.0 for v in BASE10]))["items_per_s"]
        assert m["wins"] == 10 and m["median_gain"] == 1.0 and not m["claim"]

    def test_fewer_than_ten_pairs_are_no_claim(self):
        m = bench_pairs.summarize(pairs_of(BASE10[:9], [v * 2 for v in BASE10[:9]]))
        assert m["items_per_s"]["wins"] == 9 and not m["items_per_s"]["claim"]

    def test_lower_is_better_counts_a_fall_as_a_win(self):
        m = bench_pairs.summarize(pairs_of(BASE10, [v * 0.8 for v in BASE10],
                                           metric="peak_rss_mb"))["peak_rss_mb"]
        assert m["better"] == "lower" and m["wins"] == 10
        assert m["median_gain"] == pytest.approx(20.0) and m["claim"]

    def test_outputs_compare_digests_and_set_up_records(self):
        rec = {"outcomes": {"report_sha256": "a"}, "setup_record": {"demos": 3}}
        assert bench_pairs.same_outputs(rec, json.loads(json.dumps(rec)))
        assert not bench_pairs.same_outputs(rec, {**rec, "outcomes": {"report_sha256": "b"}})
        assert not bench_pairs.same_outputs(rec, {**rec, "setup_record": {"demos": 4}})


@pytest.mark.slow
def test_tiny_pair_against_the_committed_tree(tmp_path):
    try:
        subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, check=True,
                       capture_output=True)
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout with a commit")
    out = tmp_path / "BENCH_tiny.json"
    assert bench_pairs.main(["HEAD", "--workload", "expert", "--pairs", "1", "--topic",
                             "tiny", "--tiny", "--seconds", "0.1", "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    section = bench["workloads"]["expert"]
    assert section["size"] == "tiny" and section["seeds"] == [0]
    assert section["same_outputs"] and section["same_environment"]
    assert section["environment"]["blas_threads"] == "1"
    (pair,) = section["pairs"]
    assert pair["first"] == "base" and pair["base"]["correct"] and pair["head"]["correct"]
    assert set(section["metrics"]) == set(bench_pairs.BETTER)
    assert not any(m["claim"] for m in section["metrics"].values())
