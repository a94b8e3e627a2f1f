"""Run the benchmark at a base commit and at the working tree in alternating
pairs, and write what the pairs show to ``BENCH_<topic>.json``.

    python .github/bench_pairs.py BASE_REF --workload expert --pairs 10 --topic fold

Pair ``i`` runs workload seed ``--seed + i`` on both sides, each side in its
own process (``perfbench/run.py --workload W --seed S --trace 0 --out
FILE``): the base first in even pairs and the working tree first in odd
ones, so that a host whose speed drifts during the pairs favours neither
side. The base's ``src``, ``perfbench`` and ``BENCHMARK.json`` are exported
with ``git archive``, as ``cli_chain.py`` exports ``src``.

``BENCH_<topic>.json`` holds, besides the base and working-tree commits,
one section per workload run under that topic (a later call for another
workload against the same base adds its section):

- the environment of the runs (Python, numpy, BLAS and its thread count,
  ``nproc``, machine), seconds per run and the seeds;
- per pair, the seed, the side that ran first, both sides' end-to-end
  metrics (scaled to the reference host speed) and unscaled rates, and
  whether both sides' outcome and set-up records, which carry every output
  digest, are equal;
- per end-to-end metric, both sides' median and quartiles, the pairs the
  working tree won, its median gain and the base's interquartile range,
  and whether the claim rule holds: at least 10 pairs, wins in at least
  9 of 10, and a median gain larger than the base's interquartile range.

It exits 1 when the base cannot be exported, when a run fails, when the
working tree fails more of a seed's operations than the base, or when a
pair's records differ while CHANGES.md gained no ``**Bytes changed:
<paths>.**`` line since the base that names changed files (read as
``cli_chain.py`` reads it). Seeds on which both sides report incorrect
runs are listed but do not fail it: the fault is the base's too.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from cli_chain import declared_changes  # noqa: E402

REPO = Path(__file__).resolve().parents[1]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
CLAIM_PAIRS = 10           # a claim needs at least this many pairs
CLAIM_WIN_SHARE = 0.9      # and wins in at least this share of them
EXPORTED = ["src", "perfbench", "BENCHMARK.json"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[dict]) -> dict:
    """Per end-to-end metric: both sides' quartiles, the head's wins, its
    median gain in the better direction and the claim rule's verdict."""
    summary = {}
    for name, better in BETTER.items():
        base = [p["base"]["end_to_end"][name] for p in pairs]
        head = [p["head"]["end_to_end"][name] for p in pairs]
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
        qb, qh = quartiles(base), quartiles(head)
        gain = sign * (qh[1] - qb[1])
        iqr = qb[2] - qb[0]
        summary[name] = {
            "better": better,
            "base": dict(zip(("q1", "median", "q3"), qb)),
            "head": dict(zip(("q1", "median", "q3"), qh)),
            "wins": wins, "pairs": len(pairs),
            "median_gain": gain,
            "median_gain_share": gain / abs(qb[1]) if qb[1] else math.nan,
            "base_iqr": iqr,
            "claim": (len(pairs) >= CLAIM_PAIRS
                      and wins >= CLAIM_WIN_SHARE * len(pairs) and gain > iqr),
        }
    return summary


def side(record: dict) -> dict:
    """What a pair keeps of one ``perfbench/run.py --out`` record."""
    return {"end_to_end": {k: m["value"] for k, m in record["end_to_end"].items()},
            "unscaled": record["unscaled"], "correct": record["correct"]}


def same_outputs(base: dict, head: dict) -> bool:
    """Both runs' outcome and set-up records (digests and quality) agree."""
    return (base["outcomes"] == head["outcomes"]
            and base["setup_record"] == head["setup_record"])


def run_benchmark(root: Path, workload: str, seed: int, seconds: float, tiny: bool,
                  out: Path) -> dict:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--out", str(out)]
    if tiny:
        cmd.append("--tiny")
    subprocess.run(cmd, cwd=root, check=True, stdout=subprocess.DEVNULL,
                   env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    return json.loads(out.read_text())


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=REPO, check=True, capture_output=True,
                          text=True).stdout.strip()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", help="git commit to compare the working tree against")
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--topic", required=True, help="names the output, BENCH_<topic>.json")
    p.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--tiny", action="store_true", help="perfbench's smallest inputs")
    p.add_argument("--out", type=Path, default=None,
                   help="output file (default: BENCH_<topic>.json at the repository root)")
    args = p.parse_args(argv)
    if args.pairs < 1 or not re.fullmatch(r"[A-Za-z0-9_-]+", args.topic):
        p.error("--pairs must be at least 1 and --topic a word of letters, digits, _ or -")
    out_path = args.out or REPO / f"BENCH_{args.topic}.json"

    try:
        base_commit = git("rev-parse", f"{args.base}^{{commit}}")
        head_commit = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain", "--", *EXPORTED))
        declared = declared_changes(args.base) or []
    except subprocess.CalledProcessError as e:
        print(f"cannot resolve {args.base}, HEAD or {args.base}'s CHANGES.md: {e}",
              file=sys.stderr)
        return 1
    pairs, records = [], []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        base_root = work / "base_checkout"
        base_root.mkdir()
        try:
            archive = subprocess.run(["git", "archive", base_commit, *EXPORTED], cwd=REPO,
                                     check=True, capture_output=True).stdout
            subprocess.run(["tar", "-x", "-C", str(base_root)], input=archive, check=True)
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                rec = {}
                for name in order:
                    root = base_root if name == "base" else REPO
                    rec[name] = run_benchmark(root, args.workload, seed, args.seconds,
                                              args.tiny, work / f"{name}_{seed}.json")
                records.append(rec)
                pairs.append({"seed": seed, "first": order[0],
                              "base": side(rec["base"]), "head": side(rec["head"]),
                              "same_outputs": same_outputs(rec["base"], rec["head"])})
                rates = "  ".join(f"{k} {pairs[-1]['base']['end_to_end'][k]:.4g} -> "
                                  f"{pairs[-1]['head']['end_to_end'][k]:.4g}"
                                  for k in ("items_per_s", "gen_demos_per_s",
                                            "load_demos_per_s"))
                print(f"pair {i + 1}/{args.pairs} seed {seed} ({order[0]} first): {rates}"
                      f"{'' if pairs[-1]['same_outputs'] else '  OUTPUTS DIFFER'}",
                      flush=True)
        except subprocess.CalledProcessError as e:
            print(f"bench pairs failed: {e}", file=sys.stderr)
            return 1

    metrics = summarize(pairs)
    section = {
        "seconds": args.seconds, "size": "tiny" if args.tiny else "full",
        "seeds": [p["seed"] for p in pairs],
        "environment": records[0]["head"]["environment"],
        "same_environment": all(r["base"]["environment"] == r["head"]["environment"]
                                for r in records),
        "same_outputs": all(p["same_outputs"] for p in pairs),
        "metrics": metrics, "pairs": pairs,
    }
    bench = {"topic": args.topic, "base": {"ref": args.base, "commit": base_commit},
             "head": {"commit": head_commit, "uncommitted_changes": dirty},
             "workloads": {}}
    if out_path.is_file():
        old = json.loads(out_path.read_text())
        if old.get("base") == bench["base"] and old.get("head") == bench["head"]:
            bench["workloads"] = old["workloads"]
    bench["workloads"][args.workload] = section
    out_path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")

    print(f"{args.workload}: {len(pairs)} pairs against {args.base}; "
          f"median (q1-q3) base -> head, wins, claim")
    for name, m in metrics.items():
        b, h = m["base"], m["head"]
        print(f"  {name:<18} {b['median']:.4g} ({b['q1']:.4g}-{b['q3']:.4g}) -> "
              f"{h['median']:.4g} ({h['q1']:.4g}-{h['q3']:.4g})  "
              f"{m['wins']}/{m['pairs']}  {'yes' if m['claim'] else 'no'}")
    print(f"written to {out_path}")
    worse = [p["seed"] for p in pairs if p["head"]["end_to_end"]["ok_rate"]
             < p["base"]["end_to_end"]["ok_rate"]]
    if worse:
        print(f"the working tree fails more operations on seeds {worse}", file=sys.stderr)
    both = [p["seed"] for p in pairs if not (p["base"]["correct"] or p["head"]["correct"])]
    if both:
        print(f"both sides report incorrect runs on seeds {both}", file=sys.stderr)
    if not section["same_outputs"]:
        print(f"outputs differ from {args.base} on seeds "
              f"{[p['seed'] for p in pairs if not p['same_outputs']]}"
              f"{f' (declared: {declared})' if declared else ''}", file=sys.stderr)
    return 1 if worse or not (section["same_outputs"] or declared) else 0


if __name__ == "__main__":
    sys.exit(main())
