"""clothfold benchmark: one command for the expert, train and eval workloads.

    python3 perfbench/run.py                      # all workloads, untraced + traced
    python3 perfbench/run.py --workload train --seed 3 --seconds 10 --trace 0

With ``--workload`` it runs one workload in this process and prints, as its
last line, one JSON object: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``)
named in BENCHMARK.json. Without it, every workload runs in its own process,
untraced and then traced, and the results go to ``perfbench/results/``.
See perfbench/README.md for the workloads and metrics.
"""

import os

# Pin BLAS to one thread before numpy loads: one process, one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("expert", "train", "eval")
# Reference probes after each set-up and iteration: a tenth of its time, and
# at least five.
PROBE_SHARE = 0.1
MIN_PROBES = 5
RATES = ("items_per_s", "gen_demos_per_s", "load_demos_per_s")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the CLI, as every
    ``clothfold`` command pays before doing any work."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import clothfold.cli"], env=env,
                   cwd=ROOT, check=True)
    return time.perf_counter() - t0


def environment() -> dict:
    import numpy as np
    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": os.cpu_count(), "machine": platform.machine()}


def guarded(fn, nominal_ops: int, label: str):
    """Run one set-up or iteration; an unexpected exception fails all of its
    operations instead of stopping the benchmark."""
    from workloads import Outcome
    try:
        return fn()
    except Exception:
        traceback.print_exc()
        return Outcome(attempted=nominal_ops, failed=nominal_ops,
                       problems=[f"{label}: unexpected exception"],
                       record={"error": label})


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def scaled_rate(outcomes, name: str, slowdowns) -> float:
    """Items per second of the rate ``name`` over every outcome that times
    it, each outcome's seconds divided by the host slowdown around it."""
    timed = [(o.timed[name], s) for o, s in zip(outcomes, slowdowns) if name in o.timed]
    if not timed:
        return 0.0
    return (sum(items for (items, _), _ in timed)
            / sum(seconds / s for (_, seconds), s in timed))


def probe_batch(seconds: float) -> list[float]:
    """Probe times after ``seconds`` of work."""
    from calibrate import REFERENCE_S, probes
    return probes(max(MIN_PROBES, round(PROBE_SHARE * seconds / REFERENCE_S)))


def measure(args, size, work: Path) -> dict:
    import workloads
    from calibrate import REFERENCE_S
    from tracer import Tracer, WAIT_NOTE

    wl = workloads.WORKLOADS[args.workload](workloads.make_inputs(args.seed), size, work)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    attempted = failed = 0
    problems = []

    def tally(out, ref):
        nonlocal attempted, failed
        attempted += out.attempted
        failed += out.failed
        problems.extend(out.problems)
        if ref is not None and out.record != ref and not out.failed:
            failed += out.attempted
            problems.append("outputs differ from the first run of the same inputs")

    # Set-up: repeated, median reported. Traced runs report no set-up time.
    reps = wl.setup_reps if size.repeat_setup and not args.trace else 1
    import_seconds()                 # discarded: the first start compiles bytecode
    # Probe batches: one before the first set-up and after each set-up, one
    # after the warm-up and after each iteration.
    probe_s = {"setup": [probe_batch(0.0)], "loop": []}
    setups, setup_s = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        t_import = import_seconds()
        out = guarded(wl.setup, 1, "set-up")
        tally(out, setups[0].record if setups else None)
        setups.append(out)
        setup_s.append(t_import + out.seconds)
        probe_s["setup"].append(probe_batch(time.perf_counter() - t0))

    # Warm-up, discarded from timing; its outputs are the reference.
    if tracer:
        tracer.phase = "warmup"
    t0 = time.perf_counter()
    warm = guarded(wl.iterate, 1, "warm-up")
    tally(warm, None)
    ref = warm.record
    probe_s["loop"].append(probe_batch(time.perf_counter() - t0))

    if tracer:
        tracer.phase = "loop"
    iters = []
    t_start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        out = guarded(wl.iterate, warm.attempted or 1, "iteration")
        tally(out, ref)
        iters.append(out)
        probe_s["loop"].append(probe_batch(time.perf_counter() - t0))
        if time.perf_counter() - t_start >= args.seconds:
            break

    # Host slowdown around each set-up and iteration, against the reference
    # machine (> 1 is slower): the mean of the probe batches just before and
    # just after it. The mean, not the median: a host that time-slices the
    # process stretches some probes and not others, and the program by the mean.
    slowdown = {phase: [statistics.fmean(a + b) / REFERENCE_S
                        for a, b in zip(batches, batches[1:])]
                for phase, batches in probe_s.items()}
    ones = {phase: [1.0] * len(s) for phase, s in slowdown.items()}

    # A rate comes from the loop where the loop times it, else from the
    # set-ups.
    raw, e2e = {}, {}
    for name in RATES:
        phase, outcomes = (("loop", iters) if any(name in o.timed for o in iters)
                           else ("setup", setups))
        raw[name] = scaled_rate(outcomes, name, ones[phase])
        e2e[name] = (scaled_rate(outcomes, name, slowdown[phase]), "1/s")
    raw["setup_s"] = median(setup_s)
    e2e["setup_s"] = (median(t / s for t, s in zip(setup_s, slowdown["setup"])), "s")
    e2e["ok_rate"] = (1.0 - failed / max(attempted, 1), "ratio")
    e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    record = {
        "workload": args.workload, "headline": wl.headline,
        "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": "tiny" if args.tiny else "full",
        "inputs": dataclasses.asdict(wl.inputs),
        "environment": environment(),
        "iterations": len(iters), "setup_reps": reps,
        "attempted": attempted, "failed": failed,
        "correct": failed == 0 and not problems,
        "problems": problems[:20],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "unscaled": raw, "slowdown": slowdown, "probe_s": probe_s,
        "timed": {"iterations": [o.timed for o in iters],
                  "setups": [o.timed for o in setups], "setup_s": setup_s},
        "setup_record": setups[0].record,
        "outcomes": ref,
    }
    if tracer:
        tracer.uninstall()
        layers = tracer.layer_metrics(len(iters), reps)
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u, _) in layers.items()}
        record["backward_shares"] = tracer.bw_shares()
        record["wait"] = WAIT_NOTE
    return record


def print_record(rec: dict) -> None:
    env = rec["environment"]
    print(f"# workload {rec['workload']}  seed {rec['seed']}  seconds {rec['seconds']}  "
          f"trace {rec['trace']}  size {rec['size']}  iterations {rec['iterations']}")
    print(f"# python {env['python']}  numpy {env['numpy']}  blas {env['blas']}  "
          f"threads {env['blas_threads']}  nproc {env['nproc']}")
    slow = ", ".join(f"{phase} {statistics.fmean(s):.4f} (mean of {len(s)})"
                     for phase, s in rec["slowdown"].items())
    print(f"# host slowdown against the reference machine: {slow}; times and "
          f"rates below are scaled, unscaled in brackets")
    e2e = rec["end_to_end"]
    for name, m in e2e.items():
        shown = rec["headline"] if name == "items_per_s" else name
        unscaled = f"  [{rec['unscaled'][name]:.4f}]" if name in rec["unscaled"] else ""
        print(f"  {shown:<24s} {m['value']:>12.4f} {m['unit']}{unscaled}")
    print(f"  {'error_rate':<24s} {1.0 - e2e['ok_rate']['value']:>12.4f} ratio "
          f"({rec['failed']}/{rec['attempted']} operations)")
    print(f"# outcomes {json.dumps(rec['outcomes'], sort_keys=True)}")
    print(f"# setup {json.dumps(rec['setup_record'], sort_keys=True)}")
    for p in rec["problems"]:
        print(f"# PROBLEM {p}")
    if "per_layer" in rec:
        print(f"# per layer ({rec['wait']}); per measured iteration, or per set-up "
              f"for layers that run only in set-up")
        for name, m in rec["per_layer"].items():
            print(f"  {name:<40s} {m['value']:>14.4f} {m['unit']}")
        shares = ", ".join(f"{op} {s:.1%}" for op, s in rec["backward_shares"].items()
                           if s >= 0.02)
        print(f"# backward ops >= 2%: {shares or '-'}")


def run_one(args) -> int:
    spec = load_spec()
    sys.path.insert(0, str(SRC))
    import clothfold
    if Path(clothfold.__file__).resolve().parent != (SRC / "clothfold").resolve():
        print(f"error: imported clothfold from {clothfold.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        rec = measure(args, workloads.SIZES["tiny" if args.tiny else "full"], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    section = "per_layer" if args.trace else "end_to_end"
    metrics = rec[section]
    expected = [m["name"] for m in spec[section]]
    if sorted(metrics) != sorted(expected):
        print(f"error: {section} metrics {sorted(metrics)} do not match "
              f"BENCHMARK.json {sorted(expected)}", file=sys.stderr)
        return 2
    print_record(rec)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(rec, indent=1, sort_keys=True))
    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                      "failed": rec["failed"],
                      "metrics": {k: metrics[k] for k in expected}}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced; prints the
    end-to-end table and the tracing overhead, writes the results file."""
    out_dir = HERE / "results"
    runs = {}
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            path = out_dir / f"{name}.trace{trace}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", str(path)]
            if args.tiny:
                cmd.append("--tiny")
            if subprocess.run(cmd, cwd=ROOT).returncode != 0:
                print(f"error: {name} trace {trace} exited non-zero", file=sys.stderr)
                return 1
            runs[(name, trace)] = json.loads(path.read_text())
            ok &= runs[(name, trace)]["correct"]

    summary = {"seed": args.seed, "seconds": args.seconds,
               "environment": runs[(WORKLOAD_NAMES[0], 0)]["environment"],
               "workloads": {}}
    print("\n# end-to-end (untraced); overhead = traced / untraced - 1")
    for name in WORKLOAD_NAMES:
        plain, traced = runs[(name, 0)], runs[(name, 1)]
        rows = {}
        for metric, m in plain["end_to_end"].items():
            t = traced["end_to_end"][metric]["value"]
            shown = plain["headline"] if metric == "items_per_s" else metric
            overhead = t / m["value"] - 1.0 if m["value"] else 0.0
            rows[shown] = {"value": m["value"], "unit": m["unit"],
                           "traced": t, "trace_overhead": overhead}
            print(f"  {name:<7s} {shown:<24s} {m['value']:>12.4f} {m['unit']:<6s} "
                  f"overhead {overhead:+.1%}")
        rows["error_rate"] = {"value": plain["failed"] / max(plain["attempted"], 1),
                              "unit": "ratio"}
        print(f"  {name:<7s} {'error_rate':<24s} {rows['error_rate']['value']:>12.4f} ratio")
        summary["workloads"][name] = {
            "end_to_end": rows, "per_layer": traced["per_layer"],
            "backward_shares": traced["backward_shares"],
            "outcomes": plain["outcomes"], "setup_record": plain["setup_record"],
            "correct": plain["correct"] and traced["correct"]}
    (out_dir / "latest.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
    print(f"# results written to {out_dir / 'latest.json'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                   help="run one workload in this process (default: all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured loop length (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="write the full record here (JSON)")
    p.add_argument("--tiny", action="store_true",
                   help="smallest inputs that reach every code path (for tests)")
    args = p.parse_args(argv)

    if not (SRC / "clothfold" / "__init__.py").is_file():
        print(f"error: no clothfold sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
