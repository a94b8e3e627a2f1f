"""Run a tiny CLI chain at a base commit and at the working tree, and list
the output files whose bytes differ.

    python .github/cli_chain.py BASE_REF

The chain is ``gen-data`` (1 episode per family), ``train`` (D=16, 2
epochs), ``eval`` and ``eval --expert`` (1 episode per cell), ``run`` with
the model and with the scripted expert (before/after PNGs), ``ablate``
(every adapter x fusion pair, trained and scored on that dataset) and
``plan``, which writes no file and is almost all start-up.
``grad-check`` is left out: at D=16 it takes about 20 s per side.
Each side runs in its own directory with the same relative output paths, so
paths recorded in the outputs agree. JSON files are compared with every
``wall_time_s`` key removed; all other files byte for byte.

The working tree's ``train`` then runs once more, on a copy of the base
side's dataset directory, and the files of its output that differ from the
working tree's own ``train`` output are listed too, a file that only the run
on the base side's dataset wrote as ``(base only)``: an older dataset must
load and train the same way. Last come each command's wall seconds and
peak RSS on both sides, the RSS read from its own rusage when it is
reaped. All of it is
informational: the script exits 0 whatever differs, and 1 only when a
command fails or the base commit cannot be exported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CONFIG = {
    "seed": 0,
    "model": {"embed_dim": 16},
    "train": {"epochs": 2},
    "data": {"episodes_per_family": 1},
    "benchmark": {"episodes_per_cell": 1},
}
TRAIN = ["train", "--dataset", "out/dataset", "--out", "out/train"]
CHAIN = [
    ["gen-data", "--out", "out/dataset"],
    TRAIN,
    ["eval", "--checkpoint", "out/train/model.cfck", "--out", "out/eval"],
    ["eval", "--expert", "--out", "out/eval_expert"],
    ["run", "--checkpoint", "out/train/model.cfck",
     "--command", "Fold the Towel in half diagonally", "--out", "out/run"],
    ["run", "--expert", "--command", "Fold the Towel in half diagonally",
     "--out", "out/run_expert"],
    ["ablate", "--dataset", "out/dataset", "--out", "out/ablate"],
    ["plan", "--command", "Fold the Towel in half diagonally"],
]


def run_chain(src: Path, cwd: Path,
              chain: list[list[str]] = CHAIN) -> list[tuple[float, float]]:
    """Run each command of ``chain``; returns their wall seconds and peak RSS in MB."""
    cwd.mkdir(parents=True, exist_ok=True)
    (cwd / "config.json").write_text(json.dumps(CONFIG))
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    costs = []
    for argv in chain:
        cmd = [sys.executable, "-m", "clothfold", argv[0], "--config", "config.json",
               *argv[1:]]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            raise subprocess.CalledProcessError(proc.returncode, cmd)
        costs.append((seconds, usage.ru_maxrss / 1024))        # KiB on Linux
    return costs


def _strip_wall_time(value):
    if isinstance(value, dict):
        return {k: _strip_wall_time(v) for k, v in value.items() if k != "wall_time_s"}
    if isinstance(value, list):
        return [_strip_wall_time(v) for v in value]
    return value


def _content(path: Path):
    if path.suffix == ".json":
        return _strip_wall_time(json.loads(path.read_bytes()))
    return path.read_bytes()


def differing_files(base: Path, head: Path) -> list[str]:
    names = sorted({p.relative_to(root).as_posix() for root in (base, head)
                    for p in root.rglob("*") if p.is_file()})
    out = []
    for name in names:
        a, b = base / name, head / name
        if not a.is_file():
            out.append(f"{name} (head only)")
        elif not b.is_file():
            out.append(f"{name} (base only)")
        elif _content(a) != _content(b):
            out.append(name)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", help="git commit to compare the working tree against")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        base_src = work / "base_checkout"
        base_src.mkdir()
        try:
            archive = subprocess.run(["git", "archive", args.base, "src"], cwd=REPO,
                                     check=True, capture_output=True).stdout
            subprocess.run(["tar", "-x", "-C", str(base_src)], input=archive, check=True)
            base_costs = run_chain(base_src / "src", work / "base")
            head_costs = run_chain(REPO / "src", work / "head")
            shutil.copytree(work / "base" / "out" / "dataset", work / "cross" / "out" / "dataset")
            run_chain(REPO / "src", work / "cross", [TRAIN])
        except subprocess.CalledProcessError as e:
            print(f"cli chain failed: {e}", file=sys.stderr)
            return 1
        diff = differing_files(work / "base" / "out", work / "head" / "out")
        n_files = sum(1 for p in (work / "head" / "out").rglob("*") if p.is_file())
        print(f"{len(diff)} of {n_files} output files differ from {args.base} "
              f"(wall_time_s stripped)")
        for name in diff:
            print(f"  {name}")
        train_out = Path("out") / "train"
        cross = differing_files(work / "cross" / train_out, work / "head" / train_out)
        n_files = sum(1 for p in (work / "head" / train_out).rglob("*") if p.is_file())
        print(f"{len(cross)} of {n_files} train output files differ when the working "
              f"tree trains on {args.base}'s dataset instead of its own")
        for name in cross:
            print(f"  {name}")
    print(f"wall s and peak RSS MB per command ({args.base} -> working tree):")
    for argv, (base_s, base_mb), (head_s, head_mb) in zip(CHAIN, base_costs, head_costs):
        name = " ".join([argv[0], *(a for a in argv if a == "--expert")])
        print(f"  {name:<14} {base_s:6.2f} s {base_mb:7.1f} MB -> "
              f"{head_s:6.2f} s {head_mb:7.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
