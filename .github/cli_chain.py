"""Run a tiny CLI chain at a base commit and at the working tree, and list
the output files whose bytes differ.

    python .github/cli_chain.py BASE_REF

The chain is ``gen-data`` (1 episode per family), ``train`` (D=16, 2
epochs), ``eval`` and ``eval --expert`` (1 episode per cell), ``run`` with
the model and with the scripted expert (before/after PNGs), ``ablate``
(every adapter x fusion pair, trained and scored on that dataset) and
``plan``, which writes no file and is almost all start-up.
``grad-check`` is left out: at D=16 it takes about 20 s per side. A second
``train`` on that dataset follows, with ``train.batch_size: 1`` and its own
output directory: one sample per optimizer step, whose bytes a change to
how a batch sums its gradients must leave alone. A larger scripted-expert
grid follows: ``eval --expert`` at seed 173 with 3 episodes per cell (45
episodes, among them the one known expert miss, SI/TF), so the bytes of a
change to the simulator, the planner or the scoring show on more episodes
than the chain's 15. A desk-scale pair follows: ``gen-data`` at the default
42 episodes per family (504 demos) and ``train`` with ``train.epochs: 0``,
which only loads that dataset and prepares its samples, so its peak RSS is
the data path's.
Each side runs in its own directory with the same relative output paths, so
paths recorded in the outputs agree. JSON files are compared with every
``wall_time_s`` key removed; all other files byte for byte.

The working tree's ``train`` then runs once more, on a copy of the base
side's dataset directory, and the files of its output that differ from the
working tree's own ``train`` output are listed too, a file that only the run
on the base side's dataset wrote as ``(base only)``: an older dataset must
load and train the same way. Last come each command's wall seconds and
peak RSS on both sides, the RSS read from its own rusage when it is
reaped.

A change declares the chain files whose bytes it changes in a line it adds
to CHANGES.md: ``**Bytes changed: none.**``, or ``**Bytes changed: <paths
or globs under out/, comma-separated>.**``. The script exits 1 when no such
line was added since the base commit, when a chain file differs that no
declared path or glob names, or when one names no differing file; it also
exits 1 when a command fails or the base commit cannot be exported. The
cross-read and the costs are informational.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fnmatch import fnmatch
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CONFIG = {
    "seed": 0,
    "model": {"embed_dim": 16},
    "train": {"epochs": 2},
    "data": {"episodes_per_family": 1},
    "benchmark": {"episodes_per_cell": 1},
}
BATCH1_CONFIG = {**CONFIG, "train": {"epochs": 2, "batch_size": 1}}
EXPERT_CONFIG = {**CONFIG, "seed": 173, "benchmark": {"episodes_per_cell": 3}}
DESK_CONFIG = {**CONFIG, "train": {"epochs": 0}, "data": {"episodes_per_family": 42}}
CONFIGS = {"config.json": CONFIG, "batch1.json": BATCH1_CONFIG,
           "expert.json": EXPERT_CONFIG, "desk.json": DESK_CONFIG}
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
BATCH1_CHAIN = [["train", "--dataset", "out/dataset", "--out", "out/train_batch1"]]
EXPERT_CHAIN = [["eval", "--expert", "--out", "out/eval_expert_seed173"]]
DESK_CHAIN = [["gen-data", "--out", "out/desk/dataset"],
              ["train", "--dataset", "out/desk/dataset", "--out", "out/desk/train"]]
# Chains run after CHAIN, each under its own config, and the tag of their costs.
SUFFIX_CHAINS = [(BATCH1_CHAIN, "batch1.json", "(batch 1)"),
                 (EXPERT_CHAIN, "expert.json", "(seed 173)"),
                 (DESK_CHAIN, "desk.json", "(desk)")]


def run_chain(src: Path, cwd: Path, chain: list[list[str]] = CHAIN,
              config: str = "config.json") -> list[tuple[float, float]]:
    """Run each command of ``chain`` under ``config``, one of ``CONFIGS``;
    returns their wall seconds and peak RSS in MB."""
    cwd.mkdir(parents=True, exist_ok=True)
    for name, values in CONFIGS.items():
        (cwd / name).write_text(json.dumps(values))
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    costs = []
    for argv in chain:
        cmd = [sys.executable, "-m", "clothfold", argv[0], "--config", config, *argv[1:]]
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


DECLARATION = re.compile(r"\*\*Bytes changed: (.+?)\.\*\*")


def declared_changes(base: str) -> list[str] | None:
    """The paths and globs of the declarations CHANGES.md holds now and did
    not hold at ``base`` (``none`` declares none), or None if it gained no
    declaration. Counting them, not diff lines, keeps an old declaration on
    a line edited since from counting as new."""
    def declarations(text: str) -> Counter:
        return Counter(m.group(1) for m in DECLARATION.finditer(text))

    old = subprocess.run(["git", "show", f"{base}:CHANGES.md"], cwd=REPO, check=True,
                         capture_output=True, text=True).stdout
    added = declarations((REPO / "CHANGES.md").read_text()) - declarations(old)
    if not added:
        return None
    return [path.strip().strip("`") for text in added if text.strip() != "none"
            for path in text.split(",")]


def declaration_mismatches(declared: list[str], diff: list[str]) -> list[str]:
    """What breaks the declaration: each differing file that no declared
    pattern names, then each pattern that names no differing file."""
    changed = ["out/" + name.removesuffix(" (base only)").removesuffix(" (head only)")
               for name in diff]
    return ([f"{name} differs but is not declared" for name in changed
             if not any(fnmatch(name, p) for p in declared)]
            + [f"{p} is declared but no such file differs" for p in declared
               if not any(fnmatch(name, p) for name in changed)])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", help="git commit to compare the working tree against")
    args = p.parse_args(argv)
    try:
        declared = declared_changes(args.base)
    except subprocess.CalledProcessError as e:
        print(f"cannot read CHANGES.md at {args.base}: {e}", file=sys.stderr)
        return 1
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
            for chain, config, _ in SUFFIX_CHAINS:
                base_costs += run_chain(base_src / "src", work / "base", chain, config)
                head_costs += run_chain(REPO / "src", work / "head", chain, config)
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
    names = ([" ".join([argv[0], *(a for a in argv if a == "--expert")]) for argv in CHAIN]
             + [f"{argv[0]} {suffix}" for chain, _, suffix in SUFFIX_CHAINS
                for argv in chain])
    for name, (base_s, base_mb), (head_s, head_mb) in zip(names, base_costs, head_costs):
        print(f"  {name:<16} {base_s:6.2f} s {base_mb:7.1f} MB -> "
              f"{head_s:6.2f} s {head_mb:7.1f} MB")
    if declared is None:
        print(f"CHANGES.md gained no '**Bytes changed: ...**' line since {args.base}",
              file=sys.stderr)
        return 1
    problems = declaration_mismatches(declared, diff)
    for problem in problems:
        print(f"bytes changed: {problem}", file=sys.stderr)
    print(f"bytes changed as declared ({', '.join(declared) or 'none'}): "
          f"{'no' if problems else 'yes'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
