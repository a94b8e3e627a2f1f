"""Run a tiny CLI chain at a base commit and at the working tree, and list
the output files whose bytes differ.

    python .github/cli_chain.py BASE_REF

The chain is ``gen-data`` (1 episode per family), ``train`` (D=16, 2
epochs), ``eval`` and ``eval --expert`` (1 episode per cell) and ``run``.
Each side runs in its own directory with the same relative output paths, so
paths recorded in the outputs agree. JSON files are compared with every
``wall_time_s`` key removed; all other files byte for byte. The comparison is
informational: it exits 0 whatever differs, and 1 only when a command fails
or the base commit cannot be exported.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CONFIG = {
    "seed": 0,
    "model": {"embed_dim": 16},
    "train": {"epochs": 2},
    "data": {"episodes_per_family": 1},
    "benchmark": {"episodes_per_cell": 1},
}
CHAIN = [
    ["gen-data", "--out", "out/dataset"],
    ["train", "--dataset", "out/dataset", "--out", "out/train"],
    ["eval", "--checkpoint", "out/train/model.cfck", "--out", "out/eval"],
    ["eval", "--expert", "--out", "out/eval_expert"],
    ["run", "--checkpoint", "out/train/model.cfck",
     "--command", "Fold the Towel in half diagonally", "--out", "out/run"],
]


def run_chain(src: Path, cwd: Path) -> None:
    cwd.mkdir(parents=True)
    (cwd / "config.json").write_text(json.dumps(CONFIG))
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    for argv in CHAIN:
        cmd = [sys.executable, "-m", "clothfold", argv[0], "--config", "config.json",
               *argv[1:]]
        subprocess.run(cmd, cwd=cwd, env=env, check=True, stdout=subprocess.DEVNULL)


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
            run_chain(base_src / "src", work / "base")
            run_chain(REPO / "src", work / "head")
        except subprocess.CalledProcessError as e:
            print(f"cli chain failed: {e}", file=sys.stderr)
            return 1
        diff = differing_files(work / "base" / "out", work / "head" / "out")
        n_files = sum(1 for p in (work / "head" / "out").rglob("*") if p.is_file())
        print(f"{len(diff)} of {n_files} output files differ from {args.base} "
              f"(wall_time_s stripped)")
        for name in diff:
            print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
