"""List the ``src/`` statements that no run reaches.

    python .github/reach.py [--no-tests]

Runs the Tier-1 suite (unless ``--no-tests``) and a small CLI chain with
every Python process traced: a ``sitecustomize`` written to a temporary
directory at the head of ``PYTHONPATH`` starts ``sys.settrace`` in each
interpreter that starts, pytest's and every subprocess's that keeps that
``PYTHONPATH``, and each one writes the ``src/`` lines it ran when it exits.
Then it prints, per file, the statements that none of them ran, each by its
first line number and source line, ``raise`` statements listed apart.

A statement is executable when the compiler emits code for one of its lines
(so a docstring or a ``global`` is not), and reached when one of those lines
ran; a compound statement counts its header only (decorators, ``def``,
``if`` test, ...). The chain is ``cli_chain.py``'s (``gen-data``,
``train``, ``eval`` and ``eval --expert``, ``run`` with the model and with
the expert, ``ablate`` and ``plan``) under its ``CONFIG``, then ``train
--resume`` and ``grad-check``, in a temporary directory. A
function stops being traced once each of its lines has run; even so, the
traced suite and chain take about twice the suite's own time.

Informational: exits 0 whatever is unreached, 1 when a run fails (its
report is still printed).
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from cli_chain import CHAIN, CONFIG

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
PACKAGE = SRC / "clothfold"

# Written as sitecustomize.py; ROOT and OUT are filled in. Code objects from
# files under ROOT are traced until each of their lines has run; a process
# writes what ran as OUT/<pid>-<ns>.json when it exits.
SITECUSTOMIZE = '''\
import atexit
import os
import sys
import threading
import time

_ROOT = {root!r}
_OUT = {out!r}
_todo = {{}}         # code object -> its lines not yet run (empty outside _ROOT)


def _lines(code):
    lines = {{line for _, _, line in code.co_lines() if line}}
    if code.co_name != "<module>" and len(lines) > 1:
        lines.discard(code.co_firstlineno)      # only its RESUME; no line event
    return lines


def _line(frame, event, arg):
    todo = _todo
    if todo is None:     # module globals read None at interpreter shutdown
        return None
    if event == "line":
        left = todo[frame.f_code]
        left.discard(frame.f_lineno)
        if not left:
            frame.f_trace = None
            return None
    return _line


def _call(frame, event, arg):
    todo = _todo
    if todo is None:
        return None
    code = frame.f_code
    left = todo.get(code)
    if left is None:
        left = todo[code] = _lines(code) if code.co_filename.startswith(_ROOT) else set()
    return _line if left else None


def _dump():
    global _todo
    todo, _todo = _todo, None
    sys.settrace(None)
    threading.settrace(None)
    ran = {{}}
    for code, left in todo.items():
        if code.co_filename.startswith(_ROOT):
            ran.setdefault(code.co_filename, set()).update(_lines(code) - left)
    import json
    with open(f"{{_OUT}}/{{os.getpid()}}-{{time.time_ns()}}.json", "w") as f:
        json.dump({{name: sorted(lines) for name, lines in ran.items()}}, f)


atexit.register(_dump)
threading.settrace(_call)
sys.settrace(_call)
'''

GRAD_CHECK_CONFIG = {"model": {"embed_dim": 8, "depth": 1, "patch_size": 56}}
# cli_chain.py's chain, with the commands it leaves out added.
RUNS = [[*argv[:1], "--config", "config.json", *argv[1:]] for argv in CHAIN] + [
    ["train", "--config", "config.json", "--dataset", "out/dataset", "--out", "out/resumed",
     "--resume", "out/train/model.cfck"],
    ["grad-check", "--config", "grad_check.json"],
]


def run_traced(env: dict, tests: bool) -> list[str]:
    """Run the chain (and Tier-1) under ``env``; returns what failed."""
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        (cwd / "config.json").write_text(json.dumps(CONFIG))
        (cwd / "grad_check.json").write_text(json.dumps(GRAD_CHECK_CONFIG))
        for argv in RUNS:
            proc = subprocess.run([sys.executable, "-m", "clothfold", *argv], cwd=cwd,
                                  env=env, capture_output=True, text=True)
            if proc.returncode:
                failed.append(f"clothfold {' '.join(argv)} (exit {proc.returncode}): "
                              f"{proc.stderr.strip()}")
    if tests:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q",
                               "--continue-on-collection-errors"], cwd=REPO, env=env)
        if proc.returncode:
            failed.append(f"Tier-1 (exit {proc.returncode})")
    return failed


def _code_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and parent.body[0] is node and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def statements(path: Path) -> list[tuple[ast.stmt, range]]:
    """Each executable statement of ``path`` with the lines that count as
    running it: a simple statement's own lines, a compound one's header."""
    source = path.read_text()
    tree = ast.parse(source)
    code_lines = _code_lines(compile(source, str(path), "exec"))
    out = []
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if not isinstance(node, ast.stmt) or _is_docstring(node, parent):
                continue
            first = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", [])])
            body = getattr(node, "body", None)
            last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
            span = range(first, last + 1)
            if code_lines.intersection(span):
                out.append((node, span))
    return sorted(out, key=lambda item: item[1].start)


def report(ran: dict[str, set[int]]) -> None:
    total = unreached = raises = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = ran.get(str(path), set())
        stmts = statements(path)
        missed = [(node, span) for node, span in stmts if not lines.intersection(span)]
        total += len(stmts)
        unreached += len(missed)
        if not missed:
            continue
        source = path.read_text().splitlines()
        missed_raises = [span.start for node, span in missed if isinstance(node, ast.Raise)]
        raises += len(missed_raises)
        print(f"{path.relative_to(REPO)}: {len(missed)} of {len(stmts)} statements unreached")
        for node, span in missed:
            if not isinstance(node, ast.Raise):
                print(f"  {span.start:5d}  {source[span.start - 1].strip()}")
        if missed_raises:
            print("  raise:")
            for line in missed_raises:
                print(f"  {line:5d}  {source[line - 1].strip()}")
    print(f"{unreached} of {total} executable statements unreached, "
          f"{unreached - raises} of them not raise")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--no-tests", action="store_true",
                   help="trace the CLI chain only, not the Tier-1 suite")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        hook, out = Path(tmp) / "hook", Path(tmp) / "out"
        hook.mkdir()
        out.mkdir()
        (hook / "sitecustomize.py").write_text(
            SITECUSTOMIZE.format(root=str(PACKAGE) + os.sep, out=str(out)))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [str(hook), str(SRC),
                                                           os.environ.get("PYTHONPATH")]))}
        failed = run_traced(env, not args.no_tests)
        ran: dict[str, set[int]] = {}
        for record in out.glob("*.json"):
            for name, lines in json.loads(record.read_text()).items():
                ran.setdefault(name, set()).update(lines)
    report(ran)
    for what in failed:
        print(f"failed: {what}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
