"""List the ``src/`` statements that no run reaches.

    python .github/reach.py [--no-tests]

Runs the Tier-1 suite (unless ``--no-tests``) and a small CLI chain with
every Python process traced: a ``sitecustomize`` written to a temporary
directory at the head of ``PYTHONPATH`` starts ``sys.settrace`` in each
interpreter that starts, pytest's and every subprocess's that keeps that
``PYTHONPATH``, and each one writes the ``src/`` lines it ran when it exits,
into the directory that ``REACH_OUT`` names: one for the chain's processes,
another for the suite's. Then it prints, per file, the statements that none
of them ran, each by its first line number and source line, ``raise``
statements listed apart; then, the same way, the statements that the suite
reaches but no chain command does, and how many the chain alone leaves
unreached. Last it lists each function, class and method of ``src/`` that
no ``src/`` module names, from the AST alone: a name counts as used when some ``src/`` module
reads it, as a name or an attribute, outside the definition itself. A
dunder method is left out (Python calls it), and so is an ``__init__.py``
re-export, which is an import, not a use.

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

# Written as sitecustomize.py; ROOT is filled in. Code objects from files
# under ROOT are traced until each of their lines has run; a process writes
# what ran as $REACH_OUT/<pid>-<ns>.json when it exits.
SITECUSTOMIZE = '''\
import atexit
import os
import sys
import threading
import time

_ROOT = {root!r}
_OUT = os.environ["REACH_OUT"]
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


def run_traced(env: dict, chain_out: Path, tests_out: Path | None) -> list[str]:
    """Run the chain, tracing into ``chain_out``, and Tier-1 (unless
    ``tests_out`` is None), tracing into ``tests_out``; returns what failed."""
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        (cwd / "config.json").write_text(json.dumps(CONFIG))
        (cwd / "grad_check.json").write_text(json.dumps(GRAD_CHECK_CONFIG))
        for argv in RUNS:
            proc = subprocess.run([sys.executable, "-m", "clothfold", *argv], cwd=cwd,
                                  env={**env, "REACH_OUT": str(chain_out)},
                                  capture_output=True, text=True)
            if proc.returncode:
                failed.append(f"clothfold {' '.join(argv)} (exit {proc.returncode}): "
                              f"{proc.stderr.strip()}")
    if tests_out is not None:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q",
                               "--continue-on-collection-errors"], cwd=REPO,
                              env={**env, "REACH_OUT": str(tests_out)})
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


def _print_statements(path: Path, stmts: list[tuple[ast.stmt, range]]) -> int:
    """Print each of ``stmts`` by its first line number and source line,
    ``raise`` statements apart; returns how many are ``raise``."""
    source = path.read_text().splitlines()
    raises = [span.start for node, span in stmts if isinstance(node, ast.Raise)]
    for node, span in stmts:
        if not isinstance(node, ast.Raise):
            print(f"  {span.start:5d}  {source[span.start - 1].strip()}")
    if raises:
        print("  raise:")
        for line in raises:
            print(f"  {line:5d}  {source[line - 1].strip()}")
    return len(raises)


def report(chain: dict[str, set[int]], suite: dict[str, set[int]]) -> None:
    """The statements that neither run reaches, then those only the suite does."""
    total = unreached = raises = only = only_raises = 0
    suite_only = []
    for path in sorted(PACKAGE.rglob("*.py")):
        by_chain, by_suite = chain.get(str(path), set()), suite.get(str(path), set())
        stmts = statements(path)
        missed = [(node, span) for node, span in stmts
                  if not by_chain.intersection(span) and not by_suite.intersection(span)]
        total += len(stmts)
        unreached += len(missed)
        suite_only.append((path, [(node, span) for node, span in stmts
                                  if by_suite.intersection(span)
                                  and not by_chain.intersection(span)]))
        if missed:
            print(f"{path.relative_to(REPO)}: {len(missed)} of {len(stmts)} "
                  f"statements unreached")
            raises += _print_statements(path, missed)
    print(f"{unreached} of {total} executable statements unreached, "
          f"{unreached - raises} of them not raise")
    for path, stmts in suite_only:
        if stmts:
            print(f"{path.relative_to(REPO)}: {len(stmts)} statements only the suite reaches")
            only += len(stmts)
            only_raises += _print_statements(path, stmts)
    print(f"{only} statements only the suite reaches, {only - only_raises} of them not "
          f"raise; the chain alone leaves {unreached + only} of {total} unreached, "
          f"{unreached - raises + only - only_raises} of them not raise")


def _definitions(body: list, prefix: str = ""):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node
            yield from _definitions(node.body, f"{prefix}{node.name}.")


def uncalled() -> list[str]:
    """``path:line qualname`` of each definition in ``src/`` that no
    ``src/`` module reads outside its own lines."""
    defs, reads = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        defs += [(path, qualname, node) for qualname, node in _definitions(tree.body)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((path, node.id, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.append((path, node.attr, node.lineno))
    out = []
    for path, qualname, node in defs:
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        if not any(name == node.name and not (where == path
                                              and node.lineno <= line <= node.end_lineno)
                   for where, name, line in reads):
            out.append(f"{path.relative_to(REPO)}:{node.lineno} {qualname}")
    return out


def _ran(out: Path) -> dict[str, set[int]]:
    """Per file, the lines that the processes tracing into ``out`` ran."""
    ran: dict[str, set[int]] = {}
    for record in out.glob("*.json"):
        for name, lines in json.loads(record.read_text()).items():
            ran.setdefault(name, set()).update(lines)
    return ran


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--no-tests", action="store_true",
                   help="trace the CLI chain only, not the Tier-1 suite")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        hook, chain_out, tests_out = (Path(tmp) / name for name in ("hook", "chain", "tests"))
        for directory in (hook, chain_out, tests_out):
            directory.mkdir()
        (hook / "sitecustomize.py").write_text(
            SITECUSTOMIZE.format(root=str(PACKAGE) + os.sep))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [str(hook), str(SRC),
                                                           os.environ.get("PYTHONPATH")]))}
        failed = run_traced(env, chain_out, None if args.no_tests else tests_out)
        chain, suite = _ran(chain_out), _ran(tests_out)
    report(chain, suite)
    names = uncalled()
    print(f"{len(names)} functions, classes and methods that no src/ module names"
          + "".join(f"\n  {name}" for name in names))
    for what in failed:
        print(f"failed: {what}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
