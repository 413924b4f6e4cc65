"""Mutation sweep of the command-line parser: the one-site changes no test sees.

Each mutant changes one site of one function in ``TARGETS`` by one of five
operators:

- a comparison flipped (``<`` and ``<=``, ``==`` and ``!=``, ``in`` and
  ``not in``, ``is`` and ``is not``, and so on);
- an arithmetic or bitwise operator swapped (``+`` and ``-``, ``&`` and
  ``|``, ``<<`` and ``>>``, ``*`` to ``//``);
- an integer constant raised by 1 (``False`` and ``True`` are integers, so
  ``False`` becomes ``1``);
- ``and`` and ``or`` swapped;
- the test of an ``if`` statement or expression negated.

The mutant is written to a copy of ``src/`` in a temporary directory, never
to ``src/`` itself: the target function is replaced by its ``ast.unparse``
text, the rest of the module is left byte for byte.  ``TESTS`` then run
against the copy with ``-x``; a failure or a timeout kills the mutant.
Before any mutant, the copy with every target unparsed but unchanged must
pass.  Run from anywhere:

    python tests/mutants.py            # print the survivors as JSON
    python tests/mutants.py --check    # exit 1 unless they are SURVIVORS

``golden/mutant_survivors.json`` lists each expected survivor with its
reason, "equivalent" (no output can differ) or "speed-only" (only slower).
``--check`` fails on a survivor it does not list, and on a listed mutant
that no longer survives, so the list stays exact.  pytest does not collect
this file.
"""

from __future__ import annotations

import argparse
import ast
import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULE = Path("foulkes") / "cli.py"
TARGETS = ("build_parser", "_Parser.__init__", "_emit", "_cmd_constituents")
TESTS = ("tests/test_cli.py", "tests/test_golden.py")
SURVIVORS = ROOT / "tests" / "golden" / "mutant_survivors.json"
REASONS = {"equivalent", "speed-only"}

FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift, ast.Mult: ast.FloorDiv,
}


def find(tree: ast.Module, qualname: str) -> ast.FunctionDef:
    """The function ``qualname`` (``name`` or ``Class.name``) of ``tree``."""
    body = tree.body
    *outer, name = qualname.split(".")
    for part in outer:
        body = next(n for n in body if isinstance(n, ast.ClassDef) and n.name == part).body
    return next(n for n in body if isinstance(n, ast.FunctionDef) and n.name == name)


def sites(func: ast.FunctionDef) -> list[tuple[int, int]]:
    """(index of the node in ``ast.walk(func)``, which change of it) for every mutant."""
    found = []
    for i, node in enumerate(ast.walk(func)):
        if isinstance(node, ast.Compare):
            found += [(i, k) for k, op in enumerate(node.ops) if type(op) in FLIPS]
        elif isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            found.append((i, 0))
        elif isinstance(node, ast.Constant) and isinstance(node.value, int):
            found.append((i, 0))
        elif isinstance(node, (ast.BoolOp, ast.If, ast.IfExp)):
            found.append((i, 0))
    return found


def mutate(func: ast.FunctionDef, site: tuple[int, int]) -> tuple[ast.FunctionDef, str]:
    """A copy of ``func`` with ``site`` changed, and a name for the change."""
    func = copy.deepcopy(func)
    index, k = site
    node = next(n for i, n in enumerate(ast.walk(func)) if i == index)
    shown = node.test if isinstance(node, (ast.If, ast.IfExp)) else node
    before = ast.unparse(shown)
    if isinstance(node, ast.Compare):
        node.ops[k] = FLIPS[type(node.ops[k])]()
    elif isinstance(node, ast.BinOp):
        node.op = SWAPS[type(node.op)]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    elif isinstance(node, ast.BoolOp):
        node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
    else:
        node.test = ast.UnaryOp(ast.Not(), node.test)
        shown = node.test
    return func, f"+{node.lineno - func.lineno}: {before} -> {ast.unparse(shown)}"


def splice(source: str, funcs: dict[str, ast.FunctionDef], tree: ast.Module) -> str:
    """``source`` with each named function of ``tree`` replaced by the unparsed ``funcs`` one."""
    lines = source.splitlines(keepends=True)
    spans = sorted(((find(tree, q), f) for q, f in funcs.items()), key=lambda p: -p[0].lineno)
    for old, new in spans:
        text = textwrap.indent(ast.unparse(new), " " * old.col_offset) + "\n"
        lines[old.lineno - 1 : old.end_lineno] = [text]
    return "".join(lines)


def run_tests(src: Path, timeout: float) -> tuple[bool, float]:
    """Whether ``TESTS`` pass against the package in ``src``, and the seconds taken."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *TESTS]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start
    return proc.returncode == 0, time.perf_counter() - start


def sweep() -> list[str]:
    """The names of the surviving mutants, in sweep order."""
    source = (ROOT / "src" / MODULE).read_text(encoding="utf-8")
    tree = ast.parse(source)
    originals = {q: find(tree, q) for q in TARGETS}
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = src / MODULE
        loaded = subprocess.run(
            [sys.executable, "-c", "import foulkes.cli; print(foulkes.cli.__file__)"],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        ).stdout.strip()
        if Path(loaded) != target:
            sys.exit(f"the tests would import {loaded or 'nothing'}, not the copy {target}")
        target.write_text(splice(source, originals, tree), encoding="utf-8")
        passed, seconds = run_tests(src, timeout=600)
        if not passed:
            sys.exit("the tests fail on the unparsed but unchanged targets; no sweep")
        timeout = max(60.0, 10 * seconds)
        mutants = [(q, s) for q in TARGETS for s in sites(originals[q])]
        print(f"baseline passed in {seconds:.1f} s; {len(mutants)} mutants", file=sys.stderr)
        for qualname, site in mutants:
            func, change = mutate(originals[qualname], site)
            name = f"{qualname} {change}"
            target.write_text(splice(source, {**originals, qualname: func}, tree), encoding="utf-8")
            killed = not run_tests(src, timeout)[0]
            print(f"{'killed  ' if killed else 'SURVIVED'} {name}", file=sys.stderr)
            if not killed:
                survivors.append(name)
    return survivors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--check", action="store_true", help=f"compare with {SURVIVORS.name}")
    args = parser.parse_args()
    survivors = sweep()
    if not args.check:
        print(json.dumps(survivors, indent=1))
        return 0
    listed = json.loads(SURVIVORS.read_text(encoding="utf-8"))
    bad = [e["mutant"] for e in listed if e.get("reason") not in REASONS]
    new = [s for s in survivors if s not in {e["mutant"] for e in listed}]
    gone = [e["mutant"] for e in listed if e["mutant"] not in survivors]
    for title, names in (("without a reason", bad), ("not listed", new), ("listed but killed", gone)):
        for name in names:
            print(f"{title}: {name}")
    print(f"{len(survivors)} survivors, {len(listed)} listed")
    return 1 if bad or new or gone else 0


if __name__ == "__main__":
    sys.exit(main())
