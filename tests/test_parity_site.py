"""The parity of m is read in one place.

The rules and the oracle's omega check orient themselves by kappa = nu for
even m and nu' for odd m.  ``partitions.kappa_partition`` is that decision,
so each ``src/foulkes/*.py`` module is parsed with ``ast`` and ``m % 2`` may
appear once, inside that function.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "foulkes"


def parity_sites(source: str) -> list[str]:
    """The enclosing function of every ``m % 2``, or ``<module>`` outside one."""
    sites = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Mod)
            and isinstance(node.left, ast.Name)
            and node.left.id == "m"
            and isinstance(node.right, ast.Constant)
            and node.right.value == 2
        ):
            sites.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return sites


def test_sites_are_found_with_their_scope():
    source = "x = m % 2\ndef f(m):\n    return [m % 2 for _ in ()], m % 3, n % 2\n"
    assert parity_sites(source) == ["<module>", "f"]


def test_only_kappa_partition_reads_the_parity_of_m():
    sites = [
        f"{path.stem}.{scope}"
        for path in sorted(PACKAGE.glob("*.py"))
        for scope in parity_sites(path.read_text(encoding="utf-8"))
    ]
    assert sites == ["partitions.kappa_partition"]
