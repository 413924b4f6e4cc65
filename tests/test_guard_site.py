"""The oracle's guard rule and its one warning each have one home.

Every degree is either computed or refused: ``oracle._degree`` is the only
place that raises :class:`GuardExceededError`, for both the expansion and
the single coefficient, and nothing in ``oracle.py`` warns except
``CharacterTable.load_or_create`` when it ignores a cache file.  The module
is parsed with ``ast`` and each site is named by its enclosing class and
function.
"""

from __future__ import annotations

import ast
from pathlib import Path

ORACLE = Path(__file__).resolve().parents[1] / "src" / "foulkes" / "oracle.py"


def _name(node: ast.AST) -> str:
    """The dotted name of a ``Name`` or ``Attribute`` chain, else ``""``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        inner = _name(node.value)
        return f"{inner}.{node.attr}" if inner else ""
    return ""


def sites(source: str) -> dict[str, list[str]]:
    """The scope of every ``raise GuardExceededError`` and every ``warnings.warn`` call."""
    found: dict[str, list[str]] = {"raise": [], "warn": []}

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if _name(exc).split(".")[-1] == "GuardExceededError":
                found["raise"].append(scope)
        if isinstance(node, ast.Call) and _name(node.func) in ("warnings.warn", "warn"):
            found["warn"].append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def test_sites_are_found_with_their_scope():
    source = (
        "import warnings\n"
        "raise GuardExceededError\n"
        "class T:\n"
        "    def f(self):\n"
        "        warnings.warn('w')\n"
        "        raise errors.GuardExceededError('g')\n"
        "def g():\n"
        "    raise ValueError('v')\n"
        "    warn('w')\n"
        "    other.warn('o')\n"
    )
    assert sites(source) == {"raise": ["<module>", "T.f"], "warn": ["T.f", "g"]}


def test_only_degree_refuses_past_the_guard():
    assert sites(ORACLE.read_text(encoding="utf-8"))["raise"] == ["_degree"]


def test_only_the_table_loader_warns():
    assert sites(ORACLE.read_text(encoding="utf-8"))["warn"] == [
        "CharacterTable.load_or_create"
    ]
