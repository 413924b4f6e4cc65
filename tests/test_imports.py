"""Import hygiene: every name a library module imports is used or re-exported.

Each ``src/foulkes/*.py`` module but ``__init__.py`` is parsed with ``ast``;
a name bound by ``import`` or ``from ... import`` must appear as a name in the
module's code or be listed in its ``__all__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "foulkes"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used - exported - {"annotations"}


def test_every_module_is_scanned():
    assert {p.stem for p in MODULES} >= {"cli", "constituents", "families", "oracle"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == set()


def test_a_stale_import_is_found():
    source = "from .partitions import Partition, parse_partition\nparse_partition('1')\n"
    assert unused_imports(source) == {"Partition"}
