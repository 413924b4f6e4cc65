"""Import hygiene and import cost.

Each ``src/foulkes/*.py`` module but ``__init__.py`` is parsed with ``ast``;
a name bound by ``import`` or ``from ... import`` must appear as a name in the
module's code or be listed in its ``__all__``.  The oracle, the independent
judge of the rules, imports nothing of the rule modules, and the monomial
cross-oracle in ``tests/monomial.py``, which judges the oracle, nothing of the
package but the oracle, ``partitions`` and ``errors``; the package no longer
has a ``monomial`` module.  Importing the package loads neither
``dataclasses`` nor ``foulkes.special``, whose names load on first use, and
loading ``special`` brings in no ``dataclasses`` or ``inspect`` either.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import foulkes
from foulkes import special

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "foulkes"
CROSS_ORACLE = Path(__file__).resolve().parent / "monomial.py"
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


@pytest.mark.parametrize("path", [*MODULES, CROSS_ORACLE], ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == set()


def test_a_stale_import_is_found():
    source = "from .partitions import Partition, parse_partition\nparse_partition('1')\n"
    assert unused_imports(source) == {"Partition"}


def package_imports(source: str) -> set[str]:
    """The package modules a module imports from: relatively inside the
    package, as ``foulkes.<module>`` from outside it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else (a.name for a in node.names))
        elif isinstance(node, ast.ImportFrom) and node.module == "foulkes":
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("foulkes."):
            found.add(node.module.removeprefix("foulkes."))
        elif isinstance(node, ast.Import):
            found.update(a.name.removeprefix("foulkes.") for a in node.names if a.name.startswith("foulkes."))
    return found


def test_the_oracle_imports_no_rule_code():
    source = (PACKAGE / "oracle.py").read_text(encoding="utf-8")
    assert package_imports(source) == {"partitions", "errors"}


def test_the_cross_oracle_imports_only_the_oracle():
    source = CROSS_ORACLE.read_text(encoding="utf-8")
    assert package_imports(source) == {"oracle", "partitions", "errors"}


def test_package_imports_are_found():
    source = "from .families import BlockKind\nfrom . import special\nimport json\n"
    assert package_imports(source) == {"families", "special"}
    source = "from foulkes.families import BlockKind\nfrom foulkes import special\nimport foulkes.cli\n"
    assert package_imports(source) == {"families", "special", "cli"}


# Run with -S and only the source tree on the path, so that nothing but the
# package itself decides which modules are loaded.
START_UP = """
import contextlib, io, sys
import foulkes
print(sorted(m for m in ("dataclasses", "inspect", "foulkes.special") if m in sys.modules))
from foulkes.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(["expand", "--m", "2", "--nu", "2,1"])
print("foulkes.special" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    main(["theta", "--n", "3"])
print("foulkes.special" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    main(["verify", "--m", "2", "--nu", "2,1"])
print(sorted(m for m in ("dataclasses", "inspect") if m in sys.modules))
"""


def test_import_loads_no_dataclasses_and_no_corollaries():
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", START_UP],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert proc.stdout.splitlines() == ["[]", "False", "True", "[]"]


@pytest.mark.parametrize("name", special.__all__)
def test_corollaries_resolve_from_the_package(name):
    namespace: dict = {}
    exec(f"from foulkes import {name}", namespace)
    assert getattr(foulkes, name) is getattr(special, name) is namespace[name]
    assert name in dir(foulkes) and name in foulkes.__all__


def test_the_cross_oracle_is_not_in_the_package():
    with pytest.raises(ModuleNotFoundError, match="foulkes.monomial"):
        importlib.import_module("foulkes.monomial")
    with pytest.raises(AttributeError, match="no attribute 'monomial_expansion'"):
        foulkes.monomial_expansion
    assert not {"monomial", "monomial_expansion"} & ({*dir(foulkes)} | {*foulkes.__all__})


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        foulkes.nothing
