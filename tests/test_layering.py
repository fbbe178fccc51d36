"""The import order that `qcayley/__init__.py`'s docstring states, read from the source.

Each module imports only `scalars`, `errors` and the modules before it in
`fusion` -> `cayley` -> `aunitary` -> `estimates` -> `qctree`, with `cli` and
`verify` on top (`cli` runs `verify`, never the other way round).  No library
module imports the tests or their oracles.
"""

import ast
from pathlib import Path

import pytest

import qcayley

SRC = Path(qcayley.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
ORDER = ["fusion", "cayley", "aunitary", "estimates", "qctree", "verify", "cli"]
BASE = {"scalars", "errors"}
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def _imports(name):
    """Top-level names a module imports anywhere in its source: package modules
    by their short name, everything else by its first dotted part."""
    tree = ast.parse((SRC / f"{name}.py").read_text(), filename=f"{name}.py")
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            parts = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # from . import x / from .x import y
                parts = ([["qcayley", node.module.split(".")[0]]] if node.module
                         else [["qcayley", alias.name] for alias in node.names])
            else:
                parts = [node.module.split(".") + [alias.name] for alias in node.names]
        else:
            continue
        for dotted in parts:
            out.add(dotted[1] if dotted[0] == "qcayley" and len(dotted) > 1 else dotted[0])
    return out


def test_every_library_module_has_a_place_in_the_order():
    assert set(MODULES) == set(ORDER) | BASE | {"__init__", "__main__"}


@pytest.mark.parametrize("name", sorted(BASE) + ORDER)
def test_a_module_imports_only_the_base_and_the_layers_before_it(name):
    allowed = BASE | set(ORDER[:ORDER.index(name)] if name in ORDER else ())
    package = _imports(name) & (set(MODULES) | {"qcayley"})
    assert package <= allowed, f"{name} imports {sorted(package - allowed)}"


@pytest.mark.parametrize("name", MODULES)
def test_no_library_module_imports_the_tests(name):
    test_modules = {"tests", "conftest"} | {p.stem for p in TESTS.glob("*.py")}
    assert not _imports(name) & test_modules, f"{name} imports from the tests"
