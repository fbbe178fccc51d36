"""Every name a module exports through `__all__`, and every library function or
method the traced benchmark wraps, exists in its module."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import qcayley

MODULES = ["qcayley"] + [f"qcayley.{m.name}" for m in pkgutil.iter_modules(qcayley.__path__)]
SPANS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    # a stale name here breaks `from <module> import *`
    assert not missing, f"{name}.__all__ names {missing}, which the module lacks"


def test_every_traced_span_target_resolves():
    # read the file only: a renamed target otherwise shows up as a crash of `--trace 1`
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS_FILE)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SPANS
    missing = []
    for span, (module_name, targets) in spans.SPANS.items():
        module = importlib.import_module(f"qcayley.{module_name}")
        for target in targets:
            owner = module
            for part in target.split("."):
                owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"{span}: {module_name}.{target}")
    assert not missing, f"SPANS targets missing from qcayley: {missing}"
