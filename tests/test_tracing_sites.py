"""The traced benchmark run wraps hardylab functions at the module names
listed in ``perfbench/tracing.py``; every one of them must still exist, and
the results it reads must still carry what it reads from them."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from hardylab.instance import preset
from hardylab.sharpness import FamilySpec, scan

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves(tracing):
    missing = [
        f"{module}.{name}"
        for module, names in tracing.SITES.items()
        for name in names
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []


def test_traced_scan_info_reads_the_trace(tracing):
    # the sharpness.evals_to_best and best_ratio metrics come from this
    result = scan(preset("constp"), FamilySpec(), budget=1)
    assert tracing._info("sharpness.scan", (), result) == [1, result.best_ratio]
