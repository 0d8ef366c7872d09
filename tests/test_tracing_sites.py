"""The traced benchmark run wraps hardylab functions at the module names
listed in ``perfbench/tracing.py``; every one of them must still exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_site_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # for its dataclasses
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{name}"
        for module, names in tracing.SITES.items()
        for name in names
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []
