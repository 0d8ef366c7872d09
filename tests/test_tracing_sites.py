"""The traced benchmark run wraps hardylab functions at the module names
listed in ``perfbench/tracing.py``; every one of them must still exist, and
the results it reads must still carry what it reads from them."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from hardylab.expr import Interval
from hardylab.instance import preset
from hardylab.quadrature import integrate
from hardylab.sharpness import WIDTHS, scan
from hardylab.verify import power_bump, spline_bump, verify_caccioppoli, verify_hardy

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
    result = scan(preset("constp"))
    assert tracing._info("sharpness.scan", (), result) == [len(WIDTHS), result.best_ratio]
    assert result.best_ratio <= 1.10
    assert result.verdict == "sharp"


def test_traced_case_and_integral_info_read_the_results(tracing):
    # the verify.verdict.*, verify.retry_frac, input.* and quadrature.status.*
    # metrics come from these
    varp = preset("cor51", M=1.0, p="2-exp(-x^2)", sigma="1", beta=2.0)
    xi = spline_bump(Interval(-0.5, 0.6), [0.5, 0.9, 0.7])
    info = tracing._info("verify.verify_hardy", (varp, xi), verify_hardy(varp, xi))
    assert info == ["pass", False, "spline-bump", True]
    constp = preset("cor51", M=1.0, p="2", sigma="1", beta=2.0)
    phi = power_bump(0.0, 0.6, 1.0, 3.0)
    info = tracing._info("verify.verify_caccioppoli", (constp, phi), verify_caccioppoli(constp, phi))
    assert info == ["pass", False, "power-bump", False]
    result = integrate(lambda x: x, Interval(0.0, 1.0))
    assert tracing._info("quadrature.integrate", (), result) == [15, "converged"]


def test_traced_scan_records_one_ratio_span_per_width(tracing):
    # the sharpness.ratio_calls and ratio_s metrics count these spans
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.run_op(0, lambda: scan(preset("constp")))
    finally:
        tracer.uninstall()
    assert sum(1 for s in tracer.spans if s.name == "sharpness.ratio") == len(WIDTHS)
