"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest perfbench/test_perfbench.py
"""

import dataclasses
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402
from hardylab import spaces  # noqa: E402
from hardylab.expr import parse  # noqa: E402
from hardylab.instance import preset  # noqa: E402
from hardylab.verify import power_bump, verify_hardy  # noqa: E402


def _norm_case(exponent):
    coeffs = [1.0, 0.5, 0.25]
    meta = {"exponent": exponent, "coeffs": coeffs, "root": None,
            "varp": exponent >= 2}
    text = workloads.EXPONENTS[exponent][0]
    vp = spaces.validate_exponent(parse(text), workloads.UNIT)
    return meta, spaces.luxemburg_norm(workloads.polynomial(coeffs), vp)


def test_failed_frac_counts_a_scaled_norm_and_a_flipped_verdict():
    constant_meta, constant_norm = _norm_case(0)
    variable_meta, variable_norm = _norm_case(2)
    inst = preset("cor51", M=1.0, p="2", sigma="1", beta=2.0)
    report = verify_hardy(inst, power_bump(0.1, 0.4, 1.0, 3.0))
    stored = [report.verdict, report.margin, report.combined_error]
    flipped = dataclasses.replace(report, verdict="fail")

    good = [
        workloads.check_norm(constant_meta, constant_norm),
        workloads.check_norm(variable_meta, variable_norm),
        workloads.check_case(report, stored),
    ]
    assert good == [None, None, None]

    bad = [
        workloads.check_norm(constant_meta, constant_norm * (1 + 1e-3)),
        workloads.check_norm(variable_meta, variable_norm * (1 + 1e-3)),
        workloads.check_case(flipped, None),
    ]
    assert all(reason is not None for reason in bad)
    assert workloads.failed_frac(good + bad) == 0.5


def test_margin_outside_both_error_bounds_fails():
    inst = preset("cor51", M=1.0, p="2", sigma="1", beta=2.0)
    report = verify_hardy(inst, power_bump(0.1, 0.4, 1.0, 3.0))
    err = report.combined_error
    assert workloads.check_case(report, ["pass", report.margin + 1.5 * err, err]) is None
    assert workloads.check_case(report, ["pass", report.margin + 3 * err, err]) is not None


def test_self_times_add_up_and_sites_are_restored():
    original = spaces.modular
    wl = workloads.LuxemburgNorms(3, None)
    wl.setup()
    wl.start()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i in range(4, 8):  # sign-definite inputs of every exponent
            op, _ = wl.prepare(i)
            tracer.run_op(i, op)
    finally:
        tracer.uninstall()
    assert spaces.modular is original
    assert tracing.self_sum_error(tracer.spans) < 1e-9
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["spaces.modular_calls"] == metrics["quadrature.integrals"] > 0
    assert metrics["spaces.modular_per_norm"] > 1


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reproduce", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
