"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (run with ``pytest tests/test_acceptance.py -s``)."""

import math
import time

import numpy as np
import pytest

from hardylab.cli import SCENARIOS, build_instance, cmd_check, load_config
from hardylab.errors import InvalidTestFunctionError
from hardylab.expr import Interval, parse
from hardylab.instance import build_measures, preset, weak_pdi_residual
from hardylab.quadrature import STATUS_DIVERGENT, integrate
from hardylab.report import parse_json
from hardylab.sharpness import scan
from hardylab.spaces import Integrand, luxemburg_norm, modular, validate_exponent
from hardylab.verify import batch_verify, tent, verify_caccioppoli
from oracles import check_sum_power, check_young, density_fn

SIGMA_T3 = 2 * math.exp(-1.5) + 1


def _conclude(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {number} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_scalar_lemma_suite():
    rng = np.random.default_rng(20240901)
    n = 100_000
    worst_young = math.inf
    s1s = rng.uniform(0, 1e3, size=n)
    s2s = rng.uniform(0, 1e3, size=n)
    ps = rng.uniform(1.0 + 1e-9, 10.0, size=n)
    taus = rng.uniform(1e-3, 1e3, size=n)
    ok = True
    for s1, s2, p, tau in zip(s1s, s2s, ps, taus):
        margin = check_young(s1, s2, p, tau)
        scale = 1.0 + abs(s1 * s2 ** (p - 1.0))
        worst_young = min(worst_young, margin / scale)
        if margin < -1e-9 * scale:
            ok = False
            break
    worst_sum = math.inf
    for s1, s2, p in zip(s1s, s2s, ps):
        margin = check_sum_power(s1, s2, p)
        scale = 1.0 + abs((s1 + s2) ** p)
        worst_sum = min(worst_sum, margin / scale)
        if margin < -1e-9 * scale:
            ok = False
            break
    eq_young = [abs(check_young(s, s, 2.0, 1.0)) for s in rng.uniform(0, 1e3, size=200)]
    eq_sum = [abs(check_sum_power(0.0, s, p)) for s, p in zip(
        rng.uniform(0, 1e3, size=200), rng.uniform(1.01, 10, size=200))]
    ok = ok and max(eq_young) <= 1e-14 and max(eq_sum) <= 1e-14
    _conclude(
        1, "scalar lemma suite", ok,
        f"worst normalized margins {worst_young:.3g}/{worst_sum:.3g}, "
        f"equality residues {max(eq_young):.3g}/{max(eq_sum):.3g}",
    )


CACCIOPPOLI_PRESETS = [
    ("cor51 p=2", preset, ("cor51",), dict(M=1.0, p="2", sigma="1", beta=2.0)),
    ("cor51 varp", preset, ("cor51",), dict(M=1.0, p="2-exp(-x^2)", sigma="1", beta=2.0)),
    ("cor53", preset, ("cor53",), dict(alpha=2.0, p="x+3", sigma="2", beta=3.0)),
]


def test_criterion_2_caccioppoli_suite():
    start = time.monotonic()
    ok = True
    details = []
    for label, build, args, kwargs in CACCIOPPOLI_PRESETS:
        inst = build(*args, **kwargs)
        summary = batch_verify(inst, "power_bump", 50, 7, which="caccioppoli")
        fails = summary.counts["fail"]
        passes = summary.counts["pass"]
        details.append(f"{label}: {passes}p/{fails}f/{summary.counts['indeterminate']}i")
        ok = ok and fails == 0 and passes >= 0.95 * 50
    elapsed = time.monotonic() - start
    ok = ok and elapsed <= 60.0
    _conclude(2, "caccioppoli suite", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_3_hardy_suite():
    instances = [
        ("cor51 p=2", preset("cor51", M=1.0, p="2", sigma="1", beta=2.0), True),
        ("cor51 varp", preset("cor51", M=1.0, p="2-exp(-x^2)", sigma="1", beta=2.0), False),
        ("cor53", preset("cor53", alpha=2.0, p="x+3", sigma="2", beta=3.0), False),
        ("cor54", preset("cor54", a=1.0, p="2", sigma="2.5", beta=3.5,
                         domain=Interval(0.1, 10)), True),
        ("cor55 t3", preset("cor55", p="2-exp(-x^2)", sigma=repr(SIGMA_T3),
                            beta=SIGMA_T3 + 1, domain=Interval(0, math.inf)), False),
    ]
    ok = True
    details = []
    for label, inst, constant_p in instances:
        summary = batch_verify(inst, "mixed", 50, 7, which="hardy")
        fails = summary.counts["fail"]
        details.append(f"{label}: {summary.counts['pass']}p/{fails}f/"
                       f"{summary.counts['indeterminate']}i")
        ok = ok and fails == 0
        if constant_p:
            from hardylab.verify import random_test_function, verify_hardy

            rng = np.random.default_rng(3)
            rep = verify_hardy(inst, random_test_function(inst, rng, "power_bump"))
            machine_zero = rep.rhs_log.value == 0.0 and rep.rhs_log.error_bound == 0.0
            ok = ok and machine_zero
    _conclude(3, "hardy suite", ok, "; ".join(details))


def test_criterion_4_classical_constant_recovery():
    inst = preset("constp")  # p = 2, beta = 1, u = x^(1/2), sigma = 0
    mu1, mu2 = build_measures(inst)
    weight_ok = all(
        abs(density_fn(mu1)(x) * x * x - 0.25) <= 1e-12 and
        abs(density_fn(mu2)(x) - 1.0) <= 1e-12
        for x in (0.3, 1.0, 4.0)
    )

    alphas = np.arange(0.1, 2.0 + 1e-12, 0.01)
    sigmas = np.arange(-5.0, 0.99 + 1e-12, 0.01)
    A, S = np.meshgrid(alphas, sigmas, indexing="ij")
    K = (S * A * A + A * (1.0 - A)) * (1.0 - S)
    brute = float(K.max())
    brute_ok = abs(brute - 0.25) <= 1e-3

    res = scan(inst)
    ratio_ok = res.best_ratio <= 1.10 and res.verdict == "sharp"
    _conclude(
        4, "classical constant recovery",
        weight_ok and brute_ok and ratio_ok,
        f"weight 1/4 exact={weight_ok}, brute force max={brute:.6f}, "
        f"best ratio {res.best_ratio:.4f}, limit {res.limit:.9g} +- {res.limit_error:.2g} "
        f"({res.verdict})",
    )


def _scenario_config(name, tmp_path, extra_instance=None):
    cfg = load_config(None, {"output": {"dir": str(tmp_path / name)}})
    merged = {section: dict(values) for section, values in cfg.items()}
    for section, values in SCENARIOS[name].items():
        merged.setdefault(section, {}).update(values)
    if extra_instance:
        merged["instance"].update(extra_instance)
    return merged


def test_criterion_5_admissibility_sensitivity(tmp_path):
    names = [
        "cor55-triple1", "cor55-triple2", "cor55-triple3",
        "cor64-affine", "cor64-reciprocal", "cor64-rational",
    ]
    codes = {}
    for name in names:
        cfg = _scenario_config(name, tmp_path)
        codes[name] = cmd_check(cfg, build_instance(cfg), label=f"{name}-check")
    all_pass = all(code == 0 for code in codes.values())

    perturbed = {
        "cor55-triple2": {"sigma": "(x+1)*exp(x)-1-0.05"},
        "cor55-triple3": {"sigma": repr(SIGMA_T3 - 0.05)},
    }
    witness_ok = True
    for name, patch in perturbed.items():
        cfg = _scenario_config(name, tmp_path, extra_instance=patch)
        code = cmd_check(cfg, build_instance(cfg), label=f"{name}-perturbed")
        report = parse_json(
            (tmp_path / name / f"{name}-perturbed.json").read_bytes()
        )
        violated = [
            c for c in report.payload["conditions"]
            if c["verdict"] == "violated" and c["witness"] is not None
        ]
        witness_ok = witness_ok and code == 1 and violated
        if name == "cor55-triple3" and violated:
            witness_ok = witness_ok and any(
                abs(c["witness"] - math.sqrt(1.5)) < 0.5 for c in violated
            )
    _conclude(
        5, "admissibility sensitivity", all_pass and witness_ok,
        f"checks {codes}; perturbed triples exit 1 with witnesses={bool(witness_ok)}",
    )


def test_criterion_6_weak_pdi_oracle():
    inst = preset("cor51", M=1.0, p="2", sigma="1", beta=2.0)
    r_center = weak_pdi_residual(inst, tent(0.0, 0.5, 1.0))
    r_offset = weak_pdi_residual(inst, tent(0.5, 0.3, 1.0))
    ok = abs(r_center - 2.0) <= 1e-6 and abs(r_offset) <= 1e-6
    _conclude(
        6, "weak PDI oracle", ok,
        f"residuals {r_center:.9f} (want 2) and {r_offset:.2e} (want 0)",
    )


def test_criterion_7_space_functionals():
    rng = np.random.default_rng(77)
    ok = True
    worst = 0.0
    for p in (1.5, 2.0, 3.0, 4.5):
        vp = validate_exponent(parse(repr(p)), Interval(0, 1))
        for _ in range(5):
            coeffs = rng.uniform(-2, 2, size=int(rng.integers(2, 5)))
            f = lambda x, c=coeffs: float(sum(ck * x ** k for k, ck in enumerate(c)))
            m = modular(Integrand(f, vp.domain), vp).value
            if m < 1e-10:
                continue
            norm = luxemburg_norm(f, vp)
            rel = abs(norm - m ** (1.0 / p)) / m ** (1.0 / p)
            worst = max(worst, rel)
            ok = ok and rel <= 1e-6

    vp = validate_exponent(parse("x+2"), Interval(0, 1))
    unit_ok = True
    for _ in range(5):
        coeffs = rng.uniform(0.2, 2, size=3)
        f = lambda x, c=coeffs: float(c[0] + c[1] * x + c[2] * x * x)
        norm = luxemburg_norm(f, vp)
        resid = abs(modular(Integrand(lambda x: f(x) / norm, vp.domain), vp).value - 1.0)
        unit_ok = unit_ok and resid <= 1e-4
    _conclude(
        7, "space functionals", ok and unit_ok,
        f"worst relative norm error {worst:.2e}; unit ball ok={unit_ok}",
    )


def test_criterion_8_divergence_guard():
    inst = preset("cor51", M=1.0, p="3", sigma="1", beta=2.0)
    w = tent(0.0, 0.5, 1.0)
    rejected = False
    try:
        verify_caccioppoli(inst, w)
    except InvalidTestFunctionError:
        rejected = True

    p = 3.0
    raw = lambda x: abs(w.derivative(x)) ** p * w(x) ** (1.0 - p)
    r = integrate(raw, w.support, split_at=[0.0], endpoint_singular=(True, True))
    diverged = r.status == STATUS_DIVERGENT
    _conclude(
        8, "divergence guard", rejected and diverged,
        f"rejected={rejected}, raw status={r.status}",
    )
