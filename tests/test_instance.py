import math

import numpy as np
import pytest

from hardylab import instance
from hardylab.errors import InvalidParamsError, ZeroSetUnresolvedError
from hardylab.expr import Interval, evaluate, parse
from hardylab.instance import (
    build_measures,
    check_admissibility,
    check_nonneg,
    log_measure,
    make_instance,
    pointwise_condition_expr,
    preset,
    preset_names,
    weak_pdi_residual,
)
from hardylab.verify import tent
from oracles import condition, constant_exponent_measures, density_fn, lhs_core_expr

SIGMA_T3 = 2 * math.exp(-1.5) + 1


def test_admissibility_distance_preset():
    inst = preset("cor51", M=1.0, p="2", sigma="1", beta=2.0)
    report = check_admissibility(inst)
    assert report.admissible
    # Phi u + sigma |u'|^p is identically sigma = 1 away from the kink
    assert condition(report, "pointwise").worst_margin == pytest.approx(1.0, abs=1e-12)
    assert condition(report, "beta-margin").worst_margin == pytest.approx(1.0, abs=1e-12)


def test_admissibility_beta_gap_violated():
    inst = preset("cor51", M=1.0, p="2", sigma="3", beta=2.0)
    report = check_admissibility(inst)
    cond = condition(report, "beta-margin")
    assert cond.verdict == "violated"
    assert cond.worst_margin == pytest.approx(-1.0, abs=1e-12)


def test_admissibility_decided_once_per_instance(monkeypatch):
    calls = []
    real = instance.check_nonneg
    monkeypatch.setattr(
        instance, "check_nonneg", lambda *a, **k: calls.append(k["name"]) or real(*a, **k)
    )
    inst = preset("cor64", a=1.0, p="x+2", beta=5.0)
    report = check_admissibility(inst)
    names = ["u-nonnegative", "pointwise", "normalized-power-condition"]
    assert calls == names
    assert [c.name for c in report.conditions] == [*names[:2], "beta-margin", names[2]]
    assert check_admissibility(inst) is report
    assert calls == names


def test_exponential_preset_condition_minimum():
    # condition sigma - (exp(-x^2)(2x^2-1) + 1): its minimum is 0, attained
    # where t = x^2 maximizes exp(-t)(2t-1), i.e. at x = sqrt(3/2)
    inst = preset(
        "cor55", p="2-exp(-x^2)", sigma=repr(SIGMA_T3), beta=SIGMA_T3 + 1,
        domain=Interval(0, math.inf),
    )
    assert check_admissibility(inst).admissible
    cond = check_nonneg(inst.condition, inst.domain)
    assert cond.verdict == "holds-numerically"
    assert 0 <= cond.worst_margin < 1e-4
    xs = np.linspace(0.01, 4, 40001)
    vals = [evaluate(inst.condition, float(x)) for x in xs]
    x_min = xs[int(np.argmin(vals))]
    assert x_min == pytest.approx(math.sqrt(1.5), abs=1e-3)


def test_weak_pdi_tent_across_kink():
    inst = preset("cor51", M=1.0, p="2", sigma="1", beta=2.0)
    w = tent(0.0, 0.5, 1.0)
    assert weak_pdi_residual(inst, w) == pytest.approx(2.0, abs=1e-6)


def test_weak_pdi_away_from_kink():
    inst = preset("cor51", M=1.0, p="2", sigma="1", beta=2.0)
    w = tent(0.5, 0.3, 1.0)
    assert weak_pdi_residual(inst, w) == pytest.approx(0.0, abs=1e-6)


def test_weak_pdi_fails_for_large_phi():
    inst = make_instance(
        Interval(-1, 1), "2", "1 - abs(x)", "1e6", "1", 2.0
    )
    w = tent(0.0, 0.5, 1.0)
    assert weak_pdi_residual(inst, w) < -1e4


def test_lhs_core_exponential_factorization():
    # for u = e^x the core factors as e^(2x) (sigma - p' x - p + 1)
    inst = preset("cor55", p="2-exp(-x^2)", sigma="3", beta=4.0, domain=Interval(-2, 2))
    core = lhs_core_expr(inst)
    rng = np.random.default_rng(3)
    for x in rng.uniform(-2, 2, size=20):
        x = float(x)
        p = 2 - math.exp(-x * x)
        dp = 2 * x * math.exp(-x * x)
        expected = math.exp(2 * x) * (3.0 - dp * x - p + 1.0)
        assert evaluate(core, x) == pytest.approx(expected, rel=1e-12)


def test_lhs_core_power_factorization():
    alpha, sigma = 2.0, 2.0
    inst = preset("cor53", alpha=alpha, p="x+3", sigma=repr(sigma), beta=3.0)
    core = lhs_core_expr(inst)
    rng = np.random.default_rng(4)
    for x in rng.uniform(0.05, 0.95, size=20):
        x = float(x)
        p = x + 3
        bar_g = (
            sigma * alpha ** 2
            - 1.0 * x * alpha * math.log(abs(alpha * x ** (alpha - 1)))
            + (p - 1) * alpha * (1 - alpha)
        )
        assert evaluate(core, x) == pytest.approx(x ** (2 * alpha - 2) * bar_g, rel=1e-12)


def test_lhs_core_constant_u_is_zero():
    inst = make_instance(Interval(0, 1), "2", "3", "0", "1", 2.0)
    core = lhs_core_expr(inst)
    for x in (0.2, 0.7):
        assert evaluate(core, x) == 0.0


def test_lhs_core_matches_pointwise_condition_for_auto_phi():
    # (Phi u + sigma |u'|^p) == |u'|^(p-2) * core when Phi is the symbolic
    # negative divergence term
    inst = preset("cor53", alpha=2.0, p="x+3", sigma="2", beta=3.0)
    cond = pointwise_condition_expr(inst)
    core = lhs_core_expr(inst)
    for x in (0.2, 0.5, 0.8):
        up = abs(2 * x)
        p = x + 3
        assert evaluate(cond, x) == pytest.approx(
            up ** (p - 2) * evaluate(core, x), rel=1e-11
        )


def test_check_nonneg_trivial_cases():
    zero = parse("0")
    rep = check_nonneg(zero, Interval(-1, 1))
    assert rep.verdict == "holds-numerically"
    assert rep.worst_margin == 0.0
    rep = check_nonneg(parse("-x^2"), Interval(-1, 1))
    assert rep.verdict == "violated"
    assert rep.witness is not None and rep.witness != 0.0


def test_check_nonneg_an_infinite_negative_sample_violates():
    # exp(1000 x) overflows past x = 0.71; the tolerance scales with
    # finite samples only, so the -inf samples are violations
    rep = check_nonneg(parse("0 - exp(1000*x)"), Interval(0, 1))
    assert rep.verdict == "violated"
    assert rep.worst_margin == -math.inf and rep.witness > 0.7


def test_check_nonneg_scales_its_tolerance_near_the_worst_sample():
    # exp(1000 x) - 2 is -0.95 at the first grid point and near 1e308 at
    # x = 0.7; a tolerance scaled by the largest sample on the grid would
    # forgive the negative part, one scaled near the worst sample does not
    rep = check_nonneg(parse("exp(1000*x) - 2"), Interval(0, 1))
    assert rep.verdict == "violated"
    assert rep.worst_margin == pytest.approx(-0.9487, abs=1e-4) and rep.witness < 1e-3


def test_a_half_line_far_from_zero_is_sampled_inside_itself():
    for domain in (Interval(100, math.inf), Interval(-math.inf, -100)):
        w = domain.window()
        assert domain.lo <= w.lo < w.hi <= domain.hi
    domain = Interval(100, math.inf)
    assert make_instance(domain, "2 + x^0.5/(1+x^0.5)", "x", None, "0", 1.0).vp.p_minus > 2.0
    inst = preset("raw", domain="100, inf", p="2", u="log(x)", sigma="0", beta=1.0)
    u_nonneg = condition(check_admissibility(inst), "u-nonnegative")
    assert u_nonneg.verdict == "holds-numerically" and u_nonneg.skipped == 0


def test_log_measure_is_built_once_and_only_for_a_variable_exponent():
    inst = preset("cor53")
    assert log_measure(inst) is not None
    assert log_measure(inst) is log_measure(inst)
    assert log_measure(inst).indicator == build_measures(inst)[1].indicator
    # p' is the zero constant: mu2 has no factor 2 and the log term vanishes
    assert log_measure(preset("cor51")) is None
    assert log_measure(preset("constp")) is None


def test_check_nonneg_normalized_power_condition():
    inst = preset("cor64", a=1.0, p="x+2", beta=5.0, domain=Interval(0, 1))
    rep = check_nonneg(inst.condition, inst.domain)
    assert rep.verdict == "holds-numerically"
    # a=1: the condition reads beta - 2(p-1) = 5 - 2(x+1), minimum 1 at x=1
    assert rep.worst_margin == pytest.approx(1.0, abs=1e-3)


def test_measures_distance_preset_forms():
    M, beta = 1.0, 2.0
    inst = preset("cor51", M=M, p="2-exp(-x^2)", sigma="1", beta=beta)
    mu1, mu2 = build_measures(inst)
    for x in (-0.6, 0.2, 0.8):
        u = M - abs(x)
        p = 2 - math.exp(-x * x)
        assert density_fn(mu1)(x) == pytest.approx(u ** (-beta - 1), rel=1e-12)
        expected2 = u ** (p - beta - 1) * (2 * (p - 1) / (beta - 1)) ** (p - 1)
        assert density_fn(mu2)(x) == pytest.approx(expected2, rel=1e-12)


def test_measures_reciprocal_preset_forms():
    a, beta, sigma = 1.0, 10.0, 9.0
    inst = preset("cor54", a=a, p="2+x/10", sigma=repr(sigma), beta=beta)
    mu1, mu2 = build_measures(inst)
    for x in (0.5, 2.0, 7.0):
        p = 2 + x / 10
        dp = 0.1
        bar_g = sigma + dp * x * math.log(a / x ** 2) - 2 * p + 2
        exp1 = (a / x) ** (p - beta - 1) * x ** (-p) * bar_g
        exp2 = (a / x) ** (p - beta - 1) * (2 * (p - 1) / (beta - sigma)) ** (p - 1)
        assert density_fn(mu1)(x) == pytest.approx(exp1, rel=1e-10)
        assert density_fn(mu2)(x) == pytest.approx(exp2, rel=1e-10)


def test_constant_p_measure_has_no_factor_two():
    inst = preset("constp", p=3.0, alpha=0.7, sigma=0.5, beta=2.0)
    mu1, mu2 = build_measures(inst)
    p, beta, sigma = 3.0, 2.0, 0.5
    for x in (0.5, 2.0):
        u = x ** 0.7
        expected = ((p - 1) / (beta - sigma)) ** (p - 1) * u ** (p - beta - 1)
        assert density_fn(mu2)(x) == pytest.approx(expected, rel=1e-12)


def test_constant_exponent_measure_relation():
    # thm-form mu2 equals ((p-1)/(beta-sigma))^(p-1) times the
    # constant-exponent form, and mu1 moves by the reciprocal factor
    inst = preset("constp", p=3.0, alpha=0.7, sigma=0.5, beta=2.0)
    mu1, mu2 = build_measures(inst)
    m1c, m2c = constant_exponent_measures(inst)
    p, beta, sigma = 3.0, 2.0, 0.5
    c = ((p - 1) / (beta - sigma)) ** (p - 1)
    for x in (0.3, 1.0, 4.0):
        assert density_fn(mu2)(x) == pytest.approx(c * density_fn(m2c)(x), rel=1e-12)
        assert density_fn(m1c)(x) == pytest.approx(density_fn(mu1)(x) / c, rel=1e-12)


def test_indicator_zeroes_density_outside_u_support():
    inst = make_instance(Interval(-1, 1), "2", "max(x, 0)", "0", "1", 2.0)
    mu1, mu2 = build_measures(inst)
    assert density_fn(mu1)(-0.5) == 0.0
    assert density_fn(mu2)(-0.5) == 0.0  # u' = 0 on the left half
    assert density_fn(mu1)(0.5) > 0.0


def test_measures_split_only_at_the_ends_of_an_underflowed_zero_run():
    # p' = 2x exp(-x^2) underflows to exactly 0 beyond x = 27.3: the scan
    # samples from there on are one run of zeros, split at its ends only
    inst = preset("cor55", p="2-exp(-x^2)", sigma=repr(SIGMA_T3), beta=SIGMA_T3 + 1,
                  domain=Interval(0, math.inf))
    for mu in build_measures(inst):
        assert {0.0, 27.3046875} <= set(mu.split_points)
        assert len(mu.split_points) <= 3


def test_unresolvable_u_zero_raises():
    inst = make_instance(Interval(0, 1), "2", "(x-0.5)^2", None, "1", 2.0)
    with pytest.raises(ZeroSetUnresolvedError):
        build_measures(inst)


def test_preset_triple_examples_admissible():
    triples = [
        dict(p="1+d/(abs(x)+1)", sigma="d", beta=2.0, domain=Interval(-5, 5), d=1.0),
        dict(p="exp(x)", sigma="(x+1)*exp(x)-1+0.1", beta=22.3, domain=Interval(0, 2)),
        dict(p="2-exp(-x^2)", sigma=repr(SIGMA_T3), beta=SIGMA_T3 + 1,
             domain=Interval(0, math.inf)),
    ]
    for kwargs in triples:
        inst = preset("cor55", **kwargs)
        assert check_admissibility(inst).admissible
        assert check_nonneg(inst.condition, inst.domain).verdict == "holds-numerically"


def test_preset_power_negative_alpha():
    # alpha < 0 is allowed; |u'| enters through exact absolute values
    inst = preset("cor53", alpha=-1.0, p="2", sigma="4", beta=5.0,
                  domain=Interval(0.5, 2.0))
    assert check_admissibility(inst).admissible
    mu1, _ = build_measures(inst)
    for x in (0.7, 1.5):
        # u = 1/x: core = x^(-4) (sigma - 2p + 2), mu1 = |u'|^(p-2) u^(-beta-1) core
        expected = x ** (-4) * (4.0 - 2 * 2.0 + 2) * x ** (-2 * (2.0 - 2)) * x ** 6
        assert density_fn(mu1)(x) == pytest.approx(expected, rel=1e-10)


def test_preset_degenerate_power_is_vacuous():
    inst = preset("cor53", alpha=1.0, p="2", sigma="0", beta=1.0)
    assert inst.vacuous
    assert evaluate(inst.condition, 0.5) == 0.0


def test_preset_invalid_params():
    with pytest.raises(InvalidParamsError):
        preset("cor54", a=-1.0)
    with pytest.raises(InvalidParamsError):
        preset("cor51", M=1.0, beta=-2.0)
    with pytest.raises(InvalidParamsError):
        preset("nonsense")
    with pytest.raises(InvalidParamsError):
        preset("cor53", alpha=2.0, domain=Interval(-1, 1))
    # beta is checked where the instance is made, for every caller
    with pytest.raises(InvalidParamsError, match="beta must be finite and positive"):
        make_instance(Interval(0, 1), "2", "x", None, "0", math.inf)


def test_classical_weight_from_constant_preset():
    inst = preset("constp")
    mu1, mu2 = build_measures(inst)
    for x in (0.25, 1.0, 5.0):
        assert density_fn(mu1)(x) * x * x == pytest.approx(0.25, rel=1e-12)
        assert density_fn(mu2)(x) == pytest.approx(1.0, rel=1e-12)


SHIPPED_PRESETS = [
    ("cor51", dict(M=1.0, p="2", sigma="1", beta=2.0)),
    ("cor51", dict(M=1.0, p="2-exp(-x^2)", sigma="1", beta=2.0)),
    ("cor53", dict(alpha=2.0, p="x+3", sigma="2", beta=3.0)),
    ("cor54", dict(a=1.0, p="2", sigma="2.5", beta=3.5)),
    ("cor55", dict(p="1+d/(abs(x)+1)", sigma="d", beta=2.0, domain=Interval(-5, 5), d=1.0)),
    ("cor55", dict(p="2-exp(-x^2)", sigma=repr(SIGMA_T3), beta=SIGMA_T3 + 1,
                   domain=Interval(0, math.inf))),
    ("cor64", dict(a=1.0, p="x+2", beta=5.0, domain=Interval(0, 1))),
    ("constp", dict()),
]


def test_every_shipped_preset_passes_checks():
    for name, kwargs in SHIPPED_PRESETS:
        inst = preset(name, **kwargs)
        report = check_admissibility(inst)
        assert report.admissible, (name, kwargs)
        if inst.condition is not None:
            cond = check_nonneg(inst.condition, inst.domain)
            assert cond.verdict == "holds-numerically", (name, kwargs)


def test_measure_densities_nonnegative_on_grids():
    for name, kwargs in SHIPPED_PRESETS:
        inst = preset(name, **kwargs)
        mu1, mu2 = build_measures(inst)
        f1, f2 = density_fn(mu1), density_fn(mu2)
        for x in inst.domain.midpoint_grid(400):
            assert f1(x) >= -1e-12, (name, x)
            assert f2(x) >= 0.0, (name, x)


def test_beta_gap_counts_nan_sigma_as_skipped():
    # exp(1000 x) overflows to inf beyond x = 0.71, where sigma is inf - inf,
    # so sigma is NaN on about 29% of the grid: too few samples to decide
    sigma = parse("exp(1000*x) - exp(1000*x)")
    inst = make_instance(Interval(0, 1), "2", "x", None, sigma, 2.0)
    gap = condition(check_admissibility(inst), "beta-margin")
    assert gap.verdict == "indeterminate"
    assert 0.25 * 10_000 < gap.skipped < 0.35 * 10_000


def test_preset_names_are_the_preset_table():
    assert preset_names() == ["cor51", "cor53", "cor54", "cor55", "cor64", "constp", "raw"]
    raw_keys = dict(domain="0, 1", p="2", u="x", sigma="0", beta="1")
    for name in preset_names():
        assert preset(name, **(raw_keys if name == "raw" else {})).preset == name


def test_preset_rejects_a_key_nothing_reads():
    # the misspelt beta would otherwise be recorded as a parameter, beta kept at 2
    with pytest.raises(InvalidParamsError, match="'bta'"):
        preset("cor51", bta=3)


def test_an_auto_phi_reads_no_parameter():
    # phi = auto is the negative divergence term, not an expression that
    # reads a parameter named auto
    raw_keys = dict(domain="0, 1", u="x", sigma="0", beta="1")
    for text in ("auto", " AUTO "):
        with pytest.raises(InvalidParamsError, match="'auto'"):
            preset("raw", p="2", phi=text, auto="3", **raw_keys)
    # an exponent that reads it does
    assert preset("raw", p="auto", auto="3", **raw_keys).params == {"auto": 3.0}


def test_raw_preset_names_its_missing_keys():
    with pytest.raises(InvalidParamsError, match=r"\['domain', 'p', 'u', 'sigma', 'beta'\]"):
        preset("raw")
