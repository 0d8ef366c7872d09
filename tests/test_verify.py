import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from hardylab import sharpness, spaces, verify
from hardylab.cli import SCENARIOS, build_instance
from hardylab.errors import (
    EvalDomainError,
    InadmissibleInstanceError,
    InvalidTestFunctionError,
    VacuousInstanceError,
)
from hardylab.expr import Interval, parse
from hardylab.instance import build_measures, make_instance, preset
from hardylab.quadrature import (
    DEFAULT_TOL_ABS,
    STATUS_CONVERGED,
    STATUS_DIVERGENT,
    QuadratureResult,
    integrate,
)
from hardylab.verify import (
    batch_verify,
    from_expr,
    power_bump,
    spline_bump,
    tent,
    verify_caccioppoli,
    verify_hardy,
)
from oracles import check_sum_power, check_young, density_fn


def test_young_equality_case():
    assert check_young(1.0, 1.0, 2.0, 1.0) == 0.0
    assert check_young(3.0, 3.0, 2.0, 1.0) == 0.0


def test_young_explicit_value():
    # s1 = 0: RHS = (p-1)/p tau s2^p = (2/3) * 2 * 125
    assert check_young(0.0, 5.0, 3.0, 2.0) == pytest.approx(500.0 / 3.0, rel=1e-14)


@settings(max_examples=300, deadline=None)
@given(
    s1=st.floats(0, 1e3),
    s2=st.floats(0, 1e3),
    p=st.floats(1.0001, 10),
    tau=st.floats(1e-3, 1e3),
)
def test_young_property(s1, s2, p, tau):
    margin = check_young(s1, s2, p, tau)
    scale = 1.0 + abs(s1 * s2 ** (p - 1.0))
    assert margin >= -1e-9 * scale


def test_sum_power_vanishing_first_argument():
    assert check_sum_power(0.0, 7.0, 2.5) == 0.0
    assert check_sum_power(0.0, 0.3, 1.7) == 0.0


def test_sum_power_equality_at_two():
    assert check_sum_power(1.0, 1.0, 2.0) == 0.0


@settings(max_examples=300, deadline=None)
@given(s1=st.floats(0, 1e3), s2=st.floats(0, 1e3), p=st.floats(1.0001, 10))
def test_sum_power_property(s1, s2, p):
    margin = check_sum_power(s1, s2, p)
    scale = 1.0 + abs((s1 + s2) ** p)
    assert margin >= -1e-9 * scale


def test_invalid_scalar_arguments():
    with pytest.raises(ValueError):
        check_young(-1.0, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        check_sum_power(1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# test functions


def test_power_bump_shape():
    tf = power_bump(0.0, 0.5, 2.0, 3.0)
    assert tf.support == Interval(-0.5, 0.5)
    assert tf.f(0.0) == 2.0
    assert 0.0 < tf.f(0.5 - 1e-6) < 1e-15
    assert tf.df(0.1) == pytest.approx(-tf.df(-0.1))


def test_tent_shape():
    tf = tent(0.0, 1.0, 1.0)
    assert tf.support == Interval(-1.0, 1.0)
    assert tf.f(0.0) == 1.0
    assert tf.f(0.5) == 0.5
    assert tf.df(0.3) == -1.0
    assert tf.df(-0.3) == 1.0
    assert tf.edge_exponent == 1.0


def test_spline_bump_nonnegative_and_clamped():
    rng = np.random.default_rng(0)
    tf = spline_bump(Interval(0, 1), rng.uniform(0.2, 1.0, size=4))
    assert tf.support == Interval(0, 1)
    xs = tf.support.midpoint_array(200)
    assert all(tf.f(float(x)) >= 0 for x in xs)
    # value and slope vanish at both ends, so the square falls off as (x - end)^4
    for near, far in ((1e-4, 1e-3), (1.0 - 1e-4, 1.0 - 1e-3)):
        assert tf.f(near) / tf.f(far) == pytest.approx(1e-4, rel=0.01)
    h = 1e-7
    for x in (0.25, 0.6):
        fd = (tf.f(x + h) - tf.f(x - h)) / (2 * h)
        assert tf.df(x) == pytest.approx(fd, abs=1e-5)


def _scipy_spline(support, values):
    """The clamped spline that ``spline_bump`` squares, and its derivative."""
    knots = np.linspace(support.lo, support.hi, len(values) + 2)
    s = CubicSpline(knots, np.concatenate([[0.0], values, [0.0]]), bc_type="clamped")
    return knots, s, s.derivative()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_spline_bump_scalar_path_equals_scipy(n):
    rng = np.random.default_rng(n)
    support = Interval(-0.3, 1.7)
    values = rng.uniform(0.2, 1.2, size=n)
    knots, s, ds = _scipy_spline(support, values)
    tf = spline_bump(support, values)
    points = [float(x) for x in rng.uniform(support.lo, support.hi, 500)]
    points += [float(x) for x in knots] + [support.lo, support.hi]
    for x in points:
        v = float(s(x))
        assert tf.f(x) == v * v
        assert tf.df(x) == 2.0 * v * float(ds(x))


def test_spline_scalar_path_extrapolates_like_scipy():
    support, values = Interval(0.0, 2.0), np.array([1.0, 0.5])
    _, s, ds = _scipy_spline(support, values)
    tf = spline_bump(support, values)
    for x in (-3.0, -1e-300, 0.0, 2.0, 2.5, 1e300, -math.inf, math.inf, math.nan):
        v = float(s(x))
        for got, want in ((tf.f(x), v * v), (tf.df(x), 2.0 * v * float(ds(x)))):
            assert got == want or math.isnan(got) and math.isnan(want), x


def test_bump_rejects_bad_parameters():
    with pytest.raises(InvalidTestFunctionError):
        power_bump(0.0, -1.0)
    with pytest.raises(InvalidTestFunctionError):
        power_bump(0.0, 1.0, 1.0, 0.5)


# ---------------------------------------------------------------------------
# the weighted inequalities


@pytest.fixture(scope="module")
def distance_instance():
    return preset("cor51", M=1.0, p="2", sigma="1", beta=2.0)


def test_caccioppoli_bump_passes(distance_instance):
    phi = power_bump(0.0, 0.6, 1.0, 3.0)
    rep = verify_caccioppoli(distance_instance, phi)
    assert rep.verdict == "pass"
    assert rep.rhs_log.value == 0.0


def test_caccioppoli_zero_function(distance_instance):
    phi = power_bump(0.0, 0.6, 0.0, 3.0)
    rep = verify_caccioppoli(distance_instance, phi)
    assert rep.verdict == "pass"
    assert rep.margin == 0.0


def test_caccioppoli_rejects_tent_for_cubic_exponent():
    inst = preset("cor51", M=1.0, p="3", sigma="1", beta=2.0)
    with pytest.raises(InvalidTestFunctionError):
        verify_caccioppoli(inst, tent(0.0, 0.5))


def test_caccioppoli_rejects_support_touching_boundary(distance_instance):
    with pytest.raises(InvalidTestFunctionError):
        verify_caccioppoli(distance_instance, power_bump(0.0, 1.0, 1.0, 3.0))


def test_hardy_spline_passes(distance_instance):
    rng = np.random.default_rng(5)
    xi = spline_bump(Interval(-0.5, 0.6), rng.uniform(0.3, 1.0, size=3))
    rep = verify_hardy(distance_instance, xi)
    assert rep.verdict == "pass"


def test_hardy_zero_function(distance_instance):
    xi = power_bump(0.0, 0.5, 0.0, 3.0)
    rep = verify_hardy(distance_instance, xi)
    assert rep.verdict == "pass"
    assert rep.lhs.value == 0.0 and rep.rhs_main.value == 0.0


def test_hardy_constant_exponent_log_term_is_exact_zero(distance_instance):
    xi = power_bump(0.1, 0.5, 1.3, 3.0)
    rep = verify_hardy(distance_instance, xi)
    assert rep.rhs_log.value == 0.0
    assert rep.rhs_log.error_bound == 0.0
    assert rep.rhs_log.evaluations == 0


def test_hardy_variable_exponent_has_log_term():
    inst = preset("cor51", M=1.0, p="2-exp(-x^2)", sigma="1", beta=2.0)
    xi = power_bump(0.1, 0.5, 1.3, 3.0)
    rep = verify_hardy(inst, xi)
    assert rep.verdict == "pass"
    assert rep.rhs_log.value > 0.0


def test_scaling_invariance_constant_exponent(distance_instance):
    p = 2.0
    base = power_bump(0.1, 0.5, 1.0, 3.0)
    rep1 = verify_hardy(distance_instance, base, tol=1e-9)
    for c in (0.5, 0.25):
        scaled = power_bump(0.1, 0.5, c, 3.0)
        rep2 = verify_hardy(distance_instance, scaled, tol=1e-9)
        assert rep2.lhs.value == pytest.approx(c ** p * rep1.lhs.value, rel=1e-8)
        assert rep2.rhs_main.value == pytest.approx(c ** p * rep1.rhs_main.value, rel=1e-8)
        assert rep2.verdict == rep1.verdict == "pass"


def test_rhs_weight_factor_decreases_in_beta():
    # ((p-1)/(beta-sigma))^(p-1) falls pointwise as beta grows
    low = preset("cor51", M=1.0, p="2-exp(-x^2)", sigma="1", beta=2.0)
    high = preset("cor51", M=1.0, p="2-exp(-x^2)", sigma="1", beta=3.0)
    _, mu2_low = build_measures(low)
    _, mu2_high = build_measures(high)
    f_low, f_high = density_fn(mu2_low), density_fn(mu2_high)
    for x in Interval(-1, 1).midpoint_grid(64):
        u = 1.0 - abs(x)
        p = 2 - math.exp(-x * x)
        factor_low = f_low(x) / u ** (p - 2.0 - 1.0)
        factor_high = f_high(x) / u ** (p - 3.0 - 1.0)
        assert factor_high < factor_low


def test_batch_distance_preset_all_pass(distance_instance):
    summary = batch_verify(distance_instance, "power_bump", 50, 7, "caccioppoli")
    assert summary.counts["fail"] == 0
    assert summary.counts["pass"] == 50


def test_batch_refuses_inadmissible():
    inst = preset("cor51", M=1.0, p="2", sigma="3", beta=2.0)
    with pytest.raises(InadmissibleInstanceError) as err:
        batch_verify(inst, "power_bump", 5, 7)
    assert "check_admissibility" in str(err.value)


def test_batch_refuses_failed_closed_form_condition():
    # cor64 with the minorant A = 100 passes the three grid conditions and
    # fails only its closed-form condition, which check reports as violated
    inst = preset("cor64", A=100)
    with pytest.raises(InadmissibleInstanceError, match="normalized-power-condition"):
        batch_verify(inst, "power_bump", 2, 7)


def test_batch_empty(distance_instance):
    summary = batch_verify(distance_instance, "power_bump", 0, 7)
    assert summary.counts == {"pass": 0, "fail": 0, "indeterminate": 0}
    assert math.isnan(summary.worst_margin)
    assert summary.witnesses == []


def test_batch_deterministic(distance_instance, monkeypatch):
    real, drawn = verify.verify_hardy, []

    def recording(inst, tf, tol):
        drawn.append(tf.params)
        return real(inst, tf, tol)

    monkeypatch.setattr(verify, "verify_hardy", recording)
    a = batch_verify(distance_instance, "mixed", 8, 13, "hardy")
    b = batch_verify(distance_instance, "mixed", 8, 13, "hardy")
    assert a.counts == b.counts
    assert a.worst_margin == b.worst_margin
    assert len(drawn) == 16 and drawn[:8] == drawn[8:]


def test_batch_domain_error_is_one_indeterminate_case(distance_instance, monkeypatch):
    real = verify.verify_hardy
    calls, margins = [], []

    def second_case_leaves_the_domain(inst, tf, tol):
        calls.append(tf)
        if len(calls) == 2:
            raise EvalDomainError("log of nonpositive value -0.5", 0.25)
        report = real(inst, tf, tol)
        margins.append(report.margin)
        return report

    monkeypatch.setattr(verify, "verify_hardy", second_case_leaves_the_domain)
    summary = batch_verify(distance_instance, "power_bump", 3, 4, "hardy")
    assert len(calls) == 3  # the batch goes on after the error
    assert summary.counts == {"pass": 2, "fail": 0, "indeterminate": 1}
    assert [w["index"] for w in summary.witnesses] == [1]
    witness = summary.witnesses[0]
    assert witness["verdict"] == "indeterminate" and math.isnan(witness["margin"])
    assert witness["error"] == "log of nonpositive value -0.5 at x=0.25"
    assert witness["x"] == 0.25
    assert len(margins) == 2 and summary.worst_margin == min(margins)


class _Passes:
    """Stands in for the quadrature under a verification: every call records
    its tolerances, and a pass is indeterminate until the tolerance drops."""

    def __init__(self, values, calls_per_pass):
        self.values = values
        self.calls_per_pass = calls_per_pass
        self.calls = []

    def __call__(self, *args, tol, tol_abs, **kwargs):
        value = self.values[len(self.calls) % self.calls_per_pass]
        self.calls.append((tol, tol_abs))
        return QuadratureResult(value, 1.0 if tol >= 1e-8 else 1e-6, 1, STATUS_CONVERGED)

    def passes(self):
        return self.calls[:: self.calls_per_pass]


@pytest.mark.parametrize("which", ["hardy", "caccioppoli"])
def test_indeterminate_first_pass_is_retried_once(distance_instance, monkeypatch, which):
    # lhs 2, rhs 3: margin 1 inside the first pass's combined bound 2
    fake = _Passes((2.0, 3.0), 2)
    # a Hardy case integrates through modular only, a Caccioppoli case its
    # left side through modular and its gradient side through integrate
    monkeypatch.setattr(verify, "modular", fake)
    monkeypatch.setattr(verify, "integrate", fake)
    run = verify_hardy if which == "hardy" else verify_caccioppoli
    rep = run(distance_instance, power_bump(0.0, 0.5), tol=1e-8)
    assert fake.passes() == [(1e-8, DEFAULT_TOL_ABS), (1e-8 / 100.0, 3.0 * 1e-8 * 1e-4)]
    assert rep.verdict == "pass"
    assert rep.retried is True


def test_retried_case_counts_the_evaluations_of_both_passes(distance_instance, monkeypatch):
    # every integrand a Hardy case integrates passes through spaces.integrate
    calls = []
    real_integrate = spaces.integrate

    def counting_integrate(f, *args, **kwargs):
        return real_integrate(lambda x: calls.append(x) or f(x), *args, **kwargs)

    monkeypatch.setattr(spaces, "integrate", counting_integrate)
    verdicts = []
    real_verdict = verify._verdict

    def first_pass_indeterminate(*results):
        # odd calls are first passes: each is forced to a retry
        margin, verdict = real_verdict(*results)
        verdicts.append(verdict)
        return (margin, verify.INDETERMINATE) if len(verdicts) % 2 else (margin, verdict)

    monkeypatch.setattr(verify, "_verdict", first_pass_indeterminate)
    summary = batch_verify(distance_instance, "power_bump", count=3, seed=4, which="hardy")
    assert len(verdicts) == 6 and summary.counts["pass"] == 3
    assert summary.evaluations == len(calls)


def test_sharpness_ratio_makes_one_pass(distance_instance, monkeypatch):
    fake = _Passes((2.0, 3.0), 2)
    monkeypatch.setattr(verify, "modular", fake)
    value, _ = sharpness.ratio(distance_instance, power_bump(0.0, 0.5))
    assert value == 1.5
    assert fake.passes() == [(1e-6, DEFAULT_TOL_ABS)]


def _inside_only(tf):
    """``tf`` with evaluation forms that fail when called on or outside the support."""
    lo, hi = tf.support.lo, tf.support.hi

    def guard(fn):
        def checked(x):
            assert np.all((lo < x) & (x < hi)), (tf.kind, x)
            return fn(x)
        return checked

    tf.f, tf.df, tf.f_grid = guard(tf.f), guard(tf.df), guard(tf.f_grid)
    return tf


def test_integrands_call_test_functions_only_inside_their_support(monkeypatch):
    draw = verify.random_test_function
    monkeypatch.setattr(
        verify, "random_test_function", lambda *args: _inside_only(draw(*args))
    )
    for name, scenario in SCENARIOS.items():
        if not name.startswith("cor"):
            continue
        inst = build_instance({"instance": scenario["instance"]})
        for which in verify.BATCH_KINDS:
            summary = batch_verify(inst, "mixed", 2, 3, which=which)
            assert sum(summary.counts.values()) == 2, (name, which)
    value, _ = sharpness.ratio(preset("constp"), _inside_only(sharpness.hardy_cutoff(18.75)))
    assert math.isfinite(value)


def test_divergence_guard_tent_raw_quadrature():
    # forcing the rejected gradient-side integrand through raw quadrature
    # signals a non-integrable singularity
    inst = preset("cor51", M=1.0, p="3", sigma="1", beta=2.0)
    w = tent(0.0, 0.5)
    p = 3.0

    def raw(x):
        return abs(w.df(x)) ** p * w.f(x) ** (1.0 - p)

    r = integrate(raw, w.support, split_at=[0.0], endpoint_singular=(True, True))
    assert r.status == STATUS_DIVERGENT


def test_from_expr_values_and_params():
    xi = from_expr(parse("(x*(1-x))^2"), Interval(0, 1), 2.0)
    assert xi.f(0.5) == pytest.approx(0.0625, rel=1e-15)
    # d/dx (x(1-x))^2 = 2 x (1-x) (1-2x)
    assert xi.df(0.25) == pytest.approx(0.1875, rel=1e-15)
    assert xi.kind == "custom"
    assert xi.support == Interval(0, 1)
    assert xi.edge_exponent == 2.0
    assert xi.params == {"expr": "(x * (1.0 - x)) ^ 2.0"}


def test_from_expr_rejects_negative_expression():
    with pytest.raises(InvalidTestFunctionError):
        from_expr(parse("x - 0.5"), Interval(0, 1), 1.0)


@pytest.mark.parametrize("text, reason", [
    ("log(x - 0.5)", "undefined"),
    ("exp(1000*x)", "unbounded slope"),
])
def test_from_expr_samples_the_expression(text, reason):
    with pytest.raises(InvalidTestFunctionError, match=reason):
        from_expr(parse(text), Interval(0, 1), 1.0)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: power_bump(0.0, 1.0, math.inf), id="bump-inf-height"),
    pytest.param(lambda: power_bump(0.0, 1.0, 1.0, math.inf), id="bump-inf-k"),
    pytest.param(lambda: power_bump(math.nan, 1.0), id="bump-nan-center"),
    pytest.param(lambda: power_bump(1e308, 1e308), id="bump-overflowing-support"),
    pytest.param(lambda: tent(0.0, 1.0, -1.0), id="tent-negative-height"),
    pytest.param(lambda: tent(0.0, 1.0, math.inf), id="tent-inf-height"),
    pytest.param(lambda: tent(0.0, 0.0), id="tent-zero-halfwidth"),
    pytest.param(lambda: tent(0.0, -1.0), id="tent-negative-halfwidth"),
    pytest.param(lambda: tent(1e20, 1.0), id="tent-halfwidth-below-spacing"),
    pytest.param(lambda: spline_bump(Interval(0, 1), [0.5, math.nan]), id="spline-nan-knot"),
    pytest.param(lambda: spline_bump(Interval(0, 1), [math.inf, 0.5]), id="spline-inf-knot"),
    pytest.param(lambda: spline_bump(Interval(0, math.inf), [0.5, 0.9]), id="spline-inf-support"),
])
def test_invalid_parameters_are_rejected(build):
    # each family is nonnegative and Lipschitz for every parameter it accepts
    with pytest.raises(InvalidTestFunctionError):
        build()


def test_from_expr_hardy_passes(distance_instance):
    xi = from_expr(parse("(0.25 - x^2)^2"), Interval(-0.5, 0.5), 2.0)
    rep = verify_hardy(distance_instance, xi)
    assert rep.verdict == "pass"
    assert rep.lhs.value > 0.0


def test_hardy_fail_verdict_on_a_broken_supersolution():
    # phi = 50 breaks the PDI -(|u'|^(p-2) u')' >= phi for u = x (the left
    # side is 0), so the theorem does not apply: this checks the verdict
    # arithmetic, not a counterexample to the inequality
    inst = preset("raw", domain="0, 1", p="2", u="x", phi="50", sigma="0", beta="1")
    rep = verify_hardy(inst, power_bump(0.3, 0.2, 0.5, 3.0))
    assert rep.verdict == "fail"
    assert rep.margin == pytest.approx(-2.54, abs=5e-3)
    assert rep.margin < -rep.combined_error


def test_suspected_divergence_is_indeterminate_whatever_the_margin():
    lhs = QuadratureResult(1.0, 1e-12, 100, STATUS_DIVERGENT)
    rhs = QuadratureResult(1e6, 1e-12, 100, STATUS_CONVERGED)
    zero = QuadratureResult(0.0, 0.0, 0, STATUS_CONVERGED)
    assert verify._verdict(lhs, rhs, zero) == (1e6 - 1.0, "indeterminate")


def test_batch_refuses_a_vacuous_instance_before_drawing(monkeypatch):
    drawn = []
    monkeypatch.setattr(verify, "random_test_function", lambda *a: drawn.append(a))
    inst = preset("cor51", sigma="0")
    with pytest.raises(VacuousInstanceError):
        batch_verify(inst, "mixed", 5, 7)
    assert drawn == []
