import dataclasses
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import beta

from hardylab import quadrature
from hardylab.expr import Interval, const
from hardylab.quadrature import (
    STATUS_CONVERGED,
    ZERO_RESULT,
    STATUS_DIVERGENT,
    STATUS_MAX_DEPTH,
    integrate,
)
from hardylab.spaces import Integrand, VariableExponent, modular
from hardylab.verify import power_bump


def test_constant_on_unit_interval():
    r = integrate(lambda x: 1.0, Interval(0, 1))
    assert r.status == STATUS_CONVERGED
    assert r.value == pytest.approx(1.0, abs=1e-10)
    assert r.error_bound >= 0


def test_gauss_kronrod_bound_covers_the_rounded_weights():
    # the 15-digit Kronrod weights sum to 2 - 6.2e-15, so one panel returns
    # 0.9999999999999969; QUADPACK's floor 50 eps * integral of |f| covers it
    r = integrate(lambda x: 1.0, Interval(0, 1))
    assert r.status == STATUS_CONVERGED
    assert abs(r.value - 1.0) <= r.error_bound


def test_gauss_kronrod_rule_is_symmetric_with_weights_near_two():
    centre, *rows = quadrature._GK15
    assert centre[0] == 0.0 and len(rows) == 14
    for (node, wg, wk), (mirror, mirror_wg, mirror_wk) in zip(rows[::2], rows[1::2]):
        assert node > 0.0 and mirror == -node
        assert (mirror_wg, mirror_wk) == (wg, wk)
    # the 15-digit Kronrod weights sum to 2 - 6.217e-15
    assert abs(sum(wk for _, _, wk in quadrature._GK15) - 2.0) < 6.3e-15


def test_gauss_kronrod_estimate_does_not_overflow_on_a_huge_panel():
    # the Gauss-Kronrod difference exceeds 1e203, where (200 raw)^1.5 overflows
    r = integrate(lambda x: 1e210 * abs(x - 0.3), Interval(0, 1))
    assert r.status == STATUS_CONVERGED
    assert abs(r.value - 2.9e209) <= r.error_bound


@settings(max_examples=300, deadline=None)
@given(
    center=st.floats(0.05, 0.95),
    reach=st.floats(0.01, 0.99),
    height=st.floats(0.1, 10.0),
    p=st.floats(1.1, 6.0),
)
def test_power_bump_modular_meets_its_bound(center, reach, height, p):
    # a bump of the edge exponent random_test_function draws, k = ceil(p) + 1,
    # with its support inside (0, 1), so its ends are Gauss-Kronrod panel
    # ends; the integral of (c (1 - s^2)^k)^p over (m - r, m + r) is
    # c^p r B(1/2, k p + 1).  The integrand is evaluated at abscissae rounded
    # to eps |x|, which moves the integral by up to eps (|m| + r) times the
    # total variation 2 c^p; the quadrature's bound does not cover that.
    r = reach * min(center, 1.0 - center)
    k = math.ceil(p) + 1.0
    xi = power_bump(center, r, height, k)
    vp = VariableExponent(const(p), Interval(0.0, 1.0), p, p)
    result = modular(Integrand(xi.f, xi.support, xi.split_points), vp)
    assert result.status == STATUS_CONVERGED
    exact = height ** p * r * beta(0.5, k * p + 1.0)
    rounding = 2.0 * sys.float_info.epsilon * (center + r) * height ** p
    assert abs(result.value - exact) <= result.error_bound + rounding


def test_inverse_sqrt_flagged_endpoint():
    r = integrate(lambda x: x ** -0.5, Interval(0, 1), endpoint_singular=(True, False))
    assert r.status == STATUS_CONVERGED
    assert r.value == pytest.approx(2.0, abs=1e-9)


def test_tanh_sinh_levels_evaluate_each_node_once():
    xs = []

    def f(x):
        xs.append(x)
        return x ** -0.5

    r = integrate(f, Interval(0, 1), endpoint_singular=(True, False))
    # level 2's first new node (t = 1/8) was reached: three levels ran
    assert 0.5 * quadrature._tanh_sinh_nodes(0.125)[0] in xs
    assert len(xs) == len(set(xs)) == r.evaluations
    assert r.status == STATUS_CONVERGED
    assert abs(r.value - 2.0) <= r.error_bound


def _value(f, x):
    # an integrand that overflows counts as +inf
    try:
        return f(x)
    except OverflowError:
        return math.inf


def _tanh_sinh_every_level_afresh(f, a, b, left_singular, right_singular, tol_rel, tol_abs):
    """Reference: the tanh-sinh rule evaluating every node of every level
    again, with nodes and weights computed per node.  The bound's floor sums
    |w * f| over every node any level reached, at the last level's scale."""
    half = 0.5 * (b - a)
    trunc = max(1e-3 * tol_abs, 1e-280)
    prev = None
    value = 0.0
    err = math.inf
    terms = {}  # w * f by (side, t), the centre's under (0, 0.0)

    def bounded(status):
        mass = math.fsum(abs(term) for term in terms.values())
        floor = max(4.0 * trunc, quadrature._GK_FLOOR * contrib_scale * mass) if mass else 0.0
        return value, max(err if math.isfinite(err) else abs(value), floor), status

    for level in range(10):
        h = 0.5 ** (level + 1)
        contrib_scale = h * half
        total = 0.0
        fx0 = _value(f, a + half)
        if not math.isfinite(fx0):
            return fx0, abs(fx0), STATUS_DIVERGENT
        terms[0, 0.0] = quadrature._tanh_sinh_nodes(0.0)[1] * fx0
        total += terms[0, 0.0]
        for side in (-1, +1):
            flagged = left_singular if side < 0 else right_singular
            partial = 0.0
            small_streak = 0
            marks, mark_terms = [], []
            next_mark = 0.5
            wall_hit = False
            k = 1
            while k * h <= quadrature._T_MAX:
                t = k * h
                delta, w = quadrature._tanh_sinh_nodes(t)
                x = a + half * delta if side < 0 else b - half * delta
                if x <= a or x >= b:
                    wall_hit = small_streak == 0
                    break
                if w == 0.0:
                    break
                fx = _value(f, x)
                if not math.isfinite(fx):
                    if flagged:
                        return math.inf, math.inf, STATUS_DIVERGENT
                    return fx, abs(fx), STATUS_DIVERGENT
                term = w * fx
                partial += term
                terms[side, t] = term
                if level == 0 and flagged:
                    while next_mark <= 4.5 and t >= next_mark - 1e-12:
                        marks.append(abs(partial))
                        mark_terms.append(abs(term))
                        next_mark += 0.5
                if t >= 2.0 and abs(term) * contrib_scale < trunc:
                    small_streak += 1
                    if small_streak >= 3:
                        break
                else:
                    small_streak = 0
                k += 1
            total += partial
            if level == 0 and flagged and len(marks) >= 2:
                ratios = [
                    marks[i + 1] / marks[i] if marks[i] > 0 else 0.0
                    for i in range(len(marks) - 1)
                ]
                diverging = len(ratios) >= 8 and all(r >= 2.0 for r in ratios[:8])
                growing = mark_terms[-1] >= 1.6 * mark_terms[-2] > 0.0
                diverging = diverging or (wall_hit and (ratios[-1] >= 2.0 or growing))
                if diverging:
                    v = total * contrib_scale
                    return v, abs(v), STATUS_DIVERGENT
        value = total * contrib_scale
        if not math.isfinite(value):
            return value, abs(value), STATUS_DIVERGENT
        if prev is not None:
            err = abs(value - prev)
            if err <= max(tol_abs, tol_rel * abs(value)):
                return bounded(STATUS_CONVERGED)
        prev = value
    return bounded(STATUS_MAX_DEPTH)


@pytest.mark.parametrize(
    "f, a, b, left, right",
    [
        (lambda x: x ** -0.5, 0.0, 1.0, True, False),
        (lambda x: math.log(x), 0.0, 1.0, True, False),
        (lambda x: x ** -1.5, 0.0, 1.0, True, False),
        (lambda x: (1.0 - x) ** -0.3 * math.cos(7.0 * x), 0.0, 1.0, False, True),
        (lambda x: abs(x - 0.37) ** 1.5, 0.0, 1.0, True, True),
        (lambda x: x ** -0.999, 1e-20, 1.0, True, False),
        (lambda x: math.exp(-x) * x ** 2.5, 0.5, 3.0, True, True),
        (lambda x: x ** (-1.0 - x / 2.0), 0.0, 1.0, True, False),
    ],
)
@pytest.mark.parametrize("tol", [1e-8, 1e-12])
def test_tanh_sinh_matches_the_rule_that_evaluates_every_level_afresh(f, a, b, left, right, tol):
    value, err, evals, status = quadrature._tanh_sinh(f, a, b, left, right, tol, 1e-12)
    assert (value, err, status) == _tanh_sinh_every_level_afresh(f, a, b, left, right, tol, 1e-12)


def test_exponential_tail_on_half_line():
    r = integrate(lambda x: math.exp(-x), Interval(0, math.inf))
    assert r.status == STATUS_CONVERGED
    assert r.value == pytest.approx(1.0, abs=1e-9)


def test_tanh_sinh_bound_covers_the_roundoff_of_an_exponential_tail():
    # the value is 2.3e-14 from 1/lam, beyond the last two levels' difference
    # of 1.4e-14; QUADPACK's floor 50 eps * the integral of |f| covers it
    lam = 0.015606312758709223
    r = integrate(lambda x: math.exp(-lam * x), Interval(0, math.inf))
    assert (r.value, r.status) == (64.07663459403264, STATUS_CONVERGED)
    with mpmath.workdps(40):
        assert abs(r.value - 1 / mpmath.mpf(lam)) <= r.error_bound < 1e-12


def test_tanh_sinh_bound_is_inf_where_the_sum_of_term_sizes_overflows():
    # the signed sum stays finite, the sum of |w * f| does not: no bound
    value, err, _, _ = quadrature._tanh_sinh(
        lambda x: 1e307 * math.cos(50.0 * x), 0.0, 1.0, False, False, 1e-8, 1e-12)
    assert math.isfinite(value) and err == math.inf


def _exponential_tail_within_bound(lam, lo, tol, flagged):
    r = integrate(lambda x: math.exp(-lam * x), Interval(lo, math.inf),
                  endpoint_singular=(flagged, False), tol=tol)
    with mpmath.workdps(40):
        exact = mpmath.exp(-mpmath.mpf(lam) * lo) / lam
        return r.status != STATUS_CONVERGED or abs(r.value - exact) <= r.error_bound


# Derandomized: about 1 draw in 2,000 misses its bound, where two tanh-sinh
# levels agree by chance (pinned below), so a random run would fail now and then.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    lam=st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e),
    lo=st.one_of(st.just(0.0), st.floats(0.0, 5.0, exclude_min=True, exclude_max=True)),
    tol=st.sampled_from([1e-8, 1e-6, 1e-4]),
    flagged=st.booleans(),
)
def test_converged_exponential_tail_lies_within_its_bound(lam, lo, tol, flagged):
    assert _exponential_tail_within_bound(lam, lo, tol, flagged)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: two tanh-sinh levels agree by chance")
@pytest.mark.parametrize("lam, lo, tol", [
    (2.714231065338951, 0.0, 1e-4),  # 0.36841639217639455 +- 5.2e-7, off by 1.2e-5
    (0.485401283898208, 0.0, 1e-6),  # 2.0601508009865315 +- 1.6e-7, off by 3.2e-7
    (79.04041594516109, 0.19234380999830325, 1e-8),  # 3.16e-9 +- 9.4e-13, off by 2.7e-12
])
def test_exponential_tail_where_the_level_difference_underestimates(lam, lo, tol):
    assert _exponential_tail_within_bound(lam, lo, tol, False)


def test_nonintegrable_power_is_divergent_suspected():
    # edge behavior t^(1-p) with p = 3
    p = 3.0
    r = integrate(lambda x: x ** (1.0 - p), Interval(0, 1), endpoint_singular=(True, False))
    assert r.status == STATUS_DIVERGENT


def test_divergence_without_overflow_uses_doubling_marks():
    # x^(-1.5) grows slowly enough that terms stay finite at level 0
    r = integrate(lambda x: x ** -1.5, Interval(0, 1), endpoint_singular=(True, False))
    assert r.status == STATUS_DIVERGENT


@pytest.mark.parametrize(
    "f, diverges",
    [
        (lambda x: 1.0 / x, True),
        (lambda x: x ** (-1.0 - 0.5 * x), True),  # |x^-0.5|^(x+2)
        (lambda x: 2.0 + 1.0 / x, True),
        (lambda x: x ** -0.99, False),  # integrable: 100
        (lambda x: x ** -0.9, False),
        (lambda x: -math.log(x) / math.sqrt(x), False),
    ],
)
def test_logarithmic_divergence_is_divergent_suspected(f, diverges):
    r = integrate(f, Interval(0, 1), endpoint_singular=(True, False))
    assert (r.status == STATUS_DIVERGENT) is diverges


def _level0_terms(terms):
    # a side's terms at level 0: one per half unit of t, by finest-mesh index
    return {(k + 1) << quadrature._MAX_LEVEL: term for k, term in enumerate(terms)}


DOUBLING = (1.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)  # sums 1, 2, ..., 256
# terms that grow by e^0.5 per mark, as those of 1/x at 0: the sums never double
LOG_GROWTH = tuple(math.exp(0.5 * k) for k in range(9))


@pytest.mark.parametrize(
    "terms, wall_hit, diverging",
    [
        (DOUBLING, False, True),  # eight doublings
        (DOUBLING + (1e9,), False, True),  # only the marks up to t = 4.5 count
        (DOUBLING[:8], False, False),  # seven doublings, then the side ended
        (DOUBLING[:8] + (0.0,), False, False),  # seven doublings, then flat
        (DOUBLING[:8] + (0.0,), True, False),  # flat when the wall is hit
        ((1.0, 1.0, 2.0), True, True),  # still doubling at the wall
        ((1.0, 1.0, 2.0), False, False),  # three marks without the wall
        ((1.0, 1.0, 1.0), True, False),  # last ratio 1.5 at the wall
        ((5.0,), True, False),  # a single mark has no ratio
        ((0.0,) + DOUBLING[:8], False, False),  # a zero mark's ratio reads 0
        ((0.0, 1.0), True, False),
        (LOG_GROWTH, True, True),  # terms still growing by e^0.5 at the wall
        (LOG_GROWTH, False, False),  # the wall is what makes the growth count
        (LOG_GROWTH[:5] + (LOG_GROWTH[4],), True, False),  # flat last term at the wall
        ((1.0, 1.0, 1.0, 1.6), True, True),  # last term 1.6 times the one before
        ((1.0, 1.0, 1.0, 1.59), True, False),  # sums 3 -> 4.59 and terms x1.59
        ((2.0, 3.0, 4.4, 4.0), True, False),  # growth turned down, as for x^-0.99
        ((-1.0, -1.0, -1.0, -1.6), True, True),  # a negative integrand's terms
    ],
)
def test_diverging_rule(terms, wall_hit, diverging):
    assert quadrature._diverging(_level0_terms(terms), wall_hit) is diverging


@pytest.mark.parametrize(
    "interval, split_at, flags, singular_splits, panels",
    [
        ((0, 3), [2.0, 1.0], (True, True), [],
         [(0.0, 1.0, True, False), (1.0, 2.0, False, False), (2.0, 3.0, False, True)]),
        ((-1, 1), [0.5], (False, False), [0.5 * (1 + 5e-13)],
         [(-1.0, 0.5, False, True), (0.5, 1.0, True, False)]),
        ((-1, 1), [0.5], (False, False), [0.5 * (1 + 1e-11)],
         [(-1.0, 0.5, False, False), (0.5, 1.0, False, False)]),
        ((0, 1), [math.inf, -math.inf, math.nan, 0.0, 1.0, 0.5], (True, False), [],
         [(0.0, 0.5, True, False), (0.5, 1.0, False, False)]),
        ((-math.inf, math.inf), [], (False, False), [], [(0.0, 1.0, False, True)] * 2),
        ((-math.inf, math.inf), [], (True, True), [0.0], [(0.0, 1.0, True, True)] * 2),
    ],
)
def test_panel_ends_are_flagged_from_one_set(interval, split_at, flags, singular_splits, panels):
    built = quadrature._build_panels(lambda x: x, Interval(*interval), split_at, flags, singular_splits)
    assert [panel[1:] for panel in built] == panels
    if math.isinf(interval[0]):
        # the doubly infinite domain splits at 0: x = -+t/(1-t), dx = dt/(1-t)^2
        assert [panel[0](0.5) for panel in built] == [-4.0, 4.0]


def test_log_singularity_integrable():
    r = integrate(lambda x: math.log(x), Interval(0, 1), endpoint_singular=(True, False))
    assert r.status == STATUS_CONVERGED
    assert r.value == pytest.approx(-1.0, abs=1e-9)


def test_interior_splits_map_through_infinite_transform():
    r = integrate(lambda x: math.exp(-x), Interval(0, math.inf), split_at=[2.0, 5.0])
    assert r.status == STATUS_CONVERGED
    assert r.value == pytest.approx(1.0, abs=1e-9)


def test_doubly_infinite_domain():
    r = integrate(lambda x: math.exp(-x * x), Interval(-math.inf, math.inf))
    assert r.status == STATUS_CONVERGED
    assert r.value == pytest.approx(math.sqrt(math.pi), rel=1e-9)


def test_left_infinite_domain():
    r = integrate(lambda x: math.exp(x), Interval(-math.inf, 0))
    assert r.value == pytest.approx(1.0, abs=1e-9)


def test_wide_dynamic_range_panel():
    a = 1e-20
    r = integrate(lambda x: x ** -0.999, Interval(a, 1.0), endpoint_singular=(True, False))
    exact = (1 - a ** 0.001) / 0.001
    assert r.status == STATUS_CONVERGED
    assert r.value == pytest.approx(exact, rel=1e-8)


def test_interior_singular_split_flagging():
    r = integrate(
        lambda x: abs(x) ** -0.5,
        Interval(-1, 1),
        split_at=[0.0],
        singular_splits=[0.0],
    )
    assert r.status == STATUS_CONVERGED
    assert r.value == pytest.approx(4.0, abs=1e-8)


def test_unflagged_singularity_reports_max_depth_with_honest_bound():
    r = integrate(lambda x: abs(x) ** -0.5, Interval(-1, 1), split_at=[0.0])
    assert r.status == STATUS_MAX_DEPTH
    assert abs(r.value - 4.0) <= r.error_bound


def test_converged_error_bound_meets_requested_tolerance():
    for tol in (1e-6, 1e-8, 1e-10):
        r = integrate(lambda x: math.sin(3 * x) + 2, Interval(0, 2), tol=tol, tol_abs=1e-13)
        assert r.status == STATUS_CONVERGED
        assert r.error_bound <= max(1e-13, tol * abs(r.value))


def test_nonnegative_integrand_never_below_minus_error():
    rng = np.random.default_rng(5)
    for _ in range(20):
        c = rng.uniform(0.1, 3.0, size=3)
        f = lambda x, c=c: c[0] * math.exp(-c[1] * x * x) + c[2] * x * x
        r = integrate(f, Interval(-1, 2), split_at=[0.3])
        assert r.value >= -r.error_bound


def _random_smooth(rng):
    a, b, c, d, e = rng.uniform(-2, 2, size=5)
    w = rng.uniform(0.5, 4.0)

    def f(x):
        return a * math.sin(w * x + b) + c * x * x / (1.0 + x * x) + d * math.exp(-0.5 * x * x) + e

    def f_vec(x):
        return a * np.sin(w * x + b) + c * x * x / (1.0 + x * x) + d * np.exp(-0.5 * x * x) + e

    return f, f_vec


def test_additivity_over_adjacent_intervals():
    rng = np.random.default_rng(42)
    for _ in range(50):
        f, _ = _random_smooth(rng)
        a, b, c = sorted(rng.uniform(-3, 3, size=3))
        if b - a < 1e-3 or c - b < 1e-3:
            continue
        whole = integrate(f, Interval(a, c))
        left = integrate(f, Interval(a, b))
        right = integrate(f, Interval(b, c))
        combined_err = 2 * (whole.error_bound + left.error_bound + right.error_bound)
        assert abs(whole.value - (left.value + right.value)) <= combined_err + 1e-13


def _richardson_simpson(f_vec, a, b, n=1_000_000):
    """Reference value: composite Simpson at n and n/2 panels, extrapolated."""
    def simpson(m):
        xs = np.linspace(a, b, m + 1)
        ys = f_vec(xs)
        h = (b - a) / m
        return h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-2:2].sum())

    s1 = simpson(n // 2)
    s2 = simpson(n)
    return s2 + (s2 - s1) / 15.0


def test_against_high_order_reference():
    rng = np.random.default_rng(99)
    for _ in range(50):
        f, f_vec = _random_smooth(rng)
        a = float(rng.uniform(-2, 0))
        b = float(rng.uniform(0.5, 2.5))
        ref = _richardson_simpson(f_vec, a, b, n=100_000)
        r = integrate(f, Interval(a, b))
        assert abs(r.value - ref) <= max(1e-8, r.error_bound)


def test_determinism():
    f = lambda x: math.sin(x) * x ** -0.25
    r1 = integrate(f, Interval(0, 2), endpoint_singular=(True, False))
    r2 = integrate(f, Interval(0, 2), endpoint_singular=(True, False))
    assert (r1.value, r1.error_bound, r1.evaluations, r1.status) == (
        r2.value,
        r2.error_bound,
        r2.evaluations,
        r2.status,
    )


def test_invalid_tolerance_rejected():
    with pytest.raises(ValueError):
        integrate(lambda x: 1.0, Interval(0, 1), tol=0.0)


def test_single_pass_reports_every_evaluation(monkeypatch):
    # the two panels converge, but their values cancel, so the summed error
    # bound cannot meet tol_abs = 1e-300: one pass, then max-depth
    panel_calls = []
    real_gk = quadrature._adaptive_gk

    def counting_gk(*args):
        panel_calls.append(args[1:3])
        return real_gk(*args)

    evaluations = []

    def f(x):
        evaluations.append(x)
        return x

    monkeypatch.setattr(quadrature, "_adaptive_gk", counting_gk)
    r = integrate(f, Interval(-1, 1), split_at=[0.0], tol_abs=1e-300)
    assert panel_calls == [(-1.0, 0.0), (0.0, 1.0)]
    assert r.evaluations == len(evaluations) == 30
    assert r.status == STATUS_MAX_DEPTH


def test_a_result_is_frozen():
    # ZERO_RESULT is one instance, shared by every report without a log term
    with pytest.raises(dataclasses.FrozenInstanceError):
        ZERO_RESULT.value = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        integrate(lambda x: x, Interval(0, 1)).status = STATUS_DIVERGENT
