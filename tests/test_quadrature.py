import dataclasses
import math

import numpy as np
import pytest

from hardylab import quadrature
from hardylab.expr import Interval
from hardylab.quadrature import (
    STATUS_CONVERGED,
    ZERO_RESULT,
    STATUS_DIVERGENT,
    STATUS_MAX_DEPTH,
    integrate,
)


def test_constant_on_unit_interval():
    r = integrate(lambda x: 1.0, Interval(0, 1))
    assert r.status == STATUS_CONVERGED
    assert r.value == pytest.approx(1.0, abs=1e-10)
    assert r.error_bound >= 0


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
    again, with nodes and weights computed per node."""
    half = 0.5 * (b - a)
    trunc = max(1e-3 * tol_abs, 1e-280)
    prev = None
    value = 0.0
    err = math.inf
    saw_nonzero = False
    for level in range(10):
        h = 0.5 ** (level + 1)
        contrib_scale = h * half
        total = 0.0
        fx0 = _value(f, a + half)
        if not math.isfinite(fx0):
            return fx0, abs(fx0), STATUS_DIVERGENT
        total += quadrature._tanh_sinh_nodes(0.0)[1] * fx0
        saw_nonzero = saw_nonzero or fx0 != 0.0
        for side in (-1, +1):
            flagged = left_singular if side < 0 else right_singular
            partial = 0.0
            small_streak = 0
            marks = []
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
                saw_nonzero = saw_nonzero or term != 0.0
                if level == 0 and flagged:
                    while next_mark <= 4.5 and t >= next_mark - 1e-12:
                        marks.append(abs(partial))
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
                diverging = diverging or (wall_hit and ratios[-1] >= 2.0)
                if diverging:
                    v = total * contrib_scale
                    return v, abs(v), STATUS_DIVERGENT
        value = total * contrib_scale
        if not math.isfinite(value):
            return value, abs(value), STATUS_DIVERGENT
        floor = 4.0 * trunc if saw_nonzero else 0.0
        if prev is not None:
            err = abs(value - prev)
            if err <= max(tol_abs, tol_rel * abs(value)):
                return value, max(err, floor), STATUS_CONVERGED
        prev = value
    floor = 4.0 * trunc if saw_nonzero else 0.0
    return value, max(err if math.isfinite(err) else abs(value), floor), STATUS_MAX_DEPTH


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


def test_nonintegrable_power_is_divergent_suspected():
    # edge behavior t^(1-p) with p = 3
    p = 3.0
    r = integrate(lambda x: x ** (1.0 - p), Interval(0, 1), endpoint_singular=(True, False))
    assert r.status == STATUS_DIVERGENT


def test_divergence_without_overflow_uses_doubling_marks():
    # x^(-1.5) grows slowly enough that terms stay finite at level 0
    r = integrate(lambda x: x ** -1.5, Interval(0, 1), endpoint_singular=(True, False))
    assert r.status == STATUS_DIVERGENT


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
