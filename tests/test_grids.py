"""Sampling grids are evaluated as arrays: ``expr.eval_grid`` against the
scalar closures, the array scans against the loops they replaced, and a
guard that the grids make (almost) no scalar calls."""

import math
from bisect import bisect_right

import numpy as np
import pytest
from scipy.optimize import brentq

from hardylab import expr, instance, spaces, verify
from hardylab.errors import EvalDomainError
from hardylab.expr import Expr, Interval, compile_fn, eval_grid, golden_min, parse
from hardylab.instance import ADMISSIBILITY_GRID, check_admissibility, preset
from hardylab.sharpness import hardy_cutoff

# ---------------------------------------------------------------------------
# the scalar loops the array code replaced, kept as references


def _fn_zeros_loop(fn, xs):
    seen, suspected, vals = [], [], []
    for x in xs:
        try:
            vals.append(fn(x))
        except EvalDomainError:
            vals.append(math.nan)
    graze_candidates = []
    for i in range(len(xs) - 1):
        a, b = vals[i], vals[i + 1]
        if math.isnan(a) or math.isnan(b):
            continue
        if a == 0.0:
            if not (i > 0 and vals[i - 1] == 0.0 and b == 0.0):  # not inside a run
                seen.append(xs[i])
        elif a * b < 0.0:
            try:
                seen.append(float(brentq(fn, xs[i], xs[i + 1], xtol=1e-14, rtol=8.9e-16)))
            except (ValueError, EvalDomainError):
                suspected.append(0.5 * (xs[i] + xs[i + 1]))
        elif 0 < i and not math.isnan(vals[i - 1]) and abs(vals[i - 1]) > abs(a) <= abs(b):
            graze_candidates.append((abs(a), i))
    if vals and vals[-1] == 0.0:
        seen.append(xs[-1])
    graze_candidates.sort()
    for _, i in graze_candidates[:32]:
        local = abs(vals[i - 1]) + abs(vals[i + 1])
        x_min, f_min = golden_min(lambda x: abs(fn(x)), xs[i - 1], xs[i + 1], 40)
        if f_min <= 1e-9 * (1.0 + local):
            (seen if f_min == 0.0 else suspected).append(x_min)
    return seen, suspected


def _sample_loop(e, pts):
    fn = compile_fn(e)
    xs, vs = [], []
    for x in pts:
        try:
            v = fn(x)
        except EvalDomainError:
            continue
        if not math.isnan(v):
            xs.append(x)
            vs.append(v)
    skipped = len(pts) - len(vs)
    if skipped > 0.2 * len(pts):
        return [], [], skipped
    return xs, vs, skipped


def _scalar_values(e, xs):
    fn = compile_fn(e)
    out = []
    for x in xs:
        try:
            out.append(fn(float(x)))
        except EvalDomainError:
            out.append(math.nan)
    return np.array(out)


def _assert_close(got, want, ulps):
    """Equal NaN and inf positions, finite values within ``ulps`` units in
    the last place of ``want``."""
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    got, want = got[ok], want[ok]
    assert np.array_equal(np.isinf(got), np.isinf(want))
    assert np.array_equal(got[np.isinf(want)], want[np.isinf(want)])
    finite = np.isfinite(want)
    gap = np.abs(got[finite] - want[finite])
    assert np.all(gap <= ulps * np.spacing(np.abs(want[finite])))


# ---------------------------------------------------------------------------
# eval_grid against compile_fn

_POINTS = np.concatenate([
    np.random.default_rng(5).uniform(-2.0, 2.0, 400),
    [0.0, -0.0, 0.25, 0.5, -0.5, 1.0, -1.0, 2.0, 0.7, 0.72, 3.0],
])

# every node kind, every domain error, and NaN that is not a domain error
_EXACT = (
    "0.75", "x", "x + 0.75", "x - 0.3", "x * 1.1", "-x", "abs(x - 0.25)",
    "sgn(x - 0.25)", "min(x, 0.25)", "max(x, 0.5 - x)",
    "(x + 1) / (x - 0.5)",          # division by zero at 0.5
    "1 / (x * x - 0.25)",
    "sgn(1 / (x - 0.5))",           # a domain error below sgn
)
_ROUNDED = (
    "exp(3*x)", "exp(1000*x)",      # overflows to inf
    "log(x)", "log(x - 1)",         # log of a nonpositive value
    "x ^ 2.5", "x ^ 3", "(-2) ^ x",  # negative base with a fractional exponent
    "x ^ (-1.5)",                   # 0 raised to a negative power
    "(0-2) ^ exp(1000*x)",          # negative base to an infinite power
    "(0-2) ^ (exp(1000*x) - exp(1000*x))",  # ... and to a NaN power
    "(x + 3) ^ x", "exp(-x^2) * log(abs(x))",
    "min(log(x), 1)", "max(2, x ^ 0.5)",
    "sgn(exp(1000*x) - exp(1000*x))",   # sgn(NaN) = 0, not an error
    "max(exp(1000*x) - exp(1000*x), 1)",
    "min(1, exp(1000*x) - exp(1000*x))",
)


@pytest.mark.parametrize("text", _EXACT)
def test_eval_grid_equals_closure_for_exact_operations(text):
    e = parse(text)
    _assert_close(eval_grid(e, _POINTS), _scalar_values(e, _POINTS), 0)


@pytest.mark.parametrize("text", _ROUNDED)
def test_eval_grid_within_4_ulp_of_closure(text):
    e = parse(text)
    _assert_close(eval_grid(e, _POINTS), _scalar_values(e, _POINTS), 4)


# inf, NaN, signed zeros, the smallest subnormal, whole and fractional values
_SPECIAL = np.array([
    -math.inf, -1e300, -2.5, -2.0, -1.0, -0.5, -0.0, 0.0, 5e-324,
    0.5, 1.0, 2.0, 3.0, 1e300, math.inf, math.nan,
])


@pytest.mark.parametrize("kind", sorted(expr._KINDS))
def test_domain_mask_marks_exactly_where_the_scalar_code_raises(kind):
    # the first argument runs over the points, the second over the constants
    row = expr._KINDS[kind]
    binary = "{b}" in row.statement
    for c in _SPECIAL.tolist() if binary else [None]:
        e = Expr(kind, (expr.X, expr.const(c)) if binary else (expr.X,))
        b = np.full(_SPECIAL.shape, c) if binary else _SPECIAL
        with np.errstate(all="ignore"):
            mask = np.zeros(_SPECIAL.shape, bool) if row.domain is None else row.domain(_SPECIAL, b)
        fn = compile_fn(e)
        for x, masked in zip(_SPECIAL.tolist(), mask.tolist()):
            try:
                fn(x)
                raised = False
            except EvalDomainError:
                raised = True
            assert raised == masked, (kind, x, c)
        assert np.isnan(eval_grid(e, _SPECIAL)[mask]).all()


def test_eval_grid_domain_errors_are_nan():
    got = eval_grid(parse("log(x) + 1/(x - 0.5)"), [-1.0, 0.0, 0.5, 2.0])
    assert np.isnan(got[:3]).all() and got[3] == pytest.approx(math.log(2.0) + 1 / 1.5)


# ---------------------------------------------------------------------------
# the array scans against the loops


def _piecewise_linear(xs, vals):
    xs, vals = list(xs), list(vals)

    def fn(x):
        j = min(max(bisect_right(xs, x) - 1, 0), len(xs) - 2)
        if x == xs[j]:
            return vals[j]
        if x == xs[j + 1]:
            return vals[j + 1]
        t = (x - xs[j]) / (xs[j + 1] - xs[j])
        return vals[j] + t * (vals[j + 1] - vals[j])

    return fn


@pytest.mark.parametrize("seed", range(6))
def test_fn_zeros_equals_loop_on_random_values(seed):
    rng = np.random.default_rng(seed)
    n = 300
    xs = np.sort(rng.uniform(-1.0, 1.0, n))
    vals = rng.normal(size=n) + rng.choice([-3.0, 3.0], size=n) * (rng.random(n) < 0.3)
    vals[rng.random(n) < 0.08] = math.nan
    vals[rng.random(n) < 0.05] = 0.0
    # grazes: dips toward zero with no sign change, some deep, some shallow
    for i in rng.choice(np.arange(2, n - 2), size=12, replace=False):
        depth = 10.0 ** rng.uniform(-14, -2)
        vals[i - 1 : i + 2] = np.array([1.0, depth, 1.0]) * rng.choice([-1.0, 1.0])
    # runs of exact zeros, which may reach the last sample
    for start in rng.choice(np.arange(n - 2), size=3, replace=False):
        vals[start : start + rng.integers(2, 9)] = 0.0
    fn = _piecewise_linear(xs, vals)
    assert expr._fn_zeros(fn, xs, vals) == _fn_zeros_loop(fn, xs.tolist())


def test_fn_zeros_keeps_the_32_deepest_dips():
    xs = np.linspace(0.0, 1.0, 201)
    vals = np.ones_like(xs)
    vals[2:-2:4] = 10.0 ** -np.linspace(3, 15, len(vals[2:-2:4]))  # 50 dips
    fn = _piecewise_linear(xs, vals)
    seen, suspected = expr._fn_zeros(fn, xs, vals)
    assert (seen, suspected) == _fn_zeros_loop(fn, xs.tolist())
    assert len(suspected) <= 32


@pytest.mark.parametrize("text", [
    "x - 0.3", "log(x) + 0.5", "1/(x - 0.25) + x^2.5", "exp(1000*x) - exp(1000*x)",
    "(x - 0.5)^0.5",
])
def test_sample_equals_loop(text):
    e = parse(text)
    pts = np.sort(np.random.default_rng(3).uniform(-0.5, 1.5, 2000))
    pts[100] = 0.25
    xs, vs, skipped = instance._sample(e, pts)
    ref_xs, ref_vs, ref_skipped = _sample_loop(e, pts.tolist())
    assert skipped == ref_skipped
    assert xs.tolist() == ref_xs
    _assert_close(vs, np.array(ref_vs), 4)


# ---------------------------------------------------------------------------
# test-function grid forms against their scalar forms


@pytest.mark.parametrize("build, ulps", [
    (lambda: verify.power_bump(0.2, 0.3, 1.5, 4.0), 4),
    (lambda: verify.tent(-0.1, 0.4, 2.0), 0),
    (lambda: verify.spline_bump(Interval(-0.3, 0.5), [0.4, 1.1, 0.7]), 0),
    (lambda: verify.from_expr(parse("(x*(1-x))^2"), Interval(0, 1), 2.0), 4),
    (lambda: hardy_cutoff(5.0), 0),
])
def test_grid_forms_match_scalar_forms(build, ulps):
    # both forms are called only strictly inside the support
    tf = build()
    splits = [x for x in tf.split_points if tf.support.contains(x)]
    xs = np.concatenate([tf.support.midpoint_array(997), splits])
    _assert_close(tf.f_grid(xs), np.array([tf.f(float(x)) for x in xs]), ulps)


# ---------------------------------------------------------------------------
# guard: grids make no scalar calls beyond refinement


def _count_closure_calls(monkeypatch, modules, only=None):
    """Count calls of the closures ``compile_fn`` hands to ``modules`` (of
    the one for ``only`` when given)."""
    calls = []
    real = expr.compile_fn

    def counting(e):
        fn = real(e)
        if only is not None and e != only:
            return fn

        def wrapped(x):
            calls.append(x)
            return fn(x)

        return wrapped

    for module in modules:
        monkeypatch.setattr(module, "compile_fn", counting)
    return calls


def test_admissibility_grid_makes_few_scalar_calls(monkeypatch):
    inst = preset("cor51", M=1.0, p="2", sigma="1", beta=2.0)
    calls = _count_closure_calls(monkeypatch, (expr, instance))
    report = check_admissibility(inst)
    assert report.admissible
    assert len(calls) < 0.05 * ADMISSIBILITY_GRID


def test_exponent_grid_makes_few_scalar_calls(monkeypatch):
    p = parse("x+2")
    calls = _count_closure_calls(monkeypatch, (spaces,), only=p)
    vp = spaces.validate_exponent(p, Interval(0, 1))
    assert vp.p_minus == pytest.approx(2.0) and vp.p_plus == pytest.approx(3.0)
    assert len(calls) < 0.05 * expr.SCAN_GRID  # the golden-section refinement


def test_test_function_validation_makes_no_scalar_calls(monkeypatch):
    calls = []

    class Counting(verify.TestFunction):
        # counts every scalar call made on the test function once it is built
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            for name in ("f", "df"):
                real = getattr(self, name)

                def counting(x, real=real):
                    calls.append(x)
                    return real(x)

                setattr(self, name, counting)

    monkeypatch.setattr(verify, "TestFunction", Counting)
    verify.power_bump(0.0, 0.5, 1.0, 3.0)
    verify.spline_bump(Interval(0, 1), [0.5, 0.9])
    assert len(calls) < 0.05 * verify.TEST_GRID
