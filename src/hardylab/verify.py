"""Numerical verification of the weighted inequalities.

A verification compares one weighted integral of a test function against one
or two weighted integrals of its derivative; the verdict accounts for the
quadrature error bounds, and an indeterminate first pass is retried once at
a hundredfold tighter tolerance before reporting.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import (
    EvalDomainError,
    InadmissibleInstanceError,
    InvalidParamsError,
    InvalidTestFunctionError,
    VacuousInstanceError,
)
from .expr import (
    Expr,
    Interval,
    _fn_zeros,
    abs_,
    compile_fn,
    differentiate,
    div,
    eval_grid,
    mul,
    pow_,
    singular_points,
    to_string,
)
from .instance import HardyInstance, WeightedMeasure, build_measures, check_admissibility
from .quadrature import (
    DEFAULT_TOL,
    DEFAULT_TOL_ABS,
    STATUS_DIVERGENT,
    QuadratureResult,
    ZERO_RESULT,
    integrate,
)
from .spaces import Integrand, modular

PASS = "pass"
FAIL = "fail"
INDETERMINATE = "indeterminate"

# Midpoint samples across a test function's support, for checking the
# expression given to from_expr and for locating where a function crosses 1.
TEST_GRID = 512


@dataclass
class TestFunction:
    """Compactly supported Lipschitz function with an explicit derivative.

    ``edge_exponent`` is the decay rate at the support boundary; it controls
    which inequalities the function is admissible for.  The function
    evaluates to exactly 0 outside its support.  ``_f`` and ``_df`` are the
    scalar forms that integrands call; ``_f_grid`` takes a float array of
    points inside the support, for sampling grids.  The built-in families
    are nonnegative and Lipschitz for every parameter their constructors
    accept, so only :func:`from_expr` samples its function.
    """

    kind: str
    support: Interval
    edge_exponent: float
    params: dict
    _f: callable = field(repr=False)
    _df: callable = field(repr=False)
    _f_grid: callable = field(repr=False)
    split_points: tuple = ()

    def __call__(self, x: float) -> float:
        if not self.support.lo < x < self.support.hi:
            return 0.0
        return self._f(x)

    def derivative(self, x: float) -> float:
        if not self.support.lo < x < self.support.hi:
            return 0.0
        return self._df(x)

    def grid(self, xs: np.ndarray) -> np.ndarray:
        """The function at every point of ``xs``, as one array."""
        out = np.zeros(len(xs))
        inside = (self.support.lo < xs) & (xs < self.support.hi)
        out[inside] = self._f_grid(xs[inside])
        return out


def _support(kind: str, m: float, r: float) -> Interval:
    """(m - r, m + r), which must be bounded and nonempty: this rejects a
    non-finite m or r, r <= 0, and ends that round together or overflow."""
    lo, hi = m - r, m + r
    if not (lo < hi and math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidTestFunctionError(
            f"{kind} needs a finite center and halfwidth > 0, got support ({lo}, {hi})"
        )
    return Interval(lo, hi)


def power_bump(center: float, halfwidth: float, height: float = 1.0, k: float = 3.0) -> TestFunction:
    """height * (1 - ((x-center)/halfwidth)^2)_+^k, edge exponent k."""
    m, r, c = float(center), float(halfwidth), float(height)
    support = _support("power bump", m, r)
    if not (0 <= c < math.inf and 1 <= k < math.inf):
        raise InvalidTestFunctionError("power bump needs a finite height >= 0 and a finite k >= 1")

    def f(x):
        s = (x - m) / r
        return c * (1.0 - s * s) ** k

    def df(x):
        s = (x - m) / r
        return c * k * (1.0 - s * s) ** (k - 1.0) * (-2.0 * s / r)

    # f is written with operators that act on arrays as they do on floats,
    # so it serves the grids too
    return TestFunction(
        "power-bump", support, k,
        {"center": m, "halfwidth": r, "height": c, "k": k},
        f, df, f, split_points=(m,),
    )


def tent(center: float, halfwidth: float, height: float = 1.0) -> TestFunction:
    """Piecewise-linear hat; edge exponent 1."""
    m, r, c = float(center), float(halfwidth), float(height)
    support = _support("tent", m, r)
    if not 0 <= c < math.inf:
        raise InvalidTestFunctionError("tent needs a finite height >= 0")

    def f(x):
        return c * (1.0 - abs(x - m) / r)

    def df(x):
        return -c / r if x > m else (c / r if x < m else 0.0)

    return TestFunction(
        "tent", support, 1.0,
        {"center": m, "halfwidth": r, "height": c},
        f, df, f, split_points=(m,),
    )


def _ppoly_fn(pp):
    """Scalar evaluation of a SciPy ``PPoly``, equal to ``float(pp(x))`` bit
    for bit: the same interval (half-open, the last one closed, ends
    extrapolated) and the same power-sum order, without SciPy's per-call
    array overhead."""
    knots = pp.x.tolist()
    last = len(knots) - 2
    # per interval, the coefficients from the constant term up
    coeffs = [row[::-1] for row in pp.c.T.tolist()]

    def ev(x):
        i = min(max(bisect_right(knots, x) - 1, 0), last)
        s = x - knots[i]
        res = 0.0
        z = 1.0
        for c in coeffs[i]:
            res += c * z
            z *= s
        return res

    return ev


def spline_bump(support: Interval, knot_values) -> TestFunction:
    """Square of a clamped cubic spline through random interior knots.

    Squaring keeps the function nonnegative and C^1 with edge exponent 4
    (value and slope both vanish at the support boundary).  SciPy builds the
    coefficients and evaluates the grids; the scalar evaluation gives the
    same values.
    """
    values = np.asarray(knot_values, dtype=float)
    if not (support.finite and np.isfinite(values).all()):
        raise InvalidTestFunctionError("spline bump needs a finite support and finite knot values")
    n = len(values)
    xs = np.linspace(support.lo, support.hi, n + 2)
    ys = np.concatenate([[0.0], values, [0.0]])
    spline = CubicSpline(xs, ys, bc_type="clamped")
    s = _ppoly_fn(spline)
    ds = _ppoly_fn(spline.derivative())

    def f(x):
        v = s(x)
        return v * v

    def df(x):
        return 2.0 * s(x) * ds(x)

    def f_grid(xs):
        v = spline(xs)
        return v * v

    return TestFunction(
        "spline-bump", support, 4.0,
        {"support": [support.lo, support.hi], "knot_values": values.tolist()},
        f, df, f_grid, split_points=tuple(float(x) for x in xs[1:-1]),
    )


def from_expr(e: Expr, support: Interval, edge_exponent: float) -> TestFunction:
    """A test function from an expression, with its derivative and split
    points worked out symbolically.  The expression comes from outside the
    program, so it is sampled at ``TEST_GRID`` midpoints of the support,
    which must be compact: it must be defined and nonnegative there, with a
    finite slope."""
    if not support.finite:
        raise InvalidTestFunctionError("support must be compact")
    de = differentiate(e)
    xs = support.midpoint_array(TEST_GRID)
    vals = eval_grid(e, xs)
    if np.isnan(vals).any():
        raise InvalidTestFunctionError("expression is undefined inside its support")
    if (vals < 0).any():
        raise InvalidTestFunctionError("expression takes negative values")
    if not np.isfinite(eval_grid(de, xs)).all():
        raise InvalidTestFunctionError("expression has unbounded slope")
    return TestFunction(
        "custom", support, float(edge_exponent),
        {"expr": to_string(e)},
        compile_fn(e), compile_fn(de), partial(eval_grid, e),
        split_points=tuple(singular_points(e, support)),
    )


@dataclass
class VerificationReport:
    lhs: QuadratureResult
    rhs_main: QuadratureResult
    rhs_log: QuadratureResult
    margin: float
    verdict: str
    retried: bool = False
    # integrand calls behind the report, a retried case's first pass included
    evaluations: int = field(init=False)

    def __post_init__(self):
        self.evaluations = self.lhs.evaluations + self.rhs_main.evaluations + self.rhs_log.evaluations

    @property
    def combined_error(self) -> float:
        return self.lhs.error_bound + self.rhs_main.error_bound + self.rhs_log.error_bound


def _verdict(lhs, rhs_main, rhs_log):
    # max-depth results keep honest error bounds and enter the margin
    # comparison; a suspected divergence makes the values untrustworthy
    margin = (rhs_main.value + rhs_log.value) - lhs.value
    cb = lhs.error_bound + rhs_main.error_bound + rhs_log.error_bound
    if STATUS_DIVERGENT in (lhs.status, rhs_main.status, rhs_log.status):
        return margin, INDETERMINATE
    if margin > cb or (margin == 0.0 and cb == 0.0):
        return margin, PASS
    if margin < -cb:
        return margin, FAIL
    return margin, INDETERMINATE


# ---------------------------------------------------------------------------
# the two weighted inequalities


def _require_support_inside(tf: TestFunction, domain: Interval):
    if not (domain.lo < tf.support.lo and tf.support.hi < domain.hi):
        raise InvalidTestFunctionError(
            "test function support must lie strictly inside the domain"
        )


def _tlogt_view(tf: TestFunction) -> Integrand:
    def g(x):
        v = tf(x)
        if v <= 0.0:
            return 0.0  # t log t extended by 0 at t = 0
        return v * math.log(v)

    # t log t vanishes again at t = 1; |g|^p has a kink wherever tf crosses
    # 1, so those crossings become quadrature splits
    xs = tf.support.midpoint_array(TEST_GRID)
    crossings, _ = _fn_zeros(lambda x: tf(x) - 1.0, xs, tf.grid(xs) - 1.0)
    return Integrand(g, tf.support, tuple(sorted(set(tf.split_points) | set(crossings))))


def _with_retry(run, tol: float) -> VerificationReport:
    """One pass of ``run(tol, tol_abs)``; an indeterminate verdict is rerun
    once at a hundredfold tighter tolerance, with the absolute floor scaled
    to the problem's magnitude.  The rerun's report counts the evaluations
    of both passes."""
    first = run(tol, DEFAULT_TOL_ABS)
    if first.verdict != INDETERMINATE:
        return first
    scale = max(abs(first.lhs.value), abs(first.rhs_main.value), abs(first.rhs_log.value), 1e-300)
    rep = run(tol / 100.0, max(scale * tol * 1e-4, 1e-300))
    rep.retried = True
    rep.evaluations += first.evaluations
    return rep


def verify_caccioppoli(inst: HardyInstance, phi: TestFunction, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Compare the instance's left weight integrated against ``phi`` with the
    gradient-side integral of |phi'|^p phi^(1-p).

    Requires edge exponent strictly above p_plus - 1 so the right side is
    integrable at the support boundary; violating functions are rejected.
    """
    if phi.edge_exponent <= inst.vp.p_plus - 1.0:
        raise InvalidTestFunctionError(
            f"edge exponent {phi.edge_exponent} must exceed p_plus - 1 = "
            f"{inst.vp.p_plus - 1.0}"
        )
    _require_support_inside(phi, inst.domain)
    mu1, _ = build_measures(inst)
    return _with_retry(partial(_run_caccioppoli, inst, phi, mu1), tol)


def _run_caccioppoli(inst, phi, mu1, tol, tol_abs):
    p_fn = compile_fn(inst.vp.p)
    dens1 = mu1.density_fn()
    sigma_fn = compile_fn(inst.sigma)
    u_fn = compile_fn(inst.u)
    up_fn = compile_fn(inst.u_prime)
    beta = inst.beta

    lo = max(inst.domain.lo, phi.support.lo)
    hi = min(inst.domain.hi, phi.support.hi)
    splits = sorted(set(mu1.split_points) | set(phi.split_points))

    def lhs_integrand(x):
        v = phi(x)
        if v == 0.0:
            return 0.0
        d = dens1(x)
        return 0.0 if d == 0.0 else d * v

    def rhs_integrand(x):
        dv = phi.derivative(x)
        pv = p_fn(x)
        phiv = phi(x)
        if phiv <= 0.0 or dv == 0.0:
            # below floating-point resolution of the edge; the limit is 0
            # whenever the edge-exponent hypothesis holds
            return 0.0
        uv = u_fn(x)
        if not uv > 0.0 or up_fn(x) == 0.0:
            return 0.0
        bs = beta - sigma_fn(x)
        if bs <= 0.0:
            return math.inf
        # assembled in log space: |phi'|^p and phi^(1-p) individually
        # under/overflow near the support edge while their product is tame;
        # (p-1) log(p-1) takes its limit value 0 where p touches 1
        lp1 = (pv - 1.0) * math.log(pv - 1.0) if pv > 1.0 else 0.0
        log_total = (
            lp1
            - pv * math.log(pv)
            - (pv - 1.0) * math.log(bs)
            + (pv - beta - 1.0) * math.log(uv)
            + pv * math.log(abs(dv))
            + (1.0 - pv) * math.log(phiv)
        )
        if log_total < -700.0:
            return 0.0
        if log_total > 700.0:
            return math.inf
        return math.exp(log_total)

    lhs = integrate(lhs_integrand, Interval(lo, hi), split_at=splits,
                    endpoint_singular=(True, True), tol=tol, tol_abs=tol_abs)
    rhs = integrate(rhs_integrand, Interval(lo, hi), split_at=splits,
                    endpoint_singular=(True, True), tol=tol, tol_abs=tol_abs)
    margin, verdict = _verdict(lhs, rhs, ZERO_RESULT)
    return VerificationReport(lhs, rhs, ZERO_RESULT, margin, verdict)


def verify_hardy(inst: HardyInstance, xi: TestFunction, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Compare the modular of ``xi`` against the derivative modular plus the
    |xi log xi| correction carrying the exponent's derivative.

    The correction vanishes identically for a constant exponent and is then
    reported as an exact zero."""
    _require_support_inside(xi, inst.domain)
    mu1, mu2 = build_measures(inst)
    return _with_retry(partial(_run_hardy, inst, xi, mu1, mu2), tol)


def _log_weight_measure(inst, mu2):
    p, dp = inst.vp.p, inst.p_prime
    weight = pow_(div(abs_(dp), p), p)
    return WeightedMeasure(
        density=mul(weight, mu2.density),
        split_points=mu2.split_points,
        indicators=mu2.indicators,
    )


def _run_hardy(inst, xi, mu1, mu2, tol, tol_abs):
    lhs = modular(xi, inst.vp, mu=mu1, tol=tol, tol_abs=tol_abs)
    rhs_main = modular(
        Integrand(xi.derivative, xi.support, xi.split_points), inst.vp, mu=mu2,
        tol=tol, tol_abs=tol_abs,
    )
    if inst.p_prime.kind == "const" and inst.p_prime.value == 0.0:
        rhs_log = ZERO_RESULT
    else:
        rhs_log = modular(
            _tlogt_view(xi), inst.vp, mu=_log_weight_measure(inst, mu2),
            tol=tol, tol_abs=tol_abs,
        )
    margin, verdict = _verdict(lhs, rhs_main, rhs_log)
    return VerificationReport(lhs, rhs_main, rhs_log, margin, verdict)


# ---------------------------------------------------------------------------
# batch verification


@dataclass
class BatchSummary:
    family: str  # the family the test functions were drawn from
    counts: dict
    worst_margin: float
    witnesses: list
    evaluations: int
    cases: list = field(default_factory=list)


def _support_window(domain: Interval) -> Interval:
    w = domain.window(8.0)
    span = w.hi - w.lo
    return Interval(w.lo + 0.04 * span, w.hi - 0.04 * span)


FAMILIES = ("power_bump", "spline", "mixed")
BATCH_KINDS = ("hardy", "caccioppoli")


def random_test_function(inst: HardyInstance, rng, family: str = "power_bump") -> TestFunction:
    """Draw one test function for the instance; deterministic given rng state."""
    win = _support_window(inst.domain)
    span = win.hi - win.lo
    kind = family
    if family == "mixed":
        kind = "power_bump" if rng.random() < 0.5 else "spline"
    if kind == "power_bump":
        r = float(rng.uniform(0.05, 0.25) * span / 2)
        m = float(rng.uniform(win.lo + r, win.hi - r))
        c = float(rng.uniform(0.5, 2.0))
        k = float(math.ceil(inst.vp.p_plus) + 1)
        return power_bump(m, r, c, k)
    if kind == "spline":
        r = float(rng.uniform(0.08, 0.3) * span / 2)
        m = float(rng.uniform(win.lo + r, win.hi - r))
        n = int(rng.integers(2, 5))
        values = rng.uniform(0.2, 1.2, size=n)
        return spline_bump(Interval(m - r, m + r), values)
    raise InvalidTestFunctionError(f"unknown family {family!r}")


def batch_verify(
    inst: HardyInstance,
    family: str = "power_bump",
    count: int = 50,
    seed: int = 0,
    which: str = "hardy",
    tol: float = DEFAULT_TOL,
) -> BatchSummary:
    """Run ``count`` seeded verifications of one inequality over a family.

    Refuses to run unless every condition of the instance's admissibility
    report, the one ``hardylab check`` prints, holds, and refuses a vacuous
    instance (a left weight that vanishes identically); the verdict counts,
    the worst margin, and replayable witnesses for every non-pass case are
    collected.  A case whose integrands leave the real domain is
    indeterminate with a NaN margin, and its witness carries the error."""
    if which not in BATCH_KINDS:
        raise InvalidParamsError(f"which must be one of {BATCH_KINDS}, got {which!r}")
    if family not in FAMILIES:
        raise InvalidParamsError(f"family must be one of {FAMILIES}, got {family!r}")
    if not isinstance(count, int) or count < 0:
        raise InvalidParamsError(f"count must be a nonnegative integer, got {count!r}")
    report = check_admissibility(inst)
    if not report.admissible:
        bad = [c.name for c in report.conditions if not c.holds]
        raise InadmissibleInstanceError(f"instance fails {bad}; run check_admissibility for details")
    if inst.vacuous:
        raise VacuousInstanceError("instance has an identically-zero left weight")
    rng = np.random.default_rng(seed)
    if which == "caccioppoli":
        # the gradient-side integrand needs edge exponent above p_plus - 1,
        # which only the power bumps guarantee for every exponent
        family = "power_bump"
    tfs = [random_test_function(inst, rng, family) for _ in range(count)]
    runner = verify_caccioppoli if which == "caccioppoli" else verify_hardy

    counts = {PASS: 0, FAIL: 0, INDETERMINATE: 0}
    witnesses = []
    cases = []
    evaluations = 0
    for index, tf in enumerate(tfs):
        record = {"index": index, "kind": tf.kind, "params": tf.params}
        try:
            rep = runner(inst, tf, tol)
        except EvalDomainError as err:
            record.update(verdict=INDETERMINATE, margin=math.nan, error=str(err), x=err.x)
        else:
            record.update(verdict=rep.verdict, margin=rep.margin)
            evaluations += rep.evaluations
        counts[record["verdict"]] += 1
        cases.append(record)
        if record["verdict"] != PASS:
            witnesses.append(record)
    margins = [case["margin"] for case in cases if not math.isnan(case["margin"])]
    return BatchSummary(family, counts, min(margins, default=math.nan), witnesses, evaluations, cases)
