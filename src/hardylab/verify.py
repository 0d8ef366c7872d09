"""Numerical verification of the weighted inequalities.

Each left side is a ``spaces.modular`` of the test function against mu1 (at
the exponent 1 for Caccioppoli), and mu1, mu2 and mu3 come from ``instance``.
The verdict accounts for the quadrature error bounds, and an indeterminate
first pass is retried once at a hundredfold tighter tolerance.
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
    _bracketed_zeros,
    compile_fn,
    compile_integrand,
    const,
    differentiate,
    eval_grid,
    singular_points,
    to_string,
)
from .instance import INDETERMINATE, HardyInstance, build_measures, check_admissibility, log_measure
from .quadrature import (
    DEFAULT_TOL,
    DEFAULT_TOL_ABS,
    STATUS_DIVERGENT,
    QuadratureResult,
    ZERO_RESULT,
    integrate,
)
from .spaces import Integrand, VariableExponent, modular

PASS = "pass"
FAIL = "fail"

# Midpoint samples across a test function's support, for checking the
# expression given to from_expr and for locating where a function crosses 1.
TEST_GRID = 512


@dataclass
class TestFunction:
    """Compactly supported Lipschitz function with an explicit derivative.

    ``edge_exponent`` is the decay rate at the support boundary; it controls
    which inequalities the function is admissible for.  ``f`` and ``df`` are
    the scalar forms of the function and its derivative, and ``f_grid`` takes
    a float array of points; all three are called only strictly inside the
    support.  The built-in families are nonnegative and Lipschitz for every
    parameter their constructors accept, so only :func:`from_expr` samples
    its function.
    """

    kind: str
    support: Interval
    edge_exponent: float
    params: dict
    f: callable = field(repr=False)
    df: callable = field(repr=False)
    f_grid: callable = field(repr=False)
    split_points: tuple = ()


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
    # The scalar forms equal ``v * v`` and ``2.0 * v * dv`` for ``v =
    # float(spline(x))`` and ``dv = float(spline.derivative()(x))`` bit for
    # bit: one search finds the interval (half-open, the last one closed, ends
    # extrapolated) of both, which share their knots, and the power sums run
    # from the constant term up, without SciPy's per-call array overhead.
    knots = spline.x.tolist()
    last = len(knots) - 2
    # per interval, the coefficients from the constant term up; the
    # derivative's are those PPoly.derivative computes, with factors 1, 2, 3
    coeffs = [tuple(row[::-1]) for row in spline.c.T.tolist()]
    dcoeffs = [(c1, 2.0 * c2, 3.0 * c3) for _, c1, c2, c3 in coeffs]

    def f(x):
        i = bisect_right(knots, x, 1, last + 1) - 1
        s = x - knots[i]
        c0, c1, c2, c3 = coeffs[i]
        z2 = s * s
        v = 0.0 + c0 + c1 * s + c2 * z2 + c3 * (z2 * s)
        return v * v

    def df(x):
        i = bisect_right(knots, x, 1, last + 1) - 1
        s = x - knots[i]
        c0, c1, c2, c3 = coeffs[i]
        d0, d1, d2 = dcoeffs[i]
        z2 = s * s
        v = 0.0 + c0 + c1 * s + c2 * z2 + c3 * (z2 * s)
        return 2.0 * v * (0.0 + d0 + d1 * s + d2 * z2)

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
    # t log t vanishes again at t = 1; |t log t|^p has a kink wherever tf
    # crosses 1, so those crossings become quadrature splits (a touch of 1
    # leaves it smooth)
    xs = tf.support.midpoint_array(TEST_GRID)
    crossings, _ = _bracketed_zeros(lambda x: tf.f(x) - 1.0, xs, tf.f_grid(xs) - 1.0)
    return Integrand(tf.f, tf.support, tuple(sorted({*tf.split_points, *crossings})), tlogt=True)


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


# |phi'|^p phi^(1-p) times the right weight; {0} to {4} are p, u, u', beta and
# sigma.  Where phi or phi' vanishes, below the resolution of the edge, the
# limit is 0 under the edge-exponent hypothesis.  Log space: |phi'|^p and
# phi^(1-p) under/overflow near the edge while their product is tame, and
# (p-1) log(p-1) takes its limit value 0 where p touches 1.
_CACCIOPPOLI_RHS = """\
dv = df(x)
pv = {0}
phiv = f(x)
if phiv <= 0.0 or dv == 0.0:
    return 0.0
uv = {1}
if not uv > 0.0:
    return 0.0
if {2} == 0.0:
    return 0.0
beta = {3}
bs = beta - {4}
if bs <= 0.0:
    return inf
lp1 = (pv - 1.0) * log(pv - 1.0) if pv > 1.0 else 0.0
log_total = (lp1 - pv * log(pv) - (pv - 1.0) * log(bs) + (pv - beta - 1.0) * log(uv)
             + pv * log(abs(dv)) + (1.0 - pv) * log(phiv))
if log_total < -700.0:
    return 0.0
if log_total > 700.0:
    return inf
return exp(log_total)
"""


def _caccioppoli_integrand(inst, phi):
    """The gradient-side Caccioppoli integrand, generated around phi's scalar forms."""
    trees = (inst.vp.p, inst.u, inst.u_prime, const(inst.beta), inst.sigma)
    return compile_integrand(_CACCIOPPOLI_RHS, trees)(phi.f, phi.df)


def _run_caccioppoli(inst, phi, mu1, tol, tol_abs):
    # the left side is the modular of phi >= 0 at the exponent 1 against mu1
    lhs = modular(Integrand(phi.f, phi.support, phi.split_points),
                  VariableExponent(const(1.0), inst.domain, 1.0, 1.0), mu=mu1, tol=tol, tol_abs=tol_abs)
    rhs = integrate(_caccioppoli_integrand(inst, phi), phi.support,
                    split_at=sorted({*mu1.split_points, *phi.split_points}),
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


def _run_hardy(inst, xi, mu1, mu2, tol, tol_abs):
    lhs = modular(Integrand(xi.f, xi.support, xi.split_points), inst.vp, mu=mu1,
                  tol=tol, tol_abs=tol_abs)
    rhs_main = modular(Integrand(xi.df, xi.support, xi.split_points), inst.vp, mu=mu2,
                       tol=tol, tol_abs=tol_abs)
    mu3 = log_measure(inst)
    rhs_log = ZERO_RESULT if mu3 is None else modular(
        _tlogt_view(xi), inst.vp, mu=mu3, tol=tol, tol_abs=tol_abs)
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
    margins = []
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
        margins.append(record["margin"])
        if record["verdict"] != PASS:
            witnesses.append(record)
    worst = min((margin for margin in margins if not math.isnan(margin)), default=math.nan)
    return BatchSummary(family, counts, worst, witnesses, evaluations)
