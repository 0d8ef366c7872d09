"""Empirical sharpness: the ratio RHS/LHS along one extremal sequence.

``hardy_cutoff(w)``, ``x^(1/2+EPS)`` on a plateau ``w`` decades wide,
approaches the classical extremal ``x^(1/2)`` as ``w`` grows.
:func:`scan` evaluates the ratio at each width in :data:`WIDTHS` and
extrapolates it to infinite width; for the classical Hardy inequality the
limit is the optimal constant 1.  Nothing is random or adaptive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError, VacuousInstanceError
from .expr import Interval
from .instance import HardyInstance, build_measures
from .quadrature import DEFAULT_TOL_ABS, STATUS_DIVERGENT
from .verify import INDETERMINATE, TestFunction, _require_support_inside, _run_hardy

EPS = 1e-8
# quadrature tolerance of each ratio; the limit's error is mostly extrapolation gap
TOL = 1e-6
# plateau widths in decades; at 400 the left integral overflows
WIDTHS = (18.75, 37.5, 75.0, 150.0)
# no verdict is drawn from a limit error above this
MAX_LIMIT_ERROR = 1e-3

SHARP = "sharp"
NOT_SHARP = "not-sharp"


def _extrapolation_weights(widths) -> tuple:
    """Richardson weights c_i: sum(c_i r_i) is the value at 1/w = 0 of the
    polynomial in 1/w through the ratios r_i at these widths."""
    return tuple(math.prod(wi / (wi - wj) for wj in widths if wj != wi) for wi in widths)


# through all four widths and the three narrowest; their gap is the first's error
_WEIGHTS = _extrapolation_weights(WIDTHS)
_WEIGHTS_LOWER = _extrapolation_weights(WIDTHS[:3])


def _ramp(t: float) -> tuple[float, float]:
    # rational smoothstep with edge exponent 2 at t = 0, and its slope
    s = 1.0 - t
    d = t * t + s * s
    return t * t / d, 2.0 * t * s / (d * d)


def hardy_cutoff(width: float) -> TestFunction:
    """Near-extremal member for the inverse-square-weight scenario:
    x^(1/2+EPS) times a cutoff with plateau [10^(-width/2), 10^(width/2)].

    The cutoff ramps up over [inner/2, inner], equals 1 on [inner, outer],
    and ramps down over [outer, 2 outer] with edge exponent 2; classical
    extremals are not compactly supported, so the plateau width is what the
    scan stretches.  The width must be positive with ``2 outer`` finite,
    which holds up to a width of about 615.9.
    """
    try:
        outer = 10.0 ** (0.5 * width)
    except OverflowError:
        outer = math.inf
    if not (width > 0.0 and math.isfinite(2.0 * outer)):
        raise InvalidParamsError(
            f"width must be positive with 2*10^(width/2) finite, got {width!r}"
        )
    inner = 10.0 ** (-0.5 * width)
    q = 0.5 + EPS

    def zeta(x):
        # the cutoff and its slope, strictly inside the support
        if x < inner:
            z, dz = _ramp((x - 0.5 * inner) / (0.5 * inner))
            return z, dz / (0.5 * inner)
        if x <= outer:
            return 1.0, 0.0
        z, dz = _ramp((2.0 * outer - x) / outer)
        return z, -dz / outer

    def f(x):
        return x ** q * zeta(x)[0]

    def df(x):
        z, dz = zeta(x)
        return q * x ** (q - 1.0) * z + x ** q * dz

    return TestFunction(
        "hardy-cutoff", Interval(0.5 * inner, 2.0 * outer), 2.0, {"width": width},
        f, df, np.vectorize(f, otypes=[float]), split_points=(inner, outer),
    )


def _require_ratio_inputs(inst: HardyInstance, xi: TestFunction):
    if inst.vacuous:
        raise VacuousInstanceError("instance has an identically-zero left weight")
    _require_support_inside(xi, inst.domain)


def ratio(inst: HardyInstance, xi: TestFunction) -> tuple[float, float]:
    """(rhs_main + rhs_log) / lhs for one test function, whose support must
    lie strictly inside the domain, and a bound on its quadrature error.

    The instance is vacuous when its closed-form condition is the zero
    constant, which is decided before any integral, or when the left side
    cannot be distinguished from zero.  The ratio is NaN with an infinite
    bound when an integral is suspected divergent."""
    _require_ratio_inputs(inst, xi)
    mu1, mu2 = build_measures(inst)
    rep = _run_hardy(inst, xi, mu1, mu2, TOL, DEFAULT_TOL_ABS)
    lhs, rhs = rep.lhs, rep.rhs_main.value + rep.rhs_log.value
    if STATUS_DIVERGENT in (lhs.status, rep.rhs_main.status, rep.rhs_log.status):
        return math.nan, math.inf
    if lhs.value <= lhs.error_bound:
        raise VacuousInstanceError(
            f"left side {lhs.value!r} is within its error bound"
        )
    value = rhs / lhs.value
    # the worst case of (rhs + e_rhs) / (lhs - e_lhs) against rhs / lhs
    error = (rep.rhs_main.error_bound + rep.rhs_log.error_bound + value * lhs.error_bound) / (
        lhs.value - lhs.error_bound
    )
    return value, error


@dataclass
class TraceEntry:
    width: float
    ratio: float
    error_bound: float


@dataclass
class ScanResult:
    trace: list  # one TraceEntry per width, in the order of WIDTHS
    limit: float
    limit_error: float
    verdict: str  # SHARP, NOT_SHARP or INDETERMINATE

    @property
    def best_ratio(self) -> float:
        """The smallest sampled ratio that is not NaN; NaN when all are."""
        return min((e.ratio for e in self.trace if not math.isnan(e.ratio)), default=math.nan)


def scan(inst: HardyInstance) -> ScanResult:
    """The ratio at every width in WIDTHS and its limit, extrapolated with
    the polynomial in ``1/w`` through all of them (Richardson).

    The limit's error is its gap to the extrapolant through the three
    narrowest widths, plus each ratio's quadrature bound times the absolute
    extrapolation weight.  The verdict is ``sharp`` when the limit is 1
    within that error, else ``not-sharp``: this sequence, not every one,
    misses 1.  It is ``indeterminate`` when the error exceeds
    :data:`MAX_LIMIT_ERROR` or a ratio rests on a suspected divergence.
    """
    members = [hardy_cutoff(w) for w in WIDTHS]
    # the widest support holds every other, so one check comes before any evaluation
    _require_ratio_inputs(inst, members[-1])
    trace = [TraceEntry(w, *ratio(inst, xi)) for w, xi in zip(WIDTHS, members)]
    ratios = [entry.ratio for entry in trace]
    limit = sum(c * r for c, r in zip(_WEIGHTS, ratios))
    lower = sum(c * r for c, r in zip(_WEIGHTS_LOWER, ratios))
    limit_error = abs(limit - lower) + sum(
        abs(c) * entry.error_bound for c, entry in zip(_WEIGHTS, trace)
    )
    if not (math.isfinite(limit) and limit_error <= MAX_LIMIT_ERROR):
        verdict = INDETERMINATE
    elif abs(limit - 1.0) <= limit_error:
        verdict = SHARP
    else:
        verdict = NOT_SHARP
    return ScanResult(trace, limit, limit_error, verdict)
