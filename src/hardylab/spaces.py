"""Variable-exponent Lebesgue functionals: the modular and the Luxemburg norm.

An exponent is validated against the admissible class (values strictly above
1, bounded above, with the local integrability of ``p^p(x)`` and ``|p'|^p(x)``
probed on one compact subset of the domain).  Extremal exponent values are
located by grid sampling plus a golden-section refinement pass, so the
reported bounds are numerical, not certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from .errors import (
    EvalDomainError,
    ExponentRangeError,
    IntegrabilityProbeError,
    NoFiniteBracketError,
)
from .expr import (
    SCAN_GRID, Expr, Interval, abs_, compile_fn, compile_integrand, differentiate, eval_grid,
    golden_min, pow_, singular_points,
)
from .quadrature import (
    DEFAULT_TOL,
    DEFAULT_TOL_ABS,
    STATUS_DIVERGENT,
    ZERO_RESULT,
    QuadratureResult,
    integrate,
)

P_LOWER_MARGIN = 1e-9
P_UPPER_CAP = 1e6
# The exponent's integrability is probed on the points farther than
# 1/EXHAUSTION from the finite boundary and inside (-EXHAUSTION, EXHAUSTION).
EXHAUSTION = 64


@dataclass(frozen=True)
class Integrand:
    """A function to integrate, zero outside ``support``, with the interior
    points where it is not smooth.  ``fn`` is called only strictly inside
    the support, so it need not decide where it vanishes.  With ``tlogt``
    the function is ``t log t`` of fn's value ``t``, extended by 0 for
    ``t <= 0``."""

    fn: Callable[[float], float]
    support: Interval
    split_points: tuple = ()
    tlogt: bool = False


@dataclass(frozen=True)
class VariableExponent:
    p: Expr
    domain: Interval
    p_minus: float
    p_plus: float
    split_points: tuple = ()

    @property
    def numerical(self) -> bool:
        """The extrema are sampled on a grid, not proven: the exponent is
        not a constant."""
        return self.p.kind != "const"


def validate_exponent(p: Expr, domain: Interval) -> VariableExponent:
    """Check that ``p`` stays in (1, infinity) on ``SCAN_GRID`` samples and return
    the exponent with its sampled extrema.

    The out-of-range decision is made from the base grid samples; the
    refinement pass only sharpens the reported extrema (they carry a
    numerical caveat and may creep toward 1 at isolated interior points).
    """
    fn = compile_fn(p)
    xs = domain.midpoint_array(SCAN_GRID)
    vals = eval_grid(p, xs)
    bad = ~np.isfinite(vals)
    if bad.any():
        # the first offending sample, evaluated again for the closure's message
        x = float(xs[np.argmax(bad)])
        try:
            fn(x)
        except EvalDomainError as err:
            raise ExponentRangeError(f"exponent not evaluable at x={x!r}: {err}") from err
        raise ExponentRangeError(f"exponent non-finite at x={x!r}")
    lo_idx, hi_idx = int(np.argmin(vals)), int(np.argmax(vals))
    lo_val, hi_val = float(vals[lo_idx]), float(vals[hi_idx])
    if lo_val <= 1.0 + P_LOWER_MARGIN:
        raise ExponentRangeError(
            f"sampled exponent {lo_val!r} at x={float(xs[lo_idx])!r} is not above 1"
        )
    if hi_val > P_UPPER_CAP:
        raise ExponentRangeError(
            f"sampled exponent {hi_val!r} at x={float(xs[hi_idx])!r} looks unbounded"
        )

    if p.kind == "const":
        vp = VariableExponent(p, domain, p.value, p.value)
        _probe_integrability(vp)
        return vp

    p_minus, p_plus = lo_val, hi_val
    window = domain.window()
    for maximize, idx in ((False, lo_idx), (True, hi_idx)):
        cell_lo = float(xs[idx - 1]) if idx > 0 else window.lo
        cell_hi = float(xs[idx + 1]) if idx + 1 < len(xs) else window.hi
        if cell_lo < cell_hi:
            sign = -1.0 if maximize else 1.0
            _, best = golden_min(lambda x: sign * fn(x), cell_lo, cell_hi, 48)
            if math.isfinite(best):
                if maximize:
                    p_plus = max(p_plus, -best)
                else:
                    p_minus = min(p_minus, best)
    if p_plus > P_UPPER_CAP:
        raise ExponentRangeError(f"refined exponent {p_plus!r} looks unbounded")

    splits = tuple(singular_points(p, domain))
    vp = VariableExponent(p, domain, p_minus, p_plus, split_points=splits)
    _probe_integrability(vp)
    return vp


def _probe_integrability(vp: VariableExponent) -> None:
    """Require finite ``p^p`` and ``|p'|^p`` integrals on the compact set
    ``compact_exhaustion(EXHAUSTION)``.  Both are nonnegative and the sets
    of an exhaustion are nested, so this widest set decides for the
    narrower ones too."""
    sub = vp.domain.compact_exhaustion(EXHAUSTION)
    if sub is None:
        return
    dp = differentiate(vp.p)
    for probe in (pow_(vp.p, vp.p), pow_(abs_(dp), vp.p)):
        try:
            r = integrate(
                compile_fn(probe), sub,
                split_at=vp.split_points,
                tol=1e-6, tol_abs=1e-9,
            )
        except EvalDomainError as err:
            raise IntegrabilityProbeError(
                f"probe not evaluable on ({sub.lo}, {sub.hi}): {err}"
            ) from err
        if not math.isfinite(r.value) or r.status == STATUS_DIVERGENT:
            raise IntegrabilityProbeError(
                f"integrability probe failed on ({sub.lo}, {sub.hi})"
            )


@dataclass
class WeightedMeasure:
    """Density against Lebesgue measure, restricted by one indicator.

    ``density`` is the closed-form expression on the supported region;
    ``indicator`` is a (mode, expr) pair checked pointwise before the
    density is evaluated ('positive' zeroes the density where expr <= 0,
    'nonzero' where expr == 0).  Indicator boundaries and density
    singularities are recorded in ``split_points`` so quadrature panels
    stay smooth.
    """

    density: Expr
    split_points: tuple
    indicator: tuple


# The generated test under which an indicator (its expression's slot in
# ``{}``) zeroes the density: NaN zeroes a 'positive' one, keeps a 'nonzero' one.
INDICATOR_FAILS = {"positive": "not {} > 0.0", "nonzero": "{} == 0.0"}
# The body of modular's integrand per (tlogt, indicator mode or None without
# a measure): |t|^p with p in {0}, then the density {2} where the indicator {1} holds.
_MODULAR = {
    (tlogt, mode): (
        ("s = f(x)\nif s <= 0.0:\n    return 0.0\nt = s * log(s)\n" if tlogt else "t = f(x)\n")
        + "if t == 0.0:\n    return 0.0\nbase = abs(t) ** {0}\n"
        + ("return base\n" if mode is None else "if base == 0.0:\n    return 0.0\n"
           f"if {INDICATOR_FAILS[mode].format('{1}')}:\n    return base * 0.0\n"
           "return base * {2}\n")
    )
    for tlogt in (False, True) for mode in (None, *INDICATOR_FAILS)
}


def modular_integrand(f: Integrand, p: Expr, mu=None) -> Callable[[float], float]:
    """``|f|^p`` times mu's density, generated around ``f.fn`` with these
    short-cuts in this order: ``f == 0`` gives 0, then p, ``|f|^p == 0``
    gives 0, the indicator, and the density where it holds (else 0)."""
    mode, chk = (None, None) if mu is None else mu.indicator
    trees = (p,) if mu is None else (p, chk, mu.density)
    return compile_integrand(_MODULAR[f.tlogt, mode], trees)(f.fn)


def modular(
    f: Integrand,
    vp: VariableExponent,
    mu=None,
    tol: float = DEFAULT_TOL,
    tol_abs: float = DEFAULT_TOL_ABS,
) -> QuadratureResult:
    """Integral of ``|f.fn(x)|^p(x)`` against the measure ``mu`` (Lebesgue
    when omitted) over the exponent's domain intersected with f's support.

    The singular points of the exponent, of ``f`` and of ``mu`` become
    quadrature splits.  ``f.fn`` is called only strictly inside the
    support.  A finite end is integrated as singular (tanh-sinh) where it is
    an end of the domain, or where ``f`` is the ``t log t`` view, whose edge
    factor ``|log t|^p`` defeats Gauss-Kronrod's error estimate.  At a
    support end strictly inside the domain, ``f`` vanishes and the density
    is finite, so Gauss-Kronrod panels end there.
    """
    lo, hi = max(vp.domain.lo, f.support.lo), min(vp.domain.hi, f.support.hi)
    splits = {*vp.split_points, *f.split_points}
    if mu is not None:
        splits.update(mu.split_points)
    if not lo < hi:
        return ZERO_RESULT

    flags = (math.isfinite(lo) and (f.tlogt or lo == vp.domain.lo),
             math.isfinite(hi) and (f.tlogt or hi == vp.domain.hi))
    return integrate(
        modular_integrand(f, vp.p, mu),
        Interval(lo, hi),
        split_at=sorted(splits),
        endpoint_singular=flags,
        tol=tol,
        tol_abs=tol_abs,
    )


BRACKET_CAP = 1e12
# Relative and absolute tolerance of the modulars a norm rests on.
NORM_TOL = 1e-9
NORM_TOL_ABS = 1e-13
# Relative tolerance of a variable-exponent norm's first modular, of its
# secant steps until one moves log(lambda) by at most LOOSE_STEP, and of the
# Newton steps' slopes.
LOOSE_TOL = 1e-4
LOOSE_STEP = 1e-6
# Half-width, in log(lambda), added to the bracket from the sampled extrema.
BRACKET_SLACK = 1e-3
# Secant and Newton steps a norm takes before it falls back to the bracket
# and Brent.
SECANT_STEPS = 12


def luxemburg_norm(f: Callable[[float], float], vp: VariableExponent) -> float:
    """inf of lambda > 0 with modular(f / lambda) <= 1, for a function ``f``
    defined on the whole (open) domain of ``vp``.

    The norm lies between ``rho^(1/p_plus)`` and ``rho^(1/p_minus)`` for
    ``rho = modular(f)`` (Diening, Harjulehto, Hasto and Ruzicka, LNM 2017,
    Lemma 3.2.5).  A constant exponent gives ``rho^(1/p)`` by homogeneity,
    with ``rho`` at ``NORM_TOL``, corrected once at the scale of the answer
    (a second ``NORM_TOL`` modular) when ``rho`` is so small that the
    absolute quadrature floor bounded its error.

    A variable exponent solves ``g(t) = log modular(f / e^t) = 0``.  ``g``
    is convex, its slope ``g' = -(mean of p under the density |f/e^t|^p)``
    lies in ``[-p_plus, -p_minus]`` and its curvature ``g'' = Var(p)`` is at
    most ``(p_plus - p_minus)^2 / 4``.  The solve is an inexact Newton method
    (Dembo, Eisenstat and Steihaug, SIAM J. Numer. Anal. 19, 1982).  ``rho``
    is computed at ``LOOSE_TOL``: it only seeds the bracket and secant steps
    on ``LOOSE_TOL`` values, from ``(0, log rho)`` and the root for the mean
    exponent, until a step moves ``t`` by at most ``LOOSE_STEP``.  Newton
    steps start at that step's origin.  Each takes ``g`` from a ``NORM_TOL``
    modular and ``g'`` from that and one ``LOOSE_TOL`` modular against the
    density ``p``, whose relative error bound is ``eps``.  The solve returns
    ``t + step`` as soon as ``eps |step| + (p_plus - p_minus)^2 / (8 p_minus)
    step^2 <= 1e-10``: the step's error from ``g'`` plus the Newton
    remainder.  So the answer rests on a ``NORM_TOL`` value of ``g``; the
    loose values only choose where it is taken and the slope.  A step
    outside the widened bracket, a non-finite or flat ``g``, a ``g'`` outside
    ``[-p_plus, -p_minus]`` or ``SECANT_STEPS`` steps fall back to Brent's
    method on the bracket, on ``NORM_TOL`` values only, to 1e-10 relative on
    lambda.  The extrema are sampled, not proven, so the bracket's ends are
    halved or doubled until they straddle the root; halving below 1e-15
    returns 0.

    Raises NoFiniteBracketError when ``modular(f)`` is infinite or suspected
    divergent, or when doubling passes ``BRACKET_CAP``.
    """

    def scaled_modular(lam, tol=NORM_TOL, mu=None):
        scaled = Integrand(lambda x: f(x) / lam, vp.domain)
        return modular(scaled, vp, mu, tol=tol, tol_abs=NORM_TOL_ABS)

    first_tol = LOOSE_TOL if vp.numerical else NORM_TOL
    r = modular(Integrand(f, vp.domain), vp, tol=first_tol, tol_abs=NORM_TOL_ABS)
    rho = r.value
    if rho == 0.0:
        return 0.0
    if not math.isfinite(rho) or r.status == STATUS_DIVERGENT:
        raise NoFiniteBracketError(f"modular(f) is {rho!r} ({r.status})")
    if not vp.numerical:
        lam = rho ** (1.0 / vp.p_minus)
        if rho * NORM_TOL < NORM_TOL_ABS:
            lam *= scaled_modular(lam).value ** (1.0 / vp.p_minus)
        return lam

    log_rho = math.log(rho)
    memo = {}

    def g(t, tol=NORM_TOL):
        if (t, tol) not in memo:
            m = scaled_modular(math.exp(t), tol).value
            memo[t, tol] = math.log(m) if m > 0.0 else -math.inf
        return memo[t, tol]

    ends = (log_rho / vp.p_plus, log_rho / vp.p_minus)
    t_lo, t_hi = min(ends) - BRACKET_SLACK, max(ends) + BRACKET_SLACK
    # the density p weighs |f/lambda|^p into -g'(t)'s numerator
    p_density = WeightedMeasure(vp.p, (), ("positive", vp.p))
    curvature = (vp.p_plus - vp.p_minus) ** 2 / (8.0 * vp.p_minus)
    # the first step goes to the root for the mean exponent
    t0, g0 = 0.0, log_rho
    t1 = log_rho / (0.5 * (vp.p_minus + vp.p_plus))
    newton = False
    for _ in range(SECANT_STEPS):
        if not newton and abs(t1 - t0) <= LOOSE_STEP:
            # a loose value cannot resolve so short a step: Newton starts at
            # its origin, which is t = 0, the unscaled f, for a first step
            newton, t1 = True, t0
        if not t_lo <= t1 <= t_hi:
            break
        g1 = g(t1, NORM_TOL if newton else LOOSE_TOL)
        if not math.isfinite(g1):
            break
        if newton:
            d = scaled_modular(math.exp(t1), LOOSE_TOL, p_density)
            slope = -d.value * math.exp(-g1)
            if not -vp.p_plus <= slope <= -vp.p_minus:
                break
        elif g1 == g0:
            break
        else:
            slope = (g1 - g0) / (t1 - t0)
        step = -g1 / slope
        if newton and d.error_bound / d.value * abs(step) + curvature * step * step <= 1e-10:
            return math.exp(t1 + step)
        t0, g0, t1 = t1, g1, t1 + step
    while g(t_lo) <= 0.0:
        t_hi = t_lo
        t_lo -= math.log(2.0)
        if t_lo < math.log(1e-15):
            return 0.0
    while g(t_hi) > 0.0:
        t_lo = t_hi
        t_hi += math.log(2.0)
        if t_hi > math.log(BRACKET_CAP):
            raise NoFiniteBracketError(
                f"modular(f/lambda) > 1 for all lambda up to {BRACKET_CAP:g}"
            )
    return math.exp(brentq(g, t_lo, t_hi, xtol=1e-10))
