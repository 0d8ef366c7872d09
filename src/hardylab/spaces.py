"""Variable-exponent Lebesgue functionals: the modular and the Luxemburg norm.

An exponent is validated against the admissible class (values strictly above
1, bounded above, with the local integrability of ``p^p(x)`` and ``|p'|^p(x)``
probed on a compact exhaustion of the domain).  Extremal exponent values are
located by grid sampling plus a golden-section refinement pass, so the
reported bounds are numerical, not certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import (
    EvalDomainError,
    ExponentRangeError,
    IntegrabilityProbeError,
    NoFiniteBracketError,
)
from .expr import Expr, Interval, abs_, compile_fn, differentiate, golden_min, pow_, singular_points
from .quadrature import (
    DEFAULT_TOL,
    DEFAULT_TOL_ABS,
    STATUS_DIVERGENT,
    QuadratureResult,
    integrate,
)

P_LOWER_MARGIN = 1e-9
P_UPPER_CAP = 1e6
EXHAUSTION_LEVELS = (4, 16, 64)


@dataclass(frozen=True)
class Integrand:
    """A function to integrate, zero outside ``support`` (the whole domain
    when None), with the interior points where it is not smooth."""

    fn: Callable[[float], float]
    support: Interval | None = None
    split_points: tuple = ()


@dataclass(frozen=True)
class VariableExponent:
    p: Expr
    domain: Interval
    p_minus: float
    p_plus: float
    numerical: bool = True  # extrema sampled on a grid, not proven
    split_points: tuple = ()


def validate_exponent(p: Expr, domain: Interval, grid: int = 4096) -> VariableExponent:
    """Check that ``p`` stays in (1, infinity) on a sampling grid and return
    the exponent with its sampled extrema.

    The out-of-range decision is made from the base grid samples; the
    refinement pass only sharpens the reported extrema (they carry a
    numerical caveat and may creep toward 1 at isolated interior points).
    """
    fn = compile_fn(p)
    xs = domain.midpoint_grid(grid)
    vals = []
    for x in xs:
        try:
            v = fn(x)
        except EvalDomainError as err:
            raise ExponentRangeError(f"exponent not evaluable at x={x!r}: {err}") from err
        if not math.isfinite(v):
            raise ExponentRangeError(f"exponent non-finite at x={x!r}")
        vals.append(v)
    lo_val, hi_val = min(vals), max(vals)
    if lo_val <= 1.0 + P_LOWER_MARGIN:
        x_bad = xs[vals.index(lo_val)]
        raise ExponentRangeError(
            f"sampled exponent {lo_val!r} at x={x_bad!r} is not above 1"
        )
    if hi_val > P_UPPER_CAP:
        x_bad = xs[vals.index(hi_val)]
        raise ExponentRangeError(f"sampled exponent {hi_val!r} at x={x_bad!r} looks unbounded")

    if p.kind == "const":
        vp = VariableExponent(p, domain, p.value, p.value, numerical=False)
        _probe_integrability(vp)
        return vp

    p_minus, p_plus = lo_val, hi_val
    window = domain.window()
    for maximize in (False, True):
        idx = vals.index(hi_val if maximize else lo_val)
        cell_lo = xs[idx - 1] if idx > 0 else window.lo
        cell_hi = xs[idx + 1] if idx + 1 < len(xs) else window.hi
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
    vp = VariableExponent(p, domain, p_minus, p_plus, numerical=True, split_points=splits)
    _probe_integrability(vp)
    return vp


def _probe_integrability(vp: VariableExponent) -> None:
    """Require finite ``p^p`` and ``|p'|^p`` integrals on a compact exhaustion."""
    p = vp.p
    dp = differentiate(p)
    probes = (pow_(p, p), pow_(abs_(dp), p))
    for k in EXHAUSTION_LEVELS:
        sub = vp.domain.compact_exhaustion(k)
        if sub is None:
            continue
        for probe in probes:
            fn = compile_fn(probe)
            try:
                r = integrate(
                    fn, sub,
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


def _as_callable(f) -> Callable[[float], float]:
    if isinstance(f, Integrand):
        return f.fn
    if isinstance(f, Expr):
        return compile_fn(f)
    return f


def modular(
    f,
    vp: VariableExponent,
    mu=None,
    tol: float = DEFAULT_TOL,
    tol_abs: float = DEFAULT_TOL_ABS,
) -> QuadratureResult:
    """Integral of ``|f(x)|^p(x)`` against the measure ``mu`` (Lebesgue when
    omitted) over the exponent's domain intersected with f's support.

    ``f`` may be a callable, an expression, or an :class:`Integrand` or test
    function carrying ``support`` and ``split_points``; all recorded singular
    points become quadrature splits.
    """
    fn = _as_callable(f)
    p_fn = compile_fn(vp.p)
    dens = mu.density_fn() if mu is not None else None

    lo, hi = vp.domain.lo, vp.domain.hi
    splits = set(vp.split_points)
    support = getattr(f, "support", None)
    if support is not None:
        lo, hi = max(lo, support.lo), min(hi, support.hi)
    splits.update(getattr(f, "split_points", ()))
    if mu is not None:
        splits.update(mu.split_points)
    if not lo < hi:
        return QuadratureResult(0.0, 0.0, 0, "converged")

    def integrand(x):
        v = fn(x)
        if v == 0.0:
            return 0.0
        base = abs(v) ** p_fn(x)
        if dens is None:
            return base
        if base == 0.0:
            return 0.0
        return base * dens(x)

    flags = (math.isfinite(lo), math.isfinite(hi))
    return integrate(
        integrand,
        Interval(lo, hi),
        split_at=sorted(splits),
        endpoint_singular=flags,
        tol=tol,
        tol_abs=tol_abs,
    )


BISECT_REL_WIDTH = 1e-10
BISECT_MAX_ITER = 200
BRACKET_CAP = 1e12


def luxemburg_norm(f, vp: VariableExponent, tol: float = 1e-9) -> float:
    """inf of lambda > 0 with modular(f / lambda) <= 1, by bisection.

    The objective lambda -> modular(f / lambda) is nonincreasing, so a
    geometric bracket expansion from lambda = 1 followed by bisection
    converges; the bracket is capped at 1e12.
    """
    fn = _as_callable(f)
    support = getattr(f, "support", None)
    splits = getattr(f, "split_points", ())

    def objective(lam):
        scaled = Integrand(lambda x: fn(x) / lam, support, splits)
        return modular(scaled, vp, tol=tol, tol_abs=1e-13).value

    m1 = objective(1.0)
    if m1 == 0.0:
        return 0.0
    if m1 <= 1.0:
        hi = 1.0
        lo = 0.5
        while objective(lo) <= 1.0:
            hi = lo
            lo *= 0.5
            if lo < 1e-15:
                return 0.0
    else:
        lo = 1.0
        hi = 2.0
        while objective(hi) > 1.0:
            lo = hi
            hi *= 2.0
            if hi > BRACKET_CAP:
                raise NoFiniteBracketError(
                    f"modular(f/lambda) > 1 for all lambda up to {BRACKET_CAP:g}"
                )

    for _ in range(BISECT_MAX_ITER):
        if hi - lo <= BISECT_REL_WIDTH * hi:
            break
        mid = 0.5 * (lo + hi)
        if objective(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi
