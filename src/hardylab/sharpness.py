"""Empirical sharpness probing: minimize RHS/LHS over test-function families.

The scan drives one bounded Nelder-Mead search (derivative-free; quadrature
noise makes finite-difference gradients unreliable) over a parameter box,
started from the family's preferred corner.  Every objective evaluation is
recorded in a trace, and nothing is random, so a scan is reproducible from
its box and budget alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .errors import InvalidParamsError, InvalidTestFunctionError, VacuousInstanceError
from .expr import Interval
from .instance import HardyInstance, build_measures
from .quadrature import DEFAULT_TOL_ABS
from .verify import TestFunction, _require_support_inside, _run_hardy, power_bump


@dataclass
class FamilySpec:
    """Parameter box for one scan family.

    ``box`` maps parameter names to (lo, hi) bounds in a fixed order;
    ``fixed`` pins any family parameter that is not scanned.  The search
    starts at the family's preferred point of the box.
    """

    kind: str = "hardy_cutoff"
    box: dict = field(default_factory=dict)
    fixed: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.box:
            self.box = dict(default_box(self.kind))
        for name, (lo, hi) in self.box.items():
            if not lo < hi:
                raise InvalidParamsError(f"empty box for parameter {name!r}")


def default_box(kind: str) -> dict:
    if kind == "hardy_cutoff":
        return {
            "eps": (1e-4, 0.3),
            "log10_inner": (-40.0, -1.0),
            "log10_outer": (1.0, 40.0),
        }
    if kind == "power_bump":
        return {"center": (0.3, 3.0), "halfwidth": (0.1, 1.0), "height": (0.5, 2.0)}
    raise InvalidParamsError(f"unknown scan family {kind!r}")


def _default_anchor(kind: str, box: dict) -> dict:
    if kind == "hardy_cutoff":
        # the ratio decreases toward small eps and a wide plateau, so the
        # preferred corner is the box minimum
        return {
            "eps": box["eps"][0],
            "log10_inner": box["log10_inner"][0],
            "log10_outer": box["log10_outer"][1],
        }
    return {name: 0.5 * (lo + hi) for name, (lo, hi) in box.items()}


def _ramp(t: float) -> float:
    # rational smoothstep with edge exponent 2 at t = 0
    s = 1.0 - t
    return t * t / (t * t + s * s)


def _ramp_prime(t: float) -> float:
    s = 1.0 - t
    d = t * t + s * s
    return 2.0 * t * s / (d * d)


def hardy_cutoff(eps: float, log10_inner: float, log10_outer: float) -> TestFunction:
    """Near-extremal family for the inverse-square-weight scenario:
    x^(1/2+eps) times a plateau cutoff.

    The cutoff ramps up over [inner/2, inner], equals 1 on [inner, outer],
    and ramps down over [outer, 2 outer] with edge exponent 2; classical
    extremals are not compactly supported, so the plateau width is what the
    scan stretches.
    """
    if eps <= 0:
        raise InvalidParamsError("eps must be positive")
    inner = 10.0 ** log10_inner
    outer = 10.0 ** log10_outer
    if not inner < outer:
        raise InvalidParamsError("inner edge must sit below the outer edge")
    q = 0.5 + eps

    def zeta(x):
        if x <= 0.5 * inner or x >= 2.0 * outer:
            return 0.0
        if x < inner:
            return _ramp((x - 0.5 * inner) / (0.5 * inner))
        if x <= outer:
            return 1.0
        return _ramp((2.0 * outer - x) / outer)

    def zeta_prime(x):
        if x <= 0.5 * inner or x >= 2.0 * outer:
            return 0.0
        if x < inner:
            return _ramp_prime((x - 0.5 * inner) / (0.5 * inner)) / (0.5 * inner)
        if x <= outer:
            return 0.0
        return -_ramp_prime((2.0 * outer - x) / outer) / outer

    def f(x):
        z = zeta(x)
        return 0.0 if z == 0.0 else x ** q * z

    def df(x):
        z = zeta(x)
        dz = zeta_prime(x)
        if z == 0.0 and dz == 0.0:
            return 0.0
        return q * x ** (q - 1.0) * z + x ** q * dz

    # the same branches with np.where, for points inside the support
    def zeta_grid(xs):
        rising = _ramp((xs - 0.5 * inner) / (0.5 * inner))
        falling = _ramp((2.0 * outer - xs) / outer)
        return np.where(xs < inner, rising, np.where(xs <= outer, 1.0, falling))

    def zeta_prime_grid(xs):
        rising = _ramp_prime((xs - 0.5 * inner) / (0.5 * inner)) / (0.5 * inner)
        falling = -_ramp_prime((2.0 * outer - xs) / outer) / outer
        return np.where(xs < inner, rising, np.where(xs <= outer, 0.0, falling))

    def f_grid(xs):
        z = zeta_grid(xs)
        return np.where(z == 0.0, 0.0, xs ** q * z)

    def df_grid(xs):
        z, dz = zeta_grid(xs), zeta_prime_grid(xs)
        value = q * xs ** (q - 1.0) * z + xs ** q * dz
        return np.where((z == 0.0) & (dz == 0.0), 0.0, value)

    return TestFunction(
        "hardy-cutoff",
        Interval(0.5 * inner, 2.0 * outer),
        2.0,
        {"eps": eps, "log10_inner": log10_inner, "log10_outer": log10_outer},
        f,
        df,
        f_grid,
        df_grid,
        split_points=(inner, outer),
    )


def build_family_member(inst: HardyInstance, kind: str, params: dict) -> TestFunction:
    if kind == "hardy_cutoff":
        return hardy_cutoff(params["eps"], params["log10_inner"], params["log10_outer"])
    if kind == "power_bump":
        k = float(math.ceil(inst.vp.p_plus) + 1)
        return power_bump(
            params["center"], params["halfwidth"], params.get("height", 1.0), k
        )
    raise InvalidParamsError(f"unknown scan family {kind!r}")


def ratio(inst: HardyInstance, xi: TestFunction, tol: float = 1e-6) -> float:
    """(rhs_main + rhs_log) / lhs for one test function, whose support must
    lie strictly inside the domain; the instance is vacuous when the left
    side cannot be distinguished from zero."""
    if inst.vacuous:
        raise VacuousInstanceError("instance has an identically-zero left weight")
    _require_support_inside(xi, inst.domain)
    mu1, mu2 = build_measures(inst)
    rep = _run_hardy(inst, xi, mu1, mu2, tol, DEFAULT_TOL_ABS)
    if rep.lhs.value <= rep.lhs.error_bound:
        raise VacuousInstanceError(
            f"left side {rep.lhs.value!r} is within its error bound"
        )
    return (rep.rhs_main.value + rep.rhs_log.value) / rep.lhs.value


@dataclass
class TraceEntry:
    params: dict
    ratio: float


@dataclass
class ScanResult:
    best_ratio: float
    best_params: dict
    trace: list
    evaluations: int
    converged: bool

    def best_so_far(self) -> list:
        out = []
        best = math.inf
        for entry in self.trace:
            best = min(best, entry.ratio)
            out.append(best)
        return out


class _BudgetExhausted(Exception):
    pass


def _require_box_inside(inst: HardyInstance, spec: FamilySpec):
    """Reject a box that lets the test function's support leave the domain.
    Each end of the support is monotone in every parameter of both families,
    so the widest supports sit at the corners of the box."""
    names = list(spec.box)
    for corner in itertools.product(*spec.box.values()):
        point = dict(zip(names, corner))
        support = build_family_member(inst, spec.kind, {**spec.fixed, **point}).support
        if not (inst.domain.lo < support.lo and support.hi < inst.domain.hi):
            where = ", ".join(f"{n}={v:g}" for n, v in point.items())
            raise InvalidTestFunctionError(
                f"scan box corner {where} gives support ({support.lo:g}, {support.hi:g}); "
                f"test function support must lie strictly inside the domain "
                f"({inst.domain.lo:g}, {inst.domain.hi:g})"
            )


def scan(
    inst: HardyInstance,
    spec: FamilySpec,
    budget: int = 500,
    tol: float = 1e-6,
) -> ScanResult:
    """Minimize the sharpness ratio over the family's parameter box.

    Runs one bounded Nelder-Mead search from the family's anchor point; stops
    when the evaluation budget is exhausted and reports best-so-far with
    ``converged=False`` in that case.  A box whose corners reach outside the
    domain is rejected before the first evaluation.
    """
    if budget < 1:
        raise InvalidParamsError("budget must be at least 1")
    _require_box_inside(inst, spec)
    names = list(spec.box.keys())
    lows = np.array([spec.box[n][0] for n in names])
    highs = np.array([spec.box[n][1] for n in names])
    trace: list[TraceEntry] = []

    def objective(vec):
        if len(trace) >= budget:
            raise _BudgetExhausted
        point = {n: float(v) for n, v in zip(names, np.clip(vec, lows, highs))}
        params = {**spec.fixed, **point}
        xi = build_family_member(inst, spec.kind, params)
        value = ratio(inst, xi, tol)
        trace.append(TraceEntry(point, value))
        return value

    anchor = _default_anchor(spec.kind, spec.box)
    try:
        res = minimize(
            objective,
            np.array([anchor[n] for n in names], dtype=float),
            method="Nelder-Mead",
            bounds=list(zip(lows, highs)),
            options={"maxfev": budget, "xatol": 1e-3, "fatol": 1e-5, "disp": False},
        )
        converged = bool(res.success)
    except _BudgetExhausted:
        converged = False

    # minimize evaluates the anchor first, so the trace is never empty
    best = min(trace, key=lambda e: e.ratio)
    return ScanResult(best.ratio, dict(best.params), trace, len(trace), converged)
