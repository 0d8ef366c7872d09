"""Hardy instances: the data (I, p, u, Phi, sigma, beta), their admissibility
checks, and the weighted measures they induce.

An instance couples a validated variable exponent with a nonnegative
supersolution candidate ``u`` of the inequality ``-(|u'|^(p-2) u')' >= Phi``.
Admissibility asks for pointwise nonnegativity of ``Phi u + sigma |u'|^p``
and a strict gap between ``beta`` and the supremum of ``sigma``; both are
verified on sampling grids, so verdicts are numerical, never proofs.

Presets wire the library's built-in weight families (distance-to-boundary,
power, reciprocal-power, exponential, and the constant-exponent reduction)
with ``Phi`` chosen as the exact negative divergence term where ``u`` is
smooth, and attach the closed-form expression whose nonnegativity is that
family's admissibility condition; ``raw`` takes all six as given.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParamsError, ZeroSetUnresolvedError
from .expr import (
    X,
    Expr,
    Interval,
    abs_,
    add,
    compile_fn,
    const,
    differentiate,
    div,
    eval_grid,
    exp,
    identifiers,
    interval_from_text,
    log,
    mul,
    neg,
    parse,
    pow_,
    sgn,
    singular_points,
    sub,
    zero_scan,
)
from .quadrature import integrate
from .spaces import VariableExponent, validate_exponent

BETA_MARGIN = 1e-9
POINTWISE_TOL = 1e-12
ADMISSIBILITY_GRID = 10_000

HOLDS = "holds-numerically"
VIOLATED = "violated"
INDETERMINATE = "indeterminate"


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


@dataclass
class ConditionReport:
    name: str
    verdict: str
    worst_margin: float
    witness: float | None
    skipped: int      # grid points where the expression is undefined or NaN
    points: int       # grid points sampled

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS


@dataclass
class AdmissibilityReport:
    conditions: list[ConditionReport]

    @property
    def admissible(self) -> bool:
        return all(c.holds for c in self.conditions)


@dataclass
class HardyInstance:
    domain: Interval
    vp: VariableExponent
    u: Expr
    phi: Expr
    sigma: Expr
    beta: float
    u_prime: Expr = field(init=False)
    p_prime: Expr = field(init=False)
    split_points: tuple = field(init=False, default=())
    condition: Expr | None = None
    condition_name: str = ""
    preset: str | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.beta > 0:
            raise InvalidParamsError(f"beta must be positive, got {self.beta!r}")
        self.u_prime = differentiate(self.u)
        self.p_prime = differentiate(self.vp.p)
        pts = set(self.vp.split_points)
        for e in (self.u, self.u_prime, self.sigma, self.phi):
            pts.update(singular_points(e, self.domain))
        self.split_points = tuple(sorted(pts))
        self._measures = None
        self._log_measure = None
        self._admissibility = None

    @property
    def vacuous(self) -> bool:
        """True when the preset's closed-form condition is the zero constant;
        the left weight then vanishes identically."""
        return self.condition is not None and _is_zero_const(self.condition)

    def describe(self) -> dict:
        from .expr import to_string

        return {
            "preset": self.preset,
            "params": dict(self.params),
            "domain": [self.domain.lo, self.domain.hi],
            "p": to_string(self.vp.p),
            "u": to_string(self.u),
            "phi": to_string(self.phi),
            "sigma": to_string(self.sigma),
            "beta": self.beta,
            "vacuous": self.vacuous,
        }


def make_instance(
    domain: Interval,
    p: Expr | str,
    u: Expr | str,
    phi: Expr | str | None,
    sigma: Expr | str,
    beta: float,
    params: dict | None = None,
    **kwargs,
) -> HardyInstance:
    """Build an instance from raw expressions; ``phi=None`` selects the exact
    negative divergence term computed symbolically from ``u`` and ``p``."""
    params = {k: float(v) for k, v in (params or {}).items()}
    p, u, sigma = (_parse_arg(e, params) for e in (p, u, sigma))
    vp = validate_exponent(p, domain)
    phi = negative_divergence_expr(u, p) if phi is None else _parse_arg(phi, params)
    return HardyInstance(domain, vp, u, phi, sigma, float(beta), params=params, **kwargs)


def _parse_arg(value, params=None):
    if isinstance(value, Expr):
        return value
    if isinstance(value, str):
        return parse(value, params)
    return const(float(value))


def negative_divergence_expr(u: Expr, p: Expr) -> Expr:
    """-(|u'|^(p-2) u')' expanded where u is twice differentiable:
    -|u'|^(p-2) * (p' u' log|u'| + (p-1) u'')."""
    up = differentiate(u)
    upp = differentiate(up)
    dp = differentiate(p)
    inner = add(mul(mul(dp, up), log(abs_(up))), mul(sub(p, const(1.0)), upp))
    return neg(mul(pow_(abs_(up), sub(p, const(2.0))), inner))


def pointwise_condition_expr(inst: HardyInstance) -> Expr:
    """Phi u + sigma |u'|^p, the pointwise admissibility requirement."""
    return add(mul(inst.phi, inst.u), mul(inst.sigma, pow_(abs_(inst.u_prime), inst.vp.p)))


def _sample_points(interval: Interval, singulars=()) -> np.ndarray:
    near = [x for s in singulars for x in (s - 1e-6, s + 1e-6) if interval.contains(x)]
    return np.concatenate([interval.midpoint_array(ADMISSIBILITY_GRID), near])


def _sample(e: Expr, pts: np.ndarray):
    """The points where ``e`` evaluates to a number, its values there, and the
    count of the other points (NaN or outside e's domain).  Points and values
    are empty when the others are more than a fifth of ``pts``."""
    vals = eval_grid(e, pts)
    ok = ~np.isnan(vals)
    skipped = len(pts) - int(ok.sum())
    if skipped > 0.2 * len(pts):
        return pts[:0], vals[:0], skipped
    return pts[ok], vals[ok], skipped


def check_nonneg(e: Expr, interval: Interval, name: str = "nonnegative") -> ConditionReport:
    """Grid verdict on ``e >= 0``, within ``POINTWISE_TOL`` times the larger of
    1 and the largest finite magnitude among the worst sample and its
    neighbours in x: sampled at ``ADMISSIBILITY_GRID`` points plus small
    offsets around the expression's singular points."""
    pts = _sample_points(interval, singular_points(e, interval))
    xs, vs, skipped = _sample(e, pts)
    if not len(vs):
        return ConditionReport(name, INDETERMINATE, math.nan, None, skipped, len(pts))
    i = int(np.argmin(vs))
    worst = float(vs[i])
    # the offsets around singular points follow the grid, so sort by x
    order = np.argsort(xs, kind="stable")
    k = int(np.flatnonzero(order == i)[0])
    near = vs[order[max(k - 1, 0):k + 2]]
    scale = float(np.abs(near[np.isfinite(near)]).max(initial=1.0))
    verdict = HOLDS if worst >= -POINTWISE_TOL * scale else VIOLATED
    witness = float(xs[i]) if verdict == VIOLATED else None
    return ConditionReport(name, verdict, worst, witness, skipped, len(pts))


def check_admissibility(inst: HardyInstance) -> AdmissibilityReport:
    """The instance's admissibility verdicts, decided once and memoized, on
    a grid of ``ADMISSIBILITY_GRID`` points: u >= 0, pointwise nonnegativity
    of Phi u + sigma |u'|^p, the strict gap beta > sup sigma (supremum
    sampled over the closure; on unbounded domains only a finite window is
    inspected), and the preset's closed-form condition when it has one."""
    if inst._admissibility is None:
        conditions = [
            check_nonneg(inst.u, inst.domain, name="u-nonnegative"),
            check_nonneg(pointwise_condition_expr(inst), inst.domain, name="pointwise"),
            _beta_gap_condition(inst),
        ]
        if inst.condition is not None:
            conditions.append(check_nonneg(inst.condition, inst.domain, name=inst.condition_name))
        inst._admissibility = AdmissibilityReport(conditions)
    return inst._admissibility


def _beta_gap_condition(inst: HardyInstance) -> ConditionReport:
    ends = [end for end in (inst.domain.lo, inst.domain.hi) if math.isfinite(end)]
    pts = np.concatenate([_sample_points(inst.domain, inst.split_points), ends])
    xs, vs, skipped = _sample(inst.sigma, pts)
    i = int(np.argmax(vs)) if len(vs) else None
    if i is None or not math.isfinite(vs[i]):
        return ConditionReport("beta-margin", INDETERMINATE, math.nan, None, skipped, len(pts))
    margin = inst.beta - float(vs[i])
    verdict = HOLDS if margin >= BETA_MARGIN else VIOLATED
    witness = float(xs[i]) if verdict == VIOLATED else None
    return ConditionReport("beta-margin", verdict, margin, witness, skipped, len(pts))


def weak_pdi_residual(inst: HardyInstance, w) -> float:
    """LHS - RHS of the weak form: integral of |u'|^(p-2) u' w' minus the
    integral of Phi w over the support of the test function ``w``.

    A nonnegative value (within quadrature error) certifies the inequality
    for this particular w.
    """
    up_fn = compile_fn(inst.u_prime)
    p_fn = compile_fn(inst.vp.p)
    phi_fn = compile_fn(inst.phi)

    lo = max(inst.domain.lo, w.support.lo)
    hi = min(inst.domain.hi, w.support.hi)
    if not lo < hi:
        return 0.0
    splits = sorted(set(inst.split_points) | set(w.split_points))

    def lhs_integrand(x):
        upv = up_fn(x)
        if upv == 0.0:
            return 0.0
        dwv = w.derivative(x)
        if dwv == 0.0:
            return 0.0
        return math.copysign(abs(upv) ** (p_fn(x) - 1.0), upv) * dwv

    def rhs_integrand(x):
        wv = w(x)
        if wv == 0.0:
            return 0.0
        return phi_fn(x) * wv

    lhs = integrate(
        lhs_integrand, Interval(lo, hi), split_at=splits,
        endpoint_singular=(True, True),
    )
    rhs = integrate(
        rhs_integrand, Interval(lo, hi), split_at=splits,
        endpoint_singular=(True, True),
    )
    return lhs.value - rhs.value


def build_measures(inst: HardyInstance) -> tuple[WeightedMeasure, WeightedMeasure]:
    """The abstract's mu1 and mu2, the weights of |xi|^p and |xi'|^p, memoized.

    mu1: (Phi u + sigma |u'|^p) u^(-beta-1) restricted to {u > 0}.
    mu2: ((p-1)/(beta-sigma))^(p-1) * 2^((p-1) chi[p' != 0])
    * u^(p-beta-1) restricted to {u' != 0}.  The factor 2 appears exactly
    where p' is nonzero; where p' is the zero constant it is absent.
    """
    if inst._measures is not None:
        return inst._measures

    u, up = inst.u, inst.u_prime
    p, dp, sigma = inst.vp.p, inst.p_prime, inst.sigma
    beta = const(inst.beta)

    u_zeros = zero_scan(u, inst.domain)
    if u_zeros.suspected:
        raise ZeroSetUnresolvedError(
            f"zeros of u near {u_zeros.suspected} graze zero and cannot be bracketed"
        )
    up_zeros = zero_scan(up, inst.domain)
    dp_zeros = zero_scan(dp, inst.domain) if dp.kind != "const" else None

    splits = set(inst.split_points)
    splits.update(u_zeros.points)
    splits.update(up_zeros.points)
    splits.update(up_zeros.suspected)
    if dp_zeros is not None:
        splits.update(dp_zeros.points)
        splits.update(dp_zeros.suspected)
    splits = tuple(sorted(splits))

    mu1_density = mul(
        pointwise_condition_expr(inst),
        pow_(u, sub(neg(beta), const(1.0))),
    )
    mu1 = WeightedMeasure(
        density=mu1_density,
        split_points=splits,
        indicator=("positive", u),
    )

    factor = pow_(div(sub(p, const(1.0)), sub(const(inst.beta), sigma)), sub(p, const(1.0)))
    if _is_zero_const(dp):
        two_factor = const(1.0)
    else:
        two_factor = pow_(const(2.0), mul(sub(p, const(1.0)), sgn(abs_(dp))))
    mu2_density = mul(mul(factor, two_factor), pow_(u, sub(sub(p, beta), const(1.0))))
    mu2 = WeightedMeasure(
        density=mu2_density,
        split_points=splits,
        indicator=("nonzero", up),
    )
    inst._measures = (mu1, mu2)
    return inst._measures


def log_measure(inst: HardyInstance) -> WeightedMeasure | None:
    """The abstract's mu3, the weight of |xi log xi|^p, built once and
    memoized: (|p'|/p)^p times mu2's density, on mu2's indicator and splits.
    None where p' is the zero constant, where mu2 has no factor 2."""
    if inst._log_measure is None and not _is_zero_const(inst.p_prime):
        p, mu2 = inst.vp.p, build_measures(inst)[1]
        density = mul(pow_(div(abs_(inst.p_prime), p), p), mu2.density)
        inst._log_measure = WeightedMeasure(density, mu2.split_points, mu2.indicator)
    return inst._log_measure


def _is_zero_const(e: Expr) -> bool:
    return e.kind == "const" and e.value == 0.0


# ---------------------------------------------------------------------------
# presets


_EXPR_KEYS = {"p", "u", "phi", "sigma", "A"}  # keys whose text is an expression of x


def _require_positive_domain(domain: Interval, name: str):
    if domain.lo < 0:
        raise InvalidParamsError(f"{name} needs a domain inside the positive half-line")


def preset(name: str, /, **params) -> HardyInstance:
    """Construct a named instance family with its admissibility condition
    attached; see ``docs/config.md`` for the parameters of each preset.  Any
    other key must be a name that an expression given as text reads (``d`` in
    ``p = "1+d/(abs(x)+1)"``).  A text ``domain`` is parsed as ``"lo, hi"``.
    """
    if name not in _PRESETS:
        raise InvalidParamsError(f"unknown preset {name!r}")
    fields = inspect.signature(_PRESETS[name]).parameters.values()
    read = {f.name for f in fields if f.kind is not f.VAR_KEYWORD}
    missing = [f.name for f in fields if f.default is f.empty and f.name in read - params.keys()]
    if missing:
        raise InvalidParamsError(f"preset {name!r} is missing keys {missing}")
    for key in _EXPR_KEYS & read & params.keys():
        if isinstance(params[key], str) and not (key == "phi" and _is_auto(params[key])):
            read |= identifiers(params[key])
    unread = [key for key in params if key not in read]
    if unread:
        raise InvalidParamsError(
            f"key {unread[0]!r} is not a parameter of preset {name!r}, "
            "and no expression reads it"
        )
    if isinstance(params.get("domain"), str):
        params["domain"] = interval_from_text(params["domain"])
    inst = _PRESETS[name](**params)
    inst.preset = name
    return inst


def preset_names() -> list[str]:
    return list(_PRESETS)


def _preset_distance(M=1.0, p="2", sigma="1", beta=2.0, domain=None, **extra):
    M = float(M)
    if M <= 0:
        raise InvalidParamsError(f"M must be positive, got {M!r}")
    if domain is None:
        domain = Interval(-M, M)
    if domain.lo < -M or domain.hi > M:
        raise InvalidParamsError("domain must sit inside (-M, M)")
    bind = {"M": M, **extra}
    sigma_e = _parse_arg(sigma, bind)
    return make_instance(
        domain, _parse_arg(p, bind), parse("M - abs(x)", {"M": M}),
        const(0.0), sigma_e, beta,
        params={"M": M, **extra},
        condition=sigma_e,
        condition_name="sigma-nonnegative",
    )


def _power_condition(alpha: float, p: Expr, sigma: Expr) -> Expr:
    dp = differentiate(p)
    a = const(alpha)
    mid = mul(mul(dp, mul(X, a)), log(abs_(mul(a, pow_(X, const(alpha - 1.0))))))
    return add(
        sub(mul(sigma, const(alpha * alpha)), mid),
        mul(sub(p, const(1.0)), const(alpha * (1.0 - alpha))),
    )


def _preset_power(alpha=2.0, p="x+3", sigma="2", beta=3.0, domain=Interval(0.0, 1.0), **extra):
    alpha = float(alpha)
    _require_positive_domain(domain, "cor53")
    bind = {"alpha": alpha, **extra}
    p_e, sigma_e = _parse_arg(p, bind), _parse_arg(sigma, bind)
    cond = _power_condition(alpha, p_e, sigma_e)
    return make_instance(
        domain, p_e, pow_(X, const(alpha)), None, sigma_e, beta,
        params={"alpha": alpha, **extra},
        condition=cond,
        condition_name="power-weight-condition",
    )


def _preset_reciprocal(a=1.0, p="2", sigma="2.5", beta=3.5, domain=Interval(0.1, 10.0), **extra):
    a = float(a)
    if a <= 0:
        raise InvalidParamsError(f"a must be positive, got {a!r}")
    _require_positive_domain(domain, "cor54")
    bind = {"a": a, **extra}
    p_e, sigma_e = _parse_arg(p, bind), _parse_arg(sigma, bind)
    dp = differentiate(p_e)
    cond = add(
        sub(add(sigma_e, mul(mul(dp, X), log(div(const(a), pow_(X, const(2.0)))))),
            mul(const(2.0), p_e)),
        const(2.0),
    )
    return make_instance(
        domain, p_e, div(const(a), X), None, sigma_e, beta,
        params={"a": a, **extra},
        condition=cond,
        condition_name="reciprocal-weight-condition",
    )


def _preset_exponential(p="2", sigma="1", beta=2.0, domain=Interval(-5.0, 5.0), **extra):
    bind = dict(extra)
    p_e, sigma_e = _parse_arg(p, bind), _parse_arg(sigma, bind)
    dp = differentiate(p_e)
    cond = add(sub(sub(sigma_e, mul(dp, X)), p_e), const(1.0))
    return make_instance(
        domain, p_e, exp(X), None, sigma_e, beta,
        params=dict(extra),
        condition=cond,
        condition_name="exponential-weight-condition",
    )


def _preset_power_normalized(a=1.0, p="x+2", beta=5.0, domain=Interval(0.0, 1.0), A=None, **extra):
    a = float(a)
    if a <= 0:
        raise InvalidParamsError(f"a must be positive, got {a!r}")
    _require_positive_domain(domain, "cor64")
    bind = {"a": a, "beta": float(beta), **extra}
    p_e = _parse_arg(p, bind)
    dp = differentiate(p_e)
    sigma_e = sub(const(float(beta)), mul(const(2.0 / a), sub(p_e, const(1.0))))
    cond = add(
        add(const(a * float(beta)), mul(const(1.0 - a), mul(mul(X, dp), log(X)))),
        mul(const(a - 3.0), sub(p_e, const(1.0))),
    )
    if A is not None:
        cond = sub(cond, _parse_arg(A, bind))
    return make_instance(
        domain, p_e, mul(const(1.0 / a), pow_(X, const(a))), None, sigma_e, beta,
        params={"a": a, **extra},
        condition=cond,
        condition_name="normalized-power-condition",
    )


def _preset_constant_exponent(
    p=2.0, alpha=0.5, sigma=None, beta=1.0, domain=Interval(0.0, math.inf), **extra
):
    bind = {"alpha": float(alpha), **extra}
    p_e = _parse_arg(p, bind)
    if p_e.kind != "const":
        raise InvalidParamsError("constp needs a constant exponent")
    _require_positive_domain(domain, "constp")
    if sigma is None:
        # the choice that maximizes the induced weight constant for u = x^alpha
        sigma_e = const(1.0 - 1.0 / (2.0 * float(alpha)))
    else:
        sigma_e = _parse_arg(sigma, bind)
    if sigma_e.kind != "const":
        raise InvalidParamsError("constp needs a constant sigma")
    return make_instance(
        domain, p_e, pow_(X, const(float(alpha))), None, sigma_e, beta,
        params={"alpha": float(alpha), **extra},
        condition=_power_condition(float(alpha), p_e, sigma_e),
        condition_name="power-weight-condition",
    )


def _is_auto(phi) -> bool:  # phi = "auto" is the exact negative divergence term
    return isinstance(phi, str) and phi.strip().lower() == "auto"


def _preset_raw(domain, p, u, sigma, beta, phi="auto", **extra):
    return make_instance(domain, p, u, None if _is_auto(phi) else phi, sigma, beta, params=extra)


_PRESETS = {
    "cor51": _preset_distance,
    "cor53": _preset_power,
    "cor54": _preset_reciprocal,
    "cor55": _preset_exponential,
    "cor64": _preset_power_normalized,
    "constp": _preset_constant_exponent,
    "raw": _preset_raw,
}
