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
family's admissibility condition.
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
    compile_fn,
    const,
    differentiate,
    div,
    eval_grid,
    exp,
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
    """Density against Lebesgue measure, restricted by indicator conditions.

    ``density`` is the closed-form expression on the supported region;
    ``indicators`` are (mode, expr) pairs checked pointwise before the
    density is evaluated ('positive' zeroes the density where expr <= 0,
    'nonzero' where expr == 0).  Indicator boundaries and density
    singularities are recorded in ``split_points`` so quadrature panels
    stay smooth.
    """

    density: Expr
    split_points: tuple
    provenance: str
    indicators: tuple = ()

    def density_fn(self):
        dens = compile_fn(self.density)
        checks = tuple((mode, compile_fn(e)) for mode, e in self.indicators)

        def fn(x):
            for mode, chk in checks:
                v = chk(x)
                if mode == "positive":
                    if not v > 0.0:
                        return 0.0
                elif v == 0.0:
                    return 0.0
            return dens(x)

        return fn


@dataclass
class ConditionReport:
    name: str
    verdict: str
    worst_margin: float
    witness: float | None
    skipped: int = 0

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS


@dataclass
class AdmissibilityReport:
    conditions: list[ConditionReport]

    @property
    def admissible(self) -> bool:
        return all(c.holds for c in self.conditions)

    def condition(self, name: str) -> ConditionReport:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass
class HardyInstance:
    domain: Interval
    vp: VariableExponent
    u: Expr
    phi: Expr
    sigma: Expr
    beta: float
    u_prime: Expr = field(init=False)
    u_second: Expr = field(init=False)
    p_prime: Expr = field(init=False)
    split_points: tuple = field(init=False, default=())
    condition: Expr | None = None
    condition_name: str = ""
    preset: str | None = None
    params: dict = field(default_factory=dict)
    vacuous: bool = False

    def __post_init__(self):
        if not self.beta > 0:
            raise InvalidParamsError(f"beta must be positive, got {self.beta!r}")
        self.u_prime = differentiate(self.u)
        self.u_second = differentiate(self.u_prime)
        self.p_prime = differentiate(self.vp.p)
        pts = set(self.vp.split_points)
        for e in (self.u, self.u_prime, self.sigma, self.phi):
            pts.update(singular_points(e, self.domain))
        self.split_points = tuple(sorted(pts))
        self._measures = None
        self._admissibility = None

    @property
    def p(self) -> Expr:
        return self.vp.p

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
    params = params or {}
    p = parse(p, params) if isinstance(p, str) else p
    u = parse(u, params) if isinstance(u, str) else u
    sigma = parse(sigma, params) if isinstance(sigma, str) else sigma
    vp = validate_exponent(p, domain)
    if phi is None:
        phi = negative_divergence_expr(u, p)
    elif isinstance(phi, str):
        phi = parse(phi, params)
    return HardyInstance(domain, vp, u, phi, sigma, float(beta), params=params, **kwargs)


def negative_divergence_expr(u: Expr, p: Expr) -> Expr:
    """-(|u'|^(p-2) u')' expanded where u is twice differentiable:
    -|u'|^(p-2) * (p' u' log|u'| + (p-1) u'')."""
    up = differentiate(u)
    upp = differentiate(up)
    dp = differentiate(p)
    inner = mul(mul(dp, up), log(abs_(up))) + mul(sub(p, const(1.0)), upp)
    return neg(mul(pow_(abs_(up), sub(p, const(2.0))), inner))


def lhs_core_expr(inst: HardyInstance) -> Expr:
    """Density core of the left-hand weight for twice-differentiable u:
    sigma (u')^2 - p' u u' log|u'| - (p-1) u u''.

    Where Phi is the exact negative divergence term this equals
    (Phi u + sigma |u'|^p) / |u'|^(p-2) pointwise.
    """
    u, up, upp = inst.u, inst.u_prime, inst.u_second
    p, dp, sigma = inst.vp.p, inst.p_prime, inst.sigma
    t1 = mul(sigma, pow_(up, const(2.0)))
    t2 = mul(mul(dp, mul(u, up)), log(abs_(up)))
    t3 = mul(sub(p, const(1.0)), mul(u, upp))
    return sub(sub(t1, t2), t3)


def pointwise_condition_expr(inst: HardyInstance) -> Expr:
    """Phi u + sigma |u'|^p, the pointwise admissibility requirement."""
    return mul(inst.phi, inst.u) + mul(inst.sigma, pow_(abs_(inst.u_prime), inst.vp.p))


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
    """Grid verdict on ``e >= 0``, within ``POINTWISE_TOL`` relative to the
    largest sampled magnitude: sampled at ``ADMISSIBILITY_GRID`` points plus
    small offsets around the expression's singular points."""
    xs, vs, skipped = _sample(e, _sample_points(interval, singular_points(e, interval)))
    if not len(vs):
        return ConditionReport(name, INDETERMINATE, math.nan, None, skipped)
    i = int(np.argmin(vs))
    worst = float(vs[i])
    verdict = HOLDS if worst >= -POINTWISE_TOL * max(1.0, float(np.abs(vs).max())) else VIOLATED
    witness = float(xs[i]) if verdict == VIOLATED else None
    return ConditionReport(name, verdict, worst, witness, skipped)


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
        return ConditionReport("beta-margin", INDETERMINATE, math.nan, None, skipped)
    margin = inst.beta - float(vs[i])
    verdict = HOLDS if margin >= BETA_MARGIN else VIOLATED
    witness = float(xs[i]) if verdict == VIOLATED else None
    return ConditionReport("beta-margin", verdict, margin, witness, skipped)


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
    """The pair of weights induced by the instance.

    Left weight: (Phi u + sigma |u'|^p) u^(-beta-1) restricted to {u > 0}.
    Right weight: ((p-1)/(beta-sigma))^(p-1) * 2^((p-1) chi[p' != 0])
    * u^(p-beta-1) restricted to {u' != 0}.  The factor 2 appears exactly
    where p' is nonzero; for a constant exponent it is absent.
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
        pow_(u, neg(beta) - const(1.0)),
    )
    mu1 = WeightedMeasure(
        density=mu1_density,
        split_points=splits,
        provenance="lhs-weight",
        indicators=(("positive", u),),
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
        provenance="rhs-weight",
        indicators=(("nonzero", up),),
    )
    inst._measures = (mu1, mu2)
    return inst._measures


def _is_zero_const(e: Expr) -> bool:
    return e.kind == "const" and e.value == 0.0


def constant_exponent_measures(inst: HardyInstance) -> tuple[WeightedMeasure, WeightedMeasure]:
    """Constant-exponent form of the weights, with the constant moved to the
    left: ((beta-sigma)/(p-1))^(p-1) (Phi u + sigma |u'|^p) u^(-beta-1) on
    {u > 0} against plain u^(p-beta-1) on {u' != 0}."""
    if inst.vp.p.kind != "const":
        raise InvalidParamsError("constant-exponent measures need a constant p")
    mu1, mu2 = build_measures(inst)
    p, sigma, beta = inst.vp.p, inst.sigma, const(inst.beta)
    factor = pow_(div(sub(beta, sigma), sub(p, const(1.0))), sub(p, const(1.0)))
    mu1_61 = WeightedMeasure(
        density=mul(factor, mu1.density),
        split_points=mu1.split_points,
        provenance="lhs-weight-constant-exponent",
        indicators=mu1.indicators,
    )
    mu2_61 = WeightedMeasure(
        density=pow_(inst.u, sub(sub(p, beta), const(1.0))),
        split_points=mu2.split_points,
        provenance="rhs-weight-constant-exponent",
        indicators=mu2.indicators,
    )
    return mu1_61, mu2_61


# ---------------------------------------------------------------------------
# presets


def _as_interval(value, default: Interval) -> Interval:
    if value is None:
        return default
    if isinstance(value, Interval):
        return value
    if isinstance(value, str):
        from .expr import interval_from_text

        return interval_from_text(value)
    return Interval(*value)


def _require_positive_domain(domain: Interval, name: str):
    if domain.lo < 0:
        raise InvalidParamsError(f"{name} needs a domain inside the positive half-line")


def preset(name: str, **params) -> HardyInstance:
    """Construct a named instance family with its admissibility condition
    attached.  See ``docs/config.md`` for the parameter list of each preset.
    """
    if name not in _PRESETS:
        raise InvalidParamsError(f"unknown preset {name!r}")
    return _PRESETS[name](**params)


def preset_names() -> list[str]:
    return list(_PRESETS)


def preset_parameters(name: str) -> list[str]:
    """The parameters a preset takes by name; any other keyword argument is
    bound as a named parameter inside its expressions."""
    if name not in _PRESETS:
        raise InvalidParamsError(f"unknown preset {name!r}")
    params = inspect.signature(_PRESETS[name]).parameters.values()
    return [p.name for p in params if p.kind is not inspect.Parameter.VAR_KEYWORD]


def _parse_arg(value, params=None):
    if isinstance(value, Expr):
        return value
    if isinstance(value, str):
        return parse(value, params)
    return const(float(value))


def _preset_distance(M=1.0, p="2", sigma="1", beta=2.0, domain=None, **extra):
    M = float(M)
    if M <= 0:
        raise InvalidParamsError(f"M must be positive, got {M!r}")
    domain = _as_interval(domain, Interval(-M, M))
    if domain.lo < -M or domain.hi > M:
        raise InvalidParamsError("domain must sit inside (-M, M)")
    bind = {"M": M, **extra}
    sigma_e = _parse_arg(sigma, bind)
    inst = make_instance(
        domain, _parse_arg(p, bind), parse("M - abs(x)", {"M": M}),
        const(0.0), sigma_e, beta,
        params={"M": M, **extra},
        condition=sigma_e,
        condition_name="sigma-nonnegative",
        preset="cor51",
    )
    return inst


def _power_condition(alpha: float, p: Expr, sigma: Expr) -> Expr:
    dp = differentiate(p)
    a = const(alpha)
    mid = mul(mul(dp, mul(X, a)), log(abs_(mul(a, pow_(X, const(alpha - 1.0))))))
    return sub(mul(sigma, const(alpha * alpha)), mid) + mul(
        sub(p, const(1.0)), const(alpha * (1.0 - alpha))
    )


def _preset_power(alpha=2.0, p="x+3", sigma="2", beta=3.0, domain=None, **extra):
    alpha = float(alpha)
    domain = _as_interval(domain, Interval(0.0, 1.0))
    _require_positive_domain(domain, "cor53")
    bind = {"alpha": alpha, **extra}
    p_e, sigma_e = _parse_arg(p, bind), _parse_arg(sigma, bind)
    cond = _power_condition(alpha, p_e, sigma_e)
    inst = make_instance(
        domain, p_e, pow_(X, const(alpha)), None, sigma_e, beta,
        params={"alpha": alpha, **extra},
        condition=cond,
        condition_name="power-weight-condition",
        preset="cor53",
        vacuous=_is_zero_const(cond),
    )
    return inst


def _preset_reciprocal(a=1.0, p="2", sigma="2.5", beta=3.5, domain=None, **extra):
    a = float(a)
    if a <= 0:
        raise InvalidParamsError(f"a must be positive, got {a!r}")
    domain = _as_interval(domain, Interval(0.1, 10.0))
    _require_positive_domain(domain, "cor54")
    bind = {"a": a, **extra}
    p_e, sigma_e = _parse_arg(p, bind), _parse_arg(sigma, bind)
    dp = differentiate(p_e)
    cond = sigma_e + mul(mul(dp, X), log(div(const(a), pow_(X, const(2.0))))) - mul(
        const(2.0), p_e
    ) + const(2.0)
    inst = make_instance(
        domain, p_e, div(const(a), X), None, sigma_e, beta,
        params={"a": a, **extra},
        condition=cond,
        condition_name="reciprocal-weight-condition",
        preset="cor54",
        vacuous=_is_zero_const(cond),
    )
    return inst


def _preset_exponential(p="2", sigma="1", beta=2.0, domain=None, **extra):
    domain = _as_interval(domain, Interval(-5.0, 5.0))
    bind = dict(extra)
    p_e, sigma_e = _parse_arg(p, bind), _parse_arg(sigma, bind)
    dp = differentiate(p_e)
    cond = sigma_e - mul(dp, X) - p_e + const(1.0)
    inst = make_instance(
        domain, p_e, exp(X), None, sigma_e, beta,
        params=dict(extra),
        condition=cond,
        condition_name="exponential-weight-condition",
        preset="cor55",
        vacuous=_is_zero_const(cond),
    )
    return inst


def _preset_power_normalized(a=1.0, p="x+2", beta=5.0, domain=None, A=None, **extra):
    a = float(a)
    if a <= 0:
        raise InvalidParamsError(f"a must be positive, got {a!r}")
    domain = _as_interval(domain, Interval(0.0, 1.0))
    _require_positive_domain(domain, "cor64")
    bind = {"a": a, "beta": float(beta), **extra}
    p_e = _parse_arg(p, bind)
    dp = differentiate(p_e)
    sigma_e = sub(const(float(beta)), mul(const(2.0 / a), sub(p_e, const(1.0))))
    cond = (
        const(a * float(beta))
        + mul(const(1.0 - a), mul(mul(X, dp), log(X)))
        + mul(const(a - 3.0), sub(p_e, const(1.0)))
    )
    if A is not None:
        cond = sub(cond, _parse_arg(A, bind))
    inst = make_instance(
        domain, p_e, mul(const(1.0 / a), pow_(X, const(a))), None, sigma_e, beta,
        params={"a": a, **extra},
        condition=cond,
        condition_name="normalized-power-condition",
        preset="cor64",
        vacuous=_is_zero_const(cond),
    )
    return inst


def _preset_constant_exponent(
    p=2.0, alpha=0.5, sigma=None, beta=1.0, domain=None, u=None, phi=None, **extra
):
    domain = _as_interval(domain, Interval(0.0, math.inf))
    bind = {"alpha": float(alpha), **extra}
    p_e = _parse_arg(p, bind)
    if p_e.kind != "const":
        raise InvalidParamsError("constp needs a constant exponent")
    if u is None:
        _require_positive_domain(domain, "constp")
        u_e = pow_(X, const(float(alpha)))
    else:
        u_e = _parse_arg(u, bind)
    if sigma is None:
        # the choice that maximizes the induced weight constant for u = x^alpha
        sigma_e = const(1.0 - 1.0 / (2.0 * float(alpha)))
    else:
        sigma_e = _parse_arg(sigma, bind)
    if sigma_e.kind != "const":
        raise InvalidParamsError("constp needs a constant sigma")
    cond = _power_condition(float(alpha), p_e, sigma_e) if u is None else None
    inst = make_instance(
        domain, p_e, u_e, phi, sigma_e, beta,
        params={"alpha": float(alpha), **extra},
        condition=cond,
        condition_name="power-weight-condition" if cond is not None else "",
        preset="constp",
        vacuous=cond is not None and _is_zero_const(cond),
    )
    return inst


_PRESETS = {
    "cor51": _preset_distance,
    "cor53": _preset_power,
    "cor54": _preset_reciprocal,
    "cor55": _preset_exponential,
    "cor64": _preset_power_normalized,
    "constp": _preset_constant_exponent,
}
