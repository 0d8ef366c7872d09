"""Hardy instances: the data (I, p, u, Phi, sigma, beta), their admissibility
checks, and the weighted measures they induce.

An instance couples a validated variable exponent with a nonnegative
supersolution candidate ``u`` of the inequality ``-(|u'|^(p-2) u')' >= Phi``.
Admissibility asks for pointwise nonnegativity of ``Phi u + sigma |u'|^p``
and a strict gap between ``beta`` and the supremum of ``sigma``; both are
verified on sampling grids, so verdicts are numerical, never proofs.

Presets are the paper's weight families, one row of formulas each in
``_PRESETS``, with the closed-form expression whose nonnegativity is the
family's admissibility condition; ``raw`` takes all six data as given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParamsError, ZeroSetUnresolvedError
from .expr import (
    Expr,
    Interval,
    abs_,
    add,
    compile_fn,
    const,
    differentiate,
    div,
    eval_grid,
    identifiers,
    log,
    mul,
    neg,
    parse,
    pow_,
    sgn,
    singular_points,
    sub,
    to_string,
    zero_scan,
)
from .quadrature import integrate
from .spaces import VariableExponent, WeightedMeasure, validate_exponent

BETA_MARGIN = 1e-9
POINTWISE_TOL = 1e-12
ADMISSIBILITY_GRID = 10_000

HOLDS = "holds-numerically"
VIOLATED = "violated"
INDETERMINATE = "indeterminate"


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
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise InvalidParamsError(f"beta must be finite and positive, got {self.beta!r}")
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
        dwv = w.df(x)
        if dwv == 0.0:
            return 0.0
        return math.copysign(abs(upv) ** (p_fn(x) - 1.0), upv) * dwv

    def rhs_integrand(x):
        wv = w.f(x)
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


@dataclass(frozen=True)
class _Preset:
    """One instance family: its keys with their default texts (``None``
    where required); ``u``, ``phi`` (``None``: the exact negative divergence
    term), ``sigma`` and the closed-form ``condition`` in the grammar over the
    numbers and the trees ``p``, ``dp`` (p'), ``sigma`` and ``A``; the interval
    the domain must lie in, whose ends read the numbers and ``inf`` as the
    domain's do; the numbers that must be positive, trees constant."""

    keys: dict
    u: str
    phi: str | None = None
    sigma: str = "sigma"
    condition: str | None = None
    condition_name: str = ""
    within: str | None = None
    positive: tuple = ()
    constant: tuple = ()


# Corollary 5.3's condition for u = x^alpha, also constp's
_POWER = "sigma*(alpha*alpha) - dp*(x*alpha)*log(abs(alpha*x^(alpha-1))) + (p-1)*(alpha*(1-alpha))"

_PRESETS = {
    "cor51": _Preset(
        {"M": "1", "p": "2", "sigma": "1", "beta": "2", "domain": "-M, M"},
        u="M - abs(x)", phi="0", condition="sigma", condition_name="sigma-nonnegative",
        within="-M, M", positive=("M",),
    ),
    "cor53": _Preset(
        {"alpha": "2", "p": "x+3", "sigma": "2", "beta": "3", "domain": "0, 1"},
        u="x^alpha", condition=_POWER, condition_name="power-weight-condition",
        within="0, inf",
    ),
    "cor54": _Preset(
        {"a": "1", "p": "2", "sigma": "2.5", "beta": "3.5", "domain": "0.1, 10"},
        u="a/x", condition="sigma + dp*x*log(a/x^2) - 2*p + 2",
        condition_name="reciprocal-weight-condition", within="0, inf", positive=("a",),
    ),
    "cor55": _Preset(
        {"p": "2", "sigma": "1", "beta": "2", "domain": "-5, 5"},
        u="exp(x)", condition="sigma - dp*x - p + 1",
        condition_name="exponential-weight-condition",
    ),
    "cor64": _Preset(
        {"a": "1", "p": "x+2", "beta": "5", "domain": "0, 1", "A": "0"},
        u="1/a*x^a", sigma="beta - 2/a*(p - 1)",
        condition="a*beta + (1 - a)*(x*dp*log(x)) + (a - 3)*(p - 1) - A",
        condition_name="normalized-power-condition", within="0, inf", positive=("a",),
    ),
    # sigma's default maximizes the induced weight constant for u = x^alpha
    "constp": _Preset(
        {"p": "2", "alpha": "0.5", "sigma": "1 - 1/(2*alpha)", "beta": "1", "domain": "0, inf"},
        u="x^alpha", condition=_POWER, condition_name="power-weight-condition",
        within="0, inf", constant=("p", "sigma"),
    ),
    "raw": _Preset(
        {"domain": None, "p": None, "u": None, "sigma": None, "beta": None, "phi": "auto"},
        u="u", phi="phi",
    ),
}

_EXPR_KEYS = {"p", "u", "phi", "sigma", "A"}  # keys whose text is an expression of x


def preset(name: str, /, **params) -> HardyInstance:
    """Construct a named instance family with its admissibility condition
    attached; see ``docs/config.md`` for the parameters of each preset.  Any
    other key must be a name that an expression given as text reads (``d`` in
    ``p = "1+d/(abs(x)+1)"``) other than a tree name (``p``, ``u``, ``phi``,
    ``sigma``, ``A``, ``dp``), and is a number like the preset's own; every
    number must be finite.  A text ``domain`` is ``"lo, hi"``, each end a
    constant in the grammar over the numbers and ``inf``.
    """
    if name not in _PRESETS:
        raise InvalidParamsError(f"unknown preset {name!r}")
    row = _PRESETS[name]
    args = {**row.keys, **params}
    missing = [key for key, value in args.items() if value is None]
    if missing:
        raise InvalidParamsError(f"preset {name!r} is missing keys {missing}")
    shadows = [key for key in params if key in _EXPR_KEYS | {"dp"} and key not in row.keys]
    if shadows:
        raise InvalidParamsError(f"key {shadows[0]!r} is not a parameter of preset {name!r}, "
                                 "and the formulas keep that name for a tree")
    exprs = _EXPR_KEYS & row.keys.keys()
    # raw's phi = auto is the exact negative divergence term, not an expression
    auto = {"phi"} if str(args.get("phi")).strip().lower() == "auto" else set()
    read = set(row.keys)
    for key in (exprs - auto) & params.keys():
        if isinstance(params[key], str):
            read |= identifiers(params[key])
    unread = [key for key in params if key not in read]
    if unread:
        raise InvalidParamsError(f"key {unread[0]!r} is not a parameter of preset {name!r}, "
                                 "and no expression reads it")

    numbers = {key: float(value) for key, value in args.items() if key not in exprs | {"domain"}}
    for key, value in numbers.items():
        if not math.isfinite(value) or key in row.positive and not value > 0:
            asks = "finite and positive" if key in row.positive else "finite"
            raise InvalidParamsError(f"{key} must be {asks}, got {value!r}")

    def interval(text):  # "lo, hi", each end a constant in the grammar over the numbers and inf
        ends = [parse(end, {**numbers, "inf": math.inf}) for end in text.split(",")]
        if len(ends) != 2 or any(end.kind != "const" for end in ends):
            raise InvalidParamsError(f"a domain is two constant ends 'lo, hi', got {text!r}")
        return Interval(ends[0].value, ends[1].value)

    domain = interval(args["domain"]) if isinstance(args["domain"], str) else args["domain"]
    if row.within is not None:
        within = interval(row.within)
        if domain.lo < within.lo or domain.hi > within.hi:
            raise InvalidParamsError(f"{name} needs a domain in ({within.lo:g}, {within.hi:g})")

    trees = {key: _parse_arg(args[key], numbers) for key in exprs - auto}
    for key in row.constant:
        if trees[key].kind != "const":
            raise InvalidParamsError(f"{key} must be constant, got {to_string(trees[key])}")
    names = {**numbers, **trees, "dp": differentiate(trees["p"])}
    names["sigma"] = parse(row.sigma, names)
    phi = None if row.phi is None or auto else parse(row.phi, names)
    return make_instance(
        domain, trees["p"], parse(row.u, names), phi, names["sigma"], numbers["beta"],
        params={key: value for key, value in numbers.items() if key != "beta"},
        condition=row.condition and parse(row.condition, names),
        condition_name=row.condition_name,
        preset=name,
    )


def preset_names() -> list[str]:
    return list(_PRESETS)
