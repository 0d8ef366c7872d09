"""Reference forms and lookups that only the tests use: the two scalar
inequalities the weighted ones rest on, the left weight's density core, the
constant-exponent form of the weights, one condition of an admissibility
report, and the integrands as closures around compiled expressions, which
the generated integrands must match bit for bit.  Not collected (no
``test_`` prefix); test modules import it by name."""

import math

from hardylab.errors import InvalidParamsError
from hardylab.expr import Expr, abs_, compile_fn, const, differentiate, div, log, mul, pow_, sub
from hardylab.instance import (
    AdmissibilityReport, ConditionReport, HardyInstance, WeightedMeasure, build_measures,
)


def check_young(s1: float, s2: float, p: float, tau: float) -> float:
    """RHS - LHS of the weighted Young inequality
    s1 s2^(p-1) <= s1^p / (p tau^(p-1)) + (p-1)/p tau s2^p.

    Both sides are assembled from the same x * x^(p-1) products, so the
    equality case (s1 = s2, tau = 1, p = 2) cancels exactly."""
    if s1 < 0 or s2 < 0 or not 1.0 < p or tau <= 0:
        raise ValueError("need s1, s2 >= 0, p > 1, tau > 0")
    lhs = s1 * s2 ** (p - 1.0)
    s1_p = s1 * s1 ** (p - 1.0)
    s2_p = s2 * s2 ** (p - 1.0)
    rhs = s1_p / (p * tau ** (p - 1.0)) + (p - 1.0) / p * tau * s2_p
    return rhs - lhs


def check_sum_power(s1: float, s2: float, p: float) -> float:
    """RHS - LHS of (s1+s2)^p <= 2^((p-1) chi[s1 != 0]) (s1^p + s2^p);
    the factor is exactly 1 when s1 == 0."""
    if s1 < 0 or s2 < 0 or not 1.0 < p:
        raise ValueError("need s1, s2 >= 0, p > 1")
    lhs = (s1 + s2) ** p
    factor = 2.0 ** (p - 1.0) if s1 != 0.0 else 1.0
    return factor * (s1 ** p + s2 ** p) - lhs


def lhs_core_expr(inst: HardyInstance) -> Expr:
    """Density core of the left-hand weight for twice-differentiable u:
    sigma (u')^2 - p' u u' log|u'| - (p-1) u u''.

    Where Phi is the exact negative divergence term this equals
    (Phi u + sigma |u'|^p) / |u'|^(p-2) pointwise.
    """
    u, up, upp = inst.u, inst.u_prime, differentiate(inst.u_prime)
    p, dp, sigma = inst.vp.p, inst.p_prime, inst.sigma
    t1 = mul(sigma, pow_(up, const(2.0)))
    t2 = mul(mul(dp, mul(u, up)), log(abs_(up)))
    t3 = mul(sub(p, const(1.0)), mul(u, upp))
    return sub(sub(t1, t2), t3)


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
        indicator=mu1.indicator,
    )
    mu2_61 = WeightedMeasure(
        density=pow_(inst.u, sub(sub(p, beta), const(1.0))),
        split_points=mu2.split_points,
        indicator=mu2.indicator,
    )
    return mu1_61, mu2_61


def condition(report: AdmissibilityReport, name: str) -> ConditionReport:
    """The report's condition called ``name``."""
    for c in report.conditions:
        if c.name == name:
            return c
    raise KeyError(name)


# ---------------------------------------------------------------------------
# the integrands as closures


def density_fn(mu: WeightedMeasure):
    """The density of ``mu`` where its indicator holds, else 0."""
    dens = compile_fn(mu.density)
    mode, e = mu.indicator
    chk = compile_fn(e)
    # a NaN indicator zeroes a 'positive' density and keeps a 'nonzero' one
    if mode == "positive":
        return lambda x: dens(x) if chk(x) > 0.0 else 0.0
    return lambda x: 0.0 if chk(x) == 0.0 else dens(x)


def tlogt(fn):
    """``t log t`` of fn's value ``t``, extended by 0 for ``t <= 0``."""
    def g(x):
        v = fn(x)
        if v <= 0.0:
            return 0.0
        return v * math.log(v)

    return g


def modular_integrand(fn, p: Expr, mu: WeightedMeasure | None = None):
    """``|fn|^p`` times the density of ``mu``, as ``spaces.modular``
    integrates it."""
    p_fn = compile_fn(p)
    dens = density_fn(mu) if mu is not None else None

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

    return integrand


def caccioppoli_integrands(inst: HardyInstance, phi, mu1: WeightedMeasure):
    """The left and the gradient-side integrand of the Caccioppoli
    inequality for the test function ``phi``."""
    p_fn = compile_fn(inst.vp.p)
    dens1 = density_fn(mu1)
    sigma_fn = compile_fn(inst.sigma)
    u_fn = compile_fn(inst.u)
    up_fn = compile_fn(inst.u_prime)
    beta = inst.beta
    f, df = phi._f, phi._df

    def lhs_integrand(x):
        v = f(x)
        if v == 0.0:
            return 0.0
        d = dens1(x)
        return 0.0 if d == 0.0 else d * v

    def rhs_integrand(x):
        dv = df(x)
        pv = p_fn(x)
        phiv = f(x)
        if phiv <= 0.0 or dv == 0.0:
            return 0.0
        uv = u_fn(x)
        if not uv > 0.0 or up_fn(x) == 0.0:
            return 0.0
        bs = beta - sigma_fn(x)
        if bs <= 0.0:
            return math.inf
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

    return lhs_integrand, rhs_integrand
