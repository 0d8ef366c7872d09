"""Reference forms that only the tests use: the two scalar inequalities the
weighted ones rest on, the left weight's density core, and the
constant-exponent form of the weights.  Not collected (no ``test_`` prefix);
test modules import it by name."""

from hardylab.errors import InvalidParamsError
from hardylab.expr import Expr, abs_, const, differentiate, div, log, mul, pow_, sub
from hardylab.instance import HardyInstance, WeightedMeasure, build_measures


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
        indicators=mu1.indicators,
    )
    mu2_61 = WeightedMeasure(
        density=pow_(inst.u, sub(sub(p, beta), const(1.0))),
        split_points=mu2.split_points,
        indicators=mu2.indicators,
    )
    return mu1_61, mu2_61
