"""The generated integrands of ``spaces.modular`` and the Caccioppoli
verification against the closures in ``oracles``: the same value bit for
bit at every point, and the same first domain error.  The Caccioppoli left
side is a modular at the exponent 1, so it is also held against the
oracle's own left integrand where quadrature calls it."""

import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from hardylab import cli, expr, verify
from hardylab.errors import EvalDomainError
from hardylab.expr import Interval, compile_fn, const, parse
from hardylab.instance import WeightedMeasure, build_measures, log_measure
from hardylab.spaces import Integrand, modular, modular_integrand, validate_exponent
from oracles import caccioppoli_integrands, modular_integrand as reference_integrand, tlogt

COROLLARIES = sorted(name for name in cli.SCENARIOS if name.startswith("cor"))


def _outcome(fn, x):
    try:
        value = fn(x)
    except EvalDomainError as err:
        return ("domain", str(err), err.x)
    except (OverflowError, ValueError) as err:
        return (type(err).__name__, str(err))
    # the sign of a NaN result is not stable in CPython (see test_compile)
    if math.isnan(value):
        value = math.copysign(value, 1.0)
    return ("value", struct.pack("<d", value))


def _assert_same(generated, reference, xs):
    for x in xs:
        assert _outcome(generated, x) == _outcome(reference, x), x


def _instance(name):
    cfg = cli.load_config(None)
    for section, values in cli.SCENARIOS[name].items():
        cfg.setdefault(section, {}).update(values)
    return cli.build_instance(cfg)


def _points(inst, tf):
    # inside the support, where quadrature calls the integrands, and across
    # the domain's window, where indicators may fail and densities may leave
    # their domain
    return tf.support.midpoint_grid(61) + inst.domain.window().midpoint_grid(61)


@pytest.mark.parametrize("name", COROLLARIES)
def test_hardy_integrands_match_closures(name):
    inst = _instance(name)
    mu1, mu2 = build_measures(inst)
    mu_log = log_measure(inst)
    p = inst.vp.p
    rng = np.random.default_rng(sum(map(ord, name)))
    for family in ("power_bump", "power_bump", "spline", "spline"):
        tf = verify.random_test_function(inst, rng, family)
        xs = _points(inst, tf)
        pairs = [
            (Integrand(tf._f, tf.support), mu1, tf._f),
            (Integrand(tf._df, tf.support), mu2, tf._df),
            (Integrand(tf._f, tf.support), None, tf._f),
        ]
        if mu_log is not None:
            pairs.append((Integrand(tf._f, tf.support, tlogt=True), mu_log, tlogt(tf._f)))
        for f, mu, fn in pairs:
            _assert_same(modular_integrand(f, p, mu), reference_integrand(fn, p, mu), xs)


def _assert_caccioppoli_left_side(inst, phi, mu1, inside, elsewhere):
    # The left side is modular's integrand at the exponent 1.  It matches the
    # oracle's left integrand bit for bit where phi is finite and positive,
    # which is everywhere quadrature calls it: strictly inside the support of
    # a family that is nonnegative.  The one exception there is a density of
    # -0.0, where phi * -0.0 is -0.0 against the oracle's 0.0: equal values,
    # and a sum of them differs only in the sign of an all-zero integral.
    # Elsewhere the two differ, and nothing integrates them there: a negative
    # phi gives |phi| times the density in place of phi times it, and a NaN
    # or infinite phi where the indicator fails gives ``base * 0.0`` (NaN) in
    # place of 0.0.
    generated = modular_integrand(Integrand(phi._f, Interval(-math.inf, math.inf)), const(1.0), mu1)
    old_lhs = caccioppoli_integrands(inst, phi, mu1)[0]
    density = compile_fn(mu1.density)
    for x in inside:
        if _outcome(generated, x) != _outcome(old_lhs, x):
            d = density(x)
            assert generated(x) == old_lhs(x) == 0.0 == d and math.copysign(1.0, d) < 0.0, x
    _assert_same(generated, reference_integrand(phi._f, const(1.0), mu1), [*inside, *elsewhere])


@pytest.mark.parametrize("name", COROLLARIES)
def test_caccioppoli_integrands_match_closures(name):
    inst = _instance(name)
    mu1, _ = build_measures(inst)
    rng = np.random.default_rng(sum(map(ord, name)))
    for family in ("power_bump", "power_bump", "spline"):
        tf = verify.random_test_function(inst, rng, family)
        xs = _points(inst, tf)
        _assert_same(
            verify._caccioppoli_integrand(inst, tf), caccioppoli_integrands(inst, tf, mu1)[1], xs
        )
        inside = [x for x in xs if tf.support.contains(x)]
        _assert_caccioppoli_left_side(inst, tf, mu1, inside, xs)


def _polynomial(coeffs):
    return lambda x: coeffs[0] + x * (coeffs[1] + x * (coeffs[2] + x * coeffs[3]))


@pytest.mark.parametrize("p_text", ["1.5", "3", "x+2", "2-exp(-x^2)"])
def test_norm_integrands_match_closures(p_text):
    # the exponents of the norm benchmark, with polynomials that change sign,
    # scaled as the norm's bisection scales them, down to overflow
    p = parse(p_text)
    rng = np.random.default_rng(len(p_text))
    xs = Interval(0.0, 1.0).midpoint_grid(101) + [0.25, 0.5]
    for _ in range(4):
        f = _polynomial([float(c) for c in rng.uniform(-1.0, 1.0, 4)])
        for lam in (1.0, 1e-3, 1e-200, 1e200):
            scaled = lambda x, lam=lam: f(x) / lam
            _assert_same(
                modular_integrand(Integrand(scaled, Interval(0.0, 1.0)), p),
                reference_integrand(scaled, p), xs,
            )


_MEASURES = [
    # the indicator fails below 0.5, where the density is not defined
    WeightedMeasure(parse("log(x - 0.3) + 2"), (), ("positive", parse("x - 0.5"))),
    WeightedMeasure(parse("log(x - 0.3) + 2"), (), ("nonzero", parse("max(x - 0.5, 0)"))),
    # a NaN indicator, from 0 * inf past x = 0.71
    WeightedMeasure(parse("x + 1"), (), ("positive", parse("(x - x) * exp(1000 * x)"))),
    WeightedMeasure(parse("x + 1"), (), ("nonzero", parse("(x - x) * exp(1000 * x)"))),
    # an indicator that leaves its domain below 0.2
    WeightedMeasure(parse("x + 1"), (), ("positive", parse("log(x - 0.2)"))),
    # a density sharing the exponent's subtree, and dividing by zero at 0.6
    WeightedMeasure(parse("(x - 0.1)^2 / (x - 0.6)"), (), ("positive", parse("x"))),
]


@pytest.mark.parametrize("mu", _MEASURES)
@pytest.mark.parametrize("p_text", ["2", "3 + log(x - 0.1)", "2 + x^(0-1) - x^(0-1)"])
@pytest.mark.parametrize("f_text", ["x - 0.45", "log(x - 0.05)", "exp(800 * x) - 1"])
def test_indicator_and_domain_errors_match_closures(mu, p_text, f_text):
    p, fn = parse(p_text), compile_fn(parse(f_text))
    xs = [i / 40 for i in range(-4, 45)] + [0.1, 0.6, -0.0, math.nan]
    for tlogt_view in (False, True):
        f = Integrand(fn, Interval(-1.0, 2.0), tlogt=tlogt_view)
        reference = reference_integrand(tlogt(fn) if tlogt_view else fn, p, mu)
        _assert_same(modular_integrand(f, p, mu), reference, xs)


@pytest.mark.parametrize("mu1", _MEASURES)
def test_caccioppoli_short_cuts_match_closures(mu1):
    # expressions that are not an instance's, so that each short-cut of the
    # gradient-side integrand is taken: p = 1 at -0.25 and p <= 0 below
    # -0.75 (a log of a nonpositive value), u <= 0 below -1, where u' leaves
    # its domain below -1.05, u' = 0 at -0.05 and beta - sigma <= 0 above 2/3
    inst = SimpleNamespace(
        vp=SimpleNamespace(p=parse("1.5 + 2 * x")), u=parse("x + 1"),
        u_prime=parse("log(x + 1.05)"), beta=2.0, sigma=parse("3 * x"),
    )
    phi = SimpleNamespace(_f=compile_fn(parse("4 - x * x")), _df=compile_fn(parse("0 - 2 * x")))
    xs = [i / 40 for i in range(-48, 49)] + [-1.05, -0.05, 2 / 3]
    _assert_same(
        verify._caccioppoli_integrand(inst, phi), caccioppoli_integrands(inst, phi, mu1)[1],
        [*xs, math.nan],
    )
    # the left side's indicator short-cuts and domain errors, for a phi that
    # is positive on xs and NaN at NaN
    _assert_caccioppoli_left_side(inst, phi, mu1, xs, [math.nan, 3.0])


@pytest.fixture
def fresh_cache():
    expr._compile_cached.cache_clear()
    yield
    expr._compile_cached.cache_clear()


def test_cache_clear_leaves_no_generated_integrand(fresh_cache):
    p, mu = parse("x + 2"), _MEASURES[0]
    first = modular_integrand(Integrand(math.sin, Interval(0.0, 1.0)), p, mu)
    second = modular_integrand(Integrand(math.cos, Interval(0.0, 1.0)), p, mu)
    # one generated code per (exponent, measure, view), whatever the function
    assert second.__code__ is first.__code__
    expr._compile_cached.cache_clear()
    again = modular_integrand(Integrand(math.sin, Interval(0.0, 1.0)), p, mu)
    assert again.__code__ is not first.__code__
    assert again(0.7) == first(0.7)


def test_a_second_modular_generates_no_code(fresh_cache):
    vp = validate_exponent(parse("x + 2"), Interval(0.0, 1.0))
    modular(Integrand(lambda x: x, vp.domain), vp)
    misses = expr._compile_cached.cache_info().misses
    modular(Integrand(lambda x: 1.0 - x * x, vp.domain), vp)
    assert expr._compile_cached.cache_info().misses == misses
