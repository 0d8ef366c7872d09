import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate as sci_integrate

from hardylab import spaces
from hardylab.errors import ExponentRangeError, IntegrabilityProbeError, NoFiniteBracketError
from hardylab.expr import Interval, parse
from hardylab.spaces import luxemburg_norm, modular, validate_exponent


def test_validate_affine_exponent():
    vp = validate_exponent(parse("x+3"), Interval(0, 2))
    assert vp.p_minus == pytest.approx(3.0, abs=1e-6)
    assert vp.p_plus == pytest.approx(5.0, abs=1e-6)
    assert vp.numerical


def test_validate_constant_exponent():
    vp = validate_exponent(parse("2"), Interval(0, 1))
    assert (vp.p_minus, vp.p_plus) == (2.0, 2.0)
    assert not vp.numerical


def test_validate_rejects_p_equal_one():
    with pytest.raises(ExponentRangeError):
        validate_exponent(parse("1"), Interval(0, 1))
    with pytest.raises(ExponentRangeError):
        validate_exponent(parse("1 + 0*x"), Interval(0, 1))


def test_validate_rejects_unbounded_exponent():
    with pytest.raises(ExponentRangeError):
        validate_exponent(parse("exp(x)"), Interval(0, math.inf))
    with pytest.raises(ExponentRangeError):
        validate_exponent(parse("1/x"), Interval(0, 1e-8))


def test_validate_accepts_exponent_with_isolated_unit_dip():
    # inf over the open interval is 1, attained only at the interior point 0;
    # the grid check samples strictly between landmarks and must accept
    vp = validate_exponent(parse("2-exp(-x^2)"), Interval(-1, 1))
    assert 1.0 <= vp.p_minus < 1.001
    assert vp.p_plus == pytest.approx(2 - math.exp(-1), abs=1e-6)


def test_integrability_probe_failure():
    # p grows fast enough that p^p overflows on the compact exhaustion
    with pytest.raises((IntegrabilityProbeError, ExponentRangeError)):
        validate_exponent(parse("exp(x^2)"), Interval(0, 64))


def test_modular_trivial_cases():
    vp = validate_exponent(parse("2"), Interval(0, 1))
    assert modular(parse("0"), vp).value == 0.0
    assert modular(parse("1"), vp).value == pytest.approx(1.0, abs=1e-10)
    assert modular(parse("x"), vp).value == pytest.approx(1 / 3, rel=1e-9)


def test_modular_with_callable():
    vp = validate_exponent(parse("2"), Interval(0, 1))
    r = modular(lambda x: x * x, vp)
    assert r.value == pytest.approx(1 / 5, rel=1e-9)


def test_luxemburg_constant_on_unit_domain():
    for p_text in ("2", "x+2", "1.5 + exp(-x)"):
        vp = validate_exponent(parse(p_text), Interval(0, 1))
        assert luxemburg_norm(parse("3.7"), vp) == pytest.approx(3.7, rel=1e-9)


def test_luxemburg_classical_l2():
    vp = validate_exponent(parse("2"), Interval(0, 1))
    assert luxemburg_norm(parse("x"), vp) == pytest.approx(1 / math.sqrt(3), rel=1e-9)


def test_luxemburg_zero():
    vp = validate_exponent(parse("2"), Interval(0, 1))
    assert luxemburg_norm(parse("0"), vp) == 0.0


def test_luxemburg_no_finite_bracket():
    # modular of f/lambda along (0,1) with a non-integrable core stays infinite
    vp = validate_exponent(parse("3"), Interval(0, 1))
    f = lambda x: x ** -2.0
    with pytest.raises(NoFiniteBracketError):
        luxemburg_norm(f, vp)


@pytest.mark.parametrize("p_text, power", [("x+2", -2.0), ("3", -0.5)])
def test_luxemburg_divergent_modular(p_text, power):
    # |x^power|^p is not integrable on (0,1): the modular overflows for
    # x^-2 and is flagged divergent with a finite value for x^-0.5, p = 3
    vp = validate_exponent(parse(p_text), Interval(0, 1))
    with pytest.raises(NoFiniteBracketError):
        luxemburg_norm(lambda x: x ** power, vp)


def test_norm_modular_calls(monkeypatch):
    calls = []
    real = spaces.modular

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(spaces, "modular", counting)
    vp = validate_exponent(parse("2"), Interval(0, 1))
    assert luxemburg_norm(lambda x: 1.0 + x, vp) == pytest.approx(math.sqrt(7 / 3), rel=1e-9)
    assert len(calls) == 1

    calls.clear()
    vp = validate_exponent(parse("x+2"), Interval(0, 1))
    norm = luxemburg_norm(lambda x: 1.0 + math.sin(3 * x), vp)
    assert norm > 0
    assert len(calls) <= 10


def test_norm_small_modular_constant_exponent():
    # modular(f) ~ 1e-13 sits at the absolute quadrature floor, so
    # modular(f)^(1/p) alone is off by about 2e-4 here
    vp = validate_exponent(parse("3"), Interval(0, 1))
    f = lambda x: 1e-4 * (x - 0.61) * (1.0 + x * x)
    exact = sci_integrate.quad(
        lambda x: abs(f(x)) ** 3, 0.0, 1.0, points=[0.61], epsabs=0.0, epsrel=1e-13,
    )[0] ** (1 / 3)
    assert luxemburg_norm(f, vp) == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("narrowed", ["p_plus", "p_minus"])
def test_norm_bracket_widening(narrowed):
    # Understated extrema move the bracket off the root: with p_plus = 2.1
    # the norm of 3.7 lies below it, with p_minus = 2.9 above it.
    vp = validate_exponent(parse("x+2"), Interval(0, 1))
    if narrowed == "p_plus":
        wrong = dataclasses.replace(vp, p_plus=vp.p_minus + 0.1)
    else:
        wrong = dataclasses.replace(vp, p_minus=vp.p_plus - 0.1)
    assert luxemburg_norm(parse("3.7"), wrong) == pytest.approx(3.7, rel=1e-9)
    f = lambda x: 1.0 + math.sin(3 * x)
    assert luxemburg_norm(f, wrong) == pytest.approx(luxemburg_norm(f, vp), rel=1e-9)


def _random_poly(rng):
    coeffs = rng.uniform(-2, 2, size=int(rng.integers(1, 5)))

    def f(x):
        return float(sum(c * x ** k for k, c in enumerate(coeffs)))

    return f


def test_constant_exponent_consistency():
    rng = np.random.default_rng(31)
    for p in (1.5, 2.0, 3.0):
        vp = validate_exponent(parse(repr(p)), Interval(0, 1))
        for _ in range(7):
            f = _random_poly(rng)
            m = modular(f, vp).value
            if m < 1e-12:
                continue
            assert luxemburg_norm(f, vp) == pytest.approx(m ** (1 / p), rel=1e-6)


def test_homogeneity():
    rng = np.random.default_rng(17)
    vp = validate_exponent(parse("x+2"), Interval(0, 1))
    for _ in range(5):
        f = _random_poly(rng)
        base = luxemburg_norm(f, vp)
        if base < 1e-9:
            continue
        for c in (0.25, 3.0):
            g = lambda x: c * f(x)
            assert luxemburg_norm(g, vp) == pytest.approx(c * base, rel=1e-6)


def test_unit_ball_property():
    vp = validate_exponent(parse("x+2"), Interval(0, 1))
    f = lambda x: 1.0 + math.sin(3 * x)
    norm = luxemburg_norm(f, vp)
    assert norm > 0
    r = modular(lambda x: f(x) / norm, vp)
    assert r.value == pytest.approx(1.0, abs=1e-4)


def test_norm_objective_monotone():
    vp = validate_exponent(parse("x+2"), Interval(0, 1))
    f = lambda x: 1.0 + x
    lams = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    vals = [modular(lambda x, l=l: f(x) / l, vp).value for l in lams]
    for a, b in zip(vals, vals[1:]):
        assert a >= b - 1e-12
