import math

import numpy as np
import pytest

from hardylab.errors import EvalDomainError, ParseError, UnknownIdentifierError
from hardylab.expr import (
    Interval,
    compile_fn,
    differentiate,
    evaluate,
    parse,
    singular_points,
    singular_scan,
    to_string,
    zero_scan,
)


def test_parse_gaussian_exponent():
    e = parse("2 - exp(-x^2)")
    assert evaluate(e, 0.0) == 1.0
    assert evaluate(e, 2.0) == pytest.approx(2 - math.exp(-4))


def test_parse_variable():
    e = parse("x")
    assert e.kind == "x"
    assert evaluate(e, 3.25) == 3.25


def test_parse_bound_parameter():
    e = parse("1 + d/(abs(x)+1)", {"d": 3})
    assert evaluate(e, 0.0) == 4.0
    assert evaluate(e, 2.0) == pytest.approx(2.0)


def test_parse_whitespace_insensitive():
    a = parse("1+2 * x ^2")
    b = parse("1 + 2*x^2")
    for x in (-1.5, 0.0, 2.25):
        assert evaluate(a, x) == evaluate(b, x)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse("2 +* x")
    with pytest.raises(UnknownIdentifierError):
        parse("2 + y")
    with pytest.raises(UnknownIdentifierError):
        parse("sinh(x)")
    with pytest.raises(ParseError):
        parse("min(x)")


def test_eval_basics():
    assert evaluate(parse("exp(x)"), 0.0) == 1.0
    assert evaluate(parse("2-exp(-x^2)"), 0.0) == 1.0
    assert evaluate(parse("sgn(x)"), 0.0) == 0.0
    assert evaluate(parse("sgn(x)"), -3.0) == -1.0
    assert evaluate(parse("min(x, 2)"), 5.0) == 2.0
    assert evaluate(parse("max(x, 2)"), 5.0) == 5.0


def test_eval_domain_errors():
    with pytest.raises(EvalDomainError):
        evaluate(parse("log(x)"), -1.0)
    with pytest.raises(EvalDomainError):
        evaluate(parse("1/x"), 0.0)
    with pytest.raises(EvalDomainError):
        evaluate(parse("x^0.5"), -1.0)
    with pytest.raises(EvalDomainError):
        evaluate(parse("x^(-1)"), 0.0)


def test_derivative_of_constant_and_x():
    assert evaluate(differentiate(parse("41.5")), 0.3) == 0.0
    assert evaluate(differentiate(parse("x")), 0.3) == 1.0


def test_derivative_chain_rule_gaussian():
    d = differentiate(parse("2 - exp(-x^2)"))
    for x in (-1.7, -0.2, 0.0, 0.9, 3.1):
        assert evaluate(d, x) == pytest.approx(2 * x * math.exp(-x * x), rel=1e-13)


def test_derivative_of_distance_weight():
    e = parse("M - abs(x)", {"M": 1})
    d = differentiate(e)
    assert to_string(d) == "-sgn(x)"
    assert evaluate(d, 0.4) == -1.0
    assert evaluate(d, -0.4) == 1.0
    assert evaluate(d, 0.0) == 0.0  # kink convention
    assert singular_points(e, Interval(-1, 1)) == [0.0]


def test_derivative_general_power():
    # f(x) = (x+2)^(x)  ->  f' = f * (log(x+2) + x/(x+2))
    e = parse("(x+2)^x")
    d = differentiate(e)
    for x in (0.5, 1.0, 2.5):
        expected = (x + 2) ** x * (math.log(x + 2) + x / (x + 2))
        assert evaluate(d, x) == pytest.approx(expected, rel=1e-12)


def test_roundtrip_bit_identical():
    rng = np.random.default_rng(11)
    texts = [
        "2 - exp(-x^2)",
        "1 + 3/(abs(x)+1)",
        "min(x, 1-x) * max(x^2, exp(x)) - sgn(x-0.5)",
        "-x^2 + (-x)^2 - 2^-x",
        "(x*(1-x))^(-2)",
        "1e-3*x + 2.5E+2",
    ]
    for text in texts:
        e = parse(text)
        back = parse(to_string(e))
        for x in rng.uniform(-3, 3, size=40):
            try:
                v1 = evaluate(e, float(x))
            except EvalDomainError:
                continue
            assert evaluate(back, float(x)) == v1


def test_roundtrip_of_derivatives():
    rng = np.random.default_rng(7)
    for text in ("exp(x)*x^3 - 1/(x^2+1)", "abs(x-1)*min(x,2)"):
        d = differentiate(parse(text))
        back = parse(to_string(d))
        for x in rng.uniform(-2, 2, size=30):
            assert evaluate(back, float(x)) == evaluate(d, float(x))


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return parse("x")
        return parse(repr(float(rng.uniform(-3, 3))))
    op = rng.choice(["+", "-", "*", "/", "^", "exp", "log", "abs", "sgn", "min", "max"])
    a = _random_tree(rng, depth - 1)
    if op in ("exp", "log", "abs", "sgn"):
        return parse(f"{op}({to_string(a)})")
    b = _random_tree(rng, depth - 1)
    if op == "^":
        # keep exponents tame so finite differences stay meaningful
        k = float(rng.choice([0.5, 1.0, 2.0, 3.0, -1.0, -2.0]))
        return parse(f"({to_string(a)})^{k!r}")
    if op in ("min", "max"):
        return parse(f"{op}({to_string(a)}, {to_string(b)})")
    return parse(f"({to_string(a)}) {op} ({to_string(b)})")


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(2024)
    checked = 0
    attempts = 0
    while checked < 1000 and attempts < 30000:
        attempts += 1
        tree = _random_tree(rng, int(rng.integers(1, 6)))
        x = float(rng.uniform(-2, 2))
        try:
            d = differentiate(tree)
            sing = singular_points(tree, Interval(-2.5, 2.5))
        except EvalDomainError:
            continue
        if any(abs(x - s) < 1e-3 for s in sing):
            continue
        h = 1e-6
        try:
            f_plus = evaluate(tree, x + h)
            f_minus = evaluate(tree, x - h)
            dv = evaluate(d, x)
        except EvalDomainError:
            continue
        if not all(map(math.isfinite, (f_plus, f_minus, dv))):
            continue
        fd = (f_plus - f_minus) / (2 * h)
        if abs(fd) > 1e5:  # FD itself unreliable for wild magnitudes
            continue
        assert abs(dv - fd) <= 1e-4 * (1.0 + abs(dv)), to_string(tree)
        checked += 1
    assert checked == 1000


def test_singular_points_examples():
    assert singular_points(parse("abs(x)"), Interval(-1, 1)) == [0.0]
    assert singular_points(parse("log(x-2)"), Interval(0, 5)) == [2.0]
    pts = singular_points(parse("(x*(1-x))^(-2)"), Interval(0, 1))
    assert pts == [0.0, 1.0]


def test_singular_points_polynomial_empty():
    assert singular_points(parse("x^3 - 2*x + 1"), Interval(-2, 2)) == []
    assert singular_points(parse("(1 - x^2)^3"), Interval(-2, 2)) == []


def test_singular_scan_suspected_grazing_zero():
    # the denominator touches zero at 0.3 without a sign change: it cannot
    # be bracketed and is reported as suspected
    scan = singular_scan(parse("1/((x-0.3)^2)"), Interval(-1, 1))
    assert all(abs(p - 0.3) > 1e-6 for p in scan.points)
    assert any(abs(p - 0.3) < 1e-6 for p in scan.suspected)


def test_zero_scan_brackets_a_crossing_of_tiny_values():
    # the grid values are about 1e-200, so their product underflows to -0.0:
    # the crossing is still a sign change, bracketed and refined
    scan = zero_scan(parse("1e-200*(x-0.3)"), Interval(0, 1))
    assert scan.points == [pytest.approx(0.3, abs=1e-14)]
    assert scan.suspected == []


def test_compile_fn_matches_evaluate():
    e = parse("min(exp(x), 2)*abs(x-1) + x/(x^2+1)")
    fn = compile_fn(e)
    for x in np.linspace(-2, 2, 37):
        assert fn(float(x)) == evaluate(e, float(x))


def test_interval_basics():
    iv = Interval(0, math.inf)
    assert iv.lo_open and iv.hi_open
    assert not iv.contains(0.0)
    assert iv.contains(5.0)
    with pytest.raises(ValueError):
        Interval(1, 1)
    grid = Interval(-1, 1).midpoint_grid(4)
    assert grid == [-0.75, -0.25, 0.25, 0.75]
    assert 0.0 not in Interval(-1, 1).midpoint_grid(4096)


def test_interval_compact_exhaustion():
    iv = Interval(0, 1).compact_exhaustion(4)
    assert (iv.lo, iv.hi) == (0.25, 0.75)
    iv = Interval(0, math.inf).compact_exhaustion(64)
    assert (iv.lo, iv.hi) == (1 / 64, 64.0)
