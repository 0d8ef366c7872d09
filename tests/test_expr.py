import math
import struct

import numpy as np
import pytest

from hardylab import expr
from hardylab.errors import EvalDomainError, ParseError, UnknownIdentifierError
from hardylab.expr import (
    X,
    Expr,
    Interval,
    add,
    compile_fn,
    const,
    differentiate,
    evaluate,
    mul,
    parse,
    pow_,
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
    # a tree binds as itself, a subtree of the parsed one
    q = parse("x^2")
    assert parse("q - 1", {"q": q}) == expr.sub(q, const(1.0))


def test_parse_whitespace_insensitive():
    a = parse("1+2 * x ^2")
    b = parse("1 + 2*x^2")
    for x in (-1.5, 0.0, 2.25):
        assert evaluate(a, x) == evaluate(b, x)


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("2 +* x", ParseError, "unexpected token '*' (at position 3)"),
        ("1.2.3", ParseError, "bad numeric literal '1.2.3' (at position 0)"),
        ("1e+", ParseError, "bad numeric literal '1e+' (at position 0)"),
        ("2ex", ParseError, "unexpected token 'name' (at position 1)"),  # no exponent digit
        ("(x + 1", ParseError, "expected ')' (at position 6)"),
        ("x)", ParseError, "unexpected token ')' (at position 1)"),
        ("sinh(x)", UnknownIdentifierError, "unknown function 'sinh' (at position 0)"),
        ("y", UnknownIdentifierError, "unknown identifier 'y' (at position 0)"),
        ("2 + y", UnknownIdentifierError, "unknown identifier 'y' (at position 4)"),
        ("min(x)", ParseError, "min takes exactly 2 arguments (at position 0)"),
        ("exp(x, 1)", ParseError, "exp takes exactly 1 argument (at position 0)"),
        ("x # 2", ParseError, "unexpected character '#' (at position 2)"),
        ("", ParseError, "unexpected token 'end' (at position 0)"),
    ],
)
def test_parse_errors_carry_position(text, error, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert type(info.value) is error
    assert str(info.value) == message


def _neg(a):
    return expr.Expr("neg", (a,))


def _op(kind, a, b):
    return expr.Expr(kind, (a, b))


@pytest.mark.parametrize(
    "text, tree",
    [
        ("2^3^2", const(512.0)),  # 2^(3^2), folded
        ("-x^2", _neg(_op("^", X, const(2.0)))),
        ("-x*2", _op("*", _neg(X), const(2.0))),
        ("2^-x", _op("^", const(2.0), _neg(X))),
        ("1-2-x", _op("-", const(-1.0), X)),
        ("8/x/2", _op("/", _op("/", const(8.0), X), const(2.0))),
        ("--x", _neg(_neg(X))),
        ("+x", X),
        ("x ^ -2 ^ x", _op("^", X, _neg(_op("^", const(2.0), X)))),
    ],
)
def test_parse_precedence_and_associativity(text, tree):
    assert parse(text) == tree


@pytest.mark.parametrize(
    "a, b, folds",
    [
        (6.0, 3.0, True),
        (1.0, 3.0, True),
        (1.0, 0.0, False),  # division by zero
        (1e-300, 1e300, False),  # underflows to 0
        (1e300, 1e-300, False),  # overflows to inf
    ],
)
def test_div_folds_a_finite_nonzero_quotient_of_constants(a, b, folds):
    unfolded = _op("/", const(a), const(b))
    tree = expr.div(const(a), const(b))
    assert tree == (const(a / b) if folds else unfolded)

    def values(q):
        fn = compile_fn(_op("-", _op("*", q, X), X))
        out = []
        for x in (-2.0, 0.0, 0.5, 3.0):
            try:
                out.append(struct.pack("<d", fn(x)))
            except EvalDomainError:
                out.append("domain")
        return out

    assert values(tree) == values(unfolded)


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


def test_roundtrip_of_a_negative_constant_base():
    # -2.0 ^ x reads as -(2.0 ^ x), so a base whose sign bit is set prints
    # in parentheses, also as -0.0 and nested inside an exponent
    rng = np.random.default_rng(5)
    for c in (-2.0, -0.5, -3.0, -0.0):
        for expo in (X, const(2.0), const(3.0), pow_(const(c), X),
                     add(X, pow_(const(c), const(2.0)))):
            e = pow_(const(c), expo)
            for tree in (e, pow_(X, e), mul(const(c), e), pow_(e, const(3.0))):
                back = parse(to_string(tree))
                assert back == tree, to_string(tree)
                for x in [*rng.uniform(-3, 3, size=8), 2.0]:
                    try:
                        v = evaluate(tree, float(x))
                    except EvalDomainError:
                        continue
                    assert struct.pack("<d", evaluate(back, float(x))) == struct.pack("<d", v)


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


def test_an_infinite_constant_exponent_makes_its_base_a_generator():
    # 1e999 reads as inf, which no whole-number test may convert to an int
    generators = []
    expr._singularity_generators(parse("2 + (x - 0.5)^1e999"), generators)
    assert generators == [parse("x - 0.5")]
    assert singular_points(parse("2 + (x - 0.5)^1e999"), Interval(0, 1)) == [0.5]


def test_differentiate_visits_each_node_of_a_unary_chain_once(monkeypatch):
    # a unary node has one argument to differentiate, not two: the calls
    # grow with the depth, not with 2 ** depth
    real = expr.differentiate
    calls = []

    def counting(e):
        calls.append(e)
        return real(e)

    monkeypatch.setattr(expr, "differentiate", counting)
    kinds = ("neg", "exp", "log", "abs", "sgn")
    e = X
    for depth in range(1, 21):
        e = Expr(kinds[depth % len(kinds)], (e,))
        calls.clear()
        counting(e)
        assert len(calls) == depth + 1


def test_singular_scan_scans_each_distinct_generator_once(monkeypatch):
    e = parse("log(abs(x - 0.5)) + abs(x - 0.5)")
    generators = []
    expr._singularity_generators(e, generators)
    assert len(set(generators)) < len(generators)  # x - 0.5 twice
    calls = []
    real = expr._fn_zeros

    def counting(fn, xs, vals):
        calls.append(1)
        return real(fn, xs, vals)

    monkeypatch.setattr(expr, "_fn_zeros", counting)
    assert singular_scan(e, Interval(0, 1)).points == [0.5]
    assert len(calls) == len(set(generators))


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


def test_zero_scan_suspects_a_bracketed_zero_brentq_does_not_converge_on():
    # log(x)*abs(log(x)) crosses zero at 1 with zero slope: brentq stops after
    # its 100 iterations in the cell [0.984375, 1.015625], whose midpoint is
    # suspected, as is the near-zero of |fn| that the dip search refines
    scan = zero_scan(parse("log(x)*abs(log(x))"), Interval(-math.inf, math.inf))
    assert scan.points == []
    assert 1.0 in scan.suspected and all(abs(p - 1.0) < 1e-9 for p in scan.suspected)


def test_zero_scan_reports_only_the_ends_of_a_run_of_exact_zeros():
    # nothing inside a run of exact zeros breaks smoothness
    iv = Interval(0, 1)
    xs = expr._scan_grid(iv)
    run = xs[xs <= 0.5]
    scan = zero_scan(parse("max(x - 0.5, 0)"), iv)
    assert scan.points == [0.0, run[-1]]
    assert scan.suspected == []


def test_zero_scan_still_reports_isolated_zeros_and_sign_changes_next_to_a_run():
    # exact zeros at both ends of the closure and at the grid midpoint
    # 1024.5/4096, a sign change at 0.3 and a run of zeros on [0.5, 0.7]
    iv = Interval(0, 1)
    xs = expr._scan_grid(iv)
    run = xs[(xs >= 0.5) & (xs <= 0.7)]
    e = parse("x * (x - 1) * (x - 0.2501220703125) * (x - 0.3) * max(abs(x - 0.6) - 0.1, 0)")
    scan = zero_scan(e, iv)
    assert scan.points == [0.0, 0.2501220703125, pytest.approx(0.3, abs=1e-14),
                           run[0], run[-1], 1.0]
    assert scan.suspected == []


def _counting_compile(monkeypatch):
    compiled = []
    real = expr.compile_fn
    monkeypatch.setattr(expr, "compile_fn", lambda e: compiled.append(e) or real(e))
    return compiled


def test_a_scan_with_nothing_to_refine_compiles_nothing(monkeypatch):
    # the denominator x + 1 keeps its sign on [0, 1]: no cell is refined
    compiled = _counting_compile(monkeypatch)
    assert singular_scan(parse("1/(x+1)"), Interval(0, 1)).points == []
    assert zero_scan(parse("x + 1"), Interval(0, 1)).points == []
    assert compiled == []


def test_a_scan_compiles_each_generator_once(monkeypatch):
    compiled = _counting_compile(monkeypatch)
    scan = singular_scan(parse("1/((x-0.3)*(x-0.6))"), Interval(0, 1))
    assert scan.points == [pytest.approx(0.3, abs=1e-14), pytest.approx(0.6, abs=1e-14)]
    assert compiled == [parse("(x-0.3)*(x-0.6)")]


def test_compile_fn_matches_evaluate():
    e = parse("min(exp(x), 2)*abs(x-1) + x/(x^2+1)")
    fn = compile_fn(e)
    for x in np.linspace(-2, 2, 37):
        assert fn(float(x)) == evaluate(e, float(x))


def test_interval_basics():
    iv = Interval(0, math.inf)
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
