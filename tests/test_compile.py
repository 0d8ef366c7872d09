"""The generated straight-line code of ``compile_fn`` against the closure
compiler it replaced: identical float bits, or the same first domain error."""

import math
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import cli, expr
from hardylab.errors import EvalDomainError
from hardylab.expr import X, Expr, _pow, compile_fn, evaluate, parse
from hardylab.instance import build_measures
from oracles import lhs_core_expr


def _reference(e: Expr):
    """The node-by-node closure compiler, kept as the reference."""
    kind = e.kind
    if kind == "const":
        v = e.value
        return lambda x: v
    if kind == "x":
        return lambda x: x
    if kind == "neg":
        f = _reference(e.args[0])
        return lambda x: -f(x)
    if kind in ("exp", "log", "abs", "sgn"):
        f = _reference(e.args[0])
        if kind == "exp":
            def _exp(x):
                try:
                    return math.exp(f(x))
                except OverflowError:
                    return math.inf
            return _exp
        if kind == "log":
            def _log(x):
                v = f(x)
                if v <= 0.0:
                    raise EvalDomainError(f"log of nonpositive value {v!r}", x)
                return math.log(v)
            return _log
        if kind == "abs":
            return lambda x: abs(f(x))

        def _sgn(x):
            v = f(x)
            if v > 0.0:
                return 1.0
            if v < 0.0:
                return -1.0
            return 0.0
        return _sgn

    a = _reference(e.args[0])
    b = _reference(e.args[1])
    if kind == "+":
        return lambda x: a(x) + b(x)
    if kind == "-":
        return lambda x: a(x) - b(x)
    if kind == "*":
        return lambda x: a(x) * b(x)
    if kind == "/":
        def _div(x):
            den = b(x)
            if den == 0.0:
                raise EvalDomainError("division by zero", x)
            return a(x) / den
        return _div
    if kind == "^":
        return lambda x: _pow(a(x), b(x), x)
    if kind == "min":
        return lambda x: min(a(x), b(x))
    if kind == "max":
        return lambda x: max(a(x), b(x))
    raise ValueError(f"unknown node kind {kind!r}")


def _bits(v):
    return struct.pack("<d", v)


def _outcome(fn, x):
    try:
        value = fn(x)
    except Exception as err:  # the same exception must come from both sides
        return ("raised", type(err), str(err), _bits(getattr(err, "x", math.nan)))
    # IEEE 754 leaves the sign of a NaN result open, and CPython's is not
    # stable: `a + b` with a = -nan, b = nan gives nan until the interpreter
    # specializes the addition, and -nan after.  So a NaN's sign bit is
    # cleared; its payload and every other value must match bit for bit.
    if math.isnan(value):
        value = math.copysign(value, 1.0)
    return ("value", _bits(value))


def _generated(e):
    # generated afresh, past the cache
    return expr._compile_cached.__wrapped__(e)


def _assert_same(e, xs):
    ref, gen = _reference(e), _generated(e)
    for x in xs:
        assert _outcome(gen, x) == _outcome(ref, x), (e, x)


# every row of the node-kind table; a binary row's statement reads {b}
_BINARY = tuple(kind for kind, row in expr._KINDS.items() if "{b}" in row.statement)
_UNARY = tuple(kind for kind in expr._KINDS if kind not in _BINARY)
_CONSTS = st.sampled_from(
    [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 0.5, 1.0, 2.0, 3.0, -1.5, 1e300]
)


def _unshare(e: Expr) -> Expr:
    """An equal tree that shares no node object."""
    return Expr(e.kind, tuple(_unshare(a) for a in e.args), e.value)


@st.composite
def _trees(draw):
    # each new node takes its arguments from the earlier ones, so subtrees
    # are shared; unsharing keeps them equal but distinct
    nodes = [X] + [Expr("const", value=draw(_CONSTS)) for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(_UNARY + _BINARY))
        arity = 1 if kind in _UNARY else 2
        nodes.append(Expr(kind, tuple(
            nodes[draw(st.integers(0, len(nodes) - 1))] for _ in range(arity)
        )))
    return _unshare(nodes[-1]) if draw(st.booleans()) else nodes[-1]


_POINTS = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.0, 0.5]), st.floats(-4, 4)),
    min_size=1, max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(tree=_trees(), xs=_POINTS)
def test_generated_code_matches_closures(tree, xs):
    _assert_same(tree, xs)


def test_quotient_raises_the_denominators_error_first():
    e = parse("log(x)/log(x-2)")
    _assert_same(e, [0.0, 1.0, 3.0, 4.0])
    with pytest.raises(EvalDomainError, match=r"^log of nonpositive value -1\.0 at x=1\.0$"):
        compile_fn(e)(1.0)
    # both logs are undefined at 0: the denominator's is reported
    with pytest.raises(EvalDomainError, match=r"^log of nonpositive value -2\.0 at x=0\.0$"):
        compile_fn(e)(0.0)


def test_signed_zero_constants_stay_apart():
    product = Expr("*", (Expr("const", value=-0.0), Expr("const", value=0.0)))
    _assert_same(product, [1.0])
    assert _bits(_generated(product)(1.0)) == _bits(-0.0)


def test_cached_functions_tell_signed_zeros_apart(fresh_cache):
    # both trees print as 0*x; only the constant's sign bit differs
    plus, minus = (Expr("*", (Expr("const", value=z), X)) for z in (0.0, -0.0))
    assert plus != minus
    assert math.copysign(1.0, compile_fn(plus)(1.0)) == 1.0
    assert math.copysign(1.0, compile_fn(minus)(1.0)) == -1.0


def test_signed_zero_constants_compile_to_different_functions(fresh_cache):
    plus, minus = Expr("const", value=0.0), Expr("const", value=-0.0)
    assert compile_fn(plus) is not compile_fn(minus)
    assert _bits(compile_fn(plus)(1.0)) == _bits(0.0)
    assert _bits(compile_fn(minus)(1.0)) == _bits(-0.0)


def test_a_deep_tree_hashes_without_recursion():
    # each node stores its hash when built, from its children's stored ones
    e = X
    for _ in range(5 * sys.getrecursionlimit()):
        e = Expr("neg", (e,))
    assert hash(e) == hash(("neg", e.args, b""))


def test_a_nan_constant_finds_its_compiled_function_again(fresh_cache):
    def tree():
        # a new NaN object each time, as parsing makes one per constant
        return Expr("+", (Expr("const", value=float("nan")), X))

    assert tree() == tree() and hash(tree()) == hash(tree())
    first = compile_fn(tree())
    hits = expr._compile_cached.cache_info().hits
    assert compile_fn(tree()) is first
    assert expr._compile_cached.cache_info().hits == hits + 1


@pytest.mark.parametrize("name", sorted(cli.SCENARIOS))
def test_scenario_weights_match_closures(name):
    cfg = cli.load_config(None)
    for section, values in cli.SCENARIOS[name].items():
        cfg.setdefault(section, {}).update(values)
    inst = cli.build_instance(cfg)
    xs = inst.domain.midpoint_grid(97)
    for e in (*(m.density for m in build_measures(inst)), lhs_core_expr(inst)):
        _assert_same(e, xs)


@pytest.fixture
def fresh_cache():
    expr._compile_cached.cache_clear()
    yield
    expr._compile_cached.cache_clear()


def test_shared_subtree_is_computed_once_per_point(fresh_cache, monkeypatch):
    calls = []
    real_exp = math.exp

    def counting_exp(v):
        calls.append(v)
        return real_exp(v)

    monkeypatch.setattr(math, "exp", counting_exp)
    fn = compile_fn(parse("exp(x)*exp(x) + exp(x)"))
    for x in (0.5, -1.25, 3.0):
        calls.clear()
        assert fn(x) == real_exp(x) * real_exp(x) + real_exp(x)
        assert calls == [x]


def test_overflow_gives_inf():
    assert evaluate(parse("exp(1000*x)"), 2.0) == math.inf
    assert evaluate(parse("x^1e300"), 2.0) == math.inf


def test_negative_base_keeps_the_pow_message():
    with pytest.raises(EvalDomainError) as info:
        evaluate(parse("(0-x)^0.5"), 2.0)
    assert str(info.value) == "negative base -2.0 to the power 0.5, not a finite integer at x=2.0"


def test_cache_clear_forces_a_new_function(fresh_cache):
    # the benchmark clears this cache per scenario and per set-up
    assert callable(expr._compile_cached.cache_clear)
    first = compile_fn(parse("x^2 + exp(x)"))
    assert compile_fn(parse("x^2 + exp(x)")) is first
    expr._compile_cached.cache_clear()
    again = compile_fn(parse("x^2 + exp(x)"))
    assert again is not first
    assert again(0.3) == first(0.3)
