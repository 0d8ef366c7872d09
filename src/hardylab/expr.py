"""Symbolic expressions in one real variable.

Small expression trees with exact differentiation, fast evaluation and a
round-tripping parser/printer.  The grammar (see ``docs/grammar.md``) covers
infix arithmetic, ``^`` powers with arbitrary expression exponents, and the
functions ``exp``, ``log``, ``abs``, ``sgn``, ``min``, ``max``.  Named
parameters are bound to numeric values at parse time, so stored presets are
closed expressions.

Conventions: ``sgn(0) = 0`` and ``d|x|/dx`` is 0 at the kink; both points are
reported by :func:`singular_points` so quadrature can split there.
"""

from __future__ import annotations

import math
import operator
import re
import struct
import textwrap
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

import numpy as np
from scipy.optimize import brentq

from .errors import EvalDomainError, ParseError, UnknownIdentifierError

_ARITY = {"exp": 1, "log": 1, "abs": 1, "sgn": 1, "min": 2, "max": 2}


@dataclass(frozen=True)
class Expr:
    """Immutable expression node.

    ``kind`` is one of ``const``, ``x``, the binary operators ``+ - * / ^``,
    ``neg``, or a function name from the grammar.  Constants store their
    value in ``value``; all other nodes keep children in ``args``.
    """

    kind: str
    args: tuple = ()
    value: float = field(default=0.0, compare=False)
    # a constant compares and hashes by its bits: 0.0 and -0.0 are different
    # trees, with different compiled functions, and a NaN constant is equal to itself
    bits: bytes = field(default=b"", init=False, repr=False)
    # hash((kind, args, bits)), stored once: compile_fn looks trees up by it
    _hash: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "const":
            object.__setattr__(self, "bits", struct.pack("<d", self.value))
        object.__setattr__(self, "_hash", hash((self.kind, self.args, self.bits)))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Expr({to_string(self)!r})"


X = Expr("x")


def const(v: float) -> Expr:
    return Expr("const", value=float(v))


def _is_const(e: Expr, v=None) -> bool:
    return e.kind == "const" and (v is None or e.value == v)


# Smart constructors fold the trivial algebra that differentiation produces
# (0*f, f+0, f^1, ...).  Anything beyond that is out of scope.

def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Expr("+", (a, b))


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return Expr("-", (a, b))


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Expr("*", (a, b))


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return const(0.0)
    if _is_const(b, 1.0):
        return a
    # a quotient of constants folds when it is finite and nonzero; a zero or
    # infinite constant would let the zero rules above and in mul fold away
    # a term that evaluates to NaN
    if _is_const(a) and _is_const(b) and b.value != 0.0:
        q = a.value / b.value
        if math.isfinite(q) and q != 0.0:
            return const(q)
    return Expr("/", (a, b))


def pow_(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return const(1.0)
    if _is_const(a) and _is_const(b):
        try:
            return const(_pow(a.value, b.value, None))
        except EvalDomainError:
            pass
    return Expr("^", (a, b))


def neg(a: Expr) -> Expr:
    if _is_const(a):
        return const(-a.value)
    return Expr("neg", (a,))


def exp(a: Expr) -> Expr:
    return Expr("exp", (a,))


def log(a: Expr) -> Expr:
    return Expr("log", (a,))


def abs_(a: Expr) -> Expr:
    return Expr("abs", (a,))


def sgn(a: Expr) -> Expr:
    return Expr("sgn", (a,))


# ---------------------------------------------------------------------------
# node kinds


class _Kind(NamedTuple):
    """One node kind's rules in its arguments ``a`` and ``b`` (a unary
    node's ``b`` is its ``a``, and ``db`` its ``da``)."""

    statement: str  # generated scalar code over the names a, b; v names the value
    grid: Callable  # (a, b) -> the values on arrays
    derivative: Callable  # (a, b, da, db) -> the derivative's tree
    domain: Callable | None = None  # (a, b) -> where the scalar code raises EvalDomainError
    kinks: Callable = lambda a, b: ()  # (a, b) -> trees whose zeros are kinks


def _power_derivative(a, b, da, db):
    if _is_const(b):
        return mul(mul(b, pow_(a, const(b.value - 1.0))), da)
    return mul(pow_(a, b), add(mul(db, log(a)), mul(b, div(da, a))))


def _power_kinks(a, b):
    # a zero of the base is no kink under the exponents 0, 1 and whole n >= 2
    v = b.value if _is_const(b) else math.nan
    return () if v >= 2.0 and v.is_integer() or v == 1.0 or v == 0.0 else (a,)


def _min_max(sign: Callable) -> Callable:
    # (da + db -/+ sgn(a - b) (da - db)) / 2, the derivative of min/max
    return lambda a, b, da, db: mul(const(0.5), sign(add(da, db), mul(sgn(sub(a, b)), sub(da, db))))


class _Table(dict):
    def __missing__(self, kind):
        raise ValueError(f"unknown node kind {kind!r}")


# Every node kind but ``const`` and ``x``.  The inline ``pow`` for a positive
# base is what ``_pow`` does there; min and max are Python's, NaN included.
_KINDS = _Table({
    "neg": _Kind("{v} = -{a}", lambda a, b: -a, lambda a, b, da, db: neg(da)),
    "abs": _Kind("{v} = abs({a})", lambda a, b: np.abs(a),
                 lambda a, b, da, db: mul(sgn(a), da), kinks=lambda a, b: (a,)),
    "sgn": _Kind("{v} = 1.0 if {a} > 0.0 else -1.0 if {a} < 0.0 else 0.0",
                 lambda a, b: np.where(a > 0.0, 1.0, np.where(a < 0.0, -1.0, 0.0)),
                 lambda a, b, da, db: const(0.0), kinks=lambda a, b: (a,)),
    "exp": _Kind("try:\n    {v} = exp({a})\nexcept OverflowError:\n    {v} = inf",
                 lambda a, b: np.exp(a), lambda a, b, da, db: mul(exp(a), da)),
    "log": _Kind("if {a} <= 0.0:\n"
                 "    raise EvalDomainError(f'log of nonpositive value {{{a}!r}}', x)\n"
                 "{v} = log({a})",
                 lambda a, b: np.log(a), lambda a, b, da, db: div(da, a),
                 domain=lambda a, b: a <= 0.0, kinks=lambda a, b: (a,)),
    "+": _Kind("{v} = {a} + {b}", operator.add, lambda a, b, da, db: add(da, db)),
    "-": _Kind("{v} = {a} - {b}", operator.sub, lambda a, b, da, db: sub(da, db)),
    "*": _Kind("{v} = {a} * {b}", operator.mul,
               lambda a, b, da, db: add(mul(da, b), mul(a, db))),
    # emit puts _DIVISION_GUARD after the denominator's code, before the numerator's
    "/": _Kind("{v} = {a} / {b}", operator.truediv,
               lambda a, b, da, db: div(sub(mul(da, b), mul(a, db)), pow_(b, const(2.0))),
               domain=lambda a, b: b == 0.0, kinks=lambda a, b: (b,)),
    "^": _Kind("if {a} > 0.0:\n    try:\n        {v} = pow({a}, {b})\n"
               "    except OverflowError:\n        {v} = inf\n"
               "else:\n    {v} = _pow({a}, {b}, x)",
               np.power, _power_derivative, kinks=_power_kinks,
               domain=lambda a, b: ((a == 0.0) & (b < 0.0))
               | ((a < 0.0) & ((b != np.floor(b)) | np.isinf(b)))),
    "min": _Kind("{v} = {b} if {b} < {a} else {a}", lambda a, b: np.where(b < a, b, a),
                 _min_max(sub), kinks=lambda a, b: (sub(a, b),)),
    "max": _Kind("{v} = {b} if {b} > {a} else {a}", lambda a, b: np.where(b > a, b, a),
                 _min_max(add), kinks=lambda a, b: (sub(a, b),)),
})


# ---------------------------------------------------------------------------
# evaluation


def _pow(base: float, expo: float, x) -> float:
    if base == 0.0 and expo < 0.0:
        raise EvalDomainError("0 raised to a negative power", x)
    if base < 0.0 and (not math.isfinite(expo) or expo != math.floor(expo)):
        raise EvalDomainError(f"negative base {base!r} to the power {expo!r}, not a finite integer", x)
    try:
        return math.pow(base, expo)
    except OverflowError:
        sign = -1.0 if (base < 0.0 and int(expo) % 2 == 1) else 1.0
        return sign * math.inf
    except ValueError as err:  # pragma: no cover - guarded above
        raise EvalDomainError(str(err), x) from None


def compile_fn(e: Expr) -> Callable[[float], float]:
    """Compile ``e`` into one straight-line ``float -> float`` function.

    The generated code assigns one local per distinct subtree, so a subtree
    that differentiation repeats is computed once per point.  It makes the
    same ``math`` calls in the same order as evaluating the tree node by
    node, so its values are bit-identical to that and its first domain
    error is the same one: a quotient evaluates its denominator before its
    numerator, every other node its left argument first.  Compilation is
    cached per tree, in the cache that also holds the integrands of
    :func:`compile_integrand`, so repeated evaluation (quadrature,
    refinement) pays the code generation only once.
    """
    return _compile_cached(e)


def compile_integrand(template: str, trees: tuple) -> Callable[..., Callable[[float], float]]:
    """A cached factory ``make(f, df=None)`` of straight-line integrands:
    ``template`` is the body of a function of ``x`` that may call ``f`` and
    ``df``, where ``{k}`` (on an unindented line) is ``trees[k]``, computed
    just before the first line that reads it.  Shared subtrees are computed
    once; values and the first domain error are those of a :func:`compile_fn`
    call per placeholder.  Template names must not look like ``v<n>``, ``c<n>``."""
    return _compile_cached(trees, template)


# placed after the denominator and before the numerator is evaluated
_DIVISION_GUARD = "if {b} == 0.0:\n    raise EvalDomainError('division by zero', x)"
_SLOT = re.compile(r"\{(\d+)\}")


@lru_cache(maxsize=4096)
def _compile_cached(e, template: str | None = None):
    # one tree to a function, or with a template a tuple of trees to an
    # integrand factory.  Constants are bound by name in the generated
    # function's globals, never written into its source, so inf, nan and
    # -0.0 keep their bits and no text from a config reaches the code.
    env = {
        "exp": math.exp, "log": math.log, "pow": math.pow, "inf": math.inf,
        "_pow": _pow, "EvalDomainError": EvalDomainError,
    }
    lines: list[str] = []
    names: dict = {}  # (kind, argument names) or a constant's bits -> name

    def emit(node: Expr) -> str:
        # the statements for ``node``, unless an equal subtree has emitted
        # them, in the order node-by-node evaluation runs them; returns the
        # name that holds its value
        kind = node.kind
        if kind == "x":
            return "x"
        if kind == "const":
            key = node.bits
            if key not in names:
                names[key] = f"c{len(names)}"
                env[names[key]] = node.value
            return names[key]
        row = _KINDS[kind]
        if kind == "/":
            b = emit(node.args[1])
            guard_at = len(lines)
            a = emit(node.args[0])
        else:
            a = emit(node.args[0])
            b = emit(node.args[1]) if len(node.args) > 1 else a
        key = (kind, a, b)
        if key not in names:
            v = names[key] = f"v{len(names)}"
            if kind == "/":
                lines.insert(guard_at, _DIVISION_GUARD.format(b=b))
            lines.append(row.statement.format(v=v, a=a, b=b))
        return names[key]

    trees = (e,) if template is None else e
    slots = [None] * len(trees)
    for line in (template or "return {0}").splitlines():
        for k in _SLOT.findall(line):
            slots[int(k)] = emit(trees[int(k)])
        lines.append(line.format(*slots))
    source = "def fn(x):\n" + textwrap.indent("\n".join(lines), "    ")
    if template is not None:
        source = "def make(f, df=None):\n" + textwrap.indent(source + "\nreturn fn", "    ")
    exec(compile(source, "<hardylab.expr>", "exec"), env)
    return env["fn" if template is None else "make"]


def evaluate(e: Expr, x: float) -> float:
    """Evaluate ``e`` at ``x``.  Domain violations raise EvalDomainError."""
    return _compile_cached(e)(x)


def eval_grid(e: Expr, xs) -> np.ndarray:
    """``e`` at every point of ``xs`` as one float array, NaN wherever the
    function of :func:`compile_fn` raises EvalDomainError or returns NaN.

    Arithmetic, ``neg``, ``abs``, ``sgn``, ``min`` and ``max`` give its
    values bit for bit; ``exp``, ``log`` and ``^`` use NumPy's
    routines, which may differ from ``math`` in the last bits.
    """
    xs = np.asarray(xs, dtype=float)
    bad = np.zeros(xs.shape, dtype=bool)
    with np.errstate(all="ignore"):
        vals = _grid(e, xs, bad)
    return np.where(bad, math.nan, vals)


def _grid(e: Expr, xs, bad):
    # the compiled function evaluates every node, so a domain error at any
    # node marks its points in ``bad``; a NaN that is not a domain error
    # flows through sgn, min and max as it does there
    kind = e.kind
    if kind == "const":
        return np.full(xs.shape, e.value)
    if kind == "x":
        return xs
    row = _KINDS[kind]
    a = _grid(e.args[0], xs, bad)
    b = _grid(e.args[1], xs, bad) if len(e.args) > 1 else a
    if row.domain is not None:
        bad |= row.domain(a, b)
    return row.grid(a, b)


# ---------------------------------------------------------------------------
# differentiation


def differentiate(e: Expr) -> Expr:
    """Exact derivative of ``e`` with respect to x.

    Piecewise primitives use their a.e. derivative: ``abs(f)' = sgn(f) f'``,
    ``sgn' = 0``, and min/max differentiate through the sign of the gap.
    The kink locations are recovered separately by :func:`singular_points`.
    """
    kind = e.kind
    if kind == "const":
        return const(0.0)
    if kind == "x":
        return const(1.0)
    row = _KINDS[kind]
    a, b = e.args[0], e.args[-1]
    da = differentiate(a)
    # a unary node's b is its a: differentiating it twice is exponential in depth
    return row.derivative(a, b, da, da if len(e.args) == 1 else differentiate(b))


# ---------------------------------------------------------------------------
# printing and parsing

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_string(e: Expr) -> str:
    """Render ``e`` in the input grammar with full round-trip precision:
    parse(to_string(e)) evaluates identically to ``e``, unless a constant is
    not finite and prints as ``inf`` or ``nan``, which the grammar does not read."""
    return _render(e, 0)


def _render(e: Expr, parent_prec: int) -> str:
    kind = e.kind
    if kind == "const":
        # a negative base of '^' in parentheses: -2.0 ^ x reads as -(2.0 ^ x)
        negative_base = parent_prec > _PRECEDENCE["^"] and math.copysign(1.0, e.value) < 0
        return f"({e.value!r})" if negative_base else repr(e.value)
    if kind == "x":
        return "x"
    if kind in _ARITY:
        return f"{kind}({', '.join(_render(arg, 0) for arg in e.args)})"
    if kind == "neg":
        body = _render(e.args[0], _PRECEDENCE["neg"])
        text = f"-{body}"
        return f"({text})" if parent_prec > _PRECEDENCE["neg"] else text
    prec = _PRECEDENCE[kind]
    # '-' and '/' are left-associative, '^' right-associative: tighten the
    # vulnerable side so the printed text re-parses with the same shape.
    left = _render(e.args[0], prec if kind != "^" else prec + 1)
    right = _render(e.args[1], prec + 1 if kind != "^" else prec)
    text = f"{left} {kind} {right}"
    return f"({text})" if prec < parent_prec else text


# One token per match, after any whitespace: a number is decimal digits and
# dots with at most one exponent, a name starts with a letter or "_".  Any
# other character is an error, and the match at the end of the text is the
# end token.
_TOKEN = re.compile(
    r"\s*(?:(?P<num>[\d.]+(?:[eE](?=[\d+-])[+-]?[\d.]*)?)|(?P<name>[^\W\d]\w*)"
    r"|(?P<op>[-+*/^(),])|(?P<end>\Z)|(?P<bad>.))"
)


def _tokens(text: str) -> list[tuple]:
    """``(kind, value, position)`` of each token of ``text``, ending with
    ``("end", None, len(text))``; an operator's kind and value are itself."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        value, pos = m[kind], m.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", pos)
        if kind == "num":
            try:
                value = float(value)
            except ValueError:
                raise ParseError(f"bad numeric literal {value!r}", pos) from None
        elif kind == "op":
            kind = value
        elif kind == "end":
            value = None
        tokens.append((kind, value, pos))
    return tokens


_BINARY = {"+": add, "-": sub, "*": mul, "/": div, "^": pow_}


def parse(text: str, params: dict | None = None) -> Expr:
    """Parse expression text; named parameters bind now, a number as a
    constant and an ``Expr`` as that tree.

    Binary operators climb by :data:`_PRECEDENCE`, the printer's table; a
    unary sign takes an operand of the operators that bind tighter than it,
    so ``-x^2`` is ``-(x^2)`` and ``2^-x`` is ``2^(-x)``."""
    tokens = _tokens(text)[::-1]  # pop() takes the next token
    params = params or {}

    def expect_close():
        kind, _, pos = tokens.pop()
        if kind != ")":
            raise ParseError("expected ')'", pos)

    def operand() -> Expr:
        kind, value, pos = tokens.pop()
        if kind in ("+", "-"):
            e = climb(_PRECEDENCE["neg"] + 1)
            return neg(e) if kind == "-" else e
        if kind == "num":
            return const(value)
        if kind == "(":
            e = climb(0)
            expect_close()
            return e
        if kind != "name":
            raise ParseError(f"unexpected token {kind!r}", pos)
        if tokens[-1][0] == "(":
            if value not in _ARITY:
                raise UnknownIdentifierError(f"unknown function {value!r}", pos)
            tokens.pop()
            args = [climb(0)]
            while tokens[-1][0] == ",":
                tokens.pop()
                args.append(climb(0))
            expect_close()
            n = _ARITY[value]
            if len(args) != n:
                plural = "s" if n > 1 else ""
                raise ParseError(f"{value} takes exactly {n} argument{plural}", pos)
            return Expr(value, tuple(args))
        if value == "x":
            return X
        if value in params:
            bound = params[value]
            return bound if isinstance(bound, Expr) else const(bound)
        raise UnknownIdentifierError(f"unknown identifier {value!r}", pos)

    def climb(min_prec: int) -> Expr:
        # '^' is right-associative, the others left-associative
        e = operand()
        while tokens[-1][0] in _BINARY and _PRECEDENCE[tokens[-1][0]] >= min_prec:
            op = tokens.pop()[0]
            prec = _PRECEDENCE[op]
            e = _BINARY[op](e, climb(prec if op == "^" else prec + 1))
        return e

    e = climb(0)
    kind, _, pos = tokens[-1]
    if kind != "end":
        raise ParseError(f"unexpected token {kind!r}", pos)
    return e


def identifiers(text: str) -> set[str]:
    """The parameter names ``text`` reads: every name other than ``x`` that
    is not called as a function."""
    tokens = _tokens(text)
    return {
        value for (kind, value, _), following in zip(tokens, tokens[1:])
        if kind == "name" and value != "x" and following[0] != "("
    }


# ---------------------------------------------------------------------------
# intervals


@dataclass(frozen=True)
class Interval:
    """Open interval (lo, hi); either end may be infinite."""

    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not self.lo < self.hi:
            raise ValueError(f"empty interval ({self.lo}, {self.hi})")

    @property
    def finite(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def contains(self, x: float) -> bool:
        return self.lo < x < self.hi

    def window(self, span: float = 64.0) -> "Interval":
        """Finite sub-window used for sampling on unbounded intervals: an
        infinite left end becomes ``min(hi, 0) - span`` and an infinite right
        end ``max(lo, 0) + span``, so the window lies inside the interval.
        Raises ValueError when the span is lost against a finite end."""
        lo = self.lo if math.isfinite(self.lo) else min(self.hi, 0.0) - span
        hi = self.hi if math.isfinite(self.hi) else max(self.lo, 0.0) + span
        if not lo < hi:
            raise ValueError(
                f"no sampling window of span {span:g} in ({self.lo}, {self.hi}): "
                "the span is lost against the finite end"
            )
        return Interval(lo, hi)

    def midpoint_array(self, n: int) -> np.ndarray:
        """n cell-midpoint samples; never lands on the endpoints."""
        w = self.window()
        h = (w.hi - w.lo) / n
        return w.lo + (np.arange(n) + 0.5) * h

    def midpoint_grid(self, n: int) -> list[float]:
        """:meth:`midpoint_array` as a list of floats."""
        return self.midpoint_array(n).tolist()

    def compact_exhaustion(self, k: int) -> "Interval | None":
        """Points farther than 1/k from the finite boundary and inside (-k, k)."""
        lo = self.lo + 1.0 / k if math.isfinite(self.lo) else -float(k)
        hi = self.hi - 1.0 / k if math.isfinite(self.hi) else float(k)
        lo, hi = max(lo, -float(k)), min(hi, float(k))
        if not lo < hi:
            return None
        return Interval(lo, hi)


# ---------------------------------------------------------------------------
# singular point detection

# Midpoint samples per scan, for singular and zero scans and exponent extrema.
SCAN_GRID = 4096


class SingularScan(NamedTuple):
    """Bracketed singular points plus near-zero locations that could not be
    bracketed by a sign change (reported as suspected)."""

    points: list[float]
    suspected: list[float]


def _singularity_generators(e: Expr, acc: list):
    """Collect the expressions whose zeros make ``e`` or its derivative
    non-smooth or undefined."""
    if e.args:
        acc.extend(_KINDS[e.kind].kinks(e.args[0], e.args[-1]))
    for child in e.args:
        _singularity_generators(child, acc)


def singular_points(e: Expr, interval: Interval) -> list[float]:
    """Sorted interior points of ``interval`` where ``e`` or its derivative is
    non-smooth or a denominator/abs/log argument vanishes."""
    return singular_scan(e, interval).points


def _scan_grid(interval: Interval) -> np.ndarray:
    # scan the closure: endpoint zeros matter for quadrature splitting
    lo = [interval.lo] if math.isfinite(interval.lo) else []
    hi = [interval.hi] if math.isfinite(interval.hi) else []
    return np.concatenate([lo, interval.midpoint_array(SCAN_GRID), hi])


def golden_min(fn, a, b, iters):
    """Golden-section minimum of ``fn`` on (a, b); never evaluates the
    endpoints, and points outside fn's domain count as +inf.  Returns the
    better point of the final pair and its value, which is also the best
    point seen: the search always keeps its best point inside the bracket."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0

    def safe(x):
        try:
            return fn(x)
        except EvalDomainError:
            return math.inf

    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = safe(x1), safe(x2)
    for _ in range(iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = safe(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = safe(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def _bracketed_zeros(fn, xs: np.ndarray, vals: np.ndarray) -> tuple[list[float], list[float]]:
    """Zeros of ``fn`` that its values ``vals`` at the sample points ``xs``
    (NaN outside its domain) bracket: each exact zero, but of a run of them
    only the two ends (nothing inside a run breaks smoothness), and a
    ``brentq`` root in each cell where the sign changes, or the cell's
    midpoint as suspected where the scalar ``fn`` cannot bracket the root or
    ``brentq`` does not converge on it."""
    a, b = vals[:-1], vals[1:]
    both = ~(np.isnan(a) | np.isnan(b))
    zero = both & (a == 0.0)
    zero[1:] &= (a[:-1] != 0.0) | (b[1:] != 0.0)  # not flanked by two zeros
    # compare signs: the product a * b underflows to zero for tiny values
    change = both & (((a < 0.0) & (b > 0.0)) | ((a > 0.0) & (b < 0.0)))
    seen: list[float] = []
    suspected: list[float] = []
    for i in np.flatnonzero(zero | change):
        lo, hi = float(xs[i]), float(xs[i + 1])
        if zero[i]:
            seen.append(lo)
            continue
        try:
            root, info = brentq(fn, lo, hi, xtol=1e-14, rtol=8.9e-16, full_output=True, disp=False)
        except (ValueError, EvalDomainError):
            info = None
        if info is not None and info.converged:
            seen.append(float(root))
        else:
            suspected.append(0.5 * (lo + hi))
    if len(vals) and vals[-1] == 0.0:
        seen.append(float(xs[-1]))
    return seen, suspected


def _fn_zeros(fn, xs: np.ndarray, vals: np.ndarray) -> tuple[list[float], list[float]]:
    """:func:`_bracketed_zeros` plus grazing near-zeros (strict local minima
    of |fn| that refine to ~0 without a sign change) that cannot be
    bracketed.  The arrays only pick the cells; ``brentq`` and the
    golden-section search refine on the scalar ``fn``."""
    seen, suspected = _bracketed_zeros(fn, xs, vals)
    # refine the deepest interior |fn| dips: nonzero samples below their
    # left neighbour and not above their right one, of the same sign.  A dip
    # that reaches (near) zero is a grazing zero we cannot bracket.  A NaN
    # neighbour fails the comparisons, so it never makes a dip.
    mag = np.abs(vals)
    m = mag[1:-1]
    dip = (m > 0.0) & (mag[:-2] > m) & (m <= mag[2:]) & ((vals[1:-1] > 0.0) == (vals[2:] > 0.0))
    dips = np.flatnonzero(dip) + 1
    for i in dips[np.argsort(mag[dips], kind="stable")][:32]:
        local = mag[i - 1] + mag[i + 1]
        x_min, f_min = golden_min(lambda x: abs(fn(x)), float(xs[i - 1]), float(xs[i + 1]), 40)
        if f_min <= 1e-9 * (1.0 + local):
            if f_min == 0.0:
                seen.append(x_min)
            else:
                suspected.append(x_min)
    return seen, suspected


def _compiled_on_first_call(e: Expr) -> Callable[[float], float]:
    """``compile_fn(e)``, compiled when first called: most scans find no
    cell to refine and never call it."""
    fn = None

    def call(x):
        nonlocal fn
        if fn is None:
            fn = compile_fn(e)
        return fn(x)

    return call


def zero_scan(e: Expr, interval: Interval) -> SingularScan:
    """Zeros of ``e`` itself on the closure of ``interval``."""
    return _scan((e,), interval)


def singular_scan(e: Expr, interval: Interval) -> SingularScan:
    """Zeros of ``e``'s singularity generators on the closure of ``interval``."""
    generators: list[Expr] = []
    _singularity_generators(e, generators)
    return _scan(generators, interval)


def _scan(trees, interval: Interval) -> SingularScan:
    """Zeros of the trees on the closure of ``interval``, each distinct tree
    scanned once; no tree asks for no grid, so for no sampling window."""
    if not trees:
        return SingularScan([], [])
    xs = _scan_grid(interval)
    found = [_fn_zeros(_compiled_on_first_call(t), xs, eval_grid(t, xs)) for t in dict.fromkeys(trees)]
    in_closure = lambda p: interval.lo <= p <= interval.hi
    points = _dedup(p for seen, _ in found for p in seen if in_closure(p))
    suspected = [p for p in _dedup(p for _, sus in found for p in sus if in_closure(p))
                 if not any(abs(p - q) < 1e-9 * (1 + abs(q)) for q in points)]
    return SingularScan(points, suspected)


def _dedup(points: Iterable[float]) -> list[float]:
    out: list[float] = []
    for p in sorted(points):
        if not out or abs(p - out[-1]) > 1e-12 * (1.0 + abs(p)):
            out.append(p)
    return out
