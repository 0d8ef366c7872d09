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
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np
from scipy.optimize import brentq

from .errors import EvalDomainError, ParseError, UnknownIdentifierError

_FUNCTIONS = ("exp", "log", "abs", "sgn", "min", "max")
_BINARY = ("+", "-", "*", "/", "^")


@dataclass(frozen=True)
class Expr:
    """Immutable expression node.

    ``kind`` is one of ``const``, ``x``, the binary operators ``+ - * / ^``,
    ``neg``, or a function name from the grammar.  Constants store their
    value in ``value``; all other nodes keep children in ``args``.
    """

    kind: str
    args: tuple = ()
    value: float = 0.0

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, other):
        return pow_(self, _coerce(other))

    def __neg__(self):
        return neg(self)

    def __repr__(self):
        return f"Expr({to_string(self)!r})"


X = Expr("x")


def const(v: float) -> Expr:
    return Expr("const", value=float(v))


def _coerce(v) -> Expr:
    if isinstance(v, Expr):
        return v
    return const(v)


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


def exp(a) -> Expr:
    return Expr("exp", (_coerce(a),))


def log(a) -> Expr:
    return Expr("log", (_coerce(a),))


def abs_(a) -> Expr:
    return Expr("abs", (_coerce(a),))


def sgn(a) -> Expr:
    return Expr("sgn", (_coerce(a),))


def min_(a, b) -> Expr:
    return Expr("min", (_coerce(a), _coerce(b)))


def max_(a, b) -> Expr:
    return Expr("max", (_coerce(a), _coerce(b)))


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
    """Compile ``e`` into a plain ``float -> float`` closure.

    Compilation is cached per tree, so repeated evaluation (quadrature,
    grid scans) pays the tree walk only once.
    """
    return _compile_cached(e)


@lru_cache(maxsize=4096)
def _compile_cached(e: Expr) -> Callable[[float], float]:
    kind = e.kind
    if kind == "const":
        v = e.value
        return lambda x: v
    if kind == "x":
        return lambda x: x
    if kind == "neg":
        f = _compile_cached(e.args[0])
        return lambda x: -f(x)
    if kind in ("exp", "log", "abs", "sgn"):
        f = _compile_cached(e.args[0])
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

    a = _compile_cached(e.args[0])
    b = _compile_cached(e.args[1])
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


def evaluate(e: Expr, x: float) -> float:
    """Evaluate ``e`` at ``x``.  Domain violations raise EvalDomainError."""
    return _compile_cached(e)(x)


def eval_grid(e: Expr, xs) -> np.ndarray:
    """``e`` at every point of ``xs`` as one float array, NaN wherever the
    closure of :func:`compile_fn` raises EvalDomainError or returns NaN.

    Arithmetic, ``neg``, ``abs``, ``sgn``, ``min`` and ``max`` give the
    closure's values bit for bit; ``exp``, ``log`` and ``^`` use NumPy's
    routines, which may differ from ``math`` in the last bits.
    """
    xs = np.asarray(xs, dtype=float)
    bad = np.zeros(xs.shape, dtype=bool)
    with np.errstate(all="ignore"):
        vals = _grid(e, xs, bad)
    return np.where(bad, math.nan, vals)


def _grid(e: Expr, xs, bad):
    # the closure evaluates every node, so a domain error at any node marks
    # its points in ``bad``; a NaN that is not a domain error flows through
    # sgn, min and max as it does in the closure
    kind = e.kind
    if kind == "const":
        return np.full(xs.shape, e.value)
    if kind == "x":
        return xs
    a = _grid(e.args[0], xs, bad)
    if kind == "neg":
        return -a
    if kind == "exp":
        return np.exp(a)
    if kind == "log":
        bad |= a <= 0.0
        return np.log(a)
    if kind == "abs":
        return np.abs(a)
    if kind == "sgn":
        return np.where(a > 0.0, 1.0, np.where(a < 0.0, -1.0, 0.0))
    b = _grid(e.args[1], xs, bad)
    if kind == "+":
        return a + b
    if kind == "-":
        return a - b
    if kind == "*":
        return a * b
    if kind == "/":
        bad |= b == 0.0
        return a / b
    if kind == "^":
        bad |= ((a == 0.0) & (b < 0.0)) | ((a < 0.0) & ((b != np.floor(b)) | np.isinf(b)))
        return np.power(a, b)
    if kind == "min":
        return np.where(b < a, b, a)  # Python's min(a, b), NaN included
    if kind == "max":
        return np.where(b > a, b, a)
    raise ValueError(f"unknown node kind {kind!r}")


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
    if kind == "neg":
        return neg(differentiate(e.args[0]))
    if kind == "exp":
        return mul(exp(e.args[0]), differentiate(e.args[0]))
    if kind == "log":
        return div(differentiate(e.args[0]), e.args[0])
    if kind == "abs":
        return mul(sgn(e.args[0]), differentiate(e.args[0]))
    if kind == "sgn":
        return const(0.0)
    a, b = e.args[0], e.args[1] if len(e.args) > 1 else None
    if kind == "+":
        return add(differentiate(a), differentiate(b))
    if kind == "-":
        return sub(differentiate(a), differentiate(b))
    if kind == "*":
        return add(mul(differentiate(a), b), mul(a, differentiate(b)))
    if kind == "/":
        num = sub(mul(differentiate(a), b), mul(a, differentiate(b)))
        return div(num, pow_(b, const(2.0)))
    if kind == "^":
        da = differentiate(a)
        if _is_const(b):
            return mul(mul(b, pow_(a, const(b.value - 1.0))), da)
        db = differentiate(b)
        inner = add(mul(db, log(a)), mul(b, div(da, a)))
        return mul(pow_(a, b), inner)
    if kind in ("min", "max"):
        da, db = differentiate(a), differentiate(b)
        gap = sgn(sub(a, b))
        half = const(0.5)
        if kind == "min":
            return mul(half, sub(add(da, db), mul(gap, sub(da, db))))
        return mul(half, add(add(da, db), mul(gap, sub(da, db))))
    raise ValueError(f"unknown node kind {kind!r}")


# ---------------------------------------------------------------------------
# printing and parsing

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_string(e: Expr) -> str:
    """Render ``e`` in the input grammar; parse(to_string(e)) evaluates
    identically to ``e`` (constants print with full round-trip precision)."""
    return _render(e, 0)


def _render(e: Expr, parent_prec: int) -> str:
    kind = e.kind
    if kind == "const":
        return repr(e.value)
    if kind == "x":
        return "x"
    if kind in ("exp", "log", "abs", "sgn"):
        return f"{kind}({_render(e.args[0], 0)})"
    if kind in ("min", "max"):
        return f"{kind}({_render(e.args[0], 0)}, {_render(e.args[1], 0)})"
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


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.index = 0

    def _scan(self):
        text = self.text
        i = 0
        while i < len(text):
            c = text[i]
            if c.isspace():
                i += 1
                continue
            if c in "+-*/^(),":
                self.tokens.append((c, c, i))
                i += 1
                continue
            if c.isdigit() or c == ".":
                j = i
                seen_e = False
                while j < len(text):
                    ch = text[j]
                    if ch.isdigit() or ch == ".":
                        j += 1
                    elif ch in "eE" and not seen_e and j + 1 < len(text) and (
                        text[j + 1].isdigit() or text[j + 1] in "+-"
                    ):
                        seen_e = True
                        j += 2 if text[j + 1] in "+-" else 1
                    else:
                        break
                try:
                    value = float(text[i:j])
                except ValueError:
                    raise ParseError(f"bad numeric literal {text[i:j]!r}", i)
                self.tokens.append(("num", value, i))
                i = j
                continue
            if c.isalpha() or c == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("name", text[i:j], i))
                i = j
                continue
            raise ParseError(f"unexpected character {c!r}", i)
        self.tokens.append(("end", None, len(text)))

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok


class _Parser:
    def __init__(self, text: str, params):
        self.toks = _Tokenizer(text)
        self.params = params or {}

    def parse(self) -> Expr:
        e = self._sum()
        kind, _, pos = self.toks.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {kind!r}", pos)
        return e

    def _sum(self) -> Expr:
        e = self._term()
        while self.toks.peek()[0] in ("+", "-"):
            op = self.toks.next()[0]
            rhs = self._term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def _term(self) -> Expr:
        e = self._unary()
        while self.toks.peek()[0] in ("*", "/"):
            op = self.toks.next()[0]
            rhs = self._unary()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def _unary(self) -> Expr:
        if self.toks.peek()[0] == "-":
            self.toks.next()
            return neg(self._unary())
        if self.toks.peek()[0] == "+":
            self.toks.next()
            return self._unary()
        return self._power()

    def _power(self) -> Expr:
        base = self._atom()
        if self.toks.peek()[0] == "^":
            self.toks.next()
            # right-associative; exponent may carry a unary sign
            return pow_(base, self._unary())
        return base

    def _atom(self) -> Expr:
        kind, value, pos = self.toks.next()
        if kind == "num":
            return const(value)
        if kind == "(":
            e = self._sum()
            k, _, p = self.toks.next()
            if k != ")":
                raise ParseError("expected ')'", p)
            return e
        if kind == "name":
            if self.toks.peek()[0] == "(":
                return self._call(value, pos)
            if value == "x":
                return X
            if value in self.params:
                return const(float(self.params[value]))
            raise UnknownIdentifierError(f"unknown identifier {value!r}", pos)
        raise ParseError(f"unexpected token {kind!r}", pos)

    def _call(self, name: str, pos: int) -> Expr:
        if name not in _FUNCTIONS:
            raise UnknownIdentifierError(f"unknown function {name!r}", pos)
        self.toks.next()  # '('
        args = [self._sum()]
        while self.toks.peek()[0] == ",":
            self.toks.next()
            args.append(self._sum())
        k, _, p = self.toks.next()
        if k != ")":
            raise ParseError("expected ')'", p)
        if name in ("min", "max"):
            if len(args) != 2:
                raise ParseError(f"{name} takes exactly 2 arguments", pos)
            return Expr(name, tuple(args))
        if len(args) != 1:
            raise ParseError(f"{name} takes exactly 1 argument", pos)
        if name == "abs":
            return abs_(args[0])
        return Expr(name, tuple(args))


def parse(text: str, params: dict | None = None) -> Expr:
    """Parse expression text; named parameters bind to constants now."""
    return _Parser(text, params).parse()


def identifiers(text: str) -> set[str]:
    """The parameter names ``text`` reads: every name other than ``x`` that
    is not called as a function."""
    tokens = _Tokenizer(text).tokens
    return {
        value for (kind, value, _), following in zip(tokens, tokens[1:])
        if kind == "name" and value != "x" and following[0] != "("
    }


# ---------------------------------------------------------------------------
# intervals


@dataclass(frozen=True)
class Interval:
    """Open or half-open interval; infinite endpoints are always open."""

    lo: float
    hi: float
    lo_open: bool = True
    hi_open: bool = True

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not self.lo < self.hi:
            raise ValueError(f"empty interval ({self.lo}, {self.hi})")
        if math.isinf(self.lo) and not self.lo_open:
            object.__setattr__(self, "lo_open", True)
        if math.isinf(self.hi) and not self.hi_open:
            object.__setattr__(self, "hi_open", True)

    @property
    def finite(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def contains(self, x: float) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and self.lo_open:
            return False
        if x == self.hi and self.hi_open:
            return False
        return True

    def window(self, span: float = 64.0) -> "Interval":
        """Finite sub-window used for sampling on unbounded intervals."""
        lo = self.lo if math.isfinite(self.lo) else max(-span, self.hi - 2 * span if math.isfinite(self.hi) else -span)
        hi = self.hi if math.isfinite(self.hi) else min(span, lo + 2 * span)
        if not lo < hi:
            lo, hi = -span, span
        return Interval(lo, hi, self.lo_open, self.hi_open)

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


def interval_from_text(text: str) -> Interval:
    """Parse 'a, b' with 'inf'/'-inf' allowed for the endpoints."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"interval text must be 'lo, hi', got {text!r}")
    return Interval(float(parts[0]), float(parts[1]))


# ---------------------------------------------------------------------------
# singular point detection

# Midpoint samples per scan, for singular and zero scans and exponent extrema.
SCAN_GRID = 4096


@dataclass
class SingularScan:
    """Bracketed singular points plus near-zero locations that could not be
    bracketed by a sign change (reported as suspected)."""

    points: list[float] = field(default_factory=list)
    suspected: list[float] = field(default_factory=list)


def _singularity_generators(e: Expr, acc: list):
    """Collect (expr, reason) whose zeros make ``e`` or its derivative
    non-smooth or undefined."""
    kind = e.kind
    if kind == "/":
        acc.append(e.args[1])
    elif kind == "log":
        acc.append(e.args[0])
    elif kind in ("abs", "sgn"):
        acc.append(e.args[0])
    elif kind in ("min", "max"):
        acc.append(sub(e.args[0], e.args[1]))
    elif kind == "^":
        base, expo = e.args
        if _is_const(expo):
            v = expo.value
            smooth = v >= 2.0 and v == math.floor(v) or v == 1.0 or v == 0.0
            if not smooth:
                acc.append(base)
        else:
            acc.append(base)
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


def _fn_zeros(fn, xs: np.ndarray, vals: np.ndarray) -> tuple[list[float], list[float]]:
    """Bracketed zeros of ``fn`` along the sample points ``xs``, where it
    takes the values ``vals`` (NaN outside its domain), plus grazing
    near-zeros (strict local minima of |fn| that refine to ~0 without a sign
    change) that cannot be bracketed.  The arrays only pick the cells;
    ``brentq`` and the golden-section search refine on the scalar ``fn``."""
    a, b = vals[:-1], vals[1:]
    both = ~(np.isnan(a) | np.isnan(b))
    zero = both & (a == 0.0)
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
            seen.append(float(brentq(fn, lo, hi, xtol=1e-14, rtol=8.9e-16)))
        except (ValueError, EvalDomainError):
            suspected.append(0.5 * (lo + hi))
    if len(vals) and vals[-1] == 0.0:
        seen.append(float(xs[-1]))
    # refine the deepest interior |fn| dips; a dip that reaches (near) zero
    # without a sign change is a grazing zero we cannot bracket.  A NaN
    # neighbour fails the comparisons, so it never makes a dip.
    mag = np.abs(vals)
    dip = both[1:] & ~zero[1:] & ~change[1:] & (mag[:-2] > mag[1:-1]) & (mag[1:-1] <= mag[2:])
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


def zero_scan(e: Expr, interval: Interval) -> SingularScan:
    """Zeros of ``e`` itself on the closure of ``interval``."""
    xs = _scan_grid(interval)
    seen, suspected = _fn_zeros(compile_fn(e), xs, eval_grid(e, xs))
    return _collect_scan(seen, suspected, interval)


def singular_scan(e: Expr, interval: Interval) -> SingularScan:
    generators: list[Expr] = []
    _singularity_generators(e, generators)
    if not generators:
        return SingularScan()
    xs = _scan_grid(interval)
    seen: list[float] = []
    suspected: list[float] = []
    for gen in generators:
        pts, sus = _fn_zeros(compile_fn(gen), xs, eval_grid(gen, xs))
        seen.extend(pts)
        suspected.extend(sus)
    return _collect_scan(seen, suspected, interval)


def _collect_scan(seen, suspected, interval: Interval) -> SingularScan:
    scan = SingularScan()
    in_closure = lambda p: interval.lo <= p <= interval.hi
    scan.points = _dedup(p for p in seen if in_closure(p))
    scan.suspected = _dedup(p for p in suspected if in_closure(p))
    scan.suspected = [p for p in scan.suspected
                      if not any(abs(p - q) < 1e-9 * (1 + abs(q)) for q in scan.points)]
    return scan


def _dedup(points: Iterable[float]) -> list[float]:
    out: list[float] = []
    for p in sorted(points):
        if not out or abs(p - out[-1]) > 1e-12 * (1.0 + abs(p)):
            out.append(p)
    return out
