"""Singularity-aware adaptive quadrature on finite and infinite intervals.

The integration domain is partitioned at caller-supplied split points.
Panels that touch a flagged singular endpoint (or that were produced by the
infinite-endpoint transform ``x = t/(1-t)``, or that span a very wide dynamic
range) are handled by double-exponential (tanh-sinh) quadrature; smooth
panels use adaptive 7-15 Gauss-Kronrod refinement.  Both rules floor their
error bound at QUADPACK's ``50 eps`` times the integral of ``|f|``.  Panel
results are summed in panel order, so results are deterministic.  Each
tanh-sinh level reuses the integrand values of the coarser levels' nodes, so
``evaluations`` counts distinct integrand calls.  A flagged side's
divergence is judged once, on its level 0 terms, by ``_diverging``.

The integrand contract: ``f`` is called only strictly inside the panels (a
tanh-sinh node that rounds onto an end stops that side), and a call that
raises ``OverflowError`` reads as +inf; other exceptions propagate.

Near a flagged endpoint the integrand is evaluated at plain abscissae, so
endpoint distances below one ulp of the endpoint are not resolvable; for
singular endpoints away from zero this limits attainable absolute accuracy
to roughly ``ulp(endpoint)**(1 + slope)``.  All shipped integrands either
vanish at such endpoints or have their singular endpoint at 0, where
distances stay resolvable down to the denormal range.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

from .expr import Interval

STATUS_CONVERGED = "converged"
STATUS_MAX_DEPTH = "max-depth"
STATUS_DIVERGENT = "divergent-suspected"

_STATUS_RANK = {STATUS_CONVERGED: 0, STATUS_MAX_DEPTH: 1, STATUS_DIVERGENT: 2}

DEFAULT_TOL = 1e-8       # relative
DEFAULT_TOL_ABS = 1e-12  # absolute floor
MAX_DEPTH = 40

_T_MAX = 7.5             # tanh-sinh hard cap on |t|
_WIDE_RATIO = 1e4        # dynamic-range threshold that promotes a panel to DE
# QUADPACK's roundoff floor on a Gauss-Kronrod panel's error, relative to the
# Kronrod sum of |f| (it covers the bias of the 15-digit weights below)
_GK_FLOOR = 50.0 * sys.float_info.epsilon

# 7-15 Gauss-Kronrod rule: (node, gauss weight, kronrod weight) at the centre,
# then at +node and -node for each positive node
_GK15 = ((0.0, 0.417959183673469, 0.209482141084728),) + tuple(
    (sign * node, wg, wk)
    for node, wg, wk in (
        (0.207784955007898, 0.0, 0.204432940075298),
        (0.405845151377397, 0.381830050505119, 0.190350578064785),
        (0.586087235467691, 0.0, 0.169004726639267),
        (0.741531185599394, 0.279705391489277, 0.140653259715525),
        (0.864864423359769, 0.0, 0.104790010322250),
        (0.949107912342759, 0.129484966168870, 0.063092092629979),
        (0.991455371120813, 0.0, 0.022935322010529),
    )
    for sign in (1.0, -1.0)
)


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_bound: float
    evaluations: int
    status: str


ZERO_RESULT = QuadratureResult(0.0, 0.0, 0, STATUS_CONVERGED)


def _gk15(f, a, b):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    g7 = 0.0
    k15 = 0.0
    resabs = 0.0
    for node, wg, wk in _GK15:
        try:
            fx = f(mid + half * node)
        except OverflowError:
            fx = math.inf
        g7 += wg * fx
        k15 += wk * fx
        resabs += wk * abs(fx)
    raw = abs(k15 - g7) * half
    # QUADPACK's estimate, which is raw from raw = 1 on, where (200 raw)^1.5 may overflow
    err = raw if raw >= 1.0 else (min(raw, (200.0 * raw) ** 1.5) if raw > 0 else 0.0)
    err = max(err, _GK_FLOOR * resabs * half)
    return k15 * half, err


def _adaptive_gk(f, a, b, tol_rel, tol_abs):
    """Heap-driven bisection; deterministic via insertion-order tie breaks."""
    value, err = _gk15(f, a, b)
    evals = 15
    if not math.isfinite(value):
        return value, abs(value), evals, STATUS_DIVERGENT
    heap = [(-err, 0, a, b, value, err, 0)]
    counter = 1
    frozen = []  # intervals at max depth, kept out of the refinement heap
    while True:
        total_val = sum(item[4] for item in heap) + sum(item[4] for item in frozen)
        total_err = sum(item[5] for item in heap) + sum(item[5] for item in frozen)
        budget = max(tol_abs, tol_rel * abs(total_val))
        if total_err <= budget or not heap or counter > 4000:
            break
        neg_err, _, lo, hi, val, e, depth = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if depth >= MAX_DEPTH or not lo < mid < hi:
            frozen.append((neg_err, 0, lo, hi, val, e, depth))
            continue
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        evals += 30
        if not (math.isfinite(v1) and math.isfinite(v2)):
            bad = v1 + v2
            return bad, abs(bad), evals, STATUS_DIVERGENT
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1, depth + 1))
        heapq.heappush(heap, (-e2, counter + 1, mid, hi, v2, e2, depth + 1))
        counter += 2
    pieces = sorted(heap + frozen, key=lambda item: item[2])
    value = sum(item[4] for item in pieces)
    err = sum(item[5] for item in pieces)
    budget = max(tol_abs, tol_rel * abs(value))
    status = STATUS_CONVERGED if err <= budget else STATUS_MAX_DEPTH
    return value, err, evals, status


def _tanh_sinh_nodes(t):
    """Offset form of the tanh-sinh map on (-1, 1).

    Returns (delta, weight) where delta = 1 - |u(t)| is the distance of the
    node from the near endpoint, computed without cancellation.
    """
    z = 0.5 * math.pi * math.sinh(t)
    try:
        ez = math.exp(2.0 * z)
    except OverflowError:
        return 0.0, 0.0
    delta = 2.0 / (1.0 + ez)
    sech = 2.0 / (math.exp(z) + math.exp(-z)) if z < 350 else 2.0 * math.exp(-z)
    w = 0.5 * math.pi * math.cosh(t) * sech * sech
    return delta, w


_MAX_LEVEL = 9
_FINE_H = 0.5 ** (_MAX_LEVEL + 1)  # mesh of the finest level
_FINE_K = int(_T_MAX / _FINE_H)    # last node index on the finest mesh
_TAIL_J = int(2.0 / _FINE_H)       # index of t = 2, where tails may be truncated
# (delta, weight) at t = j * _FINE_H; level l reads every 2^(9-l)-th entry,
# since its nodes k * 2^-(l+1) are exact in binary
_NODES = [_tanh_sinh_nodes(j * _FINE_H) for j in range(_FINE_K + 1)]


def _diverging(terms, wall_hit) -> bool:
    """Level 0 of a flagged side diverges when its partial sums at the tail
    marks t = 0.5, 1.0, ..., 4.5, rebuilt from its first nine ``terms``,
    double eight times in a row, or when a node hits the floating-point
    resolution wall (``wall_hit``) while the sums still double or the last
    of those terms is at least 1.6 times the one before.  The second catches
    a logarithmic divergence: the terms of ``1/x`` at 0 grow by nearly
    ``e^0.5 = 1.65`` per mark (1.648 at t = 4.5), while those of an
    integrable ``x^-0.99`` have turned down there (0.94)."""
    firsts = list(itertools.islice(terms.values(), 9))
    marks = [abs(s) for s in itertools.accumulate(firsts)]
    ratios = [hi / lo if lo > 0 else 0.0 for lo, hi in zip(marks, marks[1:])]
    if not ratios:
        return False
    if len(ratios) == 8 and all(r >= 2.0 for r in ratios):
        return True
    return wall_hit and (ratios[-1] >= 2.0 or abs(firsts[-1]) >= 1.6 * abs(firsts[-2]) > 0.0)


def _tanh_sinh(f, a, b, left_singular, right_singular, tol_rel, tol_abs):
    """Double-exponential quadrature on a finite panel.

    Levels halve the mesh in the auxiliary variable; each side's tail is
    truncated once terms decay below the panel tolerance.  Level l + 1's
    even nodes are level l's nodes, so each node's term w * f (and the
    midpoint's value) is kept per panel and every node is evaluated once;
    each level's sum is still formed over all of its nodes in order.  After
    level 0 of a flagged singular side, :func:`_diverging` (or, at any
    level, a non-finite term) flags the panel as holding a non-integrable
    singularity.
    """
    half = 0.5 * (b - a)
    # truncation threshold on a node's actual contribution (term * contrib_scale)
    trunc = max(1e-3 * tol_abs, 1e-280)
    prev = None
    value = 0.0
    err = math.inf
    status = STATUS_MAX_DEPTH

    try:
        fx0 = f(a + half)  # t = 0 node (panel midpoint)
    except OverflowError:
        fx0 = math.inf
    evals = 1
    if not math.isfinite(fx0):
        return fx0, abs(fx0), evals, STATUS_DIVERGENT
    # per side: origin, step (b + (-half)d == b - half*d), flag, and the
    # terms w * f by node index on the finest mesh
    sides = ((a, half, left_singular, {}), (b, -half, right_singular, {}))
    for level in range(_MAX_LEVEL + 1):
        stride = 1 << (_MAX_LEVEL - level)
        contrib_scale = 0.5 ** (level + 1) * half
        total = 0.0
        total += _NODES[0][1] * fx0
        for origin, step, flagged, terms in sides:
            partial = 0.0
            small_streak = 0
            wall_hit = False
            for j in range(stride, _FINE_K + 1, stride):
                term = terms.get(j)
                if term is None:
                    delta, w = _NODES[j]
                    x = origin + step * delta
                    if x <= a or x >= b:
                        # node rounded onto the endpoint: the remaining tail
                        # is below floating-point resolution
                        wall_hit = small_streak == 0
                        break
                    try:
                        fx = f(x)
                    except OverflowError:
                        fx = math.inf
                    evals += 1
                    if not math.isfinite(fx):
                        bad = math.inf if flagged else fx
                        return bad, abs(bad), evals, STATUS_DIVERGENT
                    term = terms[j] = w * fx
                partial += term
                if j >= _TAIL_J and abs(term) * contrib_scale < trunc:
                    small_streak += 1
                    if small_streak >= 3:
                        break
                else:
                    small_streak = 0
            total += partial
            if level == 0 and flagged and _diverging(terms, wall_hit):
                v = total * contrib_scale
                return v, abs(v), evals, STATUS_DIVERGENT

        value = total * contrib_scale
        if not math.isfinite(value):
            return value, abs(value), evals, STATUS_DIVERGENT
        if prev is not None:
            err = abs(value - prev)
            if err <= max(tol_abs, tol_rel * abs(value)):
                status = STATUS_CONVERGED
                break
        prev = value

    # the bound's floor: four times the threshold the tails were cut at, and
    # QUADPACK's roundoff floor on the sum of |w * f| over the kept nodes at
    # the last level's scale; none where every term is 0
    kept = itertools.chain((_NODES[0][1] * fx0,), *(terms.values() for *_, terms in sides))
    try:
        mass = math.fsum(map(abs, kept))
    except OverflowError:
        mass = math.inf
    floor = max(4.0 * trunc, _GK_FLOOR * contrib_scale * mass) if mass else 0.0
    return value, max(err if math.isfinite(err) else abs(value), floor), evals, status


def _wide(a, b) -> bool:
    """True when a panel away from 0 spans more than ``_WIDE_RATIO``."""
    return (a > 0 and b / a > _WIDE_RATIO) or (b < 0 and a / b > _WIDE_RATIO)


def _map_infinite(f, c, sign):
    """``f`` on the side of ``c`` given by ``sign`` (+1 right, -1 left),
    pulled back to (0, 1) by ``x = c + sign * t/(1-t)``."""
    def g(t):
        s = 1.0 - t
        return f(c + sign * (t / s)) / (s * s)
    return g


def _build_panels(f, interval, split_at, endpoint_singular, singular_splits=()):
    """Panels ``(f, a, b, left_singular, right_singular)`` in order."""
    a, b = interval.lo, interval.hi
    splits = sorted({s for s in split_at if a < s < b})
    if math.isinf(a) and math.isinf(b) and not splits:
        splits = [0.0]
    # the singular panel ends: flagged interval ends, and the splits that
    # match a singular split
    hot = {end for end, flagged in zip((a, b), endpoint_singular) if flagged}
    hot.update(q for q in splits for s in singular_splits if abs(q - s) <= 1e-12 * (1.0 + abs(s)))

    edges = [a, *splits, b]
    panels = []
    for lo, hi in zip(edges, edges[1:]):
        # a mapped infinite side sits at t = 1 and is always singular
        if math.isinf(hi):
            panels.append((_map_infinite(f, lo, 1.0), 0.0, 1.0, lo in hot, True))
        elif math.isinf(lo):
            panels.append((_map_infinite(f, hi, -1.0), 0.0, 1.0, hi in hot, True))
        else:
            panels.append((f, lo, hi, lo in hot, hi in hot))
    return panels


def integrate(
    f: Callable[[float], float],
    interval: Interval,
    split_at: Sequence[float] = (),
    endpoint_singular: tuple[bool, bool] = (False, False),
    tol: float = DEFAULT_TOL,
    tol_abs: float = DEFAULT_TOL_ABS,
    singular_splits: Sequence[float] = (),
) -> QuadratureResult:
    """Integrate ``f`` over ``interval`` with splits at interior points, in
    one pass over the panels.

    ``endpoint_singular`` flags the original left/right endpoints; flagged
    panels use tanh-sinh quadrature, which also supplies the divergence
    heuristic.  ``singular_splits`` marks interior split points whose
    adjacent panels need the same treatment.  Infinite endpoints are mapped
    by ``x = t/(1-t)`` (mirrored on the left) before splitting, and the
    mapped far side is always treated as singular.

    Each panel gets ``tol`` and an equal share of ``tol_abs``.  The status is
    the worst panel status, and ``max-depth`` also when every panel converged
    but the summed error bound exceeds ``max(tol_abs, tol * |value|)``.
    Nothing is retried here (callers that retry, such as the verification
    pipeline, call again), so ``evaluations`` counts every evaluation made.
    """
    if tol <= 0 or tol_abs <= 0:
        raise ValueError("tolerances must be positive")
    panels = _build_panels(f, interval, split_at, endpoint_singular, singular_splits)
    panel_tol_abs = max(tol_abs / len(panels), 1e-300)
    value = 0.0
    err = 0.0
    evals = 0
    status = STATUS_CONVERGED
    for g, a, b, left, right in panels:
        if left or right or _wide(a, b):
            v, e, n_ev, st = _tanh_sinh(g, a, b, left, right, tol, panel_tol_abs)
        else:
            v, e, n_ev, st = _adaptive_gk(g, a, b, tol, panel_tol_abs)
        value += v
        err += e
        evals += n_ev
        status = max(status, st, key=_STATUS_RANK.get)
        if status == STATUS_DIVERGENT:
            return QuadratureResult(value, max(err, abs(value)), evals, status)
    if err > max(tol_abs, tol * abs(value)):
        status = STATUS_MAX_DEPTH
    return QuadratureResult(value, err, evals, status)
