"""Span tracing for the traced benchmark run.

The tracer replaces hardylab's public functions at the modules that look
them up (``from .quadrature import integrate`` in ``verify`` makes
``hardylab.verify.integrate`` such a site; a function a module calls from
its own globals makes that module one too).  Nothing under ``src/`` changes.

Every call made while an operation is open becomes one span: name, layer,
start, end, parent and operation id.  Spans stay in memory and are written
as JSON lines by :meth:`Tracer.write`.  A span's self time is its duration
minus the durations of its direct children; calls into code that is not
wrapped (compiled expression closures, test functions, NumPy, SciPy) count
toward the innermost wrapped caller.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from dataclasses import asdict, dataclass
from importlib import import_module

LAYERS = ("expr", "quadrature", "spaces", "instance", "verify", "sharpness", "report", "cli")

# Import sites: each module that looks a wrapped name up, including the
# benchmark's own calls through ``hardylab.spaces`` and ``hardylab.verify``.
SITES = {
    "hardylab.expr": ("singular_points", "singular_scan", "zero_scan"),
    "hardylab.spaces": ("singular_points", "integrate", "modular", "luxemburg_norm"),
    "hardylab.instance": (
        "singular_points", "zero_scan", "integrate", "validate_exponent",
        "check_nonneg", "build_measures", "make_instance",
    ),
    "hardylab.verify": (
        "singular_points", "check_admissibility", "build_measures", "integrate", "modular",
        "verify_hardy", "verify_caccioppoli", "_run_hardy", "_run_caccioppoli",
        "random_test_function", "batch_verify",
    ),
    "hardylab.sharpness": ("build_measures", "_run_hardy", "ratio", "scan"),
    "hardylab.cli": (
        "check_admissibility", "check_nonneg", "make_instance", "preset", "emit_csv",
        "emit_json", "make_record", "scan", "batch_verify", "build_instance",
        "cmd_check", "cmd_verify", "cmd_scan", "cmd_reproduce", "main",
    ),
}

ROOT = "bench.op"
SCANS = ("expr.singular_points", "expr.singular_scan", "expr.zero_scan")
CASES = ("verify.verify_hardy", "verify.verify_caccioppoli")
VERDICTS = ("pass", "fail", "indeterminate")
STATUSES = ("converged", "max-depth", "divergent-suspected")


@dataclass(slots=True)
class Span:
    name: str
    layer: str
    start: float
    parent: int | None       # index of the calling span
    op: int                  # operation id
    nested: bool             # inside a call of the same function
    end: float = 0.0
    child_s: float = 0.0     # summed durations of direct children
    self_s: float = 0.0
    info: object = None      # what the metrics need from the call

    @property
    def duration(self):
        return self.end - self.start


def _info(name, args, result):
    """The part of a call's arguments and result that the metrics need."""
    if name == "quadrature.integrate":
        return [result.evaluations, result.status]
    if name in CASES:
        inst, tf = args[0], args[1]
        return [result.verdict, bool(result.retried), tf.kind, inst.vp.p.kind != "const"]
    if name == "sharpness.scan":
        ratios = [entry.ratio for entry in result.trace]
        return [ratios.index(min(ratios)) + 1, result.best_ratio]
    if name in ("report.emit_json", "report.emit_csv"):
        return len(result)
    return None


class Tracer:
    """Collects spans while installed; :meth:`uninstall` restores every site."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._saved = []

    def install(self):
        wrappers = {}
        for module_name, names in SITES.items():
            module = import_module(module_name)
            for attr in names:
                fn = getattr(module, attr)
                if fn not in wrappers:
                    layer = fn.__module__.rsplit(".", 1)[-1]
                    wrappers[fn] = self._wrap(fn, f"{layer}.{fn.__name__}", layer)
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrappers[fn])

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    def _wrap(self, fn, name, layer):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = self._open(name, layer)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(index, args, result)
        return wrapper

    def _open(self, name, layer):
        parent = self._stack[-1] if self._stack else None
        nested = any(self.spans[i].name == name for i in self._stack)
        index = len(self.spans)
        self.spans.append(Span(name, layer, time.perf_counter(), parent, self._op, nested))
        self._stack.append(index)
        return index

    def _close(self, index, args, result):
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        span.self_s = span.duration - span.child_s
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration
        if result is not None:
            span.info = _info(span.name, args, result)

    def run_op(self, op_id, op):
        """Run ``op`` under a root span; its duration is left in ``last_duration``."""
        self._op = op_id
        index = self._open(ROOT, "bench")
        try:
            return op()
        finally:
            self._close(index, (), None)
            self._op = None
            self.last_duration = self.spans[index].duration

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({"id": index, **asdict(span)}) + "\n")


def _p50_ms(values):
    return 1e3 * statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, op_class=None):
    """Per-layer metrics from recorded spans.

    ``*_calls`` count calls that are not nested in a call of the same
    function; ``*_s`` named after a function is its inclusive time over
    those calls; ``<layer>.self_s`` is the layer's self time.  ``op_class``
    maps an operation id to its input class, for the per-class norm latency.
    """
    by_name = {}
    self_by_layer = dict.fromkeys(LAYERS + ("bench",), 0.0)
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
        self_by_layer[span.layer] += span.self_s

    def top(*names):
        return [s for n in names for s in by_name.get(n, ()) if not s.nested]

    def returned(*names):
        # calls that returned normally carry the info their metrics need
        return [s for s in top(*names) if s.info is not None]

    def inclusive(*names):
        return sum(s.duration for s in top(*names))

    def under(span, names):
        parent = span.parent
        while parent is not None:
            if spans[parent].name in names:
                return spans[parent]
            parent = spans[parent].parent
        return None

    m = {}
    scans = [s for n in SCANS for s in by_name.get(n, ()) if under(s, SCANS) is None]
    m["expr.scan_calls"] = len(scans)
    m["expr.scan_s"] = sum(s.duration for s in scans)

    integrals = returned("quadrature.integrate")
    evals = sum(s.info[0] for s in integrals)
    m["quadrature.integrals"] = len(integrals)
    m["quadrature.evals"] = evals
    m["quadrature.us_per_eval"] = 1e6 * _ratio(self_by_layer["quadrature"], evals)
    m["quadrature.evals_per_integral"] = _ratio(evals, len(integrals))
    for status in STATUSES:
        m[f"quadrature.status.{status}"] = sum(1 for s in integrals if s.info[1] == status)

    norms = top("spaces.luxemburg_norm")
    modulars = by_name.get("spaces.modular", [])
    m["spaces.modular_calls"] = len(modulars)
    m["spaces.modular_self_s"] = sum(s.self_s for s in modulars)
    m["spaces.modular_per_norm"] = _ratio(
        sum(1 for s in modulars if under(s, ("spaces.luxemburg_norm",)) is not None),
        len(norms),
    )
    for cls in ("signdef", "signchange"):
        m[f"spaces.norm_ms_p50.{cls}"] = _p50_ms(
            [s.duration for s in norms if op_class and op_class.get(s.op) == cls]
        )
    m["spaces.validate_calls"] = len(top("spaces.validate_exponent"))
    m["spaces.validate_s"] = inclusive("spaces.validate_exponent")

    m["instance.admissibility_calls"] = len(top("instance.check_admissibility"))
    m["instance.admissibility_s"] = inclusive("instance.check_admissibility")
    m["instance.build_measures_s"] = inclusive("instance.build_measures")
    m["cli.build_instance_calls"] = len(top("cli.build_instance"))
    m["cli.build_instance_s"] = inclusive("cli.build_instance")

    cases = returned(*CASES)
    case_evals = sum(s.info[0] for s in integrals if under(s, CASES) is not None)
    m["verify.cases"] = len(cases)
    m["verify.evals_per_case"] = _ratio(case_evals, len(cases))
    m["verify.retry_frac"] = _ratio(sum(1 for s in cases if s.info[1]), len(cases))
    for verdict in VERDICTS:
        m[f"verify.verdict.{verdict}"] = sum(1 for s in cases if s.info[0] == verdict)

    ratios = top("sharpness.ratio")
    scans_done = returned("sharpness.scan")
    m["sharpness.ratio_calls"] = len(ratios)
    m["sharpness.ratio_s"] = inclusive("sharpness.ratio")
    m["sharpness.evals_to_best"] = _ratio(sum(s.info[0] for s in scans_done), len(scans_done))
    m["sharpness.best_ratio"] = min((s.info[1] for s in scans_done), default=0.0)

    emits = returned("report.emit_json", "report.emit_csv")
    m["report.emit_calls"] = len(emits)
    m["report.emit_s"] = inclusive("report.emit_json", "report.emit_csv")
    m["report.bytes"] = sum(s.info for s in emits)
    for phase in ("check", "verify", "scan"):
        m[f"cli.{phase}_s"] = inclusive(f"cli.cmd_{phase}")

    for layer, value in self_by_layer.items():
        m[f"{layer}.self_s"] = value
    return m


def case_shares(spans):
    """Input shares over the verification cases that ran under tracing."""
    cases = [s for s in spans if s.name in CASES and s.info is not None]
    share = lambda pred: _ratio(sum(1 for s in cases if pred(s)), len(cases))
    return {
        "input.hardy_frac": share(lambda s: s.name == "verify.verify_hardy"),
        "input.spline_frac": share(lambda s: s.info[2] == "spline-bump"),
        "input.varp_frac": share(lambda s: s.info[3]),
    }


def self_sum_error(spans):
    """Largest |sum of self times under an operation - its traced time|,
    relative to that time, over all operations."""
    totals = {}
    roots = {}
    for span in spans:
        totals[span.op] = totals.get(span.op, 0.0) + span.self_s
        if span.name == ROOT:
            roots[span.op] = span.duration
    return max((abs(totals[op] - d) / d for op, d in roots.items() if d > 0), default=0.0)
