"""Seeded benchmark for hardylab.

Run from the repository root:

    python3 perfbench/run.py --workload verify-cases --seed 0 --seconds 30 --trace 0

Workloads: ``verify-cases``, ``luxemburg-norms``, ``reproduce`` (see
``workloads.py`` and ``BENCHMARK.json``).  One process, one caller, closed
loop: the next operation starts when the previous one has returned.  Inputs
are drawn from ``--seed`` between operations, outside the timed calls; the
timed phase runs whole blocks of the workload's input mix until
``--seconds`` of wall time have passed, and rates and latencies count only
the time spent inside operations.  Every result is checked; ``correct`` is
false when any operation failed.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics of ``BENCHMARK.json``.  With ``--trace 1`` an
untraced phase of half the seconds is followed by a replay of the same
operations with span tracing installed, and the per-layer metrics are
reported; spans are written to
``.perfbench-out/spans-<workload>-seed<seed>.jsonl``.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_REPEATS = 3
EVAL_GRID = 10_000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_phase(wl, seconds=None, count=None, tracer=None):
    """Run operations from the start of the input stream: ``count`` of them,
    or whole blocks until ``seconds`` of wall time have passed.  Returns
    per-operation (seconds, meta, failure reason or None)."""
    wl.start()
    ops = []
    start = time.perf_counter()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i % wl.block == 0 and time.perf_counter() - start >= seconds:
            break
        op, meta = wl.prepare(i)
        error = result = None
        if tracer is None:
            t0 = time.perf_counter()
            try:
                result = op()
            except Exception as err:  # a failed operation is counted, not fatal
                error = err
            elapsed = time.perf_counter() - t0
        else:
            try:
                result = tracer.run_op(i, op)
            except Exception as err:
                error = err
            elapsed = tracer.last_duration
        if error is not None:
            reason = f"raised {type(error).__name__}: {error}"
        else:
            try:
                reason = wl.check(i, meta, result)
            except Exception as err:
                reason = f"check raised {type(err).__name__}: {err}"
        if reason is not None:
            print(f"perfbench: {wl.name} op {i} failed: {reason}", file=sys.stderr)
        ops.append((elapsed, meta, reason))
        i += 1
    return ops


def end_to_end(ops, setup_s):
    times = [t for t, _, _ in ops]
    ms = [1e3 * t for t in times]
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
    return {
        "ops_per_s": len(ops) / sum(times),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": p90,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, sum(1 for v in ms if v > p90)


def input_shares(ops):
    """Share of operations with each boolean input property they record."""
    shares = {}
    for key in ("signchange", "spline", "hardy", "varp"):
        flags = [meta[key] for _, meta, _ in ops if key in meta]
        if flags:
            shares[f"input.{key}_frac"] = sum(flags) / len(flags)
    return shares


def eval_ns_per_point(pairs):
    """Scalar compiled-expression evaluation cost over midpoint grids."""
    from hardylab.errors import EvalDomainError
    from hardylab.expr import compile_fn

    elapsed = 0.0
    points = 0
    for e, domain in pairs:
        fn = compile_fn(e)
        xs = domain.midpoint_grid(EVAL_GRID)
        t0 = time.perf_counter()
        for x in xs:
            try:
                fn(x)
            except EvalDomainError:
                pass
        elapsed += time.perf_counter() - t0
        points += len(xs)
    return 1e9 * elapsed / points


def src_lines():
    total = 0
    for path in glob.glob(os.path.join(SRC, "hardylab", "*.py")):
        with open(path, encoding="utf-8") as handle:
            total += sum(1 for _ in handle)
    return total


def traced_metrics(wl, ops, tracer):
    import tracing
    import workloads

    op_class = {
        i: ("signchange" if meta["signchange"] else "signdef")
        for i, (_, meta, _) in enumerate(ops) if "signchange" in meta
    }
    m = tracing.layer_metrics(tracer.spans, op_class)
    m["input.signchange_frac"] = 0.0
    m.update(tracing.case_shares(tracer.spans))
    m.update(input_shares(ops))
    m["bench.failed_frac"] = workloads.failed_frac([r for _, _, r in ops])
    m["trace.self_sum_rel_err"] = tracing.self_sum_error(tracer.spans)
    m["expr.eval_ns_per_point"] = eval_ns_per_point(wl.expressions())
    m["src.lines"] = src_lines()
    return m


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hardylab", "__init__.py")):
        print(f"perfbench: no hardylab sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, SRC)
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    imports_s = time.perf_counter() - PROCESS_START
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    setup_s = imports_s + statistics.median(setups)

    ops = run_phase(wl, seconds=args.seconds / 2 if args.trace else args.seconds)
    all_ops = list(ops)
    e2e, beyond_p90 = end_to_end(ops, setup_s)
    print(
        f"perfbench: {wl.name} seed={args.seed} ops={len(ops)} "
        f"p90_samples_beyond={beyond_p90} "
        f"failed_frac={workloads.failed_frac([r for _, _, r in ops]):.6g} "
        f"shares={json.dumps(input_shares(ops), sort_keys=True)}"
    )
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_phase(wl, count=len(ops), tracer=tracer)
        finally:
            tracer.uninstall()
        all_ops.extend(traced)
        metrics = traced_metrics(wl, traced, tracer)
        metrics["trace.overhead_frac"] = (
            sum(t for t, _, _ in traced) / sum(t for t, _, _ in ops) - 1.0
        )
        tracer.write(os.path.join(OUT, f"spans-{wl.name}-seed{args.seed}.jsonl"))
        wanted = spec["per_layer"]
    else:
        metrics = e2e
        wanted = spec["end_to_end"]

    failed = sum(1 for _, _, r in all_ops if r is not None)
    result = {
        "correct": failed == 0,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
