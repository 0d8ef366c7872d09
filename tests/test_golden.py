"""Bit-identity guard: the first block of the benchmark's seed-0
``verify-cases`` operations (36 of them) and its first 16 seed-0
``luxemburg-norms`` norms must reproduce ``tests/golden.json`` exactly.  Each
case stores its verdict and margin and, per integral, the value, error bound,
evaluations and status; every float is stored and compared as its hex form.

A change that must leave every result bit-identical keeps this test passing
as it is.  A change that moves results on purpose (ROADMAP items 1, 6, 8, 9
and 12 each do) rewrites the file and says so in its change notes:

    PYTHONPATH=src python tests/test_golden.py
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
NORMS = 16


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _run(wl, count):
    wl.setup()
    wl.start()
    return [wl.prepare(i)[0]() for i in range(count)]


def _integral(result):
    return [result.value.hex(), result.error_bound.hex(), result.evaluations, result.status]


def results() -> dict:
    workloads = _workloads()
    wl = workloads.VerifyCases(workloads.REFERENCE_SEED, None)
    cases = [
        [rep.verdict, rep.margin.hex(), *(_integral(r) for r in (rep.lhs, rep.rhs_main, rep.rhs_log))]
        for rep in _run(wl, wl.block)
    ]
    norms = [norm.hex() for norm in _run(workloads.LuxemburgNorms(0, None), NORMS)]
    return {"verify-cases": cases, "luxemburg-norms": norms}


def test_results_are_bit_identical_to_the_stored_ones():
    stored = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = results()
    for name, want in stored.items():
        diffs = [i for i, (a, b) in enumerate(zip(got[name], want)) if a != b]
        assert len(got[name]) == len(want) and diffs == [], (name, diffs)


if __name__ == "__main__":
    data = results()
    # one case per line, so a regenerated file diffs case by case
    lines = ",\n".join(
        f"  {json.dumps(name)}: [\n" + ",\n".join(f"    {json.dumps(c)}" for c in cases) + "\n  ]"
        for name, cases in data.items()
    )
    GOLDEN.write_text("{\n" + lines + "\n}\n", encoding="utf-8")
