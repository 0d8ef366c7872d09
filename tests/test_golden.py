"""Bit-identity guard: the first block of the benchmark's seed-0
``verify-cases`` operations (36 of them) and its first 16 seed-0
``luxemburg-norms`` norms must reproduce ``tests/golden.json`` exactly.  Each
case stores its verdict and margin and, per integral, the value, error bound,
evaluations and status; every float is stored and compared as its hex form.

A change that must leave every result bit-identical keeps this test passing
as it is.  A change that moves results on purpose (ROADMAP items 1, 6, 8, 9
and 12 each do) rewrites the file and says so in its change notes:

    PYTHONPATH=src python tests/test_golden.py

which prints each value it changes (workload, index, old and new, and the
relative change of a float) before it rewrites the file.
"""

import itertools
import json
import math
from pathlib import Path

from oracles import perfbench_workloads

GOLDEN = Path(__file__).resolve().parent / "golden.json"
NORMS = 16


def _run(wl, count):
    wl.setup()
    wl.start()
    return [wl.prepare(i)[0]() for i in range(count)]


def _integral(result):
    return [result.value.hex(), result.error_bound.hex(), result.evaluations, result.status]


def results() -> dict:
    workloads = perfbench_workloads()
    wl = workloads.VerifyCases(workloads.REFERENCE_SEED, None)
    cases = [
        [rep.verdict, rep.margin.hex(), *(_integral(r) for r in (rep.lhs, rep.rhs_main, rep.rhs_log))]
        for rep in _run(wl, wl.block)
    ]
    norms = [norm.hex() for norm in _run(workloads.LuxemburgNorms(0, None), NORMS)]
    return {"verify-cases": cases, "luxemburg-norms": norms}


def _leaves(entry):
    if isinstance(entry, list):
        for item in entry:
            yield from _leaves(item)
    else:
        yield entry


def _change(old, new):
    # floats are stored as their hex form; verdicts and statuses hold no "0x"
    if isinstance(old, str) and isinstance(new, str) and "0x" in old and "0x" in new:
        a, b = float.fromhex(old), float.fromhex(new)
        return f"{old} -> {new} (relative {abs(b - a) / abs(a) if a else math.inf:.2g})"
    return f"{old!r} -> {new!r}"


def changes(stored: dict, got: dict) -> list:
    """One line per value of ``stored`` that ``got`` changes: the workload,
    the entry's index and, for an entry with several values, the value's
    position in it."""
    lines = []
    for name in {**stored, **got}:
        pairs = itertools.zip_longest(stored.get(name, []), got.get(name, []))
        for i, (old, new) in enumerate(pairs):
            if old == new:
                continue
            if not isinstance(old, list) or not isinstance(new, list):
                lines.append(f"{name} {i}: {_change(old, new)}")
                continue
            leaves = itertools.zip_longest(_leaves(old), _leaves(new))
            lines += [f"{name} {i}[{k}]: {_change(a, b)}" for k, (a, b) in enumerate(leaves) if a != b]
    return lines


def test_results_are_bit_identical_to_the_stored_ones():
    assert changes(json.loads(GOLDEN.read_text(encoding="utf-8")), results()) == []


if __name__ == "__main__":
    data = results()
    print("\n".join(changes(json.loads(GOLDEN.read_text(encoding="utf-8")), data)) or "no change")
    # one case per line, so a regenerated file diffs case by case
    lines = ",\n".join(
        f"  {json.dumps(name)}: [\n" + ",\n".join(f"    {json.dumps(c)}" for c in cases) + "\n  ]"
        for name, cases in data.items()
    )
    GOLDEN.write_text("{\n" + lines + "\n}\n", encoding="utf-8")
