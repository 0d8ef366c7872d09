"""The first block of the benchmark's seed-0 ``verify-cases`` operations must
reproduce the stored reference: every verdict a pass, and every margin within
the combined error bounds of this run and the stored one."""

import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_first_verify_cases_block_matches_the_reference(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    wl = workloads.VerifyCases(workloads.REFERENCE_SEED, None)
    assert wl.refs is not None
    wl.setup()
    wl.start()
    failures = {}
    for i in range(wl.block):
        op, meta = wl.prepare(i)
        reason = wl.check(i, meta, op())
        if reason is not None:
            failures[i] = reason
    assert failures == {}
