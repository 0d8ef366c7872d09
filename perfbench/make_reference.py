"""Write the stored reference for the verify-cases workload: verdict, margin
and combined error bound of its first operations on the reference seed.

Run from the repository root, at the commit whose results are the reference:

    python3 perfbench/make_reference.py

The benchmark fails a later verification on that seed whose margin differs
from the stored one by more than the two error bounds together.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

# 80 blocks of 36: about twice the 1100 to 1600 operations a 30 s run holds
# on a 2-core x86 VM at the reference commit.
CASES = 80 * workloads.VerifyCases.block


def main():
    wl = workloads.VerifyCases(workloads.REFERENCE_SEED, None)
    wl.setup()
    wl.start()
    cases = []
    for i in range(CASES):
        op, _ = wl.prepare(i)
        report = op()
        cases.append([report.verdict, report.margin, report.combined_error])
    os.makedirs(os.path.dirname(workloads.REFERENCE), exist_ok=True)
    with open(workloads.REFERENCE, "w", encoding="utf-8") as handle:
        handle.write('{"seed": %d, "cases": [\n' % workloads.REFERENCE_SEED)
        handle.write(",\n".join(json.dumps(case) for case in cases))
        handle.write("\n]}\n")
    print(f"wrote {len(cases)} cases to {workloads.REFERENCE}")


if __name__ == "__main__":
    main()
