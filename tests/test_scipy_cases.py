"""Seed-0 ``verify-cases`` operations 5 and 408 against stored SciPy values.

Both are Hardy cases on a spline bump: 5 on ``cor55-triple3`` (support
(3.84202, 5.47874), roots of xi' at 4.3029, 4.80818 and 5.0253), 408 on
``cor55-triple1`` (support (2.18066, 4.4211), root of xi' at 3.01876).  Each
side (lhs, rhs_main, rhs_log) must lie within its error bound of SciPy's
``quad`` on the same integrand, split at the same points and at the roots of
xi', at ``epsrel = 1e-14``.  The stored values are rewritten by

    PYTHONPATH=src python tests/test_scipy_cases.py

Case 408's ``rhs_main`` misses by 727 times its bound: |xi'|^p has an
algebraic kink at the root of xi', which Gauss-Kronrod straddles.
"""

import warnings

import numpy as np
import pytest
from scipy import integrate, optimize

from hardylab.instance import build_measures, log_measure
from hardylab.spaces import Integrand, modular_integrand
from hardylab.verify import _tlogt_view
from oracles import perfbench_workloads

SCIPY = {
    5: (0.0012652910123440288, 0.07673556266218326, 1.7228428816234892e-17),
    408: (0.0029399490522737494, 0.011132646342686675, 3.0161467522252508e-05),
}


def _cases():
    """Per stored index: the instance, the test function and the report."""
    wl = perfbench_workloads().VerifyCases(0, None)
    wl.setup()
    wl.start()
    cases = {}
    for i in range(max(SCIPY) + 1):
        op, meta = wl.prepare(i)  # every draw, to keep the seeded stream in step
        if i in SCIPY:
            assert meta["hardy"] and meta["spline"]
            # the operation closes over the drawn instance and test function
            cells = dict(zip(op.__code__.co_freevars, (c.cell_contents for c in op.__closure__)))
            cases[i] = cells["inst"], cells["tf"], op()
    return cases


@pytest.fixture(scope="module")
def cases():
    return _cases()


@pytest.mark.parametrize("index", [
    5,
    pytest.param(408, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 1 (c): the root of xi' is no singular split")),
])
def test_seed0_case_lies_within_its_bounds_of_scipy(cases, index):
    _, _, rep = cases[index]
    sides = (rep.lhs, rep.rhs_main, rep.rhs_log)
    misses = [abs(r.value - ref) / r.error_bound for r, ref in zip(sides, SCIPY[index])]
    assert all(miss <= 1.0 for miss in misses), misses


def _scipy_values(inst, tf):
    mu1, mu2 = build_measures(inst)
    lo, hi = max(inst.domain.lo, tf.support.lo), min(inst.domain.hi, tf.support.hi)
    xs = np.linspace(lo, hi, 4097)[1:-1]
    ds = [tf.df(float(x)) for x in xs]
    roots = [optimize.brentq(tf.df, xs[k], xs[k + 1], xtol=1e-15)
             for k in range(len(xs) - 1) if ds[k] * ds[k + 1] < 0]
    sides = ((Integrand(tf.f, tf.support, tf.split_points), mu1),
             (Integrand(tf.df, tf.support, tf.split_points), mu2),
             (_tlogt_view(tf), log_measure(inst)))
    values = []
    for itg, mu in sides:
        points = {*inst.vp.split_points, *itg.split_points, *mu.split_points, *roots}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            value, _ = integrate.quad(
                modular_integrand(itg, inst.vp.p, mu), lo, hi,
                points=sorted(s for s in points if lo < s < hi), epsrel=1e-14, epsabs=1e-30, limit=500,
            )
        values.append(value)
    return tuple(values)


if __name__ == "__main__":
    for index, (inst, tf, _) in _cases().items():
        print(f"    {index}: {_scipy_values(inst, tf)!r},")
