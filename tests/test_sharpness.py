import math

import pytest

from hardylab.errors import InvalidParamsError, VacuousInstanceError
from hardylab.expr import Interval
from hardylab.instance import preset
from hardylab.sharpness import FamilySpec, hardy_cutoff, ratio, scan
from hardylab.verify import power_bump


@pytest.fixture(scope="module")
def classical():
    return preset("constp")


def test_ratio_at_least_one(classical):
    xi = power_bump(1.0, 0.8, 1.0, 3.0)
    r = ratio(classical, xi)
    assert r >= 1.0 - 1e-6


def test_ratio_invariant_under_scaling(classical):
    # constant exponent: both sides scale by c^p, the ratio is unchanged
    r1 = ratio(classical, power_bump(1.0, 0.8, 1.0, 3.0))
    r2 = ratio(classical, power_bump(1.0, 0.8, 2.0, 3.0))
    assert r2 == pytest.approx(r1, rel=1e-9)


def test_ratio_vacuous_instance():
    degenerate = preset("cor53", alpha=1.0, p="2", sigma="0", beta=1.0)
    with pytest.raises(VacuousInstanceError):
        ratio(degenerate, power_bump(0.5, 0.3, 1.0, 3.0))


def test_cutoff_family_shape():
    xi = hardy_cutoff(0.05, -2.0, 1.0)
    assert xi(1e-3) == 0.0
    assert xi(25.0) == 0.0
    x_plateau = 1.0
    assert xi(x_plateau) == pytest.approx(x_plateau ** 0.55, rel=1e-12)
    h = 1e-7
    for x in (0.008, 0.5, 14.0):
        fd = (xi(x + h) - xi(x - h)) / (2 * h)
        assert xi.derivative(x) == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_cutoff_family_rejects_bad_params():
    with pytest.raises(InvalidParamsError):
        hardy_cutoff(-0.1, -2.0, 1.0)
    with pytest.raises(InvalidParamsError):
        hardy_cutoff(0.1, 2.0, 1.0)


def test_scan_budget_one(classical):
    res = scan(classical, FamilySpec(), budget=1)
    assert res.evaluations == 1
    assert len(res.trace) == 1
    assert not res.converged
    assert res.best_ratio == res.trace[0].ratio


def test_scan_determinism(classical):
    a = scan(classical, FamilySpec(), budget=40)
    b = scan(classical, FamilySpec(), budget=40)
    assert a.best_ratio == b.best_ratio
    assert [(e.params, e.ratio) for e in a.trace] == [(e.params, e.ratio) for e in b.trace]


def test_scan_best_so_far_monotone(classical):
    res = scan(classical, FamilySpec(), budget=40)
    best = res.best_so_far()
    assert all(b1 >= b2 for b1, b2 in zip(best, best[1:]))
    assert best[-1] == res.best_ratio


def test_scan_never_undercuts_one(classical):
    res = scan(classical, FamilySpec(), budget=60)
    assert res.best_ratio >= 1.0 - 2e-6


def test_scan_flat_family_terminates_early(classical):
    # a single pure-scale parameter leaves the ratio constant; the search
    # stops well inside the budget
    spec = FamilySpec(
        kind="power_bump",
        box={"height": (0.5, 2.0)},
        fixed={"center": 1.0, "halfwidth": 0.8},
    )
    res = scan(classical, spec, budget=200)
    ratios = [e.ratio for e in res.trace]
    assert max(ratios) - min(ratios) <= 1e-8
    assert res.evaluations < 60
    assert res.converged


def test_scan_power_bump_family_on_interval_instance():
    inst = preset("cor51", M=1.0, p="2", sigma="1", beta=2.0)
    spec = FamilySpec(
        kind="power_bump",
        box={"center": (-0.3, 0.3), "halfwidth": (0.1, 0.5)},
        fixed={"height": 1.0},
    )
    res = scan(inst, spec, budget=50)
    assert res.best_ratio >= 1.0 - 2e-6
    assert res.evaluations <= 50
