import math

import pytest

from hardylab import sharpness
from hardylab.cli import EXIT_INDETERMINATE, main
from hardylab.errors import InvalidParamsError, VacuousInstanceError
from hardylab.instance import preset
from hardylab.quadrature import STATUS_CONVERGED, STATUS_DIVERGENT, QuadratureResult
from hardylab.report import parse_json
from hardylab.sharpness import (
    _WEIGHTS,
    _WEIGHTS_LOWER,
    EPS,
    MAX_LIMIT_ERROR,
    WIDTHS,
    _extrapolation_weights,
    hardy_cutoff,
    ratio,
    scan,
)
from hardylab.verify import VerificationReport, power_bump


@pytest.fixture(scope="module")
def classical():
    return preset("constp")


def test_ratio_at_least_one(classical):
    xi = power_bump(1.0, 0.8, 1.0, 3.0)
    r, _ = ratio(classical, xi)
    assert r >= 1.0 - 1e-6


def test_ratio_invariant_under_scaling(classical):
    # constant exponent: both sides scale by c^p, the ratio is unchanged
    r1, _ = ratio(classical, power_bump(1.0, 0.8, 1.0, 3.0))
    r2, _ = ratio(classical, power_bump(1.0, 0.8, 2.0, 3.0))
    assert r2 == pytest.approx(r1, rel=1e-9)


def test_ratio_vacuous_instance():
    degenerate = preset("cor53", alpha=1.0, p="2", sigma="0", beta=1.0)
    with pytest.raises(VacuousInstanceError):
        ratio(degenerate, power_bump(0.5, 0.3, 1.0, 3.0))


def test_zero_condition_is_vacuous_before_any_integral(monkeypatch):
    inst = preset("cor51", sigma="0")
    assert inst.vacuous and inst.describe()["vacuous"]
    calls = []
    monkeypatch.setattr(sharpness, "_run_hardy", lambda *a: calls.append(a))
    with pytest.raises(VacuousInstanceError):
        ratio(inst, power_bump(0.0, 0.5))
    assert calls == []


def test_cutoff_family_shape():
    # a plateau from 10^-1.5 to 10^1.5, ramps down to 0 at half and twice that
    xi = hardy_cutoff(3.0)
    assert xi.params == {"width": 3.0}
    assert xi.split_points == (10.0 ** -1.5, 10.0 ** 1.5)
    assert xi(1e-2) == 0.0
    assert xi(70.0) == 0.0
    x_plateau = 2.0
    assert xi(x_plateau) == pytest.approx(x_plateau ** (0.5 + EPS), rel=1e-12)
    h = 1e-7
    for x in (0.02, 2.0, 45.0):
        fd = (xi(x + h) - xi(x - h)) / (2 * h)
        assert xi.derivative(x) == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_cutoff_family_rejects_bad_params():
    # from 616 on, the support's outer end 2 * 10^(width/2) overflows
    for width in (0.0, -1.0, math.inf, math.nan, 616.0, 700.0):
        with pytest.raises(InvalidParamsError, match="width"):
            hardy_cutoff(width)
    assert math.isfinite(hardy_cutoff(615.0).support.hi)


@pytest.fixture(scope="module")
def classical_scan(classical):
    return scan(classical)


@pytest.mark.parametrize("widths", [WIDTHS, WIDTHS[:3], (1.0, 2.5, 7.0, 11.0, 30.0)])
def test_extrapolation_weights_are_exact_on_polynomials_in_one_over_width(widths):
    # exact up to degree len(widths) - 1 in 1/w: the value at 1/w = 0 is c_0
    weights = _extrapolation_weights(widths)
    coefficients = (2.0, -3.0, 5.0, 7.0, -11.0)
    for degree in range(len(widths)):
        def r(w):
            return sum(c / w**k for k, c in enumerate(coefficients[: degree + 1]))

        limit = sum(c * r(w) for c, w in zip(weights, widths))
        assert limit == pytest.approx(2.0, abs=1e-12)


def test_scan_extrapolates_through_all_widths_and_the_three_narrowest():
    assert _WEIGHTS == _extrapolation_weights(WIDTHS)
    assert _WEIGHTS_LOWER == _extrapolation_weights(WIDTHS[:3])
    assert _WEIGHTS == pytest.approx((-1 / 21, 2 / 3, -8 / 3, 64 / 21), rel=1e-15)
    assert sum(abs(c) for c in _WEIGHTS) == pytest.approx(6.43, abs=5e-3)


def test_scan_recovers_the_classical_constant(classical_scan):
    res = classical_scan
    assert [e.width for e in res.trace] == list(WIDTHS)
    ratios = [e.ratio for e in res.trace]
    assert all(r1 > r2 for r1, r2 in zip(ratios, ratios[1:]))  # wider is nearer
    assert res.best_ratio == ratios[-1] <= 1.10
    assert res.verdict == "sharp"
    assert abs(res.limit - 1.0) <= res.limit_error < 1e-4


@pytest.mark.parametrize(
    "ratios, best",
    [((math.nan, 1.2), 1.2), ((1.2, math.nan), 1.2), ((1.3, math.nan, 1.2), 1.2), ((math.nan, math.nan), math.nan)],
)
def test_best_ratio_skips_nan_ratios_wherever_they_sit(ratios, best):
    trace = [sharpness.TraceEntry(w, r, 0.0) for w, r in zip(WIDTHS, ratios)]
    result = sharpness.ScanResult(trace, math.nan, math.inf, "indeterminate")
    assert repr(result.best_ratio) == repr(best)  # repr(nan) == 'nan'; nan != nan


def test_scan_determinism(classical, classical_scan):
    again = scan(classical)
    assert again.limit == classical_scan.limit
    assert again.trace == classical_scan.trace


def test_scan_never_undercuts_one(classical_scan):
    assert all(e.ratio >= 1.0 - 2e-6 for e in classical_scan.trace)


def test_scan_is_not_sharp_where_the_family_is_not_extremal():
    # for p = 3 the ratio of x^(1/2) cutoffs tends to 2, not to 1
    res = scan(preset("constp", p="3"))
    assert res.verdict == "not-sharp"
    assert res.limit == pytest.approx(2.0, abs=1e-4)


def test_a_wide_limit_error_makes_the_scan_indeterminate(tmp_path, capsys):
    # on a variable exponent the ratios jump between the two narrowest widths,
    # so the extrapolation gap (about 1.3) exceeds MAX_LIMIT_ERROR: no
    # verdict is drawn from so wide a bound, and the scan exits 3
    out = tmp_path / "out"
    cfg = tmp_path / "lab.ini"
    cfg.write_text(
        "[instance]\npreset = cor64\na = 1\np = 2-1/(x+2)\nbeta = 2.5\ndomain = 0, inf\n"
        f"[output]\ndir = {out}\n"
    )
    assert main(["scan", "--config", str(cfg)]) == EXIT_INDETERMINATE
    assert "scan: limit 5.88328996 +- 1.3 (indeterminate)" in capsys.readouterr().out
    payload = parse_json((out / "scan.json").read_bytes()).payload
    assert payload["limit_error"] > MAX_LIMIT_ERROR
    assert payload["verdict"] == "indeterminate"


def test_divergent_integral_makes_the_scan_indeterminate(classical, monkeypatch):
    # a left integral of NaN passes a `value <= error_bound` test; the
    # divergence status, not the value, must decide
    nan = QuadratureResult(math.nan, math.nan, 1, STATUS_DIVERGENT)
    one = QuadratureResult(1.0, 0.0, 1, STATUS_CONVERGED)
    report = VerificationReport(nan, one, one, math.nan, "indeterminate")
    monkeypatch.setattr(sharpness, "_run_hardy", lambda *a: report)
    value, error = ratio(classical, hardy_cutoff(4.0))
    assert math.isnan(value) and error == math.inf
    res = scan(classical)
    assert res.verdict == "indeterminate"
    assert all(math.isnan(e.ratio) and e.error_bound == math.inf for e in res.trace)
