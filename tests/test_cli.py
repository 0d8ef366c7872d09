import json
import math

import pytest

from hardylab.cli import (
    EXIT_INDETERMINATE,
    EXIT_MATH,
    EXIT_OK,
    EXIT_USAGE,
    SCENARIOS,
    load_config,
    main,
)
from hardylab.errors import InvalidParamsError
from hardylab.report import parse_json


def _write_config(tmp_path, body):
    path = tmp_path / "lab.ini"
    path.write_text(body)
    return str(path)


def test_check_distance_preset(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "[instance]\npreset = cor51\nM = 1\np = 2\nsigma = 1\nbeta = 2\n"
        f"[output]\ndir = {tmp_path / 'out'}\n",
    )
    assert main(["check", "--config", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert "holds-numerically" in out
    report = parse_json((tmp_path / "out" / "check.json").read_bytes())
    assert report.operation == "check"


def test_check_violated_condition_reports_witness(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "[instance]\npreset = cor51\nM = 1\np = 2\nsigma = 3\nbeta = 2\n"
        f"[output]\ndir = {tmp_path / 'out'}\n",
    )
    assert main(["check", "--config", cfg]) == EXIT_MATH
    out = capsys.readouterr().out
    assert "violated" in out
    assert "at x=" in out


def test_check_malformed_expression(tmp_path):
    cfg = _write_config(
        tmp_path,
        "[instance]\npreset = cor51\np = 2 +* x\n"
        f"[output]\ndir = {tmp_path / 'out'}\n",
    )
    assert main(["check", "--config", cfg]) == EXIT_USAGE


def test_check_unknown_preset(tmp_path):
    cfg = _write_config(
        tmp_path,
        f"[instance]\npreset = nonsense\n[output]\ndir = {tmp_path / 'out'}\n",
    )
    assert main(["check", "--config", cfg]) == EXIT_USAGE


def test_check_raw_instance(tmp_path):
    cfg = _write_config(
        tmp_path,
        "[instance]\npreset = raw\np = 2\nu = 1 - abs(x)\nphi = 0\nsigma = 1\n"
        "beta = 2\ndomain = -1, 1\n"
        f"[output]\ndir = {tmp_path / 'out'}\n",
    )
    assert main(["check", "--config", cfg]) == EXIT_OK


def test_verify_zero_count(tmp_path):
    cfg = _write_config(
        tmp_path,
        "[instance]\npreset = cor51\n[verification]\ncount = 0\n"
        f"[output]\ndir = {tmp_path / 'out'}\n",
    )
    assert main(["verify", "--config", cfg]) == EXIT_OK


def test_verify_refuses_beta_at_sup_sigma(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "[instance]\npreset = cor51\nsigma = 2\nbeta = 2\n[verification]\ncount = 2\n"
        f"[output]\ndir = {tmp_path / 'out'}\n",
    )
    assert main(["verify", "--config", cfg]) == EXIT_MATH
    assert "check_admissibility" in capsys.readouterr().out


def test_verify_writes_summary(tmp_path):
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path,
        "[instance]\npreset = cor51\n[verification]\ncount = 3\nwhich = hardy\n"
        f"[output]\ndir = {out}\n",
    )
    assert main(["verify", "--config", cfg]) == EXIT_OK
    doc = json.loads((out / "verify.json").read_bytes())
    assert set(doc["payload"]["batches"]["hardy"]["worst_margin"]) == {"decimal", "hex"}
    record = parse_json((out / "verify.json").read_bytes())
    assert record.payload["totals"]["pass"] == 3
    assert record.payload["totals"]["fail"] == 0


def test_scan_vacuous_instance(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "[instance]\npreset = cor53\nalpha = 1\np = 2\nsigma = 0\nbeta = 1\n"
        "[scan]\nbudget = 10\nfamily = power_bump\nbox_center = 0.3, 0.7\n"
        "box_halfwidth = 0.1, 0.2\n"
        f"[output]\ndir = {tmp_path / 'out'}\n",
    )
    assert main(["scan", "--config", cfg]) == EXIT_MATH
    assert "vacuous" in capsys.readouterr().out


def test_scan_single_evaluation(tmp_path):
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path,
        "[instance]\npreset = constp\n[scan]\nbudget = 1\n"
        f"[output]\ndir = {out}\n",
    )
    assert main(["scan", "--config", cfg]) == EXIT_OK
    trace = (out / "scan-trace.csv").read_text().strip().split("\n")
    assert len(trace) == 2  # header plus exactly one evaluation


def test_reproduce_unknown_scenario(tmp_path):
    assert main(["reproduce", "does-not-exist", "--out", str(tmp_path / "o")]) == EXIT_USAGE


def test_reproduce_scenario_names_complete():
    names = set(SCENARIOS)
    assert {
        "cor51", "cor53", "cor54",
        "cor55-triple1", "cor55-triple2", "cor55-triple3",
        "cor64-affine", "cor64-reciprocal", "cor64-rational",
        "constp-hardy",
    } <= names


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_reproduce_scenarios_exit_zero(scenario, tmp_path):
    assert main(["reproduce", scenario, "--out", str(tmp_path / "out")]) == EXIT_OK


def test_list_presets(capsys):
    assert main(["list-presets"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("cor51", "cor53", "cor54", "cor55", "cor64", "constp"):
        assert name in out


def test_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("HARDYLAB_VERIFICATION_COUNT", "4")
    cfg = load_config(None)
    assert cfg["verification"]["count"] == "4"


def test_cli_flag_overrides(tmp_path):
    cfg = load_config(None, {"verification": {"seed": "99"}, "output": {"dir": "zzz"}})
    assert cfg["verification"]["seed"] == "99"
    assert cfg["output"]["dir"] == "zzz"


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[mystery]\nkey = 1\n")
    assert main(["check", "--config", str(path)]) == EXIT_USAGE


@pytest.mark.parametrize("command", ["check", "verify", "scan"])
def test_rejected_exponent_exits_math(tmp_path, capsys, command):
    cfg = _write_config(
        tmp_path,
        "[instance]\npreset = cor51\np = 1\n[verification]\ncount = 2\n"
        f"[output]\ndir = {tmp_path / 'out'}\n",
    )
    assert main([command, "--config", cfg]) == EXIT_MATH
    assert "exponent rejected" in capsys.readouterr().out


@pytest.mark.parametrize(
    "body",
    [
        "preset = cor51\n",  # no section header
        "[instance]\npreset = cor51\npreset = cor53\n",  # duplicated option
        "[instance]\npreset = cor51\n[instance]\np = 2\n",  # duplicated section
        "[instance]\npreset = cor51\n[verification]\ncount = 1\nCOUNT = 2\n",  # same key
    ],
)
def test_malformed_config_rejected(tmp_path, body):
    assert main(["check", "--config", _write_config(tmp_path, body)]) == EXIT_USAGE


@pytest.mark.parametrize(
    "section, line",
    [
        ("verification", "cuont = 4"),
        ("verification", "jobs = 2"),
        ("scan", "budgett = 4"),
        ("output", "dirr = x"),
        ("quadrature", "tol = 1e-9"),
    ],
)
def test_unknown_key_rejected(tmp_path, section, line):
    cfg = _write_config(tmp_path, f"[instance]\npreset = cor51\n[{section}]\n{line}\n")
    assert main(["check", "--config", cfg]) == EXIT_USAGE


def test_unknown_key_in_environment_rejected(monkeypatch):
    monkeypatch.setenv("HARDYLAB_VERIFICATION_JOBS", "2")
    with pytest.raises(InvalidParamsError):
        load_config(None)


@pytest.mark.parametrize(
    "lines",
    [
        "which = hardyy",
        "family = bumps\nwhich = hardy",
        "family = bumps\nwhich = caccioppoli",
        "count = -4",
    ],
)
def test_verify_rejects_bad_batch_settings(tmp_path, lines):
    cfg = _write_config(
        tmp_path,
        f"[instance]\npreset = cor51\n[verification]\n{lines}\n"
        f"[output]\ndir = {tmp_path / 'out'}\n",
    )
    assert main(["verify", "--config", cfg]) == EXIT_USAGE


def test_unknown_section_in_environment_rejected(tmp_path, monkeypatch):
    monkeypatch.setenv("HARDYLAB_QUADRATURE_TOL", "1e-9")
    with pytest.raises(InvalidParamsError):
        load_config(None)
    cfg = _write_config(tmp_path, "[instance]\npreset = cor51\n")
    assert main(["check", "--config", cfg]) == EXIT_USAGE


@pytest.mark.parametrize("section", ["verification", "scan"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-8", "tight"])
def test_tolerance_must_be_finite_and_positive(tmp_path, section, value):
    cfg = _write_config(
        tmp_path,
        f"[instance]\npreset = cor51\n[{section}]\ntol = {value}\n"
        f"[output]\ndir = {tmp_path / 'out'}\n",
    )
    assert main(["verify", "--config", cfg]) == EXIT_USAGE
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "0"])
def test_tol_flag_must_be_finite_and_positive(tmp_path, value):
    cfg = _write_config(
        tmp_path, f"[instance]\npreset = cor51\n[output]\ndir = {tmp_path / 'out'}\n"
    )
    assert main(["verify", "--config", cfg, "--tol", value]) == EXIT_USAGE
    assert not (tmp_path / "out").exists()


def test_instance_keys_keep_their_case(tmp_path):
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path,
        "[instance]\npreset = cor51\nM = 0.5\n[verification]\nCOUNT = 0\n"
        f"[output]\ndir = {out}\n",
    )
    assert load_config(cfg)["verification"]["count"] == "0"
    assert main(["check", "--config", cfg]) == EXIT_OK
    record = parse_json((out / "check.json").read_bytes())
    assert record.instance["params"] == {"M": 0.5}
    assert record.instance["domain"] == [-0.5, 0.5]


@pytest.mark.parametrize("command", ["check", "verify"])
def test_cor64_minorant_from_file_rejected_by_check_and_verify(tmp_path, capsys, command):
    # u = x and a*beta - 2(p-1) - A < 0 for A = 100: only the closed-form
    # condition fails, and verify refuses the instance exactly as check does
    cfg = _write_config(
        tmp_path,
        "[instance]\npreset = cor64\nA = 100\n[verification]\ncount = 2\n"
        f"[output]\ndir = {tmp_path / 'out'}\n",
    )
    assert main([command, "--config", cfg]) == EXIT_MATH
    out = capsys.readouterr().out
    assert "normalized-power-condition" in out
    if command == "check":
        record = parse_json((tmp_path / "out" / "check.json").read_bytes())
        verdicts = {c["name"]: c["verdict"] for c in record.payload["conditions"]}
        assert verdicts == {
            "u-nonnegative": "holds-numerically",
            "pointwise": "holds-numerically",
            "beta-margin": "holds-numerically",
            "normalized-power-condition": "violated",
        }
