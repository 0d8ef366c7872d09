import json
import math

import pytest

from hardylab import cli, sharpness, verify
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
from hardylab.instance import preset
from hardylab.report import parse_json
from hardylab.verify import batch_verify


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


@pytest.mark.parametrize("body, key", [
    ("preset = cor51\nM = 1\nbta = 3\n", "bta"),
    ("preset = cor55\np = 1+d/(abs(x)+1)\nsigma = 1\nd = 1\ne = 2\n", "e"),
    ("preset = raw\ndomain = 0, 1\np = 2\nu = x\nsigma = 0\nbeta = 1\nalpha = 2\n", "alpha"),
])
def test_check_rejects_instance_key_nothing_reads(tmp_path, capsys, body, key):
    # a key is a parameter of the preset or a name an expression reads
    cfg = _write_config(tmp_path, f"[instance]\n{body}[output]\ndir = {tmp_path / 'out'}\n")
    assert main(["check", "--config", cfg]) == EXIT_USAGE
    assert repr(key) in capsys.readouterr().err


def test_check_accepts_instance_key_an_expression_reads(tmp_path):
    cfg = _write_config(
        tmp_path,
        "[instance]\npreset = raw\ndomain = 0, 1\np = 2\nu = k*x\nsigma = 0\nbeta = 1\nk = 2\n"
        f"[output]\ndir = {tmp_path / 'out'}\n",
    )
    assert main(["check", "--config", cfg]) == EXIT_OK


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
        f"[output]\ndir = {tmp_path / 'out'}\n",
    )
    assert main(["scan", "--config", cfg]) == EXIT_MATH
    assert "vacuous" in capsys.readouterr().out


def test_scan_writes_one_trace_row_per_width(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, f"[instance]\npreset = constp\n[output]\ndir = {out}\n")
    assert main(["scan", "--config", cfg]) == EXIT_OK
    assert capsys.readouterr().out == (
        "scan: best ratio 1.05037\nscan: limit 1.00000001 +- 8.2e-06 (sharp)\n"
    )
    header, *rows = (out / "scan-trace.csv").read_text().strip().split("\n")
    assert header == "width,ratio,error_bound"
    assert [row.split(",")[0] for row in rows] == ["18.75", "37.5", "75", "150"]
    payload = parse_json((out / "scan.json").read_bytes()).payload
    assert payload["verdict"] == "sharp"
    assert abs(payload["limit"] - 1.0) <= payload["limit_error"]


def test_indeterminate_scan_exits_3(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setattr(sharpness, "ratio", lambda *a: (math.nan, math.inf))
    cfg = _write_config(tmp_path, f"[instance]\npreset = constp\n[output]\ndir = {out}\n")
    assert main(["scan", "--config", cfg]) == EXIT_INDETERMINATE
    assert "(indeterminate)" in capsys.readouterr().out
    assert parse_json((out / "scan.json").read_bytes()).payload["verdict"] == "indeterminate"


def test_hardy_poincare_scan_is_indeterminate_not_a_traceback(tmp_path, capsys):
    # the widest member's panel (1e75, 2e75) has a Gauss-Kronrod difference
    # above 1e203, where QUADPACK's (200 raw)^1.5 would overflow
    cfg = _write_config(
        tmp_path,
        "[instance]\npreset = raw\ndomain = 0, inf\np = 2\nu = (1+x^2)^(-0.5)\n"
        f"sigma = 3\nbeta = 4\n[output]\ndir = {tmp_path / 'out'}\n",
    )
    assert main(["scan", "--config", cfg]) == EXIT_INDETERMINATE
    out = capsys.readouterr().out
    assert "scan: best ratio 7.05306\n" in out
    assert "scan: limit nan +- nan (indeterminate)\n" in out


def test_reproduce_unknown_scenario(tmp_path):
    assert main(["reproduce", "does-not-exist", "--out", str(tmp_path / "o")]) == EXIT_USAGE


def test_reproduce_replaces_the_configured_instance_with_the_scenarios(tmp_path):
    # a configured A would subtract 0.5 from cor64's closed-form condition
    out = tmp_path / "out"
    names = ("cor64-affine-check.json", "cor64-affine-verify.json")
    cfg = _write_config(tmp_path, "[instance]\nA = 0.5\n")
    records = []
    for config in ([], ["--config", cfg]):
        assert main(["reproduce", "cor64-affine", *config, "--out", str(out)]) == EXIT_OK
        records.append([parse_json((out / name).read_bytes()) for name in names])
    for want, got in zip(*records):
        assert (got.config_hash, got.instance, got.payload) == (want.config_hash, want.instance, want.payload)


def test_reproduce_ignores_instance_keys_from_the_environment(tmp_path, monkeypatch):
    # cor51 has no parameter D, so it used to exit 2 on an unread key
    monkeypatch.setenv("HARDYLAB_INSTANCE_D", "3")
    assert main(["reproduce", "cor51", "--out", str(tmp_path / "out")]) == EXIT_OK


def test_reproduce_scenario_names_complete():
    names = set(SCENARIOS)
    assert {
        "cor51", "cor53", "cor54",
        "cor55-triple1", "cor55-triple2", "cor55-triple3",
        "cor64-affine", "cor64-reciprocal", "cor64-rational",
        "constp-hardy",
    } <= names


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_reproduce_scenarios_exit_zero(scenario, tmp_path, capsys):
    assert main(["reproduce", scenario, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert "skipped" not in capsys.readouterr().out
    record = parse_json((tmp_path / "out" / f"{scenario}-check.json").read_bytes())
    assert {c["skipped"] for c in record.payload["conditions"]} == {0}


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


def test_scan_rejects_support_outside_domain(tmp_path, capsys, monkeypatch):
    # the widest member reaches up to 2e75, far outside (-1, 1); it is
    # rejected before any ratio is evaluated or any output written
    calls = []
    real_run_hardy = sharpness._run_hardy
    monkeypatch.setattr(sharpness, "_run_hardy", lambda *a: calls.append(a) or real_run_hardy(*a))
    cfg = _write_config(
        tmp_path,
        f"[instance]\npreset = cor51\n[output]\ndir = {tmp_path / 'out'}\n",
    )
    assert main(["scan", "--config", cfg]) == EXIT_MATH
    captured = capsys.readouterr()
    assert "support must lie strictly inside the domain" in captured.err
    assert "vacuous" not in captured.out
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_scan_ignores_the_seed(tmp_path):
    outputs = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        cfg = _write_config(tmp_path, f"[instance]\npreset = constp\n[output]\ndir = {out}\n")
        assert main(["scan", "--config", cfg, "--seed", seed]) == EXIT_OK
        payload = parse_json((out / "scan.json").read_bytes()).payload
        outputs.append((payload, (out / "scan-trace.csv").read_bytes()))
    assert outputs[0] == outputs[1]


def test_verify_domain_error_is_an_indeterminate_witness(tmp_path, capsys):
    # check holds everywhere, but case 12 of seed 7 reaches x + 0.9 < 0
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path,
        "[instance]\npreset = cor51\nM = 1\np = 2\nsigma = 1 + 0.01*exp(log(x + 0.9))\n"
        "beta = 2\n[verification]\nwhich = hardy\nfamily = power_bump\ncount = 13\n"
        f"[output]\ndir = {out}\n",
    )
    assert main(["check", "--config", cfg]) == EXIT_OK
    assert main(["verify", "--config", cfg]) == EXIT_OK  # 1 of 13 is under the 10% rule
    assert "12 pass, 0 fail, 1 indeterminate" in capsys.readouterr().out
    totals = parse_json((out / "verify.json").read_bytes()).payload["totals"]
    assert totals == {"pass": 12, "fail": 0, "indeterminate": 1}
    [witness] = parse_json((out / "verify-witnesses.json").read_bytes()).payload["witnesses"]
    assert witness["index"] == 12 and math.isnan(witness["margin"])
    assert witness["error"].startswith("log of nonpositive value")
    assert -1.0 < witness["x"] < -0.9


def test_check_reports_skipped_grid_points(tmp_path, capsys):
    # sigma is undefined on (-1, -0.9]: 5% of the grid, under the one-fifth
    # limit, so every condition holds, and the skipped points are shown
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path,
        "[instance]\npreset = cor51\nM = 1\np = 2\nsigma = 1 + 0.01*exp(log(x + 0.9))\n"
        f"beta = 2\n[output]\ndir = {out}\n",
    )
    assert main(["check", "--config", cfg]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "condition u-nonnegative: holds-numerically (worst margin 0.0001)"
    assert lines[1].endswith("(worst margin 1), skipped 501 of 10004 grid points")
    assert lines[2].endswith("(worst margin 0.981), skipped 502 of 10006 grid points")
    assert lines[3].endswith("(worst margin 1), skipped 501 of 10002 grid points")
    conditions = parse_json((out / "check.json").read_bytes()).payload["conditions"]
    assert {c["name"]: (c["verdict"], c["skipped"]) for c in conditions} == {
        "u-nonnegative": ("holds-numerically", 0),
        "pointwise": ("holds-numerically", 501),
        "beta-margin": ("holds-numerically", 502),
        "sigma-nonnegative": ("holds-numerically", 501),
    }


def test_check_rejects_unknown_verification_family(tmp_path):
    cfg = _write_config(
        tmp_path,
        "[instance]\npreset = cor51\n[verification]\nfamily = nope\n"
        f"[output]\ndir = {tmp_path / 'out'}\n",
    )
    assert main(["check", "--config", cfg]) == EXIT_USAGE
    assert not (tmp_path / "out").exists()


def test_check_rejects_unknown_verification_which_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("HARDYLAB_VERIFICATION_WHICH", "both_")
    cfg = _write_config(
        tmp_path, f"[instance]\npreset = cor51\n[output]\ndir = {tmp_path / 'out'}\n"
    )
    assert main(["check", "--config", cfg]) == EXIT_USAGE
    assert not (tmp_path / "out").exists()


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


def test_a_configured_domain_reads_the_preset_numbers(tmp_path):
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path, f"[instance]\npreset = cor51\nM = 3\ndomain = -M/2, M/2\n[output]\ndir = {out}\n"
    )
    assert main(["check", "--config", cfg]) == EXIT_OK
    assert parse_json((out / "check.json").read_bytes()).instance["domain"] == [-1.5, 1.5]


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


@pytest.mark.parametrize("command", ["check", "verify"])
def test_indeterminate_admissibility_exits_3(tmp_path, capsys, command):
    # log(x - 0.5) cannot be evaluated on half the grid, so u-nonnegative
    # and pointwise are indeterminate and none is violated: both exit 3
    cfg = _write_config(
        tmp_path,
        "[instance]\npreset = raw\np = 2\nu = log(x - 0.5)\nsigma = 1\nbeta = 2\n"
        "domain = 0, 1\n[verification]\ncount = 2\n"
        f"[output]\ndir = {tmp_path / 'out'}\n",
    )
    assert main([command, "--config", cfg]) == EXIT_INDETERMINATE
    assert "u-nonnegative" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["check", "verify"])
def test_an_infinite_negative_sample_violates_the_pointwise_condition(tmp_path, capsys, command):
    # phi overflows to -inf past x = 0.71: a worst value of -inf is violated,
    # not forgiven by a tolerance scaled to it
    cfg = _write_config(
        tmp_path,
        "[instance]\npreset = raw\ndomain = 0, 1\np = 2\nu = x + 1\nphi = 0 - exp(1000*x)\n"
        "sigma = 0\nbeta = 1\n[verification]\ncount = 2\n"
        f"[output]\ndir = {tmp_path / 'out'}\n",
    )
    assert main([command, "--config", cfg]) == EXIT_MATH
    out = capsys.readouterr().out
    if command == "check":
        assert "condition pointwise: violated" in out and "at x=" in out
    else:
        assert "fails ['pointwise']" in out


@pytest.mark.parametrize("key", ["budget", "restarts", "tol"])
@pytest.mark.parametrize("value", ["0", "-2", "1e3"])
def test_removed_scan_count_keys_are_unknown(tmp_path, capsys, monkeypatch, key, value):
    cfg = _write_config(
        tmp_path,
        f"[instance]\npreset = constp\n[scan]\n{key} = {value}\n"
        f"[output]\ndir = {tmp_path / 'out'}\n",
    )
    assert main(["scan", "--config", cfg]) == EXIT_USAGE
    assert f"unknown key {key!r} in [scan]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    monkeypatch.setenv(f"HARDYLAB_SCAN_{key.upper()}", value)
    with pytest.raises(InvalidParamsError, match="unknown key"):
        load_config(None)


@pytest.mark.parametrize(
    "line",
    [
        "family = hardy_cutoff",
        "family = power_bump",
        "box_eps = 0.01, 0.3",
        "box_log10_inner = -40, -1",
        "box_log10_outer = 1, 40",
        "box_center = 0.3, 0.7",
        "box_halfwidth = 0.1, 0.2",
        "box_height = 0.5, 2",
        "box_foo = 0, 1",
        "box_eps = 0.3, 0.01",
        "box_eps = 0.1",
        "box_eps = 0.1, 0.2, 0.3",
        "box_eps = a, b",
        "box_eps = 0.1, inf",
        "box_eps = nan, 0.2",
    ],
)
def test_removed_scan_family_and_box_keys_are_unknown(tmp_path, capsys, line):
    key = line.split(" = ")[0]
    cfg = _write_config(
        tmp_path,
        f"[instance]\npreset = constp\n[scan]\n{line}\n"
        f"[output]\ndir = {tmp_path / 'out'}\n",
    )
    assert main(["scan", "--config", cfg]) == EXIT_USAGE
    assert f"unknown key {key!r} in [scan]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section, line",
    [
        ("verification", "count = many"),
        ("verification", "count = 2.5"),
        ("verification", "seed = -1"),
        ("verification", "seed = seven"),
        ("scan", "seed = -3"),
        ("scan", "max_ratio = nan"),
        ("scan", "max_ratio = 0"),
        ("scan", "max_ratio = big"),
    ],
)
def test_bad_count_seed_and_max_ratio_exit_2_from_load_config(tmp_path, section, line):
    cfg = _write_config(
        tmp_path,
        f"[instance]\npreset = cor51\n[{section}]\n{line}\n"
        f"[output]\ndir = {tmp_path / 'out'}\n",
    )
    with pytest.raises(InvalidParamsError):
        load_config(cfg)
    command = "verify" if section == "verification" else "scan"
    assert main([command, "--config", cfg]) == EXIT_USAGE
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "body",
    [
        "preset = cor51\ndomain = 0.5, -0.5",  # empty interval
        "preset = cor51\ndomain = 0.5",  # not a pair
        "preset = cor51\nM = wide",
        "preset = cor51\nbeta = big",
        "preset = raw\np = 2\nu = 1 - abs(x)\nsigma = 1\nbeta = big\ndomain = -1, 1",
        "preset = cor51\nM = inf",  # would sample u = inf - abs(x) on the whole line
        "preset = cor51\nbeta = inf",
        "preset = cor54\na = nan",
        "preset = cor53\nalpha = nan",
        "preset = constp\nalpha = 0",  # the default sigma = 1 - 1/(2 alpha) divides by zero
        "preset = cor64\np = 2+sigma*x\nsigma = 0.5",  # cor64's sigma is a formula, not a key
        "preset = cor55\ndomain = -INF, 1",  # spellings that only Python's float reads
        "preset = cor55\ndomain = 0, Infinity",
        "preset = cor55\ndomain = 0, 1_000",
        "preset = cor55\ndomain = 0, x",  # an end that is not constant
        "preset = cor55\ndomain = 0, max(1, 2)",  # every comma separates two ends
    ],
)
def test_bad_instance_value_exits_2(tmp_path, capsys, body):
    cfg = _write_config(tmp_path, f"[instance]\n{body}\n[output]\ndir = {tmp_path / 'out'}\n")
    assert main(["check", "--config", cfg]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_internal_error_is_not_a_usage_error(tmp_path, monkeypatch):
    def broken(cfg, inst):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "cmd_check", broken)
    cfg = _write_config(tmp_path, "[instance]\npreset = cor51\n")
    with pytest.raises(KeyError):
        main(["check", "--config", cfg])


@pytest.mark.parametrize("body, key", [
    ("preset = cor51\nname = 3\n", "name"),  # not taken for preset()'s own argument
    ("preset = constp\nu = x\n", "u"),
    ("preset = constp\nphi = 0\n", "phi"),
])
def test_instance_key_no_preset_parameter_takes_exits_2(tmp_path, capsys, body, key):
    cfg = _write_config(tmp_path, f"[instance]\n{body}[output]\ndir = {tmp_path / 'out'}\n")
    assert main(["check", "--config", cfg]) == EXIT_USAGE
    assert f"key {key!r} is not a parameter" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_check_a_half_line_too_far_out_to_sample_exits_2(tmp_path, capsys):
    # 1e300 + 64 rounds to 1e300, so no sampling window fits
    cfg = _write_config(
        tmp_path,
        "[instance]\npreset = raw\np = 2\nu = x\nsigma = 0\nbeta = 1\ndomain = 1e300, inf\n"
        f"[output]\ndir = {tmp_path / 'out'}\n",
    )
    assert main(["check", "--config", cfg]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "span 64 in (1e+300, inf)" in err and "empty interval" not in err


def test_raw_instance_without_domain_exits_2(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, "[instance]\npreset = raw\np = 2\nu = x\nsigma = 0\nbeta = 1\n"
    )
    assert main(["check", "--config", cfg]) == EXIT_USAGE
    assert "preset 'raw' is missing keys ['domain']" in capsys.readouterr().err


def test_raw_instance_record_names_its_preset(tmp_path):
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path,
        "[instance]\npreset = raw\np = 2\nu = k*x\nsigma = 0\nbeta = 1\ndomain = 0, 1\nk = 2\n"
        f"[output]\ndir = {out}\n",
    )
    assert main(["check", "--config", cfg]) == EXIT_OK
    record = parse_json((out / "check.json").read_bytes())
    assert record.instance["preset"] == "raw"
    assert record.instance["params"] == {"k": 2.0}


def test_list_presets_includes_raw(capsys):
    assert main(["list-presets"]) == EXIT_OK
    presets = capsys.readouterr().out.split("scenarios:")[0].split()
    assert presets == ["presets:", "cor51", "cor53", "cor54", "cor55", "cor64", "constp", "raw"]


def test_verify_refuses_a_vacuous_instance(tmp_path, capsys):
    # sigma = 0 makes the left weight of cor51 vanish identically: every
    # case would pass, so verify exits 1 as scan does and writes nothing
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path,
        f"[instance]\npreset = cor51\nsigma = 0\n[verification]\ncount = 5\n[output]\ndir = {out}\n",
    )
    assert main(["verify", "--config", cfg]) == EXIT_MATH
    assert capsys.readouterr().out.startswith("verify: vacuous instance:")
    assert not (out / "verify.json").exists()


def test_verify_record_names_the_family_each_batch_drew_from(tmp_path, monkeypatch):
    # Caccioppoli batches draw power bumps whatever family is configured
    out = tmp_path / "out"
    assert main(["reproduce", "cor51", "--out", str(out)]) == EXIT_OK
    payload = parse_json((out / "cor51-verify.json").read_bytes()).payload
    assert payload["family"] == "mixed"
    assert {kind: batch["family"] for kind, batch in payload["batches"].items()} == {
        "caccioppoli": "power_bump", "hardy": "mixed",
    }
    real, drawn = verify.random_test_function, []
    monkeypatch.setattr(verify, "random_test_function", lambda *args: drawn.append(real(*args)) or drawn[-1])
    summary = batch_verify(preset("cor51"), "mixed", 6, 7, which="caccioppoli")
    assert summary.family == "power_bump"
    assert len(drawn) == 6 and {tf.kind for tf in drawn} == {"power-bump"}


def test_each_witness_names_the_family_it_was_drawn_from(tmp_path):
    # phi = 1e4 breaks the PDI that the inequalities rest on, so every case
    # fails and becomes a witness
    out = tmp_path / "out"
    cfg = _write_config(
        tmp_path,
        "[instance]\npreset = raw\ndomain = 0, 1\np = 2\nu = x\nphi = 1e4\nsigma = 0\n"
        f"beta = 1\n[verification]\ncount = 2\n[output]\ndir = {out}\n",
    )
    assert main(["verify", "--config", cfg]) == EXIT_MATH
    replay = parse_json((out / "verify-witnesses.json").read_bytes()).payload
    assert set(replay) == {"seed", "witnesses"}
    assert [(w["inequality"], w["family"]) for w in replay["witnesses"]] == [
        ("caccioppoli", "power_bump"), ("caccioppoli", "power_bump"),
        ("hardy", "mixed"), ("hardy", "mixed"),
    ]
