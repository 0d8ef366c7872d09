"""docs/config.md lists every config key with its default, and every preset
with its keys and formulas; README's norm caveat quotes the norm's
tolerances, and its Gauss-Kronrod caveat the error floor; the scan lines both
quote are the program's."""

import re
import sys
from pathlib import Path

import pytest

from hardylab import quadrature, spaces
from hardylab.cli import KEYS, SCENARIOS, main
from hardylab.instance import _PRESETS, preset_names

CONFIG_MD = Path(__file__).resolve().parent.parent / "docs" / "config.md"


def _table(section: str) -> dict[str, list[str]]:
    """The rows of the first table under ``## [section]``, by their key."""
    text = CONFIG_MD.read_text(encoding="utf-8")
    body = text.split(f"## [{section}]\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in body.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        match = re.fullmatch(r"`(\w+)`", cells[0]) if line.startswith("|") else None
        if match:
            rows[match.group(1)] = cells[1:]
    return rows


@pytest.mark.parametrize(
    "section, key", [(section, key) for section, keys in KEYS.items() for key in keys]
)
def test_every_config_key_is_documented_with_its_default(section, key):
    rows = _table(section)
    assert key in rows, f"[{section}] {key} has no row in docs/config.md"
    default = KEYS[section][key][0]
    assert rows[key][0] == ("unset" if default is None else f"`{default}`")


def test_preset_row_lists_every_preset():
    assert re.findall(r"`([\w]+)`", _table("instance")["preset"][0]) == preset_names()


def _preset_rows() -> dict[str, list[str]]:
    """The cells of the table under ``### Presets``, by preset."""
    body = CONFIG_MD.read_text(encoding="utf-8").split("### Presets\n", 1)[1].split("\n#", 1)[0]
    rows = {}
    for line in body.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        match = re.fullmatch(r"`(\w+)`", cells[0]) if line.startswith("|") else None
        if match:
            rows[match.group(1)] = cells[1:]
    return rows


@pytest.mark.parametrize("name", preset_names())
def test_preset_table_row_is_the_preset(name):
    keys, u, sigma, condition = _preset_rows()[name]
    row = _PRESETS[name]
    # a key without a default is written without one
    assert re.findall(r"`(\w+)(?: = ([^`]*))?`", keys) == [
        (key, default or "") for key, default in row.keys.items()
    ]
    assert (u, sigma) == (f"`{row.u}`", f"`{row.sigma}`")
    assert condition == (f"`{row.condition}`" if row.condition else "none")


def test_readme_norm_caveat_quotes_the_norm_tolerances():
    text = (CONFIG_MD.parent.parent / "README.md").read_text(encoding="utf-8")
    paragraph = text.split("- A Luxemburg norm ", 1)[1].split("\n- ", 1)[0]
    quoted = dict(re.findall(r"`(\w+) = ([^`]+)`", paragraph))
    for name in ("NORM_TOL", "NORM_TOL_ABS", "LOOSE_TOL"):
        assert float(quoted[name]) == getattr(spaces, name), name


def test_readme_gauss_kronrod_caveat_quotes_the_floor():
    text = (CONFIG_MD.parent.parent / "README.md").read_text(encoding="utf-8")
    paragraph = text.split("- A Gauss-Kronrod panel's error bound ", 1)[1].split("\n- ", 1)[0]
    factor = re.search(r"`(\d+)·eps`", paragraph).group(1)
    assert float(factor) * sys.float_info.epsilon == quadrature._GK_FLOOR


def _scan_output(tmp_path, capsys, scenario: str) -> str:
    """What ``hardylab scan`` prints on a scenario's instance."""
    cfg = tmp_path / "lab.ini"
    keys = "".join(f"{key} = {value}\n" for key, value in SCENARIOS[scenario]["instance"].items())
    cfg.write_text(f"[instance]\n{keys}[output]\ndir = {tmp_path / 'out'}\n")
    main(["scan", "--config", str(cfg)])
    return capsys.readouterr().out


def test_config_quotes_the_indeterminate_cor64_scan(tmp_path, capsys):
    text = CONFIG_MD.read_text(encoding="utf-8")
    quoted = re.search(
        r"On `cor64` with `p = 2-1/\(x\+2\)`, `beta = 2.5` on\s+`\(0, inf\)` it reads `([^`]+)`", text
    )
    assert f"scan: {quoted.group(1)}\n" in _scan_output(tmp_path, capsys, "cor64-reciprocal")


def test_readme_quotes_the_constp_hardy_scan(tmp_path, capsys):
    text = (CONFIG_MD.parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("the scan of `reproduce constp-hardy` prints\n", 1)[1]
    quoted = re.search(r"```\n(.*?)```", block, re.DOTALL).group(1)
    lines = [line.strip() for line in quoted.strip().splitlines()]
    assert lines == _scan_output(tmp_path, capsys, "constp-hardy").splitlines()
