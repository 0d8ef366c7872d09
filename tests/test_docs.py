"""docs/config.md lists every config key with its default, and every preset
with its keys and formulas."""

import re
from pathlib import Path

import pytest

from hardylab.cli import KEYS
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
