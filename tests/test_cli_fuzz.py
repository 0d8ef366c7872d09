"""Seeded end-to-end fuzz of the CLI: no config may end in a traceback.

Each draw is one INI over a preset row of ``instance._PRESETS`` (``raw`` on
``(0, inf)``), with ``[verification] count = 4``; ``check``, ``verify`` and
``scan`` run on it in-process and must each return a documented exit code.
A larger sweep runs by hand::

    PYTHONPATH=src python tests/test_cli_fuzz.py SEED DRAWS

which prints the exit codes' counts per command and each crash's config.
"""

import io
import random
import sys
import tempfile
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hardylab.cli import EXIT_INDETERMINATE, EXIT_MATH, EXIT_OK, EXIT_USAGE, main
from hardylab.instance import _PRESETS

PRESETS = ("constp", "cor53", "cor54", "cor55", "cor64", "raw")
COMMANDS = ("check", "verify", "scan")
EXIT_CODES = {EXIT_OK, EXIT_MATH, EXIT_USAGE, EXIT_INDETERMINATE}
DRAWS = 40


def _number(rng):
    return f"{rng.uniform(0.1, 4.0):.6g}"


def _exponent(rng):
    return rng.choice(["2", _number(rng), "x+2", "2-1/(x+2)", "2-exp(-x^2)", "1+x/(1+x)"])


def _sigma(rng):
    return rng.choice([f"{rng.uniform(-1.0, 3.0):.6g}", "x/(1+x)", "1"])


def _weight(rng):
    a = _number(rng)
    return rng.choice([f"(1+x^2)^(-{a})", f"x^{a}", f"exp(-{a}*x)", "x/(1+x)"])


def draw(rng) -> str:
    """One INI ``[instance]`` section: each key of a preset row keeps its
    default or is drawn anew, a required key always; the domain is
    ``(0, inf)``, which holds every scan member, or the row's default."""
    name = rng.choice(PRESETS)
    lines = [f"preset = {name}"]
    for key, default in _PRESETS[name].keys.items():
        if key == "domain":
            value = rng.choice([default or "0, inf", "0, inf"])
        elif key == "phi":
            continue  # raw's phi stays auto
        elif default is not None and rng.random() < 0.5:
            value = default
        else:
            value = {"p": _exponent, "sigma": _sigma, "u": _weight}.get(key, _number)(rng)
        lines.append(f"{key} = {value}")
    return "[instance]\n" + "\n".join(lines) + "\n[verification]\ncount = 4\n"


def write(instance: str, directory: Path) -> str:
    """The path of one drawn config, with its output under ``directory``."""
    cfg = directory / "lab.ini"
    cfg.write_text(f"{instance}[output]\ndir = {directory / 'out'}\n")
    return str(cfg)


def test_no_drawn_config_ends_in_a_traceback(tmp_path):
    rng = random.Random(0)
    for i in range(DRAWS):
        instance = draw(rng)
        directory = tmp_path / str(i)
        directory.mkdir()
        cfg = write(instance, directory)
        codes = {command: main([command, "--config", cfg]) for command in COMMANDS}
        assert set(codes.values()) <= EXIT_CODES, (instance, codes)


if __name__ == "__main__":
    seed, draws = int(sys.argv[1]), int(sys.argv[2])
    rng = random.Random(seed)
    counts = {command: Counter() for command in COMMANDS}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(draws):
            instance = draw(rng)
            directory = Path(tmp) / str(i)
            directory.mkdir()
            cfg = write(instance, directory)
            for command in COMMANDS:
                try:
                    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                        code = main([command, "--config", cfg])
                except Exception:
                    code = "crash"
                    trace = traceback.format_exc()
                    print(f"{command} crashed on\n{instance}{trace}", file=sys.stderr)
                counts[command][code] += 1
    tally = {command: dict(sorted(n.items(), key=str)) for command, n in counts.items()}
    print(f"seed {seed}, {draws} draws: {tally}")
