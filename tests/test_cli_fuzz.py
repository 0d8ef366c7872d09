"""Seeded end-to-end fuzz of the CLI: no config may end in a traceback.

Each draw is one INI, with ``[verification] count = 4``: either over a
preset row of ``instance._PRESETS`` (``raw`` on ``(0, inf)``), or a ``raw``
instance whose keys are random trees over every node kind of
``expr._KINDS``.  ``check``, ``verify`` and ``scan`` run on it in-process
and must each return a documented exit code.  A larger sweep over both
kinds of draw runs by hand::

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

import pytest

from hardylab.cli import EXIT_INDETERMINATE, EXIT_MATH, EXIT_OK, EXIT_USAGE, main
from hardylab.expr import _ARITY, _KINDS, X, Expr, const, to_string
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


def tree(rng, depth: int = 3) -> Expr:
    """A random tree of depth at most ``depth``: each node of any kind of
    ``expr._KINDS``, each leaf ``x`` or a constant in [-3, 3]."""
    if depth == 0 or rng.random() < 0.3:
        return X if rng.random() < 0.5 else const(round(rng.uniform(-3.0, 3.0), 3))
    kind = rng.choice(list(_KINDS))
    arity = _ARITY.get(kind, 1 if kind == "neg" else 2)
    return Expr(kind, tuple(tree(rng, depth - 1) for _ in range(arity)))


def draw_tree(rng) -> str:
    """One ``raw`` INI ``[instance]`` section whose keys are random trees,
    bare or inside one of the forms below."""
    t = lambda: to_string(tree(rng))
    p = rng.choice([lambda: f"1.5 + abs({t()})/(1 + abs({t()}))", t, lambda: f"2 + {t()}", lambda: "2"])
    u = rng.choice([lambda: f"({t()})^2", lambda: f"exp({t()})", lambda: f"abs({t()})",
                    lambda: f"1/(1+({t()})^2)", t, lambda: "x"])
    domain = rng.choice(["0, inf", "0, 1", "-1, 1", "0.1, 10", "-inf, inf", "-inf, 0", "1, inf"])
    phi = rng.choice([lambda: "auto", t])
    return (
        f"[instance]\npreset = raw\ndomain = {domain}\np = {p()}\nu = {u()}\nsigma = {t()}\n"
        f"phi = {phi()}\nbeta = {rng.uniform(0.5, 6.0):.6g}\n[verification]\ncount = 4\n"
    )


def write(instance: str, directory: Path) -> str:
    """The path of one drawn config, with its output under ``directory``."""
    cfg = directory / "lab.ini"
    cfg.write_text(f"{instance}[output]\ndir = {directory / 'out'}\n")
    return str(cfg)


def _exit_codes_are_documented(drawer, tmp_path):
    rng = random.Random(0)
    for i in range(DRAWS):
        instance = drawer(rng)
        directory = tmp_path / str(i)
        directory.mkdir()
        cfg = write(instance, directory)
        codes = {command: main([command, "--config", cfg]) for command in COMMANDS}
        assert set(codes.values()) <= EXIT_CODES, (instance, codes)


def test_no_drawn_config_ends_in_a_traceback(tmp_path):
    _exit_codes_are_documented(draw, tmp_path)


def test_no_random_tree_config_ends_in_a_traceback(tmp_path):
    _exit_codes_are_documented(draw_tree, tmp_path)


# Random-tree draws on which brentq did not converge in a bracketing cell,
# which SciPy raised as a RuntimeError through every command: a kink
# generator of raw's automatic phi, and the sign change of u's abs argument
# at 1, where it crosses zero with zero slope.
PINNED = [
    ("[instance]\npreset = raw\ndomain = 0, inf\n"
     "p = 1.5 + abs(abs(2.367 + abs(x)))/(1 + abs((min(x, x) - x) * abs(-0.53)))\n"
     "u = 1/(1+(abs(x + -2.931) ^ (-x))^2)\nsigma = (x * x + -1.751) * min(exp(x), -x)\n"
     "beta = 0.7873\n[verification]\ncount = 4\n",
     {"check": EXIT_MATH, "verify": EXIT_MATH, "scan": EXIT_MATH}),
    ("[instance]\npreset = raw\ndomain = -inf, inf\np = 2\nu = abs(log(x) * abs(log(x)))\n"
     "sigma = 0.269\nphi = abs(-2.684)\nbeta = 2.071\n[verification]\ncount = 4\n",
     {"check": EXIT_INDETERMINATE, "verify": EXIT_INDETERMINATE, "scan": EXIT_MATH}),
]


@pytest.mark.parametrize("instance, codes", PINNED, ids=["auto-phi-kink", "u-zero-slope"])
def test_a_bracket_brentq_does_not_converge_in_ends_in_an_exit_code(tmp_path, instance, codes):
    cfg = write(instance, tmp_path)
    assert {command: main([command, "--config", cfg]) for command in COMMANDS} == codes


if __name__ == "__main__":
    seed, draws = int(sys.argv[1]), int(sys.argv[2])
    rng = random.Random(seed)
    counts = {command: Counter() for command in COMMANDS}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(draws):
            instance = rng.choice((draw, draw_tree))(rng)
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
