"""Config-driven command line front end.

Subcommands: ``check`` (admissibility conditions), ``verify`` (batch
inequality verification), ``scan`` (sharpness limit), ``reproduce`` (named
scenario pipelines), ``list-presets``.  Exit codes are a stable contract:
0 success, 1 mathematical failure, 2 usage or config error, 3 numerically
indeterminate.

Configuration comes from an INI file with sections ``instance``,
``verification``, ``scan``, ``output``; environment variables prefixed
``HARDYLAB_`` override the file, and command line flags override both.
Unknown sections or keys, out-of-range values and malformed files are
config errors, found by :func:`load_config` before any instance is built
(``[instance]`` keys that nothing reads and values that do not parse, by
``instance.preset``); only config errors exit 2.  Only ``[instance]``
keys read from a file keep their case.  See ``docs/config.md`` for every
key and its range.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import math
import os
import sys
import tempfile
from pathlib import Path

from .errors import (
    ExponentRangeError,
    HardyLabError,
    InadmissibleInstanceError,
    IntegrabilityProbeError,
    InvalidParamsError,
    ParseError,
    VacuousInstanceError,
)
from .instance import (
    INDETERMINATE,
    VIOLATED,
    HardyInstance,
    check_admissibility,
    check_nonneg,  # not called here; perfbench/tracing.py wraps cli.check_nonneg
    make_instance,  # not called here; perfbench/tracing.py wraps cli.make_instance
    preset,
    preset_names,
)
from .report import emit_csv, emit_json, make_record
from .sharpness import scan
from .verify import BATCH_KINDS, FAIL, FAMILIES, PASS, batch_verify

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3


def _is_count(text: str) -> bool:
    try:
        return int(text) >= 0
    except ValueError:
        return False


def _is_positive(text: str) -> bool:
    try:
        return 0.0 < float(text) < math.inf
    except ValueError:
        return False


_WHICH = (*BATCH_KINDS, "both")

# Every key outside [instance]: (default or None for unset, the test its
# value must pass, what that test asks for).
KEYS = {
    "verification": {
        "family": ("mixed", lambda text: text in FAMILIES, f"be one of {FAMILIES}"),
        "count": ("50", _is_count, "be an integer >= 0"),
        "seed": ("7", _is_count, "be an integer >= 0"),
        "which": ("both", lambda text: text in _WHICH, f"be one of {_WHICH}"),
        "tol": ("1e-8", _is_positive, "be finite and positive"),
    },
    "scan": {"max_ratio": (None, _is_positive, "be finite and positive")},
    "output": {"dir": ("hardylab-out", lambda text: True, "be a directory")},
}
SECTIONS = ("instance", *KEYS)

SCENARIOS = {
    "cor51": {
        "instance": {"preset": "cor51", "M": "1", "p": "2", "sigma": "1", "beta": "2"},
        "verification": {"count": "12"},
    },
    "cor53": {
        "instance": {
            "preset": "cor53", "alpha": "2", "p": "x+3", "sigma": "2",
            "beta": "3", "domain": "0, 1",
        },
        "verification": {"count": "12", "family": "power_bump"},
    },
    "cor54": {
        "instance": {
            "preset": "cor54", "a": "1", "p": "2", "sigma": "2.5",
            "beta": "3.5", "domain": "0.1, 10",
        },
        "verification": {"count": "12"},
    },
    "cor55-triple1": {
        "instance": {
            "preset": "cor55", "p": "1+d/(abs(x)+1)", "sigma": "d",
            "beta": "2", "domain": "-5, 5", "d": "1",
        },
        "verification": {"count": "12"},
    },
    "cor55-triple2": {
        "instance": {
            "preset": "cor55", "p": "exp(x)", "sigma": "(x+1)*exp(x)-1+0.1",
            "beta": "22.3", "domain": "0, 2",
        },
        "verification": {"count": "12"},
    },
    "cor55-triple3": {
        "instance": {
            "preset": "cor55", "p": "2-exp(-x^2)",
            "sigma": repr(2 * math.exp(-1.5) + 1),
            "beta": repr(2 * math.exp(-1.5) + 2), "domain": "0, inf",
        },
        "verification": {"count": "12"},
    },
    "cor64-affine": {
        "instance": {"preset": "cor64", "a": "1", "p": "x+2", "beta": "5", "domain": "0, 1"},
        "verification": {"count": "12"},
    },
    "cor64-reciprocal": {
        "instance": {"preset": "cor64", "a": "1", "p": "2-1/(x+2)", "beta": "2.5", "domain": "0, inf"},
        "verification": {"count": "12"},
    },
    "cor64-rational": {
        "instance": {
            "preset": "cor64", "a": "1", "p": "1+(g+d1*x)/(g+d2*x)",
            "beta": "5", "domain": "0, inf", "g": "1", "d1": "2", "d2": "1",
        },
        "verification": {"count": "12"},
    },
    "constp-hardy": {
        "instance": {"preset": "constp", "alpha": "0.5", "p": "2", "beta": "1"},
        "verification": {"count": "8", "which": "hardy"},
        "scan": {"max_ratio": "1.10"},
    },
}


# ---------------------------------------------------------------------------
# configuration


def load_config(path: str | None, overrides: dict | None = None) -> dict:
    """Layered config: defaults < file < HARDYLAB_* environment < CLI flags."""
    cfg = {"instance": {}}
    for section, keys in KEYS.items():
        cfg[section] = {key: spec[0] for key, spec in keys.items() if spec[0] is not None}
    if path is not None:
        parser = configparser.ConfigParser()
        parser.optionxform = str
        try:
            read = parser.read(path)
            if not read:
                raise InvalidParamsError(f"config file {path!r} not found")
            for section in parser.sections():
                if section not in SECTIONS:
                    raise InvalidParamsError(f"unknown config section [{section}]")
                values = dict(parser[section])  # [instance] keys keep their case
                if section != "instance":
                    values = {k.lower(): v for k, v in values.items()}
                    if len(values) < len(parser[section]):
                        raise InvalidParamsError(f"duplicated key in [{section}]")
                cfg[section].update(values)
        except configparser.Error as err:
            raise InvalidParamsError(f"malformed config file {path!r}: {err}") from err
    for name, value in os.environ.items():
        if not name.startswith("HARDYLAB_"):
            continue
        rest = name[len("HARDYLAB_"):].lower()
        section = next((s for s in SECTIONS if rest.startswith(s + "_")), None)
        if section is None:
            raise InvalidParamsError(f"{name} names no config section")
        cfg[section][rest[len(section) + 1:]] = value
    for section, values in (overrides or {}).items():
        cfg[section].update({k: v for k, v in values.items() if v is not None})
    for section, keys in KEYS.items():
        for key, value in cfg[section].items():
            if key not in keys:
                raise InvalidParamsError(f"unknown key {key!r} in [{section}]")
            _, test, asks = keys[key]
            if not test(value):
                raise InvalidParamsError(f"[{section}] {key} must {asks}, got {value!r}")
    return cfg


def build_instance(cfg: dict) -> HardyInstance:
    """The configured instance, from ``preset(name, **keys)`` with the
    ``[instance]`` values as text.  A missing ``preset``, a key that nothing
    reads, or a value that is not what its key needs (a domain that is not a
    nonempty ``lo, hi`` interval, a non-numeric ``beta`` or ``M``), raises
    InvalidParamsError."""
    section = dict(cfg.get("instance", {}))
    name = section.pop("preset", None)
    if name is None:
        raise InvalidParamsError("[instance] must set 'preset' (a preset name or 'raw')")
    try:
        return preset(name, **section)
    except (ValueError, InvalidParamsError) as err:
        raise InvalidParamsError(f"[instance] {err}") from err


def _write_atomic(path: Path, data: bytes):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_record(cfg: dict, label: str, operation: str, inst: HardyInstance, payload: dict):
    record = make_record(operation, inst.describe(), payload, cfg)
    _write_atomic(Path(cfg["output"]["dir"]) / f"{label}.json", emit_json(record))


# ---------------------------------------------------------------------------
# commands


def _instance_or_none(cfg: dict, command: str) -> HardyInstance | None:
    """The configured instance, or None after reporting a rejected exponent."""
    try:
        return build_instance(cfg)
    except (ExponentRangeError, IntegrabilityProbeError) as err:
        print(f"{command}: exponent rejected: {err}")
        return None


def _admissibility_exit(report) -> int:
    """Exit 1 if a condition of an admissibility report is violated, else 3
    if one is indeterminate, else 0."""
    verdicts = {cond.verdict for cond in report.conditions}
    if VIOLATED in verdicts:
        return EXIT_MATH
    if INDETERMINATE in verdicts:
        return EXIT_INDETERMINATE
    return EXIT_OK


def cmd_check(cfg: dict, inst: HardyInstance, label: str = "check") -> int:
    payload = {"conditions": []}
    report = check_admissibility(inst)
    for cond in report.conditions:
        line = f"condition {cond.name}: {cond.verdict} (worst margin {cond.worst_margin:.6g}"
        if cond.witness is not None:
            line += f" at x={cond.witness:.9g}"
        line += ")"
        if cond.skipped:
            line += f", skipped {cond.skipped} of {cond.points} grid points"
        print(line)
        payload["conditions"].append(
            {
                "name": cond.name,
                "verdict": cond.verdict,
                "worst_margin": cond.worst_margin,
                "witness": cond.witness,
                "skipped": cond.skipped,
            }
        )
    _write_record(cfg, label, "check", inst, payload)
    return _admissibility_exit(report)


def cmd_verify(cfg: dict, inst: HardyInstance, label: str = "verify") -> int:
    v = cfg["verification"]
    count = int(v["count"])
    seed = int(v["seed"])
    family = v["family"]
    tol = float(v["tol"])
    which = v["which"]
    kinds = ("caccioppoli", "hardy") if which == "both" else (which,)

    totals = {PASS: 0, FAIL: 0, INDETERMINATE: 0}
    payload = {"batches": {}, "count_per_batch": count, "seed": seed, "family": family}
    witnesses = []
    try:
        for kind in kinds:
            summary = batch_verify(inst, family, count, seed, which=kind, tol=tol)
            for key, value in summary.counts.items():
                totals[key] += value
            payload["batches"][kind] = {
                "family": summary.family,
                "counts": summary.counts,
                "worst_margin": summary.worst_margin,
                "evaluations": summary.evaluations,
            }
            witnesses.extend(
                {"inequality": kind, "family": summary.family, **w} for w in summary.witnesses
            )
            print(
                f"{kind}: {summary.counts[PASS]} pass, {summary.counts[FAIL]} fail, "
                f"{summary.counts[INDETERMINATE]} indeterminate "
                f"(worst margin {summary.worst_margin:.6g})"
            )
    except InadmissibleInstanceError as err:
        print(f"verify: {err}")
        return _admissibility_exit(check_admissibility(inst))
    except VacuousInstanceError as err:
        print(f"verify: vacuous instance: {err}")
        return EXIT_MATH
    payload["totals"] = totals
    _write_record(cfg, label, "verify", inst, payload)
    if witnesses:
        replay = {"seed": seed, "witnesses": witnesses}
        _write_record(cfg, f"{label}-witnesses", "witnesses", inst, replay)
    total_cases = sum(totals.values())
    if totals[FAIL] > 0:
        return EXIT_MATH
    if total_cases and totals[INDETERMINATE] > 0.1 * total_cases:
        return EXIT_INDETERMINATE
    return EXIT_OK


def cmd_scan(cfg: dict, inst: HardyInstance, label: str = "scan") -> int:
    try:
        result = scan(inst)
    except VacuousInstanceError as err:
        print(f"scan: vacuous instance: {err}")
        return EXIT_MATH
    print(f"scan: best ratio {result.best_ratio:.6g}")
    print(f"scan: limit {result.limit:.9g} +- {result.limit_error:.2g} ({result.verdict})")
    payload = {
        "best_ratio": result.best_ratio,
        "limit": result.limit,
        "limit_error": result.limit_error,
        "verdict": result.verdict,
    }
    _write_record(cfg, label, "scan", inst, payload)
    rows = [[entry.width, entry.ratio, entry.error_bound] for entry in result.trace]
    header = ["width", "ratio", "error_bound"]
    _write_atomic(Path(cfg["output"]["dir"]) / f"{label}-trace.csv", emit_csv(rows, header))
    if result.verdict == INDETERMINATE:
        return EXIT_INDETERMINATE
    max_ratio = cfg["scan"].get("max_ratio")
    if max_ratio is not None and result.limit > float(max_ratio):
        print(f"scan: the limit exceeds the expected bound {max_ratio}")
        return EXIT_MATH
    return EXIT_OK


def cmd_reproduce(name: str, cfg: dict) -> int:
    if name not in SCENARIOS:
        print(f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}")
        return EXIT_USAGE
    scenario = SCENARIOS[name]
    # the scenario's [instance] replaces the configured one; its other
    # sections layer over the configured ones
    merged = {section: dict(values) for section, values in cfg.items()}
    merged["instance"] = {}
    for section, values in scenario.items():
        merged.setdefault(section, {}).update(values)
    print(f"scenario {name}: check")
    inst = _instance_or_none(merged, "check")
    if inst is None:
        return EXIT_MATH
    code = cmd_check(merged, inst, label=f"{name}-check")
    if code != EXIT_OK:
        return code
    print(f"scenario {name}: verify")
    code = cmd_verify(merged, inst, label=f"{name}-verify")
    if code != EXIT_OK:
        return code
    if "scan" in scenario:
        print(f"scenario {name}: scan")
        code = cmd_scan(merged, inst, label=f"{name}-scan")
        if code != EXIT_OK:
            return code
    print(f"scenario {name}: ok")
    return EXIT_OK


def cmd_list_presets(cfg: dict) -> int:
    print("presets:")
    for name in preset_names():
        print(f"  {name}")
    print("scenarios:")
    for name in sorted(SCENARIOS):
        print(f"  {name}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardylab",
        description="numerical laboratory for variable-exponent Hardy and "
        "Caccioppoli inequalities on intervals",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="INI config file")
    common.add_argument("--seed", type=int, default=None, help="override the verification seed")
    common.add_argument("--tol", type=float, default=None, help="override the verification tolerance")
    common.add_argument("--out", default=None, help="output directory")
    sub.add_parser("check", parents=[common])
    sub.add_parser("verify", parents=[common])
    sub.add_parser("scan", parents=[common])
    rep = sub.add_parser("reproduce", parents=[common])
    rep.add_argument("scenario")
    sub.add_parser("list-presets", parents=[common])
    return parser


def _overrides(args) -> dict:
    seed = str(args.seed) if args.seed is not None else None
    tol = repr(args.tol) if args.tol is not None else None
    return {
        "verification": {"seed": seed, "tol": tol},
        "output": {"dir": args.out},
    }


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config, _overrides(args))
        if args.command == "reproduce":
            return cmd_reproduce(args.scenario, cfg)
        if args.command == "list-presets":
            return cmd_list_presets(cfg)
        commands = {"check": cmd_check, "verify": cmd_verify, "scan": cmd_scan}
        inst = _instance_or_none(cfg, args.command)
        if inst is None:
            return EXIT_MATH
        return commands[args.command](cfg, inst)
    except (ParseError, InvalidParamsError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except HardyLabError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
