"""Config-driven command line front end.

Subcommands: ``check`` (admissibility conditions), ``verify`` (batch
inequality verification), ``scan`` (sharpness search), ``reproduce`` (named
scenario pipelines), ``list-presets``.  Exit codes are a stable contract:
0 success, 1 mathematical failure, 2 usage or config error, 3 numerically
indeterminate.

Configuration comes from an INI file with sections ``instance``,
``verification``, ``scan``, ``output``; environment variables prefixed
``HARDYLAB_`` override the file, and command line flags override both.
Unknown sections or keys, out-of-range values and malformed files are
config errors, found by :func:`load_config` before any instance is built
(``[instance]`` keys that nothing reads and values that do not parse, by
:func:`build_instance`); only config errors exit 2.  Only ``[instance]``
keys read from a file keep their case.  See ``docs/config.md`` for every
key and its range.
"""

from __future__ import annotations

import argparse
import configparser
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
from .expr import identifiers, interval_from_text
from .instance import (
    HardyInstance,
    check_admissibility,
    check_nonneg,  # not called here; perfbench/tracing.py wraps cli.check_nonneg
    make_instance,
    preset,
    preset_names,
    preset_parameters,
)
from .report import emit_csv, emit_json, make_record
from .sharpness import FamilySpec, default_box, scan
from .verify import BATCH_KINDS, FAIL, FAMILIES, INDETERMINATE, PASS, batch_verify

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3

SECTIONS = ("instance", "verification", "scan", "output")

DEFAULTS = {
    "instance": {},
    "verification": {
        "family": "mixed",
        "count": "50",
        "seed": "7",
        "which": "both",
        "tol": "1e-8",
    },
    "scan": {
        "family": "hardy_cutoff",
        "budget": "500",
        "tol": "1e-6",
    },
    "output": {"dir": "hardylab-out"},
}

# (section, key, least value) of the keys that must be integers
_INTEGER_KEYS = (
    ("verification", "count", 0),
    ("verification", "seed", 0),
    ("scan", "budget", 1),
)

_EXPR_KEYS = {"p", "u", "phi", "sigma", "A"}
# the keys of ``preset = raw``
_RAW_KEYS = ("domain", "p", "u", "phi", "sigma", "beta")

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
        "scan": {"budget": "500", "max_ratio": "1.10"},
    },
}


# ---------------------------------------------------------------------------
# configuration


def load_config(path: str | None, overrides: dict | None = None) -> dict:
    """Layered config: defaults < file < HARDYLAB_* environment < CLI flags."""
    cfg = {section: dict(values) for section, values in DEFAULTS.items()}
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
    for section in ("verification", "scan", "output"):
        for key in cfg[section]:
            if key not in DEFAULTS[section] and not (
                section == "scan" and (key.startswith("box_") or key == "max_ratio")
            ):
                raise InvalidParamsError(f"unknown key {key!r} in [{section}]")
    for section, key in (("verification", "tol"), ("scan", "tol"), ("scan", "max_ratio")):
        if key not in cfg[section]:
            continue  # max_ratio is optional
        value = _maybe_number(cfg[section][key])
        if not (isinstance(value, float) and 0.0 < value < math.inf):
            raise InvalidParamsError(
                f"[{section}] {key} must be finite and positive, got {cfg[section][key]!r}"
            )
    for key, allowed in (("family", FAMILIES), ("which", (*BATCH_KINDS, "both"))):
        if cfg["verification"][key] not in allowed:
            raise InvalidParamsError(
                f"[verification] {key} must be one of {allowed}, got {cfg['verification'][key]!r}"
            )
    for section, key, least in _INTEGER_KEYS:
        try:
            ok = int(cfg[section][key]) >= least
        except ValueError:
            ok = False
        if not ok:
            raise InvalidParamsError(
                f"[{section}] {key} must be an integer >= {least}, got {cfg[section][key]!r}"
            )
    _scan_box(cfg["scan"])
    return cfg


def _scan_box(scan: dict) -> dict:
    """The scan family's default box, with each ``box_<p>`` key replacing the
    bounds of parameter ``<p>``; the box keeps the family's parameter order."""
    box = default_box(scan["family"])
    for key, text in scan.items():
        if not key.startswith("box_"):
            continue
        name = key[len("box_"):]
        if name not in box:
            raise InvalidParamsError(
                f"[scan] {key}: {scan['family']} has no parameter {name!r} (it has {list(box)})"
            )
        bounds = [_maybe_number(part) for part in text.split(",")]
        if not (
            len(bounds) == 2
            and all(isinstance(b, float) and math.isfinite(b) for b in bounds)
            and bounds[0] < bounds[1]
        ):
            raise InvalidParamsError(f"[scan] {key} must be 'lo, hi' with finite lo < hi, got {text!r}")
        box[name] = tuple(bounds)
    return box


def build_instance(cfg: dict) -> HardyInstance:
    """The configured instance.  A key that nothing reads, or a value that is
    not what its key needs (a domain that is not a nonempty ``lo, hi``
    interval, a non-numeric ``beta`` or ``M``), raises InvalidParamsError."""
    section = dict(cfg.get("instance", {}))
    if not section:
        raise InvalidParamsError("config has no [instance] section")
    name = section.pop("preset", None)
    if name is None:
        raise InvalidParamsError("[instance] must set 'preset' (a preset name or 'raw')")
    _reject_unused_keys(name, section)
    try:
        if name == "raw":
            return _build_raw_instance(section)
        kwargs = {}
        for key, value in section.items():
            if key == "domain":
                kwargs[key] = interval_from_text(value)
            elif key in _EXPR_KEYS:
                kwargs[key] = value
            else:
                kwargs[key] = _maybe_number(value)
        return preset(name, **kwargs)
    except ValueError as err:
        raise InvalidParamsError(f"bad [instance] value: {err}") from err


def _reject_unused_keys(name: str, section: dict):
    """Each ``[instance]`` key must be a parameter of the preset, or a name
    that one of the expression keys reads (``d`` in ``p = 1+d/(abs(x)+1)``)."""
    allowed = set(_RAW_KEYS if name == "raw" else preset_parameters(name))
    for key in _EXPR_KEYS & section.keys():
        allowed |= identifiers(section[key])
    unknown = [key for key in section if key not in allowed]
    if unknown:
        raise InvalidParamsError(
            f"[instance] key {unknown[0]!r} is not a parameter of preset {name!r}, "
            "and no expression reads it"
        )


def _maybe_number(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return text


def _build_raw_instance(section: dict) -> HardyInstance:
    missing = [k for k in ("p", "u", "sigma", "beta", "domain") if k not in section]
    if missing:
        raise InvalidParamsError(f"raw instance is missing keys {missing}")
    domain = interval_from_text(section.pop("domain"))
    p = section.pop("p")
    u = section.pop("u")
    sigma = section.pop("sigma")
    beta = float(section.pop("beta"))
    phi = section.pop("phi", None)
    if phi is not None and phi.strip().lower() == "auto":
        phi = None
    params = {k: float(v) for k, v in section.items()}
    return make_instance(domain, p, u, phi, sigma, beta, params=params)


def _out_dir(cfg) -> Path:
    return Path(cfg["output"]["dir"])


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
    if "violated" in verdicts:
        return EXIT_MATH
    if "indeterminate" in verdicts:
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
        print(line)
        payload["conditions"].append(
            {
                "name": cond.name,
                "verdict": cond.verdict,
                "worst_margin": cond.worst_margin,
                "witness": cond.witness,
            }
        )
    record = make_record("check", inst.describe(), payload, cfg)
    _write_atomic(_out_dir(cfg) / f"{label}.json", emit_json(record))
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
                "counts": summary.counts,
                "worst_margin": summary.worst_margin,
                "evaluations": summary.evaluations,
            }
            witnesses.extend({"inequality": kind, **w} for w in summary.witnesses)
            print(
                f"{kind}: {summary.counts[PASS]} pass, {summary.counts[FAIL]} fail, "
                f"{summary.counts[INDETERMINATE]} indeterminate "
                f"(worst margin {summary.worst_margin:.6g})"
            )
    except InadmissibleInstanceError as err:
        print(f"verify: {err}")
        return _admissibility_exit(check_admissibility(inst))
    payload["totals"] = totals
    record = make_record("verify", inst.describe(), payload, cfg)
    _write_atomic(_out_dir(cfg) / f"{label}.json", emit_json(record))
    if witnesses:
        replay = make_record(
            "witnesses",
            inst.describe(),
            {"seed": seed, "family": family, "witnesses": witnesses},
            cfg,
        )
        _write_atomic(_out_dir(cfg) / f"{label}-witnesses.json", emit_json(replay))
    total_cases = sum(totals.values())
    if totals[FAIL] > 0:
        return EXIT_MATH
    if total_cases and totals[INDETERMINATE] > 0.1 * total_cases:
        return EXIT_INDETERMINATE
    return EXIT_OK


def cmd_scan(cfg: dict, inst: HardyInstance, label: str = "scan") -> int:
    s = cfg["scan"]
    spec = FamilySpec(kind=s["family"], box=_scan_box(s))
    try:
        result = scan(inst, spec, budget=int(s["budget"]), tol=float(s["tol"]))
    except VacuousInstanceError as err:
        print(f"scan: vacuous instance: {err}")
        return EXIT_MATH
    names = list(spec.box.keys())
    print(
        f"scan: best ratio {result.best_ratio:.6g} after {result.evaluations} "
        f"evaluations (converged={result.converged})"
    )
    print(f"scan: best params {result.best_params}")
    payload = {
        "best_ratio": result.best_ratio,
        "best_params": result.best_params,
        "evaluations": result.evaluations,
        "converged": result.converged,
        "family": spec.kind,
        "box": {k: list(v) for k, v in spec.box.items()},
    }
    record = make_record("scan", inst.describe(), payload, cfg)
    _write_atomic(_out_dir(cfg) / f"{label}.json", emit_json(record))
    best = result.best_so_far()
    rows = [
        [i, *[entry.params[n] for n in names], entry.ratio, best[i]]
        for i, entry in enumerate(result.trace)
    ]
    header = ["eval", *names, "ratio", "best_so_far"]
    _write_atomic(_out_dir(cfg) / f"{label}-trace.csv", emit_csv(rows, header))
    max_ratio = s.get("max_ratio")
    if max_ratio is not None and result.best_ratio > float(max_ratio):
        print(f"scan: best ratio exceeds the expected bound {max_ratio}")
        return EXIT_MATH
    return EXIT_OK


def cmd_reproduce(name: str, cfg: dict) -> int:
    if name not in SCENARIOS:
        print(f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}")
        return EXIT_USAGE
    scenario = SCENARIOS[name]
    merged = {section: dict(values) for section, values in cfg.items()}
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
        if args.command not in commands:
            return EXIT_USAGE
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
