"""Canonical serialization of run records and traces.

JSON output is deterministic (sorted keys, fixed separators) and every float
is emitted twice: a decimal field for humans and a hex-float field that
round-trips bit-exactly.  CSV output is numeric-only with 17 significant
digits, comma-separated, LF line endings.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone

from . import __version__

SCHEMA_ID = "hardylab/run-record-v1"


@dataclass
class RunRecord:
    tool_version: str
    timestamp: str
    config_hash: str
    instance: dict
    operation: str
    payload: dict
    quadrature_stats: dict
    schema: str = SCHEMA_ID


def config_hash(config: dict) -> str:
    """Stable digest of a canonicalized config mapping (section -> key -> value)."""
    lines = []
    for section in sorted(config):
        entries = config[section]
        for key in sorted(entries):
            lines.append(f"{section}.{key}={entries[key]!r}")
    blob = "\n".join(lines).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def make_record(
    operation: str,
    instance: dict,
    payload: dict,
    config: dict | None = None,
    quadrature_stats: dict | None = None,
) -> RunRecord:
    return RunRecord(
        tool_version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        config_hash=config_hash(config or {}),
        instance=instance,
        operation=operation,
        payload=payload,
        quadrature_stats=quadrature_stats or {},
    )


def _encode(value):
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return {
            "decimal": value if math.isfinite(value) else repr(value),
            "hex": value.hex(),
        }
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _decode(value):
    if isinstance(value, dict):
        if set(value.keys()) == {"decimal", "hex"}:
            return float.fromhex(value["hex"])
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


def emit_json(record: RunRecord) -> bytes:
    doc = _encode(vars(record))
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False).encode(
        "utf-8"
    ) + b"\n"


def parse_json(data: bytes) -> RunRecord:
    doc = _decode(json.loads(data.decode("utf-8")))
    return RunRecord(**doc)


def _format_cell(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def emit_csv(rows, header) -> bytes:
    """Header plus rectangular numeric rows; floats carry 17 significant digits."""
    lines = [",".join(header)]
    width = len(header)
    for row in rows:
        cells = [_format_cell(v) for v in row]
        if len(cells) != width:
            raise ValueError(f"row width {len(cells)} does not match header width {width}")
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode("utf-8")
