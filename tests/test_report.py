import json
import math

import pytest

from hardylab.report import (
    RunRecord,
    config_hash,
    emit_csv,
    emit_json,
    make_record,
    parse_json,
)


def _sample_record():
    return make_record(
        "verify",
        {"preset": "cor51", "params": {"M": 1.0}, "beta": 2.0},
        {
            "lhs": 1.0811526011,
            "rhs_main": 6.62574521625,
            "rhs_log": 0.0,
            "margin": 5.5445926151,
            "verdict": "pass",
            "counts": {"pass": 50, "fail": 0, "indeterminate": 0},
        },
        config={"quadrature": {"tol": "1e-8"}},
        quadrature_stats={"evaluations": 1234},
    )


def test_emit_json_deterministic():
    rec = _sample_record()
    assert emit_json(rec) == emit_json(rec)


def test_json_roundtrip_bit_exact():
    rec = _sample_record()
    rec.payload["awkward"] = [0.1 + 0.2, 1e-308, -0.0, math.pi]
    back = parse_json(emit_json(rec))
    assert back.payload["lhs"] == rec.payload["lhs"]
    for original, recovered in zip(rec.payload["awkward"], back.payload["awkward"]):
        assert math.copysign(1.0, recovered) == math.copysign(1.0, original)
        assert recovered == original
    assert back.payload["counts"] == rec.payload["counts"]
    assert back.timestamp == rec.timestamp


def test_json_handles_non_finite():
    rec = _sample_record()
    rec.payload["worst"] = math.inf
    rec.payload["missing"] = math.nan
    back = parse_json(emit_json(rec))
    assert back.payload["worst"] == math.inf
    assert math.isnan(back.payload["missing"])


def test_json_is_schema_shaped():
    doc = json.loads(emit_json(_sample_record()))
    for key in (
        "tool_version",
        "timestamp",
        "config_hash",
        "instance",
        "operation",
        "payload",
        "quadrature_stats",
        "schema",
    ):
        assert key in doc
    assert set(doc["payload"]["lhs"].keys()) == {"decimal", "hex"}


def test_config_hash_stability():
    a = {"quadrature": {"tol": "1e-8"}, "instance": {"preset": "cor51"}}
    b = {"instance": {"preset": "cor51"}, "quadrature": {"tol": "1e-8"}}
    assert config_hash(a) == config_hash(b)
    c = {"instance": {"preset": "cor53"}, "quadrature": {"tol": "1e-8"}}
    assert config_hash(a) != config_hash(c)


def test_csv_rows_and_precision():
    rows = [[0, 0, 0.1, 1.0943237724528792], [0, 1, 0.2, 1.5]]
    data = emit_csv(rows, ["restart", "eval", "x", "ratio"]).decode()
    lines = data.strip().split("\n")
    assert lines[0] == "restart,eval,x,ratio"
    assert len(lines) == 3
    assert "1.0943237724528792" in lines[1]
    assert float(lines[1].split(",")[3]) == 1.0943237724528792


def test_csv_empty_trace():
    data = emit_csv([], ["a", "b"]).decode()
    assert data == "a,b\n"


def test_csv_rejects_ragged_rows():
    with pytest.raises(ValueError):
        emit_csv([[1, 2], [1]], ["a", "b"])
