"""Every JSON record that ``hardylab reproduce`` writes validates against
``schemas/run-record.json``."""

import json
from pathlib import Path

import pytest

from hardylab.cli import EXIT_OK, main

jsonschema = pytest.importorskip("jsonschema")

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "schemas" / "run-record.json").read_text()
)


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    out = tmp_path_factory.mktemp("reproduce")
    for scenario in ("constp-hardy", "cor51"):
        assert main(["reproduce", scenario, "--out", str(out)]) == EXIT_OK
    return {path.name: json.loads(path.read_bytes()) for path in out.glob("*.json")}


def test_every_record_matches_the_schema(records):
    jsonschema.Draft7Validator.check_schema(SCHEMA)
    validator = jsonschema.Draft7Validator(
        SCHEMA, format_checker=jsonschema.Draft7Validator.FORMAT_CHECKER
    )
    # both scenarios pass every case, so neither writes a witnesses record
    assert set(records) == {
        "constp-hardy-check.json", "constp-hardy-verify.json", "constp-hardy-scan.json",
        "cor51-check.json", "cor51-verify.json",
    }
    for name, doc in records.items():
        errors = [error.message for error in validator.iter_errors(doc)]
        assert errors == [], name


def test_scan_record_payload(records):
    doc = records["constp-hardy-scan.json"]
    assert doc["operation"] == "scan"
    payload = doc["payload"]
    assert set(payload) == {"best_ratio", "limit", "limit_error", "verdict"}
    assert payload["verdict"] == "sharp"
