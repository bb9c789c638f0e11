"""Byte identity of the full-size `verify` reports at a fixed seed.

The digests are the sha256 of `obstruction-lab verify NAME --seed 1 --out
FILE`, which writes `json.dumps(report, indent=2) + "\n"`.  A change meant
to keep every random draw and every report byte must leave them as they
are; a change that alters a report on purpose updates them and says why.
"""

import hashlib

import pytest

from obstruction_lab import cli

GOLDEN_SHA256 = {
    "quartic": "fb6088aec6a8ed8e917b66247762b2a0580003e43589785dc8900deffe50feaf",
    "cubic": "9d8775f7cb620e97626dafb9dd8a7587c5ac758b5c219bf0058592512498ecee",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_verify_report_digest(name, tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["verify", name, "--seed", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[name]
