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
    "quartic": "871d55fcdbc2c955995fbf89044494bdcda8b74e9f8f853ca0c0541e5916a374",
    "cubic": "e0b83058aa3cd2d8b8aa636db84e3c6e010a12a4cd7fa639fcbcbc9deea96f52",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_verify_report_digest(name, tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["verify", name, "--seed", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[name]
