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
    "quartic": "bc21dd400ca596d6e829094f614c3ea9c75b13d8de2b19fae33eff01c319cf44",
    "cubic": "28fa652c467d065587e00c19622d9f9cca016e5dc13d53b26b0d17883c3aaec8",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_verify_report_digest(name, tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["verify", name, "--seed", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[name]
