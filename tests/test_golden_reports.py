"""Byte identity of the full-size `verify` reports at fixed seeds.

The digests are the sha256 of `obstruction-lab verify NAME --seed 1 --out
FILE` and of `obstruction-lab verify NAME --out FILE` (the default seed),
which write `json.dumps(report, indent=2) + "\n"`.  A change meant to keep
every random draw and every report byte must leave them as they are; a
change that alters a report on purpose updates them and says why.
"""

import hashlib

import pytest

from obstruction_lab import cli

GOLDEN_SHA256 = {
    "quartic": "f51fbf94b4e1bf5b512b83d1dd7438bbe892a0f4e44caffa4626f38d90c78b85",
    "cubic": "e0b83058aa3cd2d8b8aa636db84e3c6e010a12a4cd7fa639fcbcbc9deea96f52",
}

DEFAULT_SEED_SHA256 = {
    "quartic": "1acea2b5de9ebd26a29fbf8c760cacaa2df8b9faefa99032b61ae8b883fd6061",
    "cubic": "31da6e63ae909c9584366d2e0a9f6c544c61fc92f1143f79996c51d55fcbcf51",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_verify_report_digest(name, tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["verify", name, "--seed", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[name]


@pytest.mark.parametrize("name", sorted(DEFAULT_SEED_SHA256))
def test_default_seed_report_digest(name, tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["verify", name, "--out", str(out)]) == 0
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == DEFAULT_SEED_SHA256[name])
