#!/usr/bin/env python3
"""Run the full pipeline on both bundled instances and print a summary.

Each report is written by `obstruction-lab verify NAME --seed N --out PATH`
(through `cli.main`), so it is byte for byte what `verify` writes; without
--out the reports go to a temporary directory.

Usage: python3 scripts/reproduce.py [--seed N] [--out DIR]
"""

import argparse
import json
import pathlib
import sys
import tempfile
import time

from obstruction_lab.cli import EXIT_INCONCLUSIVE, EXIT_OK, main as cli_main
from obstruction_lab.obstruction import DEFAULT_SEED


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--out", default=None, help="directory for report JSON")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(args.out or tmp)
        out.mkdir(parents=True, exist_ok=True)
        for name in ("quartic", "cubic"):
            path = out / ("%s_report.json" % name)
            start = time.monotonic()
            code = cli_main(["verify", name, "--seed", str(args.seed),
                             "--out", str(path)])
            elapsed = time.monotonic() - start
            if code not in (EXIT_OK, EXIT_INCONCLUSIVE):
                sys.exit(code)
            report = json.loads(path.read_text())
            flags = ",".join(report["flags"]) or "-"
            print("%-8s %-16s flags=%-14s %.1fs" %
                  (name, report["verdict"], flags, elapsed))


if __name__ == "__main__":
    main()
