#!/usr/bin/env python3
"""Run the full pipeline on both bundled instances and print a summary.

Usage: python3 scripts/reproduce.py [--seed N] [--out DIR]
"""

import argparse
import json
import pathlib
import time

from obstruction_lab.cli import load_instance
from obstruction_lab.obstruction import DEFAULT_SEED, obstruction_verdict


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--out", default=None, help="directory for report JSON")
    args = ap.parse_args()

    for name in ("quartic", "cubic"):
        instance = load_instance(name)
        start = time.monotonic()
        report = obstruction_verdict(instance, seed=args.seed)
        elapsed = time.monotonic() - start
        flags = ",".join(report["flags"]) or "-"
        print("%-8s %-16s flags=%-14s %.1fs" %
              (name, report["verdict"], flags, elapsed))
        if args.out:
            out = pathlib.Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            (out / ("%s_report.json" % name)).write_text(
                json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
