#!/usr/bin/env python3
"""Run the benchmark on several seeds per workload and summarise it.

Usage, from the root of a checkout:

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/BENCH_baseline.json

For every workload this makes one untraced run per seed, then one traced run
on the first seed.  Each end-to-end metric is summarised by its median,
quartiles (`statistics.quantiles(values, n=4)`) and spread, the distance
between the quartiles as a share of the median, next to the bound that
BENCHMARK.json fixes for it, and each seed's per-kind figures are kept
next to them.  The traced run's per-layer metrics are kept as they are.
The traced run and the untraced run of the first seed
run in separate processes and share input index 0, so their report
fingerprints must match: that checks that a report depends only on its
inputs, with or without tracing.
Runs are strictly one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed (%s seed %d trace %d):\n%s"
                         % (workload, seed, trace, proc.stderr))
    result = json.loads(lines[-1])
    record = json.loads((HERE / "out" / ("%s-seed%d-trace%d.json"
                                         % (workload, seed, trace)))
                        .read_text())
    return result, record


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    summary = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        values = {}
        fingerprints = {}
        kinds = {}
        for seed in seeds:
            result, record = run_once(workload, seed, args.seconds, 0)
            summary["machine"] = record["machine"]
            fingerprints[seed] = record["fingerprints"]
            kinds[seed] = record["per_kind"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (k, v["value"])
                for k, v in result["metrics"].items())), flush=True)
        traced, traced_record = run_once(workload, seeds[0], args.seconds, 1)
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rows[name] = {"unit": bounds[name]["unit"],
                          "bound": bounds[name]["bound"], "median": med,
                          "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                          "values": vals}
            print("  %-30s median %-12.6g spread %.3f (bound %.2f)"
                  % (name, med, rows[name]["spread"],
                     bounds[name]["bound"]), flush=True)
        untraced = fingerprints[seeds[0]]
        same = all(untraced.get(key) == fps
                   for key, fps in traced_record["fingerprints"].items())
        print("  traced and untraced reports of seed %d identical: %s"
              % (seeds[0], same), flush=True)
        summary["workloads"][workload] = {
            "end_to_end": rows,
            "per_layer": {k: v["value"]
                          for k, v in traced["metrics"].items()},
            "traced_seed": seeds[0],
            "traced_matches_untraced": same,
            "fingerprints": fingerprints,
            "per_kind": kinds,
        }
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
