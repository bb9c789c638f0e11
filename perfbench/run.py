#!/usr/bin/env python3
"""Benchmark of obstruction-lab: full-size `verify` on both bundled
instances, and a stream of single-shot point queries.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-quartic --seed 1 \\
        --seconds 35 --trace 0

Workloads (closed loop, one caller, in-process):
  verify-quartic  `cli.main(["verify", "quartic", ...])`: heavy factoring in
                  the odd-place scan, 512-class 2-adic table, costly square
                  sampling, 1M-pair pure-power search per target.
  verify-cubic    the same for `cubic` (targets 1 and -1): integer search
                  dominates; the bypass workload for table, square-sampling
                  and factor-skip changes.
  point-queries   the engine calls behind `profile`, `reciprocity`,
                  `hilbert`, `local` and `torsion` on seeded inputs; the only
                  workload reaching `padicsolve` and `elliptic`, and it
                  bypasses every pipeline stage.

A run repeats *units* (one verify, or one batch of queries) until
`--seconds` is spent and checks every answer independently.  Untraced runs
give unit i the inputs of index i: a verify seed, or a batch of queries,
drawn from `--seed` and i.  Every run makes at least the workload's
`evidence_units` units (2 verifies, 16 query batches), and the evidence
metrics are the mean over those first input indices, so they repeat exactly
for a given `--seed`.  With `--trace 1` every unit uses input index 0, the
first unit runs untraced and the rest traced (see tracer.py): the
per-layer metrics are per unit and their call counts must repeat exactly.
Units with the same inputs, traced or not, must give identical answers.

Operations have kinds: `verify` has one, `point-queries` one per query
(`profile` and `local` one per instance).  The latency metrics are the
median per kind and the goodput is the median over units of answered and
correct operations per second, per kind; each is then the geometric mean
over the kinds, so every kind weighs the same and no guessed traffic mix
decides the figure.  The per-kind figures are printed and recorded too.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  The lines before it list the same metrics, and
their names in the verify / query vocabulary.  Everything measured, the
spans, the exact counts and the machine go to `perfbench/out/`.  The exit
code is 0 only when every check passed; it is 2, with no result, when the
package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from array import array
from pathlib import Path

from speed import SpeedClock
from tracer import LAYER_NAMES, Tracer, delta
from workloads import (INSTANCES, QueryWorkload, VerifyWorkload, load_docs,
                       search_pairs)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("verify-quartic", "verify-cubic", "point-queries")
SETUP_LAUNCHES = 7
# Seconds a bare interpreter (`python3 -c pass`) takes to start and exit at
# the reference speed (the fast state of a 2-vCPU Xeon guest, Python 3.11).
BARE_REF_S = 0.041
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from obstruction_lab import cli; "
              + "; ".join("cli.load_instance(%r)" % n for n in INSTANCES))


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": model,
            "platform": platform.platform()}


def launch(cmd):
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                          capture_output=True, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError("launch of %r failed: %s"
                           % (cmd, proc.stderr.decode(errors="replace")))
    return elapsed


def measure_setup():
    """Set-up time: a fresh interpreter imports the package and loads both
    instances.  Launches alternate with bare interpreters that do nothing,
    after one untimed set-up launch that fills the bytecode cache.  The
    median set-up launch is reported relative to the median bare launch,
    in seconds at BARE_REF_S per bare launch: process start-up slows with
    the host's state much as set-up does, and far less than pure-Python
    work does.  Returns (set-up seconds, raw set-up launches, raw bare
    launches)."""
    setup = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    bare = [sys.executable, "-c", "pass"]
    launch(setup)
    setups, bares = [], []
    for _ in range(SETUP_LAUNCHES):
        bares.append(launch(bare))
        setups.append(launch(setup))
    return (statistics.median(setups) * BARE_REF_S / statistics.median(bares),
            setups, bares)


def load_engine():
    sys.path.insert(0, str(SRC))
    from obstruction_lab import (cli, elliptic, exactarith, localsymbols,
                                 obstruction, padicsolve)
    return types.SimpleNamespace(cli=cli, elliptic=elliptic,
                                 exactarith=exactarith,
                                 localsymbols=localsymbols,
                                 obstruction=obstruction,
                                 padicsolve=padicsolve)


class Unit:
    """One checked unit, reduced to what the metrics need: per-operation
    times scaled to the reference speed, outcome counts, the problems found,
    the fingerprint of its answers and its evidence.  The answers are not
    kept, so the benchmark's own memory does not grow with the run."""

    __slots__ = ("key", "traced", "stats", "counters", "scale", "raw_wall",
                 "walls", "cpus", "ok", "ops", "declined", "failed",
                 "problems", "fingerprint", "evidence")

    def __init__(self, key, workload, answers, traced, trace_delta, clock,
                 span):
        self.key = key
        self.traced = traced
        self.stats, self.counters = trace_delta or (None, None)
        self.scale = clock.scale(*span)
        self.raw_wall = sum(a.wall for a in answers)
        # Per kind: scaled wall and cpu seconds, and answered, correct count.
        self.walls, self.cpus, self.ok = {}, {}, {}
        for a in answers:
            k = clock.scale(a.start, a.end)
            self.walls.setdefault(a.kind, array("d")).append(a.wall * k)
            self.cpus.setdefault(a.kind, array("d")).append(a.cpu * k)
            self.ok[a.kind] = self.ok.get(a.kind, 0) + (
                not a.problems and not a.declined)
        self.ops = len(answers)
        self.declined = sum(1 for a in answers if a.declined)
        self.failed = sum(1 for a in answers if a.problems)
        self.problems = ["%r: %s" % (a.query, p)
                         for a in answers for p in a.problems]
        self.fingerprint = workload.fingerprint(answers)
        self.evidence = None if self.failed else workload.evidence(answers)


def run_units(workload, engine, seconds, tracer):
    """Repeat the workload's unit until `seconds` would be exceeded by one
    more unit as long as the last, and at least `evidence_units` times.
    Returns the units and the run's seconds."""
    units = []
    start = time.perf_counter()
    last = 0.0
    with SpeedClock() as clock:
        while len(units) < workload.evidence_units or \
                time.perf_counter() - start + last <= seconds:
            traced = tracer is not None and bool(units)
            index = 0 if tracer is not None else len(units)
            before = after = None
            if traced:
                tracer.install()
                before = tracer.snapshot()
            t0 = time.perf_counter()
            try:
                answers = workload.run_unit(engine, clock, index)
            finally:
                if traced:
                    after = tracer.snapshot()
                    tracer.uninstall()
            last = time.perf_counter() - t0
            workload.check_unit(answers, engine)
            trace_delta = delta(before, after) if traced else None
            units.append(Unit(workload.input_key(index), workload, answers,
                              traced, trace_delta, clock, (t0, t0 + last)))
    return units, time.perf_counter() - start


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def geometric_mean(values):
    values = list(values)
    if min(values) <= 0:
        return 0.0
    return math.exp(statistics.fmean(math.log(v) for v in values))


def per_kind(units):
    """Per operation kind: median scaled wall and cpu seconds, and the
    median over units of answered and correct operations per second."""
    out = {}
    for kind in sorted({k for u in units for k in u.walls}):
        mine = [u for u in units if kind in u.walls]
        out[kind] = {
            "op_s.p50": statistics.median(w for u in mine
                                          for w in u.walls[kind]),
            "op_cpu_s.p50": statistics.median(c for u in mine
                                              for c in u.cpus[kind]),
            "ok_ops_per_s": statistics.median(u.ok[kind] / sum(u.walls[kind])
                                              for u in mine),
            "ops": sum(len(u.walls[kind]) for u in mine)}
    return out


def end_to_end(units, kinds, setup_s, evidence_units):
    """The untraced metrics: the per-kind figures combined by geometric
    mean, the evidence of the first input indices, set-up time and the
    peak memory of the benchmark and any child process it waited for."""
    evidence = [u.evidence or (0, 0) for u in units[:evidence_units]]
    share, conditions = (statistics.mean(e) for e in zip(*evidence))
    rss = max(resource.getrusage(who).ru_maxrss for who in (
        resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    metrics = {"setup_s": (setup_s, "s")}
    for name, unit in (("op_s.p50", "s"), ("op_cpu_s.p50", "s"),
                       ("ok_ops_per_s", "1/s")):
        metrics[name] = (geometric_mean(k[name] for k in kinds.values()),
                         unit)
    metrics.update({
        "evidence.checked_share": (share, "share"),
        "evidence.checked_conditions": (conditions, "count"),
        "peak_rss_mb": (rss / 1024, "MB"),
    })
    return metrics


def per_layer(units):
    """Per-unit call counts (identical in every traced unit) and median
    seconds over the traced units; the tracing overhead is the traced
    units' median time minus that of the untraced first unit."""
    traced = [u for u in units if u.traced]
    first = traced[0]
    out = {}
    for name in LAYER_NAMES:
        out[name + ".calls"] = (first.stats[name][0], "count")
        out[name + ".s"] = (statistics.median(
            u.stats[name][1] * u.scale for u in traced), "s")
        out[name + ".self_s"] = (statistics.median(
            u.stats[name][2] * u.scale for u in traced), "s")
    out["exactarith.factor.failed"] = (
        first.stats["exactarith.factor"][3], "count")
    for key in ("obstruction.integer_search.pairs",
                "obstruction.square_mod_sampling.skipped_primes"):
        out[key] = (first.counters.get(key, 0), "count")
    out["trace.overhead_s"] = (statistics.median(
        u.raw_wall * u.scale for u in traced)
        - units[0].raw_wall * units[0].scale, "s")
    return out


EXTRA_COUNTERS = {
    "obstruction.integer_search": lambda args, result: {
        "obstruction.integer_search.pairs":
            search_pairs(args[0].to_term_list(), args[2])},
    "obstruction.square_mod_sampling": lambda args, result: {
        "obstruction.square_mod_sampling.skipped_primes":
            len(result.skipped_primes)},
}

# Names the issue tracker and the verify / query vocabulary use for the
# workload-neutral metric names above.
ALIASES = {
    "verify": {"op_s.p50": "verify_s", "op_cpu_s.p50": "verify_cpu_s",
               "ok_ops_per_s": "verifies_ok_per_s",
               "evidence.checked_conditions": "evidence.odd_checked"},
    "queries": {"op_s.p50": "query_s.p50", "op_cpu_s.p50": "query_cpu_s.p50",
                "ok_ops_per_s": "queries_ok_per_s",
                "evidence.checked_conditions":
                    "local conditions certified per batch"},
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "obstruction_lab" / "cli.py").is_file():
        print("error: package sources not found under %s" % SRC,
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    setup_s, setup_raw, bare_raw = measure_setup()
    engine = load_engine()
    docs = load_docs(ROOT)
    if args.workload == "point-queries":
        workload = QueryWorkload(args.seed, docs, engine)
        vocabulary = "queries"
    else:
        workload = VerifyWorkload(args.workload.split("-")[1], args.seed,
                                  docs, OUT)
        vocabulary = "verify"
    tracer = Tracer(EXTRA_COUNTERS) if args.trace else None

    units, run_s = run_units(workload, engine, args.seconds, tracer)

    problems = [p for u in units for p in u.problems]
    fingerprints = {}
    for u in units:
        fingerprints.setdefault(u.key, set()).add(u.fingerprint)
    if any(len(fps) > 1 for fps in fingerprints.values()):
        problems.append("units with the same inputs gave different answers")
    fingerprints = {str(k): sorted(v) for k, v in fingerprints.items()}
    if tracer is not None:
        traced = [u for u in units if u.traced]
        counts = {tuple((n, s[0], s[3]) for n, s in sorted(u.stats.items()))
                  + tuple(sorted(u.counters.items())) for u in traced}
        if len(counts) > 1:
            problems.append("call counts differ between traced units")
        metrics = per_layer(units)
    kinds = per_kind(units)
    if tracer is None:
        metrics = end_to_end(units, kinds, setup_s, workload.evidence_units)
    attempted = sum(u.ops for u in units)
    failed = sum(u.failed for u in units)
    correct = not problems

    walls = [w for u in units for ws in u.walls.values() for w in ws]
    extra = {"units": len(units), "ops": attempted,
             "declined_share": sum(u.declined for u in units) / attempted,
             "failed_share": failed / attempted}
    if len(walls) >= 1000:
        extra["op_s.p99"] = percentile(walls, 99)

    label = "%s seed %d trace %d" % (args.workload, args.seed, args.trace)
    print("# %s: %d units, %d ops, %.1f s" % (label, len(units), attempted,
                                               run_s))
    for name, (value, unit) in metrics.items():
        alias = ALIASES[vocabulary].get(name)
        print("%-52s %14s %-6s%s" % (name, "%.6g" % value if isinstance(
            value, float) else value, unit, "  (%s)" % alias if alias else ""))
    for name, value in extra.items():
        print("%-52s %14.6g" % ("info." + name, value))
    if len(kinds) > 1:
        for kind, figures in kinds.items():
            print("%-52s %14s  ok/s %-10.6g answered %d of %d" % (
                "info.kind.%s.op_s.p50" % kind, "%.6g" % figures["op_s.p50"],
                figures["ok_ops_per_s"],
                sum(u.ok.get(kind, 0) for u in units), figures["ops"]))
    for line in problems[:20]:
        print("CHECK FAILED: %s" % line, file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine(), "inputs": workload.inputs,
        "correct": correct, "problems": problems, "fingerprints": fingerprints,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "aliases": ALIASES[vocabulary], "info": extra, "per_kind": kinds,
        "setup_launches_raw_s": setup_raw, "bare_launches_raw_s": bare_raw,
        "raw_unit_walls_s": [u.raw_wall for u in units],
        "unit_scales": [u.scale for u in units],
        "unit_traced": [u.traced for u in units],
    }
    if tracer is not None:
        t0 = min((s[1] for s in tracer.spans), default=0.0)
        record["layers_per_unit"] = [
            {name: dict(zip(("calls", "s", "self_s", "raised"), st))
             for name, st in u.stats.items()} for u in units if u.traced]
        record["spans"] = [[n, a - t0, b - t0, p] for n, a, b, p
                           in tracer.spans]
    out_file = OUT / ("%s-seed%d-trace%d.json"
                      % (args.workload, args.seed, args.trace))
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
