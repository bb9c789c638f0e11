"""The benchmark's workloads: inputs made from the seed, the calls into the
package, and an independent check of every answer.

A workload is run as a sequence of *units*.  A unit of a verify workload is
one full-size `verify` through `cli.main`; a unit of `point-queries` is one
batch of single-shot queries.  `run_unit(engine, clock, index)` takes the
unit's input index: units with the same `input_key(index)` repeat the same
inputs, so their call counts must repeat exactly and their answers must be
byte-identical.  The evidence metrics come from the first `evidence_units`
input indices, so they repeat exactly for a given benchmark seed.

The checks below never call the code they check: polynomials are evaluated
from the instance JSON with plain integer arithmetic, and the oracles are
facts that hold for every correct answer (the instances' known verdicts,
Hilbert reciprocity, the curve equation and Nagell-Lutz, the integer roots
of a cubic by divisor search, the Newton inequality) or the
package's brute-force `solubility_oracle`, which shares no formula with
`hilbert_symbol`.

A query that raises `FactorizationError` is *declined*: bounded trial
division gave up, which is the engine's documented answer for such inputs,
not a wrong one.  Declined queries count as attempted, not as answered, so
they lower `evidence.checked_share` and `ok_ops_per_s`; any other exception,
and any answer that fails its check, counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

INSTANCES = ("quartic", "cubic")

# Full size, as `verify` runs by default: 10k real samples, 10k odd-place
# samples with coordinates up to 1000, search bound 1000 from the instance.
REAL_SAMPLES = 10000
ODD_SAMPLES = 10000
ODD_BOUND = 1000
SEARCH_BOUND = 1000
SQUARE_TRIALS = 500

EXPECTED_FLAGS = {"quartic": [], "cubic": ["hasse_over_Z"]}


class Answer:
    """Outcome of one operation: its kind and query, when it ran, its
    latency, whether the engine declined to answer (bounded factoring gave
    up), and the problems its check found."""

    __slots__ = ("kind", "query", "start", "end", "wall", "cpu", "declined",
                 "problems", "value", "conditions", "evidence")

    def __init__(self, kind, timing, value, query=None, declined=False):
        self.kind = kind
        self.query = query
        self.start, self.end, self.wall, self.cpu, child_cpu = timing
        self.value = value
        self.declined = declined
        self.problems = []
        if child_cpu:
            self.problems.append(
                "child processes used %.3g s of CPU; the benchmark's timing "
                "assumes a single-process engine" % child_cpu)
        self.conditions = 0
        self.evidence = None


# --- independent polynomial arithmetic on [coeff, ex, ey, ez] term lists ---

def poly_eval(terms, pt):
    x, y, z = pt
    return sum(c * x ** ex * y ** ey * z ** ez for c, ex, ey, ez in terms)


def poly_partial(terms, var):
    out = []
    for c, *exps in terms:
        if exps[var]:
            e = list(exps)
            e[var] -= 1
            out.append([c * exps[var]] + e)
    return out


def vp(n, p):
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def load_docs(root):
    base = root / "src" / "obstruction_lab" / "instances"
    return {name: json.loads((base / ("%s.json" % name)).read_text())
            for name in INSTANCES}


def search_pairs(terms, bound):
    """(u, w) pairs `integer_search` enumerates per target: it solves for a
    variable confined to one term (preferring a unit pure power) and halves
    the range of every enumerated variable whose exponents are all even."""
    candidates = []
    for i in range(3):
        having = [t for t in terms if t[1 + i]]
        if len(having) == 1:
            c, *e = having[0]
            pure = all(e[j] == 0 for j in range(3) if j != i)
            candidates.append(((0 if pure else 1) if abs(c) == 1 else 2, i))
    solved = min(candidates)[1]
    pairs = 1
    for j in range(3):
        if j != solved:
            even = all(t[1 + j] % 2 == 0 for t in terms)
            pairs *= bound + 1 if even else 2 * bound + 1
    return pairs


# --- verify-quartic, verify-cubic ---

class VerifyWorkload:
    """One full-size `verify` of a bundled instance per unit.  The verify
    seed of input index i is drawn from the benchmark seed and i.  A
    verify's time depends on its seed by several percent, so untraced runs
    give each unit its own index and report the median over them."""

    evidence_units = 2

    def __init__(self, instance, seed, docs, out_dir):
        self.instance = instance
        self.doc = docs[instance]
        self.bench_seed = seed
        self.out_path = out_dir / ("report-%s-%d.json" % (instance, seed))
        self.inputs = {"instance": instance, "verify_seeds": []}
        self.sieve_counts = {
            t: sieve_count(self.doc["poly"], self.doc["sieve_modulus"], t)
            for t in self.doc["targets"]}

    def input_key(self, index):
        return random.Random("verify-%s/%d/%d" % (
            self.instance, self.bench_seed, index)).randrange(1, 2 ** 31)

    def run_unit(self, engine, clock, index):
        seed = self.input_key(index)
        self.inputs["verify_seeds"].append(seed)
        argv = ["verify", self.instance, "--seed", str(seed),
                "--out", str(self.out_path)]
        self.out_path.unlink(missing_ok=True)
        code, exc, timing = clock.call(engine.cli.main, argv)
        value = self.out_path.read_bytes() if code == 0 else None
        ans = Answer("verify", timing, value, query=tuple(argv))
        if exc is not None:
            ans.problems.append("raised %r" % (exc,))
        elif code != 0:
            ans.problems.append("exit code %r" % (code,))
        return [ans]

    def check_unit(self, answers, engine):
        (ans,) = answers
        if ans.problems:
            return
        try:
            report = json.loads(ans.value)
        except ValueError as exc:
            ans.problems.append("report is not JSON: %s" % exc)
            return
        ans.problems.extend(self._report_problems(report))
        if not ans.problems:
            ans.evidence = report["steps"]["odd_place_scan"]

    def _report_problems(self, report):
        steps = report.get("steps", {})
        want = []
        if report.get("verdict") != "OBSTRUCTED":
            want.append("verdict %r" % report.get("verdict"))
        if report.get("flags") != EXPECTED_FLAGS[self.instance]:
            want.append("flags %r" % report.get("flags"))
        try:
            if not steps["rational_witness"]["matches"]:
                want.append("rational witness does not match")
            pw = steps["padic_witnesses"]
            if not all(r["ok"] for r in pw["records"]) or \
                    pw["uncovered_bad_primes"]:
                want.append("p-adic witnesses incomplete")
            for t, count in self.sieve_counts.items():
                key = str(t)
                if steps["sieve"][key]["count"] != count:
                    want.append("sieve count %r for target %s, expected %d"
                                % (steps["sieve"][key]["count"], t, count))
                table = steps["invariant_table"][key]
                if not (table["determined"] and table["all_half"]) or \
                        len(table["entries"]) != count:
                    want.append("invariant table not all 1/2 for %s" % t)
                search = steps["integer_search"][key]
                if search["bound"] != SEARCH_BOUND or search["solutions"]:
                    want.append("integer search %r for %s" % (search, t))
            real = steps["real_scan"]
            if real["samples"] != REAL_SAMPLES or real["violations"]:
                want.append("real scan %r" % real)
            odd = steps["odd_place_scan"]
            if odd["samples"] != ODD_SAMPLES or odd["bound"] != ODD_BOUND or \
                    odd["violations"] or odd["checked_prime_conditions"] <= 0 \
                    or not 0 <= odd["skipped_unfactored"] < ODD_SAMPLES:
                want.append("odd-place scan %r" % odd)
            sq = steps["square_sampling"]
            if sq["accepted"] != SQUARE_TRIALS or \
                    sq["passed"] != SQUARE_TRIALS or sq["counterexamples"]:
                want.append("square sampling %r" % sq)
        except (KeyError, TypeError) as exc:
            want.append("report lacks %r" % (exc,))
        return want

    @staticmethod
    def evidence(answers):
        """(checked share, checked conditions) of the unit, from the report."""
        odd = answers[0].evidence
        share = 1 - odd["skipped_unfactored"] / odd["samples"]
        return share, odd["checked_prime_conditions"]

    @staticmethod
    def fingerprint(answers):
        return hashlib.sha256(answers[0].value or b"").hexdigest()


def sieve_count(terms, m, target):
    """Residue classes mod m meeting the target, skipping all-even triples."""
    t = target % m
    count = 0
    for x in range(m):
        for y in range(m):
            for z in range(m):
                if m % 2 == 0 and not (x % 2 or y % 2 or z % 2):
                    continue
                if poly_eval(terms, (x, y, z)) % m == t:
                    count += 1
    return count


# --- point-queries ---

# No usage data exists for these queries, so a batch holds the same number
# of every kind, and the gated query metrics combine per-kind figures with
# equal weight (see run.py), so no guessed mix decides them.  `profile` and
# `local` count as one kind per instance: their latencies differ tenfold
# between the instances.  `local` asks every prime up to 50 once, because
# its cost grows as p**3 and a random draw of primes would swing the batch
# time by tens of percent; that fixes the count of every kind at 15.
KINDS = ("hilbert", "torsion", "reciprocity", "profile-cubic",
         "profile-quartic", "local-cubic", "local-quartic")
HILBERT_PRIMES = (2, 3, 5, 7, 11, 13)
LOCAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
PER_KIND = len(LOCAL_PRIMES)


class QueryWorkload:
    """A batch of the single-shot queries behind `profile`, `reciprocity`,
    `hilbert`, `local` and `torsion`.  The batch of input index i is made
    from the benchmark seed and i; untraced runs give each unit its own
    index, so a run's per-kind medians cover hundreds of inputs."""

    evidence_units = 16

    def __init__(self, seed, docs, engine):
        self.bench_seed = seed
        self.docs = docs
        self.instances = {name: engine.cli.load_instance(name)
                          for name in INSTANCES}
        self.inputs = {"per_kind": PER_KIND, "kinds": KINDS}

    def batch(self, index):
        """The queries of input index i: (kind, arguments...) tuples."""
        rng = random.Random("point-queries/%d/%d" % (self.bench_seed, index))
        queries = []
        for kind in KINDS:
            if kind.startswith("local"):
                queries.extend((kind, p) for p in LOCAL_PRIMES)
            else:
                queries.extend(self._make(kind, rng) for _ in range(PER_KIND))
        rng.shuffle(queries)
        return queries

    def _make(self, kind, rng):
        if kind.startswith("profile"):
            alg = self.docs[kind.split("-")[1]]["algebra"]
            while True:
                pt = tuple(rng.randint(-1000, 1000) for _ in range(3))
                if poly_eval(alg["first"], pt) and \
                        poly_eval(alg["second"], pt):
                    return (kind, pt)
        if kind == "reciprocity":
            return (kind, rng.randint(1, 2 ** 64) * rng.choice((1, -1)),
                    rng.randint(1, 2 ** 64) * rng.choice((1, -1)))
        if kind == "hilbert":
            entries = [i for i in range(-20, 21) if i]
            place = rng.choice((None,) + HILBERT_PRIMES)
            return (kind, rng.choice(entries), rng.choice(entries), place)
        if kind == "torsion":
            while True:
                c3 = rng.choice([i for i in range(-10, 11) if i])
                c2, c1, c0 = (rng.randint(-50, 50) for _ in range(3))
                if cubic_discriminant(c2, c1 * c3, c0 * c3 * c3):
                    return (kind, c3, c2, c1, c0)
        raise ValueError(kind)

    def _call(self, engine, query):
        kind, name = query[0], query[0].partition("-")[2]
        if kind.startswith("profile"):
            alg = self.instances[name].algebra
            return engine.obstruction.point_invariant_profile(alg, query[1])
        if kind == "reciprocity":
            return engine.localsymbols.reciprocity_defect(query[1], query[2])
        if kind == "hilbert":
            place = engine.localsymbols.Place(query[3])
            return engine.localsymbols.hilbert_symbol(query[1], query[2],
                                                      place)
        if kind.startswith("local"):
            inst = self.instances[name]
            return engine.padicsolve.padic_solutions_exist(
                inst.f, inst.targets[0], query[1])
        curve = engine.elliptic.to_weierstrass(*query[1:])
        return engine.elliptic.torsion_subgroup(curve)

    @staticmethod
    def input_key(index):
        return index

    def run_unit(self, engine, clock, index):
        declined_type = engine.exactarith.FactorizationError
        out = []
        for query in self.batch(index):
            result, exc, timing = clock.call(self._call, engine, query)
            ans = Answer(query[0], timing, result, query=query,
                         declined=isinstance(exc, declined_type))
            if exc is not None and not ans.declined:
                ans.problems.append("raised %r" % (exc,))
            out.append(ans)
        return out

    def check_unit(self, answers, engine):
        for ans in answers:
            if ans.declined or ans.problems:
                continue
            try:
                getattr(self, "_check_" + ans.kind.split("-")[0])(ans, engine)
            except Exception as exc:  # a malformed answer fails its check
                ans.problems.append("check raised %r" % (exc,))

    def _check_profile(self, ans, engine):
        pt = ans.query[1]
        prof = ans.value
        alg = self.docs[ans.kind.split("-")[1]]["algebra"]
        values = (poly_eval(alg["first"], pt), poly_eval(alg["second"], pt))
        places = [str(pl) for pl, _ in prof.invariants]
        total = sum((iv for _, iv in prof.invariants), Fraction(0)) % 1
        if tuple(prof.values) != values or prof.total != 0 or total != 0 \
                or places[:2] != ["real", "2"]:
            ans.problems.append("profile %r" % (prof,))
        ans.conditions = len(prof.invariants)

    def _check_reciprocity(self, ans, engine):
        if ans.value != 0:
            ans.problems.append("reciprocity defect %s" % ans.value)

    def _check_hilbert(self, ans, engine):
        _, a, b, p = ans.query
        oracle = engine.localsymbols.solubility_oracle(
            a, b, engine.localsymbols.Place(p))
        if ans.value not in (1, -1) or oracle is None or \
                oracle != (ans.value == 1):
            ans.problems.append("hilbert %r, oracle %r" % (ans.value, oracle))
        ans.conditions = 1

    def _check_local(self, ans, engine):
        p = ans.query[1]
        got = ans.value
        doc = self.docs[ans.kind.split("-")[1]]
        if got.verdict == "inconclusive":
            ans.declined = True
            return
        # Both instances have points over every Z_p: "no" is always wrong.
        if got.verdict != "yes" or got.p != p or got.witness is None:
            ans.problems.append("local %r" % (got,))
            return
        w = tuple(got.witness)
        val = poly_eval(doc["poly"], w) - doc["targets"][0]
        fv = None if val == 0 else vp(val, p)
        derivs = [poly_eval(poly_partial(doc["poly"], i), w)
                  for i in range(3)]
        dvs = [vp(d, p) for d in derivs if d]
        dv = min(dvs) if dvs else None
        if val % p ** got.depth or dv is None or \
                (fv is not None and fv <= 2 * dv) or \
                (got.value_valuation, got.derivative_valuation) != (fv, dv):
            ans.problems.append("local witness %r" % (got,))
        ans.conditions = 1

    def _check_torsion(self, ans, engine):
        """Nagell-Lutz: a finite torsion point of v^2 = u^3 + bu^2 + cu + d
        has integer coordinates, and v = 0 or v^2 divides the discriminant.
        The points with v = 0 are exactly the integer roots of the cubic,
        found here by divisor search, and with the point at infinity they
        form a subgroup, so their number plus one divides the order."""
        _, c3, c2, c1, c0 = ans.query
        group = ans.value
        b, c, d = c2, c1 * c3, c0 * c3 * c3
        disc = cubic_discriminant(b, c, d)
        seen = set()
        for P in group.points:
            u, v = Fraction(P.u), Fraction(P.v)
            if (u, v) in seen or u.denominator != 1 or v.denominator != 1 \
                    or v * v != u ** 3 + b * u * u + c * u + d \
                    or (v and disc % (v * v)):
                ans.problems.append("torsion point %r" % (P,))
            seen.add((u, v))
        two = sorted(int(u) for u, v in seen if v == 0)
        if two != integer_roots([1, b, c, d]):
            ans.problems.append("2-torsion %r of a cubic with integer roots "
                                "%r" % (two, integer_roots([1, b, c, d])))
        if group.order % (len(two) + 1):
            ans.problems.append("torsion order %r with %d points of order 2"
                                % (group.order, len(two)))

    @staticmethod
    def evidence(answers):
        """(answered share, local conditions certified per batch)."""
        answered = sum(1 for a in answers if not a.declined)
        return answered / len(answers), sum(a.conditions for a in answers)

    @staticmethod
    def fingerprint(answers):
        text = repr([(a.query, a.declined, a.value) for a in answers])
        return hashlib.sha256(text.encode()).hexdigest()


def cubic_discriminant(b, c, d):
    """Discriminant of u^3 + bu^2 + cu + d."""
    return (18 * b * c * d - 4 * b ** 3 * d + b * b * c * c - 4 * c ** 3
            - 27 * d * d)


def integer_roots(coeffs):
    """Sorted integer roots of a monic integer polynomial, highest degree
    first, by trying every divisor of the lowest nonzero coefficient."""
    roots = set()
    while len(coeffs) > 1 and coeffs[-1] == 0:
        roots.add(0)
        coeffs = coeffs[:-1]
    if len(coeffs) > 1:
        n = abs(coeffs[-1])
        for r in range(1, n + 1):
            if n % r == 0:
                for cand in (r, -r):
                    acc = 0
                    for k in coeffs:
                        acc = acc * cand + k
                    if acc == 0:
                        roots.add(cand)
    return sorted(roots)
