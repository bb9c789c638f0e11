"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line so the whole gate can be read off a
verbose run:  pytest tests/test_acceptance.py -v -s
"""

import json
import random
import time
from fractions import Fraction

from obstruction_lab import cli
from obstruction_lab.localsymbols import (Place, hilbert_symbol,
                                          reciprocity_defect,
                                          solubility_oracle)
from obstruction_lab.multipoly import IdentityClaim, MultiPoly, verify_identity
from obstruction_lab.obstruction import (integer_search, naive_integer_search,
                                         point_invariant_profile,
                                         square_mod_sampling)


def report(name, ok):
    print("\n[%s] criterion %s" % ("PASS" if ok else "FAIL", name))
    assert ok


def run_verify(capsys, name, *flags):
    start = time.monotonic()
    code = cli.main(["verify", name, *flags])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    return code, json.loads(out), elapsed


def v2(n):
    """2-adic valuation of an integer, None for 0."""
    return None if n == 0 else (n & -n).bit_length() - 1


def covered_at_two(steps, poly, target):
    """The p-adic step is one ok record at p = 2, and its answer replays from
    the instance's term list: f(w) = target mod 2**depth, and the Newton
    valuations v_2(f(w) - target) > 2 * min v_2(df/dx_i(w)) as reported."""
    padic = steps["padic_witnesses"]
    if padic["uncovered_bad_primes"] or len(padic["records"]) != 1:
        return False
    rec = padic["records"][0]
    ans = rec["answer"]
    if not (rec["p"] == 2 and rec["ok"] and ans["verdict"] == "yes"
            and ans["p"] == 2):
        return False
    w = ans["witness"]

    def value(terms):
        return sum(c * w[0] ** a * w[1] ** b * w[2] ** d
                   for c, a, b, d in terms)

    partials = [[[c * e[i], *(k - (j == i) for j, k in enumerate(e))]
                 for c, *e in poly if e[i]] for i in range(3)]
    dv = min(v for v in map(v2, map(value, partials)) if v is not None)
    fv = v2(value(poly) - target)
    return ((value(poly) - target) % 2 ** ans["depth"] == 0
            and fv == ans["value_valuation"]
            and dv == ans["derivative_valuation"]
            and (fv is None or fv > 2 * dv))


def instance_doc(name):
    return json.loads(cli.resources.files("obstruction_lab")
                      .joinpath("instances/%s.json" % name).read_text())


def test_criterion_1_quartic_end_to_end(capsys):
    code, doc, elapsed = run_verify(capsys, "quartic")
    steps = doc["steps"]
    ok = (
        code == 0
        and doc["verdict"] == "OBSTRUCTED"
        and steps["rational_witness"]["matches"]
        and steps["rational_witness"]["bad_primes"] == [2]
        and covered_at_two(steps, instance_doc("quartic")["poly"], 1)
        and steps["sieve"]["1"]["count"] == 512
        and all(tuple(r % 2 for r in c) == (0, 1, 1)
                for c in steps["sieve"]["1"]["classes"])
        and steps["invariant_table"]["1"]["all_half"]
        and len(steps["invariant_table"]["1"]["entries"]) == 512
        and steps["real_scan"]["samples"] == 10000
        and steps["real_scan"]["violations"] == []
        and steps["odd_place_scan"]["samples"] == 10000
        and steps["odd_place_scan"]["bound"] == 1000
        and steps["odd_place_scan"]["violations"] == []
        and steps["integer_search"]["1"]["bound"] == 1000
        and steps["integer_search"]["1"]["solutions"] == []
        and elapsed < 60
    )
    report("1 (quartic end-to-end, %.1fs)" % elapsed, ok)


def test_criterion_2_cubic_end_to_end(capsys):
    code, doc, elapsed = run_verify(capsys, "cubic")
    steps = doc["steps"]
    torsion_code = cli.main(["torsion", "64", "64", "8", "-7"])
    torsion = json.loads(capsys.readouterr().out)
    ok = (
        code == 0
        and doc["verdict"] == "OBSTRUCTED"
        and "hasse_over_Z" in doc["flags"]
        and steps["rational_witness"]["matches"]
        and steps["rational_witness"]["bad_primes"] == [2]
        and covered_at_two(steps, instance_doc("cubic")["poly"], 1)
        and steps["sieve"]["1"]["classes"] == [[0, 0, 1], [1, 0, 1]]
        and steps["sieve"]["-1"]["classes"]
        and steps["invariant_table"]["1"]["all_half"]
        and steps["invariant_table"]["-1"]["all_half"]
        and steps["real_scan"]["violations"] == []
        and steps["odd_place_scan"]["violations"] == []
        and steps["integer_search"]["1"]["solutions"] == []
        and steps["integer_search"]["-1"]["solutions"] == []
        and steps["integer_search"]["1"]["bound"] == 1000
        and torsion_code == 0
        and torsion["group"] == "Z/2"
        and torsion["points"] == [[16, 0]]
        and elapsed < 30
    )
    report("2 (cubic end-to-end, %.1fs)" % elapsed, ok)


def test_criterion_3_oracle_equivalence():
    places = [Place(p) for p in (2, 3, 5, 7, 11, 13)] + [Place.real()]
    mismatches = 0
    for a in range(-50, 51):
        if a == 0:
            continue
        for b in range(-50, 51):
            if b == 0:
                continue
            for place in places:
                symbol_soluble = hilbert_symbol(a, b, place) == 1
                if solubility_oracle(a, b, place) is not symbol_soluble:
                    mismatches += 1
    report("3 (oracle equivalence, %d mismatches)" % mismatches,
           mismatches == 0)


def test_criterion_4_reciprocity_fuzz():
    rng = random.Random(20070907)
    defects = 0
    for _ in range(10000):
        a = Fraction(rng.randint(-10**6, 10**6) or 1, rng.randint(1, 10**6))
        b = Fraction(rng.randint(-10**6, 10**6) or 1, rng.randint(1, 10**6))
        if reciprocity_defect(a, b) != 0:
            defects += 1
            break
    report("4 (reciprocity fuzz, defects=%d)" % defects, defects == 0)


def test_criterion_5_exact_identities(fq, fc, cubic_algebra):
    sq = MultiPoly([(4, (2, 0, 0)), (-1, (0, 2, 0))])
    plus = MultiPoly([(1, (2, 0, 0)), (2, (0, 2, 0)), (9, (0, 0, 2))])
    minus = MultiPoly([(1, (2, 0, 0)), (2, (0, 2, 0)), (-9, (0, 0, 2))])
    first = verify_identity(IdentityClaim(
        ((1, (sq, sq)), (2, (plus, minus)), (9, (fq,)))))
    z = MultiPoly([(1, (0, 0, 1))])
    second = verify_identity(IdentityClaim(
        ((1, (z, fc)), (-1, (cubic_algebra.first,)))))
    report("5 (exact identities)", first and second)


def test_criterion_6_square_certificates(fq, gq, hq):
    res_fg = square_mod_sampling(fq * gq, (hq,), 500, 61)
    res_fh = square_mod_sampling(fq * hq, (gq,), 500, 62)
    conic = MultiPoly([(1, (2, 0, 0)), (1, (0, 2, 0)), (-1, (0, 0, 2))])
    control = square_mod_sampling(MultiPoly([(1, (1, 1, 0))]), (conic,),
                                  500, 63)
    ok = (res_fg.accepted >= 500 and res_fg.pass_ratio == 1
          and res_fh.accepted >= 500 and res_fh.pass_ratio == 1
          and len(control.counterexamples) >= 1)
    report("6 (square certificates: fg/h %s, fh/g %s, control %d cex)"
           % (res_fg.pass_ratio, res_fh.pass_ratio,
              len(control.counterexamples)), ok)


def test_criterion_7_profile_spot_checks(quartic_algebra, cubic_algebra):
    checks = []
    for alg, pt, values in (
            (quartic_algebra, (0, 1, 0), (22, 154)),
            (quartic_algebra, (1, 0, 1), (896, -2464)),
            (cubic_algebra, (1, 1, 1), (-128, 3))):
        prof = point_invariant_profile(alg, pt)
        checks.append(prof.values == values
                      and all(iv == 0 for _, iv in prof.invariants)
                      and prof.total == 0)
    report("7 (profile spot checks)", all(checks))


def test_criterion_8_search_oracle(fq, fc):
    toy = MultiPoly([(1, (4, 0, 0)), (1, (0, 4, 0)), (-2, (0, 0, 4))])
    other = MultiPoly([(1, (1, 2, 0)), (1, (0, 0, 3)), (1, (1, 0, 2)),
                       (-3, (3, 0, 0))])
    zero = MultiPoly([(1, (1, 2, 1)), (1, (3, 0, 0)), (-1, (0, 0, 3)),
                      (1, (1, 0, 2))])
    cube = MultiPoly([(-1, (0, 3, 0)), (1, (2, 0, 2)), (3, (0, 0, 4)),
                      (1, (3, 0, 1))])
    linear = MultiPoly([(2, (0, 1, 0)), (1, (1, 0, 0)), (-1, (0, 0, 1))])
    cases = [(fq, 1, 30), (fq, -1, 30), (fc, 1, 30), (fc, -1, 30),
             (toy, 0, 30), (toy, 2, 20),
             (fc, -128, 30), (fc, -64, 30), (other, 5, 20), (zero, -1, 20),
             (cube, 0, 20), (cube, 3, 20), (linear, 3, 10), (fq, -1, 0),
             (fc, 0, 0)]
    ok = all(integer_search(f, t, B) == naive_integer_search(f, t, B)
             for f, t, B in cases)
    report("8 (search oracle)", ok)
