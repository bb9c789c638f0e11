import copy
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from obstruction_lab import exactarith, obstruction
from obstruction_lab.exactarith import (FactorizationError, factor,
                                        is_probable_prime)
from obstruction_lab.localsymbols import (Place, hilbert_symbol,
                                          solubility_oracle, symbol_at_prime)
from obstruction_lab.multipoly import MultiPoly, single_power_split
from obstruction_lab.obstruction import (DEFAULT_SEED, INCONCLUSIVE,
                                         NOT_OBSTRUCTED, OBSTRUCTED,
                                         PADIC_SEARCH_MAX_PRIME,
                                         SQUARE_PRIME_WINDOW,
                                         InternalInconsistencyError,
                                         ObstructionInstance,
                                         QuaternionAlgebraSpec,
                                         SquareSamplingError,
                                         _random_prime, _random_triples,
                                         _square_primes,
                                         class_invariant_table, integer_search,
                                         naive_integer_search,
                                         check_odd_scan_factors, decide,
                                         odd_place_scan,
                                         obstruction_verdict,
                                         point_invariant_profile,
                                         real_unramified_scan, residue_sieve,
                                         square_mod_sampling)
from obstruction_lab.padicsolve import lift_classes, padic_solutions_exist


def first_classes(sieve, n):
    """The sieve record cut to its first n classes."""
    return dict(sieve, count=n, classes=sieve["classes"][:n])


def invariants(table):
    return [e["invariant"] for e in table["entries"]]


class TestResidueSieve:
    def test_quartic_mod_16(self, fq):
        sieve = residue_sieve(fq, 16, 1)
        assert sieve["modulus"] == 16
        assert sieve["count"] == len(sieve["classes"]) == 512
        assert all(tuple(r % 2 for r in c) == (0, 1, 1)
                   for c in sieve["classes"])

    def test_cubic_mod_2(self, fc):
        assert residue_sieve(fc, 2, 1)["classes"] == [[0, 0, 1], [1, 0, 1]]

    def test_linear(self):
        x = MultiPoly([(1, (1, 0, 0))])
        classes = residue_sieve(x, 2, 1)["classes"]
        assert len(classes) == 4
        assert all(c[0] == 1 for c in classes)

    @pytest.mark.parametrize("m", [3, 6, 9, 12])
    def test_primitive_classes_only(self, fc, m):
        # no primitive point reduces to a class whose coordinates all share
        # a prime with m, so the sieve keeps exactly the other classes
        classes = residue_sieve(fc, m, 3)["classes"]
        assert classes == [
            list(c) for c in itertools.product(range(m), repeat=3)
            if math.gcd(*c, m) == 1 and (fc.evaluate_int(c) - 3) % m == 0]
        assert classes

    @pytest.mark.parametrize("form", ["fq", "fc"])
    def test_matches_brute_force(self, form, request):
        # the sieve lifts its classes one prime factor of m at a time; at
        # every modulus to 40 it gives the record of the m**3 enumeration
        f = request.getfixturevalue(form)
        fn = f.evaluator()
        for m in range(2, 41):
            values = [(list(c), fn(*c) % m)
                      for c in itertools.product(range(m), repeat=3)
                      if math.gcd(*c, m) == 1]
            for t in (1, -1, 3):
                classes = [c for c, v in values if v == t % m]
                assert residue_sieve(f, m, t) == {
                    "modulus": m, "count": len(classes), "classes": classes}

    def test_symmetry_for_even_degree(self, fq):
        classes = set(map(tuple, residue_sieve(fq, 16, 1)["classes"]))
        for r in classes:
            assert tuple(-c % 16 for c in r) in classes


# f = x^2 with target 1 keeps, at every level L, the lifts of (1, 0, 0)
# mod 2 with x = +-1 mod 2**(L - 1): a tree whose branches never die
X_SQUARED = MultiPoly([(1, (2, 0, 0))])


class TestInvariantTable:
    def test_quartic_all_half(self, fq, quartic_algebra):
        table = class_invariant_table(fq, 1, quartic_algebra,
                                      residue_sieve(fq, 16, 1))
        assert invariants(table) == ["1/2"] * 512
        assert table["determined"] and table["all_half"]

    def test_cubic_all_half(self, fc, cubic_algebra):
        table = class_invariant_table(fc, 1, cubic_algebra,
                                      residue_sieve(fc, 2, 1))
        assert invariants(table) == ["1/2"] * 2
        assert table["determined"] and table["all_half"]

    def test_split_algebra_all_zero(self, fq):
        one = MultiPoly([(1, (0, 0, 0))])
        alg = QuaternionAlgebraSpec(one, one)
        table = class_invariant_table(
            fq, 1, alg, first_classes(residue_sieve(fq, 16, 1), 8))
        assert invariants(table) == ["0"] * 8
        assert table["determined"] and not table["all_half"]

    def test_refinement_stability(self, fq, quartic_algebra, monkeypatch):
        sieve = first_classes(residue_sieve(fq, 16, 1), 16)
        t1 = class_invariant_table(fq, 1, quartic_algebra, sieve)
        monkeypatch.setattr(obstruction, "TABLE_MAX_EXPONENT", 9)
        t2 = class_invariant_table(fq, 1, quartic_algebra, sieve)
        for e1, e2 in zip(t1["entries"], t2["entries"], strict=True):
            assert e1["class"] == e2["class"]
            if e1["invariant"] is not None:
                assert e2["invariant"] == e1["invariant"]

    @pytest.mark.parametrize("which,targets", [("quartic", (1,)),
                                               ("cubic", (1, -1))])
    def test_one_level_certificate(self, which, targets, request):
        # every entry is re-derived without the tree: at integer points of
        # the class with f = t mod 2**depth (on these instances every such
        # point lies in a leaf), solubility_oracle and the profile's
        # invariant at 2 agree with the entry
        instance = request.getfixturevalue(which + "_instance")
        f, alg = instance.f, instance.algebra
        rng = random.Random(83)
        two = Place(2)
        for t in targets:
            sieve = residue_sieve(f, instance.sieve_modulus, t)
            table = class_invariant_table(f, t, alg, sieve)
            assert len(table["entries"]) == len(sieve["classes"]) > 0
            m = sieve["modulus"]
            for e in table["entries"]:
                cls, inv, depth = e["class"], e["invariant"], e["depth"]
                assert inv in ("0", "1/2") and depth >= 3
                drawn = 0
                while drawn < 2:
                    pt = tuple(r + m * rng.randrange(10 ** 3 // m)
                               for r in cls)
                    if (f.evaluate_int(pt) - t) % 2 ** depth:
                        continue
                    try:
                        prof = point_invariant_profile(alg, pt)
                    except FactorizationError:
                        continue
                    drawn += 1
                    a, b = prof.values
                    assert solubility_oracle(a, b, two) is (inv == "0")
                    assert str(dict(prof.invariants)[two]) == inv

    @pytest.mark.parametrize("v,depth", [(0, 3), (4, 7), (5, 0)])
    def test_depth_is_first_level_past_the_valuation(self, v, depth):
        # a constant entry of valuation v is certified first at level v + 3;
        # from v = 5 on that level is not below TABLE_MAX_EXPONENT = 8
        alg = QuaternionAlgebraSpec(MultiPoly([(3 * 2 ** v, (0, 0, 0))]),
                                    MultiPoly([(3, (0, 0, 0))]))
        table = class_invariant_table(X_SQUARED, 1, alg,
                                      {"modulus": 2, "classes": [[1, 0, 0]]})
        inv = None if depth == 0 else "1/2"  # (3, 3)_2 = -1, v even
        assert table["entries"] == [{"class": [1, 0, 0], "invariant": inv,
                                     "depth": depth}]
        assert table["determined"] is table["all_half"] is (depth != 0)

    def test_undetermined_when_valuation_unbounded(self):
        # entries y^2, z^2 on a class with y and z both even: the 2-adic
        # valuation varies over lifts, so no certification is possible
        alg = QuaternionAlgebraSpec(MultiPoly([(1, (0, 2, 0))]),
                                    MultiPoly([(1, (0, 0, 2))]))
        table = class_invariant_table(X_SQUARED, 1, alg,
                                      {"modulus": 2, "classes": [[1, 0, 0]]})
        assert invariants(table) == [None]
        assert not table["determined"] and not table["all_half"]

    def test_undetermined_when_lifts_disagree(self):
        # entries x^2 - y^2 and xy + z^2 on the class (0, 1, 1): f = y^2
        # keeps every lift mod 8 for t = 1, both entries are odd there, and
        # the leaves' symbols at 2 differ, so the entry is left undetermined
        alg = QuaternionAlgebraSpec(
            MultiPoly([(1, (2, 0, 0)), (-1, (0, 2, 0))]),
            MultiPoly([(1, (1, 1, 0)), (1, (0, 0, 2))]))
        symbols = set()
        for lift in itertools.product(range(0, 8, 2), range(1, 8, 2),
                                      range(1, 8, 2)):
            a, b, _ = alg.factor_values(lift)
            assert a % 2 and b % 2
            symbols.add(symbol_at_prime(a, b, 2))
        assert symbols == {1, -1}
        y_squared = MultiPoly([(1, (0, 2, 0))])
        table = class_invariant_table(y_squared, 1, alg,
                                      {"modulus": 2, "classes": [[0, 1, 1]]})
        assert table["entries"] == [{"class": [0, 1, 1], "invariant": None,
                                     "depth": 0}]
        assert not table["determined"] and not table["all_half"]

    @pytest.mark.parametrize("m", [2, 4])
    def test_empty_classes_hold_no_lift(self, fq, quartic_algebra, m):
        # from modulus 2 or 4 the classes outside (0, 1, 1) mod 2 hold no
        # 2-adic point of f = 1: at an empty entry's depth no lift of the
        # class solves f = 1, checked by brute force
        sieve = residue_sieve(fq, m, 1)
        table = class_invariant_table(fq, 1, quartic_algebra, sieve)
        assert table["determined"] and table["all_half"]
        for e in table["entries"]:
            cls, inv, depth = e["class"], e["invariant"], e["depth"]
            assert inv == ("1/2" if [r % 2 for r in cls] == [0, 1, 1]
                           else "empty")
            if inv == "empty":
                n = 2 ** depth
                assert not any(
                    fq.evaluate_mod(lift, n) == 1
                    for lift in itertools.product(
                        *(range(r, n, m) for r in cls)))

    def test_modulus_not_a_power_of_two_refused(self):
        one = MultiPoly([(1, (0, 0, 0))])
        with pytest.raises(ValueError):
            class_invariant_table(X_SQUARED, 1,
                                  QuaternionAlgebraSpec(one, one),
                                  {"modulus": 6, "classes": [[1, 0, 0]]})


class TestPointProfile:
    def test_quartic_at_010(self, quartic_algebra):
        prof = point_invariant_profile(quartic_algebra, (0, 1, 0))
        assert prof.values == (22, 154)
        assert all(iv == 0 for _, iv in prof.invariants)
        assert prof.total == 0

    def test_quartic_at_101(self, quartic_algebra):
        prof = point_invariant_profile(quartic_algebra, (1, 0, 1))
        assert prof.values == (896, -2464)
        assert all(iv == 0 for _, iv in prof.invariants)
        assert prof.total == 0

    def test_cubic_at_111(self, cubic_algebra):
        prof = point_invariant_profile(cubic_algebra, (1, 1, 1))
        assert prof.values == (-128, 3)
        assert prof.total == 0

    def test_scaling_invariance(self, quartic_algebra):
        rng = random.Random(47)
        for _ in range(50):
            pt = tuple(rng.randint(-20, 20) for _ in range(3))
            lam = 2 * rng.randint(1, 10) + 1
            try:
                base = point_invariant_profile(quartic_algebra, pt)
            except ValueError:
                continue
            scaled = point_invariant_profile(
                quartic_algebra, tuple(lam * c for c in pt))
            assert dict(base.invariants) == {
                pl: iv for pl, iv in scaled.invariants if pl in dict(base.invariants)}
            assert scaled.total == base.total == 0

    def test_parity_total_is_the_fraction_sum(self, quartic_algebra,
                                              cubic_algebra):
        # the total counts the places with invariant 1/2; it must equal the
        # sum of the listed invariants in (1/2)Z/Z, as a Fraction
        rng = random.Random(71)
        checked = 0
        for alg in (quartic_algebra, cubic_algebra):
            for _ in range(150):
                pt = tuple(rng.randint(-1000, 1000) for _ in range(3))
                try:
                    prof = point_invariant_profile(alg, pt)
                except (ValueError, FactorizationError):
                    continue
                total = sum((iv for _, iv in prof.invariants),
                            Fraction(0)) % 1
                assert type(prof.total) is Fraction and prof.total == total
                checked += 1
        assert checked > 200

    def test_flipped_symbol_gives_half(self, quartic_algebra,
                                       symbol_flipped_at_two):
        prof = point_invariant_profile(quartic_algebra, (0, 1, 0))
        assert dict(prof.invariants)[Place(2)] == Fraction(1, 2)
        assert prof.total == Fraction(1, 2)

    def test_consistency_triangle(self, fq, quartic_algebra):
        # points congruent to sieve classes have the tabulated 2-adic invariant
        table = class_invariant_table(
            fq, 1, quartic_algebra,
            first_classes(residue_sieve(fq, 16, 1), 8))
        from obstruction_lab.localsymbols import Place, local_invariant
        for e in table["entries"]:
            assert e["invariant"] is not None
            a, b, _ = quartic_algebra.factor_values(e["class"])
            inv = local_invariant(a, b, Place(2))
            assert str(inv) == e["invariant"]


def real_toy_algebra():
    """(x^2 - y^2, -(x^2 + 2y^2 + z^2)), given as (x - y)(x + y) and
    -1 times a definite form: ramified at the real points with |x| < |y|."""
    x_minus_y = MultiPoly([(1, (1, 0, 0)), (-1, (0, 1, 0))])
    x_plus_y = MultiPoly([(1, (1, 0, 0)), (1, (0, 1, 0))])
    definite = MultiPoly([(1, (2, 0, 0)), (2, (0, 2, 0)), (1, (0, 0, 2))])
    minus_one = MultiPoly([(-1, (0, 0, 0))])
    return QuaternionAlgebraSpec(x_minus_y * x_plus_y, definite * -1,
                                 (x_minus_y, x_plus_y), (minus_one, definite))


class TestFactorValues:
    """The entries are evaluated through their distinct nonconstant
    factors; the values must be those of the flat entries."""

    @pytest.mark.parametrize("which", ["quartic", "cubic", "unfactored",
                                       "toy"])
    def test_values_at_matches_flat_entries(self, which, quartic_algebra,
                                            cubic_algebra):
        alg = {"quartic": quartic_algebra, "cubic": cubic_algebra,
               "unfactored": QuaternionAlgebraSpec(quartic_algebra.first,
                                                   quartic_algebra.second),
               "toy": real_toy_algebra()}[which]
        rng = random.Random(19)
        for _ in range(300):
            ints = tuple(rng.randint(-1000, 1000) for _ in range(3))
            fracs = tuple(Fraction(rng.randint(-60, 60), rng.randint(1, 25))
                          for _ in range(3))
            for pt in (ints, fracs):
                expected = (alg.first.evaluate_int(pt),
                            alg.second.evaluate_int(pt))
                a, b, vals = alg.factor_values(pt)
                assert (a, b) == expected
                assert vals == [q.evaluate_int(pt) for q in alg.forms]

    @pytest.mark.parametrize("which", ["repeated", "constant"])
    def test_compiled_values_match_factor_products(self, which, gq, hq):
        # the one compiled function per algebra against the product of
        # each entry's factors, evaluated one by one: a repeated factor,
        # the constant -1, an entry with no nonconstant factor
        minus_one = MultiPoly([(-1, (0, 0, 0))])
        x_minus_y = MultiPoly([(1, (1, 0, 0)), (-1, (0, 1, 0))])
        x_plus_y = MultiPoly([(1, (1, 0, 0)), (1, (0, 1, 0))])
        if which == "repeated":
            first, second = (gq, hq, gq), (minus_one, x_minus_y, x_plus_y)
            forms = (gq, hq, x_minus_y, x_plus_y)
        else:
            first, second = (MultiPoly([(5, (0, 0, 0))]),), (minus_one, hq)
            forms = (hq,)
        alg = QuaternionAlgebraSpec(math.prod(first), math.prod(second),
                                    first, second)
        assert alg.forms == forms
        rng = random.Random(23)
        for _ in range(300):
            ints = tuple(rng.randint(-1000, 1000) for _ in range(3))
            fracs = tuple(Fraction(rng.randint(-60, 60), rng.randint(1, 25))
                          for _ in range(3))
            for pt in (ints, fracs):
                a, b, vals = alg.factor_values(pt)
                assert a == math.prod(q.evaluate_int(pt) for q in first)
                assert b == math.prod(q.evaluate_int(pt) for q in second)
                assert vals == [q.evaluate_int(pt) for q in forms]

    def test_forms_are_distinct_and_nonconstant(self, fq, gq, hq,
                                                quartic_algebra):
        # the quartic's constant -1 is folded into the second entry
        assert quartic_algebra.forms == (fq, hq, gq)
        unfactored = QuaternionAlgebraSpec(quartic_algebra.first,
                                           quartic_algebra.second)
        assert unfactored.forms == (quartic_algebra.first,
                                    quartic_algebra.second)


def real_scan_points(alg, nsamples, seed):
    """The violations of `real_unramified_scan(alg, nsamples, seed)`, drawn
    independently of the scan with randint and the flat entries."""
    rng = random.Random(seed)
    violations = []
    done = 0
    while done < nsamples:
        pt = tuple(rng.randint(-1000, 1000) for _ in range(3))
        if pt == (0, 0, 0):
            continue
        a, b = alg.first.evaluate_int(pt), alg.second.evaluate_int(pt)
        if a == 0 or b == 0:
            continue
        done += 1
        if a < 0 and b < 0:
            violations.append(list(pt))
    return violations


class TestScans:
    @pytest.mark.parametrize("which", ["quartic", "cubic", "toy"])
    def test_real_scan_matches_oracle(self, which, quartic_algebra,
                                      cubic_algebra):
        alg = {"quartic": quartic_algebra, "cubic": cubic_algebra,
               "toy": real_toy_algebra()}[which]
        record = real_unramified_scan(alg, 2000, 3)
        assert record["samples"] == 2000
        assert record["violations"] == real_scan_points(alg, 2000, 3)
        assert bool(record["violations"]) == (which == "toy")

    def test_quartic_real_scan_empty(self, quartic_algebra):
        assert real_unramified_scan(quartic_algebra, 10000, 1) == {
            "samples": 10000, "violations": []}

    def test_cubic_real_scan_empty(self, cubic_algebra):
        assert real_unramified_scan(cubic_algebra, 10000, 1) == {
            "samples": 10000, "violations": []}

    def test_negative_definite_always_violates(self):
        neg = -1 * (MultiPoly([(1, (2, 0, 0)), (1, (0, 2, 0)), (1, (0, 0, 2))])
                    * MultiPoly([(1, (2, 0, 0)), (1, (0, 2, 0)), (1, (0, 0, 2))]))
        alg = QuaternionAlgebraSpec(neg, neg)
        record = real_unramified_scan(alg, 100, 1)
        assert len(record["violations"]) == 100

    def test_quartic_odd_scan_empty(self, fq, quartic_algebra):
        record = odd_place_scan(fq, quartic_algebra, 2000, 1000, 2)
        assert (record["samples"], record["bound"]) == (2000, 1000)
        assert record["violations"] == []
        assert record["checked_prime_conditions"] > 0
        assert record["skipped_unfactored"] == 0

    def test_cubic_odd_scan_empty(self, fc, cubic_algebra):
        record = odd_place_scan(fc, cubic_algebra, 2000, 1000, 2)
        assert record["violations"] == []
        assert record["checked_prime_conditions"] > 0

    def test_factor_value_cap(self, fq):
        # sum |coeff| * bound^deg may reach FACTOR_BOUND**2 = 10^10, and
        # no more; f itself is never factored
        x2 = MultiPoly([(1, (2, 0, 0))])
        y2 = MultiPoly([(1, (0, 2, 0))])
        check_odd_scan_factors(
            fq, QuaternionAlgebraSpec(fq, 10 ** 8 * x2), 10)
        with pytest.raises(FactorizationError):
            check_odd_scan_factors(
                fq, QuaternionAlgebraSpec(fq, 10 ** 8 * x2 + 10 * y2), 10)

    def test_unfactored_entry_refused(self, fq, quartic_algebra):
        # f*h as one factor would need trial division far past 10^5
        alg = QuaternionAlgebraSpec(quartic_algebra.first,
                                    quartic_algebra.second)
        with pytest.raises(FactorizationError):
            check_odd_scan_factors(fq, alg, 1000)

    @pytest.mark.parametrize("which", ["quartic", "cubic", "toy", "shared"])
    def test_scan_matches_trial_division(self, which, fq, fc,
                                         quartic_algebra, cubic_algebra):
        """The scan's conditions and violations against a reference that
        factors the full entry values by plain trial division."""
        if which == "quartic":
            f, alg = fq, quartic_algebra
        elif which == "cubic":
            f, alg = fc, cubic_algebra
        elif which == "toy":
            # f is no factor, and the algebra ramifies at many odd places
            f = MultiPoly([(1, (2, 0, 0)), (1, (0, 2, 0)), (1, (0, 0, 2))])
            alg = QuaternionAlgebraSpec(
                MultiPoly([(1, (2, 0, 0)), (2, (0, 2, 0)), (5, (0, 0, 2))]),
                MultiPoly([(-1, (2, 0, 0)), (-1, (0, 0, 2))]),
                second_factors=(MultiPoly([(-1, (0, 0, 0))]),
                                MultiPoly([(1, (2, 0, 0)), (1, (0, 0, 2))])))
        else:
            # (3f, (x + 2z)(y - z)): the odd primes of S, 3 and those of
            # the linear factors, often divide f(P) as well, where the scan
            # divides them out of |f(P)| as it walks S
            f = MultiPoly([(1, (2, 0, 0)), (1, (0, 2, 0)), (1, (0, 0, 2))])
            first = (MultiPoly([(3, (0, 0, 0))]), f)
            second = (MultiPoly([(1, (1, 0, 0)), (2, (0, 0, 1))]),
                      MultiPoly([(1, (0, 1, 0)), (-1, (0, 0, 1))]))
            alg = QuaternionAlgebraSpec(math.prod(first), math.prod(second),
                                        first, second)
        bound, nsamples, seed = 30, 300, 4
        record = odd_place_scan(f, alg, nsamples, bound, seed)
        if which == "shared":
            shared = 0
            for pt, _, _ in scan_points(alg, nsamples, bound, seed):
                x, y, z = pt
                S = {3} | primes_of(x + 2 * z) | primes_of(y - z)
                shared += any(p != 2 and f.evaluate_int(pt) % p == 0
                              for p in S)
            assert shared > nsamples // 10

        checked, violations = 0, []
        for pt, a, b in scan_points(alg, nsamples, bound, seed):
            fval = f.evaluate_int(pt)
            for p in sorted(primes_of(a) | primes_of(b)):
                if p == 2 or fval % p == 0:
                    continue
                checked += 1
                if hilbert_symbol(a, b, Place(p)) == -1:
                    violations.append([list(pt), p])
        assert record["checked_prime_conditions"] == checked > 0
        assert record["violations"] == violations
        assert bool(violations) == (which in ("toy", "shared"))


def primes_of(n):
    """The primes of |n| by plain trial division."""
    n, out, d = abs(n), set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    return out | ({n} if n > 1 else set())


class TestRandomTriples:
    """Both scans draw their points through `_random_triples`, which must
    draw what three `randint(-bound, bound)` calls draw, or every report
    changes."""

    @pytest.mark.parametrize("bound", [1, 30, 1000])
    @pytest.mark.parametrize("seed", [0, 4, 9, DEFAULT_SEED * 7 + 1,
                                      DEFAULT_SEED * 7 + 2])
    def test_draws_what_randint_draws(self, seed, bound):
        rng = random.Random(seed)
        expected = [(rng.randint(-bound, bound), rng.randint(-bound, bound),
                     rng.randint(-bound, bound)) for _ in range(20000)]
        assert list(itertools.islice(_random_triples(seed, bound),
                                     20000)) == expected


def scan_points(alg, nsamples, bound, seed):
    """The samples of `odd_place_scan(f, alg, nsamples, bound, seed)`, as
    (point, first(P), second(P)), drawn independently of the scan."""
    rng = random.Random(seed)
    done = 0
    while done < nsamples:
        pt = tuple(rng.randint(-bound, bound) for _ in range(3))
        if pt == (0, 0, 0):
            continue
        g = math.gcd(*pt)
        pt = tuple(c // g for c in pt)
        if next(c for c in pt if c) < 0:
            pt = tuple(-c for c in pt)
        a, b = alg.first.evaluate_int(pt), alg.second.evaluate_int(pt)
        if a == 0 or b == 0:
            continue
        done += 1
        yield pt, a, b


class TestOddScanReciprocity:
    """At the primes of f(P) outside S (2 and the primes of the other factor
    values) the scan asserts reciprocity through one Jacobi symbol."""

    @pytest.fixture
    def jacobi_calls(self, monkeypatch):
        calls = []

        def spy(c, n):
            calls.append(exactarith.jacobi(c, n))
            return calls[-1]

        monkeypatch.setattr(obstruction, "jacobi", spy)
        return calls

    @pytest.mark.parametrize("which", ["quartic", "cubic"])
    def test_jacobi_matches_symbols_at_primes_of_f(
            self, which, jacobi_calls, fq, fc, quartic_algebra, cubic_algebra):
        # where f(P) factors by trial division to 10^5, the Jacobi symbol is
        # the product of the Hilbert symbols at its primes outside S
        f, alg = ((fq, quartic_algebra) if which == "quartic"
                  else (fc, cubic_algebra))
        nsamples, bound, seed = 400, 1000, 9
        odd_place_scan(f, alg, nsamples, bound, seed)
        assert len(jacobi_calls) == nsamples
        compared = 0
        for (pt, a, b), symbol in zip(
                scan_points(alg, nsamples, bound, seed), jacobi_calls):
            S = {2}
            for q in alg.first_factors + alg.second_factors:
                if q != f:
                    S.update(factor(q.evaluate_int(pt)))
            try:
                fprimes = factor(f.evaluate_int(pt))
            except FactorizationError:
                continue
            compared += 1
            assert symbol == math.prod(
                hilbert_symbol(a, b, Place(p))
                for p in fprimes if p not in S)
        assert compared > nsamples // 2

    @pytest.mark.parametrize("first,second,jacobis", [
        ("-gh", "fh", 500),  # f in the second entry: c = A
        ("fh", "fg", 500),   # f in both: (fA, fB) = (fA, -AB), c = -AB
        ("ffh", "-gh", 0),   # f twice: split at every prime outside S
    ])
    def test_entry_parities(self, first, second, jacobis, jacobi_calls,
                            fq, gq, hq):
        forms = {"f": fq, "g": gq, "h": hq, "-": MultiPoly([(-1, (0, 0, 0))])}
        first = tuple(forms[c] for c in first)
        second = tuple(forms[c] for c in second)
        alg = QuaternionAlgebraSpec(math.prod(first), math.prod(second),
                                    first, second)
        # reciprocity holds at every sample, or the scan raises
        odd_place_scan(fq, alg, 500, 1000, 9)
        assert len(jacobi_calls) == jacobis

    @pytest.mark.parametrize("which", ["quartic", "cubic"])
    def test_negated_jacobi_raises(self, which, monkeypatch, fq, fc,
                                   quartic_algebra, cubic_algebra):
        f, alg = ((fq, quartic_algebra) if which == "quartic"
                  else (fc, cubic_algebra))
        monkeypatch.setattr(obstruction, "jacobi",
                            lambda c, n: -exactarith.jacobi(c, n))
        with pytest.raises(InternalInconsistencyError):
            odd_place_scan(f, alg, 500, 1000, 9)


    @pytest.mark.parametrize("which", ["quartic", "cubic"])
    def test_negated_prime_symbol_raises(self, which, monkeypatch, fq, fc,
                                         quartic_algebra, cubic_algebra):
        # the symbols at the primes of S enter the per-sample reciprocity
        # check: negating the one at the least odd prime of each sample
        # must make some invariant sum nonzero.  Every sample asks for the
        # symbol at 2 first, since S always holds 2 and is walked in order.
        f, alg = ((fq, quartic_algebra) if which == "quartic"
                  else (fc, cubic_algebra))
        negated = [True]

        def negate_least_odd(a, b, p):
            symbol = symbol_at_prime(a, b, p)
            if p == 2:
                negated[0] = False
            elif not negated[0]:
                negated[0] = True
                return -symbol
            return symbol

        monkeypatch.setattr(obstruction, "symbol_at_prime", negate_least_odd)
        with pytest.raises(InternalInconsistencyError):
            odd_place_scan(f, alg, 500, 1000, 9)


def walked_prime(rng):
    """The prime draw of square sampling as it was before the prime table:
    a random n in the window, made odd, then the odd numbers from n on
    tested one by one."""
    lo, hi = SQUARE_PRIME_WINDOW
    while True:
        n = rng.randint(lo, hi)
        if n % 2 == 0:
            n += 1
        while n <= hi:
            if is_probable_prime(n):
                return n
            n += 2


class TestSquareSampling:
    def test_prime_table_is_the_window(self):
        lo, hi = SQUARE_PRIME_WINDOW
        assert list(_square_primes()) == [n for n in range(lo, hi + 1)
                                          if is_probable_prime(n)]

    @pytest.mark.parametrize("seed", [0, 5, DEFAULT_SEED * 7 + 3])
    def test_random_prime_draws_the_walked_primes(self, seed):
        by_table, by_walk = random.Random(seed), random.Random(seed)
        assert ([_random_prime(by_table) for _ in range(2000)]
                == [walked_prime(by_walk) for _ in range(2000)])
        assert by_table.getstate() == by_walk.getstate()

    def test_fg_square_mod_h(self, fq, gq, hq):
        res = square_mod_sampling(fq * gq, (hq,), 500, 5)
        assert res.accepted >= 500
        assert res.pass_ratio == 1

    def test_fh_square_mod_g(self, fq, gq, hq):
        res = square_mod_sampling(fq * hq, (gq,), 500, 5)
        assert res.pass_ratio == 1

    def test_negative_control(self):
        conic = MultiPoly([(1, (2, 0, 0)), (1, (0, 2, 0)), (-1, (0, 0, 2))])
        xy = MultiPoly([(1, (1, 1, 0))])
        res = square_mod_sampling(xy, (conic,), 500, 5)
        assert res.counterexamples

    def test_first_entry_vanishing_on_all_of_second(self, quartic_algebra,
                                                    cubic_algebra,
                                                    monkeypatch):
        # some component survives: the quartic's g is not a factor of the
        # first entry, and the cubic's first entry z*f vanishes on z = 0 but
        # not on 4x - z = 0
        for alg in (quartic_algebra, cubic_algebra):
            res = square_mod_sampling(alg.first, alg.second_factors, 50, 1)
            assert res.accepted == 50
        # none survives: the entries are equal, differ by a constant, or
        # the second entry is a constant with no zero locus at all (a low
        # bound keeps the refusals quick; the CLI tests use the real one)
        monkeypatch.setattr(obstruction, "SQUARE_FRUITLESS_DRAWS", 200)
        minus_one = MultiPoly([(-1, (0, 0, 0))])
        first = quartic_algebra.first_factors
        for second in (first, (minus_one,) + first, (minus_one, minus_one)):
            with pytest.raises(SquareSamplingError):
                square_mod_sampling(math.prod(first), second, 50, 1)

    @pytest.mark.parametrize("c", [-1, 3, -6])
    def test_entries_differing_by_a_constant(self, c, monkeypatch):
        # y^2 + c z^2 has points where y^2 does not vanish
        y2 = MultiPoly([(1, (0, 2, 0))])
        res = square_mod_sampling(y2, (y2 + MultiPoly([(c, (0, 0, 2))]),),
                                  50, 1)
        assert res.accepted == 50
        # c*y^2 has the zero locus of y^2, which vanishes on all of it (a
        # low bound keeps the refusals quick)
        monkeypatch.setattr(obstruction, "SQUARE_FRUITLESS_DRAWS", 200)
        with pytest.raises(SquareSamplingError):
            square_mod_sampling(y2, (c * y2,), 50, 1)
        with pytest.raises(SquareSamplingError):
            square_mod_sampling(c * y2, (y2,), 50, 1)

    def test_sparse_curve_skips_primes(self):
        # x^2 + y^2 = 0 has a point with (x, y) != (0, 0) mod p only when
        # p = 1 mod 4, and a draw of (x, y) finds one with probability
        # about 2/p, so most primes are skipped; the figures are those of
        # the sampler before it bounded its run of fruitless draws
        F = MultiPoly([(1, (0, 0, 2)), (3, (1, 1, 0))])
        H = MultiPoly([(1, (2, 0, 0)), (1, (0, 2, 0))])
        res = square_mod_sampling(F, (H,), 100, 5)
        assert (res.accepted, res.passed, len(res.skipped_primes)) == (
            100, 48, 3131)
        assert res.skipped_primes[:3] == (4201, 6899, 2963)
        assert res.counterexamples[0] == (9049, (4842, 7132, 1782))

    def test_sparse_component_beside_a_vanishing_one(self):
        # F = z^2 vanishes on z = 0, where every draw has a root, and not on
        # x^2 + y^2 = 0, which a draw hits with probability about 2/p: at
        # this seed one run between accepted points takes 9,135 primes of
        # one draw each, which the bound on fruitless draws allows
        z = MultiPoly([(1, (0, 0, 1))])
        H = MultiPoly([(1, (2, 0, 0)), (1, (0, 2, 0))])
        res = square_mod_sampling(z * z, (z, H), 40, 6)
        assert (res.accepted, res.passed, res.skipped_primes) == (40, 40, ())


class TestIntegerSearch:
    def test_quartic_empty(self, fq):
        assert integer_search(fq, 1, 100) == []
        assert integer_search(fq, 1, 3000) == []

    def test_quartic_obvious_point(self, fq):
        assert (0, 1, 0) in integer_search(fq, -1, 2)
        # at full size the row x = 0 survives every residue mask
        assert (0, 1, 0) in integer_search(fq, -1, 1000)
        assert (0, 1, 0) in integer_search(fq, -1, 3000)

    def test_cubic_empty(self, fc):
        assert integer_search(fc, 1, 100) == []

    def test_matches_naive_enumeration(self, fq, fc):
        toy = MultiPoly([(1, (4, 0, 0)), (1, (0, 4, 0)), (-2, (0, 0, 4))])
        # solved term x*y^2: its exponent sits on x, not on z
        other = MultiPoly([(1, (1, 2, 0)), (1, (0, 0, 3)), (1, (1, 0, 2)),
                           (-3, (3, 0, 0))])
        # solved term x*z*y^2 vanishes on the whole row x = 0
        zero = MultiPoly([(1, (1, 2, 1)), (1, (3, 0, 0)), (-1, (0, 0, 3)),
                          (1, (1, 0, 2))])
        # pure power of odd degree beside cross terms: negative roots occur
        cube = MultiPoly([(-1, (0, 3, 0)), (1, (2, 0, 2)), (3, (0, 0, 4)),
                          (1, (3, 0, 1))])
        linear = MultiPoly([(2, (0, 1, 0)), (1, (1, 0, 0)), (-1, (0, 0, 1))])
        # solved term 18*y^4 is 0 mod 9: only target - rest = 0 mod 9 passes
        lead18 = MultiPoly([(18, (0, 4, 0)), (1, (4, 0, 0)), (1, (1, 0, 3)),
                            (-1, (0, 0, 4))])
        cases = [(fq, 1, 12), (fq, -1, 12), (fq, 16, 10), (fc, 1, 8),
                 (fc, -1, 8), (fc, 7, 8), (toy, 0, 10), (toy, 32, 8),
                 # (1, 1, 1) and more; t + 64x^3 = 0 on the row x = 1
                 (fc, -128, 12), (fc, -64, 12), (fc, 64, 12),
                 (other, 1, 10), (other, 5, 10), (zero, -1, 10),
                 (zero, 3, 10), (cube, 0, 8), (cube, 3, 8), (linear, 3, 5),
                 (toy, 2, 8), (fq, -1, 0), (fc, 0, 0), (linear, 0, 0),
                 (lead18, 18, 6), (lead18, 99, 6), (lead18, 19, 6),
                 # targets divisible by the modulus 16, with solutions
                 (toy, 80, 5), (zero, -64, 5), (cube, -16, 5)]
        for f, target, B in cases:
            assert integer_search(f, target, B) == \
                naive_integer_search(f, target, B)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_roots_at_the_bound_and_past_it(self, k):
        # f = x*z^k + y^(k+1), solved for z with C = x, whose row x = 0 has
        # C = 0; the targets put exact k-th roots at |z| = B, kept, and at
        # B + 1, refused
        f = MultiPoly([(1, (1, 0, k)), (1, (0, k + 1, 0))])
        B = 5
        targets = [0, 2 ** (k + 1)]
        for r in (B, B + 1):
            targets += [r ** k, -r ** k, r ** k + 1, 2 * r ** k]
        for target in targets:
            assert integer_search(f, target, B) == \
                naive_integer_search(f, target, B)
        # (1, 0, B) up to the antipodal flip
        assert any(abs(x) == 1 and y == 0 and abs(z) == B
                   for x, y, z in integer_search(f, B ** k, B))
        # the row x = 0 holds every z
        assert {abs(z) for x, _, z in integer_search(f, 2 ** (k + 1), B)
                if x == 0} == set(range(1, B + 1, 2))

    def test_cubic_solutions_found(self, fc):
        for B in (1000, 3000):
            assert (1, 1, 1) in integer_search(fc, -128, B)
            # f(1, y, 0) = -64 for every y
            assert (1, B, 0) in integer_search(fc, -64, B)

    @pytest.mark.parametrize("q", [9, 16, 25])
    def test_admissible_rows_match_brute_force(self, q, fq, fc):
        # the search's mask row of u mod q has bit w set when the kernel's
        # slice of u finds some v mod q at (u, w), over the column of all
        # v mod q
        lead18 = MultiPoly([(18, (0, 4, 0)), (1, (4, 0, 0)), (1, (1, 0, 3)),
                            (-1, (0, 0, 4))])
        toy = MultiPoly([(1, (4, 0, 0)), (1, (0, 4, 0)), (-2, (0, 0, 4))])
        # z^2 in three terms, C = x^2 + 3xy - y^2 a unit on some rows only
        several = MultiPoly([(1, (2, 0, 2)), (3, (1, 1, 2)), (-1, (0, 2, 2)),
                             (1, (4, 0, 0)), (-5, (0, 4, 0)), (1, (1, 3, 0))])
        # x^2 in two terms, C = y + 2z; y and z each in several powers
        across_x = MultiPoly([(1, (2, 1, 0)), (2, (2, 0, 1)), (1, (0, 3, 0)),
                              (1, (0, 1, 2)), (-1, (0, 0, 3))])
        # (f, target, index of v): quartic is solved for z
        cases = [(fq, 1, 2), (fq, -1, 2), (fc, 1, 1), (fc, -64, 1),
                 (lead18, 18, 1), (lead18, 32, 1), (toy, 80, 2), (toy, 7, 2),
                 (several, 3, 2), (several, -5, 2), (across_x, 1, 0),
                 (across_x, 6, 0)]
        for f, target, i in cases:
            j, column, rows = f.row_kernel()
            assert j == i
            col = column(range(q), q)
            for u in range(q):
                lifts = []
                rows(u, range(q), col, target, q, {}, lifts.append)
                got = sum(1 << w for w in {(pt[:i] + pt[i + 1:])[1]
                                           for pt in lifts})
                want = 0
                for w in range(q):
                    for v in range(q):
                        point = [u, w]
                        point.insert(i, v)
                        if (f.evaluate_mod(tuple(point), q) - target) % q == 0:
                            want |= 1 << w
                            break
                assert got == want

    @settings(deadline=None, max_examples=150)
    @given(st.integers(0, 2), st.integers(1, 4),
           st.lists(st.tuples(st.integers(-3, 3).filter(bool),
                              st.integers(0, 2), st.integers(0, 2)),
                    min_size=1, max_size=3),
           st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 4),
                              st.integers(0, 4)), max_size=4),
           st.integers(0, 5), st.tuples(*[st.integers(-5, 5)] * 3),
           st.integers(-1, 1))
    def test_matches_naive_on_random_polynomials(self, i, k, lead, rest,
                                                 B, pt, offset):
        # variable i occurs only in the power k, times C(u, w), the sum of
        # the terms c * u^a * w^b in lead
        def term(coeff, ei, eu, ew):
            e = [eu, ew]
            e.insert(i, ei)
            return coeff, tuple(e)
        terms = [term(cr, 0, eu, min(ew, 4 - eu)) for cr, eu, ew in rest]
        for c, a, b in lead:
            a = min(a, 4 - k)
            terms.append(term(c, k, a, min(b, 4 - k - a)))
        f = MultiPoly(terms)
        # the terms of C may cancel, leaving no variable to solve for
        try:
            single_power_split(f)
        except ValueError:
            assume(False)
        # near a value f takes in the box, so that solutions often exist
        target = f.evaluate_int(tuple(max(-B, min(B, v)) for v in pt)) + offset
        assert integer_search(f, target, B) == naive_integer_search(f, target, B)

    def test_pinned_output_past_the_oracle(self, fq, fc):
        # B = 300 is far past the naive oracle's reach; 1,293 solutions,
        # 625 each for cubic -64 and 64
        out = {"%s %d" % (name, t): integer_search(f, t, 300)
               for name, f in (("quartic", fq), ("cubic", fc))
               for t in (-128, -64, -2, -1, 1, 2, 16, 17, 18, 64, 81)}
        assert sum(map(len, out.values())) == 1293
        assert len(out["cubic -64"]) == len(out["cubic 64"]) == 625
        digest = hashlib.sha256(
            json.dumps(out, sort_keys=True).encode()).hexdigest()
        assert digest == ("646f9a6c927ce9ecd7ff0858c3bdb63c"
                          "2818d51ec40a4477589d4abd0c3f1372")

    def test_no_solvable_variable_rejected(self):
        # each variable in powers 1 and 2, or in powers 2 and 4: the
        # integer search and the residue lifts have no variable to solve for
        for f in (MultiPoly([(1, (2, 1, 0)), (1, (1, 2, 0)), (1, (1, 0, 2)),
                             (1, (0, 2, 1)), (1, (2, 0, 1)), (1, (0, 1, 2))]),
                  MultiPoly([(1, (4, 0, 0)), (1, (0, 4, 0)), (1, (0, 0, 4)),
                             (1, (2, 2, 0)), (1, (0, 2, 2)), (1, (2, 0, 2))])):
            with pytest.raises(ValueError, match="single power"):
                integer_search(f, 1, 5)
            with pytest.raises(ValueError, match="single power"):
                lift_classes(f, 1, 3, [(0, 0, 0)], 1)
            with pytest.raises(ValueError, match="single power"):
                padic_solutions_exist(f, 1, 3)


class TestVerdict:
    def test_quartic_obstructed(self, quartic_instance):
        report = obstruction_verdict(quartic_instance)
        assert report["verdict"] == OBSTRUCTED
        assert "hasse_over_Z" not in report["flags"]

    def test_cubic_obstructed_hasse(self, cubic_instance):
        report = obstruction_verdict(cubic_instance)
        assert report["verdict"] == OBSTRUCTED
        assert "hasse_over_Z" in report["flags"]

    def test_quartic_target_minus_one(self, quartic_instance):
        inst = quartic_instance
        flipped = ObstructionInstance(inst.name, inst.f, (-1,), inst.algebra,
                                      inst.sieve_modulus, None, 10)
        report = obstruction_verdict(flipped)
        assert report["verdict"] == NOT_OBSTRUCTED
        search = report["steps"]["integer_search"]["-1"]
        assert [0, 1, 0] in search["solutions"]

    def test_instance_refuses_unsplit_form(self, quartic_instance):
        # x^4 + y^4 + z^4 + x^2y^2 + y^2z^2 + z^2x^2 is homogeneous, but
        # no variable occurs in a single power
        f = MultiPoly([(1, (4, 0, 0)), (1, (0, 4, 0)), (1, (0, 0, 4)),
                       (1, (2, 2, 0)), (1, (0, 2, 2)), (1, (2, 0, 2))])
        inst = quartic_instance
        with pytest.raises(ValueError, match="^no variable of f occurs in "
                           "a single power$"):
            ObstructionInstance(inst.name, f, inst.targets, inst.algebra,
                                inst.sieve_modulus, None, 10)
        with pytest.raises(ValueError, match="single power"):
            inst._replace(f=MultiPoly([(1, (0, 0, 0))]))

    @pytest.mark.parametrize("m", [2, 4])
    def test_quartic_small_sieve_modulus_obstructed(self, quartic_instance,
                                                    m):
        # the classes outside (0, 1, 1) mod 2 are "empty", the rest 1/2
        # (test_empty_classes_hold_no_lift)
        inst = quartic_instance._replace(sieve_modulus=m, search_bound=50)
        report = obstruction_verdict(inst)
        assert report["verdict"] == OBSTRUCTED
        entries = report["steps"]["invariant_table"]["1"]["entries"]
        assert {e["invariant"] for e in entries} == {"1/2", "empty"}


def diagonal_quartic(a, b, target, witness):
    """a x^4 + b y^4 + z^4 = target with the algebra (y^2, z^2) and the
    given rational witness and search bound 5."""
    f = MultiPoly([(a, (4, 0, 0)), (b, (0, 4, 0)), (1, (0, 0, 4))])
    alg = QuaternionAlgebraSpec(MultiPoly([(1, (0, 2, 0))]),
                                MultiPoly([(1, (0, 0, 2))]))
    return ObstructionInstance("diagonal", f, (target,), alg, 2,
                               tuple(Fraction(c) for c in witness), 5)


class TestPadicRecords:
    """`verify` searches each bad prime of the rational witness up to
    PADIC_SEARCH_MAX_PRIME, in ascending order."""

    @pytest.fixture()
    def searched(self, monkeypatch):
        calls = []
        search = obstruction.padic_solutions_exist

        def spy(f, target, p, maxdepth):
            calls.append(p)
            return search(f, target, p, maxdepth)

        monkeypatch.setattr(obstruction, "padic_solutions_exist", spy)
        return calls

    @staticmethod
    def padic_step(instance):
        report = obstruction_verdict(instance)
        return report["verdict"], report["steps"]["padic_witnesses"]

    def test_one_record_per_bad_prime(self, searched):
        # 81/81 + 16/16 + 0 = 2, with denominators 3 and 2
        inst = diagonal_quartic(81, 16, 2, ("1/3", "1/2", 0))
        _, step = self.padic_step(inst)
        assert [(r["p"], r["answer"]["verdict"], r["ok"])
                for r in step["records"]] == [(2, "yes", True),
                                              (3, "yes", True)]
        assert all(list(r) == ["p", "answer", "ok"] for r in step["records"])
        assert step["uncovered_bad_primes"] == []
        assert searched == [2, 3]

    @pytest.mark.parametrize("p", [101, 103])
    def test_prime_above_cap_not_searched(self, searched, p):
        # the cap itself is searched, the next prime is not
        assert (p > PADIC_SEARCH_MAX_PRIME) is (p == 103)
        # 1 + 2 + 1 = 4, which no integer point in the box reaches
        inst = diagonal_quartic(p ** 4, 2, 4, (Fraction(1, p), 1, 1))
        _, step = self.padic_step(inst)
        if p == 103:
            assert step == {"records": [], "uncovered_bad_primes": [p]}
            assert searched == []
        else:
            assert [(r["p"], r["ok"]) for r in step["records"]] == [(p, True)]
            assert step["uncovered_bad_primes"] == []
            assert searched == [p]

    def test_null_witness_no_records(self, quartic_instance, searched):
        inst = quartic_instance._replace(rational_witness=None,
                                         search_bound=5)
        verdict, step = self.padic_step(inst)
        assert verdict == INCONCLUSIVE
        assert step == {"records": [], "uncovered_bad_primes": []}
        assert searched == []


@pytest.fixture(scope="module")
def quartic_steps(quartic_instance):
    return obstruction_verdict(quartic_instance, seed=1)["steps"]


class TestDecide:
    """The verdict is read from the records of a report alone."""

    @pytest.mark.parametrize("step,key,value,flags", [
        ("square_sampling", "counterexamples", [[3, [1, 1, 1]]], []),
        ("padic_witnesses", "uncovered_bad_primes", [2], []),
        ("rational_witness", "matches", False,
         ["rational_witness_mismatch"]),
        # no witness at all (key None replaces the record): nothing shows
        # local solubility
        ("rational_witness", None, {"witness": None}, []),
        # no accepted point: no square-sampling evidence
        ("square_sampling", "accepted", 0, []),
        # a violation of either scan
        ("real_scan", "violations", [[1, 1, 1]], []),
        ("odd_place_scan", "violations", [[[1, 1, 1], 3]], []),
    ])
    def test_refused(self, quartic_steps, quartic_algebra, step, key, value,
                     flags):
        steps = copy.deepcopy(quartic_steps)
        assert decide(steps, quartic_algebra) == (OBSTRUCTED, [])
        if key is None:
            steps[step] = value
        else:
            steps[step][key] = value
        assert decide(steps, quartic_algebra) == (INCONCLUSIVE, flags)

    @staticmethod
    def half_class_steps(quartic_steps):
        """The steps with one doctored search solution, in a sieve class
        whose invariant is certified 1/2."""
        steps = copy.deepcopy(quartic_steps)
        x, y, z = steps["sieve"]["1"]["classes"][0]
        steps["integer_search"]["1"]["solutions"] = [[x + 16, y, z]]
        return steps

    def test_solution_in_half_class_raises(self, quartic_steps,
                                           quartic_algebra, monkeypatch):
        steps = self.half_class_steps(quartic_steps)
        real = obstruction.point_invariant_profile

        def half_sum(alg, point):
            return real(alg, point)._replace(total=Fraction(1, 2))

        monkeypatch.setattr(obstruction, "point_invariant_profile", half_sum)
        with pytest.raises(InternalInconsistencyError, match="invariant sum"):
            decide(steps, quartic_algebra)

    def test_solution_split_at_two_raises(self, quartic_steps,
                                          quartic_algebra, monkeypatch):
        # a zero sum, but the point's invariant at 2 contradicts the table
        steps = self.half_class_steps(quartic_steps)
        real = obstruction.point_invariant_profile

        def split_at_two(alg, point):
            prof = real(alg, point)
            invs = tuple((pl, Fraction(0)) for pl, _ in prof.invariants)
            return prof._replace(invariants=invs, total=0)

        monkeypatch.setattr(obstruction, "point_invariant_profile",
                            split_at_two)
        with pytest.raises(InternalInconsistencyError, match="at 2 is 0"):
            decide(steps, quartic_algebra)

    def test_solution_in_empty_class_raises(self, quartic_instance,
                                            quartic_algebra):
        # from modulus 2, the table marks (0, 1, 0) "empty": a search
        # solution there contradicts it
        steps = obstruction_verdict(quartic_instance._replace(
            sieve_modulus=2, search_bound=5), seed=1)["steps"]
        entries = steps["invariant_table"]["1"]["entries"]
        assert {"class": [0, 1, 0], "invariant": "empty",
                "depth": 2} in entries
        steps["integer_search"]["1"]["solutions"] = [[0, 1, 0]]
        with pytest.raises(InternalInconsistencyError, match="no 2-adic"):
            decide(steps, quartic_algebra)

    def test_solution_outside_sieve_raises(self, quartic_steps,
                                           quartic_algebra):
        # (0, 0, 1) is no sieve class of quartic mod 16 at target 1
        steps = copy.deepcopy(quartic_steps)
        assert [0, 0, 1] not in steps["sieve"]["1"]["classes"]
        steps["integer_search"]["1"]["solutions"] = [[0, 0, 1]]
        with pytest.raises(InternalInconsistencyError, match="no sieve"):
            decide(steps, quartic_algebra)

    def test_reads_entries_not_summary(self, quartic_steps, quartic_algebra):
        # all_half stays true; the entry it summarizes no longer says 1/2
        steps = copy.deepcopy(quartic_steps)
        steps["invariant_table"]["1"]["entries"][0]["invariant"] = None
        assert decide(steps, quartic_algebra) == (INCONCLUSIVE, [])

    def test_all_empty_table_refused(self, quartic_steps, quartic_algebra):
        # classes without a 2-adic point show no obstruction: at least one
        # class must be certified 1/2
        steps = copy.deepcopy(quartic_steps)
        for e in steps["invariant_table"]["1"]["entries"]:
            e["invariant"] = "empty"
        assert decide(steps, quartic_algebra) == (INCONCLUSIVE, [])
