import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obstruction_lab.cli import load_instance
from obstruction_lab.exactarith import is_probable_prime
from obstruction_lab.multipoly import MultiPoly
from obstruction_lab.padicsolve import (SolubilityAnswer, lift_classes,
                                        padic_solutions_exist,
                                        verify_rational_witness)


def brute_lifts(f, target, p, classes, mod):
    """The lifts mod p*mod of classes where f = target, one evaluation of f
    per lifted triple."""
    fn = f.evaluator()
    top = p * mod
    return sorted((x + i * mod, y + j * mod, z + k * mod)
                  for x, y, z in classes
                  for i in range(p) for j in range(p) for k in range(p)
                  if (fn(x + i * mod, y + j * mod, z + k * mod) - target)
                  % top == 0)


@st.composite
def small_forms(draw):
    """A form of at most six terms of degree at most 4 in each variable:
    any shape, without z, in z alone, or with a constant z-coefficient
    next to varying ones."""
    shape = draw(st.sampled_from(("any", "no z", "z only", "fixed z")))
    exps = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
    terms = draw(st.lists(st.tuples(st.integers(-20, 20), exps),
                          max_size=6))
    if shape == "no z":
        terms = [(c, (a, b, 0)) for c, (a, b, _) in terms]
    elif shape == "z only":
        terms = [(c, (0, 0, e)) for c, (_, _, e) in terms]
    elif shape == "fixed z":
        # z**k has a constant coefficient, z**(k + 1) a varying one
        k = draw(st.integers(0, 3))
        terms += [(draw(st.integers(1, 9)), (0, 0, k)),
                  (draw(st.integers(1, 9)), (1, 1, k + 1))]
    return MultiPoly(terms)


# (p, depth, witness, value_valuation, derivative_valuation) of the "yes"
# answer of every prime below 110, as the search that evaluated f once per
# residue triple gave them
PINNED_ANSWERS = {
    ("quartic", 1): [
        (2, 2, (0, 3, 1), 6, 2), (3, 1, (1, 0, 0), 1, 0),
        (5, 1, (1, 0, 1), 1, 0), (7, 1, (0, 0, 2), 1, 0),
        (11, 1, (0, 1, 2), 1, 0), (13, 1, (0, 1, 2), 1, 0),
        (17, 1, (0, 0, 1), 1, 0), (19, 1, (0, 1, 5), 1, 0),
        (23, 1, (0, 0, 7), 1, 0), (29, 1, (0, 8, 3), 1, 0),
        (31, 1, (0, 0, 3), 1, 0), (37, 1, (0, 1, 5), 1, 0),
        (41, 1, (0, 0, 2), 1, 0), (43, 1, (0, 1, 10), 1, 0),
        (47, 1, (0, 0, 3), 1, 0), (53, 1, (0, 11, 5), 1, 0),
        (59, 1, (0, 1, 16), 1, 0), (61, 1, (0, 1, 9), 1, 0),
        (67, 1, (0, 1, 25), 1, 0), (71, 1, (0, 0, 12), 1, 0),
        (73, 1, (0, 0, 26), 1, 0), (79, 1, (0, 0, 14), 1, 0),
        (83, 1, (0, 1, 32), 1, 0), (89, 1, (0, 2, 33), 1, 0),
        (97, 1, (0, 1, 29), 1, 0), (101, 1, (0, 9, 6), 1, 0),
        (103, 1, (0, 0, 50), 1, 0), (107, 1, (0, 1, 6), 1, 0),
        (109, 1, (0, 1, 6), 1, 0)],
    ("cubic", 1): [
        (2, 1, (0, 0, 1), 1, 0), (3, 1, (0, 0, 1), 1, 0),
        (5, 1, (0, 0, 2), 1, 0), (7, 1, (0, 1, 1), 1, 0),
        (11, 1, (0, 0, 2), 1, 0), (13, 1, (0, 2, 11), 1, 0),
        (17, 1, (0, 0, 11), 1, 0), (19, 1, (0, 0, 5), 1, 0),
        (23, 1, (0, 0, 5), 1, 0), (29, 1, (0, 0, 20), 1, 0),
        (31, 1, (0, 1, 25), 1, 0), (37, 1, (0, 1, 6), 1, 0),
        (41, 1, (0, 0, 12), 1, 0), (43, 1, (0, 1, 10), 1, 0),
        (47, 1, (0, 0, 3), 1, 0), (53, 1, (0, 0, 37), 1, 0),
        (59, 1, (0, 0, 12), 1, 0), (61, 1, (0, 3, 29), 1, 0),
        (67, 1, (0, 2, 20), 1, 0), (71, 1, (0, 0, 53), 1, 0),
        (73, 1, (0, 0, 33), 1, 0), (79, 1, (0, 1, 61), 1, 0),
        (83, 1, (0, 0, 27), 2, 0), (89, 1, (0, 0, 83), 1, 0),
        (97, 1, (0, 1, 55), 1, 0), (101, 1, (0, 0, 38), 1, 0),
        (103, 1, (0, 2, 87), 1, 0), (107, 1, (0, 0, 59), 1, 0),
        (109, 1, (0, 3, 32), 1, 0)],
    ("cubic", -1): [
        (2, 1, (0, 0, 1), 3, 0), (3, 1, (0, 0, 2), 1, 0),
        (5, 1, (0, 0, 3), 1, 0), (7, 1, (0, 1, 6), 2, 0),
        (11, 1, (0, 0, 9), 1, 0), (13, 1, (0, 2, 2), 1, 0),
        (17, 1, (0, 0, 6), 1, 0), (19, 1, (0, 0, 2), 1, 0),
        (23, 1, (0, 0, 18), 1, 0), (29, 1, (0, 0, 9), 1, 0),
        (31, 1, (0, 1, 6), 1, 0), (37, 1, (0, 1, 31), 1, 0),
        (41, 1, (0, 0, 29), 1, 0), (43, 1, (0, 1, 24), 1, 0),
        (47, 1, (0, 0, 44), 1, 0), (53, 1, (0, 0, 16), 1, 0),
        (59, 1, (0, 0, 47), 1, 0), (61, 1, (0, 3, 9), 1, 0),
        (67, 1, (0, 2, 47), 1, 0), (71, 1, (0, 0, 18), 1, 0),
        (73, 1, (0, 0, 5), 1, 0), (79, 1, (0, 1, 18), 1, 0),
        (83, 1, (0, 0, 56), 1, 0), (89, 1, (0, 0, 6), 1, 0),
        (97, 1, (0, 1, 42), 1, 0), (101, 1, (0, 0, 63), 1, 0),
        (103, 1, (0, 2, 16), 1, 0), (107, 1, (0, 0, 48), 1, 0),
        (109, 1, (0, 3, 77), 1, 0)],
}


class TestPadicSearch:
    def test_quartic_at_two(self, fq):
        ans = padic_solutions_exist(fq, 1, 2, 8)
        assert ans.verdict == "yes"
        assert ans.depth == 2 and ans.witness == (0, 3, 1)
        # the witness class carries the fourth-root-of-17 shape certificate
        assert ans.value_valuation == 6 and ans.derivative_valuation == 2

    def test_quartic_at_three(self, fq):
        ans = padic_solutions_exist(fq, 1, 3, 4)
        assert ans.verdict == "yes"
        # replay the Newton inequality at the reported witness
        val = fq.evaluate_int(ans.witness) - 1
        assert val % 3 ** (2 * ans.derivative_valuation + 1) == 0

    def test_three_squares_never_minus_one_at_two(self):
        f = MultiPoly([(1, (2, 0, 0)), (1, (0, 2, 0)), (1, (0, 0, 2))])
        ans = padic_solutions_exist(f, -1, 2, 4)
        assert ans.verdict == "no"
        assert ans.depth == 3  # exhausted at modulus 8
        # independent re-enumeration at the exhaustion depth
        m = 2 ** ans.depth
        assert all(f.evaluate_mod((x, y, z), m) != (-1) % m
                   for x in range(m) for y in range(m) for z in range(m))

    def test_inconclusive_at_depth_one(self, fq):
        ans = padic_solutions_exist(fq, 1, 2, 1)
        assert ans.verdict == "inconclusive"

    def test_determinism(self, fq):
        a1 = padic_solutions_exist(fq, 1, 2, 8)
        a2 = padic_solutions_exist(fq, 1, 2, 8)
        assert a1 == a2

    def test_answers_pinned(self):
        # the answers of the term-by-term evaluator that the compiled one
        # replaced: 70 "yes" and two "no" at p = 2
        lines = []
        for name in ("quartic", "cubic"):
            f = load_instance(name).f
            for t in (1, -1, 3, 7):
                for p in range(2, 24):
                    if is_probable_prime(p):
                        lines.append(repr(padic_solutions_exist(f, t, p)))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == ("55363f7e8865dcfc7b7f58f27581e08d"
                          "7c79701603421dc6c34b00550eb4654d")


class TestLiftClasses:
    @settings(max_examples=150, deadline=None)
    @given(small_forms(), st.integers(-30, 30), st.sampled_from((2, 3, 5, 7)),
           st.integers(1, 3), st.data())
    def test_matches_brute_force(self, f, target, p, level, data):
        mod = p ** (level - 1)
        triple = st.tuples(*[st.integers(0, mod - 1)] * 3)
        classes = sorted(set(data.draw(st.lists(triple, min_size=1,
                                                max_size=3))))
        assert lift_classes(f, target, p, classes, mod) == \
            brute_lifts(f, target, p, classes, mod)

    def test_zero_form(self):
        zero = MultiPoly()
        assert zero.z_coefficients() == ()
        assert lift_classes(zero, 0, 2, [(1, 0, 1)], 2) == \
            brute_lifts(zero, 0, 2, [(1, 0, 1)], 2)
        assert lift_classes(zero, 1, 3, [(0, 0, 0)], 1) == []

    @pytest.mark.parametrize("name,target", [("quartic", 1), ("cubic", 1),
                                             ("cubic", -1)])
    def test_bundled_answers_pinned(self, name, target):
        f = load_instance(name).f
        for p, depth, witness, fv, dv in PINNED_ANSWERS[name, target]:
            assert padic_solutions_exist(f, target, p) == SolubilityAnswer(
                "yes", p, depth, witness, fv, dv)
        assert [a[0] for a in PINNED_ANSWERS[name, target]] == [
            p for p in range(2, 110) if is_probable_prime(p)]


class TestRationalWitness:
    def test_quartic_witness(self, fq):
        chk = verify_rational_witness((Fraction(1, 2), 0, Fraction(1, 2)), fq, 1)
        assert chk.matches and chk.bad_primes == {2}

    def test_cubic_witness(self, fc):
        chk = verify_rational_witness((Fraction(1, 4), 1, 1), fc, 1)
        assert chk.matches and chk.bad_primes == {2}

    def test_mismatch_reported(self, fq):
        chk = verify_rational_witness((0, 1, 0), fq, 1)
        assert not chk.matches and chk.value == -1

    def test_witness_consistency(self, fq):
        # the quartic witness covers every p except 2; searches at the small
        # remaining primes must certify solubility
        chk = verify_rational_witness((Fraction(1, 2), 0, Fraction(1, 2)), fq, 1)
        for p in range(3, 51):
            if not is_probable_prime(p) or p in chk.bad_primes:
                continue
            assert padic_solutions_exist(fq, 1, p, 4).verdict == "yes"
