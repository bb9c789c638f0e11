import hashlib
from fractions import Fraction

from obstruction_lab.cli import load_instance
from obstruction_lab.exactarith import is_probable_prime
from obstruction_lab.multipoly import MultiPoly
from obstruction_lab.padicsolve import (padic_solutions_exist,
                                        verify_rational_witness)


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
