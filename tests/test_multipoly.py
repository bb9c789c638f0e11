import random
from fractions import Fraction

from obstruction_lab.multipoly import (IdentityClaim, MultiPoly, variable,
                                       verify_identity)


def random_poly(rng, nterms=4, maxdeg=3, maxc=20):
    return MultiPoly([(rng.randint(-maxc, maxc),
                       (rng.randint(0, maxdeg), rng.randint(0, maxdeg),
                        rng.randint(0, maxdeg)))
                      for _ in range(nterms)])


class TestEvaluate:
    def test_quartic_rational_witness(self, fq):
        assert fq.evaluate_int((Fraction(1, 2), 0, Fraction(1, 2))) == 1

    def test_single_term(self, fq):
        assert fq.evaluate_int((0, 1, 0)) == -1

    def test_hand_expansion(self, fq):
        assert fq.evaluate_int((0, 1, 1)) == 17

    def test_mod_16(self, fq):
        assert fq.evaluate_mod((0, 1, 1), 16) == 1

    def test_fh_mod_4(self, fq, hq):
        fh = fq * hq
        assert fh.evaluate_int((0, 1, 1)) == 17 * 59
        assert fh.evaluate_mod((0, 1, 1), 4) == 3

    def test_minus_gh_mod_4(self, gq, hq):
        mgh = -1 * (gq * hq)
        assert mgh.evaluate_int((0, 1, 1)) == -79 * 59
        assert mgh.evaluate_mod((0, 1, 1), 4) == 3


class TestHomogeneity:
    def test_quartic(self, fq):
        assert fq.homogeneous_degree() == 4

    def test_product(self, fq, hq):
        assert (fq * hq).homogeneous_degree() == 6

    def test_inhomogeneous(self):
        p = variable(0) + variable(1) * variable(1)
        assert p.homogeneous_degree() is None

    def test_scaling(self, fq):
        rng = random.Random(5)
        for _ in range(100):
            a = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                      for _ in range(3))
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            assert Fraction(fq.evaluate_int(tuple(lam * c for c in a))) == \
                lam ** 4 * fq.evaluate_int(a)


class TestIdentities:
    def test_quartic_double_cover_identity(self, fq):
        sq = MultiPoly([(4, (2, 0, 0)), (-1, (0, 2, 0))])
        plus = MultiPoly([(1, (2, 0, 0)), (2, (0, 2, 0)), (9, (0, 0, 2))])
        minus = MultiPoly([(1, (2, 0, 0)), (2, (0, 2, 0)), (-9, (0, 0, 2))])
        claim = IdentityClaim(((1, (sq, sq)), (2, (plus, minus)), (9, (fq,))))
        assert verify_identity(claim)

    def test_cubic_algebra_first_entry(self, fc, cubic_algebra):
        z = MultiPoly([(1, (0, 0, 1))])
        claim = IdentityClaim(((1, (z, fc)), (-1, (cubic_algebra.first,))))
        assert verify_identity(claim)

    def test_trivial_cancellation(self):
        rng = random.Random(2)
        for _ in range(20):
            p = random_poly(rng)
            assert verify_identity(IdentityClaim(((1, (p,)), (-1, (p,)))))

    def test_nonzero_rejected(self, fq):
        assert not verify_identity(IdentityClaim(((1, (fq,)),)))


class TestAlgebraProperties:
    def test_evaluation_homomorphism(self):
        rng = random.Random(13)
        for _ in range(1000):
            p = random_poly(rng)
            q = random_poly(rng)
            a = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                      for _ in range(3))
            pa, qa = Fraction(p.evaluate_int(a)), Fraction(q.evaluate_int(a))
            assert Fraction((p * q).evaluate_int(a)) == pa * qa
            assert Fraction((p + q).evaluate_int(a)) == pa + qa

    def test_mod_consistency(self):
        rng = random.Random(17)
        for _ in range(300):
            p = random_poly(rng)
            a = tuple(rng.randint(-50, 50) for _ in range(3))
            m = rng.randint(2, 64)
            assert p.evaluate_mod(a, m) == p.evaluate_int(a) % m

    def test_canonical_form(self):
        rng = random.Random(19)
        for _ in range(300):
            p = random_poly(rng) * random_poly(rng) + random_poly(rng)
            exps = [e for _, e in p.terms]
            assert len(exps) == len(set(exps))
            assert all(c != 0 for c, _ in p.terms)
            # graded-lex order
            keys = [(-sum(e), tuple(-c for c in e)) for e in exps]
            assert keys == sorted(keys)

    def test_immutability(self, fq):
        try:
            fq.terms = ()
        except AttributeError:
            pass
        else:
            raise AssertionError("terms should be read-only")
