import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obstruction_lab.multipoly import (IdentityClaim, MultiPoly,
                                      single_power_split, verify_identity)


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
        p = MultiPoly([(1, (1, 0, 0)), (1, (0, 2, 0))])
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


def reference_value(p, at):
    """Term-by-term value of p at a triple, the evaluator's reference."""
    x, y, z = at
    return sum((c * x ** ex * y ** ey * z ** ez
                for c, (ex, ey, ez) in p.terms), 0)


coefficients = st.one_of(st.integers(-50, 50),
                         st.integers(-10 ** 30, 10 ** 30))
polys = st.lists(st.tuples(coefficients,
                           st.tuples(*[st.integers(0, 12)] * 3)),
                 max_size=12).map(MultiPoly)
ints = st.integers(-10 ** 30, 10 ** 30)
fractions = st.fractions(max_denominator=10 ** 6).filter(
    lambda q: abs(q.numerator) < 10 ** 30)


class TestEvaluator:
    @settings(deadline=None)
    @given(polys, st.one_of(st.tuples(ints, ints, ints),
                            st.tuples(fractions, fractions, fractions)))
    @example(MultiPoly(), (3, -4, 5))
    @example(MultiPoly([(7, (0, 0, 0))]), (Fraction(1, 3), 0, -2))
    @example(MultiPoly([(-10 ** 30, (12, 12, 12))]), (-2, 3, -1))
    def test_matches_reference(self, p, at):
        assert p.evaluate_int(at) == reference_value(p, at)

    @settings(deadline=None)
    @given(polys, st.tuples(*[st.integers(-10 ** 6, 0)] * 3),
           st.sampled_from([2, 16, 10007]))
    def test_mod_at_negative_coordinates(self, p, at, m):
        value = p.evaluate_mod(at, m)
        assert value == reference_value(p, at) % m
        assert 0 <= value < m

    def test_five_thousand_terms(self):
        # a flat sum of this many terms would exceed the compiler's
        # recursion limit
        rng = random.Random(3)
        p = MultiPoly([(rng.randint(-10 ** 30, 10 ** 30), (a, b, 99 - a - b))
                       for a in range(100) for b in range(100 - a)][:5000])
        assert len(p.terms) == 5000
        for at in [(3, -5, 7), (Fraction(-1, 2), 2, Fraction(3, 5))]:
            assert p.evaluate_int(at) == reference_value(p, at)
        assert p.evaluate_mod((-3, 5, -7), 10007) == \
            reference_value(p, (-3, 5, -7)) % 10007

    def test_compiled_once_and_immutable(self, gq):
        q = MultiPoly(gq.terms)
        before = (hash(q), q == gq)
        assert q.evaluator() is q.evaluator()
        assert q.gradient() is q.gradient()
        assert q.row_kernel() is q.row_kernel()
        assert (hash(q), q == gq) == before
        with pytest.raises(AttributeError):
            q._evaluator = None
        with pytest.raises(AttributeError):
            q.terms = ()

    def test_single_power_split(self, fq, fc):
        # quartic is split at z, cubic at y with C = z
        assert single_power_split(fq)[:2] == (2, 4)
        z = MultiPoly([(1, (0, 0, 1))])
        assert single_power_split(fc)[:3] == (1, 2, z)

    def test_gradient(self):
        rng = random.Random(21)
        for _ in range(100):
            p = random_poly(rng)
            assert p.gradient() == tuple(p.partial(i) for i in range(3))

    @given(st.lists(st.tuples(st.integers(-20, 20).filter(bool),
                              st.tuples(*[st.integers(0, 4)] * 3)),
                    max_size=8).map(MultiPoly))
    # no variable in a single power; split at y (z in two powers); split
    # at x (z and y in two)
    @example(MultiPoly.from_term_list([[1, 4, 0, 0], [1, 0, 4, 0],
                                       [1, 0, 0, 4], [1, 2, 2, 0],
                                       [1, 0, 2, 2], [1, 2, 0, 2]]))
    @example(MultiPoly.from_term_list([[1, 0, 2, 1], [-3, 1, 0, 2]]))
    @example(MultiPoly.from_term_list([[5, 3, 1, 1], [2, 3, 2, 0],
                                       [-1, 0, 1, 2]]))
    def test_coefficients_and_single_power_split(self, p):
        # sum c_k v**k rebuilds p for every variable v, no c_k contains v
        for j in range(3):
            v = MultiPoly([(1, tuple(int(i == j) for i in range(3)))])
            cs = p.coefficients(j)
            assert cs is p.coefficients(j)
            total, power = MultiPoly(), MultiPoly([(1, (0, 0, 0))])
            for c in cs:
                assert all(e[j] == 0 for _, e in c.terms)
                total, power = total + c * power, power * v
            assert total == p
        # the split is at the first of z, y, x that p holds in one power
        held = [j for j in (2, 1, 0)
                if len({e[j] for _, e in p.terms if e[j]}) == 1]
        if not held:
            with pytest.raises(ValueError, match="single power"):
                single_power_split(p)
            return
        j, k, C, R = single_power_split(p)
        assert (j, k) == (held[0], {e[j] for _, e in p.terms if e[j]}.pop())
        assert (C, R) == (p.coefficients(j)[k], p.coefficients(j)[0])
