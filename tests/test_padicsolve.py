import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from obstruction_lab.cli import load_instance
from obstruction_lab.exactarith import is_probable_prime
from obstruction_lab.multipoly import MultiPoly, single_power_split
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


def reference_search(f, target, p, maxdepth):
    """The answer of `padic_solutions_exist` from whole levels: each level
    built with `brute_lifts` and sorted, and its first point that meets
    Newton's inequality the witness."""
    fn = f.evaluator()
    partials = [d.evaluator() for d in f.gradient()]

    def v(n):
        k = 0
        while n % p == 0:
            n, k = n // p, k + 1
        return k

    classes, mod = [(0, 0, 0)], 1
    for level in range(1, maxdepth + 1):
        classes = brute_lifts(f, target, p, classes, mod)
        mod *= p
        for pt in classes:
            value = fn(*pt) - target
            fv = v(value) if value else None
            dvs = [v(d) for d in (g(*pt) for g in partials) if d]
            if dvs and (fv is None or fv > 2 * min(dvs)):
                return SolubilityAnswer("yes", p, level, pt, fv, min(dvs))
        if not classes:
            return SolubilityAnswer("no", p, level)
    return SolubilityAnswer("inconclusive", p, maxdepth)


def has_split(f):
    try:
        single_power_split(f)
    except ValueError:
        return False
    return True


@st.composite
def small_forms(draw):
    """A form of at most six terms of degree at most 4 in each variable:
    any shape, without z, in z alone, or with a constant z-coefficient
    next to varying ones; only forms with a variable in a single power,
    the forms an instance accepts."""
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
    f = MultiPoly(terms)
    assume(has_split(f))
    return f


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


# Moduli the lift starts from, times a power of p: the sieve lifts by p
# from moduli that carry other primes (mod 4 at p = 3 for m = 12).
OTHER_MODULI = (1, 2, 3, 4, 6, 8, 9, 12)


class TestLiftClasses:
    @settings(max_examples=150, deadline=None)
    @given(small_forms(), st.integers(-30, 30), st.sampled_from((2, 3, 5, 7)),
           st.integers(1, 3), st.sampled_from(OTHER_MODULI), st.data())
    def test_matches_brute_force(self, f, target, p, level, other, data):
        mod = p ** (level - 1) * other
        triple = st.tuples(*[st.integers(0, mod - 1)] * 3)
        classes = sorted(set(data.draw(st.lists(triple, min_size=1,
                                                max_size=3))))
        assert lift_classes(f, target, p, classes, mod) == \
            brute_lifts(f, target, p, classes, mod)

    @pytest.mark.parametrize("terms,var", [
        # every variable in a single power: z is lifted, its constant
        # coefficient (1, 2 or 18) folded into the key even where p divides
        # it
        ([(2, (4, 0, 0)), (-1, (0, 4, 0)), (1, (0, 0, 4))], 2),
        ([(1, (4, 0, 0)), (-1, (0, 4, 0)), (2, (0, 0, 4))], 2),
        ([(-2, (4, 0, 0)), (-1, (0, 4, 0)), (18, (0, 0, 4))], 2),
        # a varying coefficient that is a unit on some rows only, or never
        ([(-64, (3, 0, 0)), (-64, (2, 0, 1)), (-8, (1, 0, 2)),
          (1, (0, 2, 1)), (7, (0, 0, 3))], 1),
        ([(3, (0, 2, 1)), (1, (3, 0, 0)), (-7, (0, 0, 3))], 1),
        ([(6, (2, 1, 0)), (2, (2, 0, 1)), (1, (0, 3, 0)), (1, (0, 1, 1)),
          (1, (0, 0, 3))], 0),
    ])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_each_kernel_shape(self, terms, var, p):
        f = MultiPoly(terms)
        assert f.row_kernel()[0] == var
        rng = random.Random(p)
        for other in OTHER_MODULI:
            mod = p * other
            classes = sorted({tuple(rng.randrange(mod) for _ in range(3))
                              for _ in range(6)})
            for target in (0, 1, -1, 3):
                assert lift_classes(f, target, p, classes, mod) == \
                    brute_lifts(f, target, p, classes, mod)

    def test_five_thousand_term_coefficients(self):
        # C and R of f = C*z + R in thousands of terms stay within the
        # compiler's recursion limit
        rng = random.Random(8)
        f = MultiPoly([(rng.randint(-10 ** 30, 10 ** 30), (a, b, c))
                       for a in range(60) for b in range(60) for c in (0, 1)])
        assert len(f.terms) == 7200 and f.row_kernel()[0] == 2
        for mod in (1, 4):
            classes = [(1, 2, 3), (3, 0, 1)] if mod > 1 else [(0, 0, 0)]
            assert lift_classes(f, 5, 3, classes, mod) == \
                brute_lifts(f, 5, 3, classes, mod)

    def test_zero_form(self):
        # the zero form holds no variable, so it has no split to lift
        zero = MultiPoly()
        assert all(zero.coefficients(j) == (zero,) for j in range(3))
        with pytest.raises(ValueError, match="single power"):
            lift_classes(zero, 0, 2, [(1, 0, 1)], 2)
        with pytest.raises(ValueError, match="single power"):
            padic_solutions_exist(zero, 1, 3)

    @pytest.mark.parametrize("name,target", [("quartic", 1), ("cubic", 1),
                                             ("cubic", -1)])
    def test_bundled_answers_pinned(self, name, target):
        f = load_instance(name).f
        for p, depth, witness, fv, dv in PINNED_ANSWERS[name, target]:
            assert padic_solutions_exist(f, target, p) == SolubilityAnswer(
                "yes", p, depth, witness, fv, dv)
        assert [a[0] for a in PINNED_ANSWERS[name, target]] == [
            p for p in range(2, 110) if is_probable_prime(p)]


# Every field of the answer at primes above PADIC_SEARCH_MAX_PRIME, where
# one level is p**2 rows, as the row kernel that scanned every lift of z
# gave them: (name, target, p, depth, witness, value_valuation,
# derivative_valuation), each a "yes"
LARGE_PRIME_ANSWERS = [
    ("quartic", 1, 211, 1, (0, 1, 80), 1, 0),
    ("quartic", 1, 223, 1, (0, 0, 46), 1, 0),
    ("quartic", 1, 251, 1, (0, 1, 109), 1, 0),
    ("quartic", -1, 211, 1, (0, 0, 11), 1, 0),
    ("quartic", -1, 223, 1, (0, 1, 0), None, 0),
    ("quartic", -1, 251, 1, (0, 0, 52), 2, 0),
    ("cubic", 1, 211, 1, (0, 2, 119), 1, 0),
    ("cubic", 1, 223, 1, (0, 0, 37), 1, 0),
    ("cubic", 1, 251, 1, (0, 0, 174), 1, 0),
    ("cubic", -1, 211, 1, (0, 2, 92), 1, 0),
    ("cubic", -1, 223, 1, (0, 0, 118), 1, 0),
    ("cubic", -1, 251, 1, (0, 0, 77), 1, 0),
]


@pytest.mark.parametrize("name,target,p,depth,witness,fv,dv",
                         LARGE_PRIME_ANSWERS)
def test_large_prime_answers_pinned(name, target, p, depth, witness, fv, dv):
    f = load_instance(name).f
    assert padic_solutions_exist(f, target, p) == SolubilityAnswer(
        "yes", p, depth, witness, fv, dv)


@st.composite
def kernel_forms(draw, j):
    """A form whose row kernel lifts variable j, z (2) or y (1): C*v**k + R
    with R in the other two variables, and with a constant C (which p may
    divide) or a C in them that vanishes at (0, 0), so that it is no unit
    on some rows.  A draw whose kernel would lift another variable (for y,
    one with z in a single power) is rejected.  (A form with no variable
    in a single power has no row kernel.)"""
    def exps(a, b, e):
        # a, b the exponents of the other two variables, e that of v
        return (a, b, e) if j == 2 else (a, e, b)

    shape = draw(st.sampled_from(("constant C", "varying C")))
    coeff = st.integers(-20, 20).filter(bool)
    pair = st.tuples(st.integers(0, 3), st.integers(0, 3))
    terms = {exps(a, b, 0): c for (a, b), c in
             draw(st.dictionaries(pair, coeff, max_size=4)).items()}
    k = draw(st.integers(1, 4))
    if shape == "constant C":
        terms[exps(0, 0, k)] = draw(coeff)
    else:
        c_terms = draw(st.dictionaries(pair.filter(any), coeff, min_size=1,
                                       max_size=3))
        terms.update((exps(a, b, k), c) for (a, b), c in c_terms.items())
    f = MultiPoly((c, e) for e, c in terms.items())
    assume(single_power_split(f)[0] == j)
    return f


class TestEarlyExit:
    """Level 1 of the search walks the lifts of a form whose row kernel
    lifts z or y in the order of the sorted level, and stops at the first
    lift that meets Newton's inequality; a form whose kernel lifts x builds
    the whole level."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(kernel_forms(2), kernel_forms(1), small_forms()),
           st.integers(-30, 30), st.sampled_from((2, 3, 5, 7)),
           st.integers(1, 3))
    def test_matches_whole_levels(self, f, target, p, maxdepth):
        assert padic_solutions_exist(f, target, p, maxdepth) == \
            reference_search(f, target, p, maxdepth)

    # (instance, target, p, witness, value_valuation), as the search that
    # sorted the whole of level 1 gave them
    @pytest.mark.parametrize("name,target,p,witness,fv", [
        pytest.param("quartic", 1, 1009, (0, 1, 386), 1,
                     id="1-1009-witness0-1"),
        pytest.param("quartic", -1, 1009, (0, 1, 0), None,
                     id="-1-1009-witness1-None"),
        pytest.param("quartic", 1, 4001, (0, 4, 487), 1,
                     id="1-4001-witness2-1"),
        pytest.param("quartic", -1, 4001, (0, 1, 0), None,
                     id="-1-4001-witness3-None"),
        pytest.param("cubic", 1, 1009, (0, 1, 676), 1, id="cubic-1-1009"),
        pytest.param("cubic", -1, 1009, (0, 1, 333), 1, id="cubic--1-1009"),
        pytest.param("cubic", 1, 4001, (0, 0, 19), 1, id="cubic-1-4001"),
        pytest.param("cubic", -1, 4001, (0, 0, 3982), 1,
                     id="cubic--1-4001")])
    def test_level_one_stops_within_p_rows(self, monkeypatch, name, target,
                                           p, witness, fv):
        # the whole of level 1 is p**2 rows; quartic walks them one row a
        # call, cubic one x-slice of p rows a call
        kernel = MultiPoly.row_kernel
        walked = []

        def counted(f):
            j, column, rows = kernel(f)

            def counted_rows(u, ws, *args):
                walked.extend((u, w) for w in ws)
                return rows(u, ws, *args)
            return j, column, counted_rows

        monkeypatch.setattr(MultiPoly, "row_kernel", counted)
        f = load_instance(name).f
        ans = padic_solutions_exist(f, target, p)
        assert ans == SolubilityAnswer("yes", p, 1, witness, fv, 0)
        assert 0 < len(walked) <= p

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(small_forms(), kernel_forms(2)),
           st.sampled_from((2, 3, 5, 7)), st.integers(1, 4))
    def test_rows_ascending(self, f, p, other):
        # a slice lists its rows in the order of its ws, and each row its
        # lifts of v in ascending order, also where C is not a unit mod M
        j, column, rows = f.row_kernel()
        top = p * other
        col = column(range(top), top)
        for u in range(top):
            for target in range(top):
                lifts = []
                rows(u, range(top), col, target, top, {}, lifts.append)
                order = [_row_order(j, pt) for pt in lifts]
                assert order == sorted(order)


def _row_order(j, pt):
    """(u, w, v) of a lifted triple whose v is variable j."""
    u, w = pt[:j] + pt[j + 1:]
    return u, w, pt[j]


class TestSliceKernel:
    """One call of the kernel's rows solves the rows (u, w) of one u for
    every w of a slice, as `lift_classes` calls it."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(small_forms(), kernel_forms(2)),
           st.sampled_from((2, 3, 5, 7)), st.integers(0, 2),
           st.lists(st.tuples(*[st.integers(0, 48)] * 3), min_size=1,
                    max_size=2))
    # a constant C, solved for z (quartic); C = z, which p divides on some
    # rows, solved for y (cubic); C = y + 2z, solved for x
    @example(MultiPoly([(-2, (4, 0, 0)), (-1, (0, 4, 0)), (18, (0, 0, 4))]),
             3, 1, [(1, 2, 0), (2, 0, 1)])
    @example(MultiPoly([(-64, (3, 0, 0)), (-64, (2, 0, 1)), (-8, (1, 0, 2)),
                        (1, (0, 2, 1)), (7, (0, 0, 3))]),
             2, 2, [(1, 3, 2), (3, 0, 0)])
    @example(MultiPoly([(1, (2, 1, 0)), (2, (2, 0, 1)), (1, (0, 3, 0)),
                        (1, (0, 1, 2)), (-1, (0, 0, 3))]),
             5, 1, [(2, 1, 3)])
    def test_matches_brute_force(self, f, p, e, points):
        j, column, rows = f.row_kernel()
        mod = p ** e
        top = p * mod
        classes = sorted({tuple(c % mod for c in pt) for pt in points})
        shared = {}
        for target in range(top):
            for cls in classes:
                u, w = cls[:j] + cls[j + 1:]
                col = column(range(cls[j], cls[j] + top, mod), top)
                ws = range(w, w + top, mod)
                fresh, again = [], []
                inverses = {}
                for u2 in range(u, u + top, mod):
                    rows(u2, ws, col, target, top, inverses, fresh.append)
                    rows(u2, ws, col, target, top, shared, again.append)
                assert again == fresh
                order = [_row_order(j, pt) for pt in fresh]
                assert order == sorted(order)
                assert sorted(fresh) == brute_lifts(f, target, p, [cls], mod)


class TestRationalWitness:
    # the check is the report's rational_witness record
    def test_quartic_witness(self, fq):
        rec = verify_rational_witness((Fraction(1, 2), 0, Fraction(1, 2)), fq, 1)
        assert rec == {"witness": ["1/2", "0", "1/2"], "target": 1,
                       "value": "1", "matches": True, "bad_primes": [2]}
        assert list(rec) == ["witness", "target", "value", "matches",
                             "bad_primes"]

    def test_cubic_witness(self, fc):
        rec = verify_rational_witness((Fraction(1, 4), 1, 1), fc, 1)
        assert rec["matches"] is True and rec["bad_primes"] == [2]

    def test_mismatch_reported(self, fq):
        rec = verify_rational_witness((0, 1, 0), fq, 1)
        assert rec["matches"] is False and rec["value"] == "-1"
        assert rec["bad_primes"] == []

    def test_witness_consistency(self, fq):
        # the quartic witness covers every p except 2; searches at the small
        # remaining primes must certify solubility
        rec = verify_rational_witness((Fraction(1, 2), 0, Fraction(1, 2)), fq, 1)
        for p in range(3, 51):
            if not is_probable_prime(p) or p in rec["bad_primes"]:
                continue
            assert padic_solutions_exist(fq, 1, p, 4).verdict == "yes"
