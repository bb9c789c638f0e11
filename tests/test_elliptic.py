import itertools
import random
from math import gcd, isqrt, prod

import pytest

from obstruction_lab import elliptic
from obstruction_lab.elliptic import (INFINITY, CurvePoint, SingularCurveError,
                                      WeierstrassCurve, add_points,
                                      point_order, to_weierstrass,
                                      torsion_subgroup)

# the first primes above 2^40 and 2^41
P40, P41 = 1099511627791, 2199023255579


@pytest.fixture(scope="module")
def cubic_curve():
    return to_weierstrass(64, 64, 8, -7)


def with_roots(r, s, t):
    """(b, c, d) of (u - r)(u - s)(u - t)."""
    return -(r + s + t), r * s + r * t + s * t, -r * s * t


def times_quadratic(r, s, t):
    """(b, c, d) of (u - r)(u^2 + s u + t)."""
    return s - r, t - r * s, -r * t


class TestReduction:
    def test_bundled_cubic(self, cubic_curve):
        assert (cubic_curve.b, cubic_curve.c, cubic_curve.d) == (64, 512, -28672)
        assert cubic_curve.scale == 64

    def test_singular_rejected(self):
        with pytest.raises(SingularCurveError):
            to_weierstrass(1, 0, 0, 0)

    def test_simple(self):
        E = to_weierstrass(1, 0, -1, 0)
        assert (E.b, E.c, E.d) == (0, -1, 0)


class TestDiscriminant:
    def test_congruent_number_curve(self):
        assert WeierstrassCurve(0, -1, 0).discriminant() == 4

    def test_singular_zero(self):
        with pytest.raises(SingularCurveError):
            WeierstrassCurve(0, 0, 0)  # v^2 = u^3 has discriminant 0

    def test_cubic_curve_disc(self, cubic_curve):
        assert cubic_curve.discriminant() == -(2 ** 24) * 3 * 13 ** 2


class TestGroupLaw:
    def test_identity(self, cubic_curve):
        P = CurvePoint.affine(16, 0)
        assert add_points(cubic_curve, P, INFINITY) == P
        assert add_points(cubic_curve, INFINITY, P) == P

    def test_inverse(self):
        E = WeierstrassCurve(0, 0, 1)
        P = CurvePoint.affine(2, 3)
        assert add_points(E, P, CurvePoint.affine(2, -3)).infinity

    def test_tangent_doubling(self):
        E = WeierstrassCurve(0, 0, 1)
        assert add_points(E, CurvePoint.affine(2, 3), CurvePoint.affine(2, 3)) \
            == CurvePoint.affine(0, 1)

    def test_off_curve_rejected(self):
        E = WeierstrassCurve(0, 0, 1)
        with pytest.raises(ValueError):
            add_points(E, CurvePoint.affine(1, 1), INFINITY)

    def test_associativity_on_torsion(self):
        for E in (WeierstrassCurve(0, -1, 0), WeierstrassCurve(0, 0, 1),
                  to_weierstrass(64, 64, 8, -7)):
            pts = list(torsion_subgroup(E).points) + [INFINITY]
            for P, Q, R in itertools.product(pts, repeat=3):
                lhs = add_points(E, add_points(E, P, Q), R)
                rhs = add_points(E, P, add_points(E, Q, R))
                assert lhs == rhs


class TestTorsion:
    def test_cubic_curve(self, cubic_curve):
        group = torsion_subgroup(cubic_curve)
        assert group.structure == "Z/2"
        assert group.points == (CurvePoint.affine(16, 0),)

    def test_full_two_torsion(self):
        group = torsion_subgroup(WeierstrassCurve(0, -1, 0))
        assert group.structure == "Z/2 x Z/2"
        assert {(P.u, P.v) for P in group.points} == {(0, 0), (1, 0), (-1, 0)}

    def test_z6(self):
        group = torsion_subgroup(WeierstrassCurve(0, 0, 1))
        assert group.structure == "Z/6"
        assert (group.generators[0].u, group.generators[0].v) in {(2, 3), (2, -3)}

    def test_candidate_of_infinite_order_rejected(self):
        # (-2, 3) is an integral point of v^2 = u^3 + 17 with v^2 | disc,
        # so a Nagell-Lutz candidate, but of infinite order
        E = WeierstrassCurve(0, 0, 17)
        P = CurvePoint.affine(-2, 3)
        assert E.contains(P) and E.discriminant() % 9 == 0
        assert point_order(E, P) is None
        group = torsion_subgroup(E)
        assert group.structure == "Z/1" and group.points == ()

    def test_orders_divide_twelve(self, cubic_curve):
        for E in (WeierstrassCurve(0, -1, 0), WeierstrassCurve(0, 0, 1),
                  cubic_curve):
            for P in torsion_subgroup(E).points:
                n = point_order(E, P)
                assert n is not None and 12 % n == 0
                acc = INFINITY
                for _ in range(n):
                    acc = add_points(E, acc, P)
                assert acc.infinity

    def test_two_torsion_without_factoring(self, monkeypatch):
        # (u - 1)(u^2 + s u + p q), p q the product of P40 and P41: the
        # point counts bound the group by 2, so only the integer roots of
        # the cubic are needed, and no number is factored, not even the
        # constant term
        def no_factor(n):
            raise AssertionError("factored %d" % n)

        monkeypatch.setattr(elliptic, "factor", no_factor)
        for s in range(1, 10):
            E = WeierstrassCurve(*times_quadratic(1, s, P40 * P41))
            assert elliptic._torsion_bound(E) == 2
            group = torsion_subgroup(E)
            assert group.structure == "Z/2"
            assert group.points == group.generators == \
                (CurvePoint.affine(1, 0),)

    def test_point_transport(self, cubic_curve, fc):
        # (16, 0) pulls back along u = 64 x / z, v = 64 y / z to (1 : 0 : 4),
        # which lies on the plane cubic divisor
        s = cubic_curve.scale
        x, y, z = 1, 0, 4
        assert CurvePoint.affine(s * x, s * y) == \
            CurvePoint.affine(16 * z, 0 * z)
        assert fc.evaluate_int((x, y, z)) == 0


def reference_order(E, P):
    """The order of P if at most 12: twelve checked additions, no pruning."""
    acc = P
    for n in range(1, 13):
        if acc.infinity:
            return n
        acc = add_points(E, acc, P)
    return None


def reference_divisors(n):
    """The positive divisors of n != 0, by trial division by 2 and the odd
    numbers up to the square root of what is left."""
    n, divs, p = abs(n), [1], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        divs = [t * p ** i for t in divs for i in range(e + 1)]
        p += 1 if p == 2 else 2
    if n > 1:
        divs += [t * n for t in divs]
    return divs


def reference_integer_roots(b, c, d):
    """Sorted integer roots of u^3 + b u^2 + c u + d: 0 for each vanishing
    lowest coefficient, then every divisor of the lowest nonzero one, with
    either sign, tried by Horner."""
    coeffs, roots = [1, b, c, d], set()
    while coeffs[-1] == 0:
        roots.add(0)
        coeffs.pop()
    if len(coeffs) > 1:
        for t in reference_divisors(coeffs[-1]):
            for r in (t, -t):
                acc = 0
                for k in coeffs:
                    acc = acc * r + k
                if acc == 0:
                    roots.add(r)
    return sorted(roots)


def reference_torsion(E):
    """Nagell-Lutz by brute force: every divisor of the discriminant is
    tested for a square, every candidate walked by `reference_order`."""
    vs = [0] + [isqrt(t) for t in reference_divisors(E.discriminant())
                if isqrt(t) ** 2 == t]
    orders = {}
    for v in vs:
        for u in reference_integer_roots(E.b, E.c, E.d - v * v):
            for sv in {v, -v}:
                P = CurvePoint.affine(u, sv)
                n = reference_order(E, P)
                if n is not None:
                    orders[P] = n
    finite = tuple(sorted(orders, key=lambda P: (P.u, P.v)))
    by_order = sorted(orders, key=lambda P: (orders[P], P.u, P.v))
    two = [P for P in finite if P.v == 0]
    if len(two) == 3:
        g1 = by_order[-1]
        multiples = {INFINITY}
        acc = g1
        while not acc.infinity:
            multiples.add(acc)
            acc = add_points(E, acc, g1)
        gens = (g1,) + tuple(P for P in by_order
                             if P.v == 0 and P not in multiples)[:1]
        structure = "Z/2 x Z/%d" % ((len(finite) + 1) // 2)
    else:
        gens = tuple(by_order[-1:])
        structure = "Z/%d" % (len(finite) + 1)
    return structure, len(finite) + 1, finite, gens


def cubic_family():
    """Each nonsingular y^2 z = (4x - z)(16x^2 + bxz + cz^2), |b|, |c| <= 6;
    u = 64 x / z sends its point (1 : 0 : 4) to the 2-torsion point u = 16."""
    for b in range(-6, 7):
        for c in range(-6, 7):
            try:
                yield to_weierstrass(64, 4 * b - 16, 4 * c - b, -c)
            except SingularCurveError:
                pass


def query_curves(count, seed):
    """Seeded curves of the benchmark's torsion queries: c3 in +-1..+-10,
    c2, c1, c0 in [-50, 50]."""
    rng = random.Random(seed)
    leads = [i for i in range(-10, 11) if i]
    curves = []
    while len(curves) < count:
        coeffs = (rng.choice(leads),) + tuple(rng.randint(-50, 50)
                                              for _ in range(3))
        try:
            curves.append(to_weierstrass(*coeffs))
        except SingularCurveError:
            pass
    return curves


class TestTorsionAgainstReference:
    def test_cubic_family(self):
        curves = list(cubic_family())
        assert len(curves) > 150
        structures = set()
        for E in curves:
            group = torsion_subgroup(E)
            structures.add(group.structure)
            assert CurvePoint.affine(16, 0) in group.points
            assert (group.structure, group.order, group.points,
                    group.generators) == reference_torsion(E), E
        assert {"Z/4", "Z/6", "Z/2 x Z/4"} <= structures

    def test_query_domain(self):
        nontrivial = 0
        for E in query_curves(2000, seed=20):
            group = torsion_subgroup(E)
            assert (group.structure, group.order, group.points,
                    group.generators) == reference_torsion(E), E
            nontrivial += group.order > 1
        assert nontrivial > 50

    def test_full_two_torsion_generators(self):
        # u(u - r)(u - s): the second generator is the point of order 2
        # with the least u, never a multiple of the first
        roots = [(r, s) for s in range(2, 31) for r in range(1, s)]
        roots += [(27, 32), (128, 135), (125, 189), (175, 256)]
        structures = set()
        for r, s in roots:
            E = WeierstrassCurve(-r - s, r * s, 0)
            group = torsion_subgroup(E)
            structures.add(group.structure)
            assert (group.structure, group.order, group.points,
                    group.generators) == reference_torsion(E), E
        assert structures == {"Z/2 x Z/2", "Z/2 x Z/4", "Z/2 x Z/6",
                              "Z/2 x Z/8"}

    def test_non_torsion_candidate_stops_early(self, monkeypatch):
        # (-2, 3) on v^2 = u^3 + 17 is integral with v^2 | disc but of
        # infinite order: 2P = (8, -23) is integral, 3P = (19/25, 522/125)
        # is not, so the walk stops after two steps instead of twelve
        steps = []
        step = elliptic._chord_tangent
        monkeypatch.setattr(elliptic, "_chord_tangent",
                            lambda E, P, Q: steps.append(P) or step(E, P, Q))
        E = WeierstrassCurve(0, 0, 17)
        assert point_order(E, CurvePoint.affine(-2, 3)) is None
        assert len(steps) == 2
        assert reference_order(E, CurvePoint.affine(-2, 3)) is None

    def test_point_order_rejects_off_curve(self):
        with pytest.raises(ValueError):
            point_order(WeierstrassCurve(0, 0, 1), CurvePoint.affine(1, 1))


class TestIntegerRoots:
    def test_against_divisor_search(self):
        rng = random.Random(23)

        def irreducible(size):
            while True:
                s, t = rng.randint(-size, size), rng.randint(-size, size)
                disc = s * s - 4 * t
                if disc < 0 or isqrt(disc) ** 2 != disc:
                    return s, t

        def near_1e30():
            # +-2^a 3^b, about 2^100: smooth, so the divisor search can
            # list the divisors of the constant term
            a = rng.randint(0, 99)
            return rng.choice((1, -1)) * 2 ** a * 3 ** ((100 - a) * 63 // 100)

        # three roots in [-12, 12], double, triple and 0 among them
        cubics = [with_roots(*roots) for roots in
                  itertools.combinations_with_replacement(range(-12, 13), 3)]
        cubics += [times_quadratic(rng.randint(-1000, 1000),
                                   *irreducible(1000)) for _ in range(500)]
        cubics += [tuple(rng.randint(-10 ** 6, 10 ** 6) for _ in range(3))
                   for _ in range(2000)]
        for _ in range(10):
            r = near_1e30()
            cubics += [with_roots(r, near_1e30(), near_1e30()),
                       with_roots(r, r, rng.randint(-9, 9)),
                       with_roots(r, r, r),
                       times_quadratic(r, *irreducible(100))]
        found = 0
        for b, c, d in cubics:
            roots = elliptic._integer_roots(b, c, d)
            assert roots == reference_integer_roots(b, c, d), (b, c, d)
            found += bool(roots)
        assert found > 3400


def brute_point_count(E, p):
    """#E(F_p): the point at infinity and every (u, v) in F_p^2 on E."""
    rhs = [((u + E.b) * u + E.c) * u + E.d for u in range(p)]
    return 1 + sum((v * v - g) % p == 0 for g in rhs for v in range(p))


ODD_PRIMES_TO_97 = [p for p in range(3, 98, 2)
                    if all(p % q for q in range(3, p, 2))]


def full_two_torsion_curves():
    roots = [(r, s) for s in range(2, 31) for r in range(1, s)]
    roots += [(27, 32), (128, 135), (125, 189), (175, 256)]
    return [WeierstrassCurve(-r - s, r * s, 0) for r, s in roots]


@pytest.fixture()
def counted(monkeypatch):
    """The (p, #E(F_p)) of every point count, in order."""
    seen = []
    count = elliptic._point_count

    def spy(E, p):
        seen.append((p, count(E, p)))
        return seen[-1][1]

    monkeypatch.setattr(elliptic, "_point_count", spy)
    return seen


class TestTorsionBound:
    def test_counts_match_brute_force(self, counted):
        curves = query_curves(8, seed=3) + [to_weierstrass(64, 64, 8, -7),
                                            WeierstrassCurve(0, 0, 1)]
        for E in curves:
            disc = E.discriminant()
            good = [p for p in ODD_PRIMES_TO_97 if disc % p]
            for p in good:
                assert elliptic._point_count(E, p) == brute_point_count(E, p)
            # the bound is the gcd over the first good primes, stopping
            # after eight of them or at 1
            counted.clear()
            bound = elliptic._torsion_bound(E)
            primes = [p for p, _ in counted]
            assert primes == good[:len(primes)]
            assert bound == gcd(*(n for _, n in counted))
            assert len(primes) == 8 or bound == 1

    def test_order_divides_bound(self):
        curves = (query_curves(2000, seed=21) + list(cubic_family())
                  + full_two_torsion_curves())
        for E in curves:
            bound = elliptic._torsion_bound(E)
            assert bound and bound % reference_torsion(E)[1] == 0, E

    def test_factors_only_the_discriminant(self, monkeypatch):
        factored = []
        factor = elliptic.factor
        monkeypatch.setattr(elliptic, "factor",
                            lambda n: factored.append(n) or factor(n))
        for E in list(cubic_family()) + full_two_torsion_curves():
            factored.clear()
            bound = elliptic._torsion_bound(E)
            torsion_subgroup(E)
            assert factored == ([] if bound in (1, 2)
                                else [E.discriminant()]), E

    def test_bad_primes_skipped(self, counted):
        # u(u - 231)(u - 400) has disc (231 * 400 * 169)^2, divisible by
        # 3, 5, 7, 11 and 13, and the group Z/2 x Z/4
        E = WeierstrassCurve(-631, 231 * 400, 0)
        assert E.discriminant() % (3 * 5 * 7 * 11 * 13) == 0
        group = torsion_subgroup(E)
        assert [p for p, _ in counted] == [17, 19, 23, 29, 31, 37, 41, 43]
        assert group.structure == "Z/2 x Z/4"
        assert (group.structure, group.order, group.points,
                group.generators) == reference_torsion(E)

    def test_no_good_prime_enumerates(self):
        # v^2 = u^3 + (a u + 4)^2 with a = 3 + 16 M, M the product of the
        # odd primes up to 97, has disc 4^3 (4 a^3 - 27 * 4), which is
        # 4096 M (a^2 + 3 a + 9): every listed prime is bad, so there is no
        # bound and every candidate is enumerated
        M = prod(ODD_PRIMES_TO_97)
        a = 3 + 16 * M
        E = WeierstrassCurve(a * a, 8 * a, 16)
        assert E.discriminant() == 4096 * M * (a * a + 3 * a + 9)
        assert elliptic._torsion_bound(E) == 0
        # The reference group is Z/3: the line v = a u + 4 meets E only at
        # (0, 4), so that point has order 3, and the good primes from 101
        # to 199 bound the order by 3
        good = [p for p in range(101, 200, 2)
                if all(p % q for q in range(3, p, 2))
                and E.discriminant() % p]
        assert gcd(*(brute_point_count(E, p) for p in good)) == 3
        P, Q = CurvePoint.affine(0, -4), CurvePoint.affine(0, 4)
        assert reference_order(E, P) == reference_order(E, Q) == 3
        group = torsion_subgroup(E)
        assert (group.structure, group.order, group.points,
                group.generators) == ("Z/3", 3, (P, Q), (Q,))
