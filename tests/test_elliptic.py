import itertools

import pytest

from obstruction_lab.elliptic import (INFINITY, CurvePoint, SingularCurveError,
                                      WeierstrassCurve, add_points, negate,
                                      point_order, to_weierstrass,
                                      torsion_subgroup)


@pytest.fixture(scope="module")
def cubic_curve():
    return to_weierstrass(64, 64, 8, -7)


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
        assert add_points(E, P, negate(P)).infinity

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

    def test_point_transport(self, cubic_curve, fc):
        # (16, 0) pulls back along u = 64 x / z, v = 64 y / z to (1 : 0 : 4),
        # which lies on the plane cubic divisor
        s = cubic_curve.scale
        x, y, z = 1, 0, 4
        assert CurvePoint.affine(s * x, s * y) == \
            CurvePoint.affine(16 * z, 0 * z)
        assert fc.evaluate_int((x, y, z)) == 0
