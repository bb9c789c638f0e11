"""Minimal elliptic-curve toolkit over Q for torsion verification.

Supports curves v^2 = u^3 + b u^2 + c u + d with integer coefficients:
reduction of a plane cubic y^2 z = c3 x^3 + c2 x^2 z + c1 x z^2 + c0 z^3 to
this shape, exact chord-tangent group law, and Nagell-Lutz torsion
enumeration (orders bounded by 12, after Mazur).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .exactarith import divisors

MAX_TORSION_ORDER = 12


class SingularCurveError(ValueError):
    pass


@dataclass(frozen=True)
class WeierstrassCurve:
    """v^2 = u^3 + b u^2 + c u + d with nonzero discriminant."""
    b: int
    c: int
    d: int
    # u = scale * x / z, v = scale * y / z when built from a plane cubic
    scale: int = 1

    def __post_init__(self):
        if self.discriminant() == 0:
            raise SingularCurveError("singular cubic: discriminant is zero")

    def discriminant(self):
        b, c, d = self.b, self.c, self.d
        return (18 * b * c * d - 4 * b ** 3 * d + b * b * c * c
                - 4 * c ** 3 - 27 * d * d)

    def rhs(self, u):
        u = Fraction(u)
        return u ** 3 + self.b * u ** 2 + self.c * u + self.d

    def contains(self, pt):
        if pt.infinity:
            return True
        return Fraction(pt.v) ** 2 == self.rhs(pt.u)


@dataclass(frozen=True)
class CurvePoint:
    u: Fraction | None = None
    v: Fraction | None = None
    infinity: bool = False

    @classmethod
    def at_infinity(cls):
        return cls(infinity=True)

    @classmethod
    def affine(cls, u, v):
        return cls(Fraction(u), Fraction(v))


INFINITY = CurvePoint.at_infinity()


def to_weierstrass(c3, c2, c1, c0):
    """Reduce y^2 z = c3 x^3 + c2 x^2 z + c1 x z^2 + c0 z^3 to Weierstrass
    shape via u = c3 x / z, v = c3 y / z."""
    if c3 == 0:
        raise ValueError("leading coefficient must be nonzero")
    return WeierstrassCurve(c2, c1 * c3, c0 * c3 * c3, scale=c3)


def add_points(curve, P, Q):
    """Chord-tangent addition, exact over Q."""
    for pt in (P, Q):
        if not curve.contains(pt):
            raise ValueError("point not on curve: %r" % (pt,))
    if P.infinity:
        return Q
    if Q.infinity:
        return P
    if P.u == Q.u:
        if P.v == -Q.v:
            return INFINITY
        # tangent line (P == Q and v != 0 here)
        slope = (3 * P.u ** 2 + 2 * curve.b * P.u + curve.c) / (2 * P.v)
    else:
        slope = (Q.v - P.v) / (Q.u - P.u)
    u3 = slope ** 2 - curve.b - P.u - Q.u
    v3 = slope * (P.u - u3) - P.v
    return CurvePoint.affine(u3, v3)


def negate(P):
    if P.infinity:
        return P
    return CurvePoint.affine(P.u, -P.v)


def point_order(curve, P, bound=MAX_TORSION_ORDER):
    """Order of P if it is at most `bound`, else None."""
    acc = P
    for n in range(1, bound + 1):
        if acc.infinity:
            return n
        acc = add_points(curve, acc, P)
    return None


def _integer_roots(b, c, d):
    """Integer roots of u^3 + b u^2 + c u + d."""
    roots = []
    if d == 0:
        roots.append(0)
        # deflate: u^2 + b u + c
        for r in _quadratic_integer_roots(1, b, c):
            roots.append(r)
        return sorted(set(roots))
    for t in divisors(d):
        for r in (t, -t):
            if ((r + b) * r + c) * r + d == 0:
                roots.append(r)
    return sorted(set(roots))


def _quadratic_integer_roots(a, b, c):
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    s = isqrt(disc)
    if s * s != disc:
        return []
    out = []
    for num in (-b + s, -b - s):
        if num % (2 * a) == 0:
            out.append(num // (2 * a))
    return out


@dataclass(frozen=True)
class TorsionGroup:
    """Isomorphism type and the full list of finite torsion points."""
    structure: str  # e.g. "Z/1", "Z/2", "Z/6", "Z/2 x Z/2"
    order: int
    points: tuple  # finite CurvePoints, sorted
    generators: tuple


def torsion_subgroup(curve):
    """Nagell-Lutz enumeration of the rational torsion subgroup.

    Candidates are integral points with v = 0 or v^2 | disc; each candidate is
    kept only if its order is at most 12.  The group structure follows from
    the order and the number of 2-torsion points.
    """
    disc = curve.discriminant()
    candidate_vs = [0]
    for t in divisors(disc):
        s = isqrt(t)
        if s * s == t:  # t = v^2 divides disc
            candidate_vs.append(s)
    points = set()
    for v in sorted(set(candidate_vs)):
        for u in _integer_roots(curve.b, curve.c, curve.d - v * v):
            for sv in ({0} if v == 0 else {v, -v}):
                P = CurvePoint.affine(u, sv)
                if point_order(curve, P) is not None:
                    points.add(P)
    finite = sorted(points, key=lambda P: (P.u, P.v))
    order = len(finite) + 1
    two_torsion = sum(1 for P in finite if P.v == 0)
    if two_torsion >= 3:
        structure = "Z/2 x Z/%d" % (order // 2)
    else:
        structure = "Z/%d" % order
    generators = _generators(curve, finite, order, structure)
    return TorsionGroup(structure, order, tuple(finite), tuple(generators))


def _generators(curve, finite, order, structure):
    if order == 1:
        return []
    by_order = sorted(finite, key=lambda P: (point_order(curve, P), P.u, P.v))
    if structure.startswith("Z/2 x"):
        g1 = by_order[-1]  # maximal order
        for P in by_order:
            if P.v == 0 and P != g1:
                g2 = P
                # ensure independence: g2 not a multiple of g1
                n = point_order(curve, g1)
                multiples = set()
                acc = g1
                for _ in range(n):
                    multiples.add(acc)
                    acc = add_points(curve, acc, g1)
                if g2 not in multiples:
                    return [g1, g2]
        return [g1]
    return [by_order[-1]]
