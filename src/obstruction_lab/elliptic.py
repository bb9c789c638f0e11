"""Minimal elliptic-curve toolkit over Q for torsion verification.

Supports curves v^2 = u^3 + b u^2 + c u + d with integer coefficients:
reduction of a plane cubic y^2 z = c3 x^3 + c2 x^2 z + c1 x z^2 + c0 z^3 to
this shape, exact chord-tangent group law, and Nagell-Lutz torsion
enumeration (orders bounded by 12, after Mazur), bounded first by point
counts modulo small primes of good reduction.  Integer roots of a cubic are
isolated exactly, with no factorization; only the discriminant is factored,
and only when the point counts leave a point of order 3 or more possible.
"""

from collections import namedtuple
from fractions import Fraction
from math import gcd, isqrt

from .exactarith import factor, primes_up_to

MAX_TORSION_ORDER = 12

# Odd primes whose point counts bound the torsion order, and how many good
# ones `_torsion_bound` counts at most.  On 3,000 seeded curves with c3 in
# +-1..+-10 and c2, c1, c0 in [-50, 50], eight good primes prove 2,807 of
# the 2,858 trivial groups trivial; six to twelve cost the same per curve
# within noise.  Counting through a table of square roots per prime was
# about 10% faster than Euler's criterion.
_BOUND_PRIMES = primes_up_to(97)[1:]
_BOUND_GOOD_PRIMES = 8


def _sqrt_counts(p):
    """The table whose entry r is the number of v mod p with v^2 = r."""
    counts = bytearray(p)
    for v in range(p):
        counts[v * v % p] += 1
    return bytes(counts)


_SQRT_COUNTS = {p: _sqrt_counts(p) for p in _BOUND_PRIMES}


class SingularCurveError(ValueError):
    pass


class WeierstrassCurve(namedtuple("WeierstrassCurve", "b c d scale",
                                  defaults=(1,))):
    """v^2 = u^3 + b u^2 + c u + d with nonzero discriminant; when built
    from a plane cubic, u = scale * x / z and v = scale * y / z."""
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.discriminant() == 0:
            raise SingularCurveError("singular cubic: discriminant is zero")
        return self

    def _replace(self, **changes):
        # namedtuple's own _replace would skip the checks of __new__
        return type(self)(**dict(zip(self._fields, self), **changes))

    def discriminant(self):
        b, c, d = self.b, self.c, self.d
        return (18 * b * c * d - 4 * b ** 3 * d + b * b * c * c
                - 4 * c ** 3 - 27 * d * d)

    def contains(self, pt):
        if pt.infinity:
            return True
        u = Fraction(pt.u)
        return Fraction(pt.v) ** 2 == ((u + self.b) * u + self.c) * u + self.d


class CurvePoint(namedtuple("CurvePoint", "u v infinity",
                            defaults=(None, None, False))):
    """An affine point (u, v) of Fractions, or the point at infinity."""
    __slots__ = ()

    @classmethod
    def affine(cls, u, v):
        return cls(Fraction(u), Fraction(v))


INFINITY = CurvePoint(infinity=True)


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
    return _chord_tangent(curve, P, Q)


def _chord_tangent(curve, P, Q):
    """P + Q for points already known to lie on the curve."""
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


def point_order(curve, P):
    """Order of P if it is at most MAX_TORSION_ORDER, else None.

    On a curve with integer b, c, d every point of finite order is integral
    (Nagell-Lutz; Silverman & Tate, Rational Points on Elliptic Curves,
    ch. II), and so are its multiples.  So the walk over the multiples of P
    stops at the first one with a non-integral coordinate: P then has
    infinite order.
    """
    if not curve.contains(P):
        raise ValueError("point not on curve: %r" % (P,))
    acc = P
    for n in range(1, MAX_TORSION_ORDER + 1):
        if acc.infinity:
            return n
        if acc.u.denominator != 1 or acc.v.denominator != 1:
            return None
        acc = _chord_tangent(curve, acc, P)
    return None


def _integer_roots(b, c, d):
    """Integer roots of g(u) = u^3 + b u^2 + c u + d, without factoring.

    Every root lies in [-R, R], R = 1 + max(|b|, |c|, |d|) (Cauchy).  When
    b^2 > 3c, g' vanishes at (-b - r) / 3 < (-b + r) / 3, r = sqrt(b^2 - 3c),
    and with s = isqrt(b^2 - 3c) the integers up to (-b - s - 1) // 3 lie
    before the first, the next ones up to (-b + s) // 3 between the two,
    and the rest after the second.  So g is strictly monotone on the
    integers of each of these runs (of the one run [-R, R] when
    b^2 <= 3c): one bisection finds the first u of a run at which g reaches
    or crosses 0, and g(u) == 0 decides whether the run holds a root.
    """
    def g(u):
        return ((u + b) * u + c) * u + d

    bound = 1 + max(abs(b), abs(c), abs(d))
    ends = [bound]
    if b * b > 3 * c:
        s = isqrt(b * b - 3 * c)
        ends = [(-b - s - 1) // 3, (-b + s) // 3, bound]
    roots = []
    lo, sign = -bound, 1
    for hi in ends:
        # the first u in [lo, hi] with sign * g(u) >= 0, or hi + 1
        top = hi + 1
        while lo < top:
            mid = (lo + top) // 2
            if sign * g(mid) >= 0:
                top = mid
            else:
                lo = mid + 1
        if lo <= hi and g(lo) == 0:
            roots.append(lo)
        lo, sign = hi + 1, -sign
    return roots


def _point_count(curve, p):
    """#E(F_p) of the reduction mod an odd prime p that does not divide the
    discriminant: the point at infinity and, for each u mod p, the square
    roots of u^3 + b u^2 + c u + d."""
    b, c, d = curve.b % p, curve.c % p, curve.d % p
    roots = _SQRT_COUNTS[p]
    return 1 + sum([roots[(((u + b) * u + c) * u + d) % p]
                    for u in range(p)])


def _torsion_bound(curve):
    """A multiple N of the torsion order, or 0 when there is no bound.

    For an odd prime p of good reduction the torsion subgroup injects into
    E(F_p) (Silverman, The Arithmetic of Elliptic Curves, section VII.3),
    so its order divides the gcd of the counts #E(F_p) over the odd primes
    p <= 97 not dividing the discriminant (the curve's is 16 times the
    cubic's, so for odd p either will do).  The walk stops after
    `_BOUND_GOOD_PRIMES` good primes, or once the gcd is 1.
    """
    disc = curve.discriminant()
    bound = good = 0
    for p in _BOUND_PRIMES:
        if disc % p:
            bound = gcd(bound, _point_count(curve, p))
            good += 1
            if bound == 1 or good == _BOUND_GOOD_PRIMES:
                break
    return bound


class TorsionGroup(namedtuple("TorsionGroup",
                              "structure order points generators")):
    """Isomorphism type (e.g. "Z/1", "Z/6", "Z/2 x Z/2"), order, the sorted
    finite torsion points and the generators."""
    __slots__ = ()


def torsion_subgroup(curve):
    """Nagell-Lutz enumeration of the rational torsion subgroup.

    Candidates are integral points with v = 0 or v^2 | disc, the v > 0 built
    from the factorization of disc with its exponents halved, and their u
    the integer roots of u^3 + b u^2 + c u + d - v^2 (`_integer_roots`);
    each candidate is kept only if its order is at most 12.  The group
    structure follows from the order and the number of 2-torsion points.

    The bound N of `_torsion_bound` goes first: N = 1 proves the group
    trivial, and N = 2 leaves no point of order 3 or more, so no candidate
    with v != 0.  So disc is factored only when N = 0 or N >= 3.
    """
    bound = _torsion_bound(curve)
    if bound == 1:
        return TorsionGroup("Z/1", 1, (), ())
    candidate_vs = [0]
    if bound != 2:
        halves = [1]
        for p, e in factor(curve.discriminant()).items():
            halves = [v * p ** i for v in halves for i in range(e // 2 + 1)]
        candidate_vs += sorted(halves)
    orders = {}
    for v in candidate_vs:
        for u in _integer_roots(curve.b, curve.c, curve.d - v * v):
            for sv in ((0,) if v == 0 else (v, -v)):
                P = CurvePoint.affine(u, sv)
                n = point_order(curve, P)
                if n is not None:
                    orders[P] = n
    finite = sorted(orders, key=lambda P: (P.u, P.v))
    order = len(finite) + 1
    two_torsion = sum(1 for P in finite if P.v == 0)
    if two_torsion >= 3:
        structure = "Z/2 x Z/%d" % (order // 2)
    else:
        structure = "Z/%d" % order
    generators = _generators(orders, structure)
    return TorsionGroup(structure, order, tuple(finite), tuple(generators))


def _generators(orders, structure):
    """Generators from the finite torsion points and their orders: the
    point g1 of largest u among those of maximal order 2n, and for
    Z/2 x Z/2n also the point of order 2 with the least u.

    That point lies outside <g1>.  With roots e1 < e2 < e3 of the cubic, the
    real points form the branch u >= e3, a subgroup that holds every point
    of odd order and only (e3, 0) of order 2, and the oval u <= e2.  The one
    point of order 2 in <g1>, n g1, lies on the branch: for even n because
    it is a multiple of 2 g1 (the branch has index 2), and for odd n
    because g1 does ((e3, 0) plus a point of order n has order 2n and a
    larger u than the oval).  So it is (e3, 0).
    """
    if not orders:
        return []
    by_order = sorted(orders, key=lambda P: (orders[P], P.u, P.v))
    g1 = by_order[-1]
    if structure.startswith("Z/2 x"):
        return [g1, by_order[0]]
    return [g1]
