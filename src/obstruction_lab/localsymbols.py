"""Hilbert symbols over Q at every place, quaternion local invariants,
reciprocity checking, and an independent brute-force solubility oracle.

The symbol (a, b)_v is +1 exactly when z^2 = a x^2 + b y^2 has a nontrivial
solution over the completion at v.  Invariants live in (1/2)Z/Z: 0 for split,
1/2 for ramified.
"""

from collections import namedtuple
from fractions import Fraction

from .exactarith import factor, valuation


class Place(namedtuple("Place", "p")):
    """A place of Q: a finite prime or the real place, whose p is None.
    `Place(p)` trusts that p is prime, as every engine primitive does."""
    __slots__ = ()

    @property
    def is_real(self):
        return self.p is None

    @classmethod
    def real(cls):
        return cls(None)

    def __str__(self):
        return "real" if self.p is None else str(self.p)


INV_ZERO = Fraction(0)
INV_HALF = Fraction(1, 2)


def _to_square_free_pair(a, b):
    """Clear square denominators: rationals (a, b) -> integers in the same
    square classes.  Integers come back unchanged."""
    if isinstance(a, int) and isinstance(b, int):
        return a, b
    a = Fraction(a)
    b = Fraction(b)
    return a.numerator * a.denominator, b.numerator * b.denominator


def symbol_at_prime(a, b, p):
    """Hilbert symbol (a, b)_p for nonzero ints a, b and a prime p.

    Write a = p^alpha u and b = p^beta v with u, v prime to p (Serre, A
    Course in Arithmetic, III.1).  At an odd prime p,
    (a, b)_p = (-1)^(alpha beta eps(p)) (u/p)^beta (v/p)^alpha, and each
    Legendre symbol is read off Euler's criterion, since p is prime and u, v
    are prime to p.  The symbols that enter, (u/p) when beta is odd and
    (v/p) when alpha is odd, multiply to one Legendre symbol, of u v when
    both are odd, so one power mod p gives their product.
    """
    alpha = 0
    while a % p == 0:
        a //= p
        alpha += 1
    beta = 0
    while b % p == 0:
        b //= p
        beta += 1
    if p == 2:
        # eps(u) eps(v) + alpha omega(v) + beta omega(u), where for odd t
        # eps(t) = (t - 1)/2 mod 2 is 1 when t = 3 mod 4 and
        # omega(t) = (t^2 - 1)/8 mod 2 is 1 when t = 3, 5 mod 8
        odd = ((a & 3 == 3 and b & 3 == 3) + (alpha % 2 and b & 7 in (3, 5))
               + (beta % 2 and a & 7 in (3, 5)))
        return -1 if odd % 2 else 1
    if alpha % 2:
        unit = a * b if beta % 2 else b
    elif beta % 2:
        unit = a
    else:
        return 1
    half = (p - 1) // 2
    odd = alpha * beta * half + (pow(unit, half, p) != 1)
    return -1 if odd % 2 else 1


def hilbert_symbol(a, b, place):
    """Hilbert symbol (a, b) at a place of Q; a, b nonzero rationals.

    The real symbol is a sign test.  At a prime, rationals first go to
    integers of the same square classes, and `symbol_at_prime` computes the
    symbol.
    """
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol entries must be nonzero")
    p = place.p
    if p is None:
        return -1 if a < 0 and b < 0 else 1
    if type(a) is not int or type(b) is not int:
        a, b = _to_square_free_pair(a, b)
    return symbol_at_prime(a, b, p)


def local_invariant(a, b, place):
    """Invariant of the quaternion algebra (a, b) at a place: 0 or 1/2."""
    return INV_HALF if hilbert_symbol(a, b, place) == -1 else INV_ZERO


def invariant_total(invariants):
    """Sum in (1/2)Z/Z of invariants that are each 0 or 1/2: the parity of
    the number of halves decides it, with no rational addition."""
    return INV_HALF if sum(1 for iv in invariants if iv) % 2 else INV_ZERO


def place_invariants(a, b, primes):
    """The (Place, invariant) pairs of (a, b), nonzero ints, at the real
    place, at 2 and at each prime of primes, in ascending order, and their
    sum in (1/2)Z/Z."""
    places = [Place.real()] + [Place(p) for p in sorted({2, *primes})]
    invs = tuple((pl, local_invariant(a, b, pl)) for pl in places)
    return invs, invariant_total(iv for _, iv in invs)


def reciprocity_defect(a, b):
    """Sum of local invariants of (a, b) over the places where it could be
    ramified, in (1/2)Z/Z: the real place and the primes dividing 2 * num *
    den of either entry.

    Hilbert reciprocity says this is always 0; a nonzero value indicates a bug.
    """
    if a == 0 or b == 0:
        raise ValueError("entries must be nonzero")
    primes = set()
    for r in (Fraction(a), Fraction(b)):
        for n in (r.numerator, r.denominator):
            primes.update(factor(n))
    return place_invariants(*_to_square_free_pair(a, b), primes)[1]


def _newton_ok(val, derivs, p):
    """Newton criterion: v_p(val) > 2 * v_p(d) for some derivative value d."""
    fv = valuation(val, p)
    for d in derivs:
        if d and (fv is None or fv > 2 * valuation(d, p)):
            return True
    return False


def _dehomog_search(a, b, fixed, p, maxdepth):
    """Search for p-adic solutions of z^2 = a x^2 + b y^2 with one coordinate
    fixed to 1 and the other two ranging over Z_p.

    Returns True (Newton certificate found), False (all residue branches died
    at some level <= maxdepth), or None (inconclusive at maxdepth).
    """
    # F(s, t) with the `fixed` coordinate set to 1.
    if fixed == 0:
        F = lambda s, t: a + b * s * s - t * t          # (1, s, t)
        dF = lambda s, t: (2 * b * s, -2 * t)
    elif fixed == 1:
        F = lambda s, t: a * s * s + b - t * t          # (s, 1, t)
        dF = lambda s, t: (2 * a * s, -2 * t)
    else:
        F = lambda s, t: a * s * s + b * t * t - 1      # (s, t, 1)
        dF = lambda s, t: (2 * a * s, 2 * b * t)

    level = 1
    frontier = [(s, t) for s in range(p) for t in range(p)
                if F(s, t) % p == 0]
    while True:
        for s, t in frontier:
            if _newton_ok(F(s, t), dF(s, t), p):
                return True
        if not frontier:
            return False
        if level >= maxdepth:
            return None
        mod = p ** (level + 1)
        step = p ** level
        nxt = []
        for s, t in frontier:
            for ds in range(p):
                s2 = s + ds * step
                for dt in range(p):
                    t2 = t + dt * step
                    if F(s2, t2) % mod == 0:
                        nxt.append((s2, t2))
        frontier = nxt
        level += 1


def default_oracle_depth(a, b, p):
    """2 * v_p(4ab) + 6: comfortably past the Hensel threshold for ternary
    quadratic forms, including p = 2."""
    return 2 * valuation(4 * a * b, p) + 6


def solubility_oracle(a, b, place, depth=None):
    """Independent decision of whether z^2 = a x^2 + b y^2 has a nontrivial
    local solution, by exhaustive residue search with Newton certificates.

    Returns True / False, or None when `depth` was insufficient to certify.
    Never consults the Hilbert symbol formulas.
    """
    if a == 0 or b == 0:
        raise ValueError("entries must be nonzero")
    if place.is_real:
        return not (a < 0 and b < 0)
    a, b = _to_square_free_pair(a, b)
    p = place.p
    if depth is None:
        depth = default_oracle_depth(a, b, p)
    # Any nontrivial Q_p solution scales to a primitive Z_p one, and a unit
    # coordinate can be normalized to 1; three dehomogenizations cover it.
    results = [_dehomog_search(a, b, fixed, p, depth) for fixed in (0, 1, 2)]
    if any(r is True for r in results):
        return True
    if all(r is False for r in results):
        return False
    return None
