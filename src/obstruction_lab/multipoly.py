"""Exact multivariate polynomials in x, y, z with integer coefficients.

Polynomials are immutable; terms are kept in graded-lex order (x > y > z),
with no zero coefficients and no duplicate exponent triples.  All arithmetic
is exact; identity verification is by full expansion, never by sampling.
"""

from __future__ import annotations

from dataclasses import dataclass


def _grlex_key(exps):
    ex, ey, ez = exps
    return (-(ex + ey + ez), -ex, -ey, -ez)


class MultiPoly:
    """Integer-coefficient polynomial in three variables."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        # terms: iterable of (coeff, (ex, ey, ez)); combined and canonicalized.
        acc = {}
        for coeff, exps in terms:
            exps = tuple(int(e) for e in exps)
            if len(exps) != 3 or any(e < 0 for e in exps):
                raise ValueError("bad exponent triple %r" % (exps,))
            acc[exps] = acc.get(exps, 0) + int(coeff)
        object.__setattr__(self, "terms", tuple(
            (c, e) for e, c in sorted(acc.items(), key=lambda kv: _grlex_key(kv[0]))
            if c != 0))

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def from_term_list(cls, quads):
        """Build from a list of [coeff, ex, ey, ez] quadruples."""
        return cls((q[0], (q[1], q[2], q[3])) for q in quads)

    def to_term_list(self):
        return [[c, *e] for c, e in self.terms]

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, MultiPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __add__(self, other):
        return MultiPoly(self.terms + other.terms)

    def __neg__(self):
        return MultiPoly((-c, e) for c, e in self.terms)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return MultiPoly((c * other, e) for c, e in self.terms)
        out = []
        for c1, (a1, b1, d1) in self.terms:
            for c2, (a2, b2, d2) in other.terms:
                out.append((c1 * c2, (a1 + a2, b1 + b2, d1 + d2)))
        return MultiPoly(out)

    __rmul__ = __mul__

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        parts = []
        for c, (ex, ey, ez) in self.terms:
            mono = "".join(v + (("^%d" % e) if e > 1 else "")
                           for v, e in (("x", ex), ("y", ey), ("z", ez)) if e)
            parts.append(("%+d" % c) + (("*" + mono) if mono else ""))
        return "MultiPoly(%s)" % " ".join(parts)

    def evaluate_int(self, at):
        """Exact value at a triple of ints or Fractions: an int at an
        integer triple, in plain int arithmetic."""
        x, y, z = at
        total = 0
        for c, (ex, ey, ez) in self.terms:
            total += c * x ** ex * y ** ey * z ** ez
        return total

    def evaluate_mod(self, at, m):
        """Value at an integer triple reduced into [0, m)."""
        if m < 2:
            raise ValueError("modulus must be >= 2")
        x, y, z = (c % m for c in at)
        total = 0
        for c, (ex, ey, ez) in self.terms:
            total = (total + c * pow(x, ex, m) * pow(y, ey, m) * pow(z, ez, m)) % m
        return total

    def homogeneous_degree(self):
        """Common total degree of all terms, or None if inhomogeneous or zero."""
        degs = {ex + ey + ez for _, (ex, ey, ez) in self.terms}
        if len(degs) != 1:
            return None
        return degs.pop()

    def partial(self, var):
        """Partial derivative with respect to variable index 0, 1, or 2."""
        out = []
        for c, exps in self.terms:
            e = exps[var]
            if e:
                new = list(exps)
                new[var] = e - 1
                out.append((c * e, tuple(new)))
        return MultiPoly(out)


def variable(i):
    e = [0, 0, 0]
    e[i] = 1
    return MultiPoly([(1, tuple(e))])


@dataclass(frozen=True)
class IdentityClaim:
    """Claim that sum of scalar * (product of factors) is the zero polynomial."""
    summands: tuple  # of (scalar: int, factors: tuple of MultiPoly)


def verify_identity(claim):
    """Check an IdentityClaim by exact expansion and term-wise cancellation."""
    total = MultiPoly()
    for scalar, factors in claim.summands:
        prod = MultiPoly([(1, (0, 0, 0))])
        for f in factors:
            prod = prod * f
        total = total + scalar * prod
    return total.is_zero()
