"""The obstruction engine: residue sieves, 2-adic invariant tables over
residue classes, local-invariant profiles at points, real and odd-place
scans, finite-field square-certificate sampling, bounded integer search,
and the final verdict.

All randomized steps take explicit seeds; identical inputs always produce
identical (canonically sorted) output.
"""

import random
from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, prod

from .exactarith import (FACTOR_BOUND, FactorizationError, factor,
                         is_kth_power, jacobi, poly_roots_mod, primes_up_to,
                         primitive_normalize)
from .localsymbols import (INV_HALF, INV_ZERO, Place, place_invariants,
                           symbol_at_prime)
from .multipoly import SOURCE_GLOBALS, MultiPoly, single_power_split
from .padicsolve import (lift_classes, padic_solutions_exist,
                         verify_rational_witness)

# The root seed of `obstruction_verdict`; each sampling stage derives its
# own seed from it.
DEFAULT_SEED = 20070907

# Sizes of the sampled evidence: points of the real scan, points of the
# odd-place scan and the bound on their coordinates, accepted points of
# square sampling and the window its primes are drawn from.
REAL_SAMPLES = 10000
ODD_SAMPLES = 10000
ODD_BOUND = 1000
SQUARE_TRIALS = 500
SQUARE_PRIME_WINDOW = (3, 10000)

# Draws of (x, y) per prime in square sampling before the prime is skipped.
CURVE_POINT_TRIES = 64

# Square sampling gives up (SquareSamplingError) after this many draws of
# (x, y) in a row without an accepted point; a skipped prime counts its
# CURVE_POINT_TRIES draws and a point where F vanishes counts one, so the
# count is at most the draws made.  Each draw is a fresh (x, y), so other
# components of H change its chance of a root on a given component only
# through the choice of z among all roots.  On a sparse component such as
# x^2 + y^2 = 0 (points only at p = 1 mod 4, hit by a draw with probability
# about 2/p), F = z^2 + 3xy is accepted about once per 2,200 draws, so a
# legitimate run reaches the bound with probability about e**-45.
SQUARE_FRUITLESS_DRAWS = 100000

# The largest modulus `residue_sieve` takes: it lifts its classes one prime
# factor of m at a time, one lookup per row of a class and one kernel call
# per slice of p rows (`lift_classes`).  Per target on the bundled forms
# (process CPU, best of 3, 2-vCPU Xeon, Python 3.11): at m = 256 (eight
# levels at p = 2) cubic 0.05 s, quartic 0.21 s at t = 1 and 0.45 s at
# t = -1; at m = 251 (one level of m**2 rows) 0.04-0.07 s.
SIEVE_MAX_MODULUS = 256

# The 2-adic table tries the levels below this one before it leaves a class
# undetermined.
TABLE_MAX_EXPONENT = 8

# The integer search walks a pair (u, w) only when f = target is soluble in
# the third variable modulo each of these prime powers.
SEARCH_MODULI = (16, 9, 25, 7, 11, 13, 17, 19, 23)

# The largest search bound.  The search walks up to (2B + 1)**2 pairs
# through (2B + 1)-bit masks: cubic t = -64, whose row x = 1 holds a solution
# at every (y, 0), takes 1.2 s of CPU at B = 10**4 on a Xeon core (Python
# 3.11), and 10**6 would take hours.
SEARCH_MAX_BOUND = 10000

# `verify` runs the p-adic search only at the rational witness's bad primes
# up to this one.  Its first level is p**2 rows, one lookup each.  A form
# whose row kernel solves for z or y stops at the first Newton point: a few
# rows in on quartic (z; under 0.1 ms at p = 211, 1 ms at 4001), within the
# first x-slice of p rows on cubic (y; 3 ms at p = 809, 14 ms at 4001).  A
# form that solves for x, or a level with no Newton point, walks them all.
# A larger bad prime stays uncovered.
PADIC_SEARCH_MAX_PRIME = 101


class InternalInconsistencyError(Exception):
    """The engine produced evidence that contradicts Hilbert reciprocity."""


class RamificationLocusError(ValueError):
    """An algebra entry vanishes at the queried point."""


class SquareSamplingError(Exception):
    """Square sampling found no point to test in SQUARE_FRUITLESS_DRAWS
    draws in a row."""


class QuaternionAlgebraSpec(namedtuple(
        "QuaternionAlgebraSpec", "first second first_factors second_factors",
        defaults=(None, None))):
    """Ordered pair of even-degree homogeneous polynomials defining a
    quaternion Brauer class on the complement of their zero loci.

    Each entry may also be given as a tuple of factor forms whose product
    it must equal; an entry given without factors is its own one factor.
    `forms` holds the distinct nonconstant factors of both entries, and
    the entries are evaluated through them.  Unlike the other records it
    keeps a `__dict__`, for `forms` and the values derived on first use.
    """

    def __new__(cls, first, second, first_factors=None, second_factors=None):
        forms = {}
        parts = []
        filled = []
        for name, entry, factors in (("first", first, first_factors),
                                     ("second", second, second_factors)):
            d = entry.homogeneous_degree()
            if d is None or d % 2 != 0:
                raise ValueError("algebra entries must be homogeneous of even degree")
            if factors is None:
                factors = (entry,)
            elif not factors or prod(factors) != entry:
                raise ValueError("the factors of algebra.%s do not multiply "
                                 "to it" % name)
            filled.append(factors)
            # the entry as the product of its constant factors times the
            # values of its nonconstant ones, by index into forms
            const, at = 1, []
            for q in factors:
                if q.homogeneous_degree() == 0:
                    const *= q.terms[0][0]
                else:
                    at.append(forms.setdefault(q, len(forms)))
            parts.append((const, tuple(at)))
        self = super().__new__(cls, first, second, *filled)
        self.forms = tuple(forms)
        self._parts = tuple(parts)
        return self

    def _replace(self, **changes):
        # namedtuple's own _replace would skip the checks of __new__
        return type(self)(**dict(zip(self._fields, self), **changes))

    @cached_property
    def factor_values(self):
        """The function P -> (first(P), second(P), values) at a point P of
        ints or Fractions, values[i] = forms[i](P): each distinct
        nonconstant factor is evaluated once and its value multiplied into
        the entries.

        It is one function per algebra, compiled on first use from the
        forms' sources (`MultiPoly.source`), so loading compiles nothing
        and a point costs one call.  Hot loops fetch it once."""
        names = ["v%d" % i for i in range(len(self.forms))]
        entries = []
        for const, at in self._parts:
            scale = ["%d" % const] if const != 1 or not at else []
            entries.append("*".join(scale + [names[i] for i in at]))
        src = "\n".join(
            ["def factor_values(point):", "    x, y, z = point"]
            + ["    %s = %s" % (v, q.source())
               for v, q in zip(names, self.forms)]
            + ["    return %s, %s, [%s]" % (*entries, ", ".join(names))])
        namespace = {}
        exec(src, SOURCE_GLOBALS, namespace)
        return namespace["factor_values"]

    @cached_property
    def constant_primes(self):
        """The primes of the entries' constant factors."""
        (ca, _), (cb, _) = self._parts
        return frozenset(factor(ca * cb))


def residue_sieve(f, m, target):
    """The residue sieve of one target, as its report record: every class
    (x, y, z) mod m with gcd(x, y, z, m) = 1 where f takes the target value
    mod m, sorted canonically.  A class whose coordinates all share a prime
    with m is skipped: no primitive point reduces to it.  m runs from 2 to
    SIEVE_MAX_MODULUS.

    The classes are lifted (`lift_classes`) from the one class mod 1 by
    each prime factor of m in turn, with multiplicity."""
    if not 2 <= m <= SIEVE_MAX_MODULUS:
        raise ValueError("modulus must be from 2 to %d, got %d"
                         % (SIEVE_MAX_MODULUS, m))
    classes, mod = [(0, 0, 0)], 1
    for p, e in sorted(factor(m).items()):
        for _ in range(e):
            classes = lift_classes(f, target, p, classes, mod)
            mod *= p
    classes = [list(c) for c in classes if gcd(*c, m) == 1]
    return {"modulus": m, "count": len(classes), "classes": classes}


def class_invariant_table(f, target, alg, sieve):
    """Certified 2-adic invariant of the algebra on each class of the sieve
    record of f = target, as its report record (entries in sieve order).

    Each class mod 2**k is the root of a tree of classes mod 2**L where
    f = target.  A node at L >= 3 with both entries nonzero mod 2**(L - 2)
    is a leaf: its 2-adic points share the entries' valuations and units
    mod 8, which fix (a, b)_2 (Serre, A Course in Arithmetic, III.1).
    Other nodes are lifted (`lift_classes`), never to TABLE_MAX_EXPONENT.
    The entry is the symbol the leaves share, at the deepest leaf's depth;
    None at depth 0 if they disagree or a branch reaches the cap; "empty"
    if every branch dies, at the first level with no lift left.
    """
    m = sieve["modulus"]
    k = m.bit_length() - 1
    if m != 1 << k:
        raise ValueError("modulus must be a power of 2")
    values = alg.factor_values
    entries = []
    for cls in sieve["classes"]:
        nodes, level, symbols, depth = [tuple(cls)], k, set(), 0
        while nodes:
            # an entry that over does not divide has valuation <= level - 3
            over = 1 << level - 2 if level >= 3 else 0
            inner = []
            for node in nodes:
                a, b, _ = values(node)
                if over and a % over and b % over:
                    symbols.add(symbol_at_prime(a, b, 2))
                    depth = level
                else:
                    inner.append(node)
            if len(symbols) > 1 or inner and level + 1 >= TABLE_MAX_EXPONENT:
                inv, depth = None, 0
                break
            nodes = inner and lift_classes(f, target, 2, inner, 1 << level)
            level += 1
        else:
            inv = (str(INV_HALF if symbols.pop() == -1 else INV_ZERO)
                   if symbols else "empty")
            depth = depth or level  # a leaf's level, or the empty level
        entries.append({"class": list(cls), "invariant": inv, "depth": depth})
    invs = [e["invariant"] for e in entries]
    return {"determined": None not in invs,
            "all_half": str(INV_HALF) in invs
            and set(invs) <= {str(INV_HALF), "empty"},
            "entries": entries}


class InvariantProfile(namedtuple("InvariantProfile",
                                  "point values invariants total")):
    """The point, its entry values (first(P), second(P)), its (Place,
    invariant) pairs and their sum."""
    __slots__ = ()


def point_invariant_profile(alg, point):
    """Local invariants of the algebra at an integer point, over the real
    place and every prime dividing 2ab, together with their sum in (1/2)Z/Z.

    Those primes are the primes of the constant factors and of each
    distinct factor value (`QuaternionAlgebraSpec.factor_values`), so the
    entry values themselves are never factored."""
    a, b, vals = alg.factor_values(point)
    if a == 0 or b == 0:
        raise RamificationLocusError(
            "algebra entry vanishes at %r" % (point,))
    primes = set(alg.constant_primes)
    for v in set(vals):
        primes.update(factor(v))
    return InvariantProfile(tuple(point), (a, b),
                            *place_invariants(a, b, primes))


def _random_triples(seed, bound):
    """Endless triples of ints in [-bound, bound]: each coordinate is what
    `randint(-bound, bound)` on `random.Random(seed)` draws, without its
    per-call overhead.  randint draws k = (2 bound + 1).bit_length() random
    bits, draws again while the value is 2 bound + 1 or more, and subtracts
    bound."""
    getrandbits = random.Random(seed).getrandbits
    width = 2 * bound + 1
    k = width.bit_length()
    while True:
        x = getrandbits(k)
        while x >= width:
            x = getrandbits(k)
        y = getrandbits(k)
        while y >= width:
            y = getrandbits(k)
        z = getrandbits(k)
        while z >= width:
            z = getrandbits(k)
        yield x - bound, y - bound, z - bound


def real_unramified_scan(alg, nsamples, seed):
    """Sample rational points of the plane and flag any where both algebra
    entries are negative (real invariant 1/2), as the scan's report record.
    Signs at rational points are exact, so every reported violation is a
    genuine ramified real point."""
    values = alg.factor_values
    triples = _random_triples(seed, 1000)
    violations = []
    done = 0
    while done < nsamples:
        pt = next(triples)
        if pt == (0, 0, 0):
            continue
        a, b, _ = values(pt)
        if a == 0 or b == 0:
            continue
        done += 1
        if a < 0 and b < 0:
            violations.append(list(pt))
    return {"samples": nsamples, "violations": violations}


def check_odd_scan_factors(f, alg, bound):
    """Refuse an algebra whose factor values the odd-place scan could not
    factor completely on points with coordinates up to bound.

    A factor q other than f with maximal total degree d has
    |q(P)| <= M = sum|c| bound^d.  When M <= FACTOR_BOUND**2, `factor(q(P))`
    is complete: trial division stops once p * p exceeds what is left, and
    a cofactor up to FACTOR_BOUND**2 is accepted as prime without a
    primality test.  A larger M raises FactorizationError: the factor should
    be split further.
    """
    for q in dict.fromkeys(alg.first_factors + alg.second_factors):
        top = (sum(abs(c) for c, _ in q.terms)
               * bound ** max(sum(e) for _, e in q.terms))
        if q != f and top > FACTOR_BOUND ** 2:
            raise FactorizationError(
                "algebra factor %r reaches %d on the odd-place scan box, "
                "above %d" % (q, top, FACTOR_BOUND ** 2))


def odd_place_scan(f, alg, nsamples, bound, seed):
    """Sample primitive integer triples and check that the algebra is split at
    every odd prime p dividing an entry value but not f (those points reduce
    into the open variety at p); returns the scan's report record.

    Such a p divides the value of an algebra factor other than f.  Each
    distinct nonconstant factor is evaluated once per point
    (`QuaternionAlgebraSpec.factor_values`), and the values of those other
    than f are factored completely, so every sample is checked: `factor`
    raises FactorizationError on a value it cannot finish, which
    `check_odd_scan_factors` rules out before `obstruction_verdict` runs
    any stage.  A constant factor is factored once per scan.

    Reciprocity is asserted at every sample: a nonzero invariant sum raises
    InternalInconsistencyError.  Let S be 2 and the primes of the values of the
    factors other than f; the symbol at the real place (a sign test) and at
    each prime of S (`symbol_at_prime`, since `factor` certified the prime)
    is computed.  Every other prime of ab divides f(P) and no other factor
    value.
    Write a = f^alpha A and b = f^beta B, where alpha and beta count
    f among the factors of each entry.  Squares do not change the symbol
    and (fA, fB) = (fA, -AB), so at a prime outside S the symbol is that of
    (f, c), where c = B, A or -AB for (alpha, beta) = (1, 0), (0, 1) or
    (1, 1) mod 2; for (0, 0), or when f is no factor, it is 1.  At an odd
    prime p with p^e exactly dividing f(P) and p not dividing c,
    (f, c)_p = (c/p)^e.  So an odd number of primes outside S ramify
    exactly when jacobi(c, n) = -1, where n is |f(P)| with every prime of S
    divided out: one Jacobi symbol stands in for the primes of f(P), which
    is never factored.  The one walk over S in ascending order takes each
    prime's symbol, tests whether it divides f(P), and divides it out of n
    when it does.
    """
    forms = alg.forms
    f_at = forms.index(f) if f in forms else None
    nonf = [i for i in range(len(forms)) if i != f_at]
    alpha = alg.first_factors.count(f)
    beta = alg.second_factors.count(f)
    # the primes of a constant factor are in S at every sample
    base = {2} | alg.constant_primes
    values = alg.factor_values
    triples = _random_triples(seed, bound)
    violations = []
    checked = 0
    done = 0
    while done < nsamples:
        pt = next(triples)
        if pt == (0, 0, 0):
            continue
        pt = primitive_normalize(pt)
        a, b, vals = values(pt)
        if a == 0 or b == 0:
            continue
        done += 1
        primes = set(base)
        for i in nonf:
            primes.update(factor(vals[i]))
        fval = f.evaluate_int(pt) if f_at is None else vals[f_at]
        # places where the algebra ramifies; reciprocity makes this even
        ramified = a < 0 and b < 0
        # n: |f(P)| with the primes of S divided out as they are walked (a
        # zero f(P) stays 0, and every p divides it)
        n = abs(fval)
        for p in sorted(primes):
            split = symbol_at_prime(a, b, p) == 1
            ramified += not split
            if n % p:
                if p != 2:
                    checked += 1
                    if not split:
                        violations.append([list(pt), p])
            elif n:
                n //= p
                while n % p == 0:
                    n //= p
        if alpha % 2 or beta % 2:
            A = a // fval ** alpha
            B = b // fval ** beta
            c = -A * B if alpha % 2 and beta % 2 else B if alpha % 2 else A
            ramified += jacobi(c, n) == -1
        if ramified % 2:
            raise InternalInconsistencyError(
                "nonzero invariant sum 1/2 at %r" % (pt,))
    return {"samples": nsamples, "bound": bound,
            "checked_prime_conditions": checked,
            # no sample is skipped, since every factor value other than f(P)
            # is factored completely; the key stays for readers of the report
            "skipped_unfactored": 0,
            "violations": violations}


def _primitive_part(q):
    """The form q with its content and the sign of its leading term divided
    out."""
    g = gcd(*(c for c, _ in q.terms))
    if q.terms[0][0] < 0:
        g = -g
    return q if g == 1 else MultiPoly((c // g, e) for c, e in q.terms)


@cache
def _square_primes():
    """The primes of SQUARE_PRIME_WINDOW in ascending order; built on the
    first call."""
    lo, hi = SQUARE_PRIME_WINDOW
    return tuple(p for p in primes_up_to(hi) if p >= lo)


def _random_prime(rng):
    """A random n in SQUARE_PRIME_WINDOW, made odd, then the least prime
    from n on in the window; a new n when there is none."""
    lo, hi = SQUARE_PRIME_WINDOW
    primes = _square_primes()
    while True:
        n = rng.randint(lo, hi)
        if n % 2 == 0:
            n += 1
        i = bisect_left(primes, n)
        if i < len(primes):
            return primes[i]


def _z_evaluators(H_factors):
    """The evaluators of the coefficients, as polynomials in z, of each
    component of H = 0: the distinct primitive parts of the nonconstant
    forms of H_factors.  A constant or a content has no zero locus (mod a
    prime dividing it, every point would lie on H = 0)."""
    components = dict.fromkeys(_primitive_part(q) for q in H_factors
                               if q.homogeneous_degree() != 0)
    return tuple(tuple(c.evaluator() for c in q.coefficients(2))
                 for q in components)


def _random_point_on_curve(curve, p, rng):
    """A random point of H = 0 over F_p, H the product of the components
    given by their `_z_evaluators` curve: random x, y, then a random root z
    of H(x, y, z).

    The roots are the sorted union of the components' roots in z, which over
    the field F_p is the sorted root list of H's z-polynomial (all of F_p
    when it vanishes), so the draws are those H itself would give.  p was
    certified prime when it was drawn.  None after CURVE_POINT_TRIES draws
    of (x, y) without a root."""
    for _ in range(CURVE_POINT_TRIES):
        x = rng.randrange(p)
        y = rng.randrange(p)
        roots = set()
        for coeffs in curve:
            roots.update(poly_roots_mod([fn(x, y, 0) for fn in coeffs], p))
        if not roots:
            continue
        roots = sorted(roots)
        z = roots[rng.randrange(len(roots))]
        if (x, y, z) != (0, 0, 0):
            return (x, y, z)
    return None


class SquareSamplingResult(namedtuple(
        "SquareSamplingResult",
        "accepted passed counterexamples skipped_primes")):
    """Counts of accepted and passing points, the (p, point) counterexamples
    and the primes skipped for want of a point."""
    __slots__ = ()

    @property
    def pass_ratio(self):
        return Fraction(self.passed, self.accepted) if self.accepted else None


def square_mod_sampling(F, H_factors, trials, seed):
    """Sample points on H = 0, H the product of the forms H_factors, over
    random prime fields F_p, p drawn from SQUARE_PRIME_WINDOW, and test
    whether F is a square there whenever it does not vanish.  Raises
    SquareSamplingError after SQUARE_FRUITLESS_DRAWS fruitless draws in a
    row."""
    curve = _z_evaluators(H_factors)
    rng = random.Random(seed)
    accepted = 0
    passed = 0
    counterexamples = []
    skipped = []
    fruitless = 0
    while accepted < trials:
        if fruitless >= SQUARE_FRUITLESS_DRAWS:
            raise SquareSamplingError(
                "square sampling found no point off F = 0 on H = 0 in %d "
                "draws in a row" % SQUARE_FRUITLESS_DRAWS)
        p = _random_prime(rng)
        q = _random_point_on_curve(curve, p, rng)
        if q is None:
            skipped.append(p)
            fruitless += CURVE_POINT_TRIES
            continue
        fval = F.evaluate_mod(q, p)
        if fval == 0:
            fruitless += 1
            continue
        fruitless = 0
        accepted += 1
        if pow(fval, (p - 1) // 2, p) == 1:
            passed += 1
        else:
            counterexamples.append((p, q))
    return SquareSamplingResult(accepted, passed, tuple(counterexamples),
                                tuple(skipped))


def _canonical_solutions(f, sols):
    """Primitive representatives, canonically signed when f is invariant under
    the antipodal flip, deduplicated and sorted."""
    flip_invariant = all(sum(e) % 2 == 0 for _, e in f.terms)
    out = set()
    for s in sols:
        if gcd(*s) != 1:
            continue
        if flip_invariant:
            s = primitive_normalize(s)
        out.add(s)
    return sorted(out)


def naive_integer_search(f, target, B):
    """Reference oracle: full enumeration of the cube [-B, B]^3."""
    sols = []
    for x in range(-B, B + 1):
        for y in range(-B, B + 1):
            for z in range(-B, B + 1):
                if f.evaluate_int((x, y, z)) == target:
                    sols.append((x, y, z))
    return _canonical_solutions(f, sols)


def integer_search(f, target, B):
    """All primitive integer solutions of f = target in the cube [-B, B]^3,
    enumerating two coordinates (u, w) and solving exactly for the third, v.

    f = C*v**k + R is f's `single_power_split`, C and R forms in u and w,
    so that at each pair v**k is (target - R)/C, found by exact division
    and an exact k-th root (`is_kth_power`), kept when |v| <= B (with -v
    for even k); u and w each range over the whole of [-B, B], and
    `_canonical_solutions` folds the antipodal pairs of an even-degree f.

    A pair (u, w) is walked only when it is admissible modulo each q in
    SEARCH_MODULI: some v mod q solves f = target there (a necessary
    condition, so no solution is lost), which is a nonempty row of f's
    `MultiPoly.row_kernel` over the column of all v mod q.  Per q, each
    residue of u gets one int bitmask over the w range, bit i set when
    (u, w_i) is admissible; a row ANDs its masks and walks the set bits
    from the top (each removed bit shortens the int).  Building the masks
    costs q slice calls per q, one per residue of u over every residue of
    w, whatever B is.
    """
    if not 0 <= B <= SEARCH_MAX_BOUND:
        raise ValueError("search bound must be from 0 to %d, got %d"
                         % (SEARCH_MAX_BOUND, B))
    j, k, C, R = single_power_split(f)
    at = eval("lambda %s, %s: (%s, %s)" % (
        *"xyz".replace("xyz"[j], ""), C.source(), R.source()), SOURCE_GLOBALS)
    _, column, rows = f.row_kernel()
    iw = 1 if j == 2 else 2  # the index of w in a lifted triple

    w0 = -B
    n = 2 * B + 1
    full = (1 << n) - 1
    masks = []
    for q in SEARCH_MODULI:
        col = column(range(q), q)
        # each row's q bits rotated to start at residue w0, then repeated
        # over the n bits of the w range
        tile = ((1 << q * -(-n // q)) - 1) // ((1 << q) - 1)
        shift = w0 % q
        inverses = {}
        by_u = []
        for u in range(q):
            lifts = []
            rows(u, range(q), col, target, q, inverses, lifts.append)
            bits = sum(1 << w for w in {pt[iw] for pt in lifts})
            by_u.append(((bits | bits << q) >> shift & (1 << q) - 1) * tile
                        & full)
        masks.append((q, by_u))

    sols = []
    for u in range(-B, B + 1):
        mask = full
        for q, by_u in masks:
            mask &= by_u[u % q]
        while mask:
            i = mask.bit_length() - 1
            mask ^= 1 << i
            w = w0 + i
            c, r = at(u, w)
            num = target - r
            if c == 0:
                if num == 0:
                    sols.extend(_assemble(j, v, u, w)
                                for v in range(-B, B + 1))
                continue
            if num % c:
                continue
            v = is_kth_power(num // c, k)
            if v is None or abs(v) > B:
                continue
            for root in {v, -v} if k % 2 == 0 else (v,):
                sols.append(_assemble(j, root, u, w))
    return _canonical_solutions(f, sols)


def _assemble(j, v, u, w):
    """The point with v at index j and u, w at the other two."""
    out = [u, w]
    out.insert(j, v)
    return tuple(out)


class ObstructionInstance(namedtuple(
        "ObstructionInstance", "name f targets algebra sieve_modulus "
        "rational_witness search_bound")):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if type(self.name) is not str:
            raise ValueError("name must be a string, got %r" % (self.name,))
        if self.f.homogeneous_degree() is None:
            raise ValueError("instance polynomial must be homogeneous")
        # every residue lift and the integer search solve for the variable
        # of this split, so a form without one is refused here
        single_power_split(self.f)
        t = self.targets
        if type(t) is not tuple or not t or any(
                type(x) is not int or x == 0 for x in t):
            raise ValueError("targets must be a nonempty list of nonzero "
                             "ints, got %r" % (t,))
        if type(self.search_bound) is not int or not (
                0 <= self.search_bound <= SEARCH_MAX_BOUND):
            raise ValueError("search_bound must be an int from 0 to %d, "
                             "got %r" % (SEARCH_MAX_BOUND, self.search_bound))
        # the 2-adic table certifies a sieve class at the class's own level
        # or a later one, and at levels below TABLE_MAX_EXPONENT
        m = self.sieve_modulus
        top = 1 << (TABLE_MAX_EXPONENT - 1)
        if type(m) is not int or m < 2 or m > top or m & (m - 1):
            raise ValueError("sieve_modulus must be a power of 2 from 2 to "
                             "%d, got %r" % (top, m))
        return self

    def _replace(self, **changes):
        # namedtuple's own _replace would skip the checks of __new__
        return type(self)(**dict(zip(self._fields, self), **changes))


OBSTRUCTED = "OBSTRUCTED"
NOT_OBSTRUCTED = "NOT_OBSTRUCTED"
INCONCLUSIVE = "INCONCLUSIVE"


def search_record(f, target, B):
    """The integer search of one target, as its report record."""
    return {"bound": B,
            "solutions": [list(s) for s in integer_search(f, target, B)]}


def padic_answer_record(f, target, p, depth=None):
    """The p-adic solubility search of f = target at p, as its report
    record (the Newton inequality's valuations replay a "yes")."""
    ans = padic_solutions_exist(f, target, p, depth)
    return {"verdict": ans.verdict, "p": ans.p, "depth": ans.depth,
            "witness": list(ans.witness) if ans.witness else None,
            "value_valuation": ans.value_valuation,
            "derivative_valuation": ans.derivative_valuation}


def obstruction_verdict(instance, seed=DEFAULT_SEED):
    """Run the full verification pipeline on an instance and return its
    report: name, verdict and flags (from `decide`), and one record per
    step.  The sampling stages draw from seeds derived from `seed`."""
    f = instance.f
    alg = instance.algebra
    # before any work, refuse a factor too large for the odd-place scan
    # (the instance refused an f the integer search cannot solve)
    check_odd_scan_factors(f, alg, ODD_BOUND)
    steps = {}

    # 1. rational witness
    if instance.rational_witness is not None:
        steps["rational_witness"] = verify_rational_witness(
            instance.rational_witness, f, instance.targets[0])
        bad_primes = set(steps["rational_witness"]["bad_primes"])
    else:
        steps["rational_witness"] = {"witness": None}
        bad_primes = set()

    # 2. p-adic searches at the primes the rational witness misses
    padic_records = []
    for p in sorted(bad_primes):
        if p <= PADIC_SEARCH_MAX_PRIME:
            answer = padic_answer_record(f, instance.targets[0], p)
            padic_records.append({"p": p, "answer": answer,
                                  "ok": answer["verdict"] == "yes"})
    steps["padic_witnesses"] = {
        "records": padic_records,
        "uncovered_bad_primes": sorted(bad_primes - {
            r["p"] for r in padic_records if r["ok"]}),
    }

    # 3-4. sieve and invariant table, per target
    steps["sieve"] = {str(t): residue_sieve(f, instance.sieve_modulus, t)
                      for t in instance.targets}
    steps["invariant_table"] = {t: class_invariant_table(f, int(t), alg, s)
                                for t, s in steps["sieve"].items()}

    # 5-6. real and odd-place scans
    steps["real_scan"] = real_unramified_scan(alg, REAL_SAMPLES,
                                              seed * 7 + 1)
    steps["odd_place_scan"] = odd_place_scan(f, alg, ODD_SAMPLES, ODD_BOUND,
                                             seed * 7 + 2)

    # 7. square-certificate sampling on the algebra pair
    sm = square_mod_sampling(alg.first, alg.second_factors, SQUARE_TRIALS,
                             seed * 7 + 3)
    steps["square_sampling"] = {
        "accepted": sm.accepted,
        "passed": sm.passed,
        "pass_ratio": None if sm.pass_ratio is None else str(sm.pass_ratio),
        "counterexamples": [[p, list(q)] for p, q in sm.counterexamples],
    }

    # 8. integer search, per target
    steps["integer_search"] = {str(t): search_record(f, t,
                                                     instance.search_bound)
                               for t in instance.targets}

    verdict, flags = decide(steps, alg)
    return {"name": instance.name, "verdict": verdict, "flags": flags,
            "steps": steps}


def decide(steps, alg):
    """The verdict and flags of a report, read from its steps (the sieve
    classes and table entries, not their summary fields) and, for a search
    solution in a class whose 2-adic invariant is certified 1/2, the exact
    invariant profile of the algebra at that solution.

    Such a solution is an integral point where the algebra is ramified at
    2, so some other place must ramify too.  It raises
    InternalInconsistencyError only when a solution contradicts the
    records: it lies in no sieve class (the sieve missed it) or in a class
    marked "empty" (the table is wrong), or its profile has a nonzero
    invariant sum (reciprocity fails) or an invariant at 2 other than 1/2
    (the table is wrong).  Every solution otherwise gives NOT_OBSTRUCTED.
    OBSTRUCTED requires, for every target, sieve classes all certified 1/2
    or "empty" (no 2-adic point), one of them 1/2; then no real or
    odd-place violation, at least one accepted square-sampling point and no
    counterexample, a rational witness that matches (without one nothing
    shows local solubility), and no bad prime of it left uncovered by the
    p-adic search records.  Anything else is INCONCLUSIVE.
    """
    found = False
    certified = True
    for t, search in steps["integer_search"].items():
        m = steps["sieve"][t]["modulus"]
        classes = {tuple(c) for c in steps["sieve"][t]["classes"]}
        entries = steps["invariant_table"][t]["entries"]
        half = {tuple(e["class"]) for e in entries
                if e["invariant"] == str(INV_HALF)}
        empty = {tuple(e["class"]) for e in entries
                 if e["invariant"] == "empty"}
        certified = certified and bool(half) and half | empty == classes
        for s in search["solutions"]:
            cls = tuple(c % m for c in s)
            if cls not in classes:
                raise InternalInconsistencyError(
                    "integral solution %r lies in no sieve class" % (s,))
            if cls in empty:
                raise InternalInconsistencyError(
                    "integral solution %r lies in a residue class certified "
                    "to hold no 2-adic point" % (s,))
            if cls in half:
                prof = point_invariant_profile(alg, s)
                if prof.total != 0:
                    raise InternalInconsistencyError(
                        "integral solution %r has invariant sum %s; this "
                        "contradicts reciprocity" % (s, prof.total))
                if dict(prof.invariants)[Place(2)] != INV_HALF:
                    raise InternalInconsistencyError(
                        "integral solution %r lies in a residue class "
                        "certified ramified at 2, but its invariant at 2 "
                        "is 0" % (s,))
            found = True
    matches = steps["rational_witness"].get("matches")
    if found:
        verdict = NOT_OBSTRUCTED
    elif (certified
          and not steps["real_scan"]["violations"]
          and not steps["odd_place_scan"]["violations"]
          and steps["square_sampling"]["accepted"] > 0
          and not steps["square_sampling"]["counterexamples"]
          and not steps["padic_witnesses"]["uncovered_bad_primes"]
          and matches is True):
        verdict = OBSTRUCTED
    else:
        verdict = INCONCLUSIVE
    flags = []
    if verdict == OBSTRUCTED and {"1", "-1"} <= steps["sieve"].keys():
        flags.append("hasse_over_Z")
    if matches is False:
        flags.append("rational_witness_mismatch")
    return verdict, flags
