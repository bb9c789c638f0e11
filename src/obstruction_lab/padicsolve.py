"""Certified p-adic solubility: a multivariable Newton-criterion residue
search, and the rational-witness check.

All "yes" answers carry a replayable certificate; "no" answers are sound
because a p-adic solution would reduce to a solution at every finite level.
"""

from collections import namedtuple
from fractions import Fraction

from .exactarith import factor, valuation


class SolubilityAnswer(namedtuple(
        "SolubilityAnswer", "verdict p depth witness value_valuation "
        "derivative_valuation", defaults=(None, None, None))):
    """Verdict of the residue search: 'yes' with a witness class and Newton
    data, 'no' with the exhaustion depth, or 'inconclusive'.

    depth is the level reached (witness level, exhaustion level, or
    maxdepth).  Only a "yes" has a witness, a residue triple mod p**depth,
    and the valuations of its Newton inequality (value_valuation is None
    when f takes the target there exactly)."""
    __slots__ = ()


def _newton_at(fn, partials, point, target, p):
    """Newton data at an integer triple: (ok, v(f - target), best v(partial)).

    fn and partials are the evaluators of f and of its partials."""
    fv = valuation(fn(*point) - target, p)  # None: infinite
    best = None
    for d in partials:
        dval = d(*point)
        if dval == 0:
            continue
        dvv = valuation(dval, p)
        if best is None or dvv < best:
            best = dvv
    if best is None:
        return False, fv, None
    ok = fv is None or fv > 2 * best
    return ok, fv, best


def lift_classes(f, target, p, classes, mod):
    """The sorted lifts mod p*mod of the residue triples mod mod in classes
    at which the form f takes the target value mod p*mod.

    The step p may be any integer >= 2, prime or not: the sieve, the
    2-adic table and the p-adic search lift by a prime a level, and the
    integer search lifts the class mod 1 to each of its moduli, 16, 9 and
    25 among them, in one step.  This is the one lister of residue classes.

    f's `MultiPoly.row_kernel` solves for one variable v: each class
    prepares the column of the p lifts of v once, then makes one slice call
    per lift u of the first of the other two variables, which solves the
    rows (u, w) for every lift w of the second; the units inverted on the
    way are shared by the whole call."""
    j, column, rows = f.row_kernel()
    top = p * mod
    lifts = []
    append = lifts.append
    inverses = {}
    for cls in classes:
        u, w = cls[:j] + cls[j + 1:]
        col = column(range(cls[j], cls[j] + top, mod), top)
        ws = range(w, w + top, mod)
        for u2 in range(u, u + top, mod):
            rows(u2, ws, col, target, top, inverses, append)
    lifts.sort()
    return lifts


def _first_level_lifts(f, target, p):
    """Yield the lifts mod p of f = target in the order of the sorted level,
    x by x, for a form f whose `MultiPoly.row_kernel` solves for z or y.

    Solved for z, the rows (x, y) come one kernel call each, in
    lexicographic order and with their z ascending.  Solved for y, each x
    is one slice call over every z, and its lifts are sorted by (y, z)
    before they are yielded.  Either way the walk holds at most one slice
    of lifts.  (Solved for x, no prefix of the rows is a prefix of the
    sorted level.)"""
    j, column, rows = f.row_kernel()
    col = column(range(p), p)
    found = []
    append = found.append
    inverses = {}
    # for z one row (x, y) a call, which stops sooner than a whole slice;
    # for y the slice of x, whose lifts leave (y, z) order and are sorted
    for x in range(p):
        for ws in zip(range(p)) if j == 2 else (range(p),):
            rows(x, ws, col, target, p, inverses, append)
            if found:
                if j == 1:
                    found.sort()
                yield from found
                found.clear()


def padic_solutions_exist(f, target, p, maxdepth=None):
    """Decide whether f(x, y, z) = target has a solution in p-adic integers.

    Breadth-first search over residue triples mod p, p^2, ...: each level
    lifts the classes of the one before (`lift_classes`), and level 1 lifts
    the single class mod 1.  A branch is accepted when a single partial
    derivative satisfies the Newton inequality
    v_p(f - target) > 2 * v_p(partial); it is pruned when f - target is not
    divisible by the level modulus.  Lexicographic traversal, so identical
    inputs always report the identical witness class.

    When the row kernel solves for z or y, level 1 is walked x by x in the
    order of the sorted level (`_first_level_lifts`), and the search stops
    at the first lift that passes, which is the first Newton point of the
    sorted level: on the bundled quartic (z) a few rows into the p**2, on
    the bundled cubic (y) within the first x-slice of p rows.  A level 1
    with no Newton point (so any "no" or "inconclusive" answer) still walks
    all p**2 rows and keeps every lift, about p**2 of them (10**8 at
    p = 10**4), as the classes of level 2.  A form that solves for x builds
    the whole level through `lift_classes`, p**2 rows in p slice calls,
    before it tests a lift.  The levels after the first go through
    `lift_classes`.
    """
    if maxdepth is None:
        maxdepth = 8 if p == 2 else 4
    if maxdepth < 1:
        raise ValueError("maxdepth must be >= 1")
    fn = f.evaluator()
    partials = [d.evaluator() for d in f.gradient()]

    frontier, mod = [(0, 0, 0)], 1
    for level in range(1, maxdepth + 1):
        if level == 1 and f.row_kernel()[0] != 0:
            lifts = _first_level_lifts(f, target, p)
        else:
            lifts = lift_classes(f, target, p, frontier, mod)
        frontier = []
        for pt in lifts:
            ok, fv, dv = _newton_at(fn, partials, pt, target, p)
            if ok:
                return SolubilityAnswer("yes", p, level, witness=pt,
                                        value_valuation=fv,
                                        derivative_valuation=dv)
            frontier.append(pt)
        if not frontier:
            return SolubilityAnswer("no", p, level)
        mod *= p
    return SolubilityAnswer("inconclusive", p, maxdepth)


def verify_rational_witness(w, f, target):
    """Check f(w) = target exactly, as the report's `rational_witness`
    record: the witness, the target, the exact value, whether it matches,
    and the sorted primes dividing a coordinate denominator, at which the
    witness is no p-adic integer."""
    w = tuple(Fraction(c) for c in w)
    value = Fraction(f.evaluate_int(w))
    bad = set()
    for c in w:
        if c.denominator > 1:
            bad.update(factor(c.denominator))
    return {"witness": [str(c) for c in w], "target": target,
            "value": str(value), "matches": value == target,
            "bad_primes": sorted(bad)}
