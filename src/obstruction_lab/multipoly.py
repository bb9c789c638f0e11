"""Exact multivariate polynomials in x, y, z with integer coefficients.

Polynomials are immutable; terms are kept in graded-lex order (x > y > z),
with no zero coefficients and no duplicate exponent triples.  All arithmetic
is exact; identity verification is by full expansion, never by sampling.

Each form evaluates through one function, compiled on first use from its
coefficients and exponents (`MultiPoly.evaluator`), and lifts residue
classes through two more (`MultiPoly.row_kernel`).  One method,
`MultiPoly.coefficients`, splits a form by the powers of a variable, and
one function, `single_power_split`, picks from those splits the variable
v that the form holds in a single power k, so that the form is
C*v**k + R: the row kernel lifts v with one lookup per row (u, w) of the
other two and one call per slice of the rows of one u, and the integer
search solves for v.  A form with no such variable is refused there, with
a ValueError.
"""

from collections import namedtuple
from math import gcd


def _grlex_key(exps):
    ex, ey, ez = exps
    return (-(ex + ey + ez), -ex, -ey, -ez)


# Powers up to this exponent are written as products (x*x), which the
# interpreter runs no slower than x**2; higher ones as x**e.
_PRODUCT_POWER_MAX = 4
# Terms per chained sum in an evaluator's source: the chunks are added by
# sum() over a tuple, so the compiled expression nests at most this deep
# whatever the number of terms (a flat chain of 3,000 terms exceeds the
# compiler's recursion limit).
_SUM_CHUNK = 100


def _term_source(c, exps):
    """Source of one term, with the sign of c written by the caller."""
    mono = []
    for v, e in zip("xyz", exps):
        if e > _PRODUCT_POWER_MAX:
            mono.append("%s**%d" % (v, e))
        elif e:
            mono.extend(v * e)
    if abs(c) != 1 or not mono:
        mono.insert(0, "%d" % abs(c))
    return "*".join(mono)


def _sum_source(parts):
    """Source of the sum of parts, each (negative, text) with text the
    source of the term's absolute value, in chained sums of at most
    _SUM_CHUNK terms added by sum() over a tuple."""
    chunks = []
    for k in range(0, len(parts), _SUM_CHUNK):
        src = ""
        for negative, text in parts[k:k + _SUM_CHUNK]:
            if src:
                src += " - " if negative else " + "
            elif negative:
                src = "-"
            src += text
        chunks.append(src)
    return ("sum((%s,))" % ", ".join(chunks) if len(chunks) > 1
            else chunks[0] if chunks else "0")


# The globals of compiled sources: no builtins but the one `sum` they call.
SOURCE_GLOBALS = {"__builtins__": {}, "sum": sum}


class MultiPoly:
    """Integer-coefficient polynomial in three variables."""

    # what a form derives from its terms, built on first use (`_derived`)
    __slots__ = ("terms", "_evaluator", "_gradient", "_coefficients",
                 "_row_kernel")

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

    def _derived(self, slot, build):
        """The value kept in slot, set to build(self) on first use."""
        try:
            return getattr(self, slot)
        except AttributeError:
            value = build(self)
            object.__setattr__(self, slot, value)
            return value

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

    def source(self):
        """Source of an expression in x, y and z for the form's exact value,
        built from its int coefficients and exponents only.  It calls no
        name but `sum`: `evaluator` compiles it, and callers may compile it
        into a larger function with globals SOURCE_GLOBALS."""
        return _sum_source([(c < 0, _term_source(c, exps))
                            for c, exps in self.terms])

    def evaluator(self):
        """The form as a function of (x, y, z), compiled once per form: its
        exact value at ints or Fractions, in plain int arithmetic at ints.
        Hot loops fetch it once and call it directly."""
        return self._derived("_evaluator", _compile_evaluator)

    def evaluate_int(self, at):
        """Exact value at a triple of ints or Fractions."""
        return self.evaluator()(*at)

    def evaluate_mod(self, at, m):
        """Value at an integer triple reduced into [0, m)."""
        if m < 2:
            raise ValueError("modulus must be >= 2")
        x, y, z = at
        return self.evaluator()(x % m, y % m, z % m) % m

    def homogeneous_degree(self):
        """Common total degree of all terms, or None if inhomogeneous or zero."""
        degs = {ex + ey + ez for _, (ex, ey, ez) in self.terms}
        if len(degs) != 1:
            return None
        return degs.pop()

    def gradient(self):
        """The partial derivatives in x, y and z, built once per form."""
        return self._derived("_gradient", _partials)

    def coefficients(self, j):
        """(c_0, ..., c_d) with self = sum c_k v**k, v variable j, d the
        degree of self in v (0 for the zero form) and each c_k a form free
        of v.  The splits by x, y and z are built once per form."""
        return self._derived("_coefficients", _splits)[j]

    def row_kernel(self):
        """(j, column, rows): the index j of the variable v the residue lifts
        solve for, and two functions, compiled once per form, that find the
        lifts of v where the form takes a target value t mod M.

        v and the split of the form into C*v**k + R, with C and R in the
        other two variables u, w (in the order x, y, z), are those of
        `single_power_split`, which the integer search reads too.  Only
        `padicsolve` calls the two functions.  column(vs, M) maps each
        value of v**k mod M, or of C*v**k mod M when C is a constant, to
        the values in vs that give it.  rows(u, ws, column, t, M, inverses,
        append) solves the slice of rows (u, w) for each w of ws in turn:
        it computes the coefficients of the powers of w in C and R that
        vary with u once, and passes append each point (x, y, z) whose v
        makes the form t mod M at (u, w), each row's v in ascending order:
        the ones stored under (t - R) mod M, or under (t - R)/C mod M when
        C is a unit mod M, and else those of the keys that pass
        C*key = t - R mod M, sorted.  inverses is a dict that keeps, per
        value of C mod M, its inverse or 0 when it is no unit; the calls of
        one modulus M may share it."""
        return self._derived("_row_kernel", _compile_row_kernel)

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


# What a form derives from its terms, each built once per form by `_derived`.

def _compile_evaluator(f):
    return eval("lambda x, y, z: " + f.source(), SOURCE_GLOBALS)


def _partials(f):
    return tuple(f.partial(i) for i in range(3))


def _splits(f):
    out = []
    for j in range(3):
        by_power = [[] for _ in range(
            max((e[j] for _, e in f.terms), default=0) + 1)]
        for c, e in f.terms:
            by_power[e[j]].append((c, e[:j] + (0,) + e[j + 1:]))
        out.append(tuple(MultiPoly(terms) for terms in by_power))
    return out


def _power_exps(j, k):
    """The exponents of the k-th power of variable j."""
    exps = [0, 0, 0]
    exps[j] = k
    return tuple(exps)


def _hoisted_parts(g, i, name, lines, low=0):
    """Parts (see `_sum_source`) of the terms of g in the powers e >= low
    of variable i, as a sum over those powers: a coefficient of i**e that
    is a number is written into its term, and one that varies with the
    other variables is assigned once, to name<e>, by a line appended to
    lines."""
    parts = []
    for e, c in enumerate(g.coefficients(i)[low:], low):
        if not c.terms:
            continue
        power = _power_exps(i, e)
        if c.homogeneous_degree() == 0:
            n = c.terms[0][0]
            parts.append((n < 0, _term_source(n, power)))
        else:
            coeff = "%s%d" % (name, e)
            lines.append("    %s = %s" % (coeff, c.source()))
            parts.append((False, coeff + "*" + _term_source(1, power)
                          if e else coeff))
    return parts


def _slice_kernel_source(j, k, coeff, rest):
    """Source of the kernel of f = coeff*v**k + rest, v variable j."""
    v = "xyz"[j]
    u, w = "xyz".replace(v, "")
    iw = "xyz".index(w)
    power = _power_exps(j, k)
    # the part of R free of w is folded into the target once per slice
    head = ["def rows(%s, %ss, col, t, M, inverses, append):" % (u, w),
            "    s = t - (%s)" % rest.coefficients(iw)[0].source()]
    target = "(s - (%s)) %% M" % _sum_source(_hoisted_parts(
        rest, iw, "a", head, 1))
    emit = "append((x, y, z))"
    if coeff.homogeneous_degree() == 0:
        # a constant C joins the key, so every row is one lookup
        key = MultiPoly([(coeff.terms[0][0], power)]).source()
        body = ["    get = col.get",
                "    for %s in %ss:" % (w, w),
                "        for %s in get(%s, ()):" % (v, target),
                "            " + emit]
    else:
        key = _term_source(1, power)
        c = _sum_source(_hoisted_parts(coeff, iw, "b", head))
        body = ["    for %s in %ss:" % (w, w),
                "        r = " + target,
                "        c = (%s) %% M" % c,
                "        i = inverses.get(c)",
                "        if i is None:",
                "            i = inverses[c] = (pow(c, -1, M)"
                " if gcd(c, M) == 1 else 0)",
                "        if i:",
                "            for %s in col.get(r * i %% M, ()):" % v,
                "                " + emit,
                "        else:",
                "            for %s in sorted([%s for key, %ss in col.items()"
                " if (c * key - r) %% M == 0 for %s in %ss]):"
                % (v, v, v, v, v),
                "                " + emit]
    return ["def column(%ss, M):" % v,
            "    col = {}",
            "    for %s in %ss:" % (v, v),
            "        col.setdefault((%s) %% M, []).append(%s)" % (key, v),
            "    return col"] + head + body


def _compile_row_kernel(f):
    j, k, coeff, rest = single_power_split(f)
    src = _slice_kernel_source(j, k, coeff, rest)
    namespace = {}
    exec("\n".join(src),
         dict(SOURCE_GLOBALS, gcd=gcd, pow=pow, sorted=sorted), namespace)
    return j, namespace["column"], namespace["rows"]


def single_power_split(f):
    """(j, k, C, R) with f = C*v**k + R, where v is variable j, the first of
    z, y, x that f holds in a single power k, and C and R are forms in the
    other two variables.  ValueError when each variable of f occurs in no
    power or in several.

    The row kernel lifts v and the integer search solves for it, so this is
    the rule a form must pass to be searched; an `ObstructionInstance`
    checks it when it loads.  The kernel solves for v a slice of rows
    (u, w) of one u at a time, with the coefficients of C and R that vary
    with u computed once per slice.  z comes first: the lifts of z come
    out of the (x, y) rows in lexicographic order, so sorting a level of
    residue lifts mostly merges runs.  Level 1 of the p-adic search walks
    those rows one kernel call each, or, for y, sorts one x-slice at a
    time, and stops at its first Newton point without building the level;
    only a form solved for x builds it whole."""
    for j in (2, 1, 0):
        cs = f.coefficients(j)
        powers = [k for k in range(1, len(cs)) if cs[k].terms]
        if len(powers) == 1:
            return j, powers[0], cs[powers[0]], cs[0]
    raise ValueError("no variable of f occurs in a single power")


class IdentityClaim(namedtuple("IdentityClaim", "summands")):
    """Claim that sum of scalar * (product of factors) is the zero polynomial:
    summands is a tuple of (scalar, tuple of MultiPoly factors)."""
    __slots__ = ()


def verify_identity(claim):
    """Check an IdentityClaim by exact expansion and term-wise cancellation."""
    total = MultiPoly()
    for scalar, factors in claim.summands:
        prod = MultiPoly([(1, (0, 0, 0))])
        for f in factors:
            prod = prod * f
        total = total + scalar * prod
    return total.is_zero()
