"""Exact integer utilities: valuations, Jacobi symbols, k-th powers,
primitive normalization, and bounded trial-division factoring.

Everything here is pure arithmetic on Python ints; no floating point is
used anywhere.
"""

from array import array
from bisect import bisect_right
from functools import cache
from math import gcd, isqrt, prod


class FactorizationError(Exception):
    """Raised when a cofactor survives trial division and is not certified prime."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
             61, 67, 71, 73, 79, 83, 89, 97)

# psi_k, the least strong pseudoprime to all of the first k prime bases, for
# k = 1..13 (Sorenson and Webster, Math. Comp. 86, 2017; OEIS A014233).
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051, 318665857834031151167461,
        3317044064679887385961981)


def is_probable_prime(n):
    """Miller-Rabin primality test with bases chosen by the size of n.

    psi_k is the least strong pseudoprime to all of the first k prime bases
    (`_PSI`: psi_1 = 2047, psi_2 = 1373653, ..., psi_13 =
    3317044064679887385961981, about 3.3e24; Sorenson and Webster, Math.
    Comp. 86, 2017).  For n in [psi_k, psi_{k+1}) the first k + 1 prime
    bases are used (below psi_1 the base 2 alone), which makes the answer a
    proof.  From psi_13 on the 25 prime bases up to 97 are used, and the
    answer is only probable, though still a fixed function of n.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    k = bisect_right(_PSI, n)
    for a in _MR_BASES[:k + 1] if k < len(_PSI) else _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p):
    """Refuse a p that is not prime.  Only the front ends call it, on the
    primes they read; every engine primitive trusts its p."""
    if p < 2 or not is_probable_prime(p):
        raise ValueError("not a prime: %r" % (p,))


def valuation(n, p):
    """The exponent of the prime p in the int n, or None for n = 0 (whose
    valuation is infinite).  p is trusted: the engine's primes come from
    `factor`, `primes_up_to` or a constant."""
    if n == 0:
        return None
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def jacobi(a, n):
    """Jacobi symbol (a/n) for odd positive n and any int a, by quadratic
    reciprocity; it is 0 when gcd(a, n) > 1.

    Each run of s factors 2 of a is stripped with one shift; it contributes
    (2/n)^s, which is -1 when s is odd and n = 3, 5 mod 8.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError("jacobi requires odd positive n, got %r" % (n,))
    a %= n
    result = 1
    while a != 0:
        s = (a & -a).bit_length() - 1
        if s:
            a >>= s
            if s & 1 and n & 7 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def primitive_normalize(v):
    """The nonzero int triple v divided by plus or minus its gcd, the sign
    chosen to make the first nonzero coordinate positive: a primitive int
    triple."""
    x, y, z = v
    g = gcd(x, y, z)
    if g == 0:
        raise ValueError("cannot normalize the zero triple")
    if (x or y or z) < 0:
        g = -g
    return (x // g, y // g, z // g)


def ikth_root(n, k):
    """Floor of the k-th root of a non-negative integer, exact integer arithmetic."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return isqrt(n)
    # Newton iteration on integers, starting above the root.
    x = 1 << (n.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def is_kth_power(n, k):
    """Return r with r**k == n if one exists (non-negative r for even k), else None."""
    if k < 1:
        raise ValueError("k must be positive")
    if k == 1:
        return n
    if n < 0:
        if k % 2 == 0:
            return None
        r = -ikth_root(-n, k)
        return r if r ** k == n else None
    r = ikth_root(n, k)
    return r if r ** k == n else None


def primes_up_to(n):
    """All primes p <= n in ascending order (sieve of Eratosthenes)."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if sieve[p]]


# Primes per gcd block in `factor`.  One gcd against a block costs about as
# much as a few divisions, and a block is skipped whole when it shares no
# prime with n.  On a 64-bit n with no prime factor up to FACTOR_BOUND the
# whole walk took 235, 156, 120 and 103 us at 32, 64, 128 and 256 primes
# per block; 64 kept the odd-place scan's values (at most about 1.4e8) no
# slower, where larger blocks cost more per gcd before the early exits.
_FACTOR_BLOCK = 64


# Trial-division bound of `factor`; its square caps the algebra factor
# values the odd-place scan factors.
FACTOR_BOUND = 100000


@cache
def _prime_blocks():
    """The primes <= FACTOR_BOUND in ascending blocks of (p0 * p0, product,
    primes), p0 the first prime of the block; built on the first call."""
    primes = primes_up_to(FACTOR_BOUND)
    blocks = []
    for i in range(0, len(primes), _FACTOR_BLOCK):
        chunk = tuple(primes[i:i + _FACTOR_BLOCK])
        blocks.append((chunk[0] * chunk[0], prod(chunk), chunk))
    return tuple(blocks)


@cache
def _least_prime_factors():
    """lpf[n], the least prime factor of n, for 2 <= n <= FACTOR_BOUND
    (lpf[n] = n at a prime), as an array of 32-bit ints built on the first
    call.  The primes up to isqrt(FACTOR_BOUND) mark their multiples from
    p * p on, the largest first, so the least prime writes last."""
    top = FACTOR_BOUND
    lpf = array("I", range(top + 1))
    for p in reversed(primes_up_to(isqrt(top))):
        lpf[p * p::p] = array("I", [p]) * len(range(p * p, top + 1, p))
    return lpf


def factor(n):
    """Factor |n| into primes by trial division by the primes <=
    FACTOR_BOUND, stopping once what is left is known.

    Above FACTOR_BOUND the primes are taken in blocks: one gcd g with the
    product of a block decides whether any of its primes divides n.  Only
    then are they divided out, read from the least-prime-factor table
    (`_least_prime_factors`) when g <= FACTOR_BOUND and found by scanning
    the block otherwise.  The walk stops once what is left is at most
    FACTOR_BOUND, or once the first prime p of a block has p * p > n, which
    leaves a prime.  Before each block after the first, what is left is
    tested with `is_probable_prime` when FACTOR_BOUND**2 < n < psi_13,
    where the test is a proof (a cofactor tested composite is not tested
    again until it changes); a prime ends the walk.  What is left at or
    below FACTOR_BOUND is finished from the table, one lookup and one
    division per prime factor.  Every prime found is below those found
    later, so the primes come in ascending order.

    Returns a dict prime -> exponent, in ascending order of the primes.  A
    cofactor c > FACTOR_BOUND left after trial division is accepted when
    c <= FACTOR_BOUND**2 (it then has no room for two prime factors above
    the bound) or when it is certified prime; otherwise FactorizationError
    is raised (honesty over a silently incomplete factorization).
    """
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out = {}
    lpf = _least_prime_factors()
    if n > FACTOR_BOUND:
        square = FACTOR_BOUND * FACTOR_BOUND
        composite = 0  # the last cofactor tested composite
        for i, (first_sq, block, primes) in enumerate(_prime_blocks()):
            if first_sq > n:
                break
            if i and square < n < _PSI[-1] and n != composite:
                if is_probable_prime(n):
                    out[n] = 1
                    return out
                composite = n
            g = gcd(n, block)
            if g == 1:
                continue
            # the block's primes that divide n, in ascending order: scanned
            # while g is above the table, then read from it
            scan = iter(primes)
            while g > 1:
                if g <= FACTOR_BOUND:
                    p = lpf[g]
                else:
                    p = next(q for q in scan if g % q == 0)
                g //= p
                n //= p
                e = 1
                while n % p == 0:
                    n //= p
                    e += 1
                out[p] = e
            if n <= FACTOR_BOUND:
                break
        if n > FACTOR_BOUND:
            if n <= square or (n != composite and is_probable_prime(n)):
                out[n] = 1
                return out
            raise FactorizationError(
                "composite cofactor %d survived trial division to %d"
                % (n, FACTOR_BOUND))
    while n > 1:
        p = lpf[n]
        out[p] = out.get(p, 0) + 1
        n //= p
    return out


def _poly_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_mulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _poly_divmod(out, mod, p)[1]


def _poly_divmod(a, b, p):
    a = list(a)
    binv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * binv % p
        q[i] = c
        if c:
            for j, cb in enumerate(b):
                a[i + j] = (a[i + j] - c * cb) % p
    return _poly_trim(q), _poly_trim(a)


def _poly_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _poly_powmod(base, e, mod, p):
    result = [1]
    base = _poly_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _sqrt_mod(a, p):
    """A square root of a modulo the odd prime p, or None when a is not a
    square (Euler's criterion); Tonelli-Shanks (Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 1.5.1)."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    # p - 1 = 2^s * q with q odd; t = a^q lies in the 2-Sylow subgroup
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    if t == 1:
        return r
    n = 2
    while pow(n, (p - 1) // 2, p) != p - 1:
        n += 1
    c = pow(n, q, p)  # generates the 2-Sylow subgroup
    m = s
    while t != 1:
        # least i with t^(2^i) = 1; then i < m
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return r


def poly_roots_mod(coeffs, p):
    """Sorted roots in F_p of a polynomial given by ascending coefficients.

    Degrees 1 and 2 are solved in closed form (a quadratic through its
    discriminant and `_sqrt_mod`).  Higher degrees use equal-degree
    splitting against z^p - z; deterministic (shift constants are tried in
    increasing order).  p is trusted to be prime, as in `valuation`.
    """
    f = _poly_trim([c % p for c in coeffs])
    if not f:
        return list(range(p))  # the zero polynomial
    if len(f) == 1:
        return []
    if p == 2:
        return [r for r in (0, 1) if
                sum(c * r ** i for i, c in enumerate(f)) % 2 == 0]
    if len(f) == 2:
        return [-f[0] * pow(f[1], -1, p) % p]
    if len(f) == 3:
        c, b, a = f
        inv = pow(2 * a, -1, p)
        r = _sqrt_mod(b * b - 4 * a * c, p)
        if r is None:
            return []
        return sorted({(-b + r) * inv % p, (-b - r) * inv % p})
    # keep only the split part: gcd(f, z^p - z)
    zp = _poly_powmod([0, 1], p, f, p)
    zp = zp + [0] * (2 - len(zp))
    zp[1] = (zp[1] - 1) % p
    g = _poly_gcd(f, _poly_trim(zp), p)
    roots = []

    def split(h, shift):
        if len(h) == 1:
            return
        if len(h) == 2:
            roots.append((-h[0] * pow(h[1], -1, p)) % p)
            return
        # h(z) with distinct roots: split via (z + shift)^((p-1)/2) - 1
        while True:
            w = _poly_powmod([shift % p, 1], (p - 1) // 2, h, p)
            w = _poly_trim([(c - (1 if i == 0 else 0)) % p
                            for i, c in enumerate(w or [0])])
            d = _poly_gcd(h, w, p)
            if 0 < len(d) - 1 < len(h) - 1:
                split(d, shift + 1)
                split(_poly_divmod(h, d, p)[0], shift + 1)
                return
            shift += 1

    if len(g) > 1:
        if g[0] == 0:
            roots.append(0)
            g = _poly_trim(g[1:])
        if len(g) > 1:
            split(g, 1)
    return sorted(roots)
