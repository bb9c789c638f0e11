import random
from functools import lru_cache
from math import gcd, isqrt, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obstruction_lab import exactarith
from obstruction_lab.exactarith import (FACTOR_BOUND, FactorizationError,
                                        factor, is_kth_power,
                                        is_probable_prime, jacobi,
                                        poly_roots_mod, primes_up_to,
                                        primitive_normalize, valuation)
from obstruction_lab.multipoly import MultiPoly
from obstruction_lab.obstruction import (_random_point_on_curve,
                                         _z_evaluators)

PRIMES_TO_100 = [p for p in range(2, 100) if is_probable_prime(p)]


class TestValuation:
    def test_repeated_division(self):
        assert valuation(48, 2) == 4

    def test_odd_input(self):
        assert valuation(17, 2) == 0

    def test_zero(self):
        assert valuation(0, 5) is None

    def test_reconstruction_identity(self):
        # p**v divides n, and what is left is a unit at p
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(-10**9, 10**9) or 1
            p = rng.choice([2, 3, 5, 7, 13])
            v = valuation(n, p)
            assert n % p ** v == 0
            assert (n // p ** v) % p != 0

    def test_additivity(self):
        rng = random.Random(7)
        for _ in range(1000):
            n = rng.randint(-10**6, 10**6) or 1
            m = rng.randint(-10**6, 10**6) or 1
            p = rng.choice([2, 3, 5, 11])
            assert valuation(n * m, p) == valuation(n, p) + valuation(m, p)


class TestJacobi:
    def test_squares_mod_7(self):
        assert jacobi(2, 7) == 1

    def test_top_entry_one(self):
        assert jacobi(1, 15) == 1

    def test_shared_factor(self):
        assert jacobi(3, 9) == 0

    @pytest.mark.parametrize("n", [0, -3, 4, 100])
    def test_rejects_bad_modulus(self, n):
        with pytest.raises(ValueError):
            jacobi(5, n)

    def test_matches_quadratic_residues_small_primes(self):
        for p in PRIMES_TO_100:
            if p == 2:
                continue
            residues = {x * x % p for x in range(1, p)}
            for a in range(p):
                expected = 0 if a == 0 else (1 if a in residues else -1)
                assert jacobi(a, p) == expected

    def test_multiplicative_in_top(self):
        rng = random.Random(3)
        for _ in range(500):
            a = rng.randint(-500, 500)
            b = rng.randint(-500, 500)
            n = 2 * rng.randint(1, 500) + 1
            assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)

    def test_multiplicative_in_bottom(self):
        rng = random.Random(4)
        for _ in range(500):
            a = rng.randint(-500, 500)
            n = 2 * rng.randint(1, 200) + 1
            m = 2 * rng.randint(1, 200) + 1
            assert jacobi(a, n * m) == jacobi(a, n) * jacobi(a, m)

    # the odd-place scan takes Jacobi symbols modulo |f(P)| without its
    # small primes: composite, and up to about 10^13 on the bundled instances
    @given(st.integers(-10**15, 10**15), st.integers(0, 2 * 10**6),
           st.integers(0, 2 * 10**6))
    def test_multiplicative_in_large_bottom(self, a, i, j):
        m, n = 2 * i + 1, 2 * j + 1
        assert jacobi(a, m * n) == jacobi(a, m) * jacobi(a, n)

    @given(st.integers(-10**15, 10**15), st.integers(3, 10**13))
    def test_euler_criterion(self, a, start):
        p = start | 1
        while not is_probable_prime(p):
            p += 2
        assert jacobi(a, p) % p == pow(a, (p - 1) // 2, p)

    # n = 2i + 1 up to 10^10, so factor(n) is complete; `multiple` makes
    # a = 0 mod n
    @given(st.integers(-10**15, 10**15), st.integers(0, 5 * 10**9),
           st.booleans())
    @example(7, 0, False)        # n = 1
    @example(-3, 0, True)        # n = 1, a = -3
    @example(-1, 5, False)       # n = 11 = 3 mod 4
    @example(-12, 4, True)       # a = -108 = 0 mod 9
    @example(2 ** 40, 2, False)  # one run of 40 twos
    @example(-(2 ** 41), 1, False)
    def test_matches_product_of_legendre_symbols(self, a, i, multiple):
        # (a/n) = prod (a/p)^e over p^e || n, each (a/p) read off Euler's
        # criterion: 0 when p | a
        n = 2 * i + 1
        if multiple:
            a *= n
        expected = 1
        for p, e in factor(n).items():
            euler = pow(a, (p - 1) // 2, p)
            expected *= (0 if euler == 0 else 1 if euler == 1 else -1) ** e
        assert jacobi(a, n) == expected


class TestPrimitiveNormalize:
    def test_already_primitive(self):
        assert primitive_normalize((1, 0, 1)) == (1, 0, 1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            primitive_normalize((0, 0, 0))

    def test_canonical_sign(self):
        assert primitive_normalize((-2, 4, -6)) == (1, -2, 3)
        assert primitive_normalize((0, -5, 10)) == (0, 1, -2)

    @given(st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
                     st.integers(-10**6, 10**6)).filter(any),
           st.integers(1, 30))
    @example((-4, 6, 0), 1)
    @example((0, -7, 14), 3)
    @example((0, 0, -5), 1)
    def test_scale_invariant_and_idempotent(self, v, lam):
        base = primitive_normalize(v)
        g = gcd(*v)
        assert base in (tuple(c // g for c in v), tuple(-c // g for c in v))
        assert all(type(c) is int for c in base) and gcd(*base) == 1
        assert next(c for c in base if c) > 0
        assert primitive_normalize(base) == base
        assert primitive_normalize(tuple(c * lam for c in v)) == base


class TestKthPower:
    def test_examples(self):
        assert is_kth_power(81, 4) == 3
        assert is_kth_power(17, 4) is None
        assert is_kth_power(-8, 3) == -2

    def test_even_root_nonnegative(self):
        assert is_kth_power(16, 2) == 4
        assert is_kth_power(-16, 2) is None

    def test_roundtrip(self):
        rng = random.Random(9)
        for _ in range(500):
            r = rng.randint(-40, 40)
            k = rng.randint(1, 6)
            if k % 2 == 0:
                assert is_kth_power(abs(r) ** k, k) == abs(r)
            else:
                assert is_kth_power(r ** k, k) == r

    def test_large_values(self):
        n = (3**200 + 1)
        assert is_kth_power(n * n, 2) == n
        assert is_kth_power(n * n + 1, 2) is None


@lru_cache(maxsize=None)
def _reference_primes(bound):
    return [p for p in range(2, bound + 1)
            if all(p % q for q in range(2, isqrt(p) + 1))]


def _reference_factor(n):
    """Divide by every prime <= 10^5, no early exit; then the cofactor
    rule of `factor`.  None stands for FactorizationError."""
    bound = 10 ** 5
    n = abs(n)
    out = {}
    for p in _reference_primes(bound):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        if n > bound * bound and not is_probable_prime(n):
            return None
        out[n] = 1
    return out


def _block_walk_factor(n):
    """`factor` without its least-prime-factor table: the block walk to the
    end, then the cofactor rule.  None stands for FactorizationError."""
    n = abs(n)
    out = {}
    for first_sq, block, primes in exactarith._prime_blocks():
        if first_sq > n:
            break
        g = gcd(n, block)
        for p in primes:
            if g % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                out[p] = e
    if n > 1:
        if n > FACTOR_BOUND ** 2 and not is_probable_prime(n):
            return None
        out[n] = 1
    return out


# psi_k (`exactarith._PSI`) by its prime factors, each listed once
_PSI_FACTORS = {
    2047: (23, 89),
    1373653: (829, 1657),
    25326001: (2251, 11251),
    3215031751: (151, 751, 28351),
    2152302898747: (6763, 10627, 29947),
    3474749660383: (1303, 16927, 157543),
    341550071728321: (10670053, 32010157),
    3825123056546413051: (149491, 747451, 34233211),
    318665857834031151167461: (399165290221, 798330580441),
    3317044064679887385961981: (1287836182261, 2575672364521),
}


def _strong_probable_prime(n, bases):
    """Whether odd n > max(bases) passes the strong test to every base."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# primes just above 10^4 and 10^5, so products of two of the larger ones
# are cofactors that trial division to 10^5 cannot split
_BIG_PRIMES = (10007, 10009, 10037, 100003, 100019, 100043, 1000003)

# primes in (FACTOR_BOUND**2, psi_13), where a cofactor can be proved prime
_PROVABLE_PRIMES = (10000000019, 2 ** 61 - 1, 2 ** 64 - 59)


class TestPrimality:
    def test_small_primes(self):
        assert PRIMES_TO_100 == [p for p in range(2, 100)
                                 if all(p % q for q in range(2, p))]

    def test_psi_13(self):
        # the least strong pseudoprime to all of the first 13 prime bases
        # (Sorenson and Webster); the bases 43..97 expose it
        assert not is_probable_prime(3317044064679887385961981)

    def test_large_primes(self):
        assert is_probable_prime(2 ** 61 - 1)
        assert is_probable_prime(2 ** 89 - 1)
        assert not is_probable_prime((2 ** 61 - 1) * (2 ** 31 - 1))

    def test_matches_trial_division_below_2e5(self):
        bound = 2 * 10 ** 5
        primes = set(_reference_primes(bound))
        assert all(is_probable_prime(n) == (n in primes)
                   for n in range(-2, bound))

    @pytest.mark.parametrize("k", range(1, len(exactarith._PSI) + 1))
    def test_around_psi_k(self, k):
        # psi_k is composite yet passes the first k prime bases, so it is
        # where k bases would fail: the test must use more there
        psi = exactarith._PSI[k - 1]
        assert prod(_PSI_FACTORS[psi]) == psi
        assert _strong_probable_prime(psi, PRIMES_TO_100[:k])
        assert not is_probable_prime(psi)
        # the odd neighbours against all 25 prime bases below 100, a proof
        # below psi_13 (the even ones are composite)
        for n in (psi - 2, psi + 2):
            assert is_probable_prime(n) == _strong_probable_prime(
                n, PRIMES_TO_100)
        assert not is_probable_prime(psi - 1)
        assert not is_probable_prime(psi + 1)


class TestFactor:
    def test_small(self):
        assert factor(360) == {2: 3, 3: 2, 5: 1}

    @settings(deadline=None)
    @given(st.one_of(
               st.integers(-10 ** 25, 10 ** 25).filter(bool),
               st.builds(lambda s, p, q: s * p * q,
                         st.integers(1, 10 ** 8),
                         st.sampled_from(_BIG_PRIMES + (1,)),
                         st.sampled_from(_BIG_PRIMES + (1,))),
               # a prime above FACTOR_BOUND**2 with small cofactors, which
               # the early stop proves prime partway through the walk
               st.builds(lambda s, p, q: s * p * q,
                         st.integers(1, 10 ** 8),
                         st.sampled_from(_BIG_PRIMES + (1,)),
                         st.sampled_from(_PROVABLE_PRIMES)),
               # just below and above 2**64 and psi_13
               st.integers(2 ** 64 - 10 ** 4, 2 ** 64 + 10 ** 4),
               st.integers(exactarith._PSI[-1] - 10 ** 4,
                           exactarith._PSI[-1] + 10 ** 4),
               # squares of primes, where the early exit p * p > n is tight
               st.lists(st.sampled_from(_reference_primes(1000)),
                        min_size=1, max_size=4).map(lambda ps: prod(ps) ** 2)))
    @example(4)
    @example(2 * (2 ** 64 - 59))
    @example(3317044064679887385961981 - 2)
    def test_matches_reference(self, n):
        expected = _reference_factor(n)
        if expected is None:
            with pytest.raises(FactorizationError):
                factor(n)
        else:
            got = factor(n)
            assert got == expected
            assert list(got) == sorted(got)

    def test_table_matches_block_walk_to_twice_the_bound(self):
        # at or below FACTOR_BOUND, factor reads the least-prime-factor
        # table; above it, the walk hands over to the table once what is
        # left is small enough
        for n in range(1, 2 * FACTOR_BOUND + 1):
            got = factor(n)
            assert list(got.items()) == list(_block_walk_factor(n).items())

    def test_table_matches_block_walk_around_the_bound(self):
        below = [p for p in range(FACTOR_BOUND - 200, FACTOR_BOUND + 1)
                 if is_probable_prime(p)]
        above = [p for p in range(FACTOR_BOUND + 1, FACTOR_BOUND + 200)
                 if is_probable_prime(p)]
        root = isqrt(FACTOR_BOUND)
        near_root = [p for p in range(root - 30, root + 30)
                     if is_probable_prime(p)]
        cases = [FACTOR_BOUND + k for k in range(-1000, 1001)]
        cases += [s * p * q for p in below[-3:] for q in above[:3]
                  for s in (1, 2, 3 * 7, 2 ** 10)]
        cases += [s * p * p for p in near_root + below[-3:] + above[:3]
                  for s in (1, 2, 5)]
        cases += [p * q for p in near_root for q in below[-3:] + above[:3]]
        for n in cases:
            expected = _block_walk_factor(n)
            if expected is None:
                with pytest.raises(FactorizationError):
                    factor(n)
            else:
                got = factor(n)
                assert list(got.items()) == list(expected.items())

    def test_cofactor_around_bound_squared(self, monkeypatch):
        # a cofactor c <= 10^10 has no room for two primes > 10^5 and is
        # accepted untested; above 10^10 it must prove prime
        calls = []

        def counting(n):
            calls.append(n)
            return is_probable_prime(n)

        monkeypatch.setattr(exactarith, "is_probable_prime", counting)
        assert factor(2 * 9999999967) == {2: 1, 9999999967: 1}
        assert calls == []
        assert factor(2 * 10000000019) == {2: 1, 10000000019: 1}
        assert calls == [10000000019]
        with pytest.raises(FactorizationError):
            # the least composite with no prime factor up to 10^5
            factor(100003 ** 2)
        assert factor(10007 * 10009) == {10007: 1, 10009: 1}

    def _spy(self, monkeypatch):
        """Record the block gcds and primality tests that `factor` makes."""
        calls = {"gcd": 0, "prime": []}

        def counting_gcd(*args):
            calls["gcd"] += 1
            return gcd(*args)

        def counting_prime(n):
            calls["prime"].append(n)
            return is_probable_prime(n)

        monkeypatch.setattr(exactarith, "gcd", counting_gcd)
        monkeypatch.setattr(exactarith, "is_probable_prime", counting_prime)
        return calls

    def test_early_stop_on_proved_prime(self, monkeypatch):
        # after the first block what is left is a 64-bit prime, proved
        # before the second block's gcd
        q = 2 ** 64 - 59
        calls = self._spy(monkeypatch)
        assert list(factor(2 * q).items()) == [(2, 1), (q, 1)]
        assert calls == {"gcd": 1, "prime": [q]}

    def test_composite_cofactor_tested_once(self, monkeypatch):
        c = 100003 * 100019 * 100043
        calls = self._spy(monkeypatch)
        with pytest.raises(FactorizationError):
            factor(3 * c)
        assert calls["prime"] == [c]
        assert calls["gcd"] == len(exactarith._prime_blocks())

    def test_prime_cofactor_accepted(self):
        big = 2 ** 61 - 1  # prime
        assert factor(4 * big) == {2: 2, big: 1}

    def test_composite_cofactor_rejected(self):
        p = 1000003
        with pytest.raises(FactorizationError):
            factor(p * p * 1000033)

    def test_primes_up_to(self):
        assert primes_up_to(100) == PRIMES_TO_100
        assert primes_up_to(97)[-1] == 97
        assert primes_up_to(1) == [] and primes_up_to(2) == [2]


def brute_roots(coeffs, p):
    return [r for r in range(p)
            if sum(c * pow(r, i, p) for i, c in enumerate(coeffs)) % p == 0]


class TestModularRoots:
    def test_poly_roots_match_brute_force(self):
        rng = random.Random(21)
        for _ in range(300):
            p = rng.choice([2, 3, 5, 7, 11, 101, 997])
            deg = rng.randint(1, 5)
            coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
            assert poly_roots_mod(coeffs, p) == brute_roots(coeffs, p)

    @pytest.mark.parametrize("p", [17, 97, 193, 257, 7681, 12289])
    def test_primes_with_deep_two_power(self, p):
        # p - 1 = 2^s q with s from 4 to 12, so the Tonelli-Shanks loop runs
        # for several rounds; z^2 - a covers every residue a
        squares = {}
        for r in range(p):
            squares.setdefault(r * r % p, []).append(r)
        for a in range(p):
            assert poly_roots_mod([-a, 0, 1], p) == sorted(squares.get(a, []))
        rng = random.Random(p)
        for _ in range(12):
            deg = rng.randint(1, 4)
            coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
            assert poly_roots_mod(coeffs, p) == brute_roots(coeffs, p)

    @pytest.mark.parametrize("coeffs,p,roots", [
        ([3, 5], 7, [5]),
        ([0, 4], 11, [0]),
        # discriminant 0 mod p: one double root
        ([4, 4, 1], 7, [5]),
        ([1, 4, 4], 11, [5]),
        ([25, 10, 1], 97, [92]),
        ([0, 0, 3], 5, [0]),
        # top coefficient 0 mod p, as the sampler passes a factor's
        # z-polynomial unreduced
        ([2, 3, 7], 7, [4]),
        ([-4, 0, 14], 13, [2, 11]),
        ([-4, 0, 1, 13], 13, [2, 11]),
        ([5, 0, 0, 17], 17, []),
        ([1, 14, 21], 7, []),
        ([7, 14, 21], 7, list(range(7))),
    ])
    def test_low_degree_edge_cases(self, coeffs, p, roots):
        assert brute_roots(coeffs, p) == roots
        assert poly_roots_mod(coeffs, p) == roots

    def test_constant_factor_changes_no_draw(self, gq, hq):
        # a constant factor, or the content of a form, has no zero locus:
        # the point and the rng state are those without it, whatever p
        # divides
        constants = [MultiPoly([(c, (0, 0, 0))]) for c in (-1, 3, -35)]
        primes = primes_up_to(10 ** 4)[1:]
        for p in [3, 5, 7] + random.Random(9).sample(primes, 100):
            for const in constants:
                for curve in ((const, gq, hq), (const * gq, hq)):
                    with_const, without = random.Random(p), random.Random(p)
                    assert (_random_point_on_curve(_z_evaluators(curve), p,
                                                   with_const)
                            == _random_point_on_curve(_z_evaluators((gq, hq)),
                                                      p, without))
                    assert with_const.getstate() == without.getstate()

    @pytest.mark.parametrize("which", ["quartic", "cubic"])
    def test_factorwise_curve_points_match_product(self, which,
                                                   quartic_algebra,
                                                   cubic_algebra):
        # drawing from the factors of H gives the point H itself gives and
        # leaves the rng in the same state (at p = 3 the quartic's first draw
        # makes both g and h vanish in z, so every z is a root)
        factors = (quartic_algebra if which == "quartic"
                   else cubic_algebra).second_factors
        primes = primes_up_to(10 ** 4)[3:]
        for p in [3, 5] + random.Random(8).sample(primes, 198):
            by_factor, by_product = random.Random(p), random.Random(p)
            assert (_random_point_on_curve(_z_evaluators(factors), p,
                                           by_factor)
                    == _random_point_on_curve(_z_evaluators((prod(factors),)),
                                              p, by_product))
            assert by_factor.getstate() == by_product.getstate()
