import importlib.util
import itertools
import pathlib
import random
from fractions import Fraction

import pytest

from obstruction_lab.exactarith import (FactorizationError, factor, jacobi,
                                        valuation)
from obstruction_lab.localsymbols import (Place, default_oracle_depth,
                                          hilbert_symbol, local_invariant,
                                          place_invariants,
                                          reciprocity_defect,
                                          solubility_oracle, symbol_at_prime)

REAL = Place.real()
SMALL_PLACES = [Place(p) for p in (2, 3, 5, 7, 11, 13)] + [REAL]


class TestHilbertSymbol:
    def test_three_three_at_two(self):
        assert hilbert_symbol(3, 3, Place(2)) == -1

    def test_negative_definite_real(self):
        assert hilbert_symbol(-1, -1, REAL) == -1

    def test_section_values_at_two(self):
        # f*h and -g*h at (0,1,1); both are 3 mod 4
        assert hilbert_symbol(1003, -4661, Place(2)) == -1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            hilbert_symbol(0, 5, REAL)

    def test_symmetry(self):
        rng = random.Random(23)
        for _ in range(10000):
            a = rng.randint(-200, 200) or 1
            b = rng.randint(-200, 200) or 1
            place = rng.choice(SMALL_PLACES)
            assert hilbert_symbol(a, b, place) == hilbert_symbol(b, a, place)

    def test_bimultiplicative(self):
        rng = random.Random(29)
        for _ in range(2000):
            a = rng.randint(-100, 100) or 1
            b1 = rng.randint(-100, 100) or 1
            b2 = rng.randint(-100, 100) or 1
            place = rng.choice(SMALL_PLACES)
            assert hilbert_symbol(a, b1 * b2, place) == \
                hilbert_symbol(a, b1, place) * hilbert_symbol(a, b2, place)

    def test_square_stability(self):
        rng = random.Random(31)
        for _ in range(2000):
            a = rng.randint(-100, 100) or 1
            b = rng.randint(-100, 100) or 1
            s = rng.randint(1, 50)
            place = rng.choice(SMALL_PLACES)
            assert hilbert_symbol(a * s * s, b, place) == \
                hilbert_symbol(a, b, place)

    def test_norm_relation(self):
        rng = random.Random(37)
        for _ in range(2000):
            a = Fraction(rng.randint(-100, 100) or 1, rng.randint(1, 50))
            place = rng.choice(SMALL_PLACES)
            assert hilbert_symbol(a, -a, place) == 1


def jacobi_formula(a, b, p):
    """(a, b)_p at an odd prime p for integers a, b, with the Legendre
    symbols taken as Jacobi symbols (Serre, A Course in Arithmetic, III.1):
    (-1)^(alpha beta eps(p)) (u/p)^beta (v/p)^alpha for a = p^alpha u,
    b = p^beta v."""
    alpha, beta = valuation(a, p), valuation(b, p)
    u, v = a // p ** alpha, b // p ** beta
    sign = -1 if (alpha * beta * ((p - 1) // 2)) % 2 else 1
    if beta % 2:
        sign *= jacobi(u % p, p)
    if alpha % 2:
        sign *= jacobi(v % p, p)
    return sign


# 1 and 3 mod 4 from 3 up to 2^31 - 1
ODD_PRIMES = (3, 5, 7, 13, 10007, 10009, 65537, 1000003, 998244353,
              10 ** 9 + 7, 2 ** 31 - 1)


class TestEulerCriterion:
    """Odd-prime symbols through Euler's criterion, against the former
    Jacobi-symbol formula."""

    def test_primes_cover_both_classes_mod_4(self):
        assert {p % 4 for p in ODD_PRIMES} == {1, 3}

    @pytest.mark.parametrize("p", ODD_PRIMES)
    def test_matches_jacobi_formula(self, p):
        rng = random.Random(p)
        place = Place(p)

        def unit():
            while True:
                u = rng.choice((rng.randint(1, p - 1),
                                rng.randint(1, 10 ** 12)))
                if u % p:
                    return u

        for ea, eb in itertools.product(range(4), repeat=2):
            for sa, sb in itertools.product((1, -1), repeat=2):
                for _ in range(4):
                    a = sa * unit() * p ** ea
                    b = sb * unit() * p ** eb
                    assert hilbert_symbol(a, b, place) == \
                        jacobi_formula(a, b, p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_fraction_entries_match_oracle(self, p):
        rng = random.Random(100 + p)
        place = Place(p)
        for _ in range(150):
            a, b = (Fraction(rng.choice((1, -1)) * rng.randint(1, 30)
                             * p ** rng.randint(0, 2),
                             rng.randint(1, 12) * p ** rng.randint(0, 1))
                    for _ in range(2))
            assert (hilbert_symbol(a, b, place) == 1) == \
                solubility_oracle(a, b, place)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_both_valuations_odd_match_oracle(self, p):
        # the branch where one power of u v mod p gives (u/p) (v/p)
        rng = random.Random(200 + p)
        place = Place(p)
        seen = set()
        for _ in range(40):
            u, v = (rng.choice((1, -1)) * rng.choice(
                [n for n in range(1, 4 * p) if n % p]) for _ in range(2))
            alpha, beta = rng.choice(((1, 1), (1, 3), (3, 1)))
            a, b = u * p ** alpha, v * p ** beta
            symbol = symbol_at_prime(a, b, p)
            seen.add(symbol)
            assert (symbol == 1) == solubility_oracle(a, b, place)
        assert seen == {1, -1}

    @pytest.mark.parametrize("p", [10007, 998244353, 2 ** 31 - 1])
    def test_fraction_entries_at_large_primes(self, p):
        # n/d lies in the square class of n*d
        rng = random.Random(p)
        place = Place(p)
        for _ in range(200):
            a, b = (Fraction(rng.choice((1, -1)) * rng.randint(1, 10 ** 9)
                             * p ** rng.randint(0, 3),
                             rng.randint(1, 10 ** 6) * p ** rng.randint(0, 3))
                    for _ in range(2))
            assert hilbert_symbol(a, b, place) == jacobi_formula(
                a.numerator * a.denominator, b.numerator * b.denominator, p)


class TestLocalInvariant:
    def test_ramified(self):
        assert local_invariant(3, 3, Place(2)) == Fraction(1, 2)

    def test_split_with_one(self):
        for place in SMALL_PLACES:
            assert local_invariant(1, 7, place) == 0

    def test_at_eleven(self):
        assert local_invariant(22, 154, Place(11)) == 0


class TestReciprocity:
    def test_three_three(self):
        assert reciprocity_defect(3, 3) == 0
        assert local_invariant(3, 3, Place(2)) == Fraction(1, 2)
        assert local_invariant(3, 3, Place(3)) == Fraction(1, 2)

    def test_minus_one_twice(self):
        assert reciprocity_defect(-1, -1) == 0
        assert local_invariant(-1, -1, REAL) == Fraction(1, 2)
        assert local_invariant(-1, -1, Place(2)) == Fraction(1, 2)

    def test_trivial(self):
        assert reciprocity_defect(1, 5) == 0

    def test_fuzz_small(self):
        rng = random.Random(41)
        for _ in range(500):
            a = Fraction(rng.randint(-10**4, 10**4) or 1, rng.randint(1, 10**4))
            b = Fraction(rng.randint(-10**4, 10**4) or 1, rng.randint(1, 10**4))
            assert reciprocity_defect(a, b) == 0

    def test_parity_total_is_the_fraction_sum(self):
        # the walk counts the places with invariant 1/2; its total must equal
        # the sum of the same invariants in (1/2)Z/Z, as a Fraction, and the
        # defect over the primes of a and b is that total
        rng = random.Random(64)
        checked = 0
        for _ in range(150):
            a, b = (rng.randint(1, 2 ** 64) * rng.choice((1, -1))
                    for _ in range(2))
            try:
                primes = {*factor(a), *factor(b)}
            except FactorizationError:
                continue
            invs, total = place_invariants(a, b, primes)
            places = [pl.p for pl, _ in invs]
            assert places == [None] + sorted(primes | {2})
            assert all(iv == local_invariant(a, b, pl) for pl, iv in invs)
            fraction_sum = sum((iv for _, iv in invs), Fraction(0)) % 1
            defect = reciprocity_defect(a, b)
            assert type(total) is Fraction and total == fraction_sum
            assert defect == total
            checked += 1
        assert checked > 50

    def test_flipped_symbol_gives_half(self, symbol_flipped_at_two):
        assert local_invariant(3, 3, Place(2)) == 0
        assert reciprocity_defect(3, 3) == Fraction(1, 2)
        assert reciprocity_defect(1, 5) == Fraction(1, 2)


class TestSolubilityOracle:
    def test_three_three_insoluble_at_two(self):
        assert solubility_oracle(3, 3, Place(2), depth=8) is False

    def test_two_adic_square(self):
        assert solubility_oracle(17, 2, Place(2), depth=8) is True

    def test_real(self):
        assert solubility_oracle(-1, -1, REAL) is False
        assert solubility_oracle(-1, 1, REAL) is True

    def test_default_depth(self):
        assert default_oracle_depth(1, 1, 2) == 10
        assert default_oracle_depth(3, 3, 3) == 10

    def test_agrees_with_symbol_on_sample(self):
        rng = random.Random(43)
        for _ in range(300):
            a = rng.randint(-50, 50) or 1
            b = rng.randint(-50, 50) or 1
            place = rng.choice(SMALL_PLACES)
            assert (hilbert_symbol(a, b, place) == 1) == \
                solubility_oracle(a, b, place)


@pytest.fixture()
def oracle_grid():
    path = pathlib.Path(__file__).parent.parent / "scripts" / "oracle_grid.py"
    spec = importlib.util.spec_from_file_location("oracle_grid", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestOracleGridScript:
    ARGS = ["--bound", "3", "--primes", "2,3"]

    def test_clean_grid_exits_zero(self, oracle_grid, capsys):
        assert oracle_grid.main(self.ARGS) == 0
        assert capsys.readouterr().out == \
            "108 checks, 0 disagreements, 0 inconclusive\n"

    def test_default_primes_are_read_through_the_check(self, oracle_grid,
                                                        capsys):
        # 2 * 2 pairs at the six default primes and the real place
        assert oracle_grid.main(["--bound", "1"]) == 0
        assert capsys.readouterr().out == \
            "28 checks, 0 disagreements, 0 inconclusive\n"

    # an empty grid or a bad prime is a usage error, not a passing run
    @pytest.mark.parametrize("args, message", [
        (["--bound", "0"], "must be at least 1, got 0"),
        (["--bound", "-3"], "must be at least 1, got -3"),
        (["--primes", "2,4"], "not a prime: 4"),
        (["--primes", "3,561"], "not a prime: 561"),
        (["--primes", ""], "invalid prime_list value"),
    ])
    def test_bad_arguments_exit_two(self, oracle_grid, capsys, args,
                                    message):
        with pytest.raises(SystemExit) as exc:
            oracle_grid.main(args)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err

    def test_disagreement_exits_one(self, oracle_grid, capsys, monkeypatch):
        # a Hilbert symbol flipped at the place 3 disagrees with the search
        monkeypatch.setattr(oracle_grid, "hilbert_symbol", lambda a, b, pl:
                            -hilbert_symbol(a, b, pl) if pl.p == 3
                            else hilbert_symbol(a, b, pl))
        assert oracle_grid.main(self.ARGS) == 1
        out = capsys.readouterr().out
        assert out.count("mismatch") == 36
        assert out.endswith("108 checks, 36 disagreements, 0 inconclusive\n")

    def test_inconclusive_search_exits_one(self, oracle_grid, capsys,
                                           monkeypatch):
        monkeypatch.setattr(oracle_grid, "solubility_oracle", lambda a, b, pl:
                            None if (a, b, pl.p) == (1, 1, 2)
                            else solubility_oracle(a, b, pl))
        assert oracle_grid.main(self.ARGS) == 1
        assert capsys.readouterr().out.endswith(
            "108 checks, 0 disagreements, 1 inconclusive\n")
