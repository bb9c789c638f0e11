from math import prod

import pytest

from obstruction_lab import localsymbols
from obstruction_lab.cli import load_instance
from obstruction_lab.multipoly import MultiPoly
from obstruction_lab.obstruction import QuaternionAlgebraSpec


def quartic_f():
    # -2x^4 - y^4 + 18z^4
    return MultiPoly([(-2, (4, 0, 0)), (-1, (0, 4, 0)), (18, (0, 0, 4))])


def quartic_g():
    return MultiPoly([(-28, (2, 0, 0)), (-36, (1, 1, 0)), (7, (0, 2, 0)),
                      (72, (0, 0, 2))])


def quartic_h():
    return MultiPoly([(-25, (2, 0, 0)), (16, (1, 1, 0)), (-22, (0, 2, 0)),
                      (81, (0, 0, 2))])


def cubic_f():
    # y^2 z - (4x - z)(16x^2 + 20xz + 7z^2)
    return MultiPoly([(1, (0, 2, 1)), (-64, (3, 0, 0)), (-64, (2, 0, 1)),
                      (-8, (1, 0, 2)), (7, (0, 0, 3))])


@pytest.fixture(scope="session")
def fq():
    return quartic_f()


@pytest.fixture(scope="session")
def gq():
    return quartic_g()


@pytest.fixture(scope="session")
def hq():
    return quartic_h()


@pytest.fixture(scope="session")
def fc():
    return cubic_f()


def algebra_from_factors(first, second):
    """The algebra whose entries are the products of the given factors."""
    return QuaternionAlgebraSpec(prod(first), prod(second), tuple(first),
                                 tuple(second))


@pytest.fixture(scope="session")
def quartic_algebra(fq, gq, hq):
    return algebra_from_factors((fq, hq), (MultiPoly([(-1, (0, 0, 0))]), gq, hq))


@pytest.fixture(scope="session")
def cubic_algebra(fc):
    z = MultiPoly([(1, (0, 0, 1))])
    return algebra_from_factors(
        (z, fc), (z, MultiPoly([(4, (1, 0, 0)), (-1, (0, 0, 1))])))


@pytest.fixture(scope="session")
def quartic_instance():
    return load_instance("quartic")


@pytest.fixture(scope="session")
def cubic_instance():
    return load_instance("cubic")


@pytest.fixture()
def symbol_flipped_at_two(monkeypatch):
    """Flip every Hilbert symbol at the prime 2 inside the engine: each
    invariant sum over places that include 2 then reads 1/2."""
    real = localsymbols.symbol_at_prime
    monkeypatch.setattr(localsymbols, "symbol_at_prime", lambda a, b, p:
                        -real(a, b, p) if p == 2 else real(a, b, p))
