#!/usr/bin/env python3
"""Cross-check the conic solubility search against the Hilbert symbol on a
grid of coefficient pairs.  Any disagreement, and any check the search
leaves inconclusive, is printed; the run ends with a one-line tally and
exits 1 if there was either, else 0.

Usage: python3 scripts/oracle_grid.py [--bound B] [--primes 2,3,5,7]
"""

import argparse
import sys

from obstruction_lab.exactarith import require_prime
from obstruction_lab.localsymbols import Place, hilbert_symbol, solubility_oracle


def positive_int(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % n)
    return n


def prime_list(text):
    """Comma-separated primes, each checked with `require_prime`."""
    primes = [int(t) for t in text.split(",")]
    for p in primes:
        try:
            require_prime(p)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return primes


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--bound", type=positive_int, default=25)
    ap.add_argument("--primes", type=prime_list, default="2,3,5,7,11,13")
    args = ap.parse_args(argv)

    places = [Place(p) for p in args.primes]
    places.append(Place.real())
    checked = disagreements = inconclusive = 0
    B = args.bound
    for a in range(-B, B + 1):
        if a == 0:
            continue
        for b in range(-B, B + 1):
            if b == 0:
                continue
            for place in places:
                checked += 1
                expected = hilbert_symbol(a, b, place) == 1
                got = solubility_oracle(a, b, place)
                if got is None:
                    inconclusive += 1
                    print("inconclusive a=%d b=%d place=%s symbol=%s"
                          % (a, b, place, expected))
                elif got is not expected:
                    disagreements += 1
                    print("mismatch a=%d b=%d place=%s symbol=%s search=%s"
                          % (a, b, place, expected, got))
    print("%d checks, %d disagreements, %d inconclusive"
          % (checked, disagreements, inconclusive))
    return 1 if disagreements or inconclusive else 0


if __name__ == "__main__":
    sys.exit(main())
