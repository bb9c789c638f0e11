"""Command-line front end: parse instance files, dispatch engine operations,
emit canonical JSON reports, return meaningful exit codes.

Exit codes: 0 verdict reached (or subcommand succeeded), 1 usage/schema
error, 2 internal inconsistency, 3 inconclusive verdict, an input that
bounded trial division could not factor, or an algebra whose square
condition cannot be sampled.
"""

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from importlib import resources

from .exactarith import FactorizationError, require_prime
from .localsymbols import Place, hilbert_symbol, local_invariant, \
    reciprocity_defect
from .multipoly import MultiPoly
from .obstruction import (DEFAULT_SEED, INCONCLUSIVE,
                          InternalInconsistencyError, ObstructionInstance,
                          QuaternionAlgebraSpec, SquareSamplingError,
                          class_invariant_table, obstruction_verdict,
                          padic_answer_record, point_invariant_profile,
                          residue_sieve, search_record)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONSISTENT = 2
EXIT_INCONCLUSIVE = 3


class SchemaError(ValueError):
    pass


def _expect_keys(obj, required, optional=(), where="instance"):
    if not isinstance(obj, dict):
        raise SchemaError("%s: expected an object" % where)
    for key in obj:
        if key not in required and key not in optional:
            raise SchemaError("%s: unknown key %r" % (where, key))
    for key in required:
        if key not in obj:
            raise SchemaError("%s: missing key %r" % (where, key))


def _term_list(data, where):
    if not isinstance(data, list) or not all(
            isinstance(q, list) and len(q) == 4 and
            all(type(c) is int for c in q) for q in data):
        raise SchemaError("%s: expected a list of [coeff, ex, ey, ez]" % where)
    return MultiPoly.from_term_list(data)


def _algebra(doc):
    """The algebra entries, with their factor forms when `factors` lists
    them; QuaternionAlgebraSpec checks that each list multiplies to its
    entry."""
    _expect_keys(doc, ["first", "second"], optional=["factors"],
                 where="algebra")
    entries = [_term_list(doc[k], "algebra." + k) for k in ("first", "second")]
    factors = doc.get("factors")
    if factors is not None:
        _expect_keys(factors, ["first", "second"], where="algebra.factors")
        for k in ("first", "second"):
            if not isinstance(factors[k], list):
                raise SchemaError("algebra.factors.%s: expected a list of "
                                  "term lists" % k)
            entries.append(tuple(
                _term_list(q, "algebra.factors.%s[%d]" % (k, i))
                for i, q in enumerate(factors[k])))
    return QuaternionAlgebraSpec(*entries)


def parse_instance(doc):
    """Validate an instance document (strict schema) and build the engine
    ObstructionInstance."""
    _expect_keys(doc, ["name", "poly", "targets", "algebra", "sieve_modulus",
                       "rational_witness", "search_bound"])
    witness = doc["rational_witness"]
    if witness is not None:
        if (not isinstance(witness, list) or len(witness) != 3 or not all(
                isinstance(c, list) and len(c) == 2 and c[1] != 0 and
                all(type(n) is int for n in c) for c in witness)):
            raise SchemaError("rational_witness must be null or three "
                              "[num, den] pairs of ints with den nonzero, "
                              "got %r" % (witness,))
        witness = tuple(Fraction(n, d) for n, d in witness)
    return ObstructionInstance(
        name=doc["name"],
        f=_term_list(doc["poly"], "poly"),
        targets=(tuple(doc["targets"]) if isinstance(doc["targets"], list)
                 else doc["targets"]),
        algebra=_algebra(doc["algebra"]),
        sieve_modulus=doc["sieve_modulus"],
        rational_witness=witness,
        search_bound=doc["search_bound"],
    )


def _decode(text, path):
    """The JSON document of an instance file's text; a document nested too
    deeply for the decoder is a SchemaError, like any other bad input."""
    try:
        return json.loads(text)
    except RecursionError:
        raise SchemaError("%s: nested too deeply to decode" % path) from None


def load_instance(path):
    """Load an instance from a file path, or from the bundled instances when
    the bare name of one is given (e.g. 'quartic')."""
    if not os.path.exists(path):
        name = path[:-5] if path.endswith(".json") else path
        res = resources.files("obstruction_lab").joinpath(
            "instances/%s.json" % name)
        if res.is_file():
            return parse_instance(_decode(res.read_text(), path))
        raise SchemaError("no such instance file: %s" % path)
    with open(path) as fh:
        return parse_instance(_decode(fh.read(), path))


def _parse_number(text):
    """Decimal integer or fraction 'n/d'."""
    if "/" in text:
        num, den = (int(t) for t in text.split("/", 1))
        if den == 0:
            raise SchemaError("zero denominator in %r" % (text,))
        return Fraction(num, den)
    return Fraction(int(text))


def _parse_place(text):
    if text == "real":
        return Place.real()
    p = int(text)
    require_prime(p)
    return Place(p)


def _emit(doc, out):
    text = json.dumps(doc, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="obstruction-lab",
        description="Verify Brauer-Manin obstructions to integral points on "
                    "plane-curve complements over Q.")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the full pipeline on an instance")
    v.add_argument("instance")
    v.add_argument("--seed", type=int, default=DEFAULT_SEED)
    v.add_argument("--bound", type=int, default=None)
    v.add_argument("--target", type=int, default=None,
                   help="override the instance target list with one value")
    v.add_argument("--out", default=None)

    hb = sub.add_parser("hilbert", help="Hilbert symbol at one place")
    hb.add_argument("a")
    hb.add_argument("b")
    hb.add_argument("place", help="a prime, or 'real'")
    # let "-22/5" parse as a positional, not an unknown flag
    hb._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")

    rc = sub.add_parser("reciprocity", help="sum of local invariants")
    rc.add_argument("a")
    rc.add_argument("b")
    rc._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")

    lc = sub.add_parser("local", help="p-adic solubility search")
    lc.add_argument("instance")
    lc.add_argument("-p", type=int, required=True)
    lc.add_argument("--depth", type=int, default=None)

    sv = sub.add_parser("sieve", help="residue classes hitting each target")
    sv.add_argument("instance")
    sv.add_argument("-m", type=int, default=None)

    tb = sub.add_parser("table",
                        help="2-adic invariant table on each target's classes")
    tb.add_argument("instance")

    pf = sub.add_parser("profile", help="local invariants at a point")
    pf.add_argument("instance")
    pf.add_argument("-P", required=True, help="X,Y,Z")

    sr = sub.add_parser("search", help="bounded primitive integer search")
    sr.add_argument("instance")
    sr.add_argument("-B", type=int, default=None)

    tr = sub.add_parser("torsion", help="torsion subgroup of a plane cubic")
    tr.add_argument("c3", type=int)
    tr.add_argument("c2", type=int)
    tr.add_argument("c1", type=int)
    tr.add_argument("c0", type=int)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _dispatch(args)
    except InternalInconsistencyError as exc:
        print("internal inconsistency: %s" % exc, file=sys.stderr)
        return EXIT_INCONSISTENT
    except (FactorizationError, SquareSamplingError) as exc:
        print("inconclusive: %s" % exc, file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (ValueError, OSError) as exc:
        # SchemaError and json.JSONDecodeError are ValueErrors
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args):
    cmd = args.command
    if cmd == "verify":
        instance = load_instance(args.instance)
        # _replace runs the instance checks on the overrides
        if args.target is not None:
            instance = instance._replace(targets=(args.target,))
        if args.bound is not None:
            instance = instance._replace(search_bound=args.bound)
        report = obstruction_verdict(instance, seed=args.seed)
        _emit(report, args.out)
        return (EXIT_INCONCLUSIVE if report["verdict"] == INCONCLUSIVE
                else EXIT_OK)

    if cmd == "hilbert":
        a, b = _parse_number(args.a), _parse_number(args.b)
        place = _parse_place(args.place)
        sym = hilbert_symbol(a, b, place)
        _emit({"symbol": sym, "invariant": str(local_invariant(a, b, place))},
              None)
        return EXIT_OK

    if cmd == "reciprocity":
        a, b = _parse_number(args.a), _parse_number(args.b)
        defect = reciprocity_defect(a, b)
        _emit({"defect": str(defect)}, None)
        if defect != 0:
            raise InternalInconsistencyError("nonzero reciprocity defect")
        return EXIT_OK

    if cmd == "local":
        require_prime(args.p)
        instance = load_instance(args.instance)
        ans = padic_answer_record(instance.f, instance.targets[0], args.p,
                                  args.depth)
        _emit(ans, None)
        return (EXIT_INCONCLUSIVE if ans["verdict"] == "inconclusive"
                else EXIT_OK)

    if cmd == "sieve":
        instance = load_instance(args.instance)
        m = args.m if args.m is not None else instance.sieve_modulus
        _emit({str(t): residue_sieve(instance.f, m, t)
               for t in instance.targets}, None)
        return EXIT_OK

    if cmd == "table":
        instance = load_instance(args.instance)
        _emit({str(t): class_invariant_table(
                   instance.f, t, instance.algebra,
                   residue_sieve(instance.f, instance.sieve_modulus, t))
               for t in instance.targets}, None)
        return EXIT_OK

    if cmd == "profile":
        instance = load_instance(args.instance)
        point = tuple(int(c) for c in args.P.split(","))
        if len(point) != 3:
            raise SchemaError("-P takes three coordinates X,Y,Z, got %r"
                              % (args.P,))
        prof = point_invariant_profile(instance.algebra, point)
        doc = {"point": list(prof.point),
               "values": list(prof.values),
               "invariants": {str(pl): str(iv) for pl, iv in prof.invariants},
               "sum": str(prof.total)}
        _emit(doc, None)
        if prof.total != 0:
            raise InternalInconsistencyError("nonzero invariant sum")
        return EXIT_OK

    if cmd == "search":
        instance = load_instance(args.instance)
        bound = args.B if args.B is not None else instance.search_bound
        _emit({str(t): search_record(instance.f, t, bound)
               for t in instance.targets}, None)
        return EXIT_OK

    if cmd == "torsion":
        # imported here, so that no other command loads it
        from . import elliptic
        curve = elliptic.to_weierstrass(args.c3, args.c2, args.c1, args.c0)
        group = elliptic.torsion_subgroup(curve)
        # torsion points are integral (Nagell-Lutz)
        _emit({"group": group.structure,
               "points": [[int(P.u), int(P.v)] for P in group.points],
               "generators": [[int(P.u), int(P.v)]
                              for P in group.generators]}, None)
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
