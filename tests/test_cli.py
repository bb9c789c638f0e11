import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obstruction_lab import cli, obstruction


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the first primes above 2^40 and 2^41
P40, P41 = 1099511627791, 2199023255579


def bundled_doc(name):
    return json.loads(cli.resources.files("obstruction_lab")
                      .joinpath("instances/%s.json" % name).read_text())


def bundled_path(tmp_path, name):
    doc = bundled_doc(name)
    path = tmp_path / ("%s.json" % name)
    path.write_text(json.dumps(doc))
    return path, doc


@pytest.fixture()
def quartic_path(tmp_path):
    return bundled_path(tmp_path, "quartic")


@pytest.fixture()
def cubic_path(tmp_path):
    return bundled_path(tmp_path, "cubic")


def field_paths(node, path=()):
    """The path (keys and list indices) of every field below node."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from field_paths(child, path + (key,))


BUNDLED_FIELDS = [(name, path) for name in ("cubic", "quartic")
                  for path in field_paths(bundled_doc(name))]


def mutated(value, kind):
    """value with a wrong type, the wrong sign, zero, empty or too large."""
    if kind == "type":
        return 1 if isinstance(value, str) else "x"
    if kind == "sign":
        return -value if type(value) is int else -1
    if kind == "zero":
        return 0
    if kind == "empty":
        return type(value)() if isinstance(value, (list, dict, str)) else []
    return 10 ** 40


def run_child(*argv):
    """Run the CLI in a child process with a time limit, so that an input
    on which it would hang fails the test instead of stalling the suite."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "obstruction_lab.cli",
                           *argv], capture_output=True, text=True,
                          timeout=60, env=env)


def test_startup_imports_no_dataclasses_or_elliptic():
    """Importing the CLI and loading both bundled instances leaves out
    `dataclasses` (with the `inspect` it imports) and `elliptic`, which
    only `torsion` loads.  Names that a bare interpreter or the standard
    modules the CLI imports have loaded are not the package's doing: from
    Python 3.12 on, `importlib.resources` imports `inspect`."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys, argparse, json, fractions; "
            "from importlib import resources; "
            "before = set(sys.modules); "
            "from obstruction_lab import cli; "
            "cli.load_instance('quartic'); cli.load_instance('cubic'); "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "obstruction_lab.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "obstruction_lab.elliptic"}


class TestSubcommands:
    def test_hilbert(self, capsys):
        code, out, _ = run_cli(capsys, "hilbert", "3", "3", "2")
        assert code == 0
        assert json.loads(out) == {"symbol": -1, "invariant": "1/2"}

    def test_hilbert_real(self, capsys):
        code, out, _ = run_cli(capsys, "hilbert", "1", "7", "real")
        assert code == 0
        assert json.loads(out) == {"symbol": 1, "invariant": "0"}

    def test_hilbert_fraction_args(self, capsys):
        code, out, _ = run_cli(capsys, "hilbert", "3/7", "-22/5", "2")
        assert code == 0

    def test_reciprocity(self, capsys):
        code, out, _ = run_cli(capsys, "reciprocity", "3", "3")
        assert code == 0
        assert json.loads(out) == {"defect": "0"}

    def test_torsion(self, capsys):
        code, out, _ = run_cli(capsys, "torsion", "64", "64", "8", "-7")
        assert code == 0
        doc = json.loads(out)
        assert doc["group"] == "Z/2"
        assert doc["points"] == [[16, 0]]

    def test_local(self, capsys):
        code, out, _ = run_cli(capsys, "local", "quartic", "-p", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "yes" and doc["witness"] == [0, 3, 1]

    def test_sieve(self, capsys):
        code, out, _ = run_cli(capsys, "sieve", "cubic", "-m", "2")
        assert code == 0
        assert json.loads(out)["1"]["classes"] == [[0, 0, 1], [1, 0, 1]]

    def test_profile(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "quartic", "-P", "0,1,0")
        assert code == 0
        doc = json.loads(out)
        assert doc["values"] == [22, 154] and doc["sum"] == "0"

    def test_reciprocity_nonzero_defect_exit_two(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "reciprocity_defect",
                            lambda a, b: Fraction(1, 2))
        code, out, err = run_cli(capsys, "reciprocity", "3", "3")
        assert code == 2
        assert json.loads(out) == {"defect": "1/2"}
        assert err == "internal inconsistency: nonzero reciprocity defect\n"

    def test_profile_nonzero_sum_exit_two(self, capsys, monkeypatch):
        profile = cli.point_invariant_profile
        monkeypatch.setattr(cli, "point_invariant_profile", lambda alg, pt:
                            profile(alg, pt)._replace(total=Fraction(1, 2)))
        code, out, err = run_cli(capsys, "profile", "quartic", "-P", "0,1,0")
        assert code == 2
        assert json.loads(out)["sum"] == "1/2"
        assert err == "internal inconsistency: nonzero invariant sum\n"

    def test_flipped_symbol_reciprocity_exit_two(self, capsys,
                                                 symbol_flipped_at_two):
        # the defect itself, not a patched result, reaches the exit code
        code, out, err = run_cli(capsys, "reciprocity", "3", "3")
        assert code == 2
        assert json.loads(out) == {"defect": "1/2"}
        assert err == "internal inconsistency: nonzero reciprocity defect\n"

    def test_flipped_symbol_profile_exit_two(self, capsys,
                                             symbol_flipped_at_two):
        code, out, err = run_cli(capsys, "profile", "quartic", "-P", "0,1,0")
        assert code == 2
        doc = json.loads(out)
        assert doc["invariants"]["2"] == "1/2" and doc["sum"] == "1/2"
        assert err == "internal inconsistency: nonzero invariant sum\n"

    def test_profile_factors_each_factor_value(self, capsys):
        # the first entry's value here, 84521752717201821175, leaves the
        # composite cofactor 474515611081 after trial division; its factor
        # values do not
        code, out, _ = run_cli(capsys, "profile", "quartic",
                               "-P=-882,863,39")
        assert code == 0
        doc = json.loads(out)
        assert doc["sum"] == "0"
        assert doc["invariants"]["168449"] == "1/2"

    def test_search(self, capsys):
        code, out, _ = run_cli(capsys, "search", "quartic", "-B", "20")
        assert code == 0
        assert json.loads(out)["1"]["solutions"] == []

    def test_search_solves_a_variable_in_several_terms(self, capsys,
                                                       quartic_path):
        # z occurs only as z^2, in three terms: f = (x^2 + 3xy - y^2) z^2
        # + x^4 - 5y^4 + xy^3 is searched for z with C = x^2 + 3xy - y^2
        path, doc = quartic_path
        doc["poly"] = [[1, 2, 0, 2], [3, 1, 1, 2], [-1, 0, 2, 2],
                       [1, 4, 0, 0], [-5, 0, 4, 0], [1, 1, 3, 0]]
        doc["targets"] = [2, 9, -5, 3]
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "search", str(path), "-B", "5")
        assert (code, err) == (0, "")
        f = cli.MultiPoly.from_term_list(doc["poly"])
        assert json.loads(out) == {
            str(t): {"bound": 5, "solutions": [
                list(s) for s in obstruction.naive_integer_search(f, t, 5)]}
            for t in doc["targets"]}
        assert json.loads(out)["2"]["solutions"] == [
            [1, 0, -1], [1, 0, 1], [4, 3, -1], [4, 3, 1]]


class TestStageRecords:
    @pytest.mark.parametrize("name", ["quartic", "cubic"])
    def test_subcommands_print_verify_steps(self, capsys, name):
        # the stage subcommands print, per target, the records verify writes
        _, out, _ = run_cli(capsys, "verify", name, "--seed", "1")
        steps = json.loads(out)["steps"]
        for argv, step in ((["sieve"], "sieve"),
                           (["table"], "invariant_table"),
                           (["search", "-B", "1000"], "integer_search")):
            code, out, _ = run_cli(capsys, argv[0], name, *argv[1:])
            assert code == 0
            assert out == json.dumps(steps[step], indent=2) + "\n"
        assert list(steps["sieve"]) == (["1", "-1"] if name == "cubic"
                                        else ["1"])

    def test_local_prints_search_witness_answer(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "quartic", "--bound", "5")
        record, = json.loads(out)["steps"]["padic_witnesses"]["records"]
        code, out, _ = run_cli(capsys, "local", "quartic", "-p", "2")
        assert code == 0
        assert json.loads(out) == record["answer"]


class TestVerify:
    def test_quartic_report(self, capsys, quartic_path, monkeypatch):
        path, _ = quartic_path
        # a small search bound for a fast integration pass
        code, out, _ = run_cli(capsys, "verify", str(path), "--bound", "50")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "OBSTRUCTED"
        assert doc["steps"]["sieve"]["1"]["count"] == 512

    def test_golden_stability(self, capsys, quartic_path):
        path, _ = quartic_path
        _, out1, _ = run_cli(capsys, "verify", str(path), "--bound", "30",
                             "--seed", "5")
        _, out2, _ = run_cli(capsys, "verify", str(path), "--bound", "30",
                             "--seed", "5")
        assert out1 == out2

    def test_target_override(self, capsys, quartic_path):
        path, _ = quartic_path
        code, out, _ = run_cli(capsys, "verify", str(path), "--target", "-1",
                               "--bound", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "NOT_OBSTRUCTED"
        assert [0, 1, 0] in doc["steps"]["integer_search"]["-1"]["solutions"]

    def test_solution_in_half_class_not_obstructed(self, capsys, cubic_path):
        # the cubic's 2-torsion family at (b, c) = (-6, -1):
        # y^2 z - (4x - z)(16x^2 - 6xz - z^2) = 1 with the bundled algebra
        # and witness.  Its solution (0, 0, -1) lies in a class certified
        # 1/2 at 2, and its profile is real 1/2 plus 2-adic 1/2, sum 0: an
        # integral point, not an inconsistency
        path, doc = cubic_path
        f = [[-64, 3, 0, 0], [40, 2, 0, 1], [-2, 1, 0, 2], [1, 0, 2, 1],
             [-1, 0, 0, 3]]
        doc["poly"] = doc["algebra"]["factors"]["first"][1] = f
        doc["algebra"]["first"] = [[c, x, y, z + 1] for c, x, y, z in f]
        doc["search_bound"] = 200
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "NOT_OBSTRUCTED"
        search = report["steps"]["integer_search"]
        assert [0, 0, -1] in search["1"]["solutions"]
        assert [len(search[t]["solutions"]) for t in ("1", "-1")] == [7, 7]

    def test_out_file(self, capsys, tmp_path, quartic_path):
        path, _ = quartic_path
        out_file = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "verify", str(path), "--bound", "30",
                               "--out", str(out_file))
        assert code == 0 and out == ""
        assert json.loads(out_file.read_text())["verdict"] == "OBSTRUCTED"

    def test_search_witness(self, capsys):
        # the witness's one bad prime, 2, is searched and covered
        code, out, _ = run_cli(capsys, "verify", "quartic", "--bound", "30")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "OBSTRUCTED"
        step = report["steps"]["padic_witnesses"]
        record, = step["records"]
        assert record["p"] == 2 and record["ok"] is True
        assert record["answer"]["witness"] == [0, 3, 1]
        assert step["uncovered_bad_primes"] == []


    def test_odd_scan_counts(self, capsys):
        for name in ("quartic", "cubic"):
            code, out, _ = run_cli(capsys, "verify", name, "--bound", "5")
            assert code == 0
            odd = json.loads(out)["steps"]["odd_place_scan"]
            assert odd["samples"] == obstruction.ODD_SAMPLES
            assert odd["checked_prime_conditions"] > 0
            assert odd["skipped_unfactored"] == 0
            assert odd["violations"] == []
            assert "reciprocity_points" not in odd


# The algebra entries of the bundled instances before they were given
# factors, as term lists.
QUARTIC_FIRST = [
    [50, 6, 0, 0], [-32, 5, 1, 0], [44, 4, 2, 0], [-162, 4, 0, 2],
    [25, 2, 4, 0], [-450, 2, 0, 4], [-16, 1, 5, 0], [288, 1, 1, 4],
    [22, 0, 6, 0], [-81, 0, 4, 2], [-396, 0, 2, 4], [1458, 0, 0, 6]]
QUARTIC_SECOND = [
    [-700, 4, 0, 0], [-452, 3, 1, 0], [135, 2, 2, 0], [4068, 2, 0, 2],
    [-904, 1, 3, 0], [1764, 1, 1, 2], [154, 0, 4, 0], [1017, 0, 2, 2],
    [-5832, 0, 0, 4]]
CUBIC_FIRST = [[-64, 3, 0, 1], [-64, 2, 0, 2], [-8, 1, 0, 3], [1, 0, 2, 2],
               [7, 0, 0, 4]]
CUBIC_SECOND = [[4, 1, 0, 1], [-1, 0, 0, 2]]


class TestInstanceFactors:
    @pytest.mark.parametrize("name,first,second", [
        ("quartic", QUARTIC_FIRST, QUARTIC_SECOND),
        ("cubic", CUBIC_FIRST, CUBIC_SECOND)])
    def test_bundled_factors_multiply_to_entries(self, name, first, second):
        doc = json.loads(cli.resources.files("obstruction_lab")
                         .joinpath("instances/%s.json" % name).read_text())
        alg = cli.load_instance(name).algebra
        for entry, factors, old in (
                (alg.first, alg.first_factors, first),
                (alg.second, alg.second_factors, second)):
            assert entry.to_term_list() == old
            assert prod(factors).to_term_list() == old
            assert len(factors) > 1
        assert doc["algebra"]["first"] == first
        assert doc["algebra"]["second"] == second

    def test_factors_must_multiply_to_entry(self, capsys, tmp_path,
                                            quartic_path):
        _, doc = quartic_path
        del doc["algebra"]["factors"]["second"][0]  # drop the factor -1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", str(bad))
        assert code == 1
        assert out == ""
        assert "algebra.second" in err

    def test_factors_schema(self, capsys, tmp_path, quartic_path):
        _, doc = quartic_path
        doc["algebra"]["factors"]["third"] = []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "verify", str(bad))
        assert code == 1
        assert "third" in err


class TestExitCodes:
    def test_usage_error_on_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "verify", "/nonexistent.json")
        assert code == 1
        assert "nonexistent" in err

    def test_schema_error_names_unknown_key(self, capsys, tmp_path,
                                            quartic_path):
        _, doc = quartic_path
        doc["extra_knob"] = 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "verify", str(bad))
        assert code == 1
        assert "extra_knob" in err

    def test_deeply_nested_instance_is_usage_error(self, capsys, tmp_path):
        # past the decoder's recursion limit: one error line, no traceback
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000)
        code, out, err = run_cli(capsys, "verify", str(deep))
        assert (code, out) == (1, "")
        assert err == "error: %s: nested too deeply to decode\n" % deep

    def test_schema_error_on_missing_key(self, capsys, tmp_path, quartic_path):
        _, doc = quartic_path
        del doc["sieve_modulus"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "verify", str(bad))
        assert code == 1
        assert "sieve_modulus" in err

    def test_inconclusive_exit_three(self, capsys, tmp_path):
        # x^4 + y^4 + z^4 = 7 has no integer solutions, and the algebra
        # (y^2, z^2) cannot be certified on classes where y, z are even
        doc = {
            "name": "undetermined",
            "poly": [[1, 4, 0, 0], [1, 0, 4, 0], [1, 0, 0, 4]],
            "targets": [7],
            "algebra": {"first": [[1, 0, 2, 0]], "second": [[1, 0, 0, 2]]},
            "sieve_modulus": 2,
            "rational_witness": None,
            "search_bound": 10,
        }
        path = tmp_path / "inc.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 3
        assert json.loads(out)["verdict"] == "INCONCLUSIVE"

    def test_inconsistency_exit_two(self, capsys, monkeypatch, quartic_path):
        path, _ = quartic_path

        def boom(*args, **kwargs):
            raise cli.InternalInconsistencyError("forced for the exit-code test")

        monkeypatch.setattr(cli, "obstruction_verdict", boom)
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert "inconsistency" in err

    @pytest.mark.parametrize("argv", [("hilbert", "3/0", "2", "3"),
                                      ("reciprocity", "1/0", "3")])
    def test_zero_denominator_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "denominator" in err

    # primes are checked where they are read; the engine trusts its p
    @pytest.mark.parametrize("p", ["-7", "-1", "0", "1", "4", "561"])
    @pytest.mark.parametrize("command", [("hilbert", "3", "3"),
                                         ("local", "quartic", "-p")])
    def test_nonprime_is_usage_error(self, capsys, command, p):
        code, out, err = run_cli(capsys, *command, p)
        assert code == 1
        assert out == ""
        assert err == "error: not a prime: %s\n" % p

    def test_local_checks_the_prime_before_the_instance(self, capsys):
        code, out, err = run_cli(capsys, "local", "/nonexistent.json",
                                 "-p", "4")
        assert (code, out, err) == (1, "", "error: not a prime: 4\n")

    @pytest.mark.parametrize("point", ["a,1,1", "1,2", "1,2,3,4"])
    def test_bad_profile_point_is_usage_error(self, capsys, point):
        code, out, err = run_cli(capsys, "profile", "quartic", "-P=" + point)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    # an empty search box is no evidence: no report, no verdict; a bound
    # above 10,000 (SEARCH_MAX_BOUND) would run for hours as B grows; and
    # --target goes through the instance checks, where 0 is no target
    @pytest.mark.parametrize("argv", [("verify", "quartic", "--bound", "-1"),
                                      ("search", "quartic", "-B", "-1"),
                                      ("verify", "quartic", "--target", "0"),
                                      ("verify", "quartic", "--bound",
                                       "10001"),
                                      ("search", "quartic", "-B", "10001")])
    def test_negative_bound_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_largest_search_bound_runs(self, capsys, quartic_path):
        # 10,000 is the largest bound that --bound, -B or an instance's
        # search_bound may give (10,001 is refused with the negative ones)
        path, doc = quartic_path
        doc["search_bound"] = 10000
        path.write_text(json.dumps(doc))
        for argv in (("verify", "quartic", "--bound", "10000"),
                     ("search", "quartic", "-B", "10000"),
                     ("search", str(path))):
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, "")
            doc = json.loads(out)
            if argv[0] == "verify":
                assert doc["verdict"] == "OBSTRUCTED"
                doc = doc["steps"]["integer_search"]
            assert doc == {"1": {"bound": 10000, "solutions": []}}

    @pytest.mark.parametrize("m", ["1", "257"])
    def test_sieve_modulus_out_of_range_is_usage_error(self, capsys, m):
        # the sieve evaluates f at m^3 classes: 257 is past the cap
        code, out, err = run_cli(capsys, "sieve", "cubic", "-m", m)
        assert (code, out) == (1, "")
        assert err == "error: modulus must be from 2 to 256, got %s\n" % m

    # the 2-adic table certifies a class at its own level at the earliest,
    # and only below level 8: above 128 it has no level left
    @pytest.mark.parametrize("modulus", ["16", True, 6, 1, 256, 4096])
    def test_bad_sieve_modulus_is_usage_error(self, capsys, tmp_path,
                                              quartic_path, monkeypatch,
                                              modulus):
        # refused at load, before any stage runs
        def first_stage(*args):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(obstruction, "verify_rational_witness",
                            first_stage)
        _, doc = quartic_path
        doc["sieve_modulus"] = modulus
        path = tmp_path / "modulus.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: sieve_modulus ")
        assert "128" in err
        assert err.count("\n") == 1

    def test_largest_sieve_modulus_loads(self, quartic_path):
        # a class mod 128 is a root at level 7, the last level of the table
        path, doc = quartic_path
        doc["sieve_modulus"] = 128
        path.write_text(json.dumps(doc))
        assert cli.load_instance(str(path)).sieve_modulus == 128

    @pytest.mark.parametrize("key, value", [
        ("targets", [True]), ("targets", [1.5]), ("targets", "1"),
        ("targets", []), ("search_bound", "10"), ("search_bound", True),
        ("search_bound", -1),
        ("rational_witness", [[1, 0], [0, 1], [1, 2]]),
        ("rational_witness", [[True, 2], [0, 1], [1, 2]]),
        ("name", 7),
        # the sampled evidence sizes are engine constants: a sampling block
        # is refused as an unknown key, whatever its values
        ("sampling.seed", "x"), ("sampling.seed", True),
        ("sampling.trials", "5"), ("sampling.trials", -5),
        ("sampling.prime_min", 3.0), ("sampling.prime_max", False),
        # a bool in a term list: true would read as the int 1
        ("poly.0.0", True), ("algebra.first.0.1", True),
        ("algebra.factors.first.0.0.0", True), ("search_bound", 10001)])
    def test_bad_targets_or_search_bound_is_usage_error(
            self, capsys, tmp_path, quartic_path, monkeypatch, key, value):
        # refused at load, before any stage runs, also when --bound
        # overrides the instance's search bound; a dotted key names a
        # field of a nested object or an entry of a list, and the error
        # names the field or term list
        def first_stage(*args):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(obstruction, "verify_rational_witness",
                            first_stage)
        _, doc = quartic_path
        *outer, last = [int(p) if p.isdigit() else p
                         for p in key.split(".")]
        if outer == ["sampling"]:
            doc["sampling"] = {}
        field = doc
        for part in outer:
            field = field[part]
        field[last] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", str(path), "--bound", "20")
        assert code == 1
        assert out == ""
        if outer == ["sampling"]:
            assert err == "error: instance: unknown key 'sampling'\n"
            return
        name = ".".join(p for p in key.split(".") if not p.isdigit())
        assert re.match(r"error: %s\b" % re.escape(name), err)
        assert err.count("\n") == 1

    def test_padic_witnesses_key_refused(self, capsys, tmp_path,
                                         quartic_path):
        # the p-adic searches follow from the rational witness; an instance
        # does not list them
        _, doc = quartic_path
        doc["padic_witnesses"] = [{"p": 2, "kind": "search"}]
        path = tmp_path / "listed.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: instance: unknown key 'padic_witnesses'\n"

    def test_sampling_key_refused(self, capsys, tmp_path, quartic_path):
        # the sizes of the sampled evidence are engine constants, not part
        # of an instance
        _, doc = quartic_path
        doc["sampling"] = {"seed": 20070907, "trials": 500, "prime_min": 3,
                           "prime_max": 10000}
        path = tmp_path / "sampling.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: instance: unknown key 'sampling'\n"

    def test_unfactored_algebra_exit_three(self, capsys, tmp_path,
                                           quartic_path, monkeypatch):
        # without its factors, quartic's first entry f*h reaches 3e21 on the
        # odd-place scan box: refused before any stage runs
        def first_stage(*args):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(obstruction, "verify_rational_witness",
                            first_stage)
        _, doc = quartic_path
        del doc["algebra"]["factors"]
        path = tmp_path / "unfactored.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("inconclusive: algebra factor ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("first, second", [
        ([[3, 2, 0, 0], [1, 0, 0, 2]], [[1, 0, 2, 0], [-5, 0, 0, 2]]),
        ([[1, 1, 1, 0]], [[1, 0, 2, 0]]),
    ])
    def test_unsearchable_poly_usage_error(self, capsys, tmp_path,
                                           quartic_path, monkeypatch,
                                           first, second):
        # every variable of the sextic-term quartic occurs in two powers, 4
        # and 2, and the constant form holds none: the residue lifts and
        # the integer search have no variable to solve for, so every
        # command that loads the instance refuses it before any stage
        # runs, whatever the algebra would do
        def stage(*args):
            raise AssertionError("a stage ran")

        for name in ("obstruction_verdict", "padic_answer_record",
                     "residue_sieve", "class_invariant_table",
                     "point_invariant_profile", "search_record"):
            monkeypatch.setattr(cli, name, stage)
        _, doc = quartic_path
        doc["algebra"] = {"first": first, "second": second}
        doc["rational_witness"] = None
        path = tmp_path / "unsearchable.json"
        for poly in ([[1, 4, 0, 0], [1, 0, 4, 0], [1, 0, 0, 4],
                      [1, 2, 2, 0], [1, 0, 2, 2], [1, 2, 0, 2]],
                     [[1, 0, 0, 0]]):
            doc["poly"] = poly
            path.write_text(json.dumps(doc))
            for argv in (["verify", "--bound", "5"], ["search", "-B", "5"],
                         ["local", "-p", "3"], ["sieve"], ["table"],
                         ["profile", "-P", "1,2,3"]):
                code, out, err = run_cli(capsys, argv[0], str(path),
                                         *argv[1:])
                assert (code, out, err) == (
                    1, "", "error: no variable of f occurs in a single "
                    "power\n"), (poly, argv)

    def test_unfactored_reciprocity_exit_three(self, capsys):
        # (10^9 + 7)(10^9 + 9) survives trial division and is not prime
        code, out, err = run_cli(capsys, "reciprocity",
                                 "1000000016000000063", "3")
        assert code == 3
        assert out == ""
        assert err.startswith("inconclusive: ") and err.count("\n") == 1

    def test_unfactored_profile_exit_three(self, capsys):
        # the first algebra entry of cubic at this point is -51944069363193,
        # whose cofactor after trial division is composite
        code, out, err = run_cli(capsys, "profile", "cubic",
                                 "-P", "962,508,567")
        assert code == 3
        assert out == ""
        assert err.startswith("inconclusive: ") and err.count("\n") == 1

    def test_torsion_bound_needs_no_factorization(self, capsys):
        # p q with p, q the first primes above 2^40 and 2^41: the
        # discriminant of u^3 + u^2 + u + p q survives trial division, but
        # point counts mod small primes prove the group trivial
        code, out, err = run_cli(capsys, "torsion", "1", "1", "1",
                                 str(P40 * P41))
        assert code == 0 and err == ""
        assert json.loads(out) == {"group": "Z/1", "points": [],
                                   "generators": []}

    def test_two_torsion_needs_no_factorization(self, capsys):
        # (u - 1)(u^2 + u + p q): the point counts bound the group by 2, so
        # only the integer roots of the cubic are needed, and they are
        # isolated without factoring its constant term -p q
        code, out, err = run_cli(capsys, "torsion", "1", "0",
                                 str(P40 * P41 - 1), str(-P40 * P41))
        assert code == 0 and err == ""
        assert json.loads(out) == {"group": "Z/2", "points": [[1, 0]],
                                   "generators": [[1, 0]]}

    def test_unfactored_torsion_exit_three(self, capsys):
        # u (u - p)(u - q) has full 2-torsion, so the bound (4) leaves
        # points of order 4 possible, and its discriminant p^2 q^2 (q - p)^2
        # survives trial division
        code, out, err = run_cli(capsys, "torsion", "1", str(-P40 - P41),
                                 str(P40 * P41), "0")
        assert code == 3
        assert out == ""
        assert err.startswith("inconclusive: ") and err.count("\n") == 1

    def test_first_entry_vanishing_on_second_exit_three(self, cubic_path):
        # (a, a) is a valid algebra, but square sampling can accept no point
        # of second = 0: it gives up after a run of fruitless draws
        path, doc = cubic_path
        alg = doc["algebra"]
        alg["first"] = alg["second"]
        alg["factors"]["first"] = alg["factors"]["second"]
        path.write_text(json.dumps(doc))
        done = run_child("verify", str(path), "--bound", "5")
        assert done.returncode == 3
        assert done.stdout == ""
        assert done.stderr.startswith("inconclusive: square sampling ")
        assert done.stderr.count("\n") == 1

    def test_entries_differing_by_a_constant_exit_three(self, tmp_path):
        # x^4 + y^4 + z^4 = 7 with algebra (y^2, -y^2): y^2 vanishes on
        # every point of -y^2 = 0, so square sampling gives up after a run
        # of fruitless draws
        doc = {"name": "y2", "targets": [7],
               "poly": [[1, 4, 0, 0], [1, 0, 4, 0], [1, 0, 0, 4]],
               "algebra": {"first": [[1, 0, 2, 0]],
                           "second": [[-1, 0, 2, 0]]},
               "sieve_modulus": 16, "rational_witness": None,
               "search_bound": 1000}
        path = tmp_path / "y2.json"
        path.write_text(json.dumps(doc))
        done = run_child("verify", str(path))
        assert done.returncode == 3
        assert done.stdout == ""
        assert done.stderr.startswith("inconclusive: square sampling ")
        assert done.stderr.count("\n") == 1

    @pytest.mark.parametrize("second_factors", [None, [[[1, 0, 1, 0]]] * 2])
    def test_first_entry_vanishing_unseen_by_factors_exit_three(
            self, quartic_path, second_factors):
        # (xy, y^2): xy vanishes on y = 0, though no factor of the first
        # entry is one of the second, given as y^2 or as [y, y]
        path, doc = quartic_path
        doc["algebra"] = {"first": [[1, 1, 1, 0]], "second": [[1, 0, 2, 0]]}
        if second_factors is not None:
            doc["algebra"]["factors"] = {"first": [[[1, 1, 1, 0]]],
                                         "second": second_factors}
        path.write_text(json.dumps(doc))
        done = run_child("verify", str(path), "--bound", "20")
        assert done.returncode == 3
        assert done.stdout == ""
        assert done.stderr.startswith("inconclusive: square sampling ")
        assert done.stderr.count("\n") == 1

    @pytest.mark.parametrize("seed", ["4", "17"])
    def test_square_constant_in_second_entry_obstructed(self, quartic_path,
                                                         seed):
        # the second entry times 9973^2 is the same Brauer class; the
        # constant vanishes mod 9973 but is no component of the curve, so
        # the points drawn at p = 9973 still lie on g*h = 0
        path, doc = quartic_path
        square = 9973 ** 2
        alg = doc["algebra"]
        alg["second"] = [[square * c, *e] for c, *e in alg["second"]]
        alg["factors"]["second"][0] = [[-square, 0, 0, 0]]
        path.write_text(json.dumps(doc))
        done = run_child("verify", str(path), "--seed", seed)
        assert done.returncode == 0
        report = json.loads(done.stdout)
        assert report["verdict"] == "OBSTRUCTED"
        assert report["steps"]["square_sampling"]["counterexamples"] == []

    def test_five_thousand_term_poly(self, quartic_path):
        # the compiled evaluator and row kernel of z*C(x, y) + R(x, y) of
        # degree 2,500, with 5,000 terms, stay within the compiler's
        # recursion limit: a form of degree n with a single-power variable
        # has at most 2n + 1 terms
        path, doc = quartic_path
        rng = random.Random(5)
        n = 2500
        doc["poly"] = [[rng.randint(-10 ** 30, 10 ** 30), a, n - e - a, e]
                       for e in (0, 1) for a in range(n + 1 - e)][:5000]
        path.write_text(json.dumps(doc))
        done = run_child("local", str(path), "-p", "3")
        assert done.returncode == 0
        assert done.stderr == ""
        ans = json.loads(done.stdout)
        assert ans["verdict"] == "yes"
        x, y, z = ans["witness"]
        value = sum(c * x ** a * y ** b * z ** d for c, a, b, d in doc["poly"])
        assert (value - doc["targets"][0]) % 3 ** ans["depth"] == 0


class TestExitCodeFuzz:
    # an instance that loads runs a full verify (about half a second), and
    # most mutations are refused at load: 60 examples take a few seconds
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(BUNDLED_FIELDS),
           st.sampled_from(["type", "sign", "zero", "empty", "large"]))
    def test_one_mutated_field_exits_zero_to_three(self, tmp_path_factory,
                                                   field, kind):
        name, path = field
        doc = bundled_doc(name)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = mutated(node[path[-1]], kind)
        instance = tmp_path_factory.mktemp("fuzz") / "mutated.json"
        instance.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["verify", str(instance), "--bound", "20"])
        assert code in (0, 1, 2, 3)

    @pytest.mark.parametrize("name", ["quartic", "cubic"])
    def test_local_exits_zero_one_or_three(self, name):
        # every p in [-5, 31], primes or not, and every depth in [-1, 3]
        for p in range(-5, 32):
            for depth in range(-1, 4):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(["local", name, "-p", str(p),
                                     "--depth", str(depth)])
                assert code in (0, 1, 3), (p, depth)
                assert "Traceback" not in err.getvalue(), (p, depth)


class TestTorsionFuzz:
    # Coefficients up to 10^30, small ones (c3 = 0 among them), and singular
    # cubics c3 (x - r)^2 (x - s).  An exception escaping `cli.main` would
    # be a traceback at the command line, and fails the test.
    singular = st.builds(
        lambda c3, r, s: (c3, -c3 * (2 * r + s), c3 * (r * r + 2 * r * s),
                          -c3 * r * r * s),
        st.integers(-10 ** 4, 10 ** 4), st.integers(-10 ** 4, 10 ** 4),
        st.integers(-10 ** 4, 10 ** 4))
    coefficients = st.tuples(*[st.integers(-10 ** 30, 10 ** 30)] * 4)
    small = st.tuples(st.integers(-3, 3), *[st.integers(-50, 50)] * 3)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(coefficients, small, singular))
    def test_torsion_exits_zero_one_or_three(self, coeffs):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["torsion", *map(str, coeffs)])
        assert code in (0, 1, 3)
