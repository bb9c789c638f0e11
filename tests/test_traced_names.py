"""Every name that the benchmark harness traces exists in the package, so
that pruning one fails here and not only in a traced benchmark run, and
the engine reaches the traced primitives through those names."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from obstruction_lab import cli, obstruction, padicsolve

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def traced_names():
    return load_tracer().TRACED


@pytest.mark.parametrize("module, attr", traced_names())
def test_traced_name_resolves(module, attr):
    home = importlib.import_module("obstruction_lab.%s" % module)
    if "." in attr:
        # the tracer patches a method in its class's own namespace
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(home, cls_name))[method])
    else:
        assert callable(getattr(home, attr))


def test_traced_primitives_see_engine_calls():
    # square sampling's root finding and values mod p, the p-adic search's
    # valuations and the integer search's k-th roots go through the traced
    # names, so a traced run counts their work
    quartic = cli.load_instance("quartic")
    alg = quartic.algebra
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        obstruction.square_mod_sampling(alg.first, alg.second_factors, 5, 1)
        padicsolve.padic_solutions_exist(quartic.f, 1, 2)
        # (0, 1, 0) is a solution of f = -1
        obstruction.integer_search(quartic.f, -1, 2)
    finally:
        tracer.uninstall()
    for name in ("exactarith.poly_roots_mod", "exactarith.valuation",
                 "exactarith.is_kth_power", "multipoly.MultiPoly.evaluate_mod"):
        assert tracer.stats[name].calls > 0, name
