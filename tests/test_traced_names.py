"""Every name that the benchmark harness traces exists in the package, so
that pruning one fails here and not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("module, attr", traced_names())
def test_traced_name_resolves(module, attr):
    home = importlib.import_module("obstruction_lab.%s" % module)
    if "." in attr:
        # the tracer patches a method in its class's own namespace
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(home, cls_name))[method])
    else:
        assert callable(getattr(home, attr))
