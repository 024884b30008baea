"""The benchmark's per-layer tracer wraps library functions by name.

bench/tracer.py lists them in LAYERS and reads some of their arguments by
name; a refactor that drops or renames one would only fail the traced
benchmark run.  These checks make it fail the test suite instead.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _load_tracer().LAYERS

# arguments the tracer's annotators read from a call, by function
BOUND_ARGUMENTS = {
    ("pairbounds", "pair_membership"): ("pa", "pb"),
    ("relaxation", "odp_bruteforce_1d"): ("cells", "onesA"),
    ("relaxation", "oodp_bruteforce_1d"): ("cells", "onesA", "onesB"),
    ("hashin", "hs_radial_oracle"): ("quadrature_points",),
}


@pytest.mark.parametrize("module, name", [(m, fn) for m, fns in LAYERS.items() for fn in fns])
def test_layer_resolves_in_its_module(module, name):
    fn = getattr(importlib.import_module(f"homobounds.{module}"), name, None)
    assert callable(fn), f"homobounds.{module}.{name} is gone"
    assert fn.__module__ == f"homobounds.{module}", f"{name} is defined in {fn.__module__}"


@pytest.mark.parametrize("module, name", sorted(BOUND_ARGUMENTS))
def test_bound_arguments_keep_their_names(module, name):
    assert name in LAYERS[module]
    params = inspect.signature(getattr(importlib.import_module(f"homobounds.{module}"), name)).parameters
    assert set(BOUND_ARGUMENTS[module, name]) <= set(params)
