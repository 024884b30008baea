"""The benchmark's per-layer tracer wraps library functions by name.

bench/tracer.py lists them in LAYERS and reads some of their arguments by
name; a refactor that drops or renames one would only fail the traced
benchmark run.  These checks make it fail the test suite instead.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
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


def _golden_memberships() -> dict:
    """A feasible or boundary golden `pair check` case per region, and one at constant density."""
    corpus = json.loads((Path(__file__).parent / "golden" / "corpus.json").read_text())
    cases = {}
    for case in corpus:
        argv = case["argv"]
        if argv[:2] != ["pair", "check"]:
            continue
        report, flag = json.loads(case["stdout"]), dict(zip(argv[2::2], argv[3::2]))
        if report["verdict"] == "infeasible":
            continue
        a, b = (list(map(float, flag[f].split(","))) for f in ("--a", "--b"))
        key = "const_b" if b[0] == b[1] else report["region"]
        cases.setdefault(key, (flag["--astar"], flag["--bsharp"], a, b))
    return cases


def test_tracer_sees_both_bounds_of_every_membership(monkeypatch):
    # the tracer wraps pairbounds.bound_* by attribute, so pair_membership must
    # look its bounds up when it runs, not hold the functions it found at import;
    # it checks the phase set and recovers theta once, however many bounds read it
    from homobounds import gclosure, pairbounds
    from homobounds.gclosure import PhaseA
    from homobounds.symtensor import SymTensor

    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    once = ("g_membership", "theta_from_upper_boundary")
    bounds = [(pairbounds, name) for name in LAYERS["pairbounds"] if name.startswith("bound_")]
    for module, name in bounds + [(m, name) for m in (gclosure, pairbounds) for name in once]:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    expected = {"const_b": ("bound_L_const_b", "bound_U_const_b")}
    cases = _golden_memberships()
    assert sorted(cases) == ["L1U1", "L1U2", "L2U1", "L2U2", "const_b"]
    for key, (astar, bsharp, a, b) in cases.items():
        calls.clear()
        tensors = (SymTensor(np.array(json.loads(m))) for m in (astar, bsharp))
        pairbounds.pair_membership(*tensors, PhaseA(*a), pairbounds.PhaseB(*b))
        pair = expected.get(key, (f"bound_{key[:2]}", f"bound_{key[2:]}"))
        assert calls == dict.fromkeys(pair + once, 1), f"{key}: {calls}"


def test_eig_aliases_are_the_kernel():
    # the tracer replaces each module's eig alias, so every alias must be
    # the one symtensor kernel, imported by name
    from homobounds import gclosure, laminates, pairbounds, symtensor

    assert gclosure.eig is pairbounds.eig is laminates.eig is symtensor.eig


def test_inverse_power_calls_eig_through_the_module(monkeypatch):
    # the tracer counts the eig inside a negative matrix power, which it sees
    # only if matrix_power looks eig up in symtensor when it runs
    from homobounds import symtensor

    calls = []
    eig = symtensor.eig
    monkeypatch.setattr(symtensor, "eig", lambda s: calls.append(s) or eig(s))
    inverse = symtensor.matrix_power(symtensor.SymTensor.diag([3.0, 1.0]), -1)
    assert len(calls) == 1
    assert np.allclose(inverse, np.diag([1.0 / 3.0, 1.0]), rtol=1e-15, atol=0.0)
