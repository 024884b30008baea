"""Span tracing around the calls into each homobounds module, from outside it.

The library is not instrumented.  `Tracer.install` replaces each public
function named in `LAYERS` by a wrapper under every module attribute that
holds it: the modules import names directly (`from .symtensor import eig` in
gclosure, pairbounds and laminates), so patching only the defining module
would miss most calls.  A wrapper records one span (function, item, start,
end, parent span, raised) and returns the value or propagates the exception
unchanged.  Spans stay in memory until the run ends; `per_layer_metrics`
reduces them to the per-layer figures and `save` writes them out.  Self time
is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import json
from array import array
from contextlib import contextmanager
from math import comb
from time import perf_counter_ns

import numpy as np

LAYERS = {
    "symtensor": ("eig", "trace_chain", "matrix_power", "rotate"),
    "gclosure": (
        "g_membership",
        "theta_from_upper_boundary",
        "theta_from_lower_boundary",
        "upper_boundary_residual",
        "boundary_curve_sample",
    ),
    "pairbounds": (
        "pair_membership",
        "general_chain_check",
        "bound_L1",
        "bound_L2",
        "bound_U1",
        "bound_U2",
        "bound_L_const_b",
        "bound_U_const_b",
        "fibre_extremes_l1u1",
    ),
    "laminates": ("simple_laminate_pair", "seq_A", "seq_B_const", "seq_B_pp"),
    "hashin": ("hs_m", "hs_b", "hs_radial_oracle"),
    "homog1d": ("solve_state_exact", "convergence_study", "invert_theta_ab", "bounds_1d"),
    "relaxation": (
        "odp_bruteforce_1d",
        "oodp_bruteforce_1d",
        "odp_relaxed_value_1d",
        "oodp_relaxed_value_1d",
    ),
    "sweeps": ("draw_composite", "feasibility_sweep"),
    "cli": ("main",),
}

# cli.main is reported by its self time only: everything below it is counted
# in the library layers it calls.
SELF_ONLY = {"cli.main"}

MEMBERSHIP_REGIONS = ("L1U1", "L1U2", "L2U1", "L2U2", "const_b")

# Ratio metrics: (name, unit, better).  Each is read where the work happens.
RATIOS = (
    ("symtensor.eig.calls_per_membership", "calls", "lower"),
    ("gclosure.upper_boundary_residual.calls_per_recovery", "calls", "lower"),
    *((f"pairbounds.pair_membership.{r}.us_per_call", "us", "lower") for r in MEMBERSHIP_REGIONS),
    ("sweeps.draw_composite.rejection_ratio", "ratio", "lower"),
    ("relaxation.odp_bruteforce_1d.placements_per_s", "1/s", "higher"),
    ("relaxation.oodp_bruteforce_1d.pairs_per_s", "1/s", "higher"),
    ("homog1d.solve_state_exact.segments_per_s", "1/s", "higher"),
    ("hashin.hs_radial_oracle.points_per_s", "1/s", "higher"),
    ("cli.main.self_share", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
)

FUNCTION_METRICS = (("calls_per_item", "calls/item"), ("us_per_call", "us"), ("self_share", "ratio"))


def function_names() -> list:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def per_layer_spec() -> list:
    """Every per-layer metric as (name, unit, better), in report order."""
    spec = [
        (f"{name}.{metric}", unit, "lower")
        for name in function_names()
        if name not in SELF_ONLY
        for metric, unit in FUNCTION_METRICS
    ]
    # exceptions escaping a module's wrapped functions, per item; per module
    # rather than per function keeps the whole set within 128 metrics
    spec += [(f"{mod}.raised", "count/item", "lower") for mod in LAYERS]
    return spec + list(RATIOS)


def _region(pa, pb) -> str:
    # the same switch pair_membership makes before choosing its bounds
    if pb.b2 - pb.b1 <= 1e-14 * pb.b1:
        return "const_b"
    return ("L1" if pa.thetaA <= pb.thetaB else "L2") + ("U1" if pa.thetaA + pb.thetaB <= 1.0 else "U2")


def _binder(fn):
    sig = inspect.signature(fn)

    def bound(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    return bound


# Per-call annotations that the ratio metrics need: a region label or a work
# count read from the arguments or the result, computed after the span ends.
def _annotators(originals) -> dict:
    pm = _binder(originals["pairbounds.pair_membership"])
    odp = _binder(originals["relaxation.odp_bruteforce_1d"])
    oodp = _binder(originals["relaxation.oodp_bruteforce_1d"])
    oracle = _binder(originals["hashin.hs_radial_oracle"])

    def membership(args, kwargs, result):
        a = pm(args, kwargs)
        return _region(a["pa"], a["pb"])

    def placements(args, kwargs, result):
        a = odp(args, kwargs)
        return comb(a["cells"], a["onesA"])

    def pairs(args, kwargs, result):
        a = oodp(args, kwargs)
        return comb(a["cells"], a["onesA"]) * comb(a["cells"], a["onesB"])

    def points(args, kwargs, result):
        return oracle(args, kwargs)["quadrature_points"]

    return {
        "pairbounds.pair_membership": membership,
        "relaxation.odp_bruteforce_1d": placements,
        "relaxation.oodp_bruteforce_1d": pairs,
        "hashin.hs_radial_oracle": points,
        "homog1d.solve_state_exact": lambda args, kwargs, result: len(result.a),
        "sweeps.draw_composite": lambda args, kwargs, result: result["chain_rejections"],
    }


class Tracer:
    """Collects spans from wrappers installed over the homobounds modules."""

    ITEM = "item"  # name of the benchmark's own per-item root span
    COLUMNS = ("name", "item", "start", "end", "parent", "raised")

    def __init__(self):
        self.names = [self.ITEM] + function_names()
        self._ids = {name: i for i, name in enumerate(self.names)}
        # one int64 column per span field keeps a million spans in ~50 MB
        self.cols = {c: array("q") for c in self.COLUMNS}
        self.notes = {}  # span index -> annotation
        self._stack = []
        self._item = -1
        self._patched = []  # (module, attribute, original)

    def _open(self, fid: int) -> int:
        c = self.cols
        idx = len(c["name"])
        c["name"].append(fid)
        c["item"].append(self._item)
        c["parent"].append(self._stack[-1] if self._stack else -1)
        c["start"].append(0)
        c["end"].append(0)
        c["raised"].append(0)
        self._stack.append(idx)
        return idx

    def _wrap(self, name, fn, annotate):
        fid = self._ids[name]
        start_col, end_col, raised_col = self.cols["start"], self.cols["end"], self.cols["raised"]
        stack, notes, open_span = self._stack, self.notes, self._open

        def wrapper(*args, **kwargs):
            idx = open_span(fid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end_col[idx] = perf_counter_ns()
                start_col[idx] = start
                raised_col[idx] = 1
                stack.pop()
                raise
            end_col[idx] = perf_counter_ns()
            start_col[idx] = start
            stack.pop()
            if annotate:
                notes[idx] = annotate(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        modules = {m: importlib.import_module(f"homobounds.{m}") for m in LAYERS}
        originals = {f"{m}.{fn}": getattr(modules[m], fn) for m in LAYERS for fn in LAYERS[m]}
        annotators = _annotators(originals)
        wrappers = {id(fn): (fn, self._wrap(name, fn, annotators.get(name))) for name, fn in originals.items()}
        package = importlib.import_module("homobounds")
        for module in [package, *modules.values()]:
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def remove(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextmanager
    def item(self, index: int):
        """Root span of one benchmark item; library spans below it share its index."""
        self._item = index
        idx = self._open(0)
        self.cols["start"][idx] = perf_counter_ns()
        try:
            yield
        finally:
            self._stack.pop()
            self.cols["end"][idx] = perf_counter_ns()

    def arrays(self) -> dict:
        return {c: np.frombuffer(col, dtype=np.int64).copy() for c, col in self.cols.items()}

    def save(self, path):
        """Write every span to an .npz file with the name table alongside."""
        np.savez(path, names=np.array(json.dumps(self.names)), **self.arrays())

    def per_layer_metrics(self, items: int, phase_s: float, overhead_ratio: float) -> dict:
        """Reduce the spans to the metrics of `per_layer_spec`."""
        a = self.arrays()
        name, parent, raised = a["name"], a["parent"], a["raised"].astype(bool)
        dur = (a["end"] - a["start"]).astype(float)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        phase_ns = phase_s * 1e9
        per_item = 1.0 / max(items, 1)
        out = {}

        def mask(fn_name):
            return name == self._ids[fn_name]

        for fn_name in function_names():
            m = mask(fn_name)
            calls = int(m.sum())
            if fn_name not in SELF_ONLY:
                out[f"{fn_name}.calls_per_item"] = calls * per_item
                out[f"{fn_name}.us_per_call"] = float(dur[m].sum() / calls / 1e3) if calls else 0.0
            out[f"{fn_name}.self_share"] = float(self_time[m].sum() / phase_ns)
        for mod, fns in LAYERS.items():
            out[f"{mod}.raised"] = sum(int((mask(f"{mod}.{fn}") & raised).sum()) for fn in fns) * per_item

        def under(child_name, ancestor_name):
            # walk every span's ancestor chain one level per step
            anc = self._ids[ancestor_name]
            inside = np.zeros(len(name), dtype=bool)
            up = parent.copy()
            while (live := up >= 0).any():
                inside[live] |= name[up[live]] == anc
                up[live] = parent[up[live]]
            return int((inside & mask(child_name)).sum()), int(mask(ancestor_name).sum())

        eig_calls, memberships = under("symtensor.eig", "pairbounds.pair_membership")
        out["symtensor.eig.calls_per_membership"] = eig_calls / memberships if memberships else 0.0
        residuals, recoveries = under("gclosure.upper_boundary_residual", "gclosure.theta_from_upper_boundary")
        out["gclosure.upper_boundary_residual.calls_per_recovery"] = residuals / recoveries if recoveries else 0.0

        def noted(fn_name):
            idx = np.flatnonzero(mask(fn_name) & ~raised)
            return idx, [self.notes[i] for i in idx]

        idx, regions = noted("pairbounds.pair_membership")
        for region in MEMBERSHIP_REGIONS:
            sel = [i for i, r in zip(idx, regions) if r == region]
            out[f"pairbounds.pair_membership.{region}.us_per_call"] = float(dur[sel].mean() / 1e3) if sel else 0.0

        _, rejections = noted("sweeps.draw_composite")
        attempts = sum(rejections) + len(rejections)
        out["sweeps.draw_composite.rejection_ratio"] = sum(rejections) / attempts if attempts else 0.0

        def rate(fn_name):
            idx, counts = noted(fn_name)
            busy = dur[idx].sum() / 1e9
            return float(sum(counts) / busy) if busy > 0 else 0.0

        out["relaxation.odp_bruteforce_1d.placements_per_s"] = rate("relaxation.odp_bruteforce_1d")
        out["relaxation.oodp_bruteforce_1d.pairs_per_s"] = rate("relaxation.oodp_bruteforce_1d")
        out["homog1d.solve_state_exact.segments_per_s"] = rate("homog1d.solve_state_exact")
        out["hashin.hs_radial_oracle.points_per_s"] = rate("hashin.hs_radial_oracle")
        out["trace.overhead_ratio"] = overhead_ratio
        return out
