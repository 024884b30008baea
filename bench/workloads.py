"""The three workloads: seeded inputs, one item's execution and its gate.

Each workload builds a pool of items from the workload seed during set-up;
the program sees only those generated inputs.  An item carries the answer it
must produce, known independently of the timed path.  `execute` returns how
many results the item produced, how many missed their answer, and, for the
sweep, the drawn (index, family, dim, region) columns that go into the input
digest.

- sweep: `homobounds pair sweep` through `cli.main`, K rows per call, at the
  acceptance shape max_dim=3.  The bulk verification path: eig, G-closure,
  the pair bounds and the constructors inside `draw_composite`.
- design: 1-D design instances certified end to end (brute force against the
  relaxed value, and energy convergence of nested profiles to the relaxed
  limit).  Only relaxation and homog1d work; no eigenvalue is computed.
- check: single CLI requests of every query kind, N from 2 to 8, some made
  infeasible on purpose.  The per-request path, argparse and JSON included.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from collections import Counter
from typing import NamedTuple

import numpy as np

from homobounds import cli, homog1d, laminates, relaxation, sweeps
from homobounds.gclosure import PhaseA
from homobounds.homog1d import Profile1D, Source1D
from homobounds.pairbounds import PhaseB

SLACK_FLOOR = -1e-9  # acceptance criterion 5
BRUTE_TOL = 1e-12  # brute-force minimum may sit this far below the relaxed value
CANONICAL_VALUE = 7.0 / 96.0  # relaxed OODP value of the canonical instance


class Outcome(NamedTuple):
    items: int
    failed: int
    columns: list = None  # sweep only: drawn (index, family, dim, region) rows


def item_size(item) -> int:
    return item["expect"].get("rows", 1)


def _phases(rng):
    """Random phase data, bench-side: a1 < a2, b1 <= b2, fractions in [0.1, 0.9]."""
    a1 = float(rng.uniform(0.5, 2.0))
    a2 = float(a1 * rng.uniform(1.2, 4.0))
    b1 = float(rng.uniform(0.5, 2.0))
    b2 = float(b1 * rng.uniform(1.2, 4.0))
    return a1, a2, b1, b2, float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 0.9))


def _run_cli(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------- sweep

SWEEP_ROWS = 20  # composites per `pair sweep` call
SWEEP_CALLS = 80  # calls per pass over the pool


def build_sweep(seed: int) -> list:
    rng = np.random.default_rng(seed)
    keys = rng.integers(1, 2**63 - 1, size=SWEEP_CALLS)
    return [
        {
            "kind": "pair_sweep",
            "input": ["pair", "sweep", "--seed", str(int(k)), "--count", str(SWEEP_ROWS), "--max-dim", "3"],
            "expect": {"rows": SWEEP_ROWS, "min_slack": SLACK_FLOOR},
        }
        for k in keys
    ]


def execute_sweep(item, scratch) -> Outcome:
    path = scratch / "sweep.csv"
    expect = item["expect"]
    code = cli.main(item["input"] + ["--out", str(path)])
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if code != 0:
        return Outcome(expect["rows"], expect["rows"])
    bad = sum(
        1
        for r in rows
        if r["verdict"] == "infeasible"
        or min(float(r["chain_slack"]), float(r["li_slack"]), float(r["uj_slack"])) < expect["min_slack"]
    )
    missing = abs(expect["rows"] - len(rows))
    columns = [[r["index"], r["family"], r["dim"], r["region"]] for r in rows]
    return Outcome(expect["rows"], min(expect["rows"], bad + missing), columns)


# ---------------------------------------------------------------- design

# Exhaustive-search sizes are a fixed schedule, from a few dozen to a few
# thousand placements and up to the 20-cell cap, so every seed's pool costs
# the same; the seed picks each size or its complement (same count, other
# fractions) and draws the phase data and the source.
ODP_SIZES = ((8, 4), (10, 3), (10, 4), (12, 3), (20, 2), (12, 4), (14, 3), (13, 4), (16, 3), (20, 3), (14, 5), (20, 4))
# A-placements run in a Python loop and B-placements are built as a Python
# list, so both counts stay moderate: at most 1e6 pairs of the 2e6 cap
OODP_SIZES = (
    (8, 4, 4), (9, 4, 4), (10, 3, 7), (20, 19, 3), (10, 5, 5), (11, 5, 5),
    (20, 2, 3), (12, 4, 6), (17, 3, 3), (14, 3, 5), (13, 4, 5), (16, 3, 4),
)  # fmt: skip
CONVERGE_ITEMS = 12
CONVERGE_PERIODS = (4, 16, 64, 256, 1024)
CONVERGE_REL_MAX = 0.02  # finest-period error against the homogenized limit
LIMIT_REL_TOL = 1e-6  # finest-period energy against the relaxed value


def build_design(seed: int) -> list:
    rng = np.random.default_rng(seed)
    items = [
        {
            "kind": "oodp",
            "input": {"cells": 12, "kA": 6, "kB": 6, "a": [1.0, 2.0], "b": [1.0, 3.0], "f": 1.0},
            "expect": {"relaxed": CANONICAL_VALUE},
        }
    ]
    for cells, k in ODP_SIZES:
        k = k if rng.uniform() < 0.5 else cells - k
        a1, a2, *_ = _phases(rng)
        inst = {"cells": cells, "kA": k, "a": [a1, a2], "f": float(rng.uniform(0.5, 2.0))}
        items.append({"kind": "odp", "input": inst, "expect": {}})
    for cells, ka, kb in OODP_SIZES:
        if rng.uniform() < 0.5:
            ka, kb = cells - ka, cells - kb
        a1, a2, b1, b2, *_ = _phases(rng)
        inst = {"cells": cells, "kA": ka, "kB": kb, "a": [a1, a2], "b": [b1, b2], "f": float(rng.uniform(0.5, 2.0))}
        items.append({"kind": "oodp", "input": inst, "expect": {}})
    for _ in range(CONVERGE_ITEMS):
        a1, a2, b1, b2, ta, tb = _phases(rng)
        if abs(ta - tb) < 0.05:
            tb = ta + 0.05 if ta < 0.5 else ta - 0.05
        inst = {"a": [a1, a2], "b": [b1, b2], "thetaA": ta, "thetaB": tb, "f": float(rng.uniform(0.5, 2.0))}
        items.append({"kind": "converge", "input": inst, "expect": {"final_rel": CONVERGE_REL_MAX}})
    return items


def _nested_profile(ta: float, tb: float) -> Profile1D:
    """The smaller set nested inside the larger one, in one unit cell."""
    lo, hi = min(ta, tb), max(ta, tb)
    return Profile1D(((lo, True, True), (hi - lo, ta > tb, tb > ta), (1.0 - hi, False, False)))


def execute_design(item, scratch) -> Outcome:
    inst, expect = item["input"], item["expect"]
    source = Source1D.constant(inst["f"])
    if item["kind"] == "odp":
        cells, k = inst["cells"], inst["kA"]
        pa = PhaseA(inst["a"][0], inst["a"][1], k / cells)
        brute, _ = relaxation.odp_bruteforce_1d(cells, k, pa, source)
        relaxed = relaxation.odp_relaxed_value_1d(relaxation.DesignField1D.constant(k / cells, cells), pa, source)
        ok = brute >= relaxed - BRUTE_TOL
    elif item["kind"] == "oodp":
        cells, ka, kb = inst["cells"], inst["kA"], inst["kB"]
        pa = PhaseA(inst["a"][0], inst["a"][1], ka / cells)
        pb = PhaseB(inst["b"][0], inst["b"][1], kb / cells)
        brute = relaxation.oodp_bruteforce_1d(cells, ka, kb, pa, pb, source)
        relaxed = relaxation.oodp_relaxed_value_1d(
            relaxation.DesignField1D.constant(ka / cells, cells),
            relaxation.DesignField1D.constant(kb / cells, cells),
            pa,
            pb,
            source,
        ).value
        ok = brute >= relaxed - BRUTE_TOL
        if "relaxed" in expect:
            ok = ok and abs(relaxed - expect["relaxed"]) <= 1e-14
    else:
        ta, tb = inst["thetaA"], inst["thetaB"]
        pa = PhaseA(inst["a"][0], inst["a"][1], ta)
        pb = PhaseB(inst["b"][0], inst["b"][1], tb)
        rows = homog1d.convergence_study(_nested_profile(ta, tb), pa, pb, source, CONVERGE_PERIODS)
        relaxed = relaxation.oodp_relaxed_value_1d(
            relaxation.DesignField1D.constant(ta), relaxation.DesignField1D.constant(tb), pa, pb, source
        ).value
        errors = [r[3] for r in rows]
        final = rows[-1][2]
        ok = (
            all(e2 <= e1 for e1, e2 in zip(errors, errors[1:]))
            and rows[-1][4] <= expect["final_rel"]
            and abs(final - relaxed) <= LIMIT_REL_TOL * abs(relaxed)
        )
    return Outcome(1, 0 if ok else 1)


# ---------------------------------------------------------------- check

# One block of requests; the pool repeats the pattern with fresh parameters.
CHECK_PATTERN = (
    ["pair_feasible"] * 6
    + ["pair_infeasible"] * 2
    + ["gset_member"] * 3
    + ["gset_outside", "laminate", "laminate", "hashin", "hashin", "oned_bounds", "oned_invert", "phase", "canonical"]
)
CHECK_BLOCKS = 10
MAX_DIM = 8
PAIR_FAMILIES = ("simple", "rotated_simple", "seq_const", "seq_pp", "coated")
ORACLE_POINTS = (2_000, 5_000, 10_000, 20_000)
ORACLE_REL_TOL = 1e-5
INDEPENDENT_REL_TOL = 1e-9
CANONICAL = {
    "L1": ([[14 / 9, 0.0], [0.0, 2.0]], "li", 9.0),
    "U1": ([[26 / 9, 0.0], [0.0, 2.0]], "uj", 20.0),
}


def _canonical_argv(which: str) -> list:
    bsharp = CANONICAL[which][0]
    return ["pair", "check", "--a", "1,2,0.5", "--b", "1,3,0.5", "--astar", _mat([[4 / 3, 0.0], [0.0, 1.5]]), "--bsharp", _mat(bsharp)]


def _mat(m) -> str:
    return json.dumps(np.asarray(m, dtype=float).tolist())


def _phase_arg(x1, x2, theta) -> str:
    return f"{x1!r},{x2!r},{theta!r}"


def _pair_argv(draw, astar, bsharp):
    pa, pb = draw["pa"], draw["pb"]
    return [
        "pair", "check",
        "--a", _phase_arg(pa.a1, pa.a2, pa.thetaA),
        "--b", _phase_arg(pb.b1, pb.b2, pb.thetaB),
        "--astar", _mat(astar), "--bsharp", _mat(bsharp),
    ]  # fmt: skip


def _unit_vectors(rng, n, p):
    v = rng.normal(size=(p, n))
    return (v / np.linalg.norm(v, axis=1, keepdims=True)).tolist()


def _spec(rng, n, core, relation) -> dict:
    p = int(rng.integers(1, n + 1))
    w = rng.dirichlet(np.ones(p))
    return {"directions": _unit_vectors(rng, n, p), "weights": (w / w.sum()).tolist(), "core": core, "relation": relation}


def _bsharp_1d(a1, a2, b1, b2, cells) -> float:
    """b# = harm(a)^2 lim b/a^2 over (fraction, inA, inB) cells."""
    f = np.array([c[0] for c in cells])
    a = np.array([a1 if c[1] else a2 for c in cells])
    b = np.array([b1 if c[2] else b2 for c in cells])
    harm = 1.0 / np.sum(f / a)
    return float(harm**2 * np.sum(f * b / a**2))


def _overlap_cells(ta, tb, tab):
    return [(tab, True, True), (ta - tab, True, False), (tb - tab, False, True), (1.0 - ta - tb + tab, False, False)]


def _draw(rng, family: str, dim: int) -> dict:
    """A library composite of the given family and dimension, by redrawing."""
    while True:
        draw = sweeps.draw_composite(sweeps.make_rng(int(rng.integers(1, 2**63 - 1))), dim)
        if draw["dim"] == dim and draw["family"].startswith(family):
            return draw


# Sizes and families follow the per-kind index j, so every seed's pool has the
# same cost profile; the seed draws the data.
def _check_item(kind, j, rng) -> dict:
    if kind in ("pair_feasible", "pair_infeasible"):
        draw = _draw(rng, PAIR_FAMILIES[j % len(PAIR_FAMILIES)], 2 + (j // len(PAIR_FAMILIES)) % (MAX_DIM - 1))
        astar, bsharp = draw["astar"].mat, draw["bsharp"].mat
        if kind == "pair_feasible":
            return {"kind": kind, "input": _pair_argv(draw, astar, bsharp), "expect": {"verdict": ["feasible", "boundary"]}}
        n = astar.shape[0]
        if j % 2:
            # lowest eigenvalue of B# pushed below b1: the general chain fails
            shift = np.linalg.eigvalsh(bsharp)[0] - 0.95 * draw["pb"].b1
            bsharp = bsharp - shift * np.eye(n)
        else:
            # an eigenvalue of A* pushed above the arithmetic mean: outside G
            pa = draw["pa"]
            arith = pa.thetaA * pa.a1 + (1.0 - pa.thetaA) * pa.a2
            astar = astar + (arith - np.linalg.eigvalsh(astar)[-1] + 0.05 * (pa.a2 - arith)) * np.eye(n)
        return {"kind": kind, "input": _pair_argv(draw, astar, bsharp), "expect": {"verdict": ["infeasible"]}}
    a1, a2, b1, b2, ta, tb = _phases(rng)
    if kind == "laminate":
        n = 2 + j % 3
        if j % 4 == 0:
            relation, core = "const_b", ("a1" if j % 8 else "a2")
        elif ta + tb <= 1.0 and j % 2:
            relation, core = "disjoint", "a2"
        else:
            relation, core = ("A_subset_B", "a2") if ta <= tb else ("B_subset_A", "a1")
        spec = _spec(rng, n, core, relation)
        argv = ["laminate", "--spec", json.dumps(spec), "--a", _phase_arg(a1, a2, ta), "--b", _phase_arg(b1, b2, tb)]
        if relation == "const_b":
            argv += ["--const-b", repr(b1)]
        return {"kind": kind, "input": argv, "expect": {"a": [a1, a2, ta], "core": core, "chain_ok": True}}
    if kind in ("gset_member", "gset_outside"):
        n = 2 + j % (MAX_DIM - 1)
        core = "a1" if j % 2 else "a2"
        spec = laminates.LaminateSpec.from_json(json.dumps(_spec(rng, n, core, "const_b")))
        astar = laminates.seq_A(spec, PhaseA(a1, a2, ta)).mat
        verdicts = ["inside", "boundary_lower", "boundary_upper", "corner"]
        if kind == "gset_outside":
            # lowest eigenvalue pushed below the harmonic mean: outside the window
            harm = 1.0 / (ta / a1 + (1.0 - ta) / a2)
            astar = astar - (np.linalg.eigvalsh(astar)[0] - harm + 0.05 * (harm - a1)) * np.eye(n)
            verdicts = ["outside"]
        argv = ["gset", "check", "--a", _phase_arg(a1, a2, ta), "--astar", _mat(astar)]
        return {"kind": kind, "input": argv, "expect": {"verdict": verdicts}}
    if kind == "hashin":
        argv = ["hashin", "--a", _phase_arg(a1, a2, ta), "--n", str(2 + j % 2), "--oracle"]
        argv += ["--points", str(ORACLE_POINTS[(j // 2) % len(ORACLE_POINTS)])]
        configs = [("a1", "b1", "B_in_A", tb <= ta), ("a2", "b2", "A_in_B", ta <= tb)]
        configs += [("a2", "b1", "A_in_Bc", ta + tb <= 1.0), ("a1", "b2", "Ac_in_B", ta + tb >= 1.0)]
        configs = [c for c in configs if c[3]] + [("a1", "const", "none", True), ("a2", "const", "none", True)]
        core_a, core_b, inclusion, _ = configs[int(rng.integers(len(configs)))]
        argv += ["--coreA", core_a, "--coreB", core_b, "--inclusion", inclusion]
        argv += ["--const-b", repr(b1)] if core_b == "const" else ["--b", _phase_arg(b1, b2, tb)]
        return {"kind": kind, "input": argv, "expect": {"oracle_rel": ORACLE_REL_TOL}}
    if kind in ("oned_bounds", "oned_invert"):
        lo, hi = max(0.0, ta + tb - 1.0), min(ta, tb)
        l_sel = _bsharp_1d(a1, a2, b1, b2, _overlap_cells(ta, tb, hi))
        u_sel = _bsharp_1d(a1, a2, b1, b2, _overlap_cells(ta, tb, lo))
        argv = ["oned", kind.split("_")[1], "--a", _phase_arg(a1, a2, ta), "--b", _phase_arg(b1, b2, tb)]
        if kind == "oned_bounds":
            return {"kind": kind, "input": argv, "expect": {"l": l_sel, "u": u_sel}}
        target = float(l_sel + rng.uniform(0.05, 0.95) * (u_sel - l_sel))
        argv += ["--target", repr(target)]
        return {"kind": kind, "input": argv, "expect": {"target": target, "phases": [a1, a2, b1, b2], "window": [lo, hi]}}
    if kind == "phase":
        # region L1U1: thetaA <= thetaB and thetaA + thetaB <= 1
        ta = float(rng.uniform(0.1, 0.45))
        tb = float(rng.uniform(ta, 1.0 - ta))
        n = 8 + (4 * j) % 13
        argv = ["phase", "--a", _phase_arg(a1, a2, ta), "--b", _phase_arg(b1, b2, tb), "--n", str(n)]
        return {"kind": kind, "input": argv, "expect": {"samples": n}}
    which = "L1" if j % 2 == 0 else "U1"
    _, field, value = CANONICAL[which]
    return {"kind": "canonical", "input": _canonical_argv(which), "expect": {"field": field, "value": value, "verdict": ["boundary"]}}


def build_check(seed: int) -> list:
    rng = np.random.default_rng(seed)
    seen = Counter()
    items = []
    for _ in range(CHECK_BLOCKS):
        for kind in CHECK_PATTERN:
            items.append(_check_item(kind, seen[kind], rng))
            seen[kind] += 1
    return items


def _resolvent_gap(astar, a1, a2, theta, core) -> float:
    """Relative miss of the sequential-laminate trace identity (tr M = 1)."""
    lam = np.linalg.eigvalsh(np.asarray(astar))
    n, d = len(lam), a2 - a1
    if core == "a2":  # (1-theta) tr (A* - a1 I)^-1 = N/(a2-a1) + theta/a1
        lhs, rhs = (1.0 - theta) * np.sum(1.0 / (lam - a1)), n / d + theta / a1
    else:  # theta tr (A* - a2 I)^-1 = -N/(a2-a1) + (1-theta)/a2
        lhs, rhs = theta * np.sum(1.0 / (lam - a2)), -n / d + (1.0 - theta) / a2
    return abs(lhs - rhs) / abs(rhs)


def _rel(x, y) -> float:
    return abs(x - y) / max(1.0, abs(y))


def _check_passes(kind, expect, text) -> bool:
    if kind == "phase":
        rows = list(csv.DictReader(io.StringIO(text)))
        return len(rows) == expect["samples"] and all(
            float(r["mu1_low"]) <= float(r["mu1_high"]) + 1e-9 and float(r["mu2_low"]) <= float(r["mu2_high"]) + 1e-9
            for r in rows
        )
    out = json.loads(text)
    if "verdict" in expect and out["verdict"] not in expect["verdict"]:
        return False
    if kind == "canonical":
        field, value = expect["field"], expect["value"]
        return abs(out[f"{field}_lhs"] - value) <= 1e-10 and abs(out[f"{field}_rhs"] - value) <= 1e-10
    if kind == "laminate":
        a1, a2, theta = expect["a"]
        return out.get("chain_ok", True) == expect["chain_ok"] and _resolvent_gap(out["astar"], a1, a2, theta, expect["core"]) <= INDEPENDENT_REL_TOL
    if kind == "hashin":
        return abs(out["bsharp"] - out["bsharp_quadrature"]) <= expect["oracle_rel"] * abs(out["bsharp"])
    if kind == "oned_bounds":
        return _rel(out["l"], expect["l"]) <= INDEPENDENT_REL_TOL and _rel(out["u"], expect["u"]) <= INDEPENDENT_REL_TOL
    if kind == "oned_invert":
        cells = [(c["len"], c["inA"], c["inB"]) for c in out["profile"]["cells"]]
        lo, hi = expect["window"]
        realized = _bsharp_1d(*expect["phases"], cells)
        return lo - 1e-12 <= out["thetaAB"] <= hi + 1e-12 and _rel(realized, expect["target"]) <= INDEPENDENT_REL_TOL
    return True


def execute_check(item, scratch) -> Outcome:
    code, text = _run_cli(item["input"])
    return Outcome(1, 0 if code == 0 and _check_passes(item["kind"], item["expect"], text) else 1)


# One CLI request per workload, answered by each fresh interpreter that
# measures set-up time.
SETUP_REQUEST = {
    "sweep": ["pair", "sweep", "--seed", "1", "--count", "5", "--max-dim", "3"],
    "design": ["oodp", "brute", "--a", "1,2", "--b", "1,3", "--cells", "8", "--kA", "4", "--kB", "4"],
    "check": _canonical_argv("L1"),
}

WORKLOADS = {
    "sweep": (build_sweep, execute_sweep),
    "design": (build_design, execute_design),
    "check": (build_check, execute_check),
}
