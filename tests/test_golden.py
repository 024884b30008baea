"""Golden corpus: stored CLI outputs that every refactor must reproduce.

Each case in golden/corpus.json is one `homobounds` invocation with the
input files it reads, its exit code, its stdout and, for `--out`, the file
it wrote.  Verdicts, regions, labels and other strings must match exactly;
numbers must agree to |x - y| <= 1e-12 max(1, |y|), which leaves room for
reordered floating-point arithmetic but not for a changed formula.

Regenerate only on purpose, from the commit whose outputs are the reference:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path

import pytest

from homobounds.cli import main

CORPUS = Path(__file__).parent / "golden" / "corpus.json"
REL_TOL = 1e-12


def run_case(case, workdir: Path) -> dict:
    """Run one invocation in workdir with its input files; capture its outputs."""
    for name, text in case.get("files", {}).items():
        (workdir / name).write_text(text)
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(case["argv"]))
    finally:
        os.chdir(cwd)
    argv = case["argv"]
    out_file = (workdir / argv[argv.index("--out") + 1]).read_text() if "--out" in argv else None
    return {"exit": code, "stdout": out.getvalue(), "out": out_file}


def _same_number(x: float, y: float) -> bool:
    if not (math.isfinite(x) and math.isfinite(y)):
        return repr(x) == repr(y)
    return abs(x - y) <= REL_TOL * max(1.0, abs(y))


def _same_value(x, y, where: str):
    if isinstance(y, bool) or isinstance(y, str) or y is None:
        assert x == y, f"{where}: {x!r} != {y!r}"
    elif isinstance(y, (int, float)):
        assert isinstance(x, (int, float)) and not isinstance(x, bool), f"{where}: {x!r} is not a number"
        assert _same_number(float(x), float(y)), f"{where}: {x!r} != {y!r}"
    elif isinstance(y, list):
        assert isinstance(x, list) and len(x) == len(y), f"{where}: {x!r} != {y!r}"
        for i, (xi, yi) in enumerate(zip(x, y)):
            _same_value(xi, yi, f"{where}[{i}]")
    else:
        assert isinstance(x, dict) and sorted(x) == sorted(y), f"{where}: keys {sorted(x)} != {sorted(y)}"
        for key in y:
            _same_value(x[key], y[key], f"{where}.{key}")


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def assert_same_output(actual: str, expected: str):
    """JSON reports compare as trees, CSV tables cell by cell."""
    if expected.lstrip().startswith("{"):
        _same_value(json.loads(actual), json.loads(expected), "$")
        return
    got, want = actual.strip().splitlines(), expected.strip().splitlines()
    assert len(got) == len(want), f"{len(got)} lines, expected {len(want)}"
    for row, (g, w) in enumerate(zip(got, want)):
        g_cells, w_cells = g.split(","), w.split(",")
        assert len(g_cells) == len(w_cells), f"line {row}: {g!r} != {w!r}"
        for col, (gc, wc) in enumerate(zip(g_cells, w_cells)):
            _same_value(_cell(gc), _cell(wc), f"line {row} column {col}")


def _load():
    return json.loads(CORPUS.read_text()) if CORPUS.exists() else []


@pytest.mark.parametrize("case", _load(), ids=lambda c: c["name"])
def test_golden(case, tmp_path, monkeypatch):
    monkeypatch.delenv("HOMOBOUNDS_TOL", raising=False)
    got = run_case(case, tmp_path)
    assert got["exit"] == case["exit"]
    assert_same_output(got["stdout"], case["stdout"])
    if case["out"] is not None:
        assert_same_output(got["out"], case["out"])


def test_corpus_present():
    assert len(_load()) >= 40


# ------------------------------------------------------------ case list


def _mat(m) -> str:
    return json.dumps([[float(x) for x in row] for row in m])


def _phase(x1, x2, theta) -> str:
    return f"{x1!r},{x2!r},{theta!r}"


def _spec(directions, weights, core, relation) -> str:
    return json.dumps({"directions": directions, "weights": weights, "core": core, "relation": relation})


def _pair_cases() -> list:
    """pair check on constructed pairs in every region, plus infeasible ones."""
    import numpy as np

    from homobounds.gclosure import PhaseA
    from homobounds.laminates import LaminateSpec, seq_A, seq_B_pp, simple_laminate_pair
    from homobounds.pairbounds import PhaseB
    from homobounds.symtensor import rotate, rotation_2d

    cases = []
    a, b = (1.0, 2.0), (1.0, 3.0)
    regions = {"L1U1": (0.3, 0.5), "L1U2": (0.5, 0.7), "L2U1": (0.5, 0.3), "L2U2": (0.7, 0.5)}
    for region, (ta, tb) in regions.items():
        pa, pb = PhaseA(*a, ta), PhaseB(*b, tb)
        lo, hi = max(0.0, ta + tb - 1.0), min(ta, tb)
        for label, tab in (("mid", 0.5 * (lo + hi)), ("nested", hi), ("disjoint", lo)):
            astar, bsharp = simple_laminate_pair(pa, pb, tab, 0, 2)
            q = rotation_2d(0.3)
            astar, bsharp = rotate(astar, q), rotate(bsharp, q)
            cases.append((f"pair_check_{region}_simple_{label}", pa, pb, astar.mat, bsharp.mat))
        relation, core = ("A_subset_B", "a2") if ta <= tb else ("B_subset_A", "a1")
        spec = LaminateSpec(((1.0, 0.0, 0.0), (0.0, 0.6, 0.8)), (0.35, 0.65), core, relation)
        cases.append((f"pair_check_{region}_seq_3d", pa, pb, seq_A(spec, pa).mat, seq_B_pp(spec, pa, pb).mat))
    pa, pb = PhaseA(*a, 0.4), PhaseB(2.0, 2.0, 0.6)
    astar, bsharp = simple_laminate_pair(pa, pb, 0.3, 1, 3)
    cases.append(("pair_check_const_b", pa, pb, astar.mat, bsharp.mat))
    pa, pb = PhaseA(*a, 0.5), PhaseB(*b, 0.5)
    lam = np.diag([4 / 3, 1.5])
    cases.append(("pair_check_outside_gset", pa, pb, np.diag([1.3, 1.5]), np.diag([1.6, 2.0])))
    cases.append(("pair_check_chain_violation", pa, pb, lam, np.diag([0.5, 0.5])))
    cases.append(("pair_check_bound_violation", pa, pb, lam, np.diag([1.5, 2.0])))
    cases.append(("pair_check_theta_zero", PhaseA(*a, 0.0), pb, np.diag([2.0, 2.0]), np.diag([2.0, 2.0])))
    # the verdict's edge branches at constant density: a middle factor that is
    # not positive definite, a1 = 1 (the core-a2 middle equals the chain link),
    # b2 - b1 of one ulp (judged as constant) and a homogeneous A-medium
    wide = np.diag([1.4, 1.45])
    cases.append(("pair_check_const_b_singular_middle", pa, PhaseB(1.0, 1.0, 0.5), wide, np.diag([0.1, 5.0])))
    cases.append(("pair_check_const_b_unit_a1", pa, PhaseB(1.3, 1.3, 0.5), wide, np.diag([1.5, 1.6])))
    pb = PhaseB(1.2, 1.2000000000000002, 0.4)
    cases.append(("pair_check_near_const_b", PhaseA(1.5, 3.0, 0.5), pb, np.diag([2.0, 2.25]), np.diag([1.3, 1.25])))
    cases.append(("pair_check_const_b_homogeneous_a", PhaseA(1.5, 3.0, 0.0), PhaseB(1.0, 1.0, 0.5), np.diag([3.0, 3.0]), np.eye(2)))
    out = []
    for name, pa, pb, astar, bsharp in cases:
        argv = ["pair", "check", "--a", _phase(pa.a1, pa.a2, pa.thetaA), "--b", _phase(pb.b1, pb.b2, pb.thetaB)]
        out.append({"name": name, "argv": argv + ["--astar", _mat(astar), "--bsharp", _mat(bsharp)]})
    return out


def build_cases() -> list:
    nested = json.dumps(
        {
            "cells": [
                {"len": 0.3, "inA": True, "inB": True},
                {"len": 0.2, "inA": True, "inB": False},
                {"len": 0.5, "inA": False, "inB": False},
            ],
            "periods": 1,
        }
    )
    instance = json.dumps({"cells": 12, "kA": 6, "kB": 6, "a": [1, 2], "b": [1, 3], "f": "const:1"})
    skew = json.dumps({"cells": 10, "kA": 3, "kB": 7, "a": [0.7, 2.5], "b": [1.2, 2.0], "f": "const:1.5"})
    ab = ["--a", "1,2,0.5", "--b", "1,3,0.5"]
    cases = [
        # README examples; the sweep keeps the first 200 of its 10^4 rows,
        # which a sequential draw reproduces exactly
        ("readme_gset_check", ["gset", "check", "--a", "1,2", "--theta", "0.5", "--astar", "[[1.3333333333,0],[0,1.5]]"]),
        ("readme_gset_sample", ["gset", "sample", "--a", "1,2,0.5", "--side", "upper", "--n", "50"]),
        ("readme_pair_check", ["pair", "check", *ab, "--astar", "[[1.3333333333333333,0],[0,1.5]]", "--bsharp", "[[1.5555555555555556,0],[0,2]]"]),
        ("readme_pair_sweep", ["pair", "sweep", "--seed", "7", "--count", "200", "--out", "sweep.csv"]),
        ("readme_laminate", ["laminate", "--spec", '{"directions":[[1,0]],"weights":[1],"core":"a2","relation":"A_subset_B"}', *ab]),
        ("readme_hashin", ["hashin", "--a", "1,2,0.5", "--coreA", "a1", "--const-b", "1", "--oracle"]),
        ("readme_oned_bounds", ["oned", "bounds", *ab]),
        ("readme_oned_invert", ["oned", "invert", *ab, "--target", "2.2222222222"]),
        ("readme_oned_converge", ["oned", "converge", *ab, "--profile", "nested.json", "--periods", "4,16,64,256"]),
        ("readme_odp_brute", ["odp", "brute", "--a", "1,2", "--cells", "12", "--kA", "6"]),
        ("readme_oodp_brute", ["oodp", "brute", "--instance", "instance.json"]),
        ("readme_phase", ["phase", *ab, "--n", "20"]),
        # the remaining subcommand actions and input routes
        ("gset_check_inside", ["gset", "check", "--a", "1,2,0.3", "--astar", "[[1.5,0.05],[0.05,1.6]]"]),
        ("gset_check_outside_3d", ["gset", "check", "--a", "1,2,0.5", "--astar", "[[1.3,0,0],[0,1.4,0],[0,0,1.45]]"]),
        ("gset_check_tol_flag", ["gset", "check", "--a", "1,2", "--theta", "0.5", "--astar", "[[1.3333333333,0],[0,1.5]]", "--tol", "1e-12"]),
        ("gset_sample_lower", ["gset", "sample", "--a", "0.8,3.1,0.35", "--side", "lower", "--n", "9"]),
        ("oned_bounds_u2", ["oned", "bounds", "--a", "0.7,2.5,0.8", "--b", "1.2,2.0,0.6"]),
        ("oned_invert_skew", ["oned", "invert", "--a", "0.7,2.5,0.8", "--b", "1.2,2.0,0.6", "--target", "1.7"]),
        ("oned_limits", ["oned", "limits", *ab, "--profile", "nested.json"]),
        ("oned_converge_source", ["oned", "converge", "--a", "0.7,2.5,0.5", "--b", "1.2,2.0,0.3", "--profile", "nested.json", "--periods", "2,8,32", "--f", "const:2"]),
        ("odp_relax", ["odp", "relax", "--a", "1,2", "--cells", "12", "--kA", "6"]),
        ("odp_relax_instance", ["odp", "relax", "--instance", "skew.json"]),
        ("odp_brute_instance", ["odp", "brute", "--instance", "skew.json"]),
        ("oodp_relax_instance", ["oodp", "relax", "--instance", "instance.json"]),
        ("oodp_relax_flags", ["oodp", "relax", "--a", "0.7,2.5", "--b", "1.2,2.0", "--cells", "10", "--kA", "7", "--kB", "3", "--f", "const:1.5"]),
        ("oodp_brute_flags", ["oodp", "brute", "--a", "0.7,2.5", "--b", "1.2,2.0", "--cells", "10", "--kA", "7", "--kB", "3"]),
        ("oodp_brute_skew", ["oodp", "brute", "--instance", "skew.json"]),
        ("phase_skew", ["phase", "--a", "0.7,2.5,0.25", "--b", "1.2,2.0,0.6", "--n", "7"]),
        ("pair_sweep_acceptance_seed", ["pair", "sweep", "--seed", "20260809", "--count", "500"]),
        # one laminate per relation
        ("laminate_A_subset_B", ["laminate", "--spec", _spec([[1, 0], [0.6, 0.8]], [0.25, 0.75], "a2", "A_subset_B"), "--a", "1,2,0.3", "--b", "1,3,0.5"]),
        ("laminate_disjoint_3d", ["laminate", "--spec", _spec([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0.2, 0.3, 0.5], "a2", "disjoint"), "--a", "0.7,2.5,0.3", "--b", "1.2,2.0,0.5"]),
        ("laminate_B_subset_A", ["laminate", "--spec", _spec([[1, 0], [0, 1]], [0.4, 0.6], "a1", "B_subset_A"), "--a", "1,2,0.6", "--b", "1,3,0.3"]),
        ("laminate_complement_cover", ["laminate", "--spec", _spec([[1, 0], [0, 1]], [0.5, 0.5], "a1", "complement_cover"), "--a", "1,2,0.6", "--b", "1,3,0.6"]),
        ("laminate_complement_cover_violation", ["laminate", "--spec", _spec([[1, 0]], [1], "a1", "complement_cover"), "--a", "1,2,0.75", "--b", "1,3,0.5"]),
        ("laminate_const_b_core_a1", ["laminate", "--spec", _spec([[1, 0, 0], [0, 0.6, 0.8]], [0.5, 0.5], "a1", "const_b"), "--a", "1,2,0.4", "--const-b", "1.7"]),
        ("laminate_const_b_core_a2", ["laminate", "--spec", _spec([[1, 0]], [1], "a2", "const_b"), "--a", "1,2,0.4", "--const-b", "1.7"]),
        ("laminate_region_mismatch", ["laminate", "--spec", _spec([[1, 0]], [1], "a2", "A_subset_B"), "--a", "1,2,0.6", "--b", "1,3,0.3"]),
        # one coated-sphere configuration each, with the quadrature oracle
        ("hashin_a1_const", ["hashin", "--a", "1,2,0.5", "--coreA", "a1", "--const-b", "1.3", "--n", "3", "--oracle"]),
        ("hashin_a2_const", ["hashin", "--a", "0.7,2.5,0.35", "--coreA", "a2", "--const-b", "2.1", "--oracle"]),
        ("hashin_a1_b1_B_in_A", ["hashin", "--a", "1,2,0.6", "--b", "1,3,0.4", "--coreA", "a1", "--coreB", "b1", "--inclusion", "B_in_A", "--oracle"]),
        ("hashin_a2_b2_A_in_B", ["hashin", "--a", "1,2,0.4", "--b", "1,3,0.6", "--coreA", "a2", "--coreB", "b2", "--inclusion", "A_in_B", "--n", "3", "--oracle"]),
        ("hashin_a2_b1_A_in_Bc", ["hashin", "--a", "0.7,2.5,0.3", "--b", "1.2,2.0,0.5", "--coreA", "a2", "--coreB", "b1", "--inclusion", "A_in_Bc", "--oracle"]),
        ("hashin_a1_b2_Ac_in_B", ["hashin", "--a", "1,2,0.7", "--b", "1,3,0.5", "--coreA", "a1", "--coreB", "b2", "--inclusion", "Ac_in_B", "--n", "3", "--oracle"]),
        ("hashin_incompatible", ["hashin", "--a", "1,2,0.3", "--b", "1,3,0.5", "--coreA", "a1", "--coreB", "b1", "--inclusion", "B_in_A"]),
    ]
    files = {"nested.json": nested, "instance.json": instance, "skew.json": skew}
    out = []
    for name, argv in cases:
        case = {"name": name, "argv": argv}
        used = {f: files[f] for f in files if f in argv}
        if used:
            case["files"] = used
        out.append(case)
    return out + _pair_cases()


def regenerate():
    import tempfile

    corpus = []
    for case in build_cases():
        with tempfile.TemporaryDirectory() as tmp:
            corpus.append({**case, **run_case(case, Path(tmp))})
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
    print(f"wrote {len(corpus)} cases to {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
