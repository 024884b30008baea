import argparse
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from homobounds.cli import _subcommands, build_parser, main, parse_request


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestGset:
    def test_check_corner(self, capsys):
        code, out = run(
            capsys,
            "gset",
            "check",
            "--a",
            "1,2",
            "--theta",
            "0.5",
            "--astar",
            "[[1.3333333333333333,0],[0,1.5]]",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "corner"

    def test_degenerate_contrast_exit_2(self, capsys):
        code, _ = run(capsys, "gset", "check", "--a", "1,1.0000001", "--theta", "0.0", "--astar", "[[1,0],[0,1]]")
        assert code == 2

    def test_sample_csv(self, capsys):
        code, out = run(capsys, "gset", "sample", "--a", "1,2,0.5", "--side", "upper", "--n", "50")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda1,lambda2"
        assert len(lines) == 51

    def test_assert_outside_exit_1(self, capsys):
        code, _ = run(
            capsys,
            "gset",
            "check",
            "--a",
            "1,2,0.5",
            "--astar",
            "[[1.3333333333333333,0],[0,1.3333333333333333]]",
            "--assert",
        )
        assert code == 1


class TestPair:
    def test_check_report(self, capsys):
        code, out = run(
            capsys,
            "pair",
            "check",
            "--a",
            "1,2,0.5",
            "--b",
            "1,3,0.5",
            "--astar",
            "[[1.3333333333333333,0],[0,1.5]]",
            "--bsharp",
            "[[1.5555555555555556,0],[0,2]]",
        )
        assert code == 0
        data = json.loads(out)
        assert data["region"] == "L1U1"
        assert abs(data["li_slack"]) <= 1e-9
        assert data["verdict"] == "boundary"

    def test_chain_violation_assert(self, capsys):
        code, out = run(
            capsys,
            "pair",
            "check",
            "--a",
            "1,2,0.5",
            "--b",
            "1,3,0.5",
            "--astar",
            "[[1.3333333333333333,0],[0,1.5]]",
            "--bsharp",
            "[[0.5,0],[0,0.5]]",
            "--assert",
        )
        assert code == 1
        assert json.loads(out)["verdict"] == "infeasible"

    def test_sweep_deterministic(self, capsys, tmp_path):
        f1, f2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert main(["pair", "sweep", "--seed", "7", "--count", "40", "--out", str(f1)]) == 0
        assert main(["pair", "sweep", "--seed", "7", "--count", "40", "--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()
        assert main(["pair", "sweep", "--seed", "8", "--count", "40", "--out", str(f2)]) == 0
        assert f1.read_bytes() != f2.read_bytes()


class TestOned:
    def test_bounds(self, capsys):
        code, out = run(capsys, "oned", "bounds", "--a", "1,2,0.5", "--b", "1,3,0.5")
        assert code == 0
        data = json.loads(out)
        assert data["l"] == pytest.approx(14 / 9)
        assert data["u"] == pytest.approx(26 / 9)

    def test_invert(self, capsys):
        code, out = run(capsys, "oned", "invert", "--a", "1,2,0.5", "--b", "1,3,0.5", "--target", "2.2222222222")
        assert code == 0
        data = json.loads(out)
        assert data["thetaAB"] == pytest.approx(0.25, abs=1e-9)
        assert data["profile"]["cells"][0]["inA"] is True

    def test_converge_round_trip(self, capsys, tmp_path):
        # the inverted profile feeds straight back into the convergence table
        code, out = run(capsys, "oned", "invert", "--a", "1,2,0.5", "--b", "1,3,0.5", "--target", "1.5555555555555556")
        profile_path = tmp_path / "nested.json"
        profile_path.write_text(json.dumps(json.loads(out)["profile"]))
        code, out = run(
            capsys,
            "oned",
            "converge",
            "--a",
            "1,2,0.5",
            "--b",
            "1,3,0.5",
            "--profile",
            str(profile_path),
            "--periods",
            "4,16,64,256",
            "--assert",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("periods,")
        assert len(lines) == 5
        assert float(lines[-1].split(",")[-1]) <= 0.02

    def test_limits(self, capsys, tmp_path):
        profile_path = tmp_path / "p.json"
        profile_path.write_text(
            json.dumps({"cells": [{"len": 0.5, "inA": True, "inB": True}, {"len": 0.5, "inA": False, "inB": False}], "periods": 1})
        )
        code, out = run(capsys, "oned", "limits", "--a", "1,2,0.5", "--b", "1,3,0.5", "--profile", str(profile_path))
        assert code == 0
        assert json.loads(out)["lim_b_a2"] == pytest.approx(0.875)


class TestDesign:
    def test_odp_relax(self, capsys):
        code, out = run(capsys, "odp", "relax", "--a", "1,2", "--cells", "4", "--kA", "2")
        assert code == 0
        assert json.loads(out)["relaxed_value"] == pytest.approx(5 / 96)

    def test_oodp_instance_file(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"cells": 8, "kA": 4, "kB": 4, "a": [1, 2], "b": [1, 3], "f": "const:1"}))
        code, out = run(capsys, "oodp", "brute", "--instance", str(inst))
        assert code == 0
        assert json.loads(out)["min_value"] == pytest.approx(7 / 96)

    def test_odp_brute(self, capsys):
        code, out = run(capsys, "odp", "brute", "--a", "1,2", "--cells", "6", "--kA", "3")
        assert code == 0
        data = json.loads(out)
        assert data["min_value"] == pytest.approx(5 / 96)
        assert sum(data["argmin"]) == 3

    def test_odp_brute_at_the_cell_cap(self, capsys):
        # 184,756 placements at the 20-cell cap; with a1 = 1, a2 = 2 every
        # placement scores the same, so the first placement is the argmin
        code, out = run(capsys, "odp", "brute", "--a", "1,2", "--cells", "20", "--kA", "10")
        assert code == 0
        data = json.loads(out)
        code, out = run(capsys, "odp", "relax", "--a", "1,2", "--cells", "20", "--kA", "10")
        assert code == 0
        assert data["min_value"] >= json.loads(out)["relaxed_value"] - 1e-12
        assert data["argmin"] == [1] * 10 + [0] * 10


class TestHashin:
    def test_eval_with_oracle(self, capsys):
        code, out = run(
            capsys, "hashin", "--a", "1,2,0.5", "--coreA", "a1", "--const-b", "1.0", "--oracle", "--n", "2"
        )
        assert code == 0
        data = json.loads(out)
        assert data["m"] == pytest.approx(10 / 7, abs=1e-12)
        assert data["bsharp"] == pytest.approx(51 / 49, abs=1e-12)
        assert data["bsharp_quadrature"] == pytest.approx(51 / 49, rel=1e-8)

    def test_two_phase(self, capsys):
        code, out = run(
            capsys,
            "hashin",
            "--a",
            "1,2,0.5",
            "--b",
            "1,3,0.7",
            "--coreA",
            "a2",
            "--coreB",
            "b2",
            "--inclusion",
            "A_in_B",
        )
        assert code == 0
        assert json.loads(out)["bsharp"] > 1.0


NESTED_SPEC = json.dumps({"directions": [[1.0, 0.0]], "weights": [1.0], "core": "a2", "relation": "A_subset_B"})


def check_nested_laminate(capsys, *spec_argv):
    code, out = run(capsys, "laminate", *spec_argv, "--a", "1,2,0.5", "--b", "1,3,0.5")
    assert code == 0
    data = json.loads(out)
    assert data["bsharp"][0][0] == pytest.approx(14 / 9)
    assert data["chain_ok"] is True


class TestLaminate:
    def test_build_from_inline_spec(self, capsys):
        check_nested_laminate(capsys, "--spec", NESTED_SPEC)

    def test_build_from_spec_file(self, capsys, tmp_path):
        (tmp_path / "spec.json").write_text(NESTED_SPEC)
        check_nested_laminate(capsys, "--spec-file", str(tmp_path / "spec.json"))

    def test_chain_violation_reported(self, capsys):
        spec = json.dumps(
            {"directions": [[1.0, 0.0]], "weights": [1.0], "core": "a1", "relation": "complement_cover"}
        )
        code, out = run(capsys, "laminate", "--spec", spec, "--a", "1,2,0.75", "--b", "1,3,0.5", "--assert")
        assert code == 1
        data = json.loads(out)
        assert data["chain_ok"] is False
        assert data["bsharp"][1][1] == pytest.approx(81 / 16)

    def test_const_b_small_weight_direction(self, capsys):
        # a direction of weight 1e-9 is a valid laminate; its relative limit
        # is b plus 2.5e-7, not a mismatch to reject
        spec = json.dumps(
            {"directions": [[1, 0], [0, 1]], "weights": [0.999999999, 1e-9], "core": "a2", "relation": "const_b"}
        )
        code, out = run(capsys, "laminate", "--spec", spec, "--a", "1,500,0.999", "--const-b", "1")
        assert code == 0
        assert json.loads(out)["bsharp"][1][1] == pytest.approx(1.00000024875175099, rel=1e-12, abs=0)


class TestPhase:
    def test_diagram(self, capsys):
        code, out = run(capsys, "phase", "--a", "1,2,0.5", "--b", "1,3,0.5", "--n", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda1,lambda2,mu1_low,mu2_low,mu1_high,mu2_high"
        assert len(lines) == 6
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == pytest.approx(4 / 3)
        assert first[2] == pytest.approx(14 / 9)
        assert first[5] == pytest.approx(26 / 9)

    def test_homogeneous_a2_medium(self, capsys):
        code, out = run(capsys, "phase", "--a", "1,2,0", "--b", "1,3,0.5", "--n", "3")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 3
        assert all([float(x) for x in row.split(",")] == [2.0] * 6 for row in rows)


class TestEnv:
    def test_tol_env_override(self, capsys, monkeypatch):
        # absurdly large tolerance turns an outside verdict into boundary
        monkeypatch.setenv("HOMOBOUNDS_TOL", "10.0")
        code, out = run(
            capsys,
            "gset",
            "check",
            "--a",
            "1,2,0.5",
            "--astar",
            "[[1.3333333333333333,0],[0,1.3333333333333333]]",
        )
        assert code == 0
        assert json.loads(out)["verdict"] != "outside"


def exit_code(argv) -> int:
    """Process exit status of one invocation; argparse rejects flags by SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


CHECK = ["gset", "check", "--a", "1,2,0.5"]
INSIDE = "[[1.4,0],[0,1.45]]"
SWEEP = ["pair", "sweep", "--seed", "1", "--count", "2"]
UNREAD_BY_SWEEP = [("--a", "1,2,0.5"), ("--theta", "0"), ("--b", "1,3,0.5"), ("--thetaB", "0.5"), ("--astar", INSIDE), ("--bsharp", INSIDE)]
SAMPLE = ["gset", "sample", "--a", "1,2,0.5", "--n", "3"]
UNREAD_BY_SAMPLE = [["--astar", INSIDE], ["--tol", "0"], ["--assert"]]


@pytest.mark.parametrize(
    "argv, env, instance",
    [
        (CHECK + ["--astar", "[[NaN,0],[0,1.5]]"], None, None),
        (CHECK + ["--astar", "[[Infinity,0],[0,1.5]]"], None, None),
        (CHECK + ["--astar", "[[1e999,0],[0,1.5]]"], None, None),
        (CHECK + ["--astar", INSIDE, "--tol", "nan"], None, None),
        (CHECK + ["--astar", INSIDE, "--tol", "inf"], None, None),
        (CHECK + ["--astar", INSIDE, "--tol=-1e-9"], None, None),
        (CHECK + ["--astar", INSIDE], "nan", None),
        (CHECK + ["--astar", INSIDE], "-1", None),
        (["gset", "check", "--a", "1,nan,0.5", "--astar", INSIDE], None, None),
        (["gset", "check", "--a", "1,2", "--theta", "nan", "--astar", INSIDE], None, None),
        (["gset", "check", "--a", "1", "--astar", INSIDE], None, None),
        (["laminate", "--spec", '{"directions":[[NaN,0]],"weights":[1],"core":"a2","relation":"const_b"}', "--a", "1,2,0.5"], None, None),
        (["odp", "relax", "--a", "1,2", "--cells", "0", "--kA", "0"], None, None),
        (["odp", "brute", "--a", "1,2", "--cells", "0", "--kA", "0"], None, None),
        (["odp", "relax", "--a", "1,2", "--f", "const:nan"], None, None),
        (["oodp", "relax", "--a", "1,2", "--b", "1,3", "--cells", "0", "--kA", "0", "--kB", "0"], None, None),
        (["odp", "relax", "--instance", "inst.json"], None, {"cells": 0, "kA": 0, "a": [1, 2], "f": "const:1"}),
        (["oodp", "brute", "--instance", "inst.json"], None, {"cells": 0, "kA": 0, "kB": 0, "a": [1, 2], "b": [1, 3], "f": "const:1"}),
        (["oodp", "relax", "--instance", "inst.json"], None, {"cells": 4.0, "kA": 2, "kB": 2, "a": [1, 2], "b": [1, 3], "f": "const:1"}),
        (["laminate", "--spec", "[1]", "--a", "1,2,0.5"], None, None),
        (["laminate", "--spec", '{"directions":5,"weights":[1],"core":"a2","relation":"const_b"}', "--a", "1,2,0.5"], None, None),
        (["laminate", "--spec", '{"directions":[1],"weights":[1],"core":"a2","relation":"const_b"}', "--a", "1,2,0.5"], None, None),
        (["laminate", "--spec", '{"directions":[[1,0]],"weights":5,"core":"a2","relation":"const_b"}', "--a", "1,2,0.5"], None, None),
        (["laminate", "--spec", '{"directions":[[null,1]],"weights":[1],"core":"a2","relation":"const_b"}', "--a", "1,2,0.5"], None, None),
        (["laminate", "--spec", '{"directions":[[1,0],[1]],"weights":[0.5,0.5],"core":"a2","relation":"const_b"}', "--a", "1,2,0.5"], None, None),
        (CHECK + ["--astar", '{"a":1}'], None, None),
        (["odp", "relax", "--instance", "inst.json"], None, [1, 2]),
        (["odp", "relax", "--instance", "inst.json"], None, {"cells": 12, "kA": 6, "a": 5, "f": "const:1"}),
        (["oodp", "relax", "--instance", "inst.json"], None, {"cells": 4, "kA": 2, "kB": 2, "a": [1, 2], "b": [1, 3], "f": 1}),
        (["oned", "limits", "--a", "1,2,0.5", "--b", "1,3,0.5", "--profile", "inst.json"], None, [1, 2]),
        (["oned", "limits", "--a", "1,2,0.5", "--b", "1,3,0.5", "--profile", "inst.json"], None, {"cells": [{"len": None, "inA": True, "inB": True}], "periods": 1}),
        (["pair", "sweep", "--max-dim", "9", "--count", "3"], None, None),
        (["pair", "sweep", "--max-dim", "1", "--count", "3"], None, None),
        (["pair", "sweep", "--count", "-5"], None, None),
        (["odp", "relax", "--a", "1,2", "--theta", "0.9", "--cells", "4", "--kA", "2"], None, None),
        (["oodp", "relax", "--a", "1,2", "--theta", "0.9", "--b", "1,3", "--cells", "4", "--kA", "2", "--kB", "2"], None, None),
        (["oodp", "brute", "--a", "1,2", "--b", "1,3", "--thetaB", "0.2", "--cells", "4", "--kA", "2", "--kB", "2"], None, None),
        (["odp", "relax", "--a", "1,2,0.9", "--cells", "4", "--kA", "2"], None, None),
        (["oodp", "brute", "--a", "1,2", "--b", "1,3,0.2", "--cells", "4", "--kA", "2", "--kB", "2"], None, None),
        (["odp", "brute", "--instance", "inst.json"], None, {"cells": 4, "kA": 2, "a": [1, 2, 0.9], "f": "const:1"}),
        (["oodp", "relax", "--instance", "inst.json"], None, {"cells": 4, "kA": 2, "kB": 2, "a": [1, 2], "b": [1, 3, 0.2], "f": "const:1"}),
        (["laminate", "--a", "1,2,0.5"], None, None),
        (["pair", "sweep", "--seed", "-1", "--count", "3"], None, None),
        (["pair", "sweep", "--seed", "18446744073709551616", "--count", "3"], None, None),
        (["oned", "limits", "--a", "1,2,0.5", "--b", "1,3,0.5", "--profile", "inst.json"], None, {"cells": [{"len": 1.0, "inA": "no", "inB": True}], "periods": 1}),
        (["oned", "limits", "--a", "1,2,0.5", "--b", "1,3,0.5", "--profile", "inst.json"], None, {"cells": [{"len": True, "inA": True, "inB": True}], "periods": 1}),
        (["oned", "converge", "--a", "1,2,0.5", "--b", "1,3,0.5", "--profile", "inst.json"], None, {"cells": [{"len": 1.0, "inA": True, "inB": True}], "periods": 1.5}),
        (["hashin", "--a", "1,2,0.5", "--coreA", "a1", "--oracle", "--points", "-5"], None, None),
        (["oned", "invert", "--a", "1,2,0.5", "--b", "1,3,0.5", "--target", "2.2", "--f", "const:nan"], None, None),
        (["oned", "bounds", "--a", "1,2,0.5", "--b", "1,3,0.5", "--f", "bogus"], None, None),
        (["oned", "bounds", "--a", "1,2,0.5", "--b", "1,3,0.5", "--periods", "abc"], None, None),
        (CHECK + ["--theta", "0.3", "--astar", INSIDE], None, None),
        (["pair", "check", "--a", "1,2,0.5", "--b", "1,3,0.5", "--thetaB", "0.9", "--astar", INSIDE, "--bsharp", "[[2,0],[0,2]]"], None, None),
        (["gset", "check", "--a", "1,2", "--astar", INSIDE], None, None),
        (["pair", "check", "--b", "1,3,0.5", "--astar", INSIDE, "--bsharp", INSIDE], None, None),
        (["pair", "check", "--a", "1,2,0.5", "--b", "1,3,0.5", "--bsharp", INSIDE], None, None),
        (["oned", "limits", "--a", "1,2,0.5", "--b", "1,3,0.5"], None, None),
        (["oned", "invert", "--a", "1,2,0.5", "--b", "1,3,0.5"], None, None),
        (["phase", "--a", "1,2,0.5", "--b", "1,3,0.3"], None, None),
        (CHECK + ["--astar", "[[1e308,0],[0,1e308]]"], None, None),
        (["pair", "check", "--a", "1,2,0.5", "--b", "1,3,0.5", "--astar", INSIDE, "--bsharp", "[[1e308,0],[0,1e308]]"], None, None),
        (["hashin", "--a", "1,2,0.5", "--coreA", "a1", "--const-b", "-1"], None, None),
        (["hashin", "--a", "1,2,0.5", "--coreA", "a1", "--const-b", "0"], None, None),
        (["laminate", "--spec", '{"directions":[[1,0]],"weights":[1],"core":"a2","relation":"const_b"}', "--a", "1,2,0.5", "--const-b", "0"], None, None),
        (["laminate", "--spec", '{"directions":[[1,0]],"weights":[1],"core":"a2","relation":"const_b"}', "--a", "1,2,0.5", "--const-b", "-1"], None, None),
        # JSON true and false where numbers belong
        (CHECK + ["--astar", "[[true,0],[0,2]]"], None, None),
        (["pair", "check", "--a", "1,2,0.5", "--b", "1,3,0.5", "--astar", INSIDE, "--bsharp", "[[false,0],[0,2]]"], None, None),
        (["laminate", "--spec", '{"directions":[[true,0]],"weights":[1],"core":"a2","relation":"const_b"}', "--a", "1,2,0.5"], None, None),
        (["laminate", "--spec", '{"directions":[[1,0]],"weights":[true],"core":"a2","relation":"const_b"}', "--a", "1,2,0.5"], None, None),
        (["laminate", "--spec", '{"directions":[[1,0]],"weights":true,"core":"a2","relation":"const_b"}', "--a", "1,2,0.5"], None, None),
        (["oodp", "relax", "--instance", "inst.json"], None, {"cells": True, "kA": True, "kB": True, "a": [1, 2], "b": [1, 3], "f": "const:1"}),
        (["odp", "relax", "--instance", "inst.json"], None, {"cells": 4, "kA": True, "a": [1, 2], "f": "const:1"}),
        (["odp", "relax", "--instance", "inst.json"], None, {"cells": 4, "kA": 2, "a": [True, 2], "f": "const:1"}),
        (["oodp", "brute", "--instance", "inst.json"], None, {"cells": 4, "kA": 2, "kB": 2, "a": [1, 2], "b": [1, True], "f": "const:1"}),
        # flags the subcommand declares and the action does not read
        (["pair", "sweep", "--seed", "1", "--count", "2", "--a", "x", "--astar", "[[nan]]"], None, None),
        *[(SWEEP + [flag, value], None, None) for flag, value in UNREAD_BY_SWEEP],
        (["gset", "sample", "--a", "1,2,0.5", "--astar", "not json", "--assert"], None, None),
        *[(SAMPLE + flag, None, None) for flag in UNREAD_BY_SAMPLE],
    ],
)
def test_invalid_input_exit_2(argv, env, instance, tmp_path, monkeypatch):
    # non-finite numbers, bad tolerances and empty grids are usage errors,
    # never a verdict and never a traceback
    monkeypatch.chdir(tmp_path)
    if env is None:
        monkeypatch.delenv("HOMOBOUNDS_TOL", raising=False)
    else:
        monkeypatch.setenv("HOMOBOUNDS_TOL", env)
    if instance is not None:
        (tmp_path / "inst.json").write_text(json.dumps(instance))
    assert exit_code(argv) == 2


@pytest.mark.parametrize(
    "argv, flag",
    [(SWEEP + [flag, value], flag) for flag, value in UNREAD_BY_SWEEP] + [(SAMPLE + flag, flag[0]) for flag in UNREAD_BY_SAMPLE],
)
def test_unread_flag_is_named(argv, flag, capsys):
    # a valid value of a flag the action does not read is refused, not ignored
    assert exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {argv[0]} {argv[1]} does not read {flag}\n"


@pytest.mark.parametrize(
    "argv, document, key, doc",
    [
        (["laminate", "--spec", '{"directions":[[1,0]],"core":"a2","relation":"const_b"}', "--a", "1,2,0.5"], "laminate spec", "weights", None),
        (["oned", "limits", "--a", "1,2,0.5", "--b", "1,3,0.5", "--profile", "doc.json"], "profile", "periods", {"cells": [{"len": 1.0, "inA": True, "inB": True}]}),
        (["odp", "relax", "--instance", "doc.json"], "design instance", "a", {"cells": 4, "kA": 2, "f": "const:1"}),
        (["oodp", "relax", "--instance", "doc.json"], "design instance", "kB", {"cells": 4, "kA": 2, "a": [1, 2], "b": [1, 3], "f": "const:1"}),
    ],
    ids=["laminate-spec", "profile", "odp-instance", "oodp-instance"],
)
def test_missing_key_is_named(argv, document, key, doc, tmp_path, monkeypatch, capsys):
    # a JSON input without a required key names the key and the document
    monkeypatch.chdir(tmp_path)
    if doc is not None:
        (tmp_path / "doc.json").write_text(json.dumps(doc))
    assert exit_code(argv) == 2
    err = capsys.readouterr().err
    assert document in err and repr(key) in err


@pytest.mark.parametrize(
    "argv, doc, field",
    [
        (CHECK + ["--astar", "[[true,0],[0,2]]"], None, "--astar"),
        (["pair", "check", "--a", "1,2,0.5", "--b", "1,3,0.5", "--astar", INSIDE, "--bsharp", "[[1,0],[0,false]]"], None, "--bsharp"),
        (["laminate", "--spec", '{"directions":[[1,0],[0,true]],"weights":[0.5,0.5],"core":"a2","relation":"const_b"}', "--a", "1,2,0.5"], None, "'directions'"),
        (["laminate", "--spec", '{"directions":[[1,0]],"weights":[true],"core":"a2","relation":"const_b"}', "--a", "1,2,0.5"], None, "'weights'"),
        (["oodp", "relax", "--instance", "doc.json"], {"cells": True, "kA": True, "kB": True, "a": [1, 2], "b": [1, 3], "f": "const:1"}, "cells=True"),
        (["oodp", "relax", "--instance", "doc.json"], {"cells": 4, "kA": 2, "kB": False, "a": [1, 2], "b": [1, 3], "f": "const:1"}, "kB=False"),
        (["oodp", "relax", "--instance", "doc.json"], {"cells": 4, "kA": 2, "kB": 2, "a": [True, 2], "b": [1, 3], "f": "const:1"}, "--a"),
        (["oodp", "relax", "--instance", "doc.json"], {"cells": 4, "kA": 2, "kB": 2, "a": [1, 2], "b": [1, True], "f": "const:1"}, "--b"),
    ],
    ids=["astar", "bsharp", "directions", "weights", "cells", "kB", "a", "b"],
)
def test_boolean_for_a_number_is_named(argv, doc, field, tmp_path, monkeypatch, capsys):
    # float() would read true as 1.0; the error names the field that held it
    monkeypatch.chdir(tmp_path)
    if doc is not None:
        (tmp_path / "doc.json").write_text(json.dumps(doc))
    assert exit_code(argv) == 2
    assert field in capsys.readouterr().err


def test_huge_direction_prints_only_the_error(capsys):
    # a finite direction whose squared norm overflows is refused without a numpy RuntimeWarning
    spec = '{"directions":[[1e308,1e308]],"weights":[1],"core":"a2","relation":"const_b"}'
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would escape main as an exception
        assert exit_code(["laminate", "--spec", spec, "--a", "1,2,0.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not a unit vector" in err and err.count("\n") == 1


A_SUBSET_B_2D = '{"directions":[[1,0]],"weights":[1],"core":"a2","relation":"A_subset_B"}'


@pytest.mark.parametrize(
    "argv",
    [
        # hs_b's swell overflows
        ["hashin", "--a", "1e154,1.7e308,0.3", "--b", "1,2,0.3", "--coreA", "a2", "--coreB", "b2", "--inclusion", "A_in_B", "--n", "2"],
        # hs_b's denominator squared underflows to zero
        ["hashin", "--a", "5e-324,1e-300,0.3", "--b", "1e-300,2,1", "--coreA", "a2", "--coreB", "b2", "--inclusion", "A_in_B", "--n", "2"],
        # gradient_extremes' osc divides by a1^2, which underflows to zero
        ["laminate", "--spec", A_SUBSET_B_2D, "--a", "1e-300,1,0", "--b", "1e5,1.7e308,0.5"],
    ],
    ids=["hs_b_overflow", "hs_b_zero_division", "gradient_extremes_zero_division"],
)
def test_scalar_arithmetic_error_exits_2(argv, capsys):
    # Python's float arithmetic raises where numpy would warn: an
    # ArithmeticError is a refused request, never a traceback with exit 1
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_laminate_on_a_homogeneous_a_medium(capsys):
    # at thetaA = 1 the medium is a1 I and B# = mean(b) I, answered without a warning
    disjoint = '{"directions":[[1,0],[0,1]],"weights":[0.5,0.5],"core":"a2","relation":"disjoint"}'
    cases = [(disjoint, "1.0,2.0,0.0", 2.0), (A_SUBSET_B_2D, "1.0,2.0,1.0", 1.0)]
    for spec, b, mean in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would escape main as an exception
            code, out = run(capsys, "laminate", "--spec", spec, "--a", "0.5,0.75,1.0", "--b", b)
        assert code == 0
        data = json.loads(out)
        assert data["chain_ok"] is True
        assert data["astar"] == [[0.5, 0.0], [0.0, 0.5]] and data["bsharp"] == [[mean, 0.0], [0.0, mean]]


# infeasible at the default tolerance, boundary at tolerance 10
LEAK_REQUEST = ["pair", "check", "--a", "1,2,0.5", "--b", "1,3,0.5", "--astar", "[[1.3333333333333333,0],[0,1.5]]", "--bsharp", "[[1.5,0],[0,1.5]]"]


def test_no_state_leaks_between_main_calls(capsys, monkeypatch):
    # each call in one process prints and exits as the same call in a fresh interpreter
    steps = [
        (LEAK_REQUEST + ["--tol", "10"], None),
        (LEAK_REQUEST, None),
        (LEAK_REQUEST + ["--assert"], None),
        (LEAK_REQUEST, None),
        (LEAK_REQUEST, "10"),
        (LEAK_REQUEST, None),
        (["pair", "check", "--no-such-flag"], None),
        (LEAK_REQUEST, None),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("HOMOBOUNDS_TOL", None)
    fresh = {}
    for argv, tol in steps:  # the distinct invocations, run side by side
        if (tuple(argv), tol) not in fresh:
            proc_env = env if tol is None else dict(env, HOMOBOUNDS_TOL=tol)
            fresh[tuple(argv), tol] = subprocess.Popen(
                [sys.executable, "-m", "homobounds.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=proc_env
            )
    for key, proc in fresh.items():
        out, err = proc.communicate(timeout=120)
        fresh[key] = (proc.returncode, out, err)

    verdicts = []
    for argv, tol in steps:
        if tol is None:
            monkeypatch.delenv("HOMOBOUNDS_TOL", raising=False)
        else:
            monkeypatch.setenv("HOMOBOUNDS_TOL", tol)
        code = exit_code(argv)
        out, err = capsys.readouterr()
        assert (code, out, err) == fresh[tuple(argv), tol], (argv, tol)
        verdicts.append(json.loads(out)["verdict"] if code != 2 else "usage")
    # the sequence exercises a changed verdict and exit code at every switch
    assert verdicts == ["boundary", "infeasible", "infeasible", "infeasible", "boundary", "infeasible", "usage", "infeasible"]
    assert [fresh[tuple(argv), tol][0] for argv, tol in steps] == [0, 0, 1, 0, 0, 0, 2, 0]


def test_parser_is_built_once(monkeypatch, capsys):
    # main reuses one parser: no ArgumentParser is constructed after the first call
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    exit_code(CHECK + ["--astar", INSIDE])
    after_first = len(built)
    for argv in [
        CHECK + ["--astar", INSIDE],
        LEAK_REQUEST,
        ["laminate", "--spec", SPEC, "--a", "1,2,0.5", "--b", "1,3,0.5"],
        ["hashin", "--a", "1,2,0.5", "--coreA", "a1"],
        ["oned", "bounds", "--a", "1,2,0.5", "--b", "1,3,0.5"],
        ["odp", "relax", "--a", "1,2", "--cells", "4", "--kA", "2"],
        ["phase", "--a", "1,2,0.5", "--b", "1,3,0.5", "--n", "3"],
        ["pair", "check", "--no-such-flag"],
    ]:
        assert exit_code(argv) in (0, 2)
    capsys.readouterr()
    assert len(built) == after_first


def test_report_tuples_do_not_pile_up():
    # reports reach JSON without dataclasses.asdict, which rebuilt every tuple
    # from a generator; the resized tuples piled up on the free lists, about
    # 2.6 blocks per check here
    argvs = [CHECK + ["--astar", INSIDE], LEAK_REQUEST]

    def blocks_after(n):
        for i in range(n):
            with contextlib.redirect_stdout(io.StringIO()):
                main(argvs[i % 2])
        gc.collect(1)  # the JSON encoder's reference cycles, leaving the free lists alone
        return sys.getallocatedblocks()

    gc.collect()  # a full collection also empties the free lists
    settled = blocks_after(300)
    growth = (blocks_after(600) - settled) / 600
    assert growth < 0.5, f"{growth:.2f} blocks per call"


@pytest.mark.parametrize(
    "target, error, argv",
    [
        ("homobounds.pairbounds.pair_membership", "NoBracket", ["pair", "check", "--a", "1,2,0.5", "--b", "1,3,0.5", "--astar", INSIDE, "--bsharp", INSIDE]),
        pytest.param(
            "homobounds.laminates._seq_const_stack",
            "ZeroDivisionError",
            ["laminate", "--spec", '{"directions":[[1,0]],"weights":[1],"core":"a2","relation":"const_b"}', "--a", "1,2,0.5"],
            id="laminate-ZeroDivisionError",
        ),
    ],
)
def test_library_errors_exit_2(target, error, argv, monkeypatch):
    # a library failure is a validation error, not the --assert exit code 1
    from homobounds import gclosure

    exc = {"NoBracket": gclosure.NoBracket("no root"), "ZeroDivisionError": ZeroDivisionError("float division by zero")}[error]

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(target, fail)
    assert exit_code(argv) == 2


SPEC = '{"directions":[[1,0]],"weights":[1],"core":"a2","relation":"A_subset_B"}'


@pytest.mark.parametrize(
    "argv",
    [
        ["laminate", "--spec", SPEC, "--a", "1,2,0.5", "--b", "1,3,0.5", "--tol", "1e-9"],
        ["hashin", "--a", "1,2,0.5", "--coreA", "a1", "--tol", "1e-9"],
        ["oned", "bounds", "--a", "1,2,0.5", "--b", "1,3,0.5", "--tol", "1e-9"],
        ["odp", "relax", "--a", "1,2", "--cells", "4", "--kA", "2", "--tol", "1e-9"],
        ["oodp", "relax", "--a", "1,2", "--b", "1,3", "--cells", "4", "--kA", "2", "--kB", "2", "--tol", "1e-9"],
        ["hashin", "--a", "1,2,0.5", "--coreA", "a1", "--assert"],
        ["odp", "relax", "--a", "1,2", "--cells", "4", "--kA", "2", "--assert"],
        ["oodp", "relax", "--a", "1,2", "--b", "1,3", "--cells", "4", "--kA", "2", "--kB", "2", "--assert"],
        ["phase", "--a", "1,2,0.5", "--b", "1,3,0.5", "--n", "3", "--assert"],
    ],
    ids=lambda argv: f"{argv[0]} {'--assert' if argv[-1] == '--assert' else '--tol'}",
)
def test_unread_flag_is_usage_error(argv, capsys):
    # a subcommand accepts only the flags it reads; valid otherwise
    assert exit_code(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code",
    [
        (CHECK + ["--astar", '{"a":1}'], 2),
        (["pair", "check", "--a", "1,2,0.5", "--b", "1,3,0.5", "--astar", "[[1.3333333333333333,0],[0,1.5]]", "--bsharp", "[[0.5,0],[0,0.5]]", "--assert"], 1),
    ],
)
def test_process_exit_code(argv, code):
    # the console-script path: sys.exit(main()) in a fresh interpreter
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("HOMOBOUNDS_TOL", None)
    proc = subprocess.run([sys.executable, "-m", "homobounds.cli", *argv], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert ("error:" in proc.stderr) == (code == 2)


CORPUS = json.loads((Path(__file__).parent / "golden" / "corpus.json").read_text())
DISPATCH_EDGES = [
    [],
    ["-h"],
    ["--help"],
    ["--help", "pair"],
    ["pair", "-h"],
    ["frobnicate"],
    ["frobnicate", "check"],
    ["pai", "check"],
    ["--no-such-option"],
    ["pair", "check", "--no-such-option", "1"],
    CHECK + ["--astar", INSIDE, "stray"],
    ["gset", "--", "check", "--a", "1,2,0.5"],
    CHECK + ["--astar", INSIDE, "--"],
    ["--", "gset", "check", "--a", "1,2,0.5"],
    ["gset", "check", "--a=1,2,0.5", "--astar", INSIDE],
    CHECK + ["--ast", INSIDE],
    ["gset", "check", "--he"],
    ["laminate", "--s", SPEC, "--a", "1,2,0.5"],
    ["gset"],
    ["pair", "check", "--a"],
    CHECK + ["--astar", INSIDE, "--tol", "nan"],
]


def parsed(parse, argv) -> tuple:
    """(Namespace or exit code, stdout, stderr) of one parse of argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(list(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv", [case["argv"] for case in CORPUS] + DISPATCH_EDGES, ids=[case["name"] for case in CORPUS] + [" ".join(a) or "no-args" for a in DISPATCH_EDGES]
)
def test_request_parses_as_the_full_parser(argv):
    # parsing by the subcommand's parser alone gives the Namespace, or the exit
    # code, help and usage error, that the top-level parser gives
    assert parsed(parse_request, argv) == parsed(build_parser().parse_args, argv)


@pytest.mark.parametrize("argv, full", [(CHECK + ["--astar", INSIDE], 0), (CHECK + ["--astar", INSIDE, "stray"], 1), (["-h"], 1)])
def test_request_is_parsed_once(argv, full, monkeypatch):
    # a request the subcommand reads in full never reaches the top-level parser
    top, gset = build_parser(), _subcommands()["gset"]
    calls = {"top": 0, "gset": 0}
    for name, parser in (("top", top), ("gset", gset)):
        def counting(*args, _name=name, _parse=parser.parse_known_args, **kwargs):
            calls[_name] += 1
            return _parse(*args, **kwargs)

        monkeypatch.setattr(parser, "parse_known_args", counting)
    parsed(parse_request, argv)
    assert calls["top"] == full
    assert calls["gset"] == (argv[0] == "gset") * (1 + full)


def test_entry_point_under_dev_mode(tmp_path):
    # main() with no argv reads sys.argv; with -X dev -W error an unclosed
    # file or any warning prints "Exception ignored" or a traceback
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("HOMOBOUNDS_TOL", None)
    report = tmp_path / "report.json"
    cases = [
        (["--help"], 0, "usage: homobounds [-h]"),
        ([], 2, "usage: homobounds [-h]"),
        (CHECK + ["--astar", INSIDE, "--no-such-option"], 2, "homobounds: error: unrecognized arguments: --no-such-option"),
        (CHECK + ["--astar", INSIDE, "--out", str(report)], 0, ""),
    ]
    procs = [
        subprocess.Popen(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "homobounds.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        for argv, _, _ in cases
    ]
    for (argv, code, expected), proc in zip(cases, procs):
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == code, (argv, err)
        assert expected in out + err, argv
        assert "Traceback" not in err and "Exception ignored" not in err and "Warning" not in err, (argv, err)
    assert json.loads(report.read_text())["verdict"] == "inside"


@pytest.mark.parametrize("case", [c for c in CORPUS if c["argv"][0] == "laminate"], ids=lambda c: c["name"])
def test_laminate_request_builds_its_frames_once(case, monkeypatch, capsys):
    # every request builds its laminate's frames once, with one LAPACK call
    # on its moment (a two-phase chain is judged in the moment's frame): a
    # two-phase one takes A* and B# from seq_pair_pp, or from the
    # ChainViolation, which carries both, and a const_b one from one
    # constant-density pass.  The report holds the bits of seq_A and seq_B_*.
    import numpy as np

    from homobounds import cli, laminates

    built, calls = [], []
    frames, eigh = laminates._laminate_frames, np.linalg.eigh
    monkeypatch.setattr(laminates, "_laminate_frames", lambda *args: built.append(1) or frames(*args))
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
    assert exit_code(case["argv"]) == case["exit"]
    report = json.loads(capsys.readouterr().out or "{}")
    if case["exit"]:
        assert built == [] and calls == []  # a region mismatch is found before any frame is built
        return
    assert len(built) == 1 and len(calls) == 1
    args = parse_request(case["argv"])
    spec, pa = laminates.LaminateSpec.from_json(args.spec), cli._phase(args, "a")
    if spec.relation == "const_b":
        bsharp = laminates.seq_B_const(spec, pa, args.const_b)
    else:
        try:
            bsharp = laminates.seq_B_pp(spec, pa, cli._phase(args, "b"))
        except laminates.ChainViolation as exc:
            bsharp = exc.tensor
    assert report["astar"] == laminates.seq_A(spec, pa).mat.tolist()
    assert report["bsharp"] == bsharp.mat.tolist()


def test_oversized_laminate_is_refused_before_b_is_read(capsys):
    # the spec's moment is built before --b is read, so its dimension error comes first
    spec = json.dumps({"directions": [[1.0] + [0.0] * 8], "weights": [1.0], "core": "a2", "relation": "A_subset_B"})
    assert exit_code(["laminate", "--spec", spec, "--a", "1,2,0.5"]) == 2
    assert capsys.readouterr().err == "error: dim must be in [1, 8], got 9\n"
