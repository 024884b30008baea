"""Every byte-pinned output of homobounds, checked and regenerated in one place.

golden/corpus.json keeps CLI requests (build_cases) with their input files
and the text of their exit code, stdout, stderr and `--out` file, and
golden/cli_surface.json every subcommand option.  golden/pins.json, the
manifest, counts each group's pins and keeps the sha256 of longer outputs:
200 `check` requests from the benchmark's pool (seed 33), the seed-7
`pair sweep --count 10000` CSVs at `--max-dim` 3 and 8, criterion 5's sweep
and 1,800 draws.  Pins compare byte for byte; a moved text pin is explained by
its largest change relative to max(1, |stored|), within REL_TOL or beyond.

    PYTHONPATH=src python tests/pins.py              # prints each changed pin
    PYTHONPATH=src python tests/pins.py regenerate   # on purpose only

Regenerate replays the stored requests and appends the new build_cases().
"""

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

from homobounds.cli import build_parser, main
from homobounds.sweeps import draw_composite, draw_composites, make_rng

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-12
OUTPUTS = ("exit", "stdout", "stderr", "out", "sha256", "text")


def replay(argv, files=None) -> dict:
    """Run one CLI request in process, in a fresh directory holding its input files, with HOMOBOUNDS_TOL cleared."""
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        tol = os.environ.pop("HOMOBOUNDS_TOL", None)
        try:
            for name, text in (files or {}).items():
                Path(tmp, name).write_text(text)
            os.chdir(tmp)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
            out_file = Path(tmp, argv[argv.index("--out") + 1]) if "--out" in argv else None
            written = out_file.read_text() if out_file and out_file.exists() else None
        finally:
            os.chdir(cwd)
            if tol is not None:
                os.environ["HOMOBOUNDS_TOL"] = tol
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "out": written}


def digests(record: dict) -> dict:
    """The record as the manifest stores it: each text by its sha256."""
    return {key: hashlib.sha256(value.encode()).hexdigest() if isinstance(value, str) else value for key, value in record.items()}


def _draws(how: str, max_dim: int) -> bytes:
    """Each draw's family, dimension, phases and redraw count, then the bytes of its A* and B#.

    one_per_seed draws once on each of the seeds 1-300, as the check benchmark
    builds its pool; one_stream takes 300 consecutive draws on seed 20260809.
    Both were recorded at numpy 2.4.6."""
    if how == "one_per_seed":
        draws = (draw_composite(make_rng(seed), max_dim) for seed in range(1, 301))
    else:
        draws = draw_composites(make_rng(20260809), 300, max_dim)
    return b"".join(
        f"{d['family']},{d['dim']},{d['pa']!r},{d['pb']!r},{d['chain_rejections']};".encode() + d["astar"]._m.tobytes() + d["bsharp"]._m.tobytes()
        for d in draws
    )


def cli_surface() -> str:
    """One line per "<subcommand> <option>": [dest, type, default, required, choices, action]."""
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    rows = sorted(
        (f"{name} {'/'.join(a.option_strings) or a.dest}", [a.dest, getattr(a.type, "__name__", None), a.default, a.required, None if a.choices is None else list(a.choices), type(a).__name__])
        for name, sub in subparsers.choices.items()
        for a in sub._actions
    )
    return "{\n" + ",\n".join(f" {json.dumps(key)}: {json.dumps(value)}" for key, value in rows) + "\n}\n"


def outputs(name: str, pin: dict) -> dict:
    """What the code gives now for a pin, in the form its file stores."""
    if name == "cli_surface":
        return {"text": cli_surface()}
    if "draws" in pin:
        return {"sha256": hashlib.sha256(_draws(pin["draws"], pin["max_dim"])).hexdigest()}
    record = replay(pin["argv"], pin.get("files"))
    return record if name.startswith("corpus/") else digests(record)


def moved(name: str, pin: dict, got=None) -> str:
    """'' when the code still gives the stored bytes; otherwise what moved."""
    got = outputs(name, pin) if got is None else got
    fields = [key for key in got if got[key] != pin.get(key)]
    if fields and name.startswith(("corpus/", "cli_surface")):
        return "; ".join(_explain(key, got[key], pin[key]) for key in fields)
    return ", ".join(fields) + " changed" if fields else ""


def _explain(field: str, got, want) -> str:
    if not (isinstance(got, str) and isinstance(want, str)):
        return f"{field} {want!r:.60} -> {got!r:.60}"
    moves = _moves(_parse(got), _parse(want), "$")
    if not moves:
        return f"{field} bytes changed, its values did not"
    rel, where = max(moves)
    size = f"relative change {rel:.1e}, {'within' if rel <= REL_TOL else 'beyond'} REL_TOL" if math.isfinite(rel) else "not a number change"
    return f"{field}: {len(moves)} moved, the largest {where} ({size})"


def _parse(text: str):
    """A JSON document as its tree, a CSV table (or any other text) as lines of cells."""
    if text.lstrip().startswith("{"):
        return json.loads(text)
    return [[_cell(cell) for cell in line.split(",")] for line in text.splitlines()]


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _moves(got, want, where: str) -> list:
    """(change relative to max(1, |want|), where and what) for each value of want that got does not repeat."""
    if type(got) is type(want) is list and len(got) == len(want):
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in _moves(g, w, f"{where}[{i}]")]
    if type(got) is type(want) is dict:
        return [m for key in sorted(got.keys() | want.keys()) for m in _moves(got.get(key, "<absent>"), want.get(key, "<absent>"), f"{where}.{key}")]
    if repr(got) == repr(want):
        return []
    finite = all(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v) for v in (got, want))
    rel = abs(got - want) / max(1.0, abs(want)) if finite else math.inf
    return [(rel, f"{where} {want!r:.60} -> {got!r:.60}")]


def load(golden: Path = GOLDEN) -> dict:
    """Every pin by name: corpus/<case>, cli_surface and the manifest's entries."""
    pins = {f"corpus/{case['name']}": case for case in json.loads((golden / "corpus.json").read_text())}
    pins["cli_surface"] = {"text": (golden / "cli_surface.json").read_text()}
    pins.update((entry["name"], entry) for entry in json.loads((golden / "pins.json").read_text())["pins"])
    return pins


def _counts(pins) -> dict:
    return dict(sorted(Counter(name.split("/")[0] for name in pins).items()))


def check(golden: Path = GOLDEN, names=None) -> list:
    """The manifest's count check, then "<name>: <what moved>" for each changed pin (of names, if given)."""
    pins, want = load(golden), json.loads((golden / "pins.json").read_text())["count"]
    report = [] if _counts(pins) == want else [f"count: {_counts(pins)} pinned, the manifest says {want}"]
    return report + [f"{name}: {change}" for name, pin in pins.items() if (names is None or name in names) and (change := moved(name, pin))]


def regenerate():
    """Replay every pin, append the cases of build_cases() not yet stored, rewrite the three files and print what moved."""
    pins = load()
    for case in build_cases():
        pins.setdefault(f"corpus/{case['name']}", case)
    for name, pin in pins.items():
        got = outputs(name, pin)
        change = moved(name, pin, got) if any(key in pin for key in OUTPUTS) else "added"
        if change:
            print(f"{name}: {change}")
        pins[name] = {**{key: value for key, value in pin.items() if key not in OUTPUTS}, **got}
    corpus = [pin for name, pin in pins.items() if name.startswith("corpus/")]
    manifest = [pin for name, pin in pins.items() if not name.startswith(("corpus/", "cli_surface"))]
    (GOLDEN / "corpus.json").write_text(json.dumps(corpus, indent=1) + "\n")
    (GOLDEN / "cli_surface.json").write_text(pins["cli_surface"]["text"])
    (GOLDEN / "pins.json").write_text(json.dumps({"count": _counts(pins), "pins": manifest}, indent=1) + "\n")


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


if __name__ == "__main__":
    if sys.argv[1:] == ["regenerate"]:
        regenerate()
    elif sys.argv[1:]:
        sys.exit("usage: python tests/pins.py [regenerate]")
    else:
        report = check()
        for line in report:
            print(line)
        sys.exit(1 if report else 0)
