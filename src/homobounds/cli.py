"""Command-line front end.

Subcommands: gset, pair, laminate, hashin, oned, odp, oodp, phase.
Reports are JSON; sample grids and sweep tables are CSV with a header row
and shortest-round-trip float formatting, so identical invocations (same
seed included) produce byte-identical files.  HOMOBOUNDS_TOL overrides the
default feasibility tolerance.  Exit codes: 0 ok, 1 failed --assert,
2 usage or validation error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import gclosure, hashin, homog1d, laminates, pairbounds, relaxation, sweeps
from .symtensor import SymTensor

DEFAULT_TOL = 1e-9


def finite(text) -> float:
    """A float that is neither NaN nor infinite (JSON and float() accept both)."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def tolerance(text) -> float:
    value = finite(text)
    if value < 0:
        raise ValueError(f"tolerance {text!r} is negative")
    return value


def _tol(args) -> float:
    if args.tol is not None:
        return args.tol
    env = os.environ.get("HOMOBOUNDS_TOL")
    return tolerance(env) if env else DEFAULT_TOL


def _fmt(x) -> str:
    """Shortest round-trip decimal form of a float."""
    return repr(float(x))


def _sanitize(value):
    if isinstance(value, float) and not np.isfinite(value):
        return str(value)  # strict JSON has no Infinity/NaN literals
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value


def _emit(args, payload):
    _write(args, json.dumps(_sanitize(payload), indent=2, sort_keys=True))


def _emit_csv(args, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) if isinstance(x, float) else str(x) for x in row))
    _write(args, "\n".join(lines))


def _write(args, text: str):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# phase flag -> (data class, fraction flag, three-component form)
_PHASES = {"a": (gclosure.PhaseA, "theta", "a1,a2,theta"), "b": (pairbounds.PhaseB, "thetaB", "b1,b2,thetaB")}


def _phase(args, flag: str):
    """PhaseA from --a (and --theta) or PhaseB from --b (and --thetaB)."""
    cls, theta_flag, form = _PHASES[flag]
    parts = _floats(getattr(args, flag), flag)
    theta = getattr(args, theta_flag, None)
    if len(parts) == 3 and theta is None:
        theta = parts[2]
    if theta is None:
        raise ValueError(f"provide --{theta_flag} or a three-component --{flag} {form}")
    return cls(parts[0], parts[1], theta)


def _floats(text, flag: str) -> list:
    if not text:
        raise ValueError(f"provide --{flag}")
    parts = [finite(x) for x in text.split(",")]
    if len(parts) not in (2, 3):
        raise ValueError(f"--{flag} takes two or three comma-separated numbers, got {text!r}")
    return parts


def _tensor(text) -> SymTensor:
    if not text:
        raise ValueError("provide the matrix as JSON, e.g. --astar '[[1.3,0],[0,1.5]]'")
    m = np.asarray(json.loads(text), dtype=float)
    if not np.isfinite(m).all():
        raise ValueError(f"matrix entries must be finite, got {text}")
    return SymTensor.from_matrix(m)


def _source(text: str) -> homog1d.Source1D:
    if text.startswith("const:"):
        return homog1d.Source1D.constant(finite(text.split(":", 1)[1]))
    raise ValueError(f"unsupported source spec {text!r} (use const:<value>)")


def cmd_gset(args) -> int:
    pa = _phase(args, "a")
    if args.action == "check":
        report = gclosure.g_membership(_tensor(args.astar), pa, _tol(args))
        _emit(args, dataclasses.asdict(report))
        return 0 if not (args.assert_ and report.verdict == "outside") else 1
    pts = gclosure.boundary_curve_sample(pa, args.side, args.n)
    _emit_csv(args, ["lambda1", "lambda2"], pts)
    return 0


def cmd_pair(args) -> int:
    if args.action == "sweep":
        rows = sweeps.feasibility_sweep(args.seed, args.count, args.max_dim, _tol(args))
        _emit_csv(
            args,
            ["index", "family", "dim", "region", "chain_slack", "li_slack", "uj_slack", "verdict"],
            rows,
        )
        bad = [r for r in rows if r[-1] == "infeasible"]
        return 1 if (args.assert_ and bad) else 0
    pa, pb = _phase(args, "a"), _phase(args, "b")
    report = pairbounds.pair_membership(_tensor(args.astar), _tensor(args.bsharp), pa, pb, _tol(args))
    _emit(args, dataclasses.asdict(report))
    return 1 if (args.assert_ and report.verdict == "infeasible") else 0


def cmd_laminate(args) -> int:
    pa = _phase(args, "a")
    if args.spec_file:
        with open(args.spec_file) as fh:
            spec = laminates.LaminateSpec.from_json(fh.read())
    else:
        spec = laminates.LaminateSpec.from_json(args.spec)
    astar = laminates.seq_A(spec, pa)
    payload = {"astar": astar.mat.tolist(), "relation": spec.relation}
    if spec.relation == "const_b":
        bsharp = laminates.seq_B_const(spec, pa, args.const_b)
        payload["bsharp"] = bsharp.mat.tolist()
    else:
        pb = _phase(args, "b")
        try:
            bsharp = laminates.seq_B_pp(spec, pa, pb)
            payload["bsharp"] = bsharp.mat.tolist()
            payload["chain_ok"] = True
        except laminates.ChainViolation as exc:
            payload["bsharp"] = exc.tensor.mat.tolist()
            payload["chain_ok"] = False
    _emit(args, payload)
    return 1 if (args.assert_ and not payload.get("chain_ok", True)) else 0


def cmd_hashin(args) -> int:
    pa = _phase(args, "a")
    cfg = hashin.CoatingConfig(args.coreA, args.coreB, args.inclusion)
    m = hashin.hs_m(pa, args.coreA, args.n)
    if args.coreB == "const":
        payload_b = hashin.hs_b(pa, args.const_b, cfg, args.n)
        oracle_arg = args.const_b
    else:
        pb = _phase(args, "b")
        payload_b = hashin.hs_b(pa, pb, cfg, args.n)
        oracle_arg = pb
    payload = {"m": m, "bsharp": payload_b}
    if args.oracle:
        payload["bsharp_quadrature"] = hashin.hs_radial_oracle(pa, oracle_arg, cfg, args.n, args.points)
    _emit(args, payload)
    return 0


def _load_profile(args) -> homog1d.Profile1D:
    if not args.profile:
        raise ValueError("this action needs --profile <file.json>")
    with open(args.profile) as fh:
        return homog1d.Profile1D.from_json(fh.read())


def cmd_oned(args) -> int:
    pa, pb = _phase(args, "a"), _phase(args, "b")
    if args.action == "bounds":
        l1, l2, u1, u2, lsel, usel = homog1d.bounds_1d(pa, pb)
        _emit(args, {"l1": l1, "l2": l2, "u1": u1, "u2": u2, "l": lsel, "u": usel})
        return 0
    if args.action == "invert":
        if args.target is None:
            raise ValueError("invert needs --target <value>")
        theta_ab, profile = homog1d.invert_theta_ab(pa, pb, args.target)
        _emit(args, {"thetaAB": theta_ab, "profile": json.loads(profile.to_json())})
        return 0
    if args.action == "limits":
        profile = _load_profile(args)
        names = ("thetaA", "thetaB", "thetaAB", "a_harm", "b_mean", "lim_b_a2", "lim_b_a")
        _emit(args, dict(zip(names, homog1d.weakstar_limits(profile, pa, pb))))
        return 0
    profile = _load_profile(args)
    periods = [int(x) for x in args.periods.split(",")]
    rows = homog1d.convergence_study(profile, pa, pb, _source(args.f), periods)
    _emit_csv(args, ["periods", "epsilon", "energy", "abs_error", "rel_error"], rows)
    final_rel = rows[-1][4]
    return 1 if (args.assert_ and final_rel > 0.02) else 0


def _design(args, two_sets: bool) -> tuple:
    """(cells, kA, kB, pa, pb, source) from --instance or the flags; pb is None for one set."""
    if args.instance:
        with open(args.instance) as fh:
            inst = json.load(fh)
        theta_a = theta_b = None
    else:
        inst = {"cells": args.cells, "kA": args.kA, "a": _floats(args.a, "a"), "f": args.f}
        if two_sets:
            inst.update(kB=args.kB, b=_floats(args.b, "b"))
        theta_a, theta_b = args.theta, getattr(args, "thetaB", None)
    cells, ka, kb = inst["cells"], inst["kA"], inst["kB"] if two_sets else 0
    if not all(isinstance(x, int) for x in (cells, ka, kb)) or cells < 1:
        raise ValueError(f"need integer counts with cells >= 1, got cells={cells!r}, kA={ka!r}, kB={kb!r}")
    pa = gclosure.PhaseA(inst["a"][0], inst["a"][1], ka / cells if theta_a is None else theta_a)
    pb = None
    if two_sets:
        pb = pairbounds.PhaseB(inst["b"][0], inst["b"][1], kb / cells if theta_b is None else theta_b)
    return cells, ka, kb, pa, pb, _source(inst["f"])


def cmd_odp(args) -> int:
    cells, k, _, pa, _, source = _design(args, False)
    if args.action == "relax":
        theta = relaxation.DesignField1D((k / cells,) * cells, k / cells)
        value = relaxation.odp_relaxed_value_1d(theta, pa, source)
        _emit(args, {"relaxed_value": value})
        return 0
    value, pattern = relaxation.odp_bruteforce_1d(cells, k, pa, source)
    _emit(args, {"min_value": value, "argmin": [int(x) for x in pattern]})
    return 0


def cmd_oodp(args) -> int:
    cells, ka, kb, pa, pb, source = _design(args, True)
    if args.action == "relax":
        ta = relaxation.DesignField1D((ka / cells,) * cells, ka / cells)
        tb = relaxation.DesignField1D((kb / cells,) * cells, kb / cells)
        out = relaxation.oodp_relaxed_value_1d(ta, tb, pa, pb, source)
        _emit(args, {"relaxed_value": out.value, "regions": list(out.regions)})
        return 0
    value = relaxation.oodp_bruteforce_1d(cells, ka, kb, pa, pb, source)
    _emit(args, {"min_value": value})
    return 0


def cmd_phase(args) -> int:
    """Fibre diagram: A*-boundary samples with the extreme B# eigenvalues."""
    pa, pb = _phase(args, "a"), _phase(args, "b")
    if pairbounds.classify_region(pa, pb) != "L1U1":
        raise ValueError("phase diagram sampling targets the region L1U1")
    pts = gclosure.boundary_curve_sample(pa, "lower", args.n)
    rows = []
    for lam1, lam2 in pts:
        astar = SymTensor.diag([lam1, lam2])
        b_low, b_high = pairbounds.fibre_extremes_l1u1(astar, pa, pb, _tol(args))
        mu_low = sorted(np.diag(b_low.mat))
        mu_high = sorted(np.diag(b_high.mat))
        rows.append((lam1, lam2, mu_low[0], mu_low[1], mu_high[0], mu_high[1]))
    _emit_csv(
        args,
        ["lambda1", "lambda2", "mu1_low", "mu2_low", "mu1_high", "mu2_high"],
        rows,
    )
    return 0


def _add_common(p, tol=True, out=True, assert_flag=True):
    if tol:
        p.add_argument("--tol", type=tolerance, default=None, help="feasibility tolerance")
    if out:
        p.add_argument("--out", default=None, help="write output to a file")
    if assert_flag:
        p.add_argument("--assert", dest="assert_", action="store_true", help="exit 1 on failure")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="homobounds", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gset", help="phase-set membership and boundary sampling")
    g.add_argument("action", choices=["check", "sample"])
    g.add_argument("--a", required=True, help="a1,a2 or a1,a2,theta")
    g.add_argument("--theta", type=finite, default=None)
    g.add_argument("--astar", help="matrix as JSON, e.g. [[1.3,0],[0,1.5]]")
    g.add_argument("--side", choices=["lower", "upper"], default="lower")
    g.add_argument("--n", type=int, default=50)
    _add_common(g)
    g.set_defaults(func=cmd_gset)

    p = sub.add_parser("pair", help="pair feasibility and randomized sweeps")
    p.add_argument("action", choices=["check", "sweep"])
    p.add_argument("--a", help="a1,a2 or a1,a2,thetaA")
    p.add_argument("--theta", type=finite, default=None)
    p.add_argument("--b", help="b1,b2 or b1,b2,thetaB")
    p.add_argument("--thetaB", type=finite, default=None)
    p.add_argument("--astar")
    p.add_argument("--bsharp")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--max-dim", type=int, default=3)
    _add_common(p)
    p.set_defaults(func=cmd_pair)

    l = sub.add_parser("laminate", help="sequential-laminate constructors")
    l.add_argument("--spec", help="laminate spec as inline JSON")
    l.add_argument("--spec-file", help="laminate spec file")
    l.add_argument("--a", required=True)
    l.add_argument("--theta", type=finite, default=None)
    l.add_argument("--b")
    l.add_argument("--thetaB", type=finite, default=None)
    l.add_argument("--const-b", type=finite, default=1.0)
    _add_common(l)
    l.set_defaults(func=cmd_laminate)

    h = sub.add_parser("hashin", help="coated-sphere values and radial oracle")
    h.add_argument("--a", required=True)
    h.add_argument("--theta", type=finite, default=None)
    h.add_argument("--b")
    h.add_argument("--thetaB", type=finite, default=None)
    h.add_argument("--const-b", type=finite, default=1.0)
    h.add_argument("--coreA", choices=["a1", "a2"], required=True)
    h.add_argument("--coreB", choices=["b1", "b2", "const"], default="const")
    h.add_argument("--inclusion", default="none")
    h.add_argument("--n", type=int, default=2)
    h.add_argument("--oracle", action="store_true", help="add the quadrature cross-check")
    h.add_argument("--points", type=int, default=10_000)
    _add_common(h)
    h.set_defaults(func=cmd_hashin)

    o = sub.add_parser("oned", help="one-dimensional bounds, inversion, convergence")
    o.add_argument("action", choices=["bounds", "invert", "limits", "converge"])
    o.add_argument("--a", required=True)
    o.add_argument("--theta", type=finite, default=None)
    o.add_argument("--b", required=True)
    o.add_argument("--thetaB", type=finite, default=None)
    o.add_argument("--target", type=finite, default=None)
    o.add_argument("--profile", help="profile JSON file")
    o.add_argument("--periods", default="4,16,64,256")
    o.add_argument("--f", default="const:1")
    _add_common(o)
    o.set_defaults(func=cmd_oned)

    d = sub.add_parser("odp", help="single-set design: relaxed value and brute force")
    d.add_argument("action", choices=["relax", "brute"])
    d.add_argument("--instance", help="instance JSON file")
    d.add_argument("--a")
    d.add_argument("--theta", type=finite, default=None)
    d.add_argument("--cells", type=int, default=12)
    d.add_argument("--kA", type=int, default=6)
    d.add_argument("--f", default="const:1")
    _add_common(d)
    d.set_defaults(func=cmd_odp)

    w = sub.add_parser("oodp", help="two-set design: relaxed value and brute force")
    w.add_argument("action", choices=["relax", "brute"])
    w.add_argument("--instance", help="instance JSON file")
    w.add_argument("--a")
    w.add_argument("--theta", type=finite, default=None)
    w.add_argument("--b")
    w.add_argument("--thetaB", type=finite, default=None)
    w.add_argument("--cells", type=int, default=12)
    w.add_argument("--kA", type=int, default=6)
    w.add_argument("--kB", type=int, default=6)
    w.add_argument("--f", default="const:1")
    _add_common(w)
    w.set_defaults(func=cmd_oodp)

    ph = sub.add_parser("phase", help="fibre phase-diagram sample grid")
    ph.add_argument("--a", required=True)
    ph.add_argument("--theta", type=finite, default=None)
    ph.add_argument("--b", required=True)
    ph.add_argument("--thetaB", type=finite, default=None)
    ph.add_argument("--n", type=int, default=20)
    _add_common(ph)
    ph.set_defaults(func=cmd_phase)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, KeyError, gclosure.NoBracket, laminates.ChainViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
