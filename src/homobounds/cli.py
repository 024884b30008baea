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
import functools
import json
import math
import os
import sys

import numpy as np

from . import gclosure, hashin, homog1d, laminates, pairbounds, relaxation, sweeps
from .symtensor import SymTensor


def finite(value) -> float:
    """A float that is neither NaN nor infinite (JSON and float() accept both).

    The number is a Python float, so math.isfinite tests it without a numpy call.
    """
    try:
        number = float(value)
    except TypeError:
        raise ValueError(f"{value!r} is not a number") from None
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not a finite number")
    return number


def tolerance(text) -> float:
    value = finite(text)
    if value < 0:
        raise ValueError(f"tolerance {text!r} is negative")
    return value


def _tol(args) -> float:
    if args.tol is not None:
        return args.tol
    env = os.environ.get("HOMOBOUNDS_TOL")
    return tolerance(env) if env else gclosure.DEFAULT_TOL


def _unread(args, flags: str):
    """ValueError for a request that gives one of `flags` (space-separated): its action does not read them."""
    for flag in flags.split():
        value = getattr(args, _SHARED_FLAGS[flag].get("dest", flag[2:].replace("-", "_")))
        if value is not None and value is not False:
            raise ValueError(f"{args.command} {args.action} does not read {flag}")


def _exit_code(args, failed: bool) -> int:
    """1 when --assert is given and the check failed, else 0."""
    return 1 if args.assert_ and failed else 0


def _fmt(x) -> str:
    """Shortest round-trip decimal form of a float."""
    return repr(float(x))


def _sanitize(value):
    """JSON-ready copy: tuples become lists and non-finite floats strings.

    Reports come in as vars(report): dataclasses.asdict would copy them first,
    rebuilding each tuple from a generator, and such tuples pile up on the free lists.
    Every float here, numpy's float64 included, is a Python float, which
    math.isfinite tests at a fraction of np.isfinite's cost per scalar.
    """
    if isinstance(value, float) and not math.isfinite(value):
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
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# phase flag -> (data class, fraction flag, three-component form)
_PHASES = {"a": (gclosure.PhaseA, "theta", "a1,a2,theta"), "b": (pairbounds.PhaseB, "thetaB", "b1,b2,thetaB")}


def _phase(args, flag: str):
    """PhaseA from --a (and --theta) or PhaseB from --b (and --thetaB); the fraction is given once."""
    cls, theta_flag, form = _PHASES[flag]
    parts = _floats(getattr(args, flag), flag)
    theta = getattr(args, theta_flag)
    if len(parts) == 3:
        if theta is not None:
            raise ValueError(f"give the fraction once: --{theta_flag} or the third component of --{flag}")
        theta = parts[2]
    if theta is None:
        raise ValueError(f"provide --{theta_flag} or a three-component --{flag} {form}")
    return cls(parts[0], parts[1], theta)


def _floats(value, flag: str, counts=(2, 3)) -> list:
    """Finite numbers, as many as one of `counts`, from flag text 'x1,x2[,theta]' or an instance's JSON list."""
    if not value:
        raise ValueError(f"provide --{flag}")
    parts = value.split(",") if isinstance(value, str) else value
    # float() reads a JSON true as 1.0, so a boolean is refused like a list of the wrong length
    if not isinstance(parts, list) or len(parts) not in counts or any(isinstance(x, bool) for x in parts):
        raise ValueError(f"--{flag} takes {' or '.join(map(str, counts))} numbers, got {value!r}")
    return [finite(x) for x in parts]


def _tensor(text, flag: str) -> SymTensor:
    if not text:
        raise ValueError(f"provide --{flag} as JSON, e.g. --{flag} '[[1.3,0],[0,1.5]]'")
    # float() reads a JSON true as 1.0; a true or false in a matrix's JSON is
    # a literal or sits in a string, and neither is a number
    if "true" in text or "false" in text:
        raise ValueError(f"--{flag} holds numbers, not true or false, got {text}")
    try:
        m = np.asarray(json.loads(text), dtype=float)
    except TypeError:  # a JSON object where a row or number belongs
        raise ValueError(f"--{flag} is a JSON list of rows of numbers, got {text}") from None
    # checked after symmetrising: finite entries such as 1e308 overflow in 0.5*(m + m.T)
    with np.errstate(over="ignore", invalid="ignore"):
        tensor = SymTensor(m)
    if not np.isfinite(tensor.mat).all():
        raise ValueError(f"--{flag} entries and their symmetrised values must be finite, got {text}")
    return tensor


def _source(spec) -> homog1d.Source1D:
    if isinstance(spec, str) and spec.startswith("const:"):
        return homog1d.Source1D.constant(finite(spec.split(":", 1)[1]))
    raise ValueError(f"unsupported source spec {spec!r} (use const:<value>)")


def cmd_gset(args) -> int:
    pa = _phase(args, "a")
    if args.action == "check":
        report = gclosure.g_membership(_tensor(args.astar, "astar"), pa, _tol(args))
        _emit(args, vars(report))
        return _exit_code(args, report.verdict == "outside")
    _unread(args, "--astar --tol --assert")
    pts = gclosure.boundary_curve_sample(pa, args.side, args.n)
    _emit_csv(args, ["lambda1", "lambda2"], pts)
    return 0


def cmd_pair(args) -> int:
    if args.action == "sweep":
        _unread(args, "--a --theta --b --thetaB --astar --bsharp")
        rows = sweeps.feasibility_sweep(args.seed, args.count, args.max_dim, _tol(args))
        _emit_csv(
            args,
            ["index", "family", "dim", "region", "chain_slack", "li_slack", "uj_slack", "verdict"],
            rows,
        )
        return _exit_code(args, any(r[-1] == "infeasible" for r in rows))
    pa, pb = _phase(args, "a"), _phase(args, "b")
    astar, bsharp = _tensor(args.astar, "astar"), _tensor(args.bsharp, "bsharp")
    report = pairbounds.pair_membership(astar, bsharp, pa, pb, _tol(args))
    _emit(args, vars(report))
    return _exit_code(args, report.verdict == "infeasible")


def cmd_laminate(args) -> int:
    pa = _phase(args, "a")
    if args.spec_file:
        with open(args.spec_file) as fh:
            spec = laminates.LaminateSpec.from_json(fh.read())
    elif args.spec:
        spec = laminates.LaminateSpec.from_json(args.spec)
    else:
        raise ValueError("provide --spec <json> or --spec-file <file>")
    payload = {"relation": spec.relation}
    spec.moment  # built first: a spec of more than MAX_DIM dimensions is refused before the density is read
    if spec.relation == "const_b":
        (astar,), (bsharp,) = laminates._seq_const_stack([spec], [pa], [args.const_b])  # A* is built once, with B#
    else:
        pb = _phase(args, "b")
        try:
            astar, bsharp = laminates.seq_pair_pp(spec, pa, pb)  # A* is built once, with B#
            payload["chain_ok"] = True
        except laminates.ChainViolation as exc:  # it carries both tensors
            astar, bsharp = exc.astar, exc.tensor
            payload["chain_ok"] = False
    payload.update(astar=astar.mat.tolist(), bsharp=bsharp.mat.tolist())
    _emit(args, payload)
    return _exit_code(args, not payload.get("chain_ok", True))


def cmd_hashin(args) -> int:
    pa = _phase(args, "a")
    cfg = hashin.CoatingConfig(args.coreA, args.coreB, args.inclusion)
    m = hashin.hs_m(pa, args.coreA, args.n)
    density = args.const_b if args.coreB == "const" else _phase(args, "b")
    payload = {"m": m, "bsharp": hashin.hs_b(pa, density, cfg, args.n)}
    if args.oracle:
        payload["bsharp_quadrature"] = hashin.hs_radial_oracle(pa, density, cfg, args.n, args.points)
    _emit(args, payload)
    return 0


def _load_profile(args) -> homog1d.Profile1D:
    if not args.profile:
        raise ValueError("this action needs --profile <file.json>")
    with open(args.profile) as fh:
        return homog1d.Profile1D.from_json(fh.read())


def cmd_oned(args) -> int:
    pa, pb = _phase(args, "a"), _phase(args, "b")
    source, periods = _source(args.f), [int(x) for x in args.periods.split(",")]
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
    rows = homog1d.convergence_study(_load_profile(args), pa, pb, source, periods)
    _emit_csv(args, ["periods", "epsilon", "energy", "abs_error", "rel_error"], rows)
    return _exit_code(args, rows[-1][4] > 0.02)


def _design(args, two_sets: bool) -> tuple:
    """(cells, kA, kB, pa, pb, source) from --instance or the flags; pb is None for one set, a and b are pairs."""
    if args.instance:
        with open(args.instance) as fh:
            inst = json.load(fh)
        if not isinstance(inst, dict):
            raise ValueError(f"a design instance is a JSON object, got {inst!r}")
        keys = ("cells", "kA", "kB", "a", "b", "f") if two_sets else ("cells", "kA", "a", "f")
        missing = [k for k in keys if k not in inst]
        if missing:
            raise ValueError(f"missing from the design instance: {', '.join(map(repr, missing))}")
    else:
        inst = {"cells": args.cells, "kA": args.kA, "a": args.a, "f": args.f}
        if two_sets:
            inst.update(kB=args.kB, b=args.b)
    cells, ka, kb = inst["cells"], inst["kA"], inst["kB"] if two_sets else 0
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in (cells, ka, kb)) or cells < 1:
        raise ValueError(f"need integer counts with cells >= 1, got cells={cells!r}, kA={ka!r}, kB={kb!r}")
    a = _floats(inst["a"], "a", (2,))
    pa = gclosure.PhaseA(a[0], a[1], ka / cells)
    pb = None
    if two_sets:
        b = _floats(inst["b"], "b", (2,))
        pb = pairbounds.PhaseB(b[0], b[1], kb / cells)
    return cells, ka, kb, pa, pb, _source(inst["f"])


def cmd_odp(args) -> int:
    cells, k, _, pa, _, source = _design(args, False)
    if args.action == "relax":
        theta = relaxation.DesignField1D.constant(k / cells, cells)
        _emit(args, {"relaxed_value": relaxation.odp_relaxed_value_1d(theta, pa, source)})
        return 0
    value, pattern = relaxation.odp_bruteforce_1d(cells, k, pa, source)
    _emit(args, {"min_value": value, "argmin": [int(x) for x in pattern]})
    return 0


def cmd_oodp(args) -> int:
    cells, ka, kb, pa, pb, source = _design(args, True)
    if args.action == "relax":
        ta = relaxation.DesignField1D.constant(ka / cells, cells)
        tb = relaxation.DesignField1D.constant(kb / cells, cells)
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
    grid = np.zeros((len(pts), 2, 2))
    grid[:, [0, 1], [0, 1]] = pts  # the diagonal A* of every sample
    low, high = pairbounds.fibre_extremes_stack([SymTensor(m) for m in grid], pa, pb, _tol(args))
    mu_low = np.sort(np.diagonal(low, axis1=1, axis2=2), axis=1).tolist()
    mu_high = np.sort(np.diagonal(high, axis1=1, axis2=2), axis=1).tolist()
    rows = [(*lams, *lo, *hi) for lams, lo, hi in zip(pts, mu_low, mu_high)]
    _emit_csv(
        args,
        ["lambda1", "lambda2", "mu1_low", "mu2_low", "mu1_high", "mu2_high"],
        rows,
    )
    return 0


# Flags that several subcommands read, each declared once; every subcommand
# names the ones it reads, so a flag it would ignore is a usage error.
_SHARED_FLAGS = {
    "--a": {"help": "a1,a2 or a1,a2,thetaA (a1,a2 for odp and oodp)"},
    "--theta": {"type": finite, "help": "thetaA, the volume fraction of a1"},
    "--b": {"help": "b1,b2 or b1,b2,thetaB (b1,b2 for oodp)"},
    "--thetaB": {"type": finite, "help": "thetaB, the volume fraction of b1"},
    "--astar": {"help": "matrix as JSON, e.g. [[1.3,0],[0,1.5]]"},
    "--bsharp": {"help": "matrix as JSON"},
    "--const-b": {"type": finite, "default": 1.0, "help": "constant density b"},
    "--instance": {"help": "instance JSON file"},
    "--cells": {"type": int, "default": 12},
    "--kA": {"type": int, "default": 6},
    "--kB": {"type": int, "default": 6},
    "--f": {"default": "const:1", "help": "source term const:<value>"},
    "--tol": {"type": tolerance, "help": "feasibility tolerance"},
    "--out": {"help": "write output to a file"},
    "--assert": {"dest": "assert_", "action": "store_true", "help": "exit 1 on failure"},
}


def _subcommand(sub, name: str, func, help_text: str, flags: str, required: tuple = ()):
    """Subparser for `name` with the shared `flags` (space-separated) it reads."""
    p = sub.add_parser(name, help=help_text)
    for flag in flags.split():
        p.add_argument(flag, required=flag in required, **_SHARED_FLAGS[flag])
    p.set_defaults(func=func)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared by every later one.

    parse_args leaves the parser unchanged and returns a fresh Namespace, so
    repeated `main` calls in one process see no state from earlier ones.
    """
    ap = argparse.ArgumentParser(prog="homobounds", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = _subcommand(
        sub, "gset", cmd_gset, "phase-set membership and boundary sampling",
        "--a --theta --astar --tol --out --assert", required=("--a",),
    )
    g.add_argument("action", choices=["check", "sample"])
    g.add_argument("--side", choices=["lower", "upper"], default="lower")
    g.add_argument("--n", type=int, default=50)

    p = _subcommand(
        sub, "pair", cmd_pair, "pair feasibility and randomized sweeps",
        "--a --theta --b --thetaB --astar --bsharp --tol --out --assert",
    )
    p.add_argument("action", choices=["check", "sweep"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--max-dim", type=int, default=3)

    l = _subcommand(
        sub, "laminate", cmd_laminate, "sequential-laminate constructors",
        "--a --theta --b --thetaB --const-b --out --assert", required=("--a",),
    )
    l.add_argument("--spec", help="laminate spec as inline JSON")
    l.add_argument("--spec-file", help="laminate spec file")

    h = _subcommand(
        sub, "hashin", cmd_hashin, "coated-sphere values and radial oracle",
        "--a --theta --b --thetaB --const-b --out", required=("--a",),
    )
    h.add_argument("--coreA", choices=["a1", "a2"], required=True)
    h.add_argument("--coreB", choices=["b1", "b2", "const"], default="const")
    h.add_argument("--inclusion", default="none")
    h.add_argument("--n", type=int, default=2)
    h.add_argument("--oracle", action="store_true", help="add the quadrature cross-check")
    h.add_argument("--points", type=int, default=10_000)

    o = _subcommand(
        sub, "oned", cmd_oned, "one-dimensional bounds, inversion, convergence",
        "--a --theta --b --thetaB --f --out --assert", required=("--a", "--b"),
    )
    o.add_argument("action", choices=["bounds", "invert", "limits", "converge"])
    o.add_argument("--target", type=finite, default=None)
    o.add_argument("--profile", help="profile JSON file")
    o.add_argument("--periods", default="4,16,64,256")

    d = _subcommand(
        sub, "odp", cmd_odp, "single-set design: relaxed value and brute force",
        "--instance --a --cells --kA --f --out",
    )
    d.add_argument("action", choices=["relax", "brute"])

    w = _subcommand(
        sub, "oodp", cmd_oodp, "two-set design: relaxed value and brute force",
        "--instance --a --b --cells --kA --kB --f --out",
    )
    w.add_argument("action", choices=["relax", "brute"])

    ph = _subcommand(
        sub, "phase", cmd_phase, "fibre phase-diagram sample grid",
        "--a --theta --b --thetaB --tol --out", required=("--a", "--b"),
    )
    ph.add_argument("--n", type=int, default=20)

    return ap


@functools.cache
def _subcommands() -> dict:
    """{name: parser} of build_parser()'s subcommands, found once with the parser they belong to."""
    return next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def parse_request(argv) -> argparse.Namespace:
    """The Namespace build_parser().parse_args(argv) gives, with each token parsed once.

    When argv starts with a subcommand name, that subcommand's parser reads
    the rest with parse_known_args, the call argparse's subparsers action
    makes, and the subcommand name goes to `command` as that action sets it.
    Only a request that names no subcommand first, or leaves tokens the
    subcommand does not read, goes to the full parser, so help, usage errors
    and their exit codes come from the same parsers as before.
    """
    sub = _subcommands().get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    """Run one request, argv or else sys.argv[1:], and return its exit code.

    The request is parsed once, by its subcommand's parser (see
    parse_request); the top-level parser answers only help and usage errors.
    A refused request, an ArithmeticError of scalar float arithmetic
    included, exits 2 with one error line.
    """
    args = parse_request(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, FileNotFoundError, KeyError, gclosure.NoBracket) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
