"""Command-line front end.

Subcommands: gset, pair, laminate, hashin, oned, odp, oodp, phase.
Reports are JSON, written by one recursive writer in the bytes of
json.dumps(indent=2, sort_keys=True), with each non-finite float a quoted
string; sample grids and sweep tables are CSV with a header row and
shortest-round-trip float formatting, so identical invocations (same seed
included) produce byte-identical files.  HOMOBOUNDS_TOL overrides the
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


def _unread(args, flags):
    """ValueError for a request that gave one of `flags` (main records them in args.given): its action, or its command if it has none, does not read them."""
    for flag in flags:
        if flag in args.given:
            request = f"{args.command} {args.action}" if hasattr(args, "action") else args.command
            raise ValueError(f"{request} does not read {flag}")


def _exit_code(args, failed: bool) -> int:
    """1 when --assert is given and the check failed, else 0."""
    return 1 if args.assert_ and failed else 0


_QUOTED = json.encoder.encode_basestring_ascii


def _json(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True), with each non-finite float as its quoted str().

    Strict JSON has no Infinity/NaN literals.  Tuples are lists, keys (all
    str) are sorted and any other type raises TypeError, as in json; numpy's
    float64 is a float.  `indent` is the line break and indentation of
    value's own line.  Unlike json's pure-Python encoder, which an indent
    selects, this leaves no reference cycles for the GC.  Reports come in as
    vars(report): dataclasses.asdict rebuilds each tuple from a generator,
    and such tuples pile up on the free lists.
    """
    if isinstance(value, float):  # a report is mostly floats
        return float.__repr__(value) if math.isfinite(value) else _QUOTED(str(value))
    if isinstance(value, str):
        return _QUOTED(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in value]) + indent + "]" if value else "[]"
    if isinstance(value, dict):
        items = [_QUOTED(k) + ": " + _json(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(args, payload):
    _write(args, _json(payload))


def _emit_csv(args, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(x)) if isinstance(x, float) else str(x) for x in row))
    _write(args, "\n".join(lines))


def _write(args, text: str):
    """Print text, or rewrite --out in place: ext4 flushes a file truncated on open when it closes, ~100 ms."""
    if args.out:
        data = (text + "\n").encode()
        with os.fdopen(os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
            fh.write(data)
            if os.fstat(fh.fileno()).st_size > len(data):  # never for /dev/null or a pipe, which take no truncate
                fh.truncate(len(data))
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
    # checked after symmetrising, where an infinite entry facing its opposite gives NaN
    with np.errstate(invalid="ignore"):
        tensor = SymTensor(m)
    if not np.isfinite(tensor._m).all():
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
        return _exit_code(args, any(r[-1] == "infeasible" for r in rows))
    pa, pb = _phase(args, "a"), _phase(args, "b")
    astar, bsharp = _tensor(args.astar, "astar"), _tensor(args.bsharp, "bsharp")
    # numpy warns on an overflow and goes on with inf; here an overflow
    # raises FloatingPointError instead, so such a pair is refused (exit 2)
    # rather than judged on infinite sides.  Only pair check does this.
    with np.errstate(over="raise"):
        report = pairbounds.pair_membership(astar, bsharp, pa, pb, _tol(args))
    _emit(args, vars(report))
    return _exit_code(args, report.verdict == "infeasible")


def cmd_laminate(args) -> int:
    pa = _phase(args, "a")
    if args.spec_file:
        if args.spec:
            raise ValueError("give the laminate spec once: --spec or --spec-file")
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
        _unread(args, ("--const-b",))
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
    _unread(args, ("--b", "--thetaB") if args.coreB == "const" else ("--const-b",))
    if not args.oracle:
        _unread(args, ("--points",))
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
    source, periods = _source(args.f), [int(x) for x in args.periods.split(",")]
    rows = homog1d.convergence_study(_load_profile(args), pa, pb, source, periods)
    _emit_csv(args, ["periods", "epsilon", "energy", "abs_error", "rel_error"], rows)
    return _exit_code(args, rows[-1][4] > 0.02)


def _design(args, two_sets: bool) -> tuple:
    """(cells, kA, kB, pa, pb, source) from --instance or the flags; pb is None for one set, a and b are pairs."""
    keys = ("cells", "kA", "kB", "a", "b", "f") if two_sets else ("cells", "kA", "a", "f")
    inst = {k: getattr(args, k) for k in keys}
    if args.instance:
        _unread(args, [f"--{k}" for k in keys])
        with open(args.instance) as fh:
            inst = json.load(fh)
        if not isinstance(inst, dict):
            raise ValueError(f"a design instance is a JSON object, got {inst!r}")
        missing = [k for k in keys if k not in inst]
        if missing:
            raise ValueError(f"missing from the design instance: {', '.join(map(repr, missing))}")
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


# Every flag once, with its argparse keywords; each is registered with default None.
_FLAGS = {
    "--a": {"help": "a1,a2 or a1,a2,thetaA (a1,a2 for odp and oodp)"},
    "--theta": {"type": finite, "help": "thetaA, the volume fraction of a1"},
    "--b": {"help": "b1,b2 or b1,b2,thetaB (b1,b2 for oodp)"},
    "--thetaB": {"type": finite, "help": "thetaB, the volume fraction of b1"},
    "--astar": {"help": "matrix as JSON, e.g. [[1.3,0],[0,1.5]]"},
    "--bsharp": {"help": "matrix as JSON"},
    "--const-b": {"type": finite, "help": "constant density b"},
    "--instance": {"help": "instance JSON file"},
    "--cells": {"type": int},
    "--kA": {"type": int},
    "--kB": {"type": int},
    "--f": {"help": "source term const:<value>"},
    "--side": {"choices": ["lower", "upper"]},
    "--n": {"type": int},
    "--seed": {"type": int},
    "--count": {"type": int},
    "--max-dim": {"type": int},
    "--spec": {"help": "laminate spec as inline JSON"},
    "--spec-file": {"help": "laminate spec file"},
    "--coreA": {"choices": ["a1", "a2"]},
    "--coreB": {"choices": ["b1", "b2", "const"]},
    "--inclusion": {},
    "--oracle": {"action": "store_true", "help": "add the quadrature cross-check"},
    "--points": {"type": int, "help": "quadrature points of --oracle"},
    "--target": {"type": finite},
    "--profile": {"help": "profile JSON file"},
    "--periods": {},
    "--tol": {"type": tolerance, "help": "feasibility tolerance"},
    "--out": {"help": "write output to a file"},
    "--assert": {"dest": "assert_", "action": "store_true", "help": "exit 1 on failure"},
}

# subcommand -> (handler, help)
_COMMANDS = {
    "gset": (cmd_gset, "phase-set membership and boundary sampling"),
    "pair": (cmd_pair, "pair feasibility and randomized sweeps"),
    "laminate": (cmd_laminate, "sequential-laminate constructors"),
    "hashin": (cmd_hashin, "coated-sphere values and radial oracle"),
    "oned": (cmd_oned, "one-dimensional bounds, inversion, convergence"),
    "odp": (cmd_odp, "single-set design: relaxed value and brute force"),
    "oodp": (cmd_oodp, "two-set design: relaxed value and brute force"),
    "phase": (cmd_phase, "fibre phase-diagram sample grid"),
}

# (subcommand, action or None) -> the flags the action reads, --flag=value where
# one has a default; argparse requires a --flag* that every row of the subcommand
# stars, and refuses a flag no row names.  main refuses one the request gave
# outside its row, then fills in the row's defaults.  Where reading a flag depends
# on another value, the handler refuses it: hashin's --b, --thetaB, --const-b and
# --points, laminate's --const-b, and what an odp/oodp --instance replaces.
_READS = {
    ("gset", "check"): "--a* --theta --astar --tol --out --assert",
    ("gset", "sample"): "--a* --theta --side=lower --n=50 --out",
    ("pair", "check"): "--a --theta --b --thetaB --astar --bsharp --tol --out --assert",
    ("pair", "sweep"): "--seed=0 --count=1000 --max-dim=3 --tol --out --assert",
    # a const_b spec reads no --b or --thetaB, yet takes them: bench/workloads.py sends --b with every one
    ("laminate", None): "--a* --theta --b --thetaB --const-b=1 --spec --spec-file --out --assert",
    ("hashin", None): "--a* --theta --b --thetaB --const-b=1 --coreA* --coreB=const --inclusion=none --n=2 --oracle --points=10000 --out",
    ("oned", "bounds"): "--a* --theta --b* --thetaB --out",
    ("oned", "invert"): "--a* --theta --b* --thetaB --target --out",
    ("oned", "limits"): "--a* --theta --b* --thetaB --profile --out",
    ("oned", "converge"): "--a* --theta --b* --thetaB --profile --f=const:1 --periods=4,16,64,256 --out --assert",
    ("odp", "relax"): "--instance --a --cells=12 --kA=6 --f=const:1 --out",
    ("odp", "brute"): "--instance --a --cells=12 --kA=6 --f=const:1 --out",
    ("oodp", "relax"): "--instance --a --b --cells=12 --kA=6 --kB=6 --f=const:1 --out",
    ("oodp", "brute"): "--instance --a --b --cells=12 --kA=6 --kB=6 --f=const:1 --out",
    ("phase", None): "--a* --theta --b* --thetaB --n=20 --tol --out",
}


def _dest(flag: str) -> str:
    return _FLAGS[flag].get("dest", flag[2:].replace("-", "_"))


def _tokens(reads: str) -> list:
    """(flag, starred, default text) of each --flag, --flag* or --flag=value of a _READS row."""
    return [(flag.rstrip("*"), flag.endswith("*"), text) for flag, _, text in (t.partition("=") for t in reads.split())]


def _declared(command: str) -> tuple:
    """(the flags that `command`'s rows name, in _FLAGS order; the set of those every row stars)."""
    rows = [_tokens(reads) for (name, _), reads in _READS.items() if name == command]
    named = {flag for row in rows for flag, _, _ in row}
    return [flag for flag in _FLAGS if flag in named], set.intersection(*({f for f, star, _ in row if star} for row in rows))


def _help(command: str, flag: str):
    """The flag's help text in `command`'s parser, ending in the defaults its rows of _READS give it."""
    defaults = sorted({text for (name, _), reads in _READS.items() if name == command for f, _, text in _tokens(reads) if f == flag and text})
    text = _FLAGS[flag].get("help")
    if not defaults:
        return text
    return f"{text + ' ' if text else ''}(default {' or '.join(defaults)})"


@functools.cache
def _row(command: str, action) -> tuple:
    """((flag, dest) of each declared flag, the declared flags a request does not read, (dest, value) of its defaults), parsed once."""
    reads = {flag: text for flag, _, text in _tokens(_READS[command, action])}
    defaults = tuple((_dest(flag), _FLAGS[flag].get("type", str)(text)) for flag, text in reads.items() if text)
    declared = _declared(command)[0]
    return tuple((flag, _dest(flag)) for flag in declared), tuple(flag for flag in declared if flag not in reads), defaults


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared by every later one.

    parse_args leaves the parser unchanged and returns a fresh Namespace, so
    repeated `main` calls in one process see no state from earlier ones.
    """
    ap = argparse.ArgumentParser(prog="homobounds", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (func, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        declared, required = _declared(name)
        for flag in declared:
            p.add_argument(flag, default=None, required=flag in required, **{**_FLAGS[flag], "help": _help(name, flag)})
        actions = [action for command, action in _READS if command == name and action]
        if actions:
            p.add_argument("action", choices=actions)
        p.set_defaults(func=func)
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
    The flags the request gave go to args.given; one outside the request's
    row of _READS is refused, and each flag of the row that the request
    omits takes the row's default.  A refused request exits 2 with one error
    line, an ArithmeticError of scalar float arithmetic, an OSError of a
    file it names and a RecursionError of nesting too deep to parse included.
    """
    args = parse_request(sys.argv[1:] if argv is None else list(argv))
    try:
        declared, unread, defaults = _row(args.command, getattr(args, "action", None))
        args.given = {flag for flag, dest in declared if getattr(args, dest) is not None}
        _unread(args, unread)
        for dest, value in defaults:
            if getattr(args, dest) is None:
                setattr(args, dest, value)
        return args.func(args)
    except (ValueError, ArithmeticError, OSError, RecursionError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
