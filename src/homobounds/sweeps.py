"""Seeded randomized sweeps over the constructor families.

Draws phase data and a construction (simple or sequential laminate, coated
sphere, one-dimensional embedding, possibly rotated) from a counter-based
generator, so a 64-bit seed reproduces a sweep bit for bit.  Used by the
command-line `pair sweep` and by the feasibility acceptance run.
draw_composites makes a chunk's random draws first and then builds them in
stacked passes, drawing again only for the seq_pp laminates that break the
bounds chain; draw_composite is its one-composite case.
"""

from __future__ import annotations

import numpy as np

from .gclosure import DEFAULT_TOL, PhaseA
from .hashin import CoatingConfig, hs_b, hs_m
from .homog1d import overlap_window
from .laminates import ChainViolation, LaminateSpec, _seq_const_stack, _seq_pp_stack, simple_laminate_pair
from .pairbounds import RELATIONS, PhaseB, admits, pair_memberships
from .symtensor import MAX_DIM, SymTensor, eig_stack, rotate_stack

FAMILIES = ("simple", "rotated_simple", "seq_const", "seq_pp", "coated_sphere")

# The coated spheres a sweep draws from, two-phase ones in RELATIONS order.
# The two core-a1 two-phase assignments are only drawn with thetaB < thetaA:
# on {thetaA <= thetaB} they genuinely violate the printed L1 bound (see
# DECISIONS.md), so they are not feasibility-sweep material there.
_TWO_PHASE_COATINGS = {
    core: tuple([CoatingConfig(core, r.core_b, r.inclusion) for r in RELATIONS.values() if r.core_a == core]) for core in ("a1", "a2")
}
_COATINGS = (*_TWO_PHASE_COATINGS["a2"], CoatingConfig("a1", "const", "none"), CoatingConfig("a2", "const", "none"))

# Rows drawn, then judged, together: each chunk is built and judged in
# stacked passes per dimension, and its tensors bound the memory a long
# sweep holds.
_CHUNK = 64


def make_rng(seed: int) -> np.random.Generator:
    """Philox counter-based generator; 64-bit seed fixes the whole stream."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


# The ranges of the six uniforms of _random_phases, in stream order: a1,
# a2/a1, b1, b2/b1, thetaA and thetaB.
_PHASE_RANGES = ((0.5, 2.0), (1.1, 4.0), (0.5, 2.0), (1.0, 4.0), (0.05, 0.95), (0.05, 0.95))


def _random_phases(rng) -> tuple:
    # one draw of six doubles, scaled as rng.uniform(low, high) scales each
    a1, a2_a1, b1, b2_b1, theta_a, theta_b = [low + (high - low) * u for (low, high), u in zip(_PHASE_RANGES, rng.random(6).tolist())]
    return PhaseA(a1, a1 * a2_a1, theta_a), PhaseB(b1, b1 * b2_b1, theta_b)


def _rotations(gaussians: np.ndarray) -> np.ndarray:
    """Random orthonormal frames from a (K, N, N) stack of Gaussian matrices: one stacked QR, columns signed by R's diagonal."""
    q, r = np.linalg.qr(gaussians)
    return q * np.sign(r.diagonal(axis1=1, axis2=2))[:, None, :]


def _random_spec(rng, n: int, relation: str, core: str) -> LaminateSpec:
    p = int(rng.integers(1, n + 1))
    dirs = [tuple(v / np.linalg.norm(v)) for v in rng.normal(size=(p, n))]
    w = rng.dirichlet(np.ones(p))
    w = w / w.sum()
    return LaminateSpec(tuple(dirs), tuple(w), core, relation)


def _draw(rng, max_dim: int) -> tuple:
    """One candidate composite's random draws, in stream order: (draw, todo).

    todo is None when the draw is built: simple laminates and coated
    spheres.  Otherwise the draw's astar and bsharp are left for
    draw_composites to build in stacks: todo is ("rotated_simple", Gaussian
    matrix of the rotation) for a simple laminate still to rotate,
    ("seq_const", spec, b), or ("seq_pp", spec).
    """
    n = int(rng.integers(2, max_dim + 1))
    pa, pb = _random_phases(rng)
    family = FAMILIES[int(rng.integers(0, len(FAMILIES)))]
    todo = None
    if family in ("simple", "rotated_simple"):
        theta_ab = rng.uniform(*overlap_window(pa, pb))
        axis = int(rng.integers(0, n))
        astar, bsharp = simple_laminate_pair(pa, pb, theta_ab, axis, n)
        if family == "rotated_simple":
            todo = (family, rng.normal(size=(n, n)))
    elif family == "seq_const":
        b = rng.uniform(0.5, 4.0)
        pb = PhaseB(b, b, pb.thetaB)
        core = "a2" if rng.uniform() < 0.5 else "a1"
        astar = bsharp = None
        todo = (family, _random_spec(rng, n, "const_b", core), b)
    elif family == "seq_pp":
        choices = [r for r in RELATIONS if admits(r, pa, pb, False)]
        relation = choices[int(rng.integers(0, len(choices)))]
        astar = bsharp = None
        todo = (family, _random_spec(rng, n, relation, RELATIONS[relation].core_a))
    else:
        configs = _COATINGS + (_TWO_PHASE_COATINGS["a1"] if admits("B_subset_A", pa, pb, False) else ())
        # each constant density is drawn in turn; b# is evaluated for the picked config only
        valid = []
        for cfg in configs:
            if cfg.coreB == "const":
                valid.append((cfg, rng.uniform(0.5, 4.0)))
            elif admits(cfg.relation, pa, pb, True):
                valid.append((cfg, pb))
        cfg, density = valid[int(rng.integers(0, len(valid)))]
        if cfg.coreB == "const":
            pb = PhaseB(density, density, pb.thetaB)
        astar = SymTensor(hs_m(pa, cfg.coreA, n) * np.eye(n))
        bsharp = SymTensor(hs_b(pa, density, cfg, n) * np.eye(n))
        family = f"coated_{cfg.coreA}_{cfg.coreB}"
    draw = {"family": family, "dim": n, "pa": pa, "pb": pb, "astar": astar, "bsharp": bsharp, "chain_rejections": 0}
    return draw, todo


def draw_composites(rng, count: int, max_dim: int = 3) -> list:
    """count feasible composites: phases, pair (A*, B#), family label each.

    The random draws are made first, one candidate after another.  One
    LAPACK call per dimension decomposes the direction moments of the
    round's sequential laminates, and the seq_pp laminates are built per
    dimension in one stacked pass (see laminates._seq_pp_stack).  A
    complement_cover output that breaks the bounds chain is not a relative
    limit: the candidate is dropped, counted in the chain_rejections of the
    next composite kept, and exactly the shortfall is drawn in a further
    round.  No build draws from the stream, so it is consumed as count
    calls of draw_composite would consume it.  The other constructions are
    then built per dimension in stacked passes: the rotated simple laminates
    by one QR and one congruence, the constant-density sequential laminates
    by one pass over their decomposed moments and one frame product for A*
    and B#.  Every tensor has the bits of its one-composite case.
    """
    draws, pending, rejections = [], {"rotated_simple": {}, "seq_const": {}}, 0
    while len(draws) < count:
        candidates = [_draw(rng, max_dim) for _ in range(count - len(draws))]
        seq_pp, specs = {}, {}
        for draw, todo in candidates:
            if todo is not None and todo[0] in ("seq_pp", "seq_const"):
                specs.setdefault(draw["dim"], []).append(todo[1])
                if todo[0] == "seq_pp":
                    seq_pp.setdefault(draw["dim"], []).append((draw, todo[1]))
        for group in specs.values():
            eig_stack([spec.moment for spec in group])  # every laminate of the round, for both stacks below
        rejected = set()
        for group in seq_pp.values():
            built = _seq_pp_stack([spec for _, spec in group], [d["pa"] for d, _ in group], [d["pb"] for d, _ in group])
            for (d, _), result in zip(group, built):
                if isinstance(result, ChainViolation):
                    rejected.add(id(d))
                else:
                    d["astar"], d["bsharp"] = result
        for draw, todo in candidates:
            if id(draw) in rejected:
                rejections += 1
                continue
            draw["chain_rejections"], rejections = rejections, 0
            draws.append(draw)
            if todo is not None and todo[0] != "seq_pp":
                family, *inputs = todo
                pending[family].setdefault(draw["dim"], []).append((draw, *inputs))
    for group in pending["rotated_simple"].values():
        q = _rotations(np.array([gaussian for _, gaussian in group]))
        rotated = rotate_stack([d["astar"] for d, _ in group] + [d["bsharp"] for d, _ in group], np.concatenate([q, q]))
        for (d, _), astar, bsharp in zip(group, rotated[: len(group)], rotated[len(group) :]):
            d["astar"], d["bsharp"] = astar, bsharp
    for group in pending["seq_const"].values():
        specs, pas, bs = [spec for _, spec, _ in group], [d["pa"] for d, _, _ in group], [b for _, _, b in group]
        for (d, _, _), astar, bsharp in zip(group, *_seq_const_stack(specs, pas, bs)):
            d["astar"], d["bsharp"] = astar, bsharp
    return draws


def draw_composite(rng, max_dim: int = 3) -> dict:
    """One feasible composite: phases, pair (A*, B#), family label (the one-composite case of draw_composites)."""
    return draw_composites(rng, 1, max_dim)[0]


def feasibility_sweep(seed: int, count: int, max_dim: int = 3, tol: float = DEFAULT_TOL) -> list:
    """Evaluate pair membership on `count` seeded composites.

    Returns one row per draw: (index, family, dim, region, min chain slack,
    li slack, uj slack, verdict).  The draws are made in chunks and each
    chunk is judged by pair_memberships; no draw depends on a verdict, so
    the rows are those of judging each draw as it is made.
    """
    if not 2 <= max_dim <= MAX_DIM:
        raise ValueError(f"max_dim must be in [2, {MAX_DIM}], got {max_dim}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    rng = make_rng(seed)
    rows = []
    for start in range(0, count, _CHUNK):
        draws = draw_composites(rng, min(_CHUNK, count - start), max_dim)
        reports = pair_memberships([(d["astar"], d["bsharp"], d["pa"], d["pb"]) for d in draws], tol)
        rows += [
            (i, d["family"], d["dim"], r.region, min(r.chain_slacks), r.li_slack, r.uj_slack, r.verdict)
            for i, (d, r) in enumerate(zip(draws, reports), start)
        ]
    return rows
