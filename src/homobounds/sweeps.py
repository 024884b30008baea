"""Seeded randomized sweeps over the constructor families.

Draws phase data and a construction (simple or sequential laminate, coated
sphere, one-dimensional embedding, possibly rotated) from a counter-based
generator, so a 64-bit seed reproduces a sweep bit for bit.  Used by the
command-line `pair sweep` and by the feasibility acceptance run.
"""

from __future__ import annotations

import numpy as np

from .gclosure import DEFAULT_TOL, PhaseA
from .hashin import CoatingConfig, hs_b, hs_m
from .homog1d import overlap_window
from .laminates import RELATION_CORE, ChainViolation, LaminateSpec, seq_A, seq_B_const, seq_B_pp, simple_laminate_pair
from .pairbounds import RELATION_BOUND, PhaseB, admits, pair_memberships
from .symtensor import MAX_DIM, SymTensor, rotate

FAMILIES = ("simple", "rotated_simple", "seq_const", "seq_pp", "coated_sphere")

# Rows drawn, then judged, together: each chunk makes one LAPACK call per
# dimension, and the chunk's tensors bound the memory a long sweep holds.
_CHUNK = 64


def make_rng(seed: int) -> np.random.Generator:
    """Philox counter-based generator; 64-bit seed fixes the whole stream."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _random_phases(rng) -> tuple:
    a1 = rng.uniform(0.5, 2.0)
    a2 = a1 * rng.uniform(1.1, 4.0)
    b1 = rng.uniform(0.5, 2.0)
    b2 = b1 * rng.uniform(1.0, 4.0)
    pa = PhaseA(a1, a2, rng.uniform(0.05, 0.95))
    pb = PhaseB(b1, b2, rng.uniform(0.05, 0.95))
    return pa, pb


def _random_rotation(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _random_spec(rng, n: int, relation: str, core: str) -> LaminateSpec:
    p = int(rng.integers(1, n + 1))
    dirs = []
    for _ in range(p):
        v = rng.normal(size=n)
        dirs.append(tuple(v / np.linalg.norm(v)))
    w = rng.dirichlet(np.ones(p))
    w = w / w.sum()
    return LaminateSpec(tuple(dirs), tuple(w), core, relation)


def draw_composite(rng, max_dim: int = 3) -> dict:
    """One feasible composite: phases, pair (A*, B#), family label.

    complement_cover relations can produce chain-violating tensors; those
    draws are resampled (and counted) since they are not relative limits.
    """
    rejections = 0
    while True:
        n = int(rng.integers(2, max_dim + 1))
        pa, pb = _random_phases(rng)
        family = FAMILIES[int(rng.integers(0, len(FAMILIES)))]
        try:
            if family in ("simple", "rotated_simple"):
                theta_ab = rng.uniform(*overlap_window(pa, pb))
                axis = int(rng.integers(0, n))
                astar, bsharp = simple_laminate_pair(pa, pb, theta_ab, axis, n)
                if family == "rotated_simple":
                    q = _random_rotation(rng, n)
                    astar, bsharp = rotate(astar, q), rotate(bsharp, q)
            elif family == "seq_const":
                b = rng.uniform(0.5, 4.0)
                pb = PhaseB(b, b, pb.thetaB)
                core = "a2" if rng.uniform() < 0.5 else "a1"
                spec = _random_spec(rng, n, "const_b", core)
                astar = seq_A(spec, pa)
                bsharp = seq_B_const(spec, pa, b)
            elif family == "seq_pp":
                choices = [r for r in RELATION_BOUND if admits(r, pa, pb, False)]
                relation = choices[int(rng.integers(0, len(choices)))]
                spec = _random_spec(rng, n, relation, RELATION_CORE[relation])
                astar = seq_A(spec, pa)
                bsharp = seq_B_pp(spec, pa, pb)
            else:
                # the two core-a1 two-phase assignments are only drawn with
                # thetaB < thetaA: on {thetaA <= thetaB} they genuinely
                # violate the printed L1 bound (see DECISIONS.md),
                # so they are not feasibility-sweep material there
                configs = [
                    CoatingConfig("a2", "b2", "A_in_B"),
                    CoatingConfig("a2", "b1", "A_in_Bc"),
                    CoatingConfig("a1", "const", "none"),
                    CoatingConfig("a2", "const", "none"),
                ]
                if admits("B_subset_A", pa, pb, False):
                    configs += [
                        CoatingConfig("a1", "b1", "B_in_A"),
                        CoatingConfig("a1", "b2", "Ac_in_B"),
                    ]
                valid = []
                for cfg in configs:
                    if cfg.coreB == "const":
                        b = rng.uniform(0.5, 4.0)
                        valid.append((cfg, hs_b(pa, b, cfg, n), PhaseB(b, b, pb.thetaB)))
                    elif admits(cfg.relation, pa, pb, True):
                        valid.append((cfg, hs_b(pa, pb, cfg, n), pb))
                cfg, bval, pb = valid[int(rng.integers(0, len(valid)))]
                m = hs_m(pa, cfg.coreA, n)
                astar = SymTensor(m * np.eye(n))
                bsharp = SymTensor(bval * np.eye(n))
                family = f"coated_{cfg.coreA}_{cfg.coreB}"
        except ChainViolation:
            rejections += 1
            continue
        return {
            "family": family,
            "dim": n,
            "pa": pa,
            "pb": pb,
            "astar": astar,
            "bsharp": bsharp,
            "chain_rejections": rejections,
        }


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
        draws = [draw_composite(rng, max_dim) for _ in range(min(_CHUNK, count - start))]
        reports = pair_memberships([(d["astar"], d["bsharp"], d["pa"], d["pb"]) for d in draws], tol)
        rows += [
            (i, d["family"], d["dim"], r.region, min(r.chain_slacks), r.li_slack, r.uj_slack, r.verdict)
            for i, (d, r) in enumerate(zip(draws, reports), start)
        ]
    return rows
