"""Optimal trace bounds on the pair (A*, B#).

A* is the effective conductivity of a two-phase mixture, B# the relative
limit of a second two-phase density evaluated along the oscillations of the
first.  Feasible pairs obey a chain of matrix inequalities plus one lower
and one upper trace bound selected by the volume fractions:

    L1 (thetaA <= thetaB),   L2 (thetaB < thetaA),
    U1 (thetaA+thetaB <= 1), U2 (thetaA+thetaB > 1).

All four are linear in B#, so the fibre of admissible B# over a fixed A*
is a closed convex set.  The module evaluates each bound, classifies pairs,
mixes fibre extremes, and evaluates the pointwise energy-density bounds of
a constant density.  Only _verdict_inputs decomposes a pair: it builds one
record per pair, kept on A*, from which the chain check and every bound
evaluate their own sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gclosure import (
    DEFAULT_TOL,
    OutsideGSet,
    PhaseA,
    core_side,
    g_membership,
    homogeneous_value,
    lower_trace_sum,
    means,
    theta_from_upper_boundary,
    thetas_from_lower_boundary,
)
from .homog1d import lim_b_over_a, phase_means
from .symtensor import (
    SingularFactor,
    SymTensor,
    derived,
    eig,
    eig_stack,
    from_frames,
    positive_spectrum,
)


class DimensionMismatch(ValueError):
    pass


class NotInRegion(ValueError):
    """Operation requires a pair in a specific (Li, Uj) region."""


@dataclass(frozen=True)
class PhaseB:
    """Second-phase data; b1 = b2 is allowed (constant density)."""

    b1: float
    b2: float
    thetaB: float

    def __post_init__(self):
        if not (0 < self.b1 <= self.b2):
            raise ValueError(f"need 0 < b1 <= b2, got b1={self.b1}, b2={self.b2}")
        if not (0.0 <= self.thetaB <= 1.0):
            raise ValueError(f"thetaB must lie in [0, 1], got {self.thetaB}")

    @property
    def mean(self) -> float:
        return phase_means(self.b1, self.b2, self.thetaB)[1]


@dataclass(frozen=True)
class PairBoundReport:
    region: str  # L1U1 | L1U2 | L2U1 | L2U2
    chain_slacks: tuple  # 6 reals, see general_chain_check
    li_lhs: float
    li_rhs: float
    li_slack: float
    uj_lhs: float
    uj_rhs: float
    uj_slack: float
    uj_variant_slack: float  # printed-form U2 slack (equals uj_slack off U2)
    verdict: str  # feasible | infeasible | boundary


# inclusion relation of the two phase sets that saturates each bound
RELATION_BOUND = {"A_subset_B": "L1", "B_subset_A": "L2", "disjoint": "U1", "complement_cover": "U2"}


def classify_region(pa: PhaseA, pb: PhaseB) -> str:
    li = "L1" if pa.thetaA <= pb.thetaB else "L2"
    uj = "U1" if pa.thetaA + pb.thetaB <= 1.0 else "U2"
    return li + uj


def admits(relation: str, pa: PhaseA, pb: PhaseB, closed: bool) -> bool:
    """Whether the volume fractions admit an inclusion relation of the two phase sets.

    A relation is admitted where classify_region selects its bound, so the
    interfaces thetaA = thetaB and thetaA + thetaB = 1 go to A_subset_B and
    disjoint.  closed=True admits B_subset_A and complement_cover on their
    interface as well.
    """
    bound = RELATION_BOUND[relation]
    if bound in classify_region(pa, pb):
        return True
    on_interface = pa.thetaA == pb.thetaB if bound[0] == "L" else pa.thetaA + pb.thetaB == 1.0
    return closed and on_interface


def _constant_density(b1: float, b2: float) -> bool:
    """Whether b2 - b1 is within 1e-14 b1, a degenerate B-phase judged by the constant-density bounds (DECISIONS #4)."""
    return b2 - b1 <= 1e-14 * b1


class _Inputs(NamedTuple):
    """What a verdict on (A*, B#) at phases (pa, b1, b2) decomposes; see _verdict_inputs."""

    link: tuple  # eigenvalues of the chain link (b2/a1) A* - B#, descending
    beta: np.ndarray  # the diagonal of B# in A*'s eigenframe
    const_b: dict  # at a constant density: core -> (F, the middle's EigSystem, rhs), F None for a homogeneous base medium


def _verdict_inputs(rows) -> list:
    """The _Inputs of each (A*, B#, pa, b1, b2) in a sequence, kept on A* under (pa, b1, b2).

    A* keeps the records of its last partner B# only (see symtensor.derived).
    Per dimension, one LAPACK call decomposes, row by row, A*, B#, the chain
    link (b2/a1) A* - B# and, at a constant density (see _constant_density),
    each core's middle factor sign (b1 A* - base B#), where
    (base, frac, _, sign) = core_side(pa, core).  One stacked product then
    gives every beta.  Each core keeps its outer factor F = sign (A* - base I)
    and its rhs N frac (a2-a1), from which _bound_const_b evaluates the lhs;
    a core whose F vanishes (a homogeneous base medium) has no middle.  The
    record of a constant density is kept under (pa, b1, b1) too, where the
    bounds of the density b1 find it.  A pair whose A* and B# differ in
    dimension raises DimensionMismatch before anything is built.
    """
    for astar, bsharp, *_ in rows:
        if astar.dim != bsharp.dim:
            raise DimensionMismatch(f"A* is {astar.dim}x{astar.dim}, B# is {bsharp.dim}x{bsharp.dim}")
    records, by_dim = [None] * len(rows), {}
    for i, (astar, bsharp, pa, b1, b2) in enumerate(rows):
        tensors, outers = [astar, bsharp, SymTensor((b2 / pa.a1) * astar._m - bsharp._m)], {}
        if _constant_density(b1, b2):
            n = astar.dim
            for core in ("a1", "a2"):
                base, frac, _, sign = core_side(pa, core)
                # base on the diagonal only: off it, base I subtracts 0.0, which leaves every entry, -0.0 too, as it is
                outer = astar.mat
                outer.flat[:: n + 1] -= base
                outer *= sign
                if np.abs(outer).max() <= 1e-14 * base:
                    outer = None  # a homogeneous base medium
                else:
                    tensors.append(SymTensor(sign * (b1 * astar._m - base * bsharp._m)))
                outers[core] = (outer, float(n * frac * (pa.a2 - pa.a1)))
        by_dim.setdefault(astar.dim, []).append((i, tensors, outers))
    for group in by_dim.values():
        flat = iter(eig_stack([t for _, tensors, _ in group for t in tensors]))
        systems = [[next(flat) for _ in tensors] for _, tensors, _ in group]
        frames = np.array([es[0].frame for es in systems])
        beta = frames.transpose(0, 2, 1) @ np.array([tensors[1]._m for _, tensors, _ in group]) @ frames
        for (i, tensors, outers), es, row_beta in zip(group, systems, beta.diagonal(axis1=1, axis2=2)):
            middles = iter(es[3:])
            const_b = {core: (outer, None if outer is None else next(middles), rhs) for core, (outer, rhs) in outers.items()}
            pa, b1, b2 = rows[i][2:]
            kept = derived(tensors[0], tensors[1])
            records[i] = kept[(pa, b1, b2)] = _Inputs(es[2].values, row_beta, const_b)
            if const_b:
                kept[(pa, b1, b1)] = records[i]
    return records


def _inputs(astar: SymTensor, bsharp: SymTensor, pa: PhaseA, b1: float, b2: float) -> _Inputs:
    """The record of one pair: the one kept on A*, else the one _verdict_inputs builds."""
    return derived(astar, bsharp).get((pa, b1, b2)) or _verdict_inputs([(astar, bsharp, pa, b1, b2)])[0]


def _chain_slacks(lam, mu, link, pa: PhaseA, pb: PhaseB) -> tuple:
    """The six slacks of general_chain_check from the spectra of A*, B# and the chain link, each in any order."""
    _, arith = means(pa)
    ratio = pb.b2 / pa.a1
    top = max(lam)
    return (
        float(min(mu) - pb.b1),
        float(min(link)),
        float(ratio * (arith - top)),
        float(ratio * (pa.a2 - arith)),
        float(min(lam) - pa.a1),
        float(pa.a2 - top),
    )


def general_chain_check(astar: SymTensor, bsharp: SymTensor, pa: PhaseA, pb: PhaseB) -> tuple:
    """Eigen-slacks of the general bounds chain.

    Six numbers, nonnegative when the chain holds:
      0: min eig of B# - b1 I
      1: min eig of (b2/a1) A* - B#
      2: (b2/a1) (arithmetic mean - max eig A*)
      3: (b2/a1) (a2 - arithmetic mean)       [scalar link, always >= 0]
      4: min eig A* - a1
      5: a2 - max eig A*
    """
    link = _inputs(astar, bsharp, pa, pb.b1, pb.b2).link
    return _chain_slacks(eig(astar).values, eig(bsharp).values, link, pa, pb)


def _bound_const_b(astar: SymTensor, bsharp: SymTensor, pa: PhaseA, b: float, core: str) -> tuple:
    """(lhs, rhs) of the constant-density trace bound with the given core, from the pair's record.

    Feasible pairs have lhs = b tr F M^-1 F <= rhs = N frac (a2-a1), with
    F = sign (A* - base I) and the middle factor M = sign (b A* - base B#);
    a homogeneous base medium (F = 0) has lhs 0.0.
    """
    outer, middle, rhs = _inputs(astar, bsharp, pa, b, b).const_b[core]
    if outer is None:
        return 0.0, rhs
    # raises SingularFactor for a middle factor that is not positive definite
    inverse = middle.frame @ np.diag(positive_spectrum(middle.values) ** -1.0) @ middle.frame.T
    return float(b * np.trace(outer @ inverse @ outer)), rhs


def bound_L_const_b(astar: SymTensor, bsharp: SymTensor, pa: PhaseA, b: float) -> tuple:
    """Constant-density lower trace bound (core a1 saturates it); feasible pairs have lhs <= rhs."""
    return _bound_const_b(astar, bsharp, pa, b, "a1")


def bound_U_const_b(astar: SymTensor, bsharp: SymTensor, pa: PhaseA, b: float) -> tuple:
    """Constant-density upper trace bound (core a2 saturates it); feasible pairs have lhs <= rhs."""
    return _bound_const_b(astar, bsharp, pa, b, "a2")


def _eigenframe(astar: SymTensor, bsharp: SymTensor, pa: PhaseA, pb: PhaseB) -> tuple:
    """Eigenvalues lambda of A* and the diagonal beta of B# in A*'s eigenframe.

    Each trace bound pairs B# with a function f of A* alone, and tr B# f(A*)
    = sum_i beta_i f(lambda_i) whether or not B# commutes with A*.  beta is
    read from the pair's record.
    """
    beta = _inputs(astar, bsharp, pa, pb.b1, pb.b2).beta
    return np.array(eig(astar).values), beta


def bound_L1(astar: SymTensor, bsharp: SymTensor, pa: PhaseA, pb: PhaseB) -> tuple:
    """Lower bound on the region thetaA <= thetaB, eliminated form.

    lhs = tr (B# - b1 I)(A* - a1 I)^-2 >= rhs; equality picks out nested
    microstructures (the A-set inside the B-set).
    """
    n = astar.dim
    lam, beta = _eigenframe(astar, bsharp, pa, pb)
    lhs = np.sum((beta - pb.b1) / positive_spectrum(lam - pa.a1) ** 2)
    s = lower_trace_sum(astar, pa)
    d = pa.a2 - pa.a1
    denom = pa.a2 + pa.a1 * (n - 1)
    rhs = (
        n * (pb.b2 - pb.b1) * (1.0 - pb.thetaB) * (pa.a1 * s + 1.0) ** 2 / denom**2
        + (pb.b1 / pa.a1) * (d * s - n) / denom
    )
    return float(lhs), float(rhs)


def bound_U1(astar: SymTensor, bsharp: SymTensor, pa: PhaseA, pb: PhaseB) -> tuple:
    """Upper bound on the region thetaA + thetaB <= 1, eliminated form.

    lhs = tr ((b2/a1) A* - B#)(A* - a1 I)^-2 >= rhs; equality picks out
    disjoint microstructures.
    """
    n = astar.dim
    lam, beta = _eigenframe(astar, bsharp, pa, pb)
    lhs = np.sum(((pb.b2 / pa.a1) * lam - beta) / positive_spectrum(lam - pa.a1) ** 2)
    s = lower_trace_sum(astar, pa)
    denom = pa.a2 + pa.a1 * (n - 1)
    rhs = (
        n * (pb.b2 - pb.b1) * pb.thetaB * (pa.a1 * s + 1.0) ** 2 / denom**2
        + n * (pb.b2 / pa.a1) * (pa.a1 * s + 1.0) / denom
    )
    return float(lhs), float(rhs)


def l2_case(pa: PhaseA, pb: PhaseB) -> str:
    """Translated amount selector: case a iff b2/a2^2 <= b1/a1^2."""
    return "a" if pb.b2 / pa.a2**2 <= pb.b1 / pa.a1**2 else "b"


def flux_floor(pa: PhaseA, pb: PhaseB) -> float:
    """c = min(b1/a1^2, b2/a2^2), the least flux-side density b/a^2."""
    return min(pb.b1 / pa.a1**2, pb.b2 / pa.a2**2)


def theta_star_u2(pa: PhaseA, pb: PhaseB, theta: float) -> float:
    """Scalar weak* limit entering U2: lim* b/a^2 with disjoint complements, overlap theta + thetaB - 1."""
    return lim_b_over_a(pa, pb, theta, pb.thetaB, theta + pb.thetaB - 1.0)


def flux_ratio(lam, pa: PhaseA, theta: float):
    """(1/lam - 1/a2) / (theta (a2-a1)/(a1 a2)) for eigenvalues lam of A*.

    The flux-side resolvent of A* relative to that of the upper-boundary
    tensor of fraction theta; its inverse square weights L2 and U2.
    """
    return (1.0 / lam - 1.0 / pa.a2) / (theta * (pa.a2 - pa.a1) / (pa.a1 * pa.a2))


def l2_terms(pa: PhaseA, pb: PhaseB, theta: float) -> tuple:
    """(c, level, osc) of L2 at the upper-boundary fraction theta.

    Along a lamination direction of weight w the saturating flux-side
    density exceeds c by (level + osc (1 - w)) times the squared flux ratio;
    summed over N directions this is the bound N level + (N-1) osc.
    """
    c = flux_floor(pa, pb)
    d = pa.a2 - pa.a1
    osc = c * d**2 / pa.a1**2 * theta * (1.0 - theta) + 2.0 * (pb.b2 / pa.a2**2 - c) * d / pa.a1 * (1.0 - theta)
    return c, lim_b_over_a(pa, pb, theta, pb.thetaB, pb.thetaB) - c, osc  # l(theta): B nested in A


def u2_terms(pa: PhaseA, pb: PhaseB, theta: float) -> tuple:
    """(lead, level, osc) of the step form of U2 at the upper-boundary fraction theta.

    Along a lamination direction of weight w the saturating flux-side
    density falls short of lead/lambda by (level - osc (1 - w)) times the
    squared flux ratio; summed over N directions this is N level - (N-1) osc.
    """
    d = pa.a2 - pa.a1
    lead = pb.b2 * pa.a2 / pa.a1**2
    level = pb.b2 / pa.a1**2 - theta_star_u2(pa, pb, theta) + pb.b2 * d / pa.a1**3 * theta
    osc = 2.0 * (pb.b2 - pb.b1) * d / pa.a1**3 * (1.0 - theta)
    return lead, level, osc


def bound_L2(astar: SymTensor, bsharp: SymTensor, pa: PhaseA, pb: PhaseB, theta: float) -> tuple:
    """Lower bound on the region thetaB < thetaA.

    Works in flux variables: lhs = tr (A*^-1 B# A*^-1 - c I) Q with the
    resolvent weight Q = (underline(A)_theta^-1 - a2^-1)^2 (A*^-1 - a2^-1)^-2
    at the upper-boundary fraction theta_from_upper_boundary(astar, pa).  Returns (lhs, rhs, case).
    """
    n = astar.dim
    c, level, osc = l2_terms(pa, pb, theta)
    lam, beta = _eigenframe(astar, bsharp, pa, pb)
    lhs = float(np.dot(beta / lam**2 - c, flux_ratio(lam, pa, theta) ** -2))
    return lhs, float(n * level + (n - 1) * osc), l2_case(pa, pb)


def bound_U2(astar: SymTensor, bsharp: SymTensor, pa: PhaseA, pb: PhaseB, theta: float) -> tuple:
    """Upper bound on the region thetaA + thetaB > 1, both right-hand sides.

    theta is the upper-boundary fraction theta_from_upper_boundary(astar, pa).
    Returns (lhs, rhs_printed, rhs_step).  The two sides differ by
    N b2 (a2-a1)(2 theta - 1)/a1^3: the printed statement carries (1-theta)
    where its own derivation step produces theta.  Feasibility is certified
    against the step form; the printed form is reported alongside.
    """
    n = astar.dim
    lead, level, osc = u2_terms(pa, pb, theta)
    lam, beta = _eigenframe(astar, bsharp, pa, pb)
    lhs = float(np.dot(lead / lam - beta / lam**2, flux_ratio(lam, pa, theta) ** -2))
    rhs_step = n * level - (n - 1) * osc
    rhs_printed = rhs_step - n * pb.b2 * (pa.a2 - pa.a1) * (2.0 * theta - 1.0) / pa.a1**3
    return lhs, float(rhs_printed), float(rhs_step)


def _one_form(sides: tuple) -> tuple:
    """(lhs, printed rhs, rhs) of a bound whose printed form is the one evaluated."""
    return sides[0], sides[1], sides[1]


# One record per trace bound: (report side, whether feasible pairs have
# lhs >= rhs rather than lhs <= rhs, evaluation returning (lhs, printed rhs,
# rhs) as bound_U2 does).  The evaluations look each bound_* up by name when
# they run, so a wrapper installed over the module attribute sees every call.
_BOUNDS = {
    "L1": ("li", True, lambda a, b, pa, pb, theta: _one_form(bound_L1(a, b, pa, pb))),
    "L2": ("li", True, lambda a, b, pa, pb, theta: _one_form(bound_L2(a, b, pa, pb, theta))),
    "U1": ("uj", True, lambda a, b, pa, pb, theta: _one_form(bound_U1(a, b, pa, pb))),
    "U2": ("uj", True, lambda a, b, pa, pb, theta: bound_U2(a, b, pa, pb, theta)),
    "L_const_b": ("li", False, lambda a, b, pa, pb, theta: _one_form(bound_L_const_b(a, b, pa, pb.b1))),
    "U_const_b": ("uj", False, lambda a, b, pa, pb, theta: _one_form(bound_U_const_b(a, b, pa, pb.b1))),
}


def pair_membership(
    astar: SymTensor,
    bsharp: SymTensor,
    pa: PhaseA,
    pb: PhaseB,
    tol: float = DEFAULT_TOL,
) -> PairBoundReport:
    """Full feasibility verdict for a candidate pair (A*, B#).

    The chain check builds the verdict's record (see _verdict_inputs) unless
    it is kept, with one LAPACK call, and every bound evaluates its lhs from it.
    """
    region = classify_region(pa, pb)
    chain = general_chain_check(astar, bsharp, pa, pb)

    if homogeneous_value(pa) is not None:
        # homogeneous A-medium: the fibre collapses to the single point
        # B# = mean(b) I, the trace bounds degenerate to 0 = 0
        g_membership(astar, pa, tol)  # raises DegenerateTheta on mismatch
        gap = float(np.abs(bsharp.mat - pb.mean * np.eye(bsharp.dim)).max())
        ok = gap <= tol and all(s >= -tol for s in chain)
        verdict = "boundary" if ok else "infeasible"
        zero = 0.0 if ok else -np.inf
        return PairBoundReport(region, chain, 0.0, 0.0, zero, 0.0, 0.0, zero, zero, verdict)

    const_b = _constant_density(pb.b1, pb.b2)
    sides = {}
    try:
        # a member's eigenvalues lie 1e-13 inside (a1, a2), so its upper trace clears N a1 a2/(a2-a1): no NoBracket
        theta = theta_from_upper_boundary(astar, pa, tol)
        for name in ("L_const_b", "U_const_b") if const_b else (region[:2], region[2:]):
            side, at_least, evaluate = _BOUNDS[name]
            lhs, printed, rhs = evaluate(astar, bsharp, pa, pb, theta)
            # subtract in the bound's sense: negating lhs - rhs would turn 0.0 into -0.0
            slack, variant = (lhs - rhs, lhs - printed) if at_least else (rhs - lhs, printed - lhs)
            sides[side] = (lhs, rhs, slack)
    except (OutsideGSet, SingularFactor):  # off the phase set, or an indefinite middle factor
        return PairBoundReport(region, chain, np.nan, np.nan, -np.inf, np.nan, np.nan, -np.inf, -np.inf, "infeasible")

    li, uj = sides["li"], sides["uj"]
    # the trace sides grow like (lambda - a1)^-2, so their rounding does too: judge each at tol times its size
    li_tol, uj_tol = (tol * max(1.0, abs(lhs), abs(rhs)) for lhs, rhs, _ in (li, uj))
    feasible = all(s >= -tol for s in chain) and li[2] >= -li_tol and uj[2] >= -uj_tol
    if not feasible:
        verdict = "infeasible"
    elif abs(li[2]) <= li_tol or abs(uj[2]) <= uj_tol:
        verdict = "boundary"
    else:
        verdict = "feasible"
    # the upper bound runs last, so variant is its printed-form slack
    return PairBoundReport(region, chain, *li, *uj, variant, verdict)


def pair_memberships(pairs, tol: float = DEFAULT_TOL) -> list:
    """pair_membership of each (astar, bsharp, pa, pb) in a sequence, with one LAPACK call per dimension.

    The records of every verdict are built first (see _verdict_inputs), and
    then each pair is judged by the module's pair_membership, which finds
    its record; a DimensionMismatch is raised before any pair is judged.
    """
    _verdict_inputs([(astar, bsharp, pa, pb.b1, pb.b2) for astar, bsharp, pa, pb in pairs])
    return [pair_membership(*pair, tol) for pair in pairs]


def gradient_extremes(lam, m, pa: PhaseA, pb: PhaseB, theta) -> tuple:
    """L1- and U1-saturating eigenvalues of B# over a lower-boundary A*.

    lam are the eigenvalues of A* on the lower boundary of fraction theta and
    m the lamination weights along its eigenvectors.  Returns (nested,
    disjoint): B# of the A-set inside the B-set and of disjoint sets.  For a
    stack of tensors, lam and m hold one row and theta one column entry per tensor.
    """
    _, arith = phase_means(pa.a1, pa.a2, theta)
    span = arith - pa.a1
    # squared entry by entry with Python's scalar pow, for a lone theta and a
    # stack alike: numpy's array square can differ from it by an ulp
    span2 = np.reshape([x**2 for x in np.ravel(span).tolist()], np.shape(span))
    ratio = (lam - pa.a1) ** 2 / span2
    osc = theta * (1.0 - theta) * (pa.a2 - pa.a1) ** 2 / pa.a1**2 * m
    nested = pb.b1 + (pb.mean - pb.b1 + pb.b1 * osc) * ratio
    disjoint = pb.b2 - (pb.b2 - pb.mean - pb.b2 * osc) * ratio
    return nested, disjoint


def fibre_extremes_stack(astars, pa: PhaseA, pb: PhaseB, tol: float = DEFAULT_TOL) -> tuple:
    """fibre_extremes_l1u1 of a nonempty sequence of tensors of one dimension, evaluated over the whole stack.

    Returns (low, high), arrays of shape (K, N, N) holding the matrices that
    fibre_extremes_l1u1 returns one tensor at a time, bit for bit.  One
    LAPACK call decomposes every tensor not decomposed before.
    """
    theta = thetas_from_lower_boundary(astars, pa, tol)
    n = astars[0].dim
    low = np.empty((len(astars), n, n))
    low[:] = pb.mean * np.eye(n)  # b_mean I wherever theta <= 1e-12
    high = low.copy()
    live = theta > 1e-12
    if live.any():
        systems = [es for es, keep in zip(eig_stack(astars), live) if keep]
        lam = np.array([es.values for es in systems])
        frames = np.array([es.frame for es in systems])
        theta = theta[live, None]
        # lamination weights along A*'s eigenvectors, from the lower-boundary
        # resolvent relation theta M / a1 = (1-theta)(A* - a1 I)^-1 - (a2-a1)^-1 I
        m = pa.a1 / theta * ((1.0 - theta) / (lam - pa.a1) - 1.0 / (pa.a2 - pa.a1))
        for out, diag in zip((low, high), gradient_extremes(lam, m, pa, pb, theta)):
            out[live] = from_frames(frames, diag)
    return low, high


def fibre_extremes_l1u1(astar: SymTensor, pa: PhaseA, pb: PhaseB, tol: float = DEFAULT_TOL) -> tuple:
    """Saturating endpoints of the fibre over A* in the region L1U1.

    Returns (B_low, B_high): the nested-laminate tensor saturating L1 and the
    disjoint-laminate tensor saturating U1, both sharing A*'s eigenframe.
    """
    low, high = fibre_extremes_stack([astar], pa, pb, tol)
    return SymTensor(low[0]), SymTensor(high[0])


def fibre_mix(astar: SymTensor, bsharp: SymTensor, pa: PhaseA, pb: PhaseB, tol: float = DEFAULT_TOL) -> tuple:
    """Mixing weights putting B# between the L1- and U1-saturating extremes.

    beta1 = L1 slack / tr (A*-a1 I)^-2 and beta2 = U1 slack likewise; the
    convex combination (beta2 B_low + beta1 B_high)/(beta1+beta2) reproduces
    any B# on the segment between the extremes.
    """
    if classify_region(pa, pb) != "L1U1":
        raise NotInRegion("fibre mixing is defined in the region L1U1")
    report = pair_membership(astar, bsharp, pa, pb, tol)
    if report.verdict == "infeasible":
        raise NotInRegion("pair is not feasible")
    norm = np.sum(positive_spectrum(np.subtract(eig(astar).values, pa.a1)) ** -2.0)
    beta1 = report.li_slack / norm
    beta2 = report.uj_slack / norm
    b_low, b_high = fibre_extremes_l1u1(astar, pa, pb, tol)
    return float(beta1), float(beta2), b_low, b_high


def energy_density_bounds(astar: SymTensor, pa: PhaseA, b: float, vector, side: str, tol: float = DEFAULT_TOL) -> tuple:
    """Pointwise bounds on the limiting energy density of a constant density b at a field v.

    Side "lower" or "upper" evaluates
        lower:  (b/a2) {A* + (a2 I - Abar)^-1 (a2 I - A*)^2} v.v
        upper:  (b/a1) {A* + (Abar - a1 I)^-1 (A* - a1 I)^2} v.v
    Core-a1 laminates meet the lower side.  Returns (value, quadratic form matrix).
    """
    report = g_membership(astar, pa, tol)
    if report.verdict == "outside":
        raise OutsideGSet("tensor is outside its phase set")
    if side not in ("lower", "upper"):
        raise ValueError("the sides are 'lower' and 'upper'")
    v = np.asarray(vector, dtype=float)
    _, arith = means(pa)
    a = astar.mat
    base, frac, _, sign = core_side(pa, "a1" if side == "lower" else "a2")
    form = a  # the homogeneous base medium at frac <= 1e-12, where the correction vanishes
    if frac > 1e-12:
        shift = a - base * np.eye(astar.dim)
        form = a + shift @ shift / (sign * (arith - base))
    form = (float(b) / base) * form
    return float(v @ form @ v), form
