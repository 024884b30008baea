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
evaluate their own sides.  pair_memberships evaluates the lhs of L1, U1
and the constant-density bounds on stacked arrays, one pass per dimension,
and those bound functions then read them; L2 and U2 evaluate theirs on the
pair at the theta pair_membership recovers.  Each lhs formula has one home.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gclosure import (
    _DEGENERATE_THETA,
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
    EigSystem,
    SingularFactor,
    SymTensor,
    derived,
    eig,
    eig_stack,
    from_frames,
    positive_rows,
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
        if not (0 < self.b1 <= self.b2 < np.inf):  # false for a NaN too
            raise ValueError(f"need 0 < b1 <= b2 < inf, got b1={self.b1}, b2={self.b2}")
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


# The inclusion relations of the two phase sets, in the order sweeps draw
# them: the trace bound its region selects and its seq_pp laminate meets,
# the A-core of its laminates and coated spheres, and its coated sphere's
# B-core and name.  The coated spheres attain fewer: A_in_B attains L1,
# A_in_Bc U1, B_in_A L2 in case a only (l2_case), and Ac_in_B neither U2 form.
Relation = NamedTuple("Relation", [("bound", str), ("core_a", str), ("core_b", str), ("inclusion", str)])
RELATIONS = {
    "A_subset_B": Relation("L1", "a2", "b2", "A_in_B"),
    "B_subset_A": Relation("L2", "a1", "b1", "B_in_A"),
    "disjoint": Relation("U1", "a2", "b1", "A_in_Bc"),
    "complement_cover": Relation("U2", "a1", "b2", "Ac_in_B"),
}


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
    bound = RELATIONS[relation].bound
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
    sides: dict  # bound name -> lhs, of the bounds the stacked pass of pair_memberships evaluates


# The A-core of the middle factor of each constant-density bound.
_CONST_CORES = {"L_const_b": "a1", "U_const_b": "a2"}


# The lhs of each two-phase trace bound, from A*'s eigenvalues lam, the
# diagonal beta of B# in A*'s eigenframe, a factor read from A* alone (the
# squared shift (lam - a1)^2 for L1 and U1, the weight _flux_ratio^-2 for L2
# and U2) and one phase term (_LHS_TERM).  Each bound pairs B# with a
# function f of A* alone, and tr B# f(A*) = sum_i beta_i f(lambda_i) whether
# or not B# commutes with A*.  For one pair lam and beta are 1-D and the
# terms floats.  L1 and U1 also take (K, N) stacks with (K, 1) columns of
# terms, and each row's sum has the bits of its pair alone.
_TRACE_LHS = {
    "L1": lambda lam, beta, shift2, b1: np.sum((beta - b1) / shift2, axis=-1),
    "U1": lambda lam, beta, shift2, b2_a1: np.sum((b2_a1 * lam - beta) / shift2, axis=-1),
    "L2": lambda lam, beta, weight, floor: np.dot(beta / lam**2 - floor, weight),
    "U2": lambda lam, beta, weight, lead: np.dot(lead / lam - beta / lam**2, weight),
}


def _const_lhs(outer: np.ndarray, inverse: np.ndarray, b):
    """b tr F M^-1 F of an outer factor F and the inverse of a middle factor M, or of (K, N, N) stacks of them with a (K,) row of b."""
    return b * np.trace(outer @ inverse @ outer, axis1=-2, axis2=-1)


def _verdict_inputs(rows, pbs=None) -> list:
    """The _Inputs of each (A*, B#, pa, b1, b2) in a sequence, kept on A* under (pa, b1, b2).

    A* keeps the records of its last partner B# only (see symtensor.derived).
    Per dimension, one LAPACK call decomposes A* and B# (memoised on them),
    the chain link (b2/a1) A* - B# and, at a constant density (see
    _constant_density), each core's middle factor sign (b1 A* - base B#),
    where (base, frac, _, sign) = core_side(pa, core).  One stacked product
    then gives every beta.  Each core keeps its outer factor
    F = sign (A* - base I) and its rhs N frac (a2-a1), from which
    _bound_const_b evaluates the lhs; a core whose F vanishes (a homogeneous
    base medium) has no middle.  The record of a constant density is kept
    under (pa, b1, b1) too, where the bounds of the density b1 find it.  A
    pair whose A* and B# differ in dimension raises DimensionMismatch before
    anything is built.

    Given pbs, the PhaseB of each row, each record also keeps in sides the
    lhs of the L1, U1 or constant-density bounds pair_membership selects for
    its row, evaluated on stacked arrays per dimension (see _stacked_lhs).
    """
    for astar, bsharp, *_ in rows:
        if astar.dim != bsharp.dim:
            raise DimensionMismatch(f"A* is {astar.dim}x{astar.dim}, B# is {bsharp.dim}x{bsharp.dim}")
    records, by_dim = [None] * len(rows), {}
    for i, row in enumerate(rows):
        by_dim.setdefault(row[0].dim, []).append(i)
    for n, group in by_dim.items():
        astars, bsharps = [rows[i][0] for i in group], [rows[i][1] for i in group]
        a, b = np.array([t._m for t in astars]), np.array([t._m for t in bsharps])
        ratio = np.array([rows[i][4] / rows[i][2].a1 for i in group])
        matrices, outers = [ratio[:, None, None] * a - b], []
        for i in group:
            astar, bsharp, pa, b1, b2 = rows[i]
            outers.append({})
            if _constant_density(b1, b2):
                for core in ("a1", "a2"):
                    base, frac, _, sign = core_side(pa, core)
                    # base on the diagonal only: off it, base I subtracts 0.0, which leaves every entry, -0.0 too, as it is
                    outer = astar.mat
                    outer.flat[:: n + 1] -= base
                    outer *= sign
                    if np.abs(outer).max() <= 1e-14 * base:
                        outer = None  # a homogeneous base medium
                    else:
                        matrices.append((sign * (b1 * astar._m - base * bsharp._m))[None])
                    outers[-1][core] = (outer, float(n * frac * (pa.a2 - pa.a1)))
        systems, (values, frames) = eig_stack(astars + bsharps, matrices)
        k = len(group)
        axes = np.array([es.frame for es in systems[:k]])
        beta = (axes.transpose(0, 2, 1) @ b @ axes).diagonal(axis1=1, axis2=2)
        middles = zip(values[k:].tolist(), frames[k:])
        for i, link, row_beta, cores in zip(group, values[:k].tolist(), beta, outers):
            astar, bsharp, pa, b1, b2 = rows[i]
            const_b = {}
            for core, (outer, rhs) in cores.items():
                middle = None
                if outer is not None:
                    middle_values, middle_frame = next(middles)
                    middle = EigSystem(tuple(middle_values), middle_frame)
                const_b[core] = (outer, middle, rhs)
            kept = derived(astar, bsharp)
            records[i] = kept[(pa, b1, b2)] = _Inputs(tuple(link), row_beta, const_b, {})
            if const_b:
                kept[(pa, b1, b1)] = records[i]
        if pbs is not None:
            _stacked_lhs(rows, pbs, group, np.array([es.values for es in systems[:k]]), beta, records)
    return records


def _stacked_lhs(rows, pbs, group: list, lam: np.ndarray, beta: np.ndarray, records: list):
    """The stacked pass of _verdict_inputs over the rows `group` of one dimension, with their (K, N) lam and beta.

    L1 and U1 each run once over the rows that select them, quietly, and
    each record keeps in sides the lhs of its row's bounds: L1's and U1's
    only where the shift A* - a1 I passes positive_rows, and a constant
    density's only where its middle factor does.  A homogeneous A-medium is
    judged without a bound, so its rows are left out.
    """
    selected, const = {}, []
    for k, i in enumerate(group):
        _, _, pa, b1, b2 = rows[i]
        if homogeneous_value(pa) is not None:
            continue
        if _constant_density(b1, b2):
            const += [(k, name) for name in _CONST_CORES]
            continue
        region = classify_region(pa, pbs[i])
        for name in (region[:2], region[2:]):
            if name[1] == "1":
                selected.setdefault(name, []).append(k)
    for name, ks in selected.items():
        phases = [(rows[group[k]][2], pbs[group[k]]) for k in ks]
        term = np.array([_LHS_TERM[name](pa, pb) for pa, pb in phases])[:, None]
        with np.errstate(all="ignore"):
            shift = lam[ks] - np.array([pa.a1 for pa, _ in phases])[:, None]
            keep = positive_rows(shift).tolist()
            values = _TRACE_LHS[name](lam[ks], beta[ks], shift**2, term).tolist()
        for k, ok, value in zip(ks, keep, values):
            if ok:
                records[group[k]].sides[name] = value
    factors = [(k, name, records[group[k]].const_b[_CONST_CORES[name]]) for k, name in const]
    factors = [(k, name, outer, es) for k, name, (outer, es, _) in factors if outer is not None]
    if factors:
        values = np.array([es.values for *_, es in factors])
        keep = positive_rows(values)
        factors = [f for f, ok in zip(factors, keep.tolist()) if ok]
        if factors:
            inverse = from_frames(np.array([f[3].frame for f in factors]), values[keep] ** -1.0)
            b = np.array([rows[group[k]][3] for k, *_ in factors])
            for (k, name, _, _), value in zip(factors, _const_lhs(np.array([f[2] for f in factors]), inverse, b).tolist()):
                records[group[k]].sides[name] = value


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


def _bound_const_b(astar: SymTensor, bsharp: SymTensor, pa: PhaseA, b: float, name: str) -> tuple:
    """(lhs, rhs) of the constant-density trace bound `name`, from the pair's record.

    Feasible pairs have lhs = b tr F M^-1 F <= rhs = N frac (a2-a1), with
    F = sign (A* - base I) and the middle factor M = sign (b A* - base B#);
    a homogeneous base medium (F = 0) has lhs 0.0.  The lhs is the one the
    stacked pass of pair_memberships kept, else _const_lhs of this pair.
    """
    record = _inputs(astar, bsharp, pa, b, b)
    outer, middle, rhs = record.const_b[_CONST_CORES[name]]
    if outer is None:
        return 0.0, rhs
    lhs = record.sides.get(name)
    if lhs is None:
        # raises SingularFactor for a middle factor that is not positive definite
        inverse = middle.frame @ np.diag(positive_spectrum(middle.values) ** -1.0) @ middle.frame.T
        lhs = float(_const_lhs(outer, inverse, b))
    return lhs, rhs


def bound_L_const_b(astar: SymTensor, bsharp: SymTensor, pa: PhaseA, b: float) -> tuple:
    """Constant-density lower trace bound (core a1 saturates it); feasible pairs have lhs <= rhs."""
    return _bound_const_b(astar, bsharp, pa, b, "L_const_b")


def bound_U_const_b(astar: SymTensor, bsharp: SymTensor, pa: PhaseA, b: float) -> tuple:
    """Constant-density upper trace bound (core a2 saturates it); feasible pairs have lhs <= rhs."""
    return _bound_const_b(astar, bsharp, pa, b, "U_const_b")


def _lhs(name: str, astar: SymTensor, bsharp: SymTensor, pa: PhaseA, pb: PhaseB, theta=None) -> float:
    """The lhs of the two-phase trace bound `name` on one pair, L2 and U2 at theta: L1's or U1's the stacked pass of pair_memberships kept, else _TRACE_LHS of this pair."""
    record = _inputs(astar, bsharp, pa, pb.b1, pb.b2)
    lhs = record.sides.get(name)
    if lhs is None:
        lam = np.array(eig(astar).values)
        if theta is None:
            factor = positive_spectrum(lam - pa.a1) ** 2  # raises SingularFactor
        else:
            factor = _flux_ratio(lam, *_flux_terms(pa, theta)) ** -2
        lhs = float(_TRACE_LHS[name](lam, record.beta, factor, _LHS_TERM[name](pa, pb)))
    return lhs


def bound_L1(astar: SymTensor, bsharp: SymTensor, pa: PhaseA, pb: PhaseB) -> tuple:
    """Lower bound on the region thetaA <= thetaB, eliminated form.

    lhs = tr (B# - b1 I)(A* - a1 I)^-2 >= rhs; equality picks out nested
    microstructures (the A-set inside the B-set).
    """
    n = astar.dim
    lhs = _lhs("L1", astar, bsharp, pa, pb)
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
    lhs = _lhs("U1", astar, bsharp, pa, pb)
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


def _flux_terms(pa: PhaseA, theta: float) -> tuple:
    """(1/a2, theta (a2-a1)/(a1 a2)), floats: the phase terms of _flux_ratio at the upper-boundary fraction theta."""
    return 1.0 / pa.a2, theta * (pa.a2 - pa.a1) / (pa.a1 * pa.a2)


def _flux_ratio(lam, inverse_a2, scale):
    """(1/lam - 1/a2) / (theta (a2-a1)/(a1 a2)) for eigenvalues lam of A*, from its _flux_terms.

    The flux-side resolvent of A* relative to that of the upper-boundary
    tensor of fraction theta; its inverse square weights L2 and U2.  The
    terms may be columns, one entry per row of a stack lam.
    """
    return (1.0 / lam - inverse_a2) / scale


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


def _u2_lead(pa: PhaseA, pb: PhaseB) -> float:
    """b2 a2 / a1^2, the lead of u2_terms."""
    return pb.b2 * pa.a2 / pa.a1**2


# The phase term each two-phase trace bound's lhs reads (see _TRACE_LHS).
_LHS_TERM = {"L1": lambda pa, pb: pb.b1, "U1": lambda pa, pb: pb.b2 / pa.a1, "L2": flux_floor, "U2": _u2_lead}


def u2_terms(pa: PhaseA, pb: PhaseB, theta: float) -> tuple:
    """(lead, level, osc) of the step form of U2 at the upper-boundary fraction theta.

    Along a lamination direction of weight w the saturating flux-side
    density falls short of lead/lambda by (level - osc (1 - w)) times the
    squared flux ratio; summed over N directions this is N level - (N-1) osc.
    """
    d = pa.a2 - pa.a1
    lead = _u2_lead(pa, pb)
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
    _, level, osc = l2_terms(pa, pb, theta)
    lhs = _lhs("L2", astar, bsharp, pa, pb, theta)
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
    _, level, osc = u2_terms(pa, pb, theta)
    lhs = _lhs("U2", astar, bsharp, pa, pb, theta)
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
    _verdict_inputs([(astar, bsharp, pa, pb.b1, pb.b2) for astar, bsharp, pa, pb in pairs], [pair[3] for pair in pairs])
    return [pair_membership(*pair, tol) for pair in pairs]


def _gradient_terms(pa: PhaseA, pb: PhaseB, theta) -> tuple:
    """The phase terms of gradient_extremes at a fraction theta, or at each entry of a column of them.

    (a1, (arith - a1)^2, theta (1-theta) (a2-a1)^2/a1^2, b1, mean(b) - b1,
    b2, b2 - mean(b)).  At a float theta every term is a Python float, so a
    division by zero among them raises.  The square is Python's pow, entry
    by entry for a column: numpy's array square can differ from it by an ulp.
    """
    _, arith = phase_means(pa.a1, pa.a2, theta)
    span = arith - pa.a1
    span2 = span**2 if np.ndim(span) == 0 else np.reshape([x**2 for x in np.ravel(span).tolist()], np.shape(span))
    weight = theta * (1.0 - theta) * (pa.a2 - pa.a1) ** 2 / pa.a1**2
    mean = pb.mean
    return pa.a1, span2, weight, pb.b1, mean - pb.b1, pb.b2, pb.b2 - mean


def _gradient_rows(lam, m, terms) -> tuple:
    """gradient_extremes from its _gradient_terms, which may be (K, 1) columns, one entry per row of the stacks lam and m."""
    a1, span2, weight, b1, nested_gap, b2, disjoint_gap = terms
    ratio = (lam - a1) ** 2 / span2
    osc = weight * m
    return b1 + (nested_gap + b1 * osc) * ratio, b2 - (disjoint_gap - b2 * osc) * ratio


def gradient_extremes(lam, m, pa: PhaseA, pb: PhaseB, theta) -> tuple:
    """L1- and U1-saturating eigenvalues of B# over a lower-boundary A*.

    lam are the eigenvalues of A* on the lower boundary of fraction theta and
    m the lamination weights along its eigenvectors.  Returns (nested,
    disjoint): B# of the A-set inside the B-set and of disjoint sets.  For a
    stack of tensors, lam and m hold one row and theta one column entry per
    tensor.
    """
    return _gradient_rows(lam, m, _gradient_terms(pa, pb, theta))


def fibre_extremes_stack(astars, pa: PhaseA, pb: PhaseB, tol: float = DEFAULT_TOL) -> tuple:
    """fibre_extremes_l1u1 of a nonempty sequence of tensors of one dimension, evaluated over the whole stack.

    Returns (low, high), arrays of shape (K, N, N) holding the matrices that
    fibre_extremes_l1u1 returns one tensor at a time, bit for bit.  One
    LAPACK call decomposes every tensor not decomposed before.
    """
    theta = thetas_from_lower_boundary(astars, pa, tol)
    n = astars[0].dim
    low = np.empty((len(astars), n, n))
    low[:] = pb.mean * np.eye(n)  # b_mean I wherever theta <= _DEGENERATE_THETA
    high = low.copy()
    live = theta > _DEGENERATE_THETA
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
    base, _, _, sign = core_side(pa, "a1" if side == "lower" else "a2")
    form = a  # a homogeneous base medium (see homogeneous_value), where the correction vanishes
    if homogeneous_value(pa) != base:
        shift = a - base * np.eye(astar.dim)
        form = a + shift @ shift / (sign * (arith - base))
    form = (float(b) / base) * form
    return float(v @ form @ v), form
