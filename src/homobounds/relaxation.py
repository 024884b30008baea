"""Desk-scale relaxed design problems on the unit interval.

The classical problems place one or two phase sets by characteristic
functions and minimize a Dirichlet or weighted energy; they have no
minimizers.  Their relaxations replace indicators by volume-fraction fields
and the integrand by its optimal microstructural value: the relative-limit
integrand i# for the single-set problem, and the region-dependent lower
bound l_# for the oscillation-dissipation problem.  Exhaustive enumeration
over small grids provides the independent classical oracle.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import comb

import numpy as np

from .gclosure import PhaseA
from .homog1d import (
    Profile1D,
    Source1D,
    homogenized_dirichlet,
    phase_means,
    relative_limit_1d,
    solve_segments,
    solve_state_exact,
)
from .pairbounds import PhaseB

_MEAN_TOL = 1e-12
_BLOCK_ELEMENTS = 1 << 14  # array entries per block of placements in _pattern_minimum


class TooLarge(ValueError):
    pass


@dataclass(frozen=True)
class DesignField1D:
    """Piecewise-constant fraction field on a uniform grid over [0, 1]."""

    values: tuple
    volume_target: float = None

    def __post_init__(self):
        # from a list: a tuple(<generator>) is resized and, freed, strands on a free list
        vals = tuple([float(v) for v in self.values])
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValueError("field needs at least one cell")
        bad = [v for v in vals if not 0.0 <= v <= 1.0]  # NaN fails both comparisons
        if bad:
            raise ValueError(f"DesignField1D values must be fractions in [0, 1], got {bad[0]}")
        if self.volume_target is not None:
            if not np.isfinite(self.volume_target):
                raise ValueError(f"DesignField1D volume_target must be finite, got {self.volume_target}")
            mean = sum(vals) / len(vals)
            if abs(mean - self.volume_target) > _MEAN_TOL:
                raise ValueError(
                    f"grid mean {mean} misses the volume target {self.volume_target}"
                )

    @staticmethod
    def constant(value: float, cells: int = 1) -> "DesignField1D":
        return DesignField1D((value,) * cells, value)


@dataclass(frozen=True)
class RelaxedValue:
    value: float
    integrand: tuple  # optimal pointwise coefficient per cell
    regions: tuple  # per-cell microstructure family label


def odp_relaxed_value_1d(theta: DesignField1D, pa: PhaseA, source: Source1D) -> float:
    """Relaxed single-set design value: integral of i#(theta) (u')^2.

    In one dimension the optimal integrand is exact: i# is the relative
    limit b# of the constant density 1,
        i#(t) = harm(t)^2 (t/a1^2 + (1-t)/a2^2),
    and the state solves with the harmonic-mean coefficient cell by cell.
    This is the two-set relaxed value at the constant density 1.
    """
    empty = DesignField1D.constant(0.0, len(theta.values))
    return oodp_relaxed_value_1d(theta, empty, pa, PhaseB(1.0, 1.0, 0.0), source).value


def classical_pattern_value(
    maskA, maskB, pa: PhaseA, pb: PhaseB, source: Source1D, periods: int = 1
) -> float:
    """Finite-scale energy of one unit-cell pattern repeated `periods` times.

    maskA/maskB mark the cells carrying a1/b1; the weighted energy
    integral b (u')^2 is evaluated exactly.  As periods grows the value
    approaches the pattern's homogenization limit.
    """
    n = len(maskA)
    cells = [(1.0 / n, bool(a), bool(b)) for a, b in zip(maskA, maskB)]
    state = solve_state_exact(Profile1D(cells, periods), pa, pb, source)
    return state.energyB


def _placements(cells: int, ones: int, rows: int):
    """Boolean masks of every placement of `ones` marked cells, `rows` at a time, in itertools.combinations order.

    Each block is decoded from its ranks in the combinatorial number system.
    Mirrored (cell c to cells-1-c), the placement of lexicographic rank r
    among the total is the one of colexicographic rank total-1-r, whose
    largest marked cell is the largest y with comb(y, ones) <= that rank;
    the rest of the rank decodes the remaining cells the same way.  Past
    half the cells a placement is the complement of the placement of the
    unmarked cells at the reversed rank, which takes fewer steps.
    """
    flip = 2 * ones > cells
    # one row comb(y, i) over y < cells per decoding step, i from the marked count down to 1
    steps = [np.array([comb(y, i) for y in range(cells)]) for i in range(cells - ones if flip else ones, 0, -1)]
    total = comb(cells, ones)
    for start in range(0, total, rows):
        stop = min(start + rows, total)
        rank = np.arange(start, stop) if flip else np.arange(total - 1 - start, total - 1 - stop, -1)
        marked = np.zeros((stop - start, cells), dtype=bool)
        flat, last = marked.reshape(-1), np.arange(cells - 1, marked.size, cells)  # each row's last cell
        for table in steps:
            y = table.searchsorted(rank, side="right") - 1
            rank -= table[y]
            flat[last - y] = True
        yield ~marked if flip else marked


def _pattern_minimum(
    cells: int, onesA: int, onesB: int, pa: PhaseA, pb: PhaseB, source: Source1D
) -> tuple:
    """Least homogenized energy over periodic (A, B) pattern pairs on a uniform unit cell.

    A pattern's limit energy is lim* b/a^2 times harm^2 times the Dirichlet
    integral of the harmonic-mean state, with
        lim* b/a^2 = b2 <1/a^2> - (b2 - b1) <chi_B/a^2>,
    so for each A-placement the best B-placement covers the largest sum of
    1/a^2, found in one product with the table of B-masks; with no B-cells
    that sum is 0 and the product is skipped.

    The two values 1/a1^2 and 1/a2^2 are powered once, as one numpy array,
    and each cell picks its own: that gives the bits of powering every
    cell, whereas Python's scalar pow differs from numpy's array power in
    the last bit for about 5% of arguments.  A-placements stream
    in blocks of about _BLOCK_ELEMENTS / cells, and each block's product
    runs in slices of about _BLOCK_ELEMENTS / max(B-masks, cells)
    placements, so memory stays bounded.  The product stays one
    matrix-vector product (gemv) per A-placement, which makes each value
    bit-identical to scoring that placement alone, whatever the blocks: one
    matrix-matrix product (gemm) over a slice sums in another order and
    differs in the last bits in about a third of the entries, and picking
    the onesB largest 1/a^2 by a sort rounds differently again.  A later
    A-placement replaces the best one only when it is lower by more than
    1e-15, so near-ties keep the lexicographically first.  Returns
    (min value, argmin A-mask).
    """
    if not (cells >= 1 and 0 <= onesA <= cells and 0 <= onesB <= cells):
        raise ValueError(f"need cells >= 1 and 0 <= onesA, onesB <= cells, got {cells}, {onesA}, {onesB}")
    harm, _ = phase_means(pa.a1, pa.a2, onesA / cells)
    dirichlet = homogenized_dirichlet(harm, source)
    inv_sq1, inv_sq2 = np.array([pa.a1, pa.a2]) ** -2.0
    count = comb(cells, onesB)
    b_masks = next(_placements(cells, onesB, count)).astype(float) if onesB else None
    block = max(1, _BLOCK_ELEMENTS // max(count, cells))
    best_val, best_mask = np.inf, None
    for masks in _placements(cells, onesA, max(1, _BLOCK_ELEMENTS // cells)):
        inv_a2 = np.where(masks, inv_sq1, inv_sq2)
        lim = pb.b2 * inv_a2.sum(axis=1) / cells
        if onesB:
            covered = np.concatenate(
                [np.max(b_masks @ inv_a2[i : i + block, :, None], axis=(1, 2)) for i in range(0, len(masks), block)]
            )
            lim = lim - (pb.b2 - pb.b1) * covered / cells
        values = lim * harm**2 * dirichlet
        for i in np.flatnonzero(values < best_val - 1e-15):
            if values[i] < best_val - 1e-15:
                best_val, best_mask = float(values[i]), masks[i]
    return best_val, tuple(best_mask.tolist())


def odp_bruteforce_1d(cells: int, onesA: int, pa: PhaseA, source: Source1D) -> tuple:
    """Exhaustive minimum over periodic unit-cell patterns, homogenized.

    Each placement of the a1-phase on onesA of the uniform cells defines a
    periodic microstructure; its limiting energy is the exact relaxed
    integrand times the Dirichlet integral of the harmonic-mean state.  For
    a single phase set the limit is arrangement-independent, so enumeration
    certifies that no pattern beats the relaxed value at matching fraction.
    This is the two-set enumeration at the constant density 1.
    Returns (min value, argmin mask).
    """
    if cells > 20:
        raise TooLarge("enumeration is capped at 20 cells")
    return _pattern_minimum(cells, onesA, 0, pa, PhaseB(1.0, 1.0, 0.0), source)


def oodp_relaxed_value_1d(
    thetaA: DesignField1D, thetaB: DesignField1D, pa: PhaseA, pb: PhaseB, source: Source1D
) -> RelaxedValue:
    """Relaxed oscillation-dissipation value with per-cell minimizing family.

    The optimal relative limit is the selected one-dimensional lower bound
    l_#, b# of the nested family (the smaller set inside the larger one);
    the nesting direction switches across the interface {thetaA = thetaB}.
    """
    ta, tb = np.array(thetaA.values), np.array(thetaB.values)
    if len(ta) != len(tb):
        raise ValueError("fields must share the grid")
    harm, _ = phase_means(pa.a1, pa.a2, ta)
    lsh = relative_limit_1d(pa, pb, ta, tb, np.minimum(ta, tb))
    # from lists, as in DesignField1D
    labels = tuple(["A_subset_B" if flag else "B_subset_A" for flag in ta <= tb])
    state = solve_segments(np.linspace(0.0, 1.0, len(ta) + 1), harm, lsh, source)
    return RelaxedValue(state.energyB, tuple(lsh.tolist()), labels)


_PAIR_CAP = 2_000_000  # the most (A-placement, B-placement) pairs oodp_bruteforce_1d enumerates


def _comb_past(n: int, k: int, cap: int) -> int:
    """comb(n, k), or cap + 1 once the count passes cap: counted term by term, it stops there.

    A negative or non-integer argument is refused as comb refuses it.
    """
    n, k = operator.index(n), operator.index(k)
    if n < 0 or not 0 <= k <= n:
        return comb(n, k)  # 0 for k > n, else comb's ValueError
    count = 1
    for j in range(min(k, n - k)):
        count = count * (n - j) // (j + 1)  # comb(n, j + 1), an integer at every step
        if count > cap:
            return cap + 1
    return count


def oodp_bruteforce_1d(
    cells: int, onesA: int, onesB: int, pa: PhaseA, pb: PhaseB, source: Source1D
) -> float:
    """Exhaustive minimum over periodic pattern pairs, homogenized.

    Every (A-placement, B-placement) pair on the uniform unit cell defines a
    periodic two-set microstructure whose limiting energy is the relative
    limit b# of the pattern times the harmonic-mean Dirichlet integral.  The
    minimum over all pairs realizes the maximal-overlap (nested) patterns
    and equals the relaxed value at matching constant fractions, which is
    what the enumeration certifies.
    """
    if _comb_past(cells, onesA, _PAIR_CAP) * _comb_past(cells, onesB, _PAIR_CAP) > _PAIR_CAP:
        raise TooLarge("pair enumeration is capped at 2e6 combinations")
    return _pattern_minimum(cells, onesA, onesB, pa, pb, source)[0]

