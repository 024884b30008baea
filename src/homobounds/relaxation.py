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

from dataclasses import dataclass
from itertools import chain, combinations, islice
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
_BLOCK_ELEMENTS = 1 << 14  # array entries per block of A-placements in _pattern_minimum


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
        if any(v < 0.0 or v > 1.0 for v in vals):
            raise ValueError("fractions must lie in [0, 1]")
        if self.volume_target is not None:
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


def _masks(cells: int, ones: int, placements, count: int) -> np.ndarray:
    """Boolean masks, one row per placement, for the next `count` placements."""
    picked = np.fromiter(chain.from_iterable(islice(placements, count)), int, count * ones)
    masks = np.zeros((count, cells), dtype=bool)
    masks[np.arange(count)[:, None], picked.reshape(count, ones)] = True
    return masks


def _pattern_minimum(
    cells: int, onesA: int, onesB: int, pa: PhaseA, pb: PhaseB, source: Source1D
) -> tuple:
    """Least homogenized energy over periodic (A, B) pattern pairs on a uniform unit cell.

    A pattern's limit energy is lim* b/a^2 times harm^2 times the Dirichlet
    integral of the harmonic-mean state, with
        lim* b/a^2 = b2 <1/a^2> - (b2 - b1) <chi_B/a^2>,
    so for each A-placement the best B-placement covers the largest sum of
    1/a^2, found in one product with the table of B-masks.  A-placements are
    scored in blocks of about _BLOCK_ELEMENTS / max(B-masks, cells); the
    stacked product runs one matrix-vector product per A-placement, so each
    value is bit-identical to scoring that placement alone.  A later
    A-placement replaces the best one only when it is lower by more than
    1e-15, so near-ties keep the lexicographically first.  Returns
    (min value, argmin A-mask).
    """
    if not (cells >= 1 and 0 <= onesA <= cells and 0 <= onesB <= cells):
        raise ValueError(f"need cells >= 1 and 0 <= onesA, onesB <= cells, got {cells}, {onesA}, {onesB}")
    harm, _ = phase_means(pa.a1, pa.a2, onesA / cells)
    dirichlet = homogenized_dirichlet(harm, source)
    count = comb(cells, onesB)
    b_masks = _masks(cells, onesB, combinations(range(cells), onesB), count).astype(float)
    total, block = comb(cells, onesA), max(1, _BLOCK_ELEMENTS // max(count, cells))
    placements = combinations(range(cells), onesA)
    best_val, best_mask = np.inf, None
    for start in range(0, total, block):
        masks = _masks(cells, onesA, placements, min(block, total - start))
        inv_a2 = np.where(masks, pa.a1, pa.a2) ** -2.0
        covered = np.max(b_masks @ inv_a2[:, :, None], axis=(1, 2))
        lim = pb.b2 * inv_a2.sum(axis=1) / cells - (pb.b2 - pb.b1) * covered / cells
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
    if comb(cells, onesA) * comb(cells, onesB) > 2_000_000:
        raise TooLarge("pair enumeration is capped at 2e6 combinations")
    return _pattern_minimum(cells, onesA, onesB, pa, pb, source)[0]


def h_monotonicity_check(pa: PhaseA, grid: int = 100) -> dict:
    """Monotonicity of the relaxed integrand map along horizontal segments.

    For N = 2 the scalar component of h(A*) restricted to a segment with
    lambda2 fixed has derivative (2 lambda1 - a2 - abar)/(a2 (a2 - abar)),
    negative throughout the admissible range lambda1 <= abar < a2.  Checked
    on a grid over (thetaA, lambda1).
    """
    harm, abar = phase_means(pa.a1, pa.a2, np.linspace(0.01, 0.99, grid))
    lam1 = np.linspace(harm, abar, grid)  # one column per theta
    deriv = (2.0 * lam1 - pa.a2 - abar) / (pa.a2 * (pa.a2 - abar))
    worst = float(np.max(deriv, initial=-np.inf))
    return {"grid_points": deriv.size, "max_derivative": worst, "monotone": bool(worst <= 1e-12)}
