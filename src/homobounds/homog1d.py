"""Exact one-dimensional laboratory.

Periodic piecewise-constant profiles on the unit interval carry joint
indicator data for the two phase sets.  Every weak* limit, the relative
limit b#, and the two-point boundary-value solution are computed exactly
on piecewise-polynomial representations, so convergence studies measure
homogenization error only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # gclosure and pairbounds build on the means defined here
    from .gclosure import PhaseA
    from .pairbounds import PhaseB

_SUM_TOL = 1e-14


class TargetOutsideInterval(ValueError):
    pass


@dataclass(frozen=True)
class Profile1D:
    """Unit cell of (length fraction, inA, inB) triples, repeated n times."""

    cells: tuple  # ((frac, inA, inB), ...)
    period_count: int = 1

    def __post_init__(self):
        # from lists: a tuple(<generator>) is resized and, freed, strands on a free list
        cells = tuple([(float(f), bool(a), bool(b)) for f, a, b in self.cells])
        object.__setattr__(self, "cells", cells)
        if self.period_count < 1:
            raise ValueError("period_count must be >= 1")
        if not all(f > 0 for f, _, _ in cells):  # also rejects NaN
            raise ValueError("cell fractions must be positive")
        if abs(sum(f for f, _, _ in cells) - 1.0) > _SUM_TOL:
            raise ValueError("cell fractions must sum to 1")

    def to_json(self) -> str:
        return json.dumps(
            {
                "cells": [{"len": f, "inA": a, "inB": b} for f, a, b in self.cells],
                "periods": self.period_count,
            }
        )

    @staticmethod
    def from_json(text: str) -> "Profile1D":
        """Profile from its wire format; a value of the wrong JSON type raises ValueError.

        `len` is a number, `inA` and `inB` are booleans and `periods` is an
        integer.  The types are checked here because the constructor's
        bool() and float() would turn "no" into True and true into 1.0.
        """
        data = json.loads(text)
        try:
            cells = [(c["len"], c["inA"], c["inB"]) for c in data["cells"]]
            periods = data["periods"]
        except TypeError as exc:  # a JSON value of the wrong type somewhere in the document
            raise ValueError(f"malformed profile, see the Profile wire format: {exc}") from exc
        except KeyError as exc:  # a key missing from the document or from one of its cells
            raise ValueError(f"malformed profile, see the Profile wire format: missing key {exc.args[0]!r}") from exc
        for length, in_a, in_b in cells:
            if isinstance(length, bool) or not isinstance(length, (int, float)):
                raise ValueError(f"a profile cell's len is a number, got {length!r}")
            if not (isinstance(in_a, bool) and isinstance(in_b, bool)):
                raise ValueError(f"a profile cell's inA and inB are true or false, got {in_a!r}, {in_b!r}")
        if isinstance(periods, bool) or not isinstance(periods, int):
            raise ValueError(f"profile periods is an integer >= 1, got {periods!r}")
        return Profile1D(cells, periods)

    @staticmethod
    def from_fractions(thetaA: float, thetaB: float, thetaAB: float) -> "Profile1D":
        """One-period profile realizing given phase fractions and overlap (up to 4 cells)."""
        pieces = [
            (thetaAB, True, True),
            (thetaA - thetaAB, True, False),
            (thetaB - thetaAB, False, True),
            (1.0 - thetaA - thetaB + thetaAB, False, False),
        ]
        cells = [(f, a, b) for f, a, b in pieces if f > _SUM_TOL]
        if not cells:
            raise ValueError("degenerate fractions")
        # renormalize against float drift so the unit-sum invariant is exact
        total = sum(f for f, _, _ in cells)
        return Profile1D([(f / total, a, b) for f, a, b in cells])


@dataclass(frozen=True)
class Source1D:
    """Piecewise-constant right-hand side on [0, 1]."""

    breakpoints: tuple = (0.0, 1.0)
    values: tuple = (1.0,)

    def __post_init__(self):
        bp = tuple([float(x) for x in self.breakpoints])  # from lists, as in Profile1D
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", tuple([float(v) for v in self.values]))
        # a NaN breakpoint would pass both order tests below, and solve_state_exact would return NaN
        for field in ("breakpoints", "values"):
            if not np.isfinite(getattr(self, field)).all():
                raise ValueError(f"Source1D {field} must be finite, got {getattr(self, field)}")
        if len(bp) != len(self.values) + 1 or bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must span [0, 1] with one value per piece")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must increase")

    @staticmethod
    def constant(value: float) -> "Source1D":
        return Source1D((0.0, 1.0), (value,))


def _cell_coefficients(profile: Profile1D, pa: PhaseA, pb: PhaseB):
    a = np.array([pa.a1 if in_a else pa.a2 for _, in_a, _ in profile.cells])
    b = np.array([pb.b1 if in_b else pb.b2 for _, _, in_b in profile.cells])
    f = np.array([f for f, _, _ in profile.cells])
    return f, a, b


def weakstar_limits(profile: Profile1D, pa: PhaseA, pb: PhaseB) -> tuple:
    """Exact cell-weighted limits; independent of the period count.

    Returns (thetaA, thetaB, thetaAB, harmonic a, mean b, lim b/a^2, lim b/a).
    """
    f, a, b = _cell_coefficients(profile, pa, pb)
    theta_a = float(sum(fi for fi, in_a, _ in profile.cells if in_a))
    theta_b = float(sum(fi for fi, _, in_b in profile.cells if in_b))
    theta_ab = float(sum(fi for fi, in_a, in_b in profile.cells if in_a and in_b))
    a_harm = float(1.0 / np.sum(f / a))
    b_mean = float(np.sum(f * b))
    lim_ba2 = float(np.sum(f * b / a**2))
    lim_ba = float(np.sum(f * b / a))
    return theta_a, theta_b, theta_ab, a_harm, b_mean, lim_ba2, lim_ba


def phase_means(a1, a2, theta) -> tuple:
    """(harmonic, arithmetic) means of a1 at fraction theta and a2 at 1 - theta.

    They are the exact limits of a layered medium across and along its
    layers.  theta may be an array.
    """
    return 1.0 / (theta / a1 + (1.0 - theta) / a2), a1 * theta + a2 * (1.0 - theta)


def overlap_window(pa: PhaseA, pb: PhaseB) -> tuple:
    """Admissible range of the overlap fraction of the two phase sets."""
    return max(0.0, pa.thetaA + pb.thetaB - 1.0), min(pa.thetaA, pb.thetaB)


def lim_b_over_a(pa: PhaseA, pb: PhaseB, thetaA, thetaB, thetaAB):
    """The weak* limit lim* b/a^2 of a layered medium.

    The phase values come from pa and pb; the fractions of a1, of b1 and of
    their overlap are given explicitly and may be arrays (one per cell).
    The limit is affine in each fraction and falls with the overlap.  It is
    summed over the four cells (a1 or a2, b1 or b2), each fraction times
    b_i / a_j^2: every term is nonnegative, so nothing cancels.
    """
    return (
        thetaAB * pb.b1 / pa.a1**2
        + (thetaA - thetaAB) * pb.b2 / pa.a1**2
        + (thetaB - thetaAB) * pb.b1 / pa.a2**2
        + (1.0 - thetaA - thetaB + thetaAB) * pb.b2 / pa.a2**2
    )


def relative_limit_1d(pa: PhaseA, pb: PhaseB, thetaA, thetaB, thetaAB):
    """b# = harm(a)^2 lim* b/a^2 of a layered medium."""
    harm, _ = phase_means(pa.a1, pa.a2, thetaA)
    return harm**2 * lim_b_over_a(pa, pb, thetaA, thetaB, thetaAB)


def bsharp_1d(pa: PhaseA, pb: PhaseB, thetaAB: float) -> float:
    """Relative limit b# = (harmonic a)^2 lim* b/a^2 as a function of overlap."""
    return float(relative_limit_1d(pa, pb, pa.thetaA, pb.thetaB, thetaAB))


def bounds_1d(pa: PhaseA, pb: PhaseB) -> tuple:
    """The four one-dimensional bounds and the optimal pair (l_#, u_#).

    Returns (l1, l2, u1, u2, l_sel, u_sel).  The four bounds are b# at the
    overlaps of the four inclusion relations: thetaA (A in B), thetaB
    (B in A), 0 (disjoint) and thetaA + thetaB - 1 (complements disjoint).
    The selected bounds use the overlap extremes admissible for the given
    fractions; b# fills exactly [l_sel, u_sel] as the microstructure varies.
    """
    lo, hi = overlap_window(pa, pb)
    overlaps = (pa.thetaA, pb.thetaB, 0.0, pa.thetaA + pb.thetaB - 1.0, hi, lo)
    return tuple([bsharp_1d(pa, pb, t) for t in overlaps])  # from a list, as in Profile1D


def invert_theta_ab(pa: PhaseA, pb: PhaseB, target: float) -> tuple:
    """Overlap fraction and a realizing one-period profile for a target b#.

    b# is affine decreasing in the overlap, so the inversion is a single
    division; the profile lays the four indicator combinations out in one
    unit cell.
    """
    *_, l_sel, u_sel = bounds_1d(pa, pb)
    lo, hi = overlap_window(pa, pb)
    slack = 1e-12 * max(1.0, abs(target))
    if not (min(l_sel, u_sel) - slack <= target <= max(l_sel, u_sel) + slack):
        raise TargetOutsideInterval(f"target {target} outside [{l_sel}, {u_sel}]")
    at_zero = bsharp_1d(pa, pb, 0.0)
    coeff = at_zero - bsharp_1d(pa, pb, 1.0)  # drop of b# per unit overlap
    if abs(coeff) < 1e-300:
        theta_ab = 0.5 * (lo + hi)  # b# independent of the overlap
    else:
        theta_ab = (at_zero - target) / coeff
        theta_ab = min(max(theta_ab, lo), hi)
    profile = Profile1D.from_fractions(pa.thetaA, pb.thetaB, theta_ab)
    return float(theta_ab), profile


@dataclass(frozen=True)
class State1D:
    """Exact solution of the two-point problem on one profile."""

    breakpoints: np.ndarray  # merged cell and source breakpoints
    a: np.ndarray  # conductivity per segment
    b: np.ndarray  # density per segment
    sigma_const: float  # sigma(x) = sigma_const - F(x)
    f_at_breaks: np.ndarray  # F at breakpoints (F piecewise linear)
    f_values: np.ndarray  # source value per segment
    z_adjoint: float  # constant adjoint flux a p' - b u'
    energyB: float  # integral of b (u')^2
    fluxB: float  # integral of b u'
    dirichlet_energy: float  # integral of (u')^2

    def u(self, x):
        """Evaluate u at points x (piecewise quadratic, u(0) = u(1) = 0); a float for scalar x.

        Outside [0, 1] the end segments extend, as in u_prime, and NaN gives NaN.
        """
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        c, a, f0, fv = self.sigma_const, self.a, self.f_at_breaks, self.f_values
        h = np.diff(self.breakpoints)
        h2 = np.array([w**2 for w in h.tolist()])  # scalar pow: numpy's array square can differ by an ulp
        # u at each segment's left end: the running sum of the segment increments
        left = np.concatenate([[0.0], np.cumsum((c - f0) * h / a - fv * h2 / (2 * a))[:-1]])
        idx = np.clip(np.searchsorted(self.breakpoints, x, side="right") - 1, 0, len(a) - 1)
        t = x - self.breakpoints[idx]
        out = left[idx] + (c - f0[idx]) * t / a[idx] - fv[idx] * t**2 / (2 * a[idx])
        return float(out[0]) if scalar else out

    def u_prime(self, x):
        """Evaluate u' = (sigma_const - F)/a at points x; a float for scalar x."""
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        idx = np.clip(np.searchsorted(self.breakpoints, x, side="right") - 1, 0, len(self.a) - 1)
        f_here = self.f_at_breaks[idx] + self.f_values[idx] * (x - self.breakpoints[idx])
        out = (self.sigma_const - f_here) / self.a[idx]
        return float(out[0]) if scalar else out


def _expand_profile(profile: Profile1D, pa: PhaseA, pb: PhaseB):
    """Breakpoints and per-segment coefficients over [0, 1] with n periods."""
    n = profile.period_count
    fracs, a_cell, b_cell = _cell_coefficients(profile, pa, pb)
    cell_edges = np.concatenate([[0.0], np.cumsum(fracs)])
    cell_edges[-1] = 1.0
    breaks = np.concatenate([[0.0], ((np.arange(n)[:, None] + cell_edges[1:]) / n).ravel()])
    # one row per period, filled by broadcasting; np.tile builds its shape tuples from generators
    a, b = np.empty((n, len(fracs))), np.empty((n, len(fracs)))
    a[:], b[:] = a_cell, b_cell
    return breaks, a.ravel(), b.ravel()


def solve_segments(breaks: np.ndarray, a: np.ndarray, b: np.ndarray, source: Source1D) -> State1D:
    """Exact Dirichlet solve of -(a u')' = f with the adjoint flux.

    a and b are constant on each segment of breaks, which the source
    breakpoints refine.  The flux sigma = c - F is piecewise linear with c
    fixed by the zero-mean condition on u' = sigma/a; all integrals (energy,
    flux, adjoint constant) are evaluated in closed form segment by segment.
    """
    source_breaks = np.array(source.breakpoints)
    merged = np.unique(np.concatenate([breaks, source_breaks]))
    # the segment and the source piece holding each segment's left end
    left = merged[:-1]
    seg = np.minimum(np.maximum(np.searchsorted(breaks, left, side="right") - 1, 0), len(a) - 1)
    s_idx = np.minimum(np.maximum(source_breaks.searchsorted(left, side="right") - 1, 0), len(source.values) - 1)
    a = a[seg]
    b = b[seg]
    fv = np.array(source.values)[s_idx]
    h = merged[1:] - merged[:-1]

    # F at breakpoints: cumulative integral of f
    f_breaks = np.concatenate([[0.0], np.cumsum(fv * h)])[:-1]

    # c from int sigma/a = 0:  c int 1/a = int F/a ; F linear per segment
    int_inv_a = np.add.reduce(h / a)
    int_f_over_a = np.add.reduce((f_breaks * h + fv * h**2 / 2.0) / a)
    c = float(int_f_over_a / int_inv_a)

    # segmentwise integrals of sigma and sigma^2 with sigma = (c - f0) - fv t
    s0 = c - f_breaks
    int_sigma = s0 * h - fv * h**2 / 2.0
    int_sigma2 = s0**2 * h - s0 * fv * h**2 + fv**2 * h**3 / 3.0

    energy_b = float(np.add.reduce(b / a**2 * int_sigma2))
    flux_b = float(np.add.reduce(b / a * int_sigma))
    dirichlet = float(np.add.reduce(int_sigma2 / a**2))
    # adjoint: p' = z/a + (b/a^2) sigma with int p' = 0
    z = float(-np.add.reduce(b / a**2 * int_sigma) / int_inv_a)

    return State1D(
        breakpoints=merged,
        a=a,
        b=b,
        sigma_const=c,
        f_at_breaks=f_breaks,
        f_values=fv,
        z_adjoint=z,
        energyB=energy_b,
        fluxB=flux_b,
        dirichlet_energy=dirichlet,
    )


def solve_state_exact(profile: Profile1D, pa: PhaseA, pb: PhaseB, source: Source1D) -> State1D:
    """Exact solve of -(a u')' = f on a profile, with the adjoint flux."""
    return solve_segments(*_expand_profile(profile, pa, pb), source)


def homogenized_dirichlet(a_harm: float, source: Source1D) -> float:
    """Dirichlet integral of the state with the constant coefficient a_harm."""
    return solve_segments(np.array([0.0, 1.0]), np.array([a_harm]), np.ones(1), source).dirichlet_energy


def homogenized_energy(profile: Profile1D, pa: PhaseA, pb: PhaseB, source: Source1D) -> float:
    """Limit energy: b# times the Dirichlet integral of the a-harmonic state."""
    _, _, _, a_harm, _, lim_ba2, _ = weakstar_limits(profile, pa, pb)
    bsh = a_harm**2 * lim_ba2
    return float(bsh * homogenized_dirichlet(a_harm, source))


def convergence_study(profile: Profile1D, pa: PhaseA, pb: PhaseB, source: Source1D, period_counts) -> list:
    """Energy error against the homogenized limit for increasing resolution.

    Returns rows (period_count, epsilon, energy, |energy - limit|, relative).
    """
    target = homogenized_energy(profile, pa, pb, source)
    rows = []
    for n in period_counts:
        state = solve_state_exact(Profile1D(profile.cells, int(n)), pa, pb, source)
        err = abs(state.energyB - target)
        rel = err / abs(target) if target else 0.0
        rows.append((int(n), 1.0 / int(n), state.energyB, err, rel))
    return rows
