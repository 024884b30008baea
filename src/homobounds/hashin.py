"""Coated-sphere (Hashin-Shtrikman) constructions.

Space-filling coated spheres give explicit isotropic effective tensors m I;
assigning cores and inclusion relations to the two phase sets gives six
closed-form values of the scalar relative limit b#.  The two constant-density
ones saturate the constant-density bounds; of the four two-phase ones,
A_in_B attains L1, A_in_Bc attains U1, B_in_A attains L2 in case a only,
and Ac_in_B attains neither form of U2.  An independent radial quadrature of
the energy integral over a single coated sphere cross-checks every closed
form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gclosure import PhaseA, core_side
from .pairbounds import RELATIONS, admits

# the inclusion relation of each (coreA, coreB, inclusion) a two-phase coated sphere takes
_RELATION_OF = {(r.core_a, r.core_b, r.inclusion): name for name, r in RELATIONS.items()}


class IncompatibleVolumes(ValueError):
    pass


class UnsupportedGeometry(ValueError):
    pass


@dataclass(frozen=True)
class CoatingConfig:
    """Coated-sphere cores and inclusion: (a1|a2, const, none) or a triple of pairbounds.RELATIONS, else UnsupportedGeometry."""

    coreA: str  # "a1" | "a2"
    coreB: str  # "b1" | "b2" | "const"
    inclusion: str  # "none", or the coated-sphere name of a relation in pairbounds.RELATIONS

    def __post_init__(self):
        if self.coreA not in ("a1", "a2"):
            raise ValueError("coreA must be 'a1' or 'a2'")
        if self.coreB not in ("b1", "b2", "const"):
            raise ValueError("coreB must be 'b1', 'b2', or 'const'")
        if self.inclusion not in (*(r.inclusion for r in RELATIONS.values()), "none"):
            raise ValueError(f"unknown inclusion {self.inclusion!r}")
        if self.relation is None and (self.coreB, self.inclusion) != ("const", "none"):
            key = (self.coreA, self.coreB, self.inclusion)
            raise UnsupportedGeometry(f"configuration {key} is not radially representable")

    @property
    def relation(self):
        """Inclusion relation of the two phase sets, None for a constant coating."""
        return _RELATION_OF.get((self.coreA, self.coreB, self.inclusion))


def _hs_terms(pa: PhaseA, core: str, n: int) -> tuple:
    """(base, numerator, denominator) of coated spheres: m = base numerator / denominator.

    With (base, frac, rest, _) = core_side(pa, core) and a_core the core's conductivity,
        numerator   = (1 + (N-1) frac) a_core + (N-1) rest base,
        denominator = rest a_core + (N-1+frac) base.
    """
    base, frac, rest, _ = core_side(pa, core)
    a_core = getattr(pa, core)
    numerator = (1.0 + (n - 1) * frac) * a_core + (n - 1) * rest * base
    return base, numerator, rest * a_core + (n - 1 + frac) * base


def hs_m(pa: PhaseA, coreA: str, n: int) -> float:
    """Effective conductivity of coated spheres.

    The root in [a1, a2] of
        core a1:  (m - a2)/(m + (N-1)a2) = thetaA (a1 - a2)/(a1 + (N-1)a2)
        core a2:  (m - a1)/(m + (N-1)a1) = (1-thetaA)(a2 - a1)/(a2 + (N-1)a1),
    in the Hashin-Shtrikman form whose terms are all positive, so that no
    cancellation costs digits at small contrast.
    """
    if n < 2:
        raise ValueError("coated spheres need N >= 2")
    base, num, denom = _hs_terms(pa, coreA, n)
    return float(base * num / denom)


def hs_b(pa: PhaseA, pb_or_b, cfg: CoatingConfig, n: int) -> float:
    """Closed-form relative limit of the coated-sphere construction.

    Constant density b: core a1 saturates the lower trace bound, core a2
    the upper.  Two-phase density: A_in_B attains L1 and A_in_Bc attains
    U1; B_in_A attains L2 in case a (l2_case) and keeps a positive slack in
    case b; Ac_in_B attains neither form of U2.  At N = 1 the four reduce
    to the one-dimensional bounds l1, u1, l2, u2.  Each case is one formula,
        b_out swell - (b_out - b_in) (N a_coat)^2 v / denom^2,
    with the coating conductivity a_coat and the Hashin-Shtrikman
    denominator from the core (_hs_terms), and the radial density
    (b_in, b_out, interface radius^N v) from _radial_density; a constant
    density has b_out - b_in = 0, so v drops out.
    """
    a_coat, _, denom = _hs_terms(pa, cfg.coreA, n)
    swell = 1.0 + n * pa.thetaA * (1.0 - pa.thetaA) * (pa.a2 - pa.a1) ** 2 / denom**2
    b_in, b_out, v = _radial_density(cfg, pa, pb_or_b)
    return float(b_out * swell - (b_out - b_in) * (n * a_coat) ** 2 * v / denom**2)


def radial_profile_coefficients(core_val: float, coat_val: float, core_volume: float, n: int) -> tuple:
    """Matching coefficients (f_core, f_out_const, f_out_decay) of w = y_l f(r).

    f = f_core on the core, f_out_const + f_out_decay / r^N in the coating,
    continuous with continuous flux a (f + r f') across r = core radius.
    """
    r_core_n = core_volume  # radius^N
    # unknowns (b1~, b2~, c~):  b1~ - b2~ - c~/R^N = 0
    #                           core_val b1~ - coat_val b2~ - coat_val (1-N) c~/R^N = 0
    #                           b2~ + c~ = 1
    mat = np.array(
        [
            [1.0, -1.0, -1.0 / r_core_n],
            [core_val, -coat_val, -coat_val * (1.0 - n) / r_core_n],
            [0.0, 1.0, 1.0],
        ]
    )
    sol = np.linalg.solve(mat, np.array([0.0, 0.0, 1.0]))
    return float(sol[0]), float(sol[1]), float(sol[2])


def _radial_density(cfg: CoatingConfig, pa: PhaseA, pb) -> tuple:
    """Radial B-profile (inner value, outer value, interface radius^N) of one coated sphere.

    pb is a PhaseB or a constant density b > 0, which gives (b, b, 0.5): its
    interface may sit anywhere.  CoatingConfig has checked the cores.
    """
    if np.isscalar(pb) != (cfg.coreB == "const"):
        raise UnsupportedGeometry("a scalar density requires coreB='const', a PhaseB coreB='b1' or 'b2'")
    if np.isscalar(pb):
        if not pb > 0:
            raise ValueError(f"need a density b > 0, got {pb}")
        return float(pb), float(pb), 0.5
    # coated spheres realize each inclusion on both sides of its interface
    if not admits(cfg.relation, pa, pb, True):
        raise IncompatibleVolumes(
            f"inclusion {cfg.inclusion} incompatible with thetaA={pa.thetaA}, thetaB={pb.thetaB}"
        )
    if cfg.coreB == "b1":
        return pb.b1, pb.b2, pb.thetaB
    return pb.b2, pb.b1, 1.0 - pb.thetaB


_ORACLE_BLOCK = 4096  # quadrature points per block of integrand evaluation


def hs_radial_oracle(pa: PhaseA, pb_or_b, cfg: CoatingConfig, n: int, quadrature_points: int = 10_000) -> float:
    """Quadrature of the energy integral over one coated sphere.

    With w(y) = y_l f(r) the angular average is exact and
        b# = integral_0^1 B(r) [N f^2 + 2 f f' r + (f')^2 r^2] r^(N-1) dr,
    evaluated by the composite midpoint rule on each smooth piece.  The core
    radius is an edge of the pieces, so each piece evaluates only its own
    branch of f: f_core in the core, the r^N and r^(N+1) terms in the coating.
    Only the last points of a core piece can round up onto the core radius,
    where the coating's branch holds, and those take it.  Entirely
    independent of the closed-form algebra it validates.
    """
    if n not in (2, 3):
        raise UnsupportedGeometry("radial oracle supports N = 2 or 3")
    if quadrature_points < 1:
        raise ValueError(f"the radial oracle needs at least 1 quadrature point, got {quadrature_points}")
    coat_val, core_vol, _, _ = core_side(pa, cfg.coreA)
    b_inner, b_outer, rb_n = _radial_density(cfg, pa, pb_or_b)
    if 0.0 < core_vol < 1.0:
        f_core, f_const, f_decay = radial_profile_coefficients(getattr(pa, cfg.coreA), coat_val, core_vol, n)
        r_a = core_vol ** (1.0 / n)
    else:
        # degenerate coating: homogeneous ball, f is identically 1
        f_core, f_const, f_decay, r_a = 1.0, 1.0, 0.0, 1.0
    r_b = rb_n ** (1.0 / n)

    def density(r):
        # gradient magnitude factor N f^2 + 2 f f' r + (f')^2 r^2 at the rising points r of one piece
        if r[-1] < r_a:  # the piece lies in the core
            f, fp = f_core, 0.0
        else:  # in the coating, but for the last points of a core piece, which can round up onto its edge r_a
            f, fp = f_const + f_decay / r**n, -n * f_decay / r ** (n + 1)
            if r[0] < r_a:
                inside = r < r_a
                f, fp = np.where(inside, f_core, f), np.where(inside, 0.0, fp)
        return (n * f**2 + 2.0 * f * fp * r + fp**2 * r**2) * r ** (n - 1)

    edges = sorted({0.0, r_a, r_b, 1.0})
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        if hi - lo < 1e-15:
            continue
        pts = max(64, int(round(quadrature_points * (hi - lo))))
        # the integrand is evaluated in blocks, so its temporaries stay small, and
        # summed over the whole piece at once: np.sum's pairwise order sets the last bits
        values = np.empty(pts)
        for start in range(0, pts, _ORACLE_BLOCK):
            k = np.arange(start, min(start + _ORACLE_BLOCK, pts))
            values[start : start + len(k)] = density(lo + (k + 0.5) * (hi - lo) / pts)
        b_here = b_inner if hi <= r_b + 1e-15 else b_outer
        total += b_here * np.sum(values) * (hi - lo) / pts
    return float(total)
