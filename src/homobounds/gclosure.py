"""Phase space of effective tensors for a two-phase conductor.

The attainable set for volume fraction theta is characterized by an
eigenvalue window [harmonic mean, arithmetic mean] together with a lower
and an upper trace inequality.  This module evaluates membership, recovers
the boundary fraction theta from a tensor (in closed form on both sides),
and samples the two boundary curves at N = 2 for phase diagrams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .homog1d import phase_means
from .symtensor import SymTensor, eig, eig_stack

_DEGENERATE_THETA = 1e-12  # a phase fraction at or below this is absent: the medium is homogeneous
DEFAULT_TOL = 1e-9  # default absolute tolerance on the slack of a bound or membership condition


class DegenerateTheta(ValueError):
    """theta in {0, 1} but the tensor is not the homogeneous one."""


class OutsideGSet(ValueError):
    """Tensor violates the phase-space characterization."""


_MIN_CONTRAST = 1e-6  # relative a2/a1 - 1 below this is numerically degenerate


@dataclass(frozen=True)
class PhaseA:
    """Scalar two-phase conductivity data (a1 < a2, fraction of a1)."""

    a1: float
    a2: float
    thetaA: float

    def __post_init__(self):
        if not (0 < self.a1 < self.a2 < np.inf):  # false for a NaN too
            raise ValueError(f"need 0 < a1 < a2 < inf, got a1={self.a1}, a2={self.a2}")
        if self.a2 - self.a1 <= _MIN_CONTRAST * self.a1:
            raise ValueError(
                f"phase contrast a2-a1 = {self.a2 - self.a1} is degenerate at tolerance"
            )
        if not (0.0 <= self.thetaA <= 1.0):
            raise ValueError(f"thetaA must lie in [0, 1], got {self.thetaA}")


@dataclass(frozen=True)
class GMembershipReport:
    eigenvalue_window_slacks: tuple  # (lam_i - harm, arith - lam_i) per eigenvalue
    lower_trace_slack: float
    upper_trace_slack: float
    verdict: str  # inside | boundary_lower | boundary_upper | corner | outside


def means(p: PhaseA) -> tuple:
    """(harmonic, arithmetic) means of the two phases at fraction thetaA."""
    return phase_means(p.a1, p.a2, p.thetaA)


def core_side(p: PhaseA, core: str) -> tuple:
    """(base, frac, rest, sign) of a construction whose core is phase `core`.

    base is the conductivity of the matrix (or coating) around the core,
    frac the core's volume fraction and rest the matrix's.  Core a2 gives
    (a1, 1-thetaA, thetaA, +1) and realizes the lower boundary of the phase
    set; core a1 gives (a2, thetaA, 1-thetaA, -1) and the upper one.
    """
    if core == "a2":
        return p.a1, 1.0 - p.thetaA, p.thetaA, 1.0
    if core == "a1":
        return p.a2, p.thetaA, 1.0 - p.thetaA, -1.0
    raise ValueError(f"core must be 'a1' or 'a2', got {core!r}")


def homogeneous_value(p: PhaseA):
    """a2 (a1) when thetaA is within 1e-12 of 0 (1): the A-medium is that value times I; else None."""
    if p.thetaA <= _DEGENERATE_THETA:
        return p.a2
    return p.a1 if p.thetaA >= 1.0 - _DEGENERATE_THETA else None


def lower_trace_sum(astar: SymTensor, p: PhaseA) -> float:
    """S = tr(A* - a1 I)^-1, the resolvent trace of the lower boundary."""
    return sum(1.0 / (lam - p.a1) for lam in eig(astar).values)


def upper_trace_sum(astar: SymTensor, p: PhaseA) -> float:
    """t = tr(A*^-1 - a2^-1 I)^-1, the flux-side resolvent trace of the upper boundary."""
    return sum(1.0 / (1.0 / lam - 1.0 / p.a2) for lam in eig(astar).values)


def g_membership(astar: SymTensor, p: PhaseA, tol: float = DEFAULT_TOL) -> GMembershipReport:
    """Evaluate the three membership conditions and classify the tensor."""
    lams = eig(astar).values
    harm, arith = means(p)

    target = homogeneous_value(p)
    if target is not None:
        # the set degenerates to a single point: a2 I or a1 I
        if max(abs(lam - target) for lam in lams) > tol:
            raise DegenerateTheta(
                f"thetaA={p.thetaA} admits only {target}*I, got eigenvalues {lams}"
            )
        window = tuple([(0.0, 0.0)] * len(lams))
        return GMembershipReport(window, 0.0, 0.0, "corner")

    window = tuple([(lam - harm, arith - lam) for lam in lams])
    window_ok = all(lo >= -tol and hi >= -tol for lo, hi in window)
    # eigenvalues pinned at the phase values make the trace sums blow up;
    # membership then reduces to the window alone
    if any(lam - p.a1 <= 1e-13 * p.a1 or p.a2 - lam <= 1e-13 * p.a2 for lam in lams):
        verdict = "outside"
        return GMembershipReport(window, -np.inf, -np.inf, verdict)

    n = len(lams)
    low_slack = 1.0 / (harm - p.a1) + (n - 1) / (arith - p.a1) - lower_trace_sum(astar, p)
    up_slack = 1.0 / (p.a2 - harm) + (n - 1) / (p.a2 - arith) - sum(1.0 / (p.a2 - lam) for lam in lams)
    if not window_ok or low_slack < -tol or up_slack < -tol:
        verdict = "outside"
    elif abs(low_slack) <= tol and abs(up_slack) <= tol:
        verdict = "corner"
    elif abs(low_slack) <= tol:
        verdict = "boundary_lower"
    elif abs(up_slack) <= tol:
        verdict = "boundary_upper"
    else:
        verdict = "inside"
    return GMembershipReport(window, float(low_slack), float(up_slack), verdict)


def _require_member(astar: SymTensor, p: PhaseA, tol: float = DEFAULT_TOL):
    report = g_membership(astar, p, tol)
    if report.verdict == "outside":
        raise OutsideGSet(f"tensor is outside the theta={p.thetaA} phase set")
    return report


def theta_from_lower_boundary(astar: SymTensor, p: PhaseA, tol: float = DEFAULT_TOL) -> float:
    """Fraction theta <= thetaA whose lower boundary passes through astar.

    Closed form in S = tr(astar - a1 I)^-1:
        theta = a1 ((a2-a1) S - N) / ((a2-a1)(a1 S + 1)).
    """
    return float(thetas_from_lower_boundary([astar], p, tol)[0])


def thetas_from_lower_boundary(astars, p: PhaseA, tol: float = DEFAULT_TOL) -> np.ndarray:
    """theta_from_lower_boundary of each tensor in a nonempty sequence of one dimension.

    One LAPACK call decomposes the tensors and each must be a member; the
    closed form then runs once over the whole sequence and is clipped to
    [0, thetaA].  The a1 medium (see homogeneous_value) gives 1.
    """
    eig_stack(astars)  # memoises each eigensystem that the membership and the trace sums read
    for astar in astars:
        _require_member(astar, p, tol)
    if homogeneous_value(p) == p.a1:
        return np.ones(len(astars))
    s = np.array([lower_trace_sum(astar, p) for astar in astars])
    n = astars[0].dim
    d = p.a2 - p.a1
    return np.clip(p.a1 * (d * s - n) / (d * (p.a1 * s + 1.0)), 0.0, p.thetaA)


def upper_boundary_residual(astar: SymTensor, p: PhaseA, theta: float) -> float:
    """Residual of the upper-boundary trace equation at a trial theta.

    Positive means the tensor lies above the theta-boundary.  Affine in
    1/theta and strictly increasing in theta, so its root has a closed form.
    """
    t, n = upper_trace_sum(astar, p), astar.dim
    return t - n * p.a1 * p.a2 / (theta * (p.a2 - p.a1)) - (n - 1) * (1.0 - theta) * p.a2 / theta


def theta_from_upper_boundary(astar: SymTensor, p: PhaseA, tol: float = DEFAULT_TOL) -> float:
    """Fraction theta >= thetaA whose upper boundary passes through astar.

    Closed form in t = tr(A*^-1 - a2^-1 I)^-1:
        theta = (N a1 a2/(a2-a1) + (N-1) a2) / (t + (N-1) a2),
    clamped to [thetaA, 1], with a root above 1 - 1e-9 counted as 1; a
    member's eigenvalues lie 1e-13 inside (a1, a2), so t > N a1 a2/(a2-a1).
    The homogeneous A-medium (see homogeneous_value) a1 I gives 1, a2 I thetaA.
    """
    _require_member(astar, p, tol)
    target = homogeneous_value(p)
    if target is not None:
        return 1.0 if target == p.a1 else float(p.thetaA)
    n = astar.dim
    t = upper_trace_sum(astar, p)
    theta = (n * p.a1 * p.a2 / (p.a2 - p.a1) + (n - 1) * p.a2) / (t + (n - 1) * p.a2)
    if theta <= p.thetaA:  # a member's root is not below thetaA: roundoff puts it on that boundary
        return float(p.thetaA)
    return 1.0 if theta > 1.0 - 1e-9 else float(theta)


def boundary_curve_sample(p: PhaseA, side: str, count: int) -> list:
    """Sample (lambda1, lambda2) pairs along a boundary curve at N = 2.

    The sweep is linear in the resolvent coordinate (1/(lambda1 - a1) on the
    lower side, 1/(a2 - lambda1) on the upper), which traverses lambda1 over
    [harmonic, arithmetic] and puts the isotropic coated-sphere point at the
    middle sample.
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    if side not in ("lower", "upper"):
        raise ValueError("side must be 'lower' or 'upper'")
    harm, arith = means(p)
    lam = homogeneous_value(p)
    if lam is not None:
        return [(lam, lam)] * count
    base, _, _, sign = core_side(p, "a2" if side == "lower" else "a1")
    u0, u1 = 1.0 / (sign * (harm - base)), 1.0 / (sign * (arith - base))
    u = u0 + (u1 - u0) * np.linspace(0.0, 1.0, count)
    lam1 = base + sign / u
    lam2 = base + sign / (u0 + u1 - u)
    return list(zip(lam1.tolist(), lam2.tolist()))
