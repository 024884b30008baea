"""2-D Keller-Dykhne duality as an exact oracle for the constructors and both theta recoveries.

In 2-D a divergence-free flux turned by the 90-degree rotation R is a
gradient in the medium 1/a, so a pair at phases (a, b) maps to the dual pair
(R A*^-1 R^T, R A*^-1 B# A*^-1 R^T) at PhaseA(1/a2, 1/a1, 1 - thetaA) with
density b/a^2.  The map swaps the lower and upper boundaries of the phase
set, and a laminate's dual is the laminate of the same directions and
weights with the core swapped.  The contrast stays at a2/a1 <= 1e2, where
core-a1 frames keep their digits.
"""

import numpy as np
import pytest

from homobounds.gclosure import PhaseA, g_membership, theta_from_lower_boundary, theta_from_upper_boundary
from homobounds.hashin import hs_m
from homobounds.laminates import LaminateSpec, seq_A, seq_B_const, seq_pair_pp
from homobounds.pairbounds import PhaseB

R = np.array([[0.0, -1.0], [1.0, 0.0]])
SWAP = {"a1": "a2", "a2": "a1", "boundary_lower": "boundary_upper", "boundary_upper": "boundary_lower"}


def _dual(pa: PhaseA) -> PhaseA:
    return PhaseA(1.0 / pa.a2, 1.0 / pa.a1, 1.0 - pa.thetaA)


def _relative(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


def _laminates(seed: int, count: int, contrast: float):
    """(directions, weights, core, pa) of `count` seeded 2-D laminates of rank 1-4 and a2/a1 up to `contrast`."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        rank = int(rng.integers(1, 5))
        angles = rng.uniform(0.0, np.pi, rank)
        directions = [[float(np.cos(t)), float(np.sin(t))] for t in angles]
        weights = rng.dirichlet(np.ones(rank)).tolist()
        pa = PhaseA(1.0, float(contrast ** rng.uniform(0.02, 1.0)), float(rng.uniform(0.05, 0.95)))
        yield directions, weights, "a1" if rng.random() < 0.5 else "a2", pa


def test_dual_laminate_is_the_rotated_inverse():
    # seq_A with the core swapped at the dual phases is R seq_A^-1 R^T; the
    # theta recoveries and g_membership's boundary labels map through it
    labels = set()
    for directions, weights, core, pa in _laminates(2, 250, 1e2):
        astar = seq_A(LaminateSpec(directions, weights, core, "const_b"), pa)
        dual = seq_A(LaminateSpec(directions, weights, SWAP[core], "const_b"), _dual(pa))
        assert _relative(dual.mat, R @ np.linalg.inv(astar.mat) @ R.T) <= 1e-12
        assert theta_from_upper_boundary(astar, pa) == pytest.approx(1.0 - theta_from_lower_boundary(dual, _dual(pa)), abs=1e-13)
        assert theta_from_lower_boundary(astar, pa) == pytest.approx(1.0 - theta_from_upper_boundary(dual, _dual(pa)), abs=1e-13)
        label = g_membership(astar, pa).verdict
        assert g_membership(dual, _dual(pa)).verdict == SWAP.get(label, label)
        labels.add(label)
    assert labels == {"boundary_lower", "boundary_upper", "corner"}


@pytest.mark.parametrize("core", ["a1", "a2"])
def test_dual_coated_sphere_is_the_reciprocal(core):
    for *_, pa in _laminates(5, 200, 1e2):
        assert hs_m(pa, core, 2) * hs_m(_dual(pa), SWAP[core], 2) == pytest.approx(1.0, abs=1e-14)


def test_nested_pair_is_the_dual_constant_density():
    # at b = k a^2 and thetaB = thetaA the dual density is the constant k, so
    # the nested laminate's B# is A* R^T seq_B_const(dual, k) R A*: the
    # gradient_extremes path against the closed-form constant-density one
    rng = np.random.default_rng(3)
    for directions, weights, _, pa in _laminates(3, 250, 4.0):
        k = float(rng.uniform(0.5, 2.0))
        pb = PhaseB(k * pa.a1**2, k * pa.a2**2, pa.thetaA)
        astar, bsharp = seq_pair_pp(LaminateSpec(directions, weights, "a2", "A_subset_B"), pa, pb)
        dual = seq_B_const(LaminateSpec(directions, weights, "a1", "const_b"), _dual(pa), k)
        assert _relative(bsharp.mat, astar.mat @ R.T @ dual.mat @ R @ astar.mat) <= 1e-13
