"""Randomized oracle sweeps pinning the bound evaluators against the exact
one-dimensional embedding family across their intended regions."""

import numpy as np
import pytest

from homobounds.gclosure import OutsideGSet, PhaseA, theta_from_lower_boundary, theta_from_upper_boundary
from homobounds.homog1d import bsharp_1d, overlap_window
from homobounds.laminates import simple_laminate_pair
from homobounds.pairbounds import (
    PhaseB,
    bound_L1,
    bound_L2,
    bound_U1,
    bound_U2,
    energy_density_bounds,
)
from homobounds.symtensor import SymTensor, matrix_power


def draw_phases_and_overlap(rng):
    pa = PhaseA(rng.uniform(0.5, 2.0), rng.uniform(2.5, 6.0), rng.uniform(0.05, 0.95))
    pb = PhaseB(rng.uniform(0.5, 2.0), rng.uniform(2.5, 6.0), rng.uniform(0.05, 0.95))
    lo, hi = max(0.0, pa.thetaA + pb.thetaB - 1.0), min(pa.thetaA, pb.thetaB)
    return pa, pb, rng.uniform(lo, hi)


def embedded_pair(pa, pb, theta_ab, n=2):
    return simple_laminate_pair(pa, pb, theta_ab, 0, n)


def test_l2_randomized_embedding_sweep():
    rng = np.random.default_rng(2024)
    count = 0
    while count < 1000:
        pa, pb, theta_ab = draw_phases_and_overlap(rng)
        if pb.thetaB >= pa.thetaA:
            continue
        astar, bsharp = embedded_pair(pa, pb, theta_ab)
        lhs, rhs, _ = bound_L2(astar, bsharp, pa, pb, theta_from_upper_boundary(astar, pa))
        assert lhs - rhs >= -1e-10 * max(1.0, abs(rhs))
        count += 1


def test_u2_step_randomized_embedding_sweep():
    rng = np.random.default_rng(4047)
    count = 0
    while count < 1000:
        pa, pb, theta_ab = draw_phases_and_overlap(rng)
        if pa.thetaA + pb.thetaB <= 1.0:
            continue
        astar, bsharp = embedded_pair(pa, pb, theta_ab)
        lhs, _, step = bound_U2(astar, bsharp, pa, pb, theta_from_upper_boundary(astar, pa))
        assert lhs - step >= -1e-9 * max(1.0, abs(step))
        count += 1


def test_l1_u1_randomized_embedding_sweep():
    rng = np.random.default_rng(31)
    for _ in range(500):
        pa, pb, theta_ab = draw_phases_and_overlap(rng)
        astar, bsharp = embedded_pair(pa, pb, theta_ab, n=3)
        if pa.thetaA <= pb.thetaB:
            lhs, rhs = bound_L1(astar, bsharp, pa, pb)
            assert lhs - rhs >= -1e-10 * max(1.0, abs(rhs))
        if pa.thetaA + pb.thetaB <= 1.0:
            lhs, rhs = bound_U1(astar, bsharp, pa, pb)
            assert lhs - rhs >= -1e-10 * max(1.0, abs(rhs))


def test_embedded_diagonal_matches_scalar_limit():
    rng = np.random.default_rng(9)
    for _ in range(200):
        pa, pb, theta_ab = draw_phases_and_overlap(rng)
        _, bsharp = embedded_pair(pa, pb, theta_ab)
        assert bsharp.mat[0, 0] == pytest.approx(bsharp_1d(pa, pb, theta_ab), rel=1e-13)


def test_inverse_residual_contract():
    # matrix inverses inside trace chains keep a residual below 1e-12
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        q, r = np.linalg.qr(rng.normal(size=(n, n)))
        q = q * np.sign(np.diag(r))
        s = SymTensor(q @ np.diag(rng.uniform(0.2, 8.0, n)) @ q.T)
        inv = matrix_power(s, -1)
        assert np.linalg.norm(inv @ s.mat - np.eye(n)) <= 1e-12 * np.linalg.norm(s.mat)


def test_outside_tensor_rejected_by_recovery_and_energy():
    pa = PhaseA(1.0, 2.0, 0.5)
    outside = SymTensor.diag([4 / 3, 4 / 3])
    with pytest.raises(OutsideGSet):
        theta_from_lower_boundary(outside, pa)
    with pytest.raises(OutsideGSet):
        energy_density_bounds(outside, pa, 1.0, [1.0, 0.0], "lower")


def test_inclusion_data_validation():
    # the overlap must lie in its window up to 1e-12 either side
    from homobounds.laminates import OverlapOutOfWindow

    pa, pb = PhaseA(1, 2, 0.5), PhaseB(1, 3, 0.5)
    assert overlap_window(pa, pb) == pytest.approx((0.0, 0.5))
    for edge, outward in ((0.0, -1.0), (0.5, 1.0)):
        simple_laminate_pair(pa, pb, edge + outward * 0.5e-12)
        with pytest.raises(OverlapOutOfWindow):
            simple_laminate_pair(pa, pb, edge + outward * 2e-12)
    with pytest.raises(OverlapOutOfWindow):
        simple_laminate_pair(pa, pb, 0.75)
