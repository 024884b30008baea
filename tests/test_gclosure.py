import itertools

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homobounds.gclosure import (
    DegenerateTheta,
    PhaseA,
    boundary_curve_sample,
    g_membership,
    homogeneous_value,
    means,
    theta_from_lower_boundary,
    theta_from_upper_boundary,
    upper_boundary_residual,
)
from homobounds.laminates import LaminateSpec, seq_A
from homobounds.symtensor import SymTensor

LAMINATE_FRAMES = [
    (((1.0, 0.0),), (1.0,)),
    (((1.0, 0.0), (0.0, 1.0)), (0.3, 0.7)),
    (((1.0, 0.0), (0.6, 0.8)), (0.5, 0.5)),
    (((1.0, 0.0, 0.0), (0.0, 0.6, 0.8)), (0.35, 0.65)),
    (((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), (0.2, 0.3, 0.5)),
]


def _upper_root_50_digits(astar: SymTensor, p: PhaseA):
    """Root of the upper-boundary equation from the float64 entries of A*, at 50 digits."""
    with mpmath.workdps(50):
        a1, a2 = mpmath.mpf(p.a1), mpmath.mpf(p.a2)
        m = mpmath.matrix(astar.mat.tolist())
        n = m.rows
        resolvent = mpmath.inverse(mpmath.inverse(m) - mpmath.eye(n) / a2)
        t = mpmath.fsum(resolvent[i, i] for i in range(n))
        return (n * a1 * a2 / (a2 - a1) + (n - 1) * a2) / (t + (n - 1) * a2)


class TestPhaseA:
    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            PhaseA(2.0, 1.0, 0.5)

    def test_rejects_degenerate_contrast(self):
        with pytest.raises(ValueError):
            PhaseA(1.0, 1.0000001, 0.5)


class TestMeans:
    def test_half(self, pa_half):
        assert means(pa_half) == pytest.approx((4 / 3, 1.5))

    def test_pure_a2(self):
        assert means(PhaseA(1, 2, 0.0)) == pytest.approx((2.0, 2.0))

    def test_pure_a1(self):
        assert means(PhaseA(1, 2, 1.0)) == pytest.approx((1.0, 1.0))


class TestMembership:
    def test_simple_laminate_corner(self, pa_half):
        report = g_membership(SymTensor.diag([4 / 3, 1.5]), pa_half)
        assert report.verdict == "corner"
        assert report.lower_trace_slack == pytest.approx(0.0, abs=1e-12)
        assert report.upper_trace_slack == pytest.approx(0.0, abs=1e-12)

    def test_isotropic_upper(self, pa_half):
        report = g_membership(SymTensor.diag([10 / 7, 10 / 7]), pa_half)
        assert report.verdict == "boundary_upper"
        assert report.upper_trace_slack == pytest.approx(0.0, abs=1e-12)
        assert report.lower_trace_slack > 0

    def test_harmonic_isotropic_outside(self, pa_half):
        report = g_membership(SymTensor.diag([4 / 3, 4 / 3]), pa_half)
        assert report.verdict == "outside"
        assert report.lower_trace_slack == pytest.approx(5.0 - 6.0)

    def test_interior_inside(self, pa_half):
        report = g_membership(SymTensor.diag([1.4, 1.45]), pa_half)
        assert report.verdict == "inside"
        assert report.lower_trace_slack == pytest.approx(0.27778, abs=1e-5)
        assert report.upper_trace_slack == pytest.approx(0.015152, abs=1e-6)

    def test_pinned_eigenvalue_outside(self):
        # eigenvalues at a1 blow up the trace sums, so the window alone cannot admit the tensor
        report = g_membership(SymTensor.diag([1.0, 1.0]), PhaseA(1, 2, 1 - 1e-10))
        assert report.verdict == "outside"
        assert report.lower_trace_slack == report.upper_trace_slack == -np.inf
        assert all(lo >= -1e-9 and hi >= -1e-9 for lo, hi in report.eigenvalue_window_slacks)

    def test_degenerate_theta(self):
        report = g_membership(SymTensor.diag([2.0, 2.0]), PhaseA(1, 2, 0.0))
        assert report.verdict == "corner"
        with pytest.raises(DegenerateTheta):
            g_membership(SymTensor.diag([1.5, 1.5]), PhaseA(1, 2, 0.0))


class TestThetaRecovery:
    def test_simple_laminate(self, pa_half):
        assert theta_from_lower_boundary(SymTensor.diag([4 / 3, 1.5]), pa_half) == pytest.approx(0.5)
        assert theta_from_upper_boundary(SymTensor.diag([4 / 3, 1.5]), pa_half) == pytest.approx(0.5)

    def test_isotropic_lower(self, pa_half):
        # closed form: S = 14/3, theta = (S-2)/(S+1) = 8/17
        theta = theta_from_lower_boundary(SymTensor.diag([10 / 7, 10 / 7]), pa_half)
        assert theta == pytest.approx(8 / 17, abs=1e-12)
        # the recovered theta satisfies the lower boundary equality
        harm_t = 1.0 / (theta / 1.0 + (1.0 - theta) / 2.0)
        arith_t = theta + 2.0 * (1.0 - theta)
        lhs = 2.0 / (10 / 7 - 1.0)
        rhs = 1.0 / (harm_t - 1.0) + 1.0 / (arith_t - 1.0)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_homogeneous_value(self):
        for theta, value in ((0.0, 2.0), (1e-12, 2.0), (2e-12, None), (0.5, None), (1 - 2e-12, None), (1 - 1e-12, 1.0), (1.0, 1.0)):
            assert homogeneous_value(PhaseA(1.0, 2.0, theta)) == value

    def test_homogeneous_edges(self):
        assert theta_from_lower_boundary(SymTensor.diag([2.0, 2.0]), PhaseA(1, 2, 0.0)) == 0.0
        assert theta_from_upper_boundary(SymTensor.diag([1.0, 1.0]), PhaseA(1, 2, 1.0)) == 1.0

    def test_homogeneous_edges_other_side(self):
        # the a1 medium is the lower boundary at theta 1; the a2 medium sits on
        # the upper boundary at its own thetaA = 0
        assert theta_from_lower_boundary(SymTensor.diag([1.0, 1.0]), PhaseA(1, 2, 1.0)) == 1.0
        assert theta_from_upper_boundary(SymTensor.diag([2.0, 2.0]), PhaseA(1, 2, 0.0)) == 0.0

    def test_upper_isotropic(self):
        theta = theta_from_upper_boundary(SymTensor.diag([1.2, 1.2]), PhaseA(1, 2, 0.75))
        assert theta == pytest.approx(0.75, abs=1e-10)

    @given(st.floats(min_value=0.05, max_value=0.95), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=60, deadline=None)
    def test_lower_round_trip(self, theta, seed):
        # build a tensor on the theta lower boundary, then recover theta
        pa = PhaseA(1.0, 2.0, theta)
        rng = np.random.default_rng(seed)
        lam1, lam2 = boundary_curve_sample(pa, "lower", 11)[int(rng.integers(0, 11))]
        recovered = theta_from_lower_boundary(SymTensor.diag([lam1, lam2]), pa)
        assert recovered == pytest.approx(theta, abs=1e-10)

    def test_upper_matches_50_digit_root(self):
        # core a1 puts A* on the upper boundary of thetaA, core a2 strictly
        # inside it, where the recovered theta exceeds thetaA
        inside = 0
        grid = itertools.product(
            [(1.0, 2.0), (0.7, 2.5), (1.0, 30.0)], [0.1, 0.3, 0.5, 0.7, 0.9], LAMINATE_FRAMES, ("a1", "a2")
        )
        for (a1, a2), theta, (directions, weights), core in grid:
            pa = PhaseA(a1, a2, theta)
            astar = seq_A(LaminateSpec(directions, weights, core, "const_b"), pa)
            root = _upper_root_50_digits(astar, pa)
            inside += root > theta * (1 + 1e-9)
            expected = max(root, mpmath.mpf(theta))  # the thetaA clamp
            assert abs(theta_from_upper_boundary(astar, pa) - expected) <= 1e-14 * expected
        assert inside >= 50

    def test_upper_root_just_past_one_is_one(self, monkeypatch):
        # a core-a2 laminate at thetaA = 1 - 1e-10 sits just inside the a1
        # medium: its upper-boundary root rounds past 1 - 1e-9, and the
        # residual at theta = 1 decides that the root is 1 itself
        import homobounds.gclosure as gclosure

        pa = PhaseA(1.0, 2.0, 1.0 - 1e-10)
        astar = seq_A(LaminateSpec(((1.0, 0.0), (0.0, 1.0)), (0.5, 0.5), "a2", "const_b"), pa)
        at = []
        residual = gclosure.upper_boundary_residual
        monkeypatch.setattr(gclosure, "upper_boundary_residual", lambda a, p, t: at.append(t) or residual(a, p, t))
        assert theta_from_upper_boundary(astar, pa) == 1.0 and at == [1.0]
        assert g_membership(astar, pa).verdict == "boundary_upper"

    def test_upper_residual_monotone(self, pa_half):
        astar = SymTensor.diag([1.4, 1.45])
        values = [upper_boundary_residual(astar, pa_half, t) for t in np.linspace(0.5, 0.999, 40)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestBoundarySampling:
    def test_lower_endpoints(self, pa_half):
        pts = boundary_curve_sample(pa_half, "lower", 3)
        assert pts[0] == pytest.approx((4 / 3, 1.5))
        assert pts[-1] == pytest.approx((1.5, 4 / 3))
        for lam1, lam2 in pts:
            assert g_membership(SymTensor.diag([lam1, lam2]), pa_half).verdict in ("boundary_lower", "corner")

    def test_degenerate(self):
        pts = boundary_curve_sample(PhaseA(1, 2, 0.0), "lower", 3)
        assert pts == [(2.0, 2.0)] * 3

    def test_upper_midpoint_isotropic(self, pa_half):
        pts = boundary_curve_sample(pa_half, "upper", 3)
        assert pts[1] == pytest.approx((10 / 7, 10 / 7))
        for lam1, lam2 in pts:
            assert g_membership(SymTensor.diag([lam1, lam2]), pa_half).verdict in ("boundary_upper", "corner")

    @given(
        st.floats(0.01, 100.0),
        st.floats(1.001, 1e3),
        st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1e-13, 1.0 - 1e-13, 1.0])),
        st.sampled_from(["lower", "upper"]),
        st.integers(2, 40),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_per_sample_loop(self, a1, contrast, ta, side, count):
        # the per-sample loop of the separate lower and upper branches,
        # kept as the bit-exact reference for the merged vectorised formula
        pa = PhaseA(a1, a1 * contrast, ta)
        harm, arith = means(pa)
        if ta <= 1e-12 or ta >= 1.0 - 1e-12:
            lam = pa.a2 if ta <= 1e-12 else pa.a1
            want = [(lam, lam)] * count
        elif side == "lower":
            r_total = 1.0 / (harm - pa.a1) + 1.0 / (arith - pa.a1)
            u0, u1 = 1.0 / (harm - pa.a1), 1.0 / (arith - pa.a1)
            want = []
            for t in np.linspace(0.0, 1.0, count):
                u = u0 + (u1 - u0) * t
                want.append((float(pa.a1 + 1.0 / u), float(pa.a1 + 1.0 / (r_total - u))))
        else:
            r_total = 1.0 / (pa.a2 - harm) + 1.0 / (pa.a2 - arith)
            u0, u1 = 1.0 / (pa.a2 - harm), 1.0 / (pa.a2 - arith)
            want = []
            for t in np.linspace(0.0, 1.0, count):
                u = u0 + (u1 - u0) * t
                want.append((float(pa.a2 - 1.0 / u), float(pa.a2 - 1.0 / (r_total - u))))
        assert boundary_curve_sample(pa, side, count) == want

    def test_every_sample_on_matching_boundary(self):
        pa = PhaseA(1.0, 3.0, 0.35)
        for side, verdicts in (("lower", ("boundary_lower", "corner")), ("upper", ("boundary_upper", "corner"))):
            for lam1, lam2 in boundary_curve_sample(pa, side, 25):
                report = g_membership(SymTensor.diag([lam1, lam2]), pa, tol=1e-10)
                assert report.verdict in verdicts
