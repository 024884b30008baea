import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homobounds.gclosure import (
    OutsideGSet,
    PhaseA,
    boundary_curve_sample,
    core_side,
    g_membership,
    lower_trace_sum,
    theta_from_upper_boundary,
)
from homobounds.hashin import CoatingConfig, hs_b, hs_m
from homobounds.homog1d import Profile1D, overlap_window, weakstar_limits
from homobounds.laminates import LaminateSpec, seq_A, seq_B_const, simple_laminate_pair
from homobounds.pairbounds import (
    NotInRegion,
    PairBoundReport,
    PhaseB,
    admits,
    bound_L1,
    bound_L2,
    bound_L_const_b,
    bound_U1,
    bound_U2,
    bound_U_const_b,
    classify_region,
    energy_density_bounds,
    fibre_extremes_l1u1,
    fibre_extremes_stack,
    fibre_mix,
    general_chain_check,
    gradient_extremes,
    l2_terms,
    pair_membership,
    pair_memberships,
    theta_star_u2,
)
from homobounds import gclosure, pairbounds, sweeps
from homobounds.cli import main
from homobounds.symtensor import SingularFactor, SymTensor, commutator_norm, derived, eig, rotate, trace_chain

LAM_A = SymTensor.diag([4 / 3, 3 / 2])


def fibre_extremes_reference(astar, pa, pb, tol=1e-9):
    """fibre_extremes_l1u1's matrices for one tensor on its own: a lone float theta and one frame product each."""
    if g_membership(astar, pa, tol).verdict == "outside":
        raise OutsideGSet("outside")
    n, s, d = astar.dim, lower_trace_sum(astar, pa), pa.a2 - pa.a1
    theta = min(max(pa.a1 * (d * s - n) / (d * (pa.a1 * s + 1.0)), 0.0), pa.thetaA)
    if theta <= 1e-12:
        return pb.mean * np.eye(astar.dim), pb.mean * np.eye(astar.dim)
    es = eig(astar)
    lam = np.array(es.values)
    m = pa.a1 / theta * ((1.0 - theta) / (lam - pa.a1) - 1.0 / (pa.a2 - pa.a1))
    return tuple(SymTensor(es.frame @ np.diag(d) @ es.frame.T).mat for d in gradient_extremes(lam, m, pa, pb, theta))


def phase_loop_reference(pa, pb, n, tol=1e-9):
    """The `phase` CSV one boundary sample at a time."""
    lines = ["lambda1,lambda2,mu1_low,mu2_low,mu1_high,mu2_high"]
    for lam1, lam2 in boundary_curve_sample(pa, "lower", n):
        low, high = fibre_extremes_reference(SymTensor.diag([lam1, lam2]), pa, pb, tol)
        lines.append(",".join(repr(float(x)) for x in [lam1, lam2, *sorted(np.diag(low)), *sorted(np.diag(high))]))
    return "\n".join(lines) + "\n"


def phase_inputs(seed, count):
    """Seeded L1U1 phase requests: thetaA 0, just above the 1e-12 cutoff (rows on both sides) or up to 0.5; a2/a1 up to 50, n up to 41."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        a1 = float(rng.uniform(0.2, 3.0))
        a2 = a1 * float(np.exp(rng.uniform(0.005, np.log(50.0))))
        ta = (0.0, 1e-12 * (1.0 + float(rng.uniform(0.0, 1e-4))))[i % 2] if i % 5 == 0 else float(rng.uniform(0.01, 0.5))
        tb = float(rng.uniform(ta, 1.0 - ta))
        b1 = float(rng.uniform(0.2, 3.0))
        n = int(rng.integers(2, 42 if i % 4 == 0 else 12))
        yield PhaseA(a1, a2, ta), PhaseB(b1, b1 * float(rng.uniform(1.0, 20.0)), tb), n


class TestClassify:
    def test_boundary_conventions(self):
        assert classify_region(PhaseA(1, 2, 0.5), PhaseB(1, 3, 0.5)) == "L1U1"
        assert classify_region(PhaseA(1, 2, 0.75), PhaseB(1, 3, 0.5)) == "L2U2"
        assert classify_region(PhaseA(1, 2, 0.25), PhaseB(1, 3, 0.5)) == "L1U1"

    @pytest.mark.parametrize(
        "ta, tb, laminate_ok, sphere_ok",
        [
            # thetaA = thetaB
            (0.4, 0.4, {"A_subset_B", "disjoint"}, {"A_in_B", "B_in_A", "A_in_Bc"}),
            # thetaA + thetaB = 1
            (0.25, 0.75, {"A_subset_B", "disjoint"}, {"A_in_B", "A_in_Bc", "Ac_in_B"}),
            # both interfaces at once
            (0.5, 0.5, {"A_subset_B", "disjoint"}, {"A_in_B", "B_in_A", "A_in_Bc", "Ac_in_B"}),
        ],
    )
    def test_interface_predicates(self, ta, tb, laminate_ok, sphere_ok):
        # the region and the laminate relations take the L1/U1 side of an
        # interface; the coated-sphere inclusions admit both sides
        from homobounds.hashin import CoatingConfig, IncompatibleVolumes, hs_b
        from homobounds.laminates import LaminateSpec, RegionMismatch, seq_B_pp
        from homobounds.pairbounds import RELATIONS

        pa, pb = PhaseA(1.0, 2.0, ta), PhaseB(1.0, 3.0, tb)
        assert classify_region(pa, pb) == "L1U1"
        for relation, row in RELATIONS.items():
            spec = LaminateSpec(((1.0, 0.0), (0.0, 1.0)), (0.5, 0.5), row.core_a, relation)
            if relation in laminate_ok:
                seq_B_pp(spec, pa, pb)
            else:
                with pytest.raises(RegionMismatch):
                    seq_B_pp(spec, pa, pb)
        spheres = {"B_in_A": ("a1", "b1"), "A_in_B": ("a2", "b2"), "A_in_Bc": ("a2", "b1"), "Ac_in_B": ("a1", "b2")}
        for inclusion, (core_a, core_b) in spheres.items():
            cfg = CoatingConfig(core_a, core_b, inclusion)
            if inclusion in sphere_ok:
                hs_b(pa, pb, cfg, 2)
            else:
                with pytest.raises(IncompatibleVolumes):
                    hs_b(pa, pb, cfg, 2)


class TestChain:
    def test_laminate_pair(self, pa_half, pb_half):
        slacks = general_chain_check(LAM_A, SymTensor.diag([14 / 9, 2]), pa_half, pb_half)
        assert len(slacks) == 6
        assert min(slacks) >= 0.0

    def test_lower_link_tight(self, pa_half, pb_half):
        slacks = general_chain_check(LAM_A, SymTensor.diag([1.0, 1.0]), pa_half, pb_half)
        assert slacks[0] == pytest.approx(0.0, abs=1e-14)

    def test_upper_link_tight(self, pa_half, pb_half):
        # the self-similar case B = (b2/a1) A has slack 0 on the A*-link
        ratio = pb_half.b2 / pa_half.a1
        slacks = general_chain_check(LAM_A, SymTensor(ratio * LAM_A.mat), pa_half, pb_half)
        assert slacks[1] == pytest.approx(0.0, abs=1e-12)


class TestConstDensityBounds:
    def test_laminate_saturates_both(self, pa_half):
        b = SymTensor.diag([10 / 9, 1.0])
        lhs, rhs = bound_L_const_b(LAM_A, b, pa_half, 1.0)
        assert lhs == pytest.approx(rhs, abs=1e-12) and rhs == pytest.approx(1.0)
        lhs, rhs = bound_U_const_b(LAM_A, b, pa_half, 1.0)
        assert lhs == pytest.approx(rhs, abs=1e-12) and rhs == pytest.approx(1.0)

    def test_coated_sphere_lower(self, pa_half):
        lhs, rhs = bound_L_const_b(
            SymTensor.diag([10 / 7, 10 / 7]), SymTensor.diag([51 / 49, 51 / 49]), pa_half, 1.0
        )
        assert lhs == pytest.approx(1.0, abs=1e-10) and rhs == pytest.approx(1.0)

    def test_coated_sphere_upper(self, pa_half):
        lhs, rhs = bound_U_const_b(
            SymTensor.diag([7 / 5, 7 / 5]), SymTensor.diag([27 / 25, 27 / 25]), pa_half, 1.0
        )
        assert lhs == pytest.approx(1.0, abs=1e-10) and rhs == pytest.approx(1.0)

    def test_degenerate_theta_zero(self):
        pa = PhaseA(1, 2, 0.0)
        lhs, rhs = bound_L_const_b(SymTensor.diag([2.0, 2.0]), SymTensor.identity(2), pa, 1.0)
        assert lhs == pytest.approx(0.0, abs=1e-14) and rhs == 0.0


    @staticmethod
    def const_b_pair():
        # a simple laminate of (1.5, 3) at thetaA 0.5, with a constant density 1.2
        pa, pb = PhaseA(1.5, 3.0, 0.5), PhaseB(1.2, 1.2, 0.4)
        return SymTensor.diag([2.0, 2.25]), SymTensor.diag([1.3, 1.25]), pa, pb

    def test_factors_built_once_per_core(self, monkeypatch):
        # a verdict lists its tensors, then evaluates both bounds: each core's
        # factors are built once, on the pair check path and on the sweep path
        calls = []
        monkeypatch.setattr(pairbounds, "core_side", lambda pa, core: calls.append(core) or core_side(pa, core))
        report = pair_membership(*self.const_b_pair())
        assert np.isfinite([report.li_lhs, report.uj_lhs]).all()  # both bounds ran
        assert sorted(calls) == ["a1", "a2"]
        calls.clear()
        pair_memberships([self.const_b_pair() for _ in range(3)])
        assert sorted(calls) == ["a1"] * 3 + ["a2"] * 3

    def test_outer_factor_is_the_shift_by_base_identity(self):
        # each core keeps the outer factor sign (A* - base I), here with a -0.0
        # off the diagonal of A*, and each lhs has the bits of the trace chain
        # with that outer factor
        pa, bsharp = self.const_b_pair()[2], SymTensor.diag([1.3, 1.25, 1.3])
        astar = SymTensor([[2.1, -0.0, 0.1], [-0.0, 2.2, 0.0], [0.1, 0.0, 2.4]])
        record = pairbounds._inputs(astar, bsharp, pa, 1.2, 1.2)
        for core, bound in (("a1", bound_L_const_b), ("a2", bound_U_const_b)):
            base, frac, _, sign = core_side(pa, core)
            outer = sign * (astar.mat - base * np.eye(3))
            middle = SymTensor(sign * (1.2 * astar.mat - base * bsharp.mat))
            kept, es, rhs = record.const_b[core]
            assert np.array_equal(kept, outer) and np.array_equal(np.signbit(kept), np.signbit(outer))
            assert es.values == eig(middle).values and np.array_equal(es.frame, eig(middle).frame)
            assert rhs == 3 * frac * (pa.a2 - pa.a1)
            want = trace_chain([(1.2, 1), (outer, 1), (middle, -1), (outer, 1)])
            assert bound(astar, bsharp, pa, 1.2) == (want, rhs)


class TestTwoPhaseBounds:
    def test_l1_nested_laminate_equality(self, pa_half, pb_half):
        lhs, rhs = bound_L1(LAM_A, SymTensor.diag([14 / 9, 2]), pa_half, pb_half)
        assert lhs == pytest.approx(9.0, abs=1e-10)
        assert rhs == pytest.approx(9.0, abs=1e-10)

    def test_l1_degenerate_b_reduction(self, pa_half):
        # b1 = b2 kills the first right-hand term
        pb = PhaseB(2.0, 2.0, 0.7)
        _, rhs = bound_L1(LAM_A, SymTensor.diag([2.0, 2.0]), pa_half, pb)
        s = 1.0 / (4 / 3 - 1) + 1.0 / (3 / 2 - 1)
        assert rhs == pytest.approx((2.0 / 1.0) * (s - 2.0) / 3.0)

    def test_l1_interior_strict(self, pa_half, pb_half):
        lhs, rhs = bound_L1(LAM_A, SymTensor.diag([20 / 9, 2]), pa_half, pb_half)
        assert lhs == pytest.approx(15.0)
        assert lhs - rhs > 1.0

    def test_u1_disjoint_laminate_equality(self, pa_half, pb_half):
        lhs, rhs = bound_U1(LAM_A, SymTensor.diag([26 / 9, 2]), pa_half, pb_half)
        assert lhs == pytest.approx(20.0, abs=1e-10)
        assert rhs == pytest.approx(20.0, abs=1e-10)

    def test_l2_case_a_equality(self, pa_half):
        pb = PhaseB(1, 3, 0.25)
        theta = theta_from_upper_boundary(LAM_A, pa_half)
        lhs, rhs, case = bound_L2(LAM_A, SymTensor.diag([22 / 9, 5 / 2]), pa_half, pb, theta)
        assert case == "a"
        assert lhs == pytest.approx(1.4375, abs=1e-10)
        assert rhs == pytest.approx(1.4375, abs=1e-10)

    def test_l2_case_selector(self):
        # case a iff b2/a2^2 <= b1/a1^2
        theta = theta_from_upper_boundary(LAM_A, PhaseA(1, 2, 0.5))
        assert bound_L2(LAM_A, SymTensor.diag([2.0, 2.0]), PhaseA(1, 2, 0.5), PhaseB(1, 3, 0.25), theta)[2] == "a"
        assert bound_L2(LAM_A, SymTensor.diag([4.0, 4.0]), PhaseA(1, 2, 0.5), PhaseB(0.5, 3, 0.25), theta)[2] == "b"

    def test_u2_dual_forms(self):
        pa, pb = PhaseA(1, 2, 0.75), PhaseB(1, 3, 0.5)
        astar = SymTensor.diag([8 / 7, 5 / 4])
        bsharp = SymTensor.diag([116 / 49, 2.0])
        lhs, printed, step = bound_U2(astar, bsharp, pa, pb, theta_from_upper_boundary(astar, pa))
        assert lhs == pytest.approx(8.9375, abs=1e-10)
        assert printed == pytest.approx(2.875, abs=1e-10)
        assert step == pytest.approx(5.875, abs=1e-10)
        assert lhs >= step >= printed

    def test_u2_discrepancy_formula_on_grid(self):
        # the two right-hand sides differ by N b2 (a2-a1)(2 theta - 1)/a1^3
        for ta in (0.55, 0.7, 0.85):
            for tb in (0.5, 0.75, 0.9):
                for lam_shift in (0.0, 0.3, 0.8):
                    pa, pb = PhaseA(1.2, 2.5, ta), PhaseB(0.8, 2.0, tb)
                    pts = boundary_curve_sample(pa, "upper", 5)
                    lam1, lam2 = pts[int(lam_shift * 4)]
                    astar = SymTensor.diag([lam1, lam2])
                    bsharp = SymTensor(pb.b1 * 1.01 * np.eye(2))
                    theta = theta_from_upper_boundary(astar, pa)
                    lhs, printed, step = bound_U2(astar, bsharp, pa, pb, theta)
                    delta = 2 * pb.b2 * (pa.a2 - pa.a1) * (2 * theta - 1.0) / pa.a1**3
                    assert step - printed == pytest.approx(delta, abs=1e-10)

    def test_self_interacting_reduction_identity(self):
        # with b = a and B# = A*, the L1 slack is an exact positive multiple
        # of the classical lower-trace slack
        pa = PhaseA(1.0, 2.0, 0.5)
        pb = PhaseB(1.0, 2.0, 0.5)
        n = 2
        for lam1 in np.linspace(1.34, 1.49, 12):
            for lam2 in np.linspace(1.34, 1.49, 12):
                astar = SymTensor.diag([lam1, lam2])
                s = 1.0 / (lam1 - 1.0) + 1.0 / (lam2 - 1.0)
                if s > 5.0:
                    continue  # outside the phase set
                lhs, rhs = bound_L1(astar, astar, pa, pb)
                classical_slack = 5.0 - s
                u = (pa.a1 * s + 1.0) / (pa.a2 + pa.a1 * (n - 1))
                factor = n * u * pa.a1 * (pa.a2 - pa.a1) * (1.0 - pa.thetaA) / (pa.a2 + pa.a1 * (n - 1))
                assert lhs - rhs == pytest.approx(factor * classical_slack, abs=1e-10)


class TestEigenframe:
    """L1/U1 read B# on the memoised eigenframe of A*, which B# need not share."""

    @given(
        st.integers(2, 4),
        st.floats(0.5, 2.0),
        st.floats(1.1, 10.0),
        st.floats(0.5, 2.0),
        st.floats(1.0, 4.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_l1_u1_match_trace_chain_without_commuting(self, n, a1, contrast, b1, b_ratio, seed):
        rng = np.random.default_rng(seed)
        pa, pb = PhaseA(a1, a1 * contrast, 0.5), PhaseB(b1, b1 * b_ratio, 0.5)

        def frame():
            q, r = np.linalg.qr(rng.normal(size=(n, n)))
            return q * np.sign(np.diag(r))

        q = frame()
        lam = pa.a1 + (pa.a2 - pa.a1) * rng.uniform(0.01, 1.0, n)
        astar = SymTensor(q @ np.diag(lam) @ q.T)
        # b1 I < B# < (b2/a1) A*, with the gap weights in a frame of their own
        root = q @ np.diag(np.sqrt(pb.b2 / pa.a1 * lam - pb.b1)) @ q.T
        r = frame()
        bsharp = SymTensor(pb.b1 * np.eye(n) + root @ r @ np.diag(rng.uniform(0.05, 0.95, n)) @ r.T @ root)
        assume(commutator_norm(astar, bsharp) > 1e-3 * np.linalg.norm(bsharp.mat))
        shift = SymTensor(astar.mat - pa.a1 * np.eye(n))
        l1 = trace_chain([(bsharp.mat - pb.b1 * np.eye(n), 1), (shift, -2)])
        u1 = trace_chain([((pb.b2 / pa.a1) * astar.mat - bsharp.mat, 1), (shift, -2)])
        # lambda - a1 taken from eig(A*) carries an absolute error of a few
        # eps |A*|, which (A* - a1 I)^-2 turns into a relative one
        rel = 1e-12 + 8 * np.finfo(float).eps * lam.max() / (lam.min() - pa.a1)
        assert bound_L1(astar, bsharp, pa, pb)[0] == pytest.approx(l1, rel=rel)
        assert bound_U1(astar, bsharp, pa, pb)[0] == pytest.approx(u1, rel=rel)

    @staticmethod
    def lapack_calls(monkeypatch) -> list:
        # the matrices of each LAPACK call, as a (K, N, N) stack: every
        # decomposition runs through symtensor.eigh_arrays and np.linalg.eigh
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(np.array(m, ndmin=3)) or eigh(m))
        return calls

    @pytest.mark.parametrize("ta, tb", [(0.3, 0.5), (0.5, 0.7), (0.5, 0.3), (0.7, 0.5)])
    def test_membership_decomposes_three_tensors(self, monkeypatch, ta, tb):
        # one call for A*, B# and (b2/a1) A* - B# for the chain: no bound
        # decomposes a shifted copy of A* again
        pa, pb = PhaseA(1.0, 2.0, ta), PhaseB(1.0, 3.0, tb)
        lo, hi = overlap_window(pa, pb)
        astar, bsharp = simple_laminate_pair(pa, pb, 0.5 * (lo + hi), 0, 3)
        q, r = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))
        astar, bsharp = rotate(astar, q), rotate(bsharp, q)
        calls = self.lapack_calls(monkeypatch)
        report = pair_membership(astar, bsharp, pa, pb)
        assert report.region == classify_region(pa, pb) and report.verdict in ("feasible", "boundary")
        link = SymTensor(3.0 * astar.mat - bsharp.mat).mat
        assert len(calls) == 1 and np.array_equal(calls[0], [astar.mat, bsharp.mat, link])

    def test_constant_density_membership_adds_both_middle_factors(self, monkeypatch):
        # the link (b/a1) A* - B# and the middles -(b A* - a2 B#) of core a1
        # and b A* - a1 B# of core a2, in one call
        pa, b = PhaseA(1.5, 3.0, 0.4), 1.7
        spec = LaminateSpec(((0.6, 0.8), (1.0, 0.0)), (0.3, 0.7), "a2", "const_b")
        astar, bsharp = seq_A(spec, pa), seq_B_const(spec, pa, b)
        calls = self.lapack_calls(monkeypatch)
        report = pair_membership(astar, bsharp, pa, PhaseB(b, b, 0.5))
        assert report.verdict == "boundary"
        a, bs = astar.mat, bsharp.mat
        link = SymTensor(b / 1.5 * a - bs).mat
        middles = [SymTensor(-(b * a - 3.0 * bs)).mat, SymTensor(b * a - 1.5 * bs).mat]
        assert len(calls) == 1 and np.array_equal(calls[0], [a, bs, link, *middles])

    def test_unit_a1_stacks_the_link_once(self, monkeypatch):
        # b A* - a1 B#, the core-a2 middle, equals the link (b/a1) A* - B# when
        # a1 = 1; it is stacked as a middle of its own, in the one call
        pa, pb = PhaseA(1.0, 2.0, 0.5), PhaseB(1.3, 1.3, 0.5)
        calls = self.lapack_calls(monkeypatch)
        pair_membership(SymTensor.diag([1.4, 1.45]), SymTensor.diag([1.5, 1.6]), pa, pb)
        assert [len(c) for c in calls] == [5] and np.array_equal(calls[0][2], calls[0][4])

    def test_near_constant_density_builds_one_record(self, monkeypatch):
        # at 0 < b2 - b1 <= 1e-14 b1 the chain's link takes b2 and the bounds
        # of the constant density b1 find the middles of the same record: one
        # call of 5 matrices, as for b1 = b2
        pa, pb = PhaseA(1.5, 3.0, 0.5), PhaseB(1.2, 1.2000000000000002, 0.4)
        astar, bsharp = SymTensor.diag([2.0, 2.25]), SymTensor.diag([1.3, 1.25])
        calls = self.lapack_calls(monkeypatch)
        report = pair_membership(astar, bsharp, pa, pb)
        assert report.li_lhs == bound_L_const_b(astar, bsharp, pa, 1.2)[0] and np.isfinite(report.uj_lhs)
        a, bs = astar.mat, bsharp.mat
        link = SymTensor(pb.b2 / 1.5 * a - bs).mat
        middles = [SymTensor(-(1.2 * a - 3.0 * bs)).mat, SymTensor(1.2 * a - 1.5 * bs).mat]
        assert len(calls) == 1 and np.array_equal(calls[0], [a, bs, link, *middles])

    @pytest.mark.parametrize("theta_a, count", [(0.5, 4), (0.0, 4)])
    def test_homogeneous_base_skips_its_middle(self, monkeypatch, theta_a, count):
        # A* = a2 I: the core-a1 bound's base medium a2 I is A* itself, so its
        # middle factor is never inverted; at thetaA = 0 no bound runs, but the
        # record of a constant density holds both bounds all the same
        pa, pb = PhaseA(1.5, 3.0, theta_a), PhaseB(1.0, 1.0, 0.5)
        calls = self.lapack_calls(monkeypatch)
        pair_membership(SymTensor.diag([3.0, 3.0]), SymTensor.diag([1.0, 1.0]), pa, pb)
        assert [len(c) for c in calls] == [count]

    @pytest.mark.parametrize("max_dim", [3, 8])
    def test_sweep_chunk_makes_one_call_per_dimension(self, monkeypatch, max_dim):
        # every LAPACK call of a sweep, with its exact matrix count: each
        # round of a chunk's draws decomposes the direction moments of its
        # sequential laminates (the rejected seq_pp candidates too) in one
        # stack per dimension and builds its seq_pp candidates in one stack
        # per dimension; after the rounds come one stack of the verdicts'
        # tensors per dimension present (A*, B# and the chain link of every
        # row, and both middle factors of a constant density)
        count = sweeps._CHUNK + 5
        draws = sweeps.draw_composites(sweeps.make_rng(7), count, max_dim)
        calls = self.lapack_calls(monkeypatch)
        events = []
        draw_composites, draw, seq_pp_stack = sweeps.draw_composites, sweeps._draw, sweeps._seq_pp_stack

        def chunk(*args):
            events.append(("chunk",))
            return draw_composites(*args)

        def drawn(rng, max_dim):
            d, todo = draw(rng, max_dim)
            events.append(("draw", d["dim"], todo and todo[0]))
            return d, todo

        def built(specs, pas, pbs):
            events.append(("seq_pp", specs[0].dim, len(specs)))
            return seq_pp_stack(specs, pas, pbs)

        for name, wrapper in (("draw_composites", chunk), ("_draw", drawn), ("_seq_pp_stack", built)):
            monkeypatch.setattr(sweeps, name, wrapper)
        rows = sweeps.feasibility_sweep(7, count, max_dim)
        assert [(r[1], r[2]) for r in rows] == [(d["family"], d["dim"]) for d in draws]
        # the rounds of each chunk: ((dimension, kind) of each candidate, (dimension, size) of each seq_pp stack)
        chunks = []
        for event in events:
            if event[0] == "chunk":
                chunks.append([])
            elif event[0] == "draw":
                if not chunks[-1] or chunks[-1][-1][1]:  # the last round has built its seq_pp stacks
                    chunks[-1].append(([], []))
                chunks[-1][-1][0].append(event[1:])
            else:
                chunks[-1][-1][1].append(event[1:])
        expected = []
        for rounds, start in zip(chunks, range(0, count, sweeps._CHUNK), strict=True):
            chunk_draws = draws[start : start + sweeps._CHUNK]
            assert len(rounds[0][0]) == len(chunk_draws)
            assert sum(len(candidates) for candidates, _ in rounds) == len(chunk_draws) + sum(d["chain_rejections"] for d in chunk_draws)
            for candidates, stacks in rounds:
                sequential = [n for n, kind in candidates if kind in ("seq_pp", "seq_const")]
                seq_pp = [n for n, kind in candidates if kind == "seq_pp"]
                expected += [(sequential.count(n), n) for n in dict.fromkeys(sequential)]
                assert stacks == [(n, seq_pp.count(n)) for n in dict.fromkeys(seq_pp)]
            fresh = {}
            for d in chunk_draws:
                fresh[d["dim"]] = fresh.get(d["dim"], 0) + (5 if pairbounds._constant_density(d["pb"].b1, d["pb"].b2) else 3)
            expected += [(k, n) for n, k in fresh.items()]
        assert [(len(c), c.shape[1]) for c in calls] == expected
        # the seed exercises a second round and stacks of several dimensions in one round
        assert any(len(rounds) > 1 for rounds in chunks)
        assert any(len({n for n, kind in candidates if kind in ("seq_pp", "seq_const")}) > 1 for rounds in chunks for candidates, _ in rounds)

    def test_memberships_keep_eigenframes_and_const_lhs(self, monkeypatch):
        # one LAPACK call per dimension builds every pair's record, which A*
        # keeps: beta, and at b1 = b2 both constant-density sides; each report
        # is the one of judging fresh copies one pair at a time
        rng = np.random.default_rng(2)
        pa, pb, pc = PhaseA(1.5, 3.0, 0.4), PhaseB(1.0, 2.5, 0.6), PhaseB(1.2, 1.2, 0.4)
        pairs = []
        for n in (2, 3, 2, 3):
            astar, bsharp = simple_laminate_pair(pa, pb, sum(overlap_window(pa, pb)) / 2, 0, n)
            q = np.linalg.qr(rng.normal(size=(n, n)))[0]
            pairs.append((rotate(astar, q), rotate(bsharp, q), pa, pb))
            spec = LaminateSpec(tuple(map(tuple, q[: n - 1])), (1.0 / (n - 1),) * (n - 1), "a1" if n == 2 else "a2", "const_b")
            pairs.append((seq_A(spec, pa), seq_B_const(spec, pa, pc.b1), pa, pc))
        # indefinite middle factors: both bounds raise SingularFactor and the verdict is infeasible
        pairs.append((SymTensor.diag([1.4, 1.45]), SymTensor.diag([0.1, 5.0]), PhaseA(1, 2, 0.5), PhaseB(1, 1, 0.5)))
        calls = self.lapack_calls(monkeypatch)
        reports = pairbounds.pair_memberships(pairs)
        assert [c.shape[1] for c in calls] == [2, 3]
        for (astar, bsharp, a, b), report in zip(pairs, reports):
            record = derived(astar, bsharp)[(a, b.b1, b.b2)]
            assert sorted(record.const_b) == (["a1", "a2"] if b.b1 == b.b2 else [])
            assert repr(report) == repr(pair_membership(SymTensor(astar.mat), SymTensor(bsharp.mat), a, b))
        for bound in (bound_L_const_b, bound_U_const_b):
            with pytest.raises(SingularFactor):
                bound(astar, bsharp, a, 1.0)
        assert reports[-1].verdict == "infeasible"

    def test_chunk_keeps_the_lhs_each_bound_reads(self, monkeypatch):
        # after the stacked pass L1, U1 and the constant-density bounds of a
        # sweep row find their lhs kept in the pair's record: none of them is
        # evaluated one pair at a time (L2 and U2 evaluate theirs on the pair)
        pairs = [(d["astar"], d["bsharp"], d["pa"], d["pb"]) for d in sweeps.draw_composites(sweeps.make_rng(4), 40, 3)]
        pairbounds._verdict_inputs([(a, b, pa, pb.b1, pb.b2) for a, b, pa, pb in pairs], [pair[3] for pair in pairs])

        def refused(*args):
            raise AssertionError("an lhs was evaluated one pair at a time")

        monkeypatch.setattr(pairbounds, "_TRACE_LHS", {**pairbounds._TRACE_LHS, "L1": refused, "U1": refused})
        monkeypatch.setattr(pairbounds, "_const_lhs", refused)
        verdicts = [pair_membership(*pair).verdict for pair in pairs]
        assert set(verdicts) <= {"feasible", "boundary"} and any(pairbounds._constant_density(pb.b1, pb.b2) for *_, pb in pairs)
        regions = {classify_region(pa, pb) for _, _, pa, pb in pairs}
        assert {"L1U1", "L2U2"} <= regions

    def test_chunk_recovers_theta_once_per_row(self, monkeypatch):
        # judging a chunk recovers the upper-boundary fraction of each row with
        # a non-homogeneous A-medium once, however many of its bounds read it
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return theta_from_upper_boundary(*args, **kwargs)

        pairs = [(d["astar"], d["bsharp"], d["pa"], d["pb"]) for d in sweeps.draw_composites(sweeps.make_rng(4), 40, 3)]
        for module in (gclosure, pairbounds):
            monkeypatch.setattr(module, "theta_from_upper_boundary", counting)
        pair_memberships(pairs)
        live = [astar for astar, _, pa, _ in pairs if gclosure.homogeneous_value(pa) is None]
        assert len(live) == 40 and [id(a) for a in calls] == [id(a) for a in live]

    def test_mixed_chunk_matches_one_pair_at_a_time(self):
        # one chunk holding every kind of row, judged on stacked arrays, against
        # pair_membership of each pair alone on fresh tensors, field by field
        # (repr tells nan, -inf and -0.0 apart): N = 2 to 8, and N = 8 where
        # np.sum leaves left-to-right order; all four regions and a constant
        # density; B# moved off its construction; a homogeneous A-medium, an
        # A* outside its phase set and an indefinite middle factor
        rng = np.random.default_rng(30)
        pairs = []
        for d in sweeps.draw_composites(sweeps.make_rng(30), 160, 8):
            n, bsharp = d["dim"], d["bsharp"].mat
            noise = 0.05 * rng.normal(size=(n, n))
            pairs += [(d["astar"], d["bsharp"], d["pa"], d["pb"]), (SymTensor(d["astar"].mat), SymTensor(bsharp + noise + noise.T), d["pa"], d["pb"])]
        pa, pb = PhaseA(1.0, 2.0, 0.5), PhaseB(1.0, 3.0, 0.4)
        pairs += [
            (SymTensor.identity(3), SymTensor(pb.mean * np.eye(3)), PhaseA(1.0, 2.0, 1.0), pb),  # the a1 medium
            (SymTensor.diag([1.9, 1.9]), SymTensor.diag([2.0, 2.0]), pa, pb),  # above the arithmetic mean
            (SymTensor.diag([1.4, 1.45]), SymTensor.diag([0.1, 5.0]), pa, PhaseB(1.0, 1.0, 0.5)),  # indefinite middle
        ]
        copies = [(SymTensor(a.mat), SymTensor(b.mat), a_, b_) for a, b, a_, b_ in pairs]
        reports = pair_memberships(pairs)
        for report, pair in zip(reports, copies, strict=True):
            want = pair_membership(*pair)
            for field in dataclasses.fields(PairBoundReport):
                assert repr(getattr(report, field.name)) == repr(getattr(want, field.name)), field.name
        const = [pairbounds._constant_density(b.b1, b.b2) for *_, b in pairs]
        assert {r.region for r, c in zip(reports, const) if not c} == {"L1U1", "L1U2", "L2U1", "L2U2"} and any(const)
        assert {a.dim for a, *_ in pairs} == set(range(2, 9))
        assert sum(a.dim == 8 and not c and math.isfinite(r.li_lhs) for r, (a, *_), c in zip(reports, pairs, const)) > 5
        assert {r.verdict for r in reports} == {"feasible", "boundary", "infeasible"}
        assert [math.isnan(r.li_lhs) for r in reports[-2:]] == [True, True]

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_stacked_frames_and_lhs_match_the_one_pair_formulas(self, n):
        # the records of a stack have the bits of np.diag(Q^T B# Q) and of the
        # constant-density trace chain, pair by pair
        rng = np.random.default_rng(n)
        pa, pc = PhaseA(1.5, 3.0, 0.4), PhaseB(1.2, 1.2, 0.4)
        pairs = []
        for k in range(24):
            spec = LaminateSpec(tuple(map(tuple, np.linalg.qr(rng.normal(size=(n, n)))[0][:2])), (0.3, 0.7), "a2", "const_b")
            q = np.linalg.qr(rng.normal(size=(n, n)))[0]
            # B# off A*'s frame, so beta is not B#'s spectrum
            bsharp = seq_B_const(spec, pa, pc.b1).mat
            pairs.append((seq_A(spec, pa), SymTensor(0.5 * (bsharp + q @ bsharp @ q.T)), pa, pc if k % 2 else PhaseB(1.0, 2.5, 0.6)))
        copies = [(SymTensor(a.mat), SymTensor(b.mat), a_, b_) for a, b, a_, b_ in pairs]
        pair_memberships(pairs)
        for group in (pairs, copies):  # from the stacked records, then one pair at a time
            for astar, bsharp, _, pb in group:
                record = pairbounds._inputs(astar, bsharp, pa, pb.b1, pb.b2)
                es = eig(astar)
                assert np.array_equal(record.beta, np.diag(es.frame.T @ bsharp.mat @ es.frame))
                assert sorted(record.const_b) == (["a1", "a2"] if pb is pc else [])
                if pb is not pc:
                    continue
                for core, bound in (("a1", bound_L_const_b), ("a2", bound_U_const_b)):
                    base, frac, _, sign = core_side(pa, core)
                    outer = sign * (astar.mat - base * np.eye(n))
                    middle = SymTensor(sign * (pc.b1 * astar.mat - base * bsharp.mat))
                    want = trace_chain([(pc.b1, 1), (outer, 1), (middle, -1), (outer, 1)])
                    assert bound(astar, bsharp, pa, pc.b1) == (want, n * frac * (pa.a2 - pa.a1))

    def test_memberships_share_an_astar_between_partners(self):
        # one A* object judged with two B# in one call keeps only the last
        # partner's records, and each verdict is still its own
        pa, pb = PhaseA(1.0, 2.0, 0.5), PhaseB(1.0, 3.0, 0.5)
        astar = SymTensor.diag([4 / 3, 1.5])
        pairs = [(astar, SymTensor.diag([14 / 9, 2.0]), pa, pb), (astar, SymTensor.diag([20 / 9, 2.0]), pa, pb)]
        reports = pair_memberships(pairs + pairs[:1])
        assert [r.verdict for r in reports] == ["boundary", "feasible", "boundary"]
        for (a, b, _, _), report in zip(pairs, reports):
            assert repr(report) == repr(pair_membership(SymTensor(a.mat), SymTensor(b.mat), pa, pb))

    def test_record_keeps_only_the_last_partner(self):
        # A* keeps the records of one B# object at a time, which bounds what a
        # long sweep holds: an equal but distinct B# starts afresh
        pa = PhaseA(1.0, 2.0, 0.5)
        astar, bsharp = SymTensor.diag([4 / 3, 1.5]), SymTensor.diag([14 / 9, 2.0])
        first = pairbounds._inputs(astar, bsharp, pa, 1.0, 3.0)
        assert pairbounds._inputs(astar, bsharp, pa, 1.0, 3.0) is first
        twin = SymTensor(bsharp.mat)
        second = pairbounds._inputs(astar, twin, pa, 1.0, 3.0)
        assert second is not first and second.link == first.link and np.array_equal(second.beta, first.beta)
        assert derived(astar, twin) == {(pa, 1.0, 3.0): second}
        assert pairbounds._inputs(astar, bsharp, pa, 1.0, 3.0) is not first

    @pytest.mark.parametrize("bound", [bound_L1, bound_U1])
    def test_singular_shift_raises(self, bound):
        # min(lambda - a1) = 5e-14 is below 1e-14 max(lambda - a1) = 4.9e-13
        with pytest.raises(SingularFactor):
            bound(SymTensor.diag([1.0 + 5e-14, 50.0]), SymTensor.diag([2.0, 2.0]), PhaseA(1, 100, 0.5), PhaseB(1, 3, 0.5))


class TestPairMembership:
    def test_nested_laminate_boundary(self, pa_half, pb_half):
        report = pair_membership(LAM_A, SymTensor.diag([14 / 9, 2]), pa_half, pb_half)
        assert report.verdict == "boundary"
        assert report.region == "L1U1"
        assert report.li_slack == pytest.approx(0.0, abs=1e-10)

    def test_chain_violation_infeasible(self, pa_half, pb_half):
        report = pair_membership(LAM_A, SymTensor.diag([0.5, 0.5]), pa_half, pb_half)
        assert report.verdict == "infeasible"

    def test_fibre_midpoint_feasible(self, pa_half, pb_half):
        report = pair_membership(LAM_A, SymTensor.diag([20 / 9, 2]), pa_half, pb_half)
        assert report.verdict == "feasible"
        assert report.li_slack > 0 and report.uj_slack > 0

    def test_degenerate_b_uses_const_bounds(self, pa_half):
        # upper-boundary constant-b coated sphere must remain feasible
        pb = PhaseB(1.0, 1.0, 0.3)
        report = pair_membership(
            SymTensor.diag([10 / 7, 10 / 7]), SymTensor.diag([51 / 49, 51 / 49]), pa_half, pb
        )
        assert report.verdict == "boundary"

    def test_degenerate_theta_a(self):
        pa, pb = PhaseA(1, 2, 0.0), PhaseB(1, 3, 0.5)
        report = pair_membership(SymTensor.diag([2.0, 2.0]), SymTensor.diag([2.0, 2.0]), pa, pb)
        assert report.verdict == "boundary"
        report = pair_membership(SymTensor.diag([2.0, 2.0]), SymTensor.diag([2.5, 2.0]), pa, pb)
        assert report.verdict == "infeasible"

    def test_indefinite_middle_factor_infeasible(self, capsys):
        # A* is inside its phase set, but the constant-density middle factor 2 B# - A* is indefinite
        pa, pb = PhaseA(1, 2, 0.5), PhaseB(1, 1, 0.5)
        astar, bsharp = SymTensor.diag([1.4, 1.45]), SymTensor.diag([0.1, 5])
        assert g_membership(astar, pa).verdict == "inside"
        report = pair_membership(astar, bsharp, pa, pb)
        assert math.isnan(report.li_lhs) and math.isnan(report.uj_lhs)
        assert report.li_slack == report.uj_slack == -math.inf
        assert report.verdict == "infeasible"
        argv = ["pair", "check", "--a", "1,2,0.5", "--b", "1,1,0.5"]
        argv += ["--astar", "[[1.4,0],[0,1.45]]", "--bsharp", "[[0.1,0],[0,5]]"]
        assert main(argv) == 0
        assert main(argv + ["--assert"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("a, core, field", [((1, 3, 0.25), "a1", "li_slack"), ((1, 4, 0.25), "a2", "uj_slack")])
    def test_const_b_slack_on_the_bound_is_positive_zero(self, a, core, field, capsys):
        # the constant-density slacks are rhs - lhs; negating lhs - rhs would
        # report -0.0 for these coated spheres, which sit exactly on the bound
        pa, pb = PhaseA(*a), PhaseB(1, 1, 0.5)
        m, b = hs_m(pa, core, 2), hs_b(pa, 1.0, CoatingConfig(core, "const", "none"), 2)
        slack = getattr(pair_membership(SymTensor.diag([m, m]), SymTensor.diag([b, b]), pa, pb), field)
        assert slack == 0.0 and math.copysign(1.0, slack) == 1.0
        astar, bsharp = json.dumps([[m, 0.0], [0.0, m]]), json.dumps([[b, 0.0], [0.0, b]])
        argv = ["pair", "check", "--a", ",".join(map(str, a)), "--b", "1,1,0.5", "--astar", astar, "--bsharp", bsharp]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f'"{field}": 0.0' in out and "-0.0" not in out


class TestFibre:
    def test_extremes_match_laminates(self, pa_half, pb_half):
        b_low, b_high = fibre_extremes_l1u1(LAM_A, pa_half, pb_half)
        assert np.allclose(b_low.mat, np.diag([14 / 9, 2.0]), atol=1e-12)
        assert np.allclose(b_high.mat, np.diag([26 / 9, 2.0]), atol=1e-12)

    def test_mix_extremes(self, pa_half, pb_half):
        beta1, beta2, _, _ = fibre_mix(LAM_A, SymTensor.diag([14 / 9, 2]), pa_half, pb_half)
        assert beta1 == pytest.approx(0.0, abs=1e-12)
        beta1, beta2, _, _ = fibre_mix(LAM_A, SymTensor.diag([26 / 9, 2]), pa_half, pb_half)
        assert beta2 == pytest.approx(0.0, abs=1e-12)

    def test_mix_midpoint(self, pa_half, pb_half):
        beta1, beta2, b_low, b_high = fibre_mix(LAM_A, SymTensor.diag([20 / 9, 2]), pa_half, pb_half)
        assert beta1 == pytest.approx(beta2)
        assert beta1 > 0
        mix = (beta2 * b_low.mat + beta1 * b_high.mat) / (beta1 + beta2)
        assert np.allclose(mix, np.diag([20 / 9, 2.0]), atol=1e-12)

    def test_not_in_region(self):
        with pytest.raises(NotInRegion):
            fibre_mix(LAM_A, SymTensor.diag([2.0, 2.0]), PhaseA(1, 2, 0.75), PhaseB(1, 3, 0.5))

    def test_convexity_along_fibre(self, pa_half, pb_half):
        # convex combinations of feasible points on a fibre stay feasible
        rng = np.random.default_rng(3)
        b_low, b_high = fibre_extremes_l1u1(LAM_A, pa_half, pb_half)
        for _ in range(25):
            t1, t2 = np.sort(rng.uniform(0.0, 1.0, 2))
            b1m = (1 - t1) * b_low.mat + t1 * b_high.mat
            b2m = (1 - t2) * b_low.mat + t2 * b_high.mat
            for w in np.linspace(0.0, 1.0, 5):
                mix = SymTensor((1 - w) * b1m + w * b2m)
                report = pair_membership(LAM_A, mix, pa_half, pb_half)
                assert report.verdict in ("feasible", "boundary")

    def test_constructed_pairs_commute(self, pa_half, pb_half):
        b_low, b_high = fibre_extremes_l1u1(LAM_A, pa_half, pb_half)
        assert commutator_norm(LAM_A, b_low) <= 1e-10
        assert commutator_norm(LAM_A, b_high) <= 1e-10

    @pytest.mark.parametrize("n", range(3, 9))
    def test_stack_matches_single_tensors_bit_for_bit(self, n):
        # rotated lower-boundary tensors with random lamination weights
        rng = np.random.default_rng(n)
        pa, pb = PhaseA(1.0, float(rng.uniform(1.5, 50.0)), 0.3), PhaseB(1.0, 4.0, 0.5)
        mats = []
        for _ in range(6):
            w = rng.dirichlet(np.ones(n))
            lam = pa.a1 + (1.0 - pa.thetaA) / (1.0 / (pa.a2 - pa.a1) + pa.thetaA * w / pa.a1)
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            mats.append(q @ np.diag(lam) @ q.T)
        low, high = fibre_extremes_stack([SymTensor(m) for m in mats], pa, pb)
        for k, m in enumerate(mats):
            single = fibre_extremes_l1u1(SymTensor(m), pa, pb)
            reference = fibre_extremes_reference(SymTensor(m), pa, pb)
            for got, one, ref in zip((low[k], high[k]), single, reference):
                assert np.array_equal(SymTensor(got).mat, one.mat) and np.array_equal(one.mat, ref)

    def test_phase_csv_matches_the_per_sample_loop(self, capsys):
        # the stacked grid prints the bytes of the one-sample-at-a-time loop;
        # the pinned request is the one whose (arith - a1)^2 differs by an ulp
        # when a column of theta is squared as an array
        pinned = (PhaseA(0.4658539227863775, 1.4772714569762981, 0.22220226919052377), PhaseB(0.7197269353728672, 9.7553013134947, 0.7572432924227174), 2)
        checked = 0
        for pa, pb, n in [pinned, *phase_inputs(16, 200)]:
            argv = ["phase", "--a", f"{pa.a1!r},{pa.a2!r},{pa.thetaA!r}", "--b", f"{pb.b1!r},{pb.b2!r},{pb.thetaB!r}", "--n", str(n)]
            try:
                expected = phase_loop_reference(pa, pb, n)
            except ValueError:  # a boundary sample past the phase set: the grid fails too
                expected = None
            assert main(argv) == (0 if expected else 2)
            assert capsys.readouterr().out == (expected or "")
            checked += expected is not None
        assert checked >= 180

    def test_phase_grid_makes_one_lapack_call(self, monkeypatch, capsys):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
        assert main(["phase", "--a", "1,2,0.3", "--b", "1,3,0.5", "--n", "20"]) == 0
        assert calls == [(20, 2, 2)]


class TestEnergyDensity:
    def test_const_lower_saturation(self, pa_half):
        value, _ = energy_density_bounds(LAM_A, pa_half, 1.0, [1.0, 0.0], "lower")
        assert value == pytest.approx(10 / 9, abs=1e-12)

    def test_zero_vector(self, pa_half):
        value, _ = energy_density_bounds(LAM_A, pa_half, 1.0, [0.0, 0.0], "lower")
        assert value == 0.0

    def test_homogeneous_reductions(self):
        value, _ = energy_density_bounds(
            SymTensor.diag([2.0, 2.0]), PhaseA(1, 2, 0.0), 3.0, [1.0, 0.0], "lower"
        )
        assert value == pytest.approx(3.0)
        value, _ = energy_density_bounds(
            SymTensor.diag([1.0, 1.0]), PhaseA(1, 2, 1.0), 3.0, [1.0, 0.0], "upper"
        )
        assert value == pytest.approx(3.0)

    def test_const_sides_bracket_sequential_laminates(self):
        # B# v.v of every constant-density laminate lies between the two
        # sides, and core-a1 laminates meet the lower side; core-a2 laminates
        # stay clear of the upper side, so that equality is not asserted
        rng = np.random.default_rng(31)
        worst_below, worst_above, worst_core_a1 = 0.0, 0.0, 0.0
        for i in range(300):
            n = 2 + i % 2
            a1 = rng.uniform(0.2, 2.0)
            pa = PhaseA(a1, a1 * rng.uniform(1.1, 20.0), rng.uniform(0.05, 0.95))
            core = ("a1", "a2")[i % 4 // 2]
            p = int(rng.integers(1, n + 1))
            dirs = [list(d / np.linalg.norm(d)) for d in rng.normal(size=(p, n))]
            spec = LaminateSpec(dirs, list(rng.dirichlet(np.ones(p))), core, "const_b")
            b = rng.uniform(0.5, 4.0)
            astar, bsharp = seq_A(spec, pa), seq_B_const(spec, pa, b)
            v = rng.normal(size=n)
            energy = float(v @ bsharp.mat @ v)
            lower, _ = energy_density_bounds(astar, pa, b, v, "lower")
            upper, _ = energy_density_bounds(astar, pa, b, v, "upper")
            worst_below = min(worst_below, (energy - lower) / energy)
            worst_above = min(worst_above, (upper - energy) / energy)
            if core == "a1":
                worst_core_a1 = max(worst_core_a1, abs(energy - lower) / energy)
        assert worst_below >= -1e-12 and worst_above >= -1e-12, (worst_below, worst_above)
        assert worst_core_a1 <= 1e-12, worst_core_a1

    def test_theta_star_value(self):
        pa, pb = PhaseA(1, 2, 0.75), PhaseB(1, 3, 0.5)
        assert theta_star_u2(pa, pb, 0.75) == pytest.approx(1.8125)

    def test_weak_star_limits_of_the_nested_and_complement_cover_media(self):
        # theta* is lim* b/a^2 of the medium with disjoint complements, and
        # L2's level l(theta) + c that of the B-set nested in the A-set
        rng = np.random.default_rng(14)
        for _ in range(200):
            pa = PhaseA(rng.uniform(0.1, 2), rng.uniform(2.5, 500), 0.5)
            pb = PhaseB(rng.uniform(0.1, 2), rng.uniform(2.5, 50), rng.uniform(0.05, 0.95))
            theta = rng.uniform(max(pb.thetaB, 1 - pb.thetaB), 1.0)
            cover = Profile1D.from_fractions(theta, pb.thetaB, theta + pb.thetaB - 1.0)
            nested = Profile1D.from_fractions(theta, pb.thetaB, pb.thetaB)
            assert theta_star_u2(pa, pb, theta) == pytest.approx(weakstar_limits(cover, pa, pb)[5], rel=1e-13)
            c, level, _ = l2_terms(pa, pb, theta)
            assert level + c == pytest.approx(weakstar_limits(nested, pa, pb)[5], rel=1e-13)


class TestRotationInvariance:
    def test_membership_slacks_are_spectral(self):
        # every bound is a spectral function of the commuting pair, so
        # conjugating both tensors by one frame must preserve all slacks
        from homobounds.symtensor import rotate, rotation_2d

        rng = np.random.default_rng(8)
        for _ in range(40):
            pa = PhaseA(1.0, rng.uniform(1.6, 4.0), rng.uniform(0.1, 0.9))
            pb = PhaseB(1.0, rng.uniform(1.0, 4.0), rng.uniform(0.1, 0.9))
            lo = max(0.0, pa.thetaA + pb.thetaB - 1.0)
            hi = min(pa.thetaA, pb.thetaB)
            from homobounds.laminates import LaminateSpec, seq_A, seq_B_const, simple_laminate_pair

            astar, bsharp = simple_laminate_pair(pa, pb, rng.uniform(lo, hi))
            q = rotation_2d(rng.uniform(0.0, np.pi))
            plain = pair_membership(astar, bsharp, pa, pb)
            rotated = pair_membership(rotate(astar, q), rotate(bsharp, q), pa, pb)
            assert rotated.verdict == plain.verdict
            assert rotated.li_slack == pytest.approx(plain.li_slack, abs=1e-9)
            assert rotated.uj_slack == pytest.approx(plain.uj_slack, abs=1e-9)
            assert np.allclose(rotated.chain_slacks, plain.chain_slacks, atol=1e-10)

    @staticmethod
    def _assert_same_report(got, want):
        assert (got.region, got.verdict) == (want.region, want.verdict)
        scale = max(1.0, *(abs(x) for x in (want.li_lhs, want.li_rhs, want.uj_lhs, want.uj_rhs, *want.chain_slacks)))
        for name in ("li_lhs", "li_rhs", "li_slack", "uj_lhs", "uj_rhs", "uj_slack", "uj_variant_slack"):
            assert abs(getattr(got, name) - getattr(want, name)) <= 1e-12 * scale, name
        assert np.abs(np.subtract(got.chain_slacks, want.chain_slacks)).max() <= 1e-12 * scale

    @given(
        st.floats(0.5, 2.0),
        st.floats(1.1, 10.0),
        st.floats(0.05, 0.95),
        st.floats(0.5, 2.0),
        st.floats(1.0, 4.0),
        st.floats(0.05, 0.95),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_degenerate_eigenspace_rotation_3d_laminate(self, a1, contrast, ta, b1, b_ratio, tb, overlap, seed):
        # a rotated simple laminate in 3-D: A* has the arithmetic mean twice,
        # on the plane orthogonal to the lamination axis; rotating A* and B#
        # within that plane changes neither bound, only the frame the
        # eigensolver picks there
        pa, pb = PhaseA(a1, a1 * contrast, ta), PhaseB(b1, b1 * b_ratio, tb)
        lo, hi = overlap_window(pa, pb)
        astar, bsharp = simple_laminate_pair(pa, pb, lo + overlap * (hi - lo), 0, 3)
        rng = np.random.default_rng(seed)
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q = q * np.sign(np.diag(r))
        angle = rng.uniform(0.0, 2.0 * np.pi)
        c, s = np.cos(angle), np.sin(angle)
        inside = q @ np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]]) @ q.T
        astar, bsharp = rotate(astar, q), rotate(bsharp, q)
        want = pair_membership(astar, bsharp, pa, pb)
        got = pair_membership(rotate(astar, inside), rotate(bsharp, inside), pa, pb)
        self._assert_same_report(got, want)

    @given(
        st.floats(0.5, 2.0),
        st.floats(1.1, 10.0),
        st.floats(0.05, 0.95),
        st.floats(0.5, 2.0),
        st.floats(1.0, 4.0),
        st.floats(0.05, 0.95),
        st.integers(0, 5),
        st.integers(2, 3),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_degenerate_eigenspace_rotation_coated_sphere(self, a1, contrast, ta, b1, b_ratio, tb, which, n, seed):
        # an isotropic coated sphere: the whole space is one eigenspace of
        # A* = m I, so any rotation of the pair must leave the report alone
        pa, pb = PhaseA(a1, a1 * contrast, ta), PhaseB(b1, b1 * b_ratio, tb)
        cfg = [
            CoatingConfig("a2", "b2", "A_in_B"),
            CoatingConfig("a2", "b1", "A_in_Bc"),
            CoatingConfig("a1", "b1", "B_in_A"),
            CoatingConfig("a1", "b2", "Ac_in_B"),
            CoatingConfig("a1", "const", "none"),
            CoatingConfig("a2", "const", "none"),
        ][which]
        if cfg.coreB == "const":
            bval, pb = hs_b(pa, b1, cfg, n), PhaseB(b1, b1, tb)
        else:
            # core a1 two-phase spheres break the printed L1 on thetaA <= thetaB (DECISIONS.md)
            assume(admits(cfg.relation, pa, pb, True) and not (cfg.coreA == "a1" and ta <= tb))
            bval = hs_b(pa, pb, cfg, n)
        astar = SymTensor(hs_m(pa, cfg.coreA, n) * np.eye(n))
        bsharp = SymTensor(bval * np.eye(n))
        q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
        q = q * np.sign(np.diag(r))
        want = pair_membership(astar, bsharp, pa, pb)
        got = pair_membership(rotate(astar, q), rotate(bsharp, q), pa, pb)
        self._assert_same_report(got, want)

    @pytest.mark.parametrize(
        "a, b",
        [((0.5, 0.55078125, 0.9453125), (2.0, 4.0, 0.0546875)), ((0.5, 0.5546875, 0.9375), (2.0, 6.0, 0.0625))],
    )
    def test_degenerate_eigenspace_rotation_keeps_a_large_boundary_verdict(self, a, b):
        # two unlucky draws of the 3-D laminate test above, on the overlap's lower
        # end: U1's sides are ~5e4, so their rounding moved the slack across an
        # absolute 1e-9 window in about a quarter of the rotations
        pa, pb = PhaseA(*a), PhaseB(*b)
        lo, _ = overlap_window(pa, pb)
        base = simple_laminate_pair(pa, pb, lo, 0, 3)
        rng = np.random.default_rng(4)
        for _ in range(200):
            q, r = np.linalg.qr(rng.normal(size=(3, 3)))
            q = q * np.sign(np.diag(r))
            c, s = np.cos(angle := rng.uniform(0.0, 2.0 * np.pi)), np.sin(angle)
            inside = q @ np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]]) @ q.T
            astar, bsharp = rotate(base[0], q), rotate(base[1], q)
            want = pair_membership(astar, bsharp, pa, pb)
            assert want.verdict == "boundary" and want.uj_lhs > 1e4
            self._assert_same_report(pair_membership(rotate(astar, inside), rotate(bsharp, inside), pa, pb), want)


def test_nan_tensor_is_no_verdict():
    # a NaN entry used to give verdict 'infeasible' with NaN chain slacks
    args = (SymTensor([[np.nan, 0.0], [0.0, 1.5]]), SymTensor.diag([2.0, 2.0]), PhaseA(1, 2, 0.5), PhaseB(1, 3, 0.5))
    for judge in (lambda: pair_membership(*args), lambda: pair_memberships([args])):
        with pytest.raises(ValueError, match="not finite") as info:
            judge()
        assert not isinstance(info.value, (OutsideGSet, SingularFactor))
