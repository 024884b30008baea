"""Acceptance criteria, one test per criterion with a printed verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import time

import numpy as np
import pytest

from homobounds import sweeps
from homobounds.gclosure import PhaseA, theta_from_upper_boundary
from homobounds.hashin import CoatingConfig, hs_b
from homobounds.homog1d import (
    Profile1D,
    Source1D,
    bounds_1d,
    bsharp_1d,
    invert_theta_ab,
    solve_state_exact,
    weakstar_limits,
)
from homobounds.pairbounds import (
    PhaseB,
    bound_L1,
    bound_L2,
    bound_L_const_b,
    bound_U1,
    bound_U2,
    bound_U_const_b,
    fibre_extremes_l1u1,
    fibre_mix,
    pair_membership,
)
from homobounds.relaxation import classical_pattern_value, oodp_bruteforce_1d, oodp_relaxed_value_1d, DesignField1D
from homobounds.sweeps import draw_composite, feasibility_sweep, make_rng
from homobounds.symtensor import SymTensor, commutator_norm, trace_pairing_bound

import pins

PA = PhaseA(1.0, 2.0, 0.5)
PB = PhaseB(1.0, 3.0, 0.5)
UNIT_F = Source1D.constant(1.0)
NESTED = Profile1D(((0.5, True, True), (0.5, False, False)))


def report(num, description, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d}: {verdict} - {description}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {description} ({detail})"


def test_criterion_01_energy_convergence():
    start = time.monotonic()
    state = solve_state_exact(Profile1D(NESTED.cells, 256), PA, PB, UNIT_F)
    elapsed = time.monotonic() - start
    target = 7.0 / 96.0
    rel = abs(state.energyB - target) / target
    report(
        1,
        "nested 1-D energy at 256 periods within 2% of 7/96 in < 1 s",
        rel <= 0.02 and elapsed < 1.0,
        f"rel err {rel:.2e}, {elapsed:.3f} s",
    )


def test_criterion_02_const_density_saturation():
    lam_a = SymTensor.diag([4 / 3, 3 / 2])
    lam_b = SymTensor.diag([10 / 9, 1.0])
    slacks = []
    for fn in (bound_L_const_b, bound_U_const_b):
        lhs, rhs = fn(lam_a, lam_b, PA, 1.0)
        slacks.append(abs(lhs - rhs))
        assert lhs == pytest.approx(1.0, abs=1e-10) and rhs == pytest.approx(1.0, abs=1e-10)
    lhs, rhs = bound_L_const_b(SymTensor.diag([10 / 7] * 2), SymTensor.diag([51 / 49] * 2), PA, 1.0)
    slacks.append(abs(lhs - rhs))
    assert lhs == pytest.approx(1.0, abs=1e-10)
    lhs, rhs = bound_U_const_b(SymTensor.diag([7 / 5] * 2), SymTensor.diag([27 / 25] * 2), PA, 1.0)
    slacks.append(abs(lhs - rhs))
    assert lhs == pytest.approx(1.0, abs=1e-10)
    report(2, "constant-density bounds saturate on laminate and coated spheres", max(slacks) <= 1e-10, f"max |slack| {max(slacks):.2e}")


def test_criterion_03_two_phase_saturation():
    lam_a = SymTensor.diag([4 / 3, 3 / 2])
    l1 = bound_L1(lam_a, SymTensor.diag([14 / 9, 2.0]), PA, PB)
    u1 = bound_U1(lam_a, SymTensor.diag([26 / 9, 2.0]), PA, PB)
    l2 = bound_L2(lam_a, SymTensor.diag([22 / 9, 5 / 2]), PA, PhaseB(1, 3, 0.25), theta_from_upper_boundary(lam_a, PA))
    assert l1[0] == pytest.approx(9.0, abs=1e-10) and l1[1] == pytest.approx(9.0, abs=1e-10)
    assert u1[0] == pytest.approx(20.0, abs=1e-10) and u1[1] == pytest.approx(20.0, abs=1e-10)
    assert l2[0] == pytest.approx(1.4375, abs=1e-10) and l2[1] == pytest.approx(1.4375, abs=1e-10)
    worst = max(abs(l1[0] - l1[1]), abs(u1[0] - u1[1]), abs(l2[0] - l2[1]))
    report(3, "L1 9=9, U1 20=20, L2(a) 1.4375=1.4375 saturations", worst <= 1e-10, f"max |slack| {worst:.2e}")


def test_criterion_04_u2_dual_forms():
    pa, pb = PhaseA(1, 2, 0.75), PhaseB(1, 3, 0.5)
    astar = SymTensor.diag([8 / 7, 5 / 4])
    lhs, printed, step = bound_U2(astar, SymTensor.diag([116 / 49, 2.0]), pa, pb, theta_from_upper_boundary(astar, pa))
    values_ok = (
        lhs == pytest.approx(8.9375, abs=1e-10)
        and printed == pytest.approx(2.875, abs=1e-10)
        and step == pytest.approx(5.875, abs=1e-10)
        and lhs >= step - 1e-10
        and lhs >= printed - 1e-10
    )
    # symbolic discrepancy N b2 (a2-a1)(2 theta - 1)/a1^3 across a grid
    worst = 0.0
    from homobounds.gclosure import boundary_curve_sample

    for a1, a2 in ((1.0, 2.0), (1.3, 3.1)):
        for ta in (0.55, 0.7, 0.9):
            for tb in (0.45, 0.6, 0.85):
                if ta + tb <= 1.0:
                    continue
                pa = PhaseA(a1, a2, ta)
                pb = PhaseB(1.0, 2.5, tb)
                for lam1, lam2 in boundary_curve_sample(pa, "upper", 3):
                    astar = SymTensor.diag([lam1, lam2])
                    bsh = SymTensor.diag([pb.b1 * 1.05] * 2)
                    theta = theta_from_upper_boundary(astar, pa)
                    _, rp, rs = bound_U2(astar, bsh, pa, pb, theta)
                    delta = 2 * pb.b2 * (pa.a2 - pa.a1) * (2 * theta - 1.0) / pa.a1**3
                    worst = max(worst, abs((rs - rp) - delta))
    report(4, "U2 dual forms 8.9375 | 2.875 | 5.875 and grid discrepancy identity", values_ok and worst <= 1e-10, f"max grid dev {worst:.2e}")


@pytest.fixture(scope="module")
def criterion_05_rows():
    """The 10^4 sweep rows of criterion 5, computed once for its two tests."""
    return feasibility_sweep(20260809, 10_000, max_dim=3, tol=1e-9)


def test_criterion_05_randomized_feasibility_sweep(criterion_05_rows):
    rows = criterion_05_rows
    infeasible = [r for r in rows if r[-1] == "infeasible"]
    worst = min(min(r[4], r[5], r[6]) for r in rows)
    report(
        5,
        "10^4 seeded constructor composites all feasible with slack >= -1e-9",
        not infeasible and worst >= -1e-9,
        f"worst slack {worst:.2e}, infeasible {len(infeasible)}",
    )


def test_criterion_05_sweep_csv_keeps_its_bits(criterion_05_rows, monkeypatch):
    # the CLI prints criterion 5's rows, handed to it instead of a second sweep
    calls = []
    monkeypatch.setattr(sweeps, "feasibility_sweep", lambda *args: calls.append(args) or criterion_05_rows)
    assert pins.moved("sweep/criterion_5", pins.load()["sweep/criterion_5"]) == ""
    assert calls == [(20260809, 10_000, 3, 1e-9)]


def test_criterion_06_interval_optimality():
    worst = 0.0
    for target in np.linspace(14 / 9, 26 / 9, 50):
        theta_ab, profile = invert_theta_ab(PA, PB, float(target))
        direct = bsharp_1d(PA, PB, theta_ab)
        _, _, tab, harm, _, lim_ba2, _ = weakstar_limits(profile, PA, PB)
        realized = harm**2 * lim_ba2
        worst = max(worst, abs(direct - target), abs(realized - target))
    report(6, "50 targets across [14/9, 26/9] invert within 1e-12", worst <= 1e-12, f"worst {worst:.2e}")


def test_criterion_07_commutation_and_trace_pairing():
    rng = make_rng(99)
    worst_comm = 0.0
    for _ in range(300):
        draw = draw_composite(rng, 3)
        worst_comm = max(worst_comm, commutator_norm(draw["astar"], draw["bsharp"]))
    pairing_ok = True
    rng2 = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng2.integers(2, 4))
        q1, r1 = np.linalg.qr(rng2.normal(size=(n, n)))
        q1 = q1 * np.sign(np.diag(r1))
        e = SymTensor(q1 @ np.diag(np.sort(rng2.uniform(1, 5, n))) @ q1.T)
        if rng2.uniform() < 0.5:
            f = SymTensor(q1 @ np.diag(np.sort(rng2.uniform(1, 5, n))[::-1]) @ q1.T)
        else:
            q2, r2 = np.linalg.qr(rng2.normal(size=(n, n)))
            q2 = q2 * np.sign(np.diag(r2))
            f = SymTensor(q2 @ np.diag(np.linspace(1, 5, n)) @ q2.T)
        _, gap = trace_pairing_bound(e, f)
        scale = np.linalg.norm(e.mat) * np.linalg.norm(f.mat)
        gap_zero = gap <= 1e-10 * scale
        commuting = commutator_norm(e, f) <= 1e-8 * scale
        if gap_zero and not commuting:
            pairing_ok = False
        if commuting and gap > 1e-8 * scale:
            pairing_ok = False
    report(
        7,
        "constructed pairs commute (<= 1e-10) and pairing gap-zero <=> commuting on 1000 pairs",
        worst_comm <= 1e-10 and pairing_ok,
        f"worst commutator {worst_comm:.2e}",
    )


def test_criterion_08_fibre_convexity_and_mixing():
    lam_a = SymTensor.diag([4 / 3, 3 / 2])
    b_low, b_high = fibre_extremes_l1u1(lam_a, PA, PB)
    ok = np.allclose(b_low.mat, np.diag([14 / 9, 2.0]), atol=1e-12)
    ok &= np.allclose(b_high.mat, np.diag([26 / 9, 2.0]), atol=1e-12)
    mid = SymTensor(0.5 * (b_low.mat + b_high.mat))
    ok &= pair_membership(lam_a, mid, PA, PB).verdict in ("feasible", "boundary")

    rng = np.random.default_rng(17)
    worst_recon = 0.0
    for _ in range(100):
        t1, t2 = rng.uniform(0.0, 1.0, 2)
        p1 = SymTensor((1 - t1) * b_low.mat + t1 * b_high.mat)
        p2 = SymTensor((1 - t2) * b_low.mat + t2 * b_high.mat)
        for w in np.linspace(0.0, 1.0, 5):
            mix = SymTensor((1 - w) * p1.mat + w * p2.mat)
            verdict = pair_membership(lam_a, mix, PA, PB).verdict
            ok &= verdict in ("feasible", "boundary")
        beta1, beta2, lo, hi = fibre_mix(lam_a, p1, PA, PB)
        ok &= beta1 >= -1e-12 and beta2 >= -1e-12
        if beta1 + beta2 > 1e-12:
            rebuilt = (beta2 * lo.mat + beta1 * hi.mat) / (beta1 + beta2)
            worst_recon = max(worst_recon, np.abs(rebuilt - p1.mat).max())
    report(8, "fibre midpoints and 100 random fibre mixes feasible; beta reconstruction <= 1e-9", ok and worst_recon <= 1e-9, f"worst recon {worst_recon:.2e}")


def test_criterion_09_oodp_brute_force():
    start = time.monotonic()
    target = 7.0 / 96.0
    brute = oodp_bruteforce_1d(12, 6, 6, PA, PB, UNIT_F)
    relaxed = oodp_relaxed_value_1d(
        DesignField1D.constant(0.5, 12), DesignField1D.constant(0.5, 12), PA, PB, UNIT_F
    ).value
    refined = classical_pattern_value([True, False], [True, False], PA, PB, UNIT_F, 64)
    elapsed = time.monotonic() - start
    ok = (
        brute >= relaxed - 1e-12
        and relaxed == pytest.approx(target, abs=1e-14)
        and abs(refined - target) / target <= 0.02
        and elapsed < 60.0
    )
    report(
        9,
        "OODP exhaustive minimum >= relaxed 7/96; 64-period nested within 2%; < 60 s",
        ok,
        f"brute {brute:.8f}, refined rel err {abs(refined - target) / target:.2e}, {elapsed:.1f} s",
    )


def test_criterion_10_n1_reductions():
    grid = np.linspace(1.0 / 21, 20.0 / 21, 20)
    cases = {
        ("a1", "b1", "B_in_A"): (1, lambda ta, tb: tb <= ta),
        ("a2", "b2", "A_in_B"): (0, lambda ta, tb: ta <= tb),
        ("a2", "b1", "A_in_Bc"): (2, lambda ta, tb: ta + tb <= 1),
        ("a1", "b2", "Ac_in_B"): (3, lambda ta, tb: ta + tb >= 1),
    }
    worst = 0.0
    checked = 0
    for (core_a, core_b, incl), (idx, admissible) in cases.items():
        cfg = CoatingConfig(core_a, core_b, incl)
        for ta in grid:
            for tb in grid:
                if not admissible(ta, tb):
                    continue
                pa, pb = PhaseA(1.0, 2.0, float(ta)), PhaseB(1.0, 3.0, float(tb))
                expected = bounds_1d(pa, pb)[idx]
                worst = max(worst, abs(hs_b(pa, pb, cfg, 1) - expected))
                checked += 1
    report(10, "coated-sphere forms reduce to the 1-D bounds at N=1 on a 20x20 grid", worst <= 1e-12, f"{checked} points, worst {worst:.2e}")
