import tracemalloc

import mpmath
import numpy as np
import pytest

from homobounds.gclosure import PhaseA, core_side, means
from homobounds.hashin import (
    CoatingConfig,
    IncompatibleVolumes,
    UnsupportedGeometry,
    _radial_density,
    hs_b,
    hs_m,
    hs_radial_oracle,
    radial_profile_coefficients,
)
from homobounds.homog1d import bounds_1d
from homobounds.pairbounds import (
    PhaseB,
    bound_L_const_b,
    bound_U_const_b,
    l2_case,
    pair_membership,
)
from homobounds.symtensor import SymTensor

CONST_A1 = CoatingConfig("a1", "const", "none")
CONST_A2 = CoatingConfig("a2", "const", "none")


class TestEffectiveConductivity:
    def test_core_a1(self, pa_half):
        assert hs_m(pa_half, "a1", 2) == pytest.approx(10 / 7, abs=1e-13)

    def test_core_a2(self, pa_half):
        assert hs_m(pa_half, "a2", 2) == pytest.approx(7 / 5, abs=1e-13)

    def test_degenerate_fractions(self):
        assert hs_m(PhaseA(1, 2, 0.0), "a1", 2) == 2.0
        assert hs_m(PhaseA(1, 2, 1.0), "a2", 3) == 1.0

    def test_between_means(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            pa = PhaseA(rng.uniform(0.5, 2), rng.uniform(2.5, 6), rng.uniform(0.05, 0.95))
            harm, arith = means(pa)
            for core in ("a1", "a2"):
                for n in (2, 3):
                    m = hs_m(pa, core, n)
                    assert harm < m < arith

    def test_matches_50_digit_root(self):
        # the root of each defining equation, solved at 50 digits, over
        # contrasts a2/a1 from 1.0001 to 1e3 and N from 2 to 8
        rng = np.random.default_rng(1)
        for _ in range(1000):
            a1 = rng.uniform(0.1, 10.0)
            pa = PhaseA(a1, a1 * 10 ** rng.uniform(np.log10(1.0001), 3.0), rng.uniform(0.0, 1.0))
            n, core = int(rng.integers(2, 9)), ("a1", "a2")[int(rng.integers(0, 2))]
            with mpmath.workdps(50):
                a1, a2, theta = mpmath.mpf(pa.a1), mpmath.mpf(pa.a2), mpmath.mpf(pa.thetaA)
                if core == "a1":  # (m - a2)/(m + (N-1)a2) = r
                    base, r = a2, theta * (a1 - a2) / (a1 + (n - 1) * a2)
                else:  # (m - a1)/(m + (N-1)a1) = r
                    base, r = a1, (1 - theta) * (a2 - a1) / (a2 + (n - 1) * a1)
                root = base * (1 + (n - 1) * r) / (1 - r)
                assert abs(hs_m(pa, core, n) - root) <= 1e-15 * root


class TestClosedForms:
    def test_const_b_values(self, pa_half):
        assert hs_b(pa_half, 1.0, CONST_A1, 2) == pytest.approx(51 / 49, abs=1e-14)
        assert hs_b(pa_half, 1.0, CONST_A2, 2) == pytest.approx(27 / 25, abs=1e-14)

    @pytest.mark.parametrize("b", [0.0, -1.0, float("nan")])
    def test_nonpositive_const_b(self, pa_half, b):
        # the rule PhaseB applies to b1: a density is positive
        with pytest.raises(ValueError, match="b > 0"):
            hs_b(pa_half, b, CONST_A1, 2)
        with pytest.raises(ValueError, match="b > 0"):
            hs_radial_oracle(pa_half, b, CONST_A2, 2, 100)

    def test_volume_compatibility(self, pa_half):
        with pytest.raises(IncompatibleVolumes):
            hs_b(pa_half, PhaseB(1, 3, 0.75), CoatingConfig("a1", "b1", "B_in_A"), 2)

    def test_unknown_combination(self, pa_half):
        with pytest.raises(UnsupportedGeometry):
            hs_b(pa_half, PhaseB(1, 3, 0.75), CoatingConfig("a1", "b1", "A_in_B"), 2)

    def test_n1_reductions_on_grid(self):
        # the four two-phase cases reduce to the one-dimensional bounds
        # l2, l1, u1, u2 at N = 1, wherever the volumes are compatible
        grid = np.linspace(0.05, 0.95, 20)
        cases = {
            ("a1", "b1", "B_in_A"): (lambda l1, l2, u1, u2: l2, lambda ta, tb: tb <= ta),
            ("a2", "b2", "A_in_B"): (lambda l1, l2, u1, u2: l1, lambda ta, tb: ta <= tb),
            ("a2", "b1", "A_in_Bc"): (lambda l1, l2, u1, u2: u1, lambda ta, tb: ta + tb <= 1),
            ("a1", "b2", "Ac_in_B"): (lambda l1, l2, u1, u2: u2, lambda ta, tb: ta + tb >= 1),
        }
        for (core_a, core_b, incl), (select, admissible) in cases.items():
            cfg = CoatingConfig(core_a, core_b, incl)
            for ta in grid:
                for tb in grid:
                    if not admissible(ta, tb):
                        continue
                    pa, pb = PhaseA(1.0, 2.0, ta), PhaseB(1.0, 3.0, tb)
                    expected = select(*bounds_1d(pa, pb)[:4])
                    assert hs_b(pa, pb, cfg, 1) == pytest.approx(expected, abs=1e-12)


class TestRadialOracle:
    def test_matches_const_forms(self, pa_half):
        for cfg in (CONST_A1, CONST_A2):
            for n in (2, 3):
                closed = hs_b(pa_half, 1.0, cfg, n)
                assert hs_radial_oracle(pa_half, 1.0, cfg, n) == pytest.approx(closed, rel=1e-8)

    def test_matches_two_phase_forms(self):
        pa = PhaseA(1.0, 2.0, 0.55)
        cases = [
            (CoatingConfig("a1", "b1", "B_in_A"), PhaseB(1, 3, 0.3)),
            (CoatingConfig("a2", "b2", "A_in_B"), PhaseB(1, 3, 0.7)),
            (CoatingConfig("a2", "b1", "A_in_Bc"), PhaseB(1, 3, 0.3)),
            (CoatingConfig("a1", "b2", "Ac_in_B"), PhaseB(1, 3, 0.6)),
        ]
        for cfg, pb in cases:
            for n in (2, 3):
                closed = hs_b(pa, pb, cfg, n)
                assert hs_radial_oracle(pa, pb, cfg, n) == pytest.approx(closed, rel=1e-8)

    @pytest.mark.parametrize("n", [2, 3])
    def test_working_memory_is_two_quadrature_arrays(self, pa_half, n):
        # the integrand is evaluated in blocks; whole-piece temporaries took
        # over 3 MB here, four times the quadrature array
        points = 100_000
        tracemalloc.start()
        try:
            hs_radial_oracle(pa_half, PhaseB(1, 3, 0.6), CoatingConfig("a2", "b2", "A_in_B"), n, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * points

    def test_flat_profile(self):
        # equal phases make f identically 1 and b# = b
        pa = PhaseA(1.0, 1.0 + 1e-5, 0.5)
        assert hs_radial_oracle(pa, 2.0, CONST_A1, 2) == pytest.approx(2.0, rel=1e-7)

    def test_matching_coefficient(self, pa_half):
        # f value on the core for the (1,2,.5) coated sphere at N = 2
        f_core, f_const, f_decay = radial_profile_coefficients(1.0, 2.0, 0.5, 2)
        assert f_core == pytest.approx(8 / 7, abs=1e-14)
        assert f_const + f_decay == pytest.approx(1.0, abs=1e-14)

    def test_unsupported_dim(self, pa_half):
        with pytest.raises(UnsupportedGeometry):
            hs_radial_oracle(pa_half, 1.0, CONST_A1, 4)

    def test_scalar_density_needs_const_core(self, pa_half):
        cfg = CoatingConfig("a1", "b1", "B_in_A")
        for fn in (hs_b, hs_radial_oracle):
            with pytest.raises(UnsupportedGeometry):
                fn(pa_half, 1.0, cfg, 2)

    def test_incompatible_volumes(self):
        with pytest.raises(IncompatibleVolumes):
            hs_radial_oracle(PhaseA(1, 2, 0.3), PhaseB(1, 3, 0.5), CoatingConfig("a1", "b1", "B_in_A"), 2)

    @pytest.mark.parametrize("core, theta", [("a1", 0.0), ("a2", 1.0)])
    def test_degenerate_coating(self, core, theta):
        # a core of zero volume leaves a homogeneous ball: f is identically 1
        pa, cfg = PhaseA(1.0, 2.0, theta), CoatingConfig(core, "const", "none")
        assert hs_radial_oracle(pa, 1.5, cfg, 2) == 1.5
        assert abs(hs_radial_oracle(pa, 1.5, cfg, 3) - hs_b(pa, 1.5, cfg, 3)) <= 1e-8


def oracle_reference(pa, pb_or_b, cfg, n, quadrature_points):
    """hs_radial_oracle with both radial branches at every point, chosen by np.where, and each piece whole."""
    coat_val, core_vol, _, _ = core_side(pa, cfg.coreA)
    b_inner, b_outer, rb_n = _radial_density(cfg, pa, pb_or_b)
    if 0.0 < core_vol < 1.0:
        f_core, f_const, f_decay = radial_profile_coefficients(getattr(pa, cfg.coreA), coat_val, core_vol, n)
        r_a = core_vol ** (1.0 / n)
    else:
        f_core, f_const, f_decay, r_a = 1.0, 1.0, 0.0, 1.0
    r_b = rb_n ** (1.0 / n)
    edges = sorted({0.0, r_a, r_b, 1.0})
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        if hi - lo < 1e-15:
            continue
        pts = max(64, int(round(quadrature_points * (hi - lo))))
        r = lo + (np.arange(pts) + 0.5) * (hi - lo) / pts
        inside = r < r_a
        f = np.where(inside, f_core, f_const + f_decay / r**n)
        fp = np.where(inside, 0.0, -n * f_decay / r ** (n + 1))
        values = (n * f**2 + 2.0 * f * fp * r + fp**2 * r**2) * r ** (n - 1)
        b_here = b_inner if hi <= r_b + 1e-15 else b_outer
        total += b_here * np.sum(values) * (hi - lo) / pts
    return float(total)


CONFIGS = (
    CONST_A1,
    CONST_A2,
    CoatingConfig("a2", "b2", "A_in_B"),
    CoatingConfig("a1", "b1", "B_in_A"),
    CoatingConfig("a2", "b1", "A_in_Bc"),
    CoatingConfig("a1", "b2", "Ac_in_B"),
)


def _admitted_fraction(cfg, theta_a, u):
    """A thetaB in the region of cfg's relation at thetaA, from u in [0, 1)."""
    return {
        "A_in_B": theta_a + (1.0 - theta_a) * u,
        "B_in_A": theta_a * u,
        "A_in_Bc": (1.0 - theta_a) * u,
        "Ac_in_B": 1.0 - theta_a * u,
    }[cfg.inclusion]


class TestOracleBranches:
    """Each oracle piece evaluates only its own branch, with the bits of np.where over both."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda cfg: f"{cfg.coreA}-{cfg.coreB}-{cfg.inclusion}")
    def test_bits_of_both_branches_everywhere(self, cfg, n):
        rng = np.random.default_rng([n, CONFIGS.index(cfg), 9])
        for core_vol in (0.0, 1e-13, "mid", 1.0 - 1e-13, 1.0):
            for points in (1, 63, 64, "seeded", "seeded"):
                quadrature_points = int(rng.integers(2_000, 20_001)) if points == "seeded" else points
                vol = float(rng.uniform(0.05, 0.95)) if core_vol == "mid" else core_vol
                pa = PhaseA(1.0, float(rng.uniform(1.1, 20.0)), vol if cfg.coreA == "a1" else 1.0 - vol)
                if cfg.coreB == "const":
                    density = float(rng.uniform(0.5, 5.0))
                else:
                    density = PhaseB(1.0, float(rng.uniform(1.1, 20.0)), _admitted_fraction(cfg, pa.thetaA, float(rng.uniform())))
                expected = oracle_reference(pa, density, cfg, n, quadrature_points)
                assert hs_radial_oracle(pa, density, cfg, n, quadrature_points) == expected, (core_vol, quadrature_points)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("gap", [0.0, 1.5e-15, 3e-15, 6e-15, 2e-14])
    def test_bits_where_the_density_interface_meets_the_core(self, n, gap):
        # a constant density puts r_b at 0.5^(1/N); at r_a = r_b the piece between
        # them is empty, and a few 1e-15 above it the last points of the piece
        # [r_b, r_a] round up onto r_a, where the coating's branch holds
        r_b = 0.5 ** (1.0 / n)
        for cfg in (CONST_A1, CONST_A2):
            vol = 0.5 if gap == 0.0 else (r_b + gap) ** n
            pa = PhaseA(1.0, 3.0, vol if cfg.coreA == "a1" else 1.0 - vol)
            for points in (64, 10_000):
                assert hs_radial_oracle(pa, 1.3, cfg, n, points) == oracle_reference(pa, 1.3, cfg, n, points)


class TestSaturationPairings:
    def test_const_b_pairings(self, pa_half):
        m1 = hs_m(pa_half, "a1", 2)
        lhs, rhs = bound_L_const_b(
            SymTensor.diag([m1, m1]),
            SymTensor.diag([hs_b(pa_half, 1.0, CONST_A1, 2)] * 2),
            pa_half,
            1.0,
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)
        m2 = hs_m(pa_half, "a2", 2)
        lhs, rhs = bound_U_const_b(
            SymTensor.diag([m2, m2]),
            SymTensor.diag([hs_b(pa_half, 1.0, CONST_A2, 2)] * 2),
            pa_half,
            1.0,
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)

    @pytest.mark.parametrize(
        "cfg,pb,bound",
        [
            (CoatingConfig("a2", "b2", "A_in_B"), PhaseB(1, 3, 0.7), "L1"),
            (CoatingConfig("a1", "b1", "B_in_A"), PhaseB(1, 3, 0.3), "L2"),
            (CoatingConfig("a2", "b1", "A_in_Bc"), PhaseB(1, 3, 0.4), "U1"),
        ],
    )
    def test_two_phase_pairings(self, cfg, pb, bound):
        pa = PhaseA(1.0, 2.0, 0.5)
        m = hs_m(pa, cfg.coreA, 2)
        bs = hs_b(pa, pb, cfg, 2)
        pair = (SymTensor.diag([m, m]), SymTensor.diag([bs, bs]))
        report = pair_membership(*pair, pa, pb)
        assert bound in report.region
        assert abs(report.li_slack if bound.startswith("L") else report.uj_slack) <= 1e-10
        assert report.verdict in ("feasible", "boundary")

    def test_two_phase_misses(self):
        # Ac_in_B attains neither form of U2 (region L2U2 here), and B_in_A in
        # L2's case b keeps a positive L2 slack; the oracle agrees with each
        # closed form, so the slack is the construction's, not the formula's
        cases = [
            (CoatingConfig("a1", "b2", "Ac_in_B"), PhaseA(1.0, 2.0, 0.6), PhaseB(1, 3, 0.5)),
            (CoatingConfig("a1", "b1", "B_in_A"), PhaseA(1.0, 2.0, 0.5), PhaseB(1, 5, 0.3)),
        ]
        reports = []
        for cfg, pa, pb in cases:
            m, bs = hs_m(pa, cfg.coreA, 2), hs_b(pa, pb, cfg, 2)
            assert hs_radial_oracle(pa, pb, cfg, 2) == pytest.approx(bs, abs=1e-9)
            reports.append(pair_membership(SymTensor.diag([m, m]), SymTensor.diag([bs, bs]), pa, pb))
        u2, l2 = reports
        assert u2.region == "L2U2" and u2.verdict == "feasible"
        assert u2.uj_slack == pytest.approx(4.68, abs=1e-10) and u2.uj_variant_slack == pytest.approx(5.88, abs=1e-10)
        assert u2.uj_slack / u2.uj_lhs == pytest.approx(0.504, abs=1e-3)
        assert l2.region[:2] == "L2" and l2_case(*cases[1][1:]) == "b" and l2.verdict == "feasible"
        assert l2.li_slack == pytest.approx(0.09375, abs=1e-10) and l2.li_slack / l2.li_lhs == pytest.approx(0.038, abs=1e-3)

    def test_2d_documented_l1_violation(self):
        # core-a1 coated spheres are genuine relative limits (the oracle
        # agrees with the closed form) yet break the printed L1 bound on
        # {thetaA <= thetaB}; see DECISIONS.md
        from homobounds.pairbounds import bound_L1

        pa, pb = PhaseA(1.0, 5.0, 0.6), PhaseB(1.0, 1.5, 0.92)
        cfg = CoatingConfig("a1", "b2", "Ac_in_B")
        bs = hs_b(pa, pb, cfg, 2)
        assert hs_radial_oracle(pa, pb, cfg, 2) == pytest.approx(bs, rel=1e-8)
        m = hs_m(pa, "a1", 2)
        lhs, rhs = bound_L1(SymTensor.diag([m, m]), SymTensor.diag([bs, bs]), pa, pb)
        assert lhs < rhs
