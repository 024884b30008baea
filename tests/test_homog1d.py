import dataclasses
import gc
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homobounds.gclosure import PhaseA
from homobounds.homog1d import (
    Profile1D,
    Source1D,
    State1D,
    TargetOutsideInterval,
    bounds_1d,
    bsharp_1d,
    convergence_study,
    homogenized_energy,
    _expand_profile,
    invert_theta_ab,
    lim_b_over_a,
    overlap_window,
    solve_segments,
    solve_state_exact,
    weakstar_limits,
)
from homobounds.pairbounds import PhaseB

NESTED = Profile1D(((0.5, True, True), (0.5, False, False)))
DISJOINT = Profile1D(((0.5, True, False), (0.5, False, True)))
UNIT_F = Source1D.constant(1.0)


def random_profile(rng, max_cells=6):
    k = int(rng.integers(2, max_cells + 1))
    fracs = rng.dirichlet(np.ones(k))
    cells = tuple(
        (float(f), bool(rng.integers(0, 2)), bool(rng.integers(0, 2))) for f in fracs
    )
    return Profile1D(cells)


def solve_segments_reference(breaks, a, b, source):
    """solve_segments as first written, through numpy's convenience wrappers; kept as the bit-for-bit reference."""
    merged = np.unique(np.concatenate([breaks, np.array(source.breakpoints)]))
    seg = np.clip(np.searchsorted(breaks, merged[:-1], side="right") - 1, 0, len(a) - 1)
    s_idx = np.clip(
        np.searchsorted(np.array(source.breakpoints), merged[:-1], side="right") - 1,
        0,
        len(source.values) - 1,
    )
    a = a[seg]
    b = b[seg]
    fv = np.array(source.values)[s_idx]
    h = np.diff(merged)
    f_breaks = np.concatenate([[0.0], np.cumsum(fv * h)])[:-1]
    int_inv_a = np.sum(h / a)
    int_f_over_a = np.sum((f_breaks * h + fv * h**2 / 2.0) / a)
    c = float(int_f_over_a / int_inv_a)
    s0 = c - f_breaks
    int_sigma = s0 * h - fv * h**2 / 2.0
    int_sigma2 = s0**2 * h - s0 * fv * h**2 + fv**2 * h**3 / 3.0
    energy_b = float(np.sum(b / a**2 * int_sigma2))
    flux_b = float(np.sum(b / a * int_sigma))
    dirichlet = float(np.sum(int_sigma2 / a**2))
    z = float(-np.sum(b / a**2 * int_sigma) / int_inv_a)
    return State1D(merged, a, b, c, f_breaks, fv, z, energy_b, flux_b, dirichlet)


class TestProfiles:
    def test_fraction_sum_enforced(self):
        with pytest.raises(ValueError):
            Profile1D(((0.5, True, True), (0.4, False, False)))

    def test_json_round_trip(self):
        import json

        other = Profile1D.from_json(NESTED.to_json())
        assert other == NESTED
        data = json.loads(NESTED.to_json())
        assert set(data) == {"cells", "periods"}
        assert set(data["cells"][0]) == {"len", "inA", "inB"}


class TestWeakStarLimits:
    def test_nested(self, pa_half, pb_half):
        out = weakstar_limits(NESTED, pa_half, pb_half)
        assert out == pytest.approx((0.5, 0.5, 0.5, 4 / 3, 2.0, 0.875, 1.25))

    def test_all_in(self):
        profile = Profile1D(((1.0, True, True),))
        pa, pb = PhaseA(1, 2, 1.0), PhaseB(1, 3, 1.0)
        out = weakstar_limits(profile, pa, pb)
        assert out == pytest.approx((1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0))

    def test_disjoint(self, pa_half, pb_half):
        out = weakstar_limits(DISJOINT, pa_half, pb_half)
        assert out[2] == 0.0
        assert out[5] == pytest.approx(0.5 * 3.0 + 0.5 * 0.25)

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=80, deadline=None)
    def test_oracle_identity(self, seed):
        # profile-averaged limit equals the closed form at the profile's
        # own fractions, exactly
        rng = np.random.default_rng(seed)
        profile = random_profile(rng)
        pa = PhaseA(rng.uniform(0.5, 2), rng.uniform(2.5, 5), 0.5)
        pb = PhaseB(rng.uniform(0.5, 2), rng.uniform(2.5, 5), 0.5)
        ta, tb, tab, harm, _, lim_ba2, _ = weakstar_limits(profile, pa, pb)
        clip = lambda t: min(max(t, 0.0), 1.0)  # cell sums can overshoot by 1 ulp
        pa = PhaseA(pa.a1, pa.a2, clip(ta))
        pb = PhaseB(pb.b1, pb.b2, clip(tb))
        assert harm**2 * lim_ba2 == pytest.approx(bsharp_1d(pa, pb, tab), rel=1e-13)


class TestRelativeLimit:
    def test_lim_is_the_cell_average(self):
        # the closed form equals the cell-weighted b/a^2 at the profile's own fractions
        rng = np.random.default_rng(12)
        for _ in range(200):
            profile = random_profile(rng)
            pa = PhaseA(rng.uniform(0.1, 2), rng.uniform(2.5, 500), 0.5)
            pb = PhaseB(rng.uniform(0.1, 2), rng.uniform(2.5, 50), 0.5)
            ta, tb, tab, _, _, lim_ba2, _ = weakstar_limits(profile, pa, pb)
            assert lim_b_over_a(pa, pb, ta, tb, tab) == pytest.approx(lim_ba2, rel=1e-13)

    def test_lim_matches_50_digit_reference(self):
        # the four-cell sum against the same sum in 50-digit arithmetic at the
        # float inputs; the affine form that it replaced reached 1e-14 here
        rng = np.random.default_rng(2016)
        worst = 0.0
        for _ in range(4000):
            a1 = float(rng.uniform(0.1, 2.0))
            a2 = a1 * 10 ** rng.uniform(0.01, 3.0)
            b1 = float(rng.uniform(0.1, 2.0))
            b2 = b1 * (1.0 if rng.uniform() < 0.2 else 10 ** rng.uniform(0.0, 2.0))
            ta, tb = rng.uniform(size=2)
            tab = rng.uniform(max(0.0, ta + tb - 1.0), min(ta, tb))
            got = lim_b_over_a(PhaseA(a1, a2, ta), PhaseB(b1, b2, tb), ta, tb, tab)
            with mpmath.workdps(50):
                A1, A2, B1, B2 = (mpmath.mpf(x) ** e for x, e in ((a1, 2), (a2, 2), (b1, 1), (b2, 1)))
                TA, TB, TAB = mpmath.mpf(ta), mpmath.mpf(tb), mpmath.mpf(tab)
                ref = TAB * B1 / A1 + (TA - TAB) * B2 / A1 + (TB - TAB) * B1 / A2 + (1 - TA - TB + TAB) * B2 / A2
                worst = max(worst, float(abs(got - ref) / ref))
        assert worst < 1e-15

    def test_values(self, pa_half, pb_half):
        assert bsharp_1d(pa_half, pb_half, 0.5) == pytest.approx(14 / 9)
        assert bsharp_1d(pa_half, pb_half, 0.0) == pytest.approx(26 / 9)

    def test_degenerate_b(self, pa_half):
        pb = PhaseB(2.0, 2.0, 0.3)
        v1 = bsharp_1d(pa_half, pb, 0.1)
        v2 = bsharp_1d(pa_half, pb, 0.3)
        expected = (16 / 9) * (0.5 / 1 + 0.5 / 4) * 2.0
        assert v1 == pytest.approx(v2) == pytest.approx(expected)

    def test_flux_limit_homogeneous(self):
        pa = PhaseA(2.0, 2.0 + 1e-5, 0.5)
        pb = PhaseB(3.0, 3.0, 0.5)
        assert bsharp_1d(pa, pb, 0.25) == pytest.approx(3.0, rel=1e-5)

    def test_hs_harmonic_mean_of_b(self, pa_half, pb_half):
        # H-limit of b is below the relative limit on random profiles
        rng = np.random.default_rng(11)
        for _ in range(500):
            profile = random_profile(rng)
            _, _, _, harm, _, lim_ba2, _ = weakstar_limits(profile, pa_half, pb_half)
            b_vals = np.array([pb_half.b1 if c[2] else pb_half.b2 for c in profile.cells])
            fracs = np.array([c[0] for c in profile.cells])
            b_harm = 1.0 / np.sum(fracs / b_vals)
            assert harm**2 * lim_ba2 >= b_harm - 1e-12


class TestBounds1D:
    def test_symmetric_case(self, pa_half, pb_half):
        l1, l2, u1, u2, lsel, usel = bounds_1d(pa_half, pb_half)
        assert l1 == pytest.approx(14 / 9) and l2 == pytest.approx(14 / 9)
        assert u1 == pytest.approx(26 / 9) and u2 == pytest.approx(26 / 9)
        assert lsel == pytest.approx(14 / 9) and usel == pytest.approx(26 / 9)

    def test_u2_selected(self):
        pa, pb = PhaseA(1, 2, 0.75), PhaseB(1, 3, 0.5)
        *_, usel = bounds_1d(pa, pb)
        assert usel == pytest.approx(116 / 49)

    def test_degenerate_b_coincide(self, pa_half):
        pb = PhaseB(2.0, 2.0, 0.4)
        l1, l2, u1, u2, lsel, usel = bounds_1d(pa_half, pb)
        assert l1 == pytest.approx(l2) == pytest.approx(u1) == pytest.approx(u2)

    def test_ordering(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            pa = PhaseA(1.0, rng.uniform(1.5, 6), rng.uniform(0.05, 0.95))
            pb = PhaseB(1.0, rng.uniform(1.0, 6), rng.uniform(0.05, 0.95))
            l1, l2, u1, u2, lsel, usel = bounds_1d(pa, pb)
            assert max(l1, l2) <= min(u1, u2) + 1e-12
            assert lsel <= usel + 1e-12


class TestInversion:
    def test_extremes(self, pa_half, pb_half):
        theta, _ = invert_theta_ab(pa_half, pb_half, 14 / 9)
        assert theta == pytest.approx(0.5, abs=1e-14)
        theta, _ = invert_theta_ab(pa_half, pb_half, 26 / 9)
        assert theta == pytest.approx(0.0, abs=1e-14)

    def test_midpoint_profile(self, pa_half, pb_half):
        theta, profile = invert_theta_ab(pa_half, pb_half, 20 / 9)
        assert theta == pytest.approx(0.25, abs=1e-14)
        ta, tb, tab, harm, _, lim_ba2, _ = weakstar_limits(profile, pa_half, pb_half)
        assert tab == pytest.approx(0.25, abs=1e-14)
        assert harm**2 * lim_ba2 == pytest.approx(20 / 9, abs=1e-13)

    def test_constant_density_takes_the_midpoint(self):
        # at b1 = b2, b# does not depend on the overlap, and the drop of b#
        # per unit overlap is rounding noise: every draw takes the midpoint
        # of the overlap window, not an end or an overlap the noise picks
        rng = np.random.default_rng(1)
        for _ in range(200):
            a1, b = rng.uniform(0.5, 2.0, size=2)
            pa = PhaseA(a1, a1 * rng.uniform(1.1, 20.0), rng.uniform(0.05, 0.95))
            pb = PhaseB(b, b, rng.uniform(0.05, 0.95))
            lo, hi = overlap_window(pa, pb)
            theta, _ = invert_theta_ab(pa, pb, bsharp_1d(pa, pb, lo))
            assert theta == 0.5 * (lo + hi)
        # b2 one ulp above b1: the drop rounds to 0.0, and nothing divides by it
        pa, pb = PhaseA(1.0, 2.0, 0.6), PhaseB(1.0, 1.0 + 2**-52, 0.5)
        assert invert_theta_ab(pa, pb, bsharp_1d(pa, pb, 0.3))[0] == 0.5 * sum(overlap_window(pa, pb))

    def test_outside_interval(self, pa_half, pb_half):
        with pytest.raises(TargetOutsideInterval):
            invert_theta_ab(pa_half, pb_half, 3.5)

    def test_interval_attainment_sweep(self, pa_half, pb_half):
        targets = np.linspace(14 / 9, 26 / 9, 50)
        for target in targets:
            theta, profile = invert_theta_ab(pa_half, pb_half, float(target))
            assert bsharp_1d(pa_half, pb_half, theta) == pytest.approx(float(target), abs=1e-12)
            _, _, tab, harm, _, lim_ba2, _ = weakstar_limits(profile, pa_half, pb_half)
            assert harm**2 * lim_ba2 == pytest.approx(float(target), abs=1e-12)


class TestExactSolver:
    def test_homogeneous_energy(self):
        flat = Profile1D(((1.0, False, False),))
        pa = PhaseA(0.5, 4 / 3, 0.0)  # theta 0 puts the medium at 4/3
        pb = PhaseB(14 / 9, 14 / 9, 0.0)
        state = solve_state_exact(flat, pa, pb, UNIT_F)
        assert state.energyB == pytest.approx(7 / 96, abs=1e-15)
        assert state.u([0.0, 1.0]) == pytest.approx([0.0, 0.0], abs=1e-15)
        assert state.u(0.5) == pytest.approx(3 / 32)
        assert state.u_prime(0.25) == pytest.approx(3 * (1 - 0.5) / 8)

    def test_scalar_points_give_floats(self, pa_half, pb_half):
        state = solve_state_exact(Profile1D(NESTED.cells, 3), pa_half, pb_half, UNIT_F)
        grid = np.linspace(0.0, 1.0, 37)
        us, ups = state.u(grid), state.u_prime(grid)
        for x, u, up in zip(grid, us, ups):
            assert type(state.u(x)) is float and state.u(x) == u
            assert type(state.u_prime(x)) is float and state.u_prime(x) == up
        assert state.u(grid[:1]).shape == state.u_prime(grid[:1]).shape == (1,)

    def test_u_at_breakpoints(self):
        # pinned values; the source break at 0.4 sits one ulp from a cell edge
        profile = Profile1D([(0.2, True, False), (0.5, False, True), (0.3, True, True)], 3)
        source = Source1D((0.0, 0.4, 1.0), (1.0, -0.5))
        state = solve_state_exact(profile, PhaseA(1.0, 3.0, 0.5), PhaseB(1.0, 2.0, 0.5), source)
        expected = [
            0.0, 0.012999999999999994, 0.01735185185185184, 0.011851851851851836,
            0.0026296296296296155, 0.0026296296296296124, -0.004592592592592612,
            -0.010925925925925952, -0.012370370370370403, -0.010333333333333368,
            -4.336808689942018e-17,
        ]
        assert len(state.breakpoints) == len(expected)
        assert state.u(state.breakpoints) == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_expand_profile_matches_loop(self):
        # the broadcast breakpoints are bit-identical to one (k + edge)/n per segment
        rng = np.random.default_rng(13)
        pa, pb = PhaseA(1.0, 2.0, 0.5), PhaseB(1.0, 3.0, 0.5)
        for _ in range(100):
            n = int(rng.integers(1, 1101))
            profile = Profile1D(random_profile(rng, max_cells=8).cells, n)
            fracs = [f for f, _, _ in profile.cells]
            edges = np.concatenate([[0.0], np.cumsum(fracs)])
            edges[-1] = 1.0
            breaks = [0.0] + [(k + edges[i + 1]) / n for k in range(n) for i in range(len(fracs))]
            a = [pa.a1 if in_a else pa.a2 for _ in range(n) for _, in_a, _ in profile.cells]
            b = [pb.b1 if in_b else pb.b2 for _ in range(n) for _, _, in_b in profile.cells]
            got = _expand_profile(profile, pa, pb)
            assert all(np.array_equal(x, np.array(y)) for x, y in zip(got, (breaks, a, b)))

    def test_solve_segments_matches_reference(self):
        # every State1D field bit for bit (signs of zeros included, and repr
        # keeps a scalar's last digit) on profiles of 1-40 cells, 1-1024 periods and sources of 1-4 pieces,
        # some of whose breakpoints fall on a cell edge
        rng = np.random.default_rng(18)
        fields = [f.name for f in dataclasses.fields(State1D)]
        for case in range(300):
            cells = int(rng.integers(1, 41))
            fracs = rng.dirichlet(np.ones(cells))
            profile = Profile1D(
                [(f, bool(rng.integers(0, 2)), bool(rng.integers(0, 2))) for f in fracs.tolist()],
                int(2 ** rng.uniform(0, 10)) if case % 3 else 1,
            )
            pieces = int(rng.integers(1, 5))
            inner = np.sort(rng.choice([0.25, 0.5, float(rng.uniform(0.01, 0.99))], pieces - 1, replace=False))
            source = Source1D((0.0, *inner.tolist(), 1.0), tuple(rng.uniform(-2.0, 2.0, pieces).tolist()))
            a1 = float(rng.uniform(0.1, 2.0))
            pa = PhaseA(a1, a1 * 10 ** rng.uniform(0.01, 3.0), 0.5)
            b1 = float(rng.uniform(0.1, 2.0))
            pb = PhaseB(b1, b1 * 10 ** rng.uniform(0.0, 2.0), 0.5)
            expanded = _expand_profile(profile, pa, pb)
            got, want = solve_segments(*expanded, source), solve_segments_reference(*expanded, source)
            for name in fields:
                x, y = getattr(got, name), getattr(want, name)
                if isinstance(y, np.ndarray):
                    assert x.dtype == y.dtype and np.array_equal(x, y), (case, name)
                    assert np.array_equal(np.signbit(x), np.signbit(y)), (case, name)
                else:
                    assert type(x) is type(y) and repr(x) == repr(y), (case, name)

    @pytest.mark.parametrize(
        "breakpoints, values, field",
        [
            pytest.param((0.0, float("nan"), 1.0), (1.0, 2.0), "breakpoints", id="nan-breakpoint"),
            pytest.param((0.0, 1.0), (float("inf"),), "values", id="inf-value"),
        ],
    )
    def test_source_refuses_non_finite_input(self, breakpoints, values, field):
        # both were accepted, and the exact solver then returned energies of NaN
        with pytest.raises(ValueError, match=f"^Source1D {field} must be finite"):
            Source1D(breakpoints, values)

    def test_zero_source(self, pa_half, pb_half):
        state = solve_state_exact(NESTED, pa_half, pb_half, Source1D.constant(0.0))
        assert state.energyB == 0.0
        assert state.fluxB == 0.0

    def test_adjoint_flux_constant(self, pa_half, pb_half):
        # z = a p' - b u' with zero-mean p' reproduces the adjoint constant:
        # z * int(1/a) + int(b u'/a) = 0
        state = solve_state_exact(NESTED, pa_half, pb_half, UNIT_F)
        h = np.diff(state.breakpoints)
        int_inv_a = np.sum(h / state.a)
        xs = state.breakpoints
        # quadrature check of int (b/a) u' with many points
        grid = np.linspace(0, 1, 20001)[:-1] + 0.5 / 20000
        up = state.u_prime(grid)
        idx = np.clip(np.searchsorted(state.breakpoints, grid, side="right") - 1, 0, len(state.a) - 1)
        int_bua = np.sum(state.b[idx] / state.a[idx] * state.a[idx] * up**2) / 20000  # placeholder symmetry
        int_b_up_over_a = np.sum(state.b[idx] * up / state.a[idx]) / 20000
        assert state.z_adjoint * int_inv_a + int_b_up_over_a == pytest.approx(0.0, abs=1e-6)

    def test_energy_convergence_nested(self, pa_half, pb_half):
        state = solve_state_exact(Profile1D(NESTED.cells, 256), pa_half, pb_half, UNIT_F)
        assert state.energyB == pytest.approx(7 / 96, rel=0.02)

    def test_quadrature_agreement(self, pa_half, pb_half):
        # exact piecewise energy equals a fine quadrature of b (u')^2
        state = solve_state_exact(Profile1D(NESTED.cells, 3), pa_half, pb_half, UNIT_F)
        grid = np.linspace(0, 1, 60001)[:-1] + 0.5 / 60000
        up = state.u_prime(grid)
        idx = np.clip(np.searchsorted(state.breakpoints, grid, side="right") - 1, 0, len(state.a) - 1)
        quad = np.sum(state.b[idx] * up**2) / 60000
        assert quad == pytest.approx(state.energyB, rel=1e-7)


class TestConvergence:
    def test_nested_table(self, pa_half, pb_half):
        rows = convergence_study(NESTED, pa_half, pb_half, UNIT_F, [4, 16, 64, 256])
        rels = [r[4] for r in rows]
        assert rels[-1] <= 0.02
        assert all(b < a for a, b in zip(rels, rels[1:]))

    def test_homogeneous_profile_zero_error(self):
        flat = Profile1D(((1.0, True, True),))
        pa, pb = PhaseA(1, 2, 1.0), PhaseB(1, 3, 1.0)
        rows = convergence_study(flat, pa, pb, UNIT_F, [1, 8])
        assert all(r[3] <= 1e-14 for r in rows)

    def test_disjoint_target(self, pa_half, pb_half):
        assert homogenized_energy(DISJOINT, pa_half, pb_half, UNIT_F) == pytest.approx(13 / 96)
        rows = convergence_study(DISJOINT, pa_half, pb_half, UNIT_F, [256])
        assert rows[0][4] <= 0.02

    def test_error_trend_order_epsilon(self, pa_half, pb_half):
        # a source discontinuity off the period grid exposes the generic
        # first-order rate: doubling ratios sit in a loose band around 1/2
        src = Source1D((0.0, 1 / 3, 1.0), (1.0, 2.5))
        rows = convergence_study(NESTED, pa_half, pb_half, src, [16, 32, 64, 128, 256])
        errs = [r[3] for r in rows]
        for a, b in zip(errs, errs[1:]):
            assert 0.3 <= b / a <= 0.7

    def test_aligned_profiles_superconverge(self, pa_half, pb_half):
        # full periods with a constant source cancel the first-order term;
        # doubling ratios drop to ~1/4, comfortably inside the 2% target
        asym = Profile1D(((0.35, True, True), (0.65, False, False)))
        rows = convergence_study(asym, pa_half, pb_half, UNIT_F, [16, 32, 64, 128, 256])
        errs = [r[3] for r in rows]
        for a, b in zip(errs, errs[1:]):
            assert b / a <= 0.3


def _blocks_per_iteration(calls, n=2000):
    """Allocated blocks kept per iteration of `calls` with the cyclic GC off."""
    calls(100)
    gc.collect()  # a full collection also empties the free lists
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        calls(n)
        return (sys.getallocatedblocks() - before) / n
    finally:
        gc.enable()


def test_state_path_tuples_do_not_pile_up():
    # the profile's cells, the source's breakpoints and values and the
    # period expansion build no tuple from a generator; built so, each
    # iteration here kept about four blocks on the tuple free lists
    pa, pb = PhaseA(1.0, 2.0, 0.5), PhaseB(1.0, 3.0, 0.5)

    def calls(n):
        for i in range(n):
            k = 2 + i % 7
            profile = Profile1D([(1.0 / k, j % 2 == 0, j % 3 == 0) for j in range(k)], 1 + i % 5)
            solve_state_exact(profile, pa, pb, Source1D([0.0, 1 / 3, 1.0], [1.0, 2.5]))

    growth = _blocks_per_iteration(calls)
    assert growth < 0.5, f"{growth:.2f} blocks per iteration"


def test_bounds_path_tuples_do_not_pile_up():
    # bounds_1d and the profile that invert_theta_ab builds come from lists
    pa = PhaseA(1.0, 2.0, 0.5)

    def calls(n):
        for i in range(n):
            pb = PhaseB(1.0, 3.0, 0.1 + 0.8 * (i % 9) / 8)
            *_, l_sel, u_sel = bounds_1d(pa, pb)
            invert_theta_ab(pa, pb, l_sel + (u_sel - l_sel) * (i % 5) / 4)

    growth = _blocks_per_iteration(calls)
    assert growth < 0.5, f"{growth:.2f} blocks per iteration"
