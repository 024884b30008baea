import gc
import sys
import time
import tracemalloc
from itertools import chain, combinations
from math import comb

import numpy as np
import pytest

from homobounds.gclosure import PhaseA
from homobounds.homog1d import Source1D, homogenized_dirichlet, phase_means
from homobounds.pairbounds import PhaseB
from homobounds import relaxation
from homobounds.cli import main
from homobounds.relaxation import (
    DesignField1D,
    TooLarge,
    classical_pattern_value,
    odp_bruteforce_1d,
    odp_relaxed_value_1d,
    oodp_bruteforce_1d,
    oodp_relaxed_value_1d,
)

UNIT_F = Source1D.constant(1.0)


def random_design(rng):
    """Phases with a2/a1 up to 1e3, b2/b1 up to 1e2, and a piecewise source of either sign."""
    a1 = float(rng.uniform(0.1, 2.0))
    b1 = float(rng.uniform(0.1, 2.0))
    pieces = int(rng.integers(1, 5))
    breaks = (0.0, *np.sort(rng.uniform(0.05, 0.95, pieces - 1)), 1.0)
    source = Source1D(breaks, tuple(rng.uniform(-2.0, 2.0, pieces)))
    a2 = a1 * 10 ** rng.uniform(0.01, 3.0)
    b2 = b1 * (1.0 if rng.uniform() < 0.2 else 10 ** rng.uniform(0.0, 2.0))
    return a1, a2, b1, b2, source


def odp_loop_reference(cells, onesA, pa, source):
    """The single-set enumeration as its own loop, one mean of 1/a^2 per placement."""
    harm, _ = phase_means(pa.a1, pa.a2, onesA / cells)
    dirichlet = homogenized_dirichlet(harm, source)
    best_val, best_mask = np.inf, None
    for placement in combinations(range(cells), onesA):
        mask = np.zeros(cells, dtype=bool)
        mask[list(placement)] = True
        lim_inv_a2 = float(np.mean(np.where(mask, pa.a1, pa.a2) ** -2.0))
        value = lim_inv_a2 * harm**2 * dirichlet
        if value < best_val - 1e-15:
            best_val, best_mask = value, mask.copy()
    return best_val, tuple(bool(x) for x in best_mask)


def oodp_loop_reference(cells, onesA, onesB, pa, pb, source):
    """The two-set enumeration as its own loop: least lim* b/a^2 over all pattern pairs."""
    harm, _ = phase_means(pa.a1, pa.a2, onesA / cells)
    dirichlet = homogenized_dirichlet(harm, source)
    b_masks = np.array(
        [[i in placement for i in range(cells)] for placement in combinations(range(cells), onesB)],
        dtype=float,
    )
    best = np.inf
    for placement in combinations(range(cells), onesA):
        mask = np.zeros(cells, dtype=bool)
        mask[list(placement)] = True
        inv_a2 = np.where(mask, pa.a1, pa.a2) ** -2.0
        base = pb.b2 * np.sum(inv_a2) / cells
        values = base - (pb.b2 - pb.b1) * (b_masks @ inv_a2) / cells
        best = min(best, float(values.min()))
    return best * harm**2 * dirichlet


def combinations_table(cells, ones):
    """The masks of itertools.combinations(range(cells), ones), one row per placement."""
    count = comb(cells, ones)
    picked = np.fromiter(chain.from_iterable(combinations(range(cells), ones)), int, count * ones)
    table = np.zeros((count, cells), dtype=bool)
    table[np.arange(count)[:, None], picked.reshape(count, ones)] = True
    return table


class TestPlacements:
    @staticmethod
    def sizes():
        every = [(cells, ones) for cells in range(1, 15) for ones in range(cells + 1)]
        edges = [(cells, ones) for cells in range(15, 21) for ones in (0, 1, cells - 1, cells)]
        # both sides of cells/2, where the table switches to complements
        halves = [(cells, cells // 2 + shift) for cells in range(15, 21) for shift in (-1, 0, 1, 2)]
        return every + edges + halves

    def test_table_is_combinations_order(self):
        for cells, ones in self.sizes():
            blocks = list(relaxation._placements(cells, ones, comb(cells, ones)))
            assert len(blocks) == 1
            assert blocks[0].dtype == bool
            assert np.array_equal(blocks[0], combinations_table(cells, ones)), (cells, ones)

    @pytest.mark.parametrize("block_elements", [1, 7, 64, 1000, 1 << 14])
    def test_blocks_join_to_the_table(self, block_elements):
        # _pattern_minimum streams A-placements in blocks of _BLOCK_ELEMENTS // cells
        # rows; at each block size the blocks join to the unblocked table
        for cells, ones in [(1, 0), (1, 1), (5, 2), (8, 4), (9, 7), (12, 5), (13, 8), (16, 3)]:
            rows = max(1, block_elements // cells)
            blocks = list(relaxation._placements(cells, ones, rows))
            assert all(len(block) == rows for block in blocks[:-1])
            assert np.array_equal(np.concatenate(blocks), combinations_table(cells, ones))


class TestDesignField:
    def test_volume_target_enforced(self):
        with pytest.raises(ValueError):
            DesignField1D((0.2, 0.4), volume_target=0.5)

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            DesignField1D((1.2,))

    def test_nan_fraction_refused(self):
        # NaN fails both range comparisons, so it was accepted and the relaxed values came out NaN
        with pytest.raises(ValueError, match=r"^DesignField1D values must be fractions in \[0, 1\], got nan$"):
            DesignField1D((0.5, float("nan")))

    def test_nan_volume_target_refused(self):
        with pytest.raises(ValueError, match="^DesignField1D volume_target must be finite"):
            DesignField1D((0.5,), volume_target=float("nan"))


class TestOdpRelaxed:
    def test_constant_half(self):
        value = odp_relaxed_value_1d(DesignField1D.constant(0.5), PhaseA(1, 2, 0.5), UNIT_F)
        assert value == pytest.approx(5 / 96, abs=1e-15)

    def test_zero_source(self):
        value = odp_relaxed_value_1d(DesignField1D.constant(0.5), PhaseA(1, 2, 0.5), Source1D.constant(0.0))
        assert value == 0.0

    def test_theta_zero_homogeneous(self):
        # the medium is pure a2: the integrand is the plain Dirichlet density
        value = odp_relaxed_value_1d(DesignField1D.constant(0.0), PhaseA(1, 2, 0.0), UNIT_F)
        assert value == pytest.approx((1.0 / 4.0) * (1.0 / 12.0), abs=1e-15)

    def test_non_constant_field(self):
        # cells at 0 and 1 are pure phases; the value is pinned
        value = odp_relaxed_value_1d(DesignField1D((0.2, 0.0, 0.7, 1.0)), PhaseA(1, 3, 0.5), UNIT_F)
        assert value == pytest.approx(0.0395422419460881, rel=1e-15)

    def test_relaxation_identity(self):
        # integral of i# (u')^2 equals the flux-form value
        # |(a2-a_)u'|^2/(a2(a2-a1)theta) + (1/a2) int f u  on constant fields
        pa = PhaseA(1.0, 2.0, 0.5)
        theta = 0.5
        harm = 1.0 / (theta / pa.a1 + (1 - theta) / pa.a2)
        value = odp_relaxed_value_1d(DesignField1D.constant(theta), pa, UNIT_F)
        # state: u' = (1/2 - x)/harm, u = (x - x^2)/(2 harm)
        dirichlet = (1.0 / 12.0) / harm**2
        int_fu = (1.0 / 12.0) / harm
        flux_form = (pa.a2 - harm) ** 2 * dirichlet / (pa.a2 * (pa.a2 - pa.a1) * theta) + int_fu / pa.a2
        assert value == pytest.approx(flux_form, abs=1e-14)


class TestOdpBrute:
    def test_two_cells_symmetric(self):
        value, mask = odp_bruteforce_1d(2, 1, PhaseA(1, 2, 0.5), UNIT_F)
        assert value == pytest.approx(5 / 96, abs=1e-14)
        assert sum(mask) == 1

    def test_min_equals_relaxed_at_matching_fraction(self):
        value, _ = odp_bruteforce_1d(12, 6, PhaseA(1, 2, 0.5), UNIT_F)
        relaxed = odp_relaxed_value_1d(DesignField1D.constant(0.5), PhaseA(1, 2, 0.5), UNIT_F)
        assert value >= relaxed - 1e-12

    def test_cap(self):
        with pytest.raises(TooLarge):
            odp_bruteforce_1d(21, 10, PhaseA(1, 2, 0.5), UNIT_F)

    @pytest.mark.parametrize("cells, onesA", [(0, 0), (4, 5), (4, -1)])
    def test_malformed_counts(self, cells, onesA):
        with pytest.raises(ValueError, match="cells >= 1"):
            odp_bruteforce_1d(cells, onesA, PhaseA(1, 2, 0.5), UNIT_F)

    def test_matches_loop_reference(self):
        # value and argmin bit-identical to the separate single-set loop
        rng = np.random.default_rng(8)
        checked = 0
        for cells in range(1, 13):
            for onesA in range(cells + 1):
                for _ in range(5):
                    a1, a2, _, _, source = random_design(rng)
                    pa = PhaseA(a1, a2, onesA / cells)
                    assert odp_bruteforce_1d(cells, onesA, pa, source) == odp_loop_reference(cells, onesA, pa, source)
                    checked += 1
        assert checked == 450

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_matches_loop_reference_across_blocks(self, monkeypatch, block):
        # A-placements scored `block` at a time: still bit-identical to the loop
        rng = np.random.default_rng(80 + block)
        for cells in range(1, 11):
            monkeypatch.setattr(relaxation, "_BLOCK_ELEMENTS", block * cells)
            for onesA in range(cells + 1):
                a1, a2, _, _, source = random_design(rng)
                pa = PhaseA(a1, a2, onesA / cells)
                assert odp_bruteforce_1d(cells, onesA, pa, source) == odp_loop_reference(cells, onesA, pa, source)

    def test_working_memory_is_one_block(self):
        # A-placements stream in blocks of about _BLOCK_ELEMENTS / cells: the
        # whole table of 48,620 placements would hold 7 MB of 1/a^2 values,
        # and the peak stays under 1 MB
        pa = PhaseA(1.0, 2.0, 0.5)
        tracemalloc.start()
        try:
            value, mask = odp_bruteforce_1d(18, 9, pa, UNIT_F)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 8 * relaxation._BLOCK_ELEMENTS
        assert sum(mask) == 9
        assert value == pytest.approx(odp_relaxed_value_1d(DesignField1D.constant(0.5), pa, UNIT_F), rel=1e-12)

    def test_equal_energies_across_blocks_keep_the_first(self, monkeypatch):
        # 1/a^2 is 1 or 1/4, so all 70 placements score exactly the same
        # across 24 blocks of 3, and the first placement stays the argmin
        monkeypatch.setattr(relaxation, "_BLOCK_ELEMENTS", 3 * 8)
        pa = PhaseA(1.0, 2.0, 0.5)
        value, mask = odp_bruteforce_1d(8, 4, pa, UNIT_F)
        assert mask == (True,) * 4 + (False,) * 4
        assert value == odp_loop_reference(8, 4, pa, UNIT_F)[0]

    def test_refinement_approaches_relaxed(self):
        # alternating pattern at growing sub-period counts: the Dirichlet
        # energy climbs toward the relaxed value from below, with the error
        # shrinking at every refinement
        pa = PhaseA(1, 2, 0.5)
        pb = PhaseB(1.0, 1.0, 0.5)  # constant density 1: energy = Dirichlet
        relaxed = odp_relaxed_value_1d(DesignField1D.constant(0.5), pa, UNIT_F)
        maskA = [True, False]
        values = [classical_pattern_value(maskA, [True, False], pa, pb, UNIT_F, m) for m in (1, 4, 16, 64)]
        errors = [abs(v - relaxed) for v in values]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert values[-1] == pytest.approx(relaxed, rel=0.02)


class TestOodpRelaxed:
    def test_canonical(self, pa_half, pb_half):
        out = oodp_relaxed_value_1d(
            DesignField1D.constant(0.5, 4), DesignField1D.constant(0.5, 4), pa_half, pb_half, UNIT_F
        )
        assert out.value == pytest.approx(7 / 96, abs=1e-15)
        assert set(out.regions) == {"A_subset_B"}

    def test_degenerate_b_reduces_to_odp(self, pa_half):
        pb = PhaseB(2.0, 2.0, 0.4)
        out = oodp_relaxed_value_1d(
            DesignField1D.constant(0.5), DesignField1D.constant(0.4), pa_half, pb, UNIT_F
        )
        odp = odp_relaxed_value_1d(DesignField1D.constant(0.5), pa_half, UNIT_F)
        assert out.value == pytest.approx(2.0 * odp, abs=1e-14)

    def test_l2_integrand(self):
        pa, pb = PhaseA(1, 2, 0.75), PhaseB(1, 3, 0.5)
        out = oodp_relaxed_value_1d(
            DesignField1D.constant(0.75), DesignField1D.constant(0.5), pa, pb, UNIT_F
        )
        harm = 8 / 7
        l2 = harm**2 * (3 / 4 + (1 - 3) / 1 * 0.5 + 3 * (1 - 1 / 4) * 0.75)
        assert out.integrand[0] == pytest.approx(l2)
        assert out.regions == ("B_subset_A",)

    def test_minimizer_switches_at_interface(self, pa_half, pb_half):
        ta = DesignField1D((0.3, 0.4, 0.6, 0.7))
        tb = DesignField1D((0.5, 0.5, 0.5, 0.5))
        out = oodp_relaxed_value_1d(ta, tb, pa_half, pb_half, UNIT_F)
        assert out.regions == ("A_subset_B", "A_subset_B", "B_subset_A", "B_subset_A")


class TestOodpBrute:
    def test_minimum_is_relaxed_value(self, pa_half, pb_half):
        value = oodp_bruteforce_1d(12, 6, 6, pa_half, pb_half, UNIT_F)
        assert value >= 7 / 96 - 1e-12
        assert value == pytest.approx(7 / 96, abs=1e-12)

    def test_four_arrangements_nested_beats_disjoint(self, pa_half, pb_half):
        value = oodp_bruteforce_1d(2, 1, 1, pa_half, pb_half, UNIT_F)
        assert value == pytest.approx(7 / 96, abs=1e-14)
        nested = classical_pattern_value([True, False], [True, False], pa_half, pb_half, UNIT_F, 64)
        disjoint = classical_pattern_value([True, False], [False, True], pa_half, pb_half, UNIT_F, 64)
        assert nested < disjoint

    def test_zero_source(self, pa_half, pb_half):
        assert oodp_bruteforce_1d(4, 2, 2, pa_half, pb_half, Source1D.constant(0.0)) == 0.0

    def test_cap(self, pa_half, pb_half):
        with pytest.raises(TooLarge):
            oodp_bruteforce_1d(16, 8, 8, pa_half, pb_half, UNIT_F)

    @pytest.mark.parametrize("onesB", [1, 500_000])
    def test_cap_refuses_a_huge_count_at_once(self, onesB, capsys):
        # the placements are counted only up to the cap, never comb(10^6, 5 10^5) in full
        argv = ["oodp", "brute", "--a", "1,2", "--b", "1,3", "--cells", "1000000", "--kA", "500000", "--kB", str(onesB)]
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr() == ("", "error: pair enumeration is capped at 2e6 combinations\n")

    def test_capped_count_is_comb_up_to_the_cap(self):
        for n in range(0, 40):
            for k in range(0, 45):
                assert relaxation._comb_past(n, k, 5000) == min(comb(n, k), 5001)
        for bad in ((-1, 0), (3, -1)):
            with pytest.raises(ValueError):
                relaxation._comb_past(*bad, 5000)

    @pytest.mark.parametrize("cells, onesA, onesB", [(0, 0, 0), (4, 6, 2), (4, 2, 6)])
    def test_malformed_counts(self, pa_half, pb_half, cells, onesA, onesB):
        with pytest.raises(ValueError, match="cells >= 1"):
            oodp_bruteforce_1d(cells, onesA, onesB, pa_half, pb_half, UNIT_F)

    def test_matches_loop_reference(self):
        # every (cells, onesA, onesB) up to 12 cells: never below the separate
        # two-set loop, and above it only within the tie margin, got - 1e-15
        # evaluated in floating point (one ulp for energies past 8)
        rng = np.random.default_rng(9)
        checked = 0
        for cells in range(1, 13):
            for onesA in range(cells + 1):
                for onesB in range(cells + 1):
                    a1, a2, b1, b2, source = random_design(rng)
                    pa, pb = PhaseA(a1, a2, onesA / cells), PhaseB(b1, b2, onesB / cells)
                    got = oodp_bruteforce_1d(cells, onesA, onesB, pa, pb, source)
                    ref = oodp_loop_reference(cells, onesA, onesB, pa, pb, source)
                    assert got - 1e-15 <= ref <= got
                    checked += 1
        assert checked == 818

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_matches_loop_reference_across_blocks(self, monkeypatch, block):
        # A-placements scored `block` at a time, within the same tie margin
        rng = np.random.default_rng(90 + block)
        for cells in range(1, 9):
            for onesA in range(cells + 1):
                for onesB in range(cells + 1):
                    monkeypatch.setattr(relaxation, "_BLOCK_ELEMENTS", block * max(comb(cells, onesB), cells))
                    a1, a2, b1, b2, source = random_design(rng)
                    pa, pb = PhaseA(a1, a2, onesA / cells), PhaseB(b1, b2, onesB / cells)
                    got = oodp_bruteforce_1d(cells, onesA, onesB, pa, pb, source)
                    assert got - 1e-15 <= oodp_loop_reference(cells, onesA, onesB, pa, pb, source) <= got

    def test_nested_refinement_within_two_percent(self, pa_half, pb_half):
        values = [
            classical_pattern_value([True, False], [True, False], pa_half, pb_half, UNIT_F, m)
            for m in (4, 16, 64)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(7 / 96, rel=0.02)


def test_h_segment_derivative_is_negative():
    # the single-set relaxation argument: along a segment with lambda2 fixed,
    # the scalar component of h(A*) has derivative
    # (2 lambda1 - a2 - abar)/(a2 (a2 - abar)), whose numerator is
    # -(a2 - abar) - 2(abar - lambda1) < 0 for lambda1 <= abar < a2
    import sympy

    lam1, abar, a2 = sympy.symbols("lambda1 abar a2")
    numerator = 2 * lam1 - a2 - abar
    assert sympy.expand(numerator + (a2 - abar) + 2 * (abar - lam1)) == 0
    # the admissible range: lambda1 > 0, abar = lambda1 + q with q >= 0, a2 = abar + p with p > 0
    lam, p, q = sympy.Symbol("lam", positive=True), sympy.Symbol("p", positive=True), sympy.Symbol("q", nonnegative=True)
    on_range = {lam1: lam, abar: lam + q, a2: lam + q + p}
    assert (numerator / (a2 * (a2 - abar))).subs(on_range, simultaneous=True).is_negative


def test_per_cell_tuples_do_not_pile_up():
    # a tuple built from a generator is allocated at a guessed length and
    # resized; freed, it sits on the free list of its final length, which
    # nothing else draws from, so each iteration here used to keep about four blocks
    pa, pb = PhaseA(1.0, 2.0, 0.5), PhaseB(1.0, 3.0, 0.5)

    def calls(n):
        for i in range(n):
            cells = 8 + (7 * i) % 12
            theta = DesignField1D.constant(0.5, cells)
            oodp_relaxed_value_1d(theta, theta, pa, pb, UNIT_F)
            odp_bruteforce_1d(cells, 1, pa, UNIT_F)

    calls(100)
    gc.collect()  # a full collection also empties the free lists
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        calls(2000)
        growth = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert growth < 2000 * 0.5, growth
