import numpy as np
import pytest

from homobounds.pairbounds import pair_membership
from homobounds.sweeps import draw_composite, feasibility_sweep, make_rng
from homobounds.symtensor import MAX_DIM


class TestGenerator:
    def test_counter_rng_test_vectors(self):
        # the sweep generator is Philox (counter-based, 64-bit key); these
        # raw outputs pin the stream so alternate implementations can
        # reproduce sweeps bit for bit
        assert [hex(int(x)) for x in np.random.Philox(key=np.uint64(7)).random_raw(4)] == [
            "0xdf4034b829e9fba4",
            "0x4b9d10cdf8e64087",
            "0x6b8b857e506aac98",
            "0x67c7c945b1ba6e52",
        ]
        assert [hex(int(x)) for x in np.random.Philox(key=np.uint64(0)).random_raw(4)] == [
            "0x2f4ba6408e4d89b",
            "0x3dd62b0b9ca8c5b2",
            "0x1c8667a55d902e79",
            "0x907d7a052fd5b4dc",
        ]

    def test_same_seed_same_stream(self):
        d1 = draw_composite(make_rng(42))
        d2 = draw_composite(make_rng(42))
        assert d1["family"] == d2["family"]
        assert np.array_equal(d1["astar"].mat, d2["astar"].mat)
        assert np.array_equal(d1["bsharp"].mat, d2["bsharp"].mat)


class TestSweep:
    def test_all_families_feasible(self):
        rows = feasibility_sweep(3, 400)
        assert all(r[-1] in ("feasible", "boundary") for r in rows)
        assert min(min(r[4], r[5], r[6]) for r in rows) >= -1e-9
        families = {r[1] for r in rows}
        assert {"simple", "rotated_simple", "seq_const", "seq_pp"} <= families

    def test_draws_are_membership_consistent(self):
        rng = make_rng(5)
        for _ in range(50):
            d = draw_composite(rng)
            report = pair_membership(d["astar"], d["bsharp"], d["pa"], d["pb"])
            assert report.verdict in ("feasible", "boundary")


@pytest.mark.parametrize(
    "count, max_dim, seed",
    [
        pytest.param(3, MAX_DIM + 1, 0, id=f"3-{MAX_DIM + 1}"),
        pytest.param(-5, 3, 0, id="-5-3"),
        pytest.param(3, 3, -1, id="seed-1"),
        pytest.param(3, 3, 2**64, id="seed2**64"),
    ],
)
def test_sweep_rejects_arguments_out_of_range(count, max_dim, seed):
    with pytest.raises(ValueError):
        feasibility_sweep(seed, count, max_dim)


def test_sweep_argument_limits_accepted():
    assert feasibility_sweep(0, 0) == []
    assert {r[2] for r in feasibility_sweep(0, 12, MAX_DIM)} <= set(range(2, MAX_DIM + 1))
