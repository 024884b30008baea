import numpy as np
import pytest

from homobounds import sweeps
from homobounds.cli import main
from homobounds.gclosure import PhaseA
from homobounds.hashin import hs_b
from homobounds.laminates import ChainViolation
from homobounds.pairbounds import DimensionMismatch, PhaseB, pair_membership, pair_memberships
from homobounds.sweeps import _CHUNK, draw_composite, draw_composites, feasibility_sweep, make_rng
from homobounds.symtensor import MAX_DIM, SymTensor

import pins


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


def row_by_row_reference(seed: int, count: int, max_dim: int) -> list:
    """The sweep's rows with each draw judged as it is made, on fresh copies of its tensors."""
    rng = make_rng(seed)
    rows = []
    for i in range(count):
        d = draw_composite(rng, max_dim)
        report = pair_membership(SymTensor(d["astar"].mat), SymTensor(d["bsharp"].mat), d["pa"], d["pb"])
        rows.append((i, d["family"], d["dim"], report.region, min(report.chain_slacks), report.li_slack, report.uj_slack, report.verdict))
    return rows


@pytest.mark.parametrize("max_dim", [2, 3, 8])
def test_chunked_sweep_matches_row_by_row(max_dim):
    # repr tells nan, -inf and -0.0 apart, so equal reprs are equal bits
    counts = [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3]
    reference = [repr(row) for row in row_by_row_reference(11, max(counts), max_dim)]
    for count in counts:
        rows = feasibility_sweep(11, count, max_dim)
        assert [repr(row) for row in rows] == reference[:count]
    assert len({row[2] for row in rows[:_CHUNK]}) == max_dim - 1  # dimensions share a chunk


def test_memberships_refuse_a_dimension_mismatch_before_any_link():
    pa, pb = PhaseA(1, 2, 0.5), PhaseB(1, 3, 0.5)
    good = (SymTensor.diag([1.4, 1.45]), SymTensor.diag([2.0, 2.0]), pa, pb)
    astar, bsharp = SymTensor.diag([1.5, 1.5]), SymTensor.diag([2.0, 2.0, 2.0])
    with pytest.raises(DimensionMismatch, match=r"^A\* is 2x2, B# is 3x3$"):
        pair_memberships([good, (astar, bsharp, pa, pb)])
    assert astar._derived is None and not astar.decomposed


def test_pair_check_names_a_dimension_mismatch(capsys):
    argv = ["pair", "check", "--a", "1,2,0.5", "--b", "1,3,0.5", "--astar", "[[1.5,0],[0,1.5]]"]
    assert main(argv + ["--bsharp", "[[2,0,0],[0,2,0],[0,0,2]]"]) == 2
    assert capsys.readouterr() == ("", "error: A* is 2x2, B# is 3x3\n")


PINS = pins.load()


@pytest.mark.parametrize("max_dim", [3, 8], ids=["max-dim-3", "max-dim-8"])
def test_sweep_csv_is_bit_identical(max_dim):
    # the 10^4-row seed-7 CSV, pinned since before sweeps were chunked
    name = f"sweep/seed_7_max_dim_{max_dim}"
    got = pins.replay(PINS[name]["argv"])
    assert pins.moved(name, PINS[name], pins.digests(got)) == ""
    # the pinned rows span every dimension the sweep draws
    assert sorted({int(line.split(",")[2]) for line in got["stdout"].splitlines()[1:]}) == list(range(2, max_dim + 1))


@pytest.mark.parametrize("max_dim", [2, 3, 8])
def test_draw_bits_are_pinned(max_dim):
    # pinned with draw_composite before the draws were built in stacks; the
    # stacked draws consume the stream as consecutive single draws do
    for how in ("one_per_seed", "one_stream"):
        name = f"draws/{how}_max_dim_{max_dim}"
        assert pins.moved(name, PINS[name]) == ""


def test_coated_draw_evaluates_b_once(monkeypatch):
    # b# is evaluated for the coating the generator picks, not for every admissible one
    calls = []
    monkeypatch.setattr(sweeps, "hs_b", lambda *args: calls.append(args) or hs_b(*args))
    draws = draw_composites(make_rng(3), 200, 3)
    coated = [d for d in draws if d["family"].startswith("coated")]
    assert len(calls) == len(coated) > 20
    for d, (pa, density, cfg, n) in zip(coated, calls):
        assert d["pa"] is pa and d["family"] == f"coated_{cfg.coreA}_{cfg.coreB}" and n == d["dim"]
        assert d["bsharp"] == SymTensor(hs_b(pa, density, cfg, n) * np.eye(n))


def test_chunk_ending_on_rejected_candidates_draws_the_shortfall(monkeypatch):
    # seed 107: the first 12 candidates end on two complement_cover laminates
    # that break the bounds chain; only the shortfall is drawn in further
    # rounds, and each draw, its redraw count too, has the bits of drawing
    # one composite at a time, which leaves the stream where the chunk does
    single = make_rng(107)
    reference = [draw_composite(single) for _ in range(12)]
    candidates, rejected = [], set()
    draw, seq_pp_stack = sweeps._draw, sweeps._seq_pp_stack

    def drawn(rng, max_dim):
        candidates.append(draw(rng, max_dim))
        return candidates[-1]

    def built(specs, pas, pbs):
        out = seq_pp_stack(specs, pas, pbs)
        rejected.update(id(spec) for spec, result in zip(specs, out) if isinstance(result, ChainViolation))
        return out

    monkeypatch.setattr(sweeps, "_draw", drawn)
    monkeypatch.setattr(sweeps, "_seq_pp_stack", built)
    rng = make_rng(107)
    draws = draw_composites(rng, 12, 3)
    tail = [todo for _, todo in candidates[10:12]]
    assert all(todo[0] == "seq_pp" and todo[1].relation == "complement_cover" and id(todo[1]) in rejected for todo in tail)
    assert len(candidates) == 12 + sum(d["chain_rejections"] for d in draws) > 14
    for got, want in zip(draws, reference, strict=True):
        assert [got[k] for k in ("family", "dim", "pa", "pb", "chain_rejections")] == [want[k] for k in ("family", "dim", "pa", "pb", "chain_rejections")]
        assert got["astar"]._m.tobytes() + got["bsharp"]._m.tobytes() == want["astar"]._m.tobytes() + want["bsharp"]._m.tobytes()
    assert rng.random() == single.random()
