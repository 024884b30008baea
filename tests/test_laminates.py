import gc
import json
import sys

import mpmath
import numpy as np
import pytest

from homobounds.gclosure import DEFAULT_TOL, PhaseA, core_side, g_membership, homogeneous_value, means
from homobounds.hashin import CoatingConfig, hs_b, hs_m
from homobounds.laminates import (
    ChainViolation,
    InconsistentSpec,
    LaminateSpec,
    OverlapOutOfWindow,
    RegionMismatch,
    overlap_window,
    _seq_const_stack,
    _seq_pp_stack,
    seq_A,
    seq_B_const,
    seq_B_pp,
    seq_pair_pp,
    simple_laminate_pair,
)
from homobounds.pairbounds import RELATIONS, PhaseB, admits, general_chain_check, pair_membership
from homobounds.symtensor import SymTensor, commutator_norm, eig, rotate, rotation_2d

E1 = (1.0, 0.0)
E2 = (0.0, 1.0)


class TestSpecValidation:
    def test_unit_vectors(self):
        with pytest.raises(InconsistentSpec):
            LaminateSpec(((1.0, 1.0),), (1.0,), "a2", "const_b")

    def test_weights_sum(self):
        with pytest.raises(InconsistentSpec):
            LaminateSpec((E1, E2), (0.5, 0.6), "a2", "const_b")

    def test_json_round_trip(self):
        spec = LaminateSpec((E1, E2), (0.7, 0.3), "a1", "B_subset_A")
        other = LaminateSpec.from_json(spec.to_json())
        assert other == spec
        # exact wire field names
        import json

        data = json.loads(spec.to_json())
        assert set(data) == {"directions", "weights", "core", "relation"}

    @pytest.mark.parametrize(
        "directions, weights",
        [
            ([1], [1]),
            (5, [1]),
            ([[1, 0]], 5),
            ([[None, 1]], [1]),
            ([["x", 0]], [1]),
            ([[1, 0], [1]], [0.5, 0.5]),
        ],
    )
    def test_wrong_shapes(self, directions, weights):
        with pytest.raises(InconsistentSpec):
            LaminateSpec(directions, weights, "a2", "const_b")

    @pytest.mark.parametrize("b", [0.0, -1.0, float("nan")])
    def test_nonpositive_const_b(self, pa_half, b):
        spec = LaminateSpec((E1,), (1.0,), "a2", "const_b")
        with pytest.raises(ValueError, match="b > 0"):
            seq_B_const(spec, pa_half, b)

    @pytest.mark.parametrize("key", ["directions", "weights", "core", "relation"])
    def test_json_missing_key_is_named(self, key):
        data = {"directions": [E1], "weights": [1.0], "core": "a2", "relation": "const_b"}
        del data[key]
        with pytest.raises(InconsistentSpec, match=f"laminate spec: '{key}'"):
            LaminateSpec.from_json(json.dumps(data))

    def test_moment_decomposed_once_per_spec(self, pa_half, pb_half, monkeypatch):
        decomposed = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: decomposed.extend(np.array(m, ndmin=3)) or eigh(m))
        spec = LaminateSpec((E1, (0.6, 0.8)), (0.4, 0.6), "a2", "A_subset_B")
        seq_A(spec, pa_half)
        seq_B_const(spec, pa_half, 1.5)
        seq_B_pp(spec, pa_half, pb_half)
        assert spec.moment is spec.moment
        assert sum(np.array_equal(m, spec.moment.mat) for m in decomposed) == 1


class TestOverlapWindow:
    @pytest.mark.parametrize(
        "ta,tb,expected",
        [((0.5), 0.5, (0.0, 0.5)), (0.75, 0.5, (0.25, 0.5)), (1.0, 0.3, (0.3, 0.3))],
    )
    def test_windows(self, ta, tb, expected):
        pa = PhaseA(1, 2, ta)
        pb = PhaseB(1, 3, tb)
        assert overlap_window(pa, pb) == pytest.approx(expected)


class TestSimpleLaminate:
    def test_nested(self, pa_half, pb_half):
        astar, bsharp = simple_laminate_pair(pa_half, pb_half, 0.5)
        assert np.allclose(astar.mat, np.diag([4 / 3, 1.5]))
        assert np.allclose(bsharp.mat, np.diag([14 / 9, 2.0]))

    def test_disjoint(self, pa_half, pb_half):
        _, bsharp = simple_laminate_pair(pa_half, pb_half, 0.0)
        assert bsharp.mat[0, 0] == pytest.approx(26 / 9)

    def test_const_b(self, pa_half):
        pb = PhaseB(1.0, 1.0, 0.5)
        _, bsharp = simple_laminate_pair(pa_half, pb, 0.5)
        assert np.allclose(bsharp.mat, np.diag([10 / 9, 1.0]))

    def test_axis_permutation(self, pa_half, pb_half):
        astar, bsharp = simple_laminate_pair(pa_half, pb_half, 0.5, axis=1, dim=3)
        assert np.allclose(np.diag(astar.mat), [1.5, 4 / 3, 1.5])
        assert np.allclose(np.diag(bsharp.mat), [2.0, 14 / 9, 2.0])

    def test_window_enforced(self, pa_half, pb_half):
        with pytest.raises(OverlapOutOfWindow):
            simple_laminate_pair(pa_half, pb_half, 0.8)


class TestSequentialA:
    def test_rank1_is_simple(self, pa_half):
        spec = LaminateSpec((E1,), (1.0,), "a2", "const_b")
        assert np.allclose(seq_A(spec, pa_half).mat, np.diag([4 / 3, 1.5]), atol=1e-14)

    def test_isotropic_matches_coated_sphere(self, pa_half):
        for core in ("a1", "a2"):
            spec = LaminateSpec((E1, E2), (0.5, 0.5), core, "const_b")
            m = hs_m(pa_half, core, 2)
            assert np.allclose(seq_A(spec, pa_half).mat, m * np.eye(2), atol=1e-12)

    def test_theta_zero(self):
        spec = LaminateSpec((E1,), (1.0,), "a2", "const_b")
        assert np.allclose(seq_A(spec, PhaseA(1, 2, 0.0)).mat, 2.0 * np.eye(2))

    def test_boundary_sides(self, pa_half):
        spec = LaminateSpec((E1, E2), (0.6, 0.4), "a2", "const_b")
        assert g_membership(seq_A(spec, pa_half), pa_half).verdict == "boundary_lower"
        spec = LaminateSpec((E1, E2), (0.6, 0.4), "a1", "const_b")
        assert g_membership(seq_A(spec, pa_half), pa_half).verdict == "boundary_upper"


class TestSequentialBConst:
    def test_rank1(self, pa_half):
        spec = LaminateSpec((E1,), (1.0,), "a2", "const_b")
        assert np.allclose(seq_B_const(spec, pa_half, 1.0).mat, np.diag([10 / 9, 1.0]), atol=1e-14)

    def test_isotropic_both_cores(self, pa_half):
        for core, expected in (("a1", 51 / 49), ("a2", 27 / 25)):
            spec = LaminateSpec((E1, E2), (0.5, 0.5), core, "const_b")
            assert np.allclose(seq_B_const(spec, pa_half, 1.0).mat, expected * np.eye(2), atol=1e-12)

    def test_theta_zero_gives_b(self):
        spec = LaminateSpec((E1,), (1.0,), "a2", "const_b")
        assert np.allclose(seq_B_const(spec, PhaseA(1, 2, 0.0), 2.5).mat, 2.5 * np.eye(2))

    def test_matches_defining_relation_at_50_digits(self):
        # specs with direction weights down to 1e-14, contrast up to 1e3
        rng = np.random.default_rng(20261018)
        worst_frame = worst_spec = 0.0
        for _ in range(150):
            spec, pa, b = _small_weight_spec(rng)
            got = seq_B_const(spec, pa, b).mat
            scale = np.abs(got).max()
            # the closed form against the defining relation on the same moment eigensystem
            es = eig(spec.moment)
            ref = _defining_relation_mp(spec, pa, b, es.values, mpmath.matrix(es.frame.tolist()))
            worst_frame = max(worst_frame, np.abs(got - ref).max() / (1e-12 * scale))
            # end to end against the exact moment: its float64 eigenvalues are
            # off by ~eps, which B# amplifies by b theta (1-theta) ((a2-a1)/base)^2
            with mpmath.workdps(50):
                m = mpmath.zeros(spec.dim)
                for d, w in zip(spec.directions, spec.weights):
                    m += mpmath.mpf(w) * mpmath.matrix(d) * mpmath.matrix(d).T
                weights, frame = mpmath.eigsy(m)
            ref = _defining_relation_mp(spec, pa, b, weights, frame)
            base = pa.a1 if spec.core_phase == "a2" else pa.a2
            cond = b * pa.thetaA * (1.0 - pa.thetaA) * ((pa.a2 - pa.a1) / base) ** 2 * np.finfo(float).eps
            worst_spec = max(worst_spec, np.abs(got - ref).max() / (1e-12 * scale + 8.0 * cond))
        assert worst_frame <= 1.0 and worst_spec <= 1.0


def _small_weight_spec(rng) -> tuple:
    """(spec, pa, b) with N in 2..5, some weights in [1e-14, 1e-2] and some axis-aligned null directions."""
    n = int(rng.integers(2, 6))
    p = int(rng.integers(1, n + 2))
    if rng.uniform() < 0.3:
        dirs = [tuple(np.eye(n)[int(rng.integers(0, n))]) for _ in range(p)]
    else:
        dirs = [tuple(v / np.linalg.norm(v)) for v in rng.normal(size=(p, n))]
    w = rng.dirichlet(np.ones(p))
    small = rng.uniform(size=p) < 0.5
    w[small] = 10.0 ** rng.uniform(-14, -2, size=small.sum())
    spec = LaminateSpec(tuple(dirs), tuple(w / w.sum()), "a2" if rng.uniform() < 0.5 else "a1", "const_b")
    a1 = rng.uniform(0.5, 2.0)
    return spec, PhaseA(a1, a1 * 10 ** rng.uniform(0.05, 3), rng.uniform(0.01, 0.99)), rng.uniform(0.5, 4.0)


def _defining_relation_mp(spec, pa, b, weights, frame) -> np.ndarray:
    """B# solving b (B# - b I)^-1 (Abar - A*)^2 = theta (1-theta) (a2-a1)^2 M at 50 digits.

    Along each moment eigenvector of weight w (columns of the mpmath frame), A* comes
    from the core's resolvent relation and B# = b + b (Abar - A*)^2 / (theta
    (1-theta) (a2-a1)^2 w), which tends to b as w -> 0.
    """
    with mpmath.workdps(50):
        a1, a2, theta, b = (mpmath.mpf(x) for x in (pa.a1, pa.a2, pa.thetaA, b))
        d, abar = a2 - a1, theta * a1 + (1 - theta) * a2
        beta = []
        for w in (mpmath.mpf(x) for x in weights):
            if spec.core_phase == "a2":
                lam = a1 + (1 - theta) / (1 / d + theta * w / a1)
            else:
                lam = a2 + theta / (-1 / d + (1 - theta) * w / a2)
            beta.append(b if abs(w) < mpmath.mpf("1e-40") else b + b * (abar - lam) ** 2 / (theta * (1 - theta) * d**2 * w))
        out = frame * mpmath.diag(beta) * frame.T
        return np.array(out.tolist(), dtype=float)


class TestConstantDensityRelations:
    """With b1 = b2 the relative limit depends on the A-microstructure alone, so it is seq_B_const."""

    @staticmethod
    def _draws(relation, count):
        rng = np.random.default_rng(7)
        while count:
            a1, b = rng.uniform(0.5, 2.0), rng.uniform(0.5, 4.0)
            pa = PhaseA(a1, a1 * rng.uniform(1.1, 4.0), rng.uniform(0.05, 0.95))
            pb = PhaseB(b, b, rng.uniform(0.05, 0.95))
            if not admits(relation, pa, pb, False):
                continue
            n = int(rng.integers(2, 4))
            p = int(rng.integers(1, n + 1))
            w = rng.dirichlet(np.ones(p))
            dirs = tuple(tuple(v / np.linalg.norm(v)) for v in rng.normal(size=(p, n)))
            count -= 1
            yield LaminateSpec(dirs, tuple(w / w.sum()), RELATIONS[relation].core_a, relation), pa, pb

    @pytest.mark.parametrize("relation", ["A_subset_B", "disjoint", "B_subset_A"])
    def test_two_phase_relations_reduce_to_seq_B_const(self, relation):
        for spec, pa, pb in self._draws(relation, 100):
            expected = seq_B_const(spec, pa, pb.b1).mat
            got = seq_B_pp(spec, pa, pb).mat
            assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_complement_cover_is_not_a_relative_limit(self):
        # the complement_cover laminate misses seq_B_const, mostly by breaking the chain
        pa, pb = PhaseA(1.0, 2.0, 0.6), PhaseB(1.0, 1.0, 0.7)
        spec = LaminateSpec((E1,), (1.0,), "a1", "complement_cover")
        with pytest.raises(ChainViolation) as info:
            seq_B_pp(spec, pa, pb)
        assert info.value.tensor.mat[1, 1] == pytest.approx(1.9, rel=1e-14)
        assert seq_B_const(spec, pa, 1.0).mat[1, 1] == pytest.approx(1.0, rel=1e-14)
        deviations, violations = [], 0
        for spec, pa, pb in self._draws("complement_cover", 200):
            try:
                got = seq_B_pp(spec, pa, pb)
            except ChainViolation as exc:
                got, violations = exc.tensor, violations + 1
            expected = seq_B_const(spec, pa, pb.b1).mat
            deviations.append(np.abs(got.mat - expected).max() / np.abs(expected).max())
        assert min(deviations) > 1e-3 and violations >= 150


class TestSequentialBTwoPhase:
    def test_nested_rank1(self, pa_half, pb_half):
        spec = LaminateSpec((E1,), (1.0,), "a2", "A_subset_B")
        out = seq_B_pp(spec, pa_half, pb_half)
        assert np.allclose(out.mat, np.diag([14 / 9, 2.0]), atol=1e-12)

    def test_disjoint_rank1(self, pa_half, pb_half):
        spec = LaminateSpec((E1,), (1.0,), "a2", "disjoint")
        out = seq_B_pp(spec, pa_half, pb_half)
        assert np.allclose(out.mat, np.diag([26 / 9, 2.0]), atol=1e-12)

    def test_core_laminate_rank1(self, pa_half):
        pb = PhaseB(1, 3, 0.25)
        spec = LaminateSpec((E1,), (1.0,), "a1", "B_subset_A")
        out = seq_B_pp(spec, pa_half, pb)
        assert np.allclose(out.mat, np.diag([22 / 9, 5 / 2]), atol=1e-12)

    def test_region_mismatch(self, pa_half):
        spec = LaminateSpec((E1,), (1.0,), "a1", "B_subset_A")
        with pytest.raises(RegionMismatch):
            seq_B_pp(spec, pa_half, PhaseB(1, 3, 0.75))

    def test_core_relation_consistency(self, pa_half, pb_half):
        with pytest.raises(InconsistentSpec):
            seq_B_pp(LaminateSpec((E1,), (1.0,), "a1", "A_subset_B"), pa_half, pb_half)

    def test_complement_chain_violation(self):
        # the complement relation's own output breaks the bounds chain at
        # p = 1 for thetaA = 3/4: transverse entry 81/16 > (b2/a1) A*_22
        pa, pb = PhaseA(1, 2, 0.75), PhaseB(1, 3, 0.5)
        spec = LaminateSpec((E1,), (1.0,), "a1", "complement_cover")
        with pytest.raises(ChainViolation) as err:
            seq_B_pp(spec, pa, pb)
        tensor = err.value.tensor
        assert tensor.mat[0, 0] == pytest.approx(116 / 49, abs=1e-12)
        assert tensor.mat[1, 1] == pytest.approx(81 / 16, abs=1e-12)

    @pytest.mark.parametrize("theta", [5e-13, 1.0 - 5e-13])
    def test_homogeneous_matrix_medium_gives_the_mean(self, theta):
        # every admitted relation builds without a ChainViolation and lands on
        # the boundary; where the matrix phase fills the medium, either core
        # gives B# = mean(b) I
        pa, filled = PhaseA(1.0, 2.0, theta), set()
        for pb in (PhaseB(1.0, b2, tb) for b2 in (3.0, 5.0) for tb in (0.0, 0.5, 1.0)):
            for relation, row in RELATIONS.items():
                if not admits(relation, pa, pb, False):
                    continue
                for dirs, weights in (((E1,), (1.0,)), ((E1, E2), (0.3, 0.7))):
                    astar, bsharp = seq_pair_pp(LaminateSpec(dirs, weights, row.core_a, relation), pa, pb)
                    assert pair_membership(astar, bsharp, pa, pb).verdict == "boundary"
                    if homogeneous_value(pa) == core_side(pa, row.core_a)[0]:
                        filled.add((relation, pb.b2))
                        assert np.array_equal(bsharp.mat, pb.mean * np.eye(2))
        core = "a1" if theta < 0.5 else "a2"
        assert {relation for relation, _ in filled} == {r for r, row in RELATIONS.items() if row.core_a == core}
        assert len(filled) == 4

    def test_complement_self_consistency(self):
        # where the output is chain-feasible it saturates the step-form U2
        pa, pb = PhaseA(1, 2, 0.7), PhaseB(1, 3, 0.8)
        spec = LaminateSpec((E1, E2), (0.5, 0.5), "a1", "complement_cover")
        astar = seq_A(spec, pa)
        bsharp = seq_B_pp(spec, pa, pb)
        assert abs(pair_membership(astar, bsharp, pa, pb).uj_slack) <= 1e-10  # step-form U2


def laminate_reference(spec, pa, b=None) -> np.ndarray:
    """seq_A (b None) or seq_B_const of one spec, as the constructors computed them one spec at a time."""
    m = np.zeros((spec.dim, spec.dim))
    for d, w in zip(spec.directions, spec.weights):
        e = np.asarray(d)
        m += w * np.outer(e, e)
    es = eig(SymTensor(m))
    base, frac, rest, sign = core_side(pa, spec.core_phase)
    if frac <= 1e-12:
        diag = np.full(spec.dim, base)
    else:
        diag = base + frac / (sign / (pa.a2 - pa.a1) + rest * np.array(es.values) / base)
    if b is not None:
        a_diag, diag = diag, np.full(spec.dim, b)
        if frac > 1e-12:
            diag = b + b * (means(pa)[1] - a_diag) * (sign * (a_diag - base)) / (frac * (pa.a2 - pa.a1) * base)
    return SymTensor(es.frame @ np.diag(diag) @ es.frame.T).mat


class TestStacks:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_stacks_match_the_one_spec_formulas(self, n):
        # ranks 1 to N+1 in one stack, both cores,
        # and fractions on and inside the homogeneous threshold
        rng = np.random.default_rng(n)
        specs, pas, bs = [], [], []
        for k in range(40):
            v = rng.normal(size=(1 + k % (n + 1), n))
            w = rng.dirichlet(np.ones(len(v)))
            specs.append(LaminateSpec(v / np.linalg.norm(v, axis=1, keepdims=True), w / w.sum(), "a1" if k % 2 else "a2", "const_b"))
            theta = (0.0, 1e-13, 1.0 - 1e-13, 1.0)[k // 2] if k < 8 else rng.uniform(0.05, 0.95)
            a1 = rng.uniform(0.5, 2.0)
            pas.append(PhaseA(a1, a1 * rng.uniform(1.1, 20.0), theta))
            bs.append(rng.uniform(0.5, 4.0))
        astars, bsharps = _seq_const_stack(specs, pas, bs)
        for got, want in [
            (astars, [laminate_reference(*args) for args in zip(specs, pas)]),
            (bsharps, [laminate_reference(*args) for args in zip(specs, pas, bs)]),
        ]:
            for tensor, m in zip(got, want):
                assert np.array_equal(tensor.mat, m) and np.array_equal(np.signbit(tensor.mat), np.signbit(m))

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_pair_pp_stack_is_its_one_spec_cases(self, n):
        # every relation, core a1 on a homogeneous matrix medium, and
        # complement_cover outputs that break the chain, in one stack
        rng = np.random.default_rng(10 + n)
        specs, pas, pbs = [], [], []
        while len(specs) < 60:
            a1, b1 = rng.uniform(0.5, 2.0, size=2)
            # the a2 matrix fills the medium of the first three: B_subset_A is core a1 on it
            theta_a, theta_b = (5e-13, 0.0) if len(specs) < 3 else rng.uniform(0.05, 0.95, size=2)
            pa, pb = PhaseA(a1, a1 * rng.uniform(1.1, 4.0), theta_a), PhaseB(b1, b1 * rng.uniform(1.0, 4.0), theta_b)
            relations = [r for r in ("A_subset_B", "B_subset_A", "disjoint", "complement_cover") if admits(r, pa, pb, False)]
            relation = relations[len(specs) % len(relations)]
            v = rng.normal(size=(1 + len(specs) % n, n))
            w = rng.dirichlet(np.ones(len(v)))
            core = "a2" if relation in ("A_subset_B", "disjoint") else "a1"
            specs.append(LaminateSpec(v / np.linalg.norm(v, axis=1, keepdims=True), w / w.sum(), core, relation))
            pas.append(pa)
            pbs.append(pb)
        built = _seq_pp_stack(specs, pas, pbs)
        violations = 0
        for spec, pa, pb, got in zip(specs, pas, pbs, built):
            fresh = LaminateSpec(spec.directions, spec.weights, spec.core_phase, spec.relation)
            try:
                want = seq_pair_pp(fresh, pa, pb)
            except ChainViolation as exc:
                violations += 1
                assert isinstance(got, ChainViolation) and str(got) == str(exc)
                want, got = (exc.astar, exc.tensor), (got.astar, got.tensor)
            assert [t.mat.tobytes() for t in got] == [t.mat.tobytes() for t in want]
        assert violations > 0 and {spec.relation for spec in specs} == {"A_subset_B", "B_subset_A", "disjoint", "complement_cover"}
        assert specs[0].relation == "B_subset_A" and homogeneous_value(pas[0]) == pas[0].a2

    def test_stack_refuses_a_density_before_building(self, pa_half):
        spec = LaminateSpec((E1,), (1.0,), "a2", "const_b")
        with pytest.raises(ValueError, match="need a density b > 0, got -1.0"):
            _seq_const_stack([spec, spec], [pa_half, pa_half], [1.0, -1.0])
        assert "moment" not in vars(spec)

    def test_pair_pp_decomposes_only_the_moment(self, monkeypatch, pa_half, pb_half):
        # the chain is judged in the moment's frame: building the pair makes
        # one LAPACK call, on the moment, and keeps no record on A*; the
        # verdict then decomposes A*, B# and the chain link in one call
        spec = LaminateSpec((E1, (0.6, 0.8)), (0.4, 0.6), "a2", "A_subset_B")
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(np.array(m, ndmin=3)) or eigh(m))
        astar, bsharp = seq_pair_pp(spec, pa_half, pb_half)
        assert len(calls) == 1 and np.array_equal(calls[0][0], spec.moment.mat)
        assert not astar.decomposed and not bsharp.decomposed and astar._derived is None
        assert astar == seq_A(spec, pa_half) and bsharp == seq_B_pp(spec, pa_half, pb_half)
        calls.clear()
        assert pair_membership(astar, bsharp, pa_half, pb_half).verdict == "boundary"
        link = SymTensor(3.0 * astar.mat - bsharp.mat).mat
        assert len(calls) == 1 and np.array_equal(calls[0], [astar.mat, bsharp.mat, link])


class TestInFrameChain:
    @staticmethod
    def _draws(relation, count):
        rng = np.random.default_rng(22)
        while count:
            a1, b1 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
            pa = PhaseA(a1, a1 * 10 ** rng.uniform(0.01, 3.0), rng.uniform(0.02, 0.98))
            pb = PhaseB(b1, b1 * rng.uniform(1.0, 50.0), rng.uniform(0.02, 0.98))
            if not admits(relation, pa, pb, False):
                continue
            n = int(rng.integers(2, 5))
            p = int(rng.integers(1, n + 2))
            w = rng.dirichlet(np.ones(p))
            dirs = tuple(tuple(v / np.linalg.norm(v)) for v in rng.normal(size=(p, n)))
            count -= 1
            yield LaminateSpec(dirs, tuple(w / w.sum()), RELATIONS[relation].core_a, relation), pa, pb

    @pytest.mark.parametrize("relation", ["A_subset_B", "disjoint", "B_subset_A", "complement_cover"])
    def test_violation_exactly_where_the_decomposed_chain_fails(self, relation):
        # the chain judged on the laminate's spectra decides as the six
        # eigen-slacks of the built matrices do
        violations = 0
        for spec, pa, pb in self._draws(relation, 250):
            try:
                astar, bsharp = seq_pair_pp(spec, pa, pb)
                violated = False
            except ChainViolation as exc:
                astar, bsharp, violated = exc.astar, exc.tensor, True
            violations += violated
            assert violated == (min(general_chain_check(astar, bsharp, pa, pb)) < -DEFAULT_TOL)
        assert violations > 0 if relation == "complement_cover" else violations < 250

    @pytest.mark.parametrize("b2", [1e300, 1.7e308])
    def test_non_finite_value_is_refused(self, b2):
        # b2/a1 or the B# entries overflow: refused as the decomposition of
        # the overflowed link would refuse it, never judged
        spec = LaminateSpec(((0.6, 0.8), E1), (0.3, 0.7), "a2", "A_subset_B")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="^eigenvalues are not finite: a matrix entry is NaN or infinite, given or overflowed$"):
                seq_pair_pp(spec, PhaseA(1e-150 if b2 == 1e300 else 1.0, 2.0, 0.3), PhaseB(1.0, b2, 0.5))


class TestInvariants:
    def test_isotropic_seqs_match_hashin_two_phase(self):
        # isotropic (N,N)-laminates reproduce the coated-sphere b# values
        pa, pb = PhaseA(1, 2, 0.4), PhaseB(1, 3, 0.6)
        spec = LaminateSpec((E1, E2), (0.5, 0.5), "a2", "A_subset_B")
        out = seq_B_pp(spec, pa, pb)
        expected = hs_b(pa, pb, CoatingConfig("a2", "b2", "A_in_B"), 2)
        assert np.allclose(out.mat, expected * np.eye(2), atol=1e-12)

    def test_frame_covariance(self, pa_half, pb_half):
        q = rotation_2d(0.37)
        plain = LaminateSpec((E1, E2), (0.7, 0.3), "a2", "A_subset_B")
        rotated = LaminateSpec(
            (tuple(q @ np.array(E1)), tuple(q @ np.array(E2))), (0.7, 0.3), "a2", "A_subset_B"
        )
        assert np.allclose(seq_A(rotated, pa_half).mat, rotate(seq_A(plain, pa_half), q).mat, atol=1e-10)
        assert np.allclose(
            seq_B_pp(rotated, pa_half, pb_half).mat,
            rotate(seq_B_pp(plain, pa_half, pb_half), q).mat,
            atol=1e-10,
        )

    def test_pairs_feasible_and_saturating(self, pa_half, pb_half):
        cases = [
            ("A_subset_B", "a2", pb_half, "L1"),
            ("disjoint", "a2", pb_half, "U1"),
            ("B_subset_A", "a1", PhaseB(1, 3, 0.25), "L2"),
        ]
        for relation, core, pb, bound in cases:
            spec = LaminateSpec((E1, E2), (0.65, 0.35), core, relation)
            astar = seq_A(spec, pa_half)
            bsharp = seq_B_pp(spec, pa_half, pb)
            report = pair_membership(astar, bsharp, pa_half, pb)
            assert report.verdict in ("feasible", "boundary")
            assert bound in report.region
            assert abs(report.li_slack if bound.startswith("L") else report.uj_slack) <= 1e-10
            assert commutator_norm(astar, bsharp) <= 1e-10

    def test_saturation_spot_values(self, pa_half, pb_half):
        # region L1U1: nested saturates L1, disjoint U1; region L2U1 at pbq: L2
        lam_a, nested = simple_laminate_pair(pa_half, pb_half, 0.5)
        assert abs(pair_membership(lam_a, nested, pa_half, pb_half).li_slack) <= 1e-10
        _, disjoint = simple_laminate_pair(pa_half, pb_half, 0.0)
        assert abs(pair_membership(lam_a, disjoint, pa_half, pb_half).uj_slack) <= 1e-10
        pbq = PhaseB(1, 3, 0.25)
        _, core = simple_laminate_pair(pa_half, pbq, 0.25)
        assert abs(pair_membership(lam_a, core, pa_half, pbq).li_slack) <= 1e-10


class TestHigherDimensions:
    def test_constructors_up_to_max_dim(self):
        # random-direction laminates stay feasible and saturating at N = 8
        rng = np.random.default_rng(1)
        pa, pb = PhaseA(1, 2.7, 0.45), PhaseB(0.9, 2.2, 0.6)
        for n in (4, 8):
            dirs = []
            for _ in range(n):
                v = rng.normal(size=n)
                dirs.append(tuple(v / np.linalg.norm(v)))
            w = rng.dirichlet(np.ones(n))
            spec = LaminateSpec(tuple(dirs), tuple(w / np.sum(w)), "a2", "A_subset_B")
            astar = seq_A(spec, pa)
            bsharp = seq_B_pp(spec, pa, pb)
            report = pair_membership(astar, bsharp, pa, pb)
            assert report.verdict in ("feasible", "boundary")
            assert abs(report.li_slack) <= 1e-12  # L1, region L1U2

    def test_isotropic_matches_coated_spheres_any_dim(self):
        pa = PhaseA(1, 2.7, 0.45)
        for n in (3, 5, 8):
            axes = tuple(tuple(1.0 if i == j else 0.0 for j in range(n)) for i in range(n))
            iso = LaminateSpec(axes, (1.0 / n,) * n, "a1", "const_b")
            m = hs_m(pa, "a1", n)
            b = hs_b(pa, 1.0, CoatingConfig("a1", "const", "none"), n)
            assert np.allclose(seq_A(iso, pa).mat, m * np.eye(n), atol=1e-12)
            assert np.allclose(seq_B_const(iso, pa, 1.0).mat, b * np.eye(n), atol=1e-12)


def test_check_path_tuples_do_not_pile_up():
    # the check path's per-call tuples (spec directions and weights, the
    # membership window) are built from lists; built from generators, each
    # iteration here kept about seven blocks on the tuple free lists
    pa, pb = PhaseA(1.0, 2.0, 0.5), PhaseB(1.0, 3.0, 0.5)

    def calls(n):
        for i in range(n):
            dim = 2 + i % 7
            axes = [[1.0 if j == k else 0.0 for k in range(dim)] for j in range(dim)]
            spec = LaminateSpec(axes, [1.0 / dim] * dim, "a2", "A_subset_B")
            astar = seq_A(spec, pa)
            g_membership(astar, pa)
            pair_membership(astar, seq_B_pp(spec, pa, pb), pa, pb)

    calls(100)
    gc.collect()  # a full collection also empties the free lists
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        calls(2000)
        growth = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert growth < 2000 * 0.5, f"{growth / 2000:.2f} blocks per iteration"
