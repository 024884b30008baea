import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homobounds.symtensor import (
    NotOrthonormal,
    SingularFactor,
    SymTensor,
    commutator_norm,
    eig,
    eig_stack,
    from_frames,
    positive_spectrum,
    rotate,
    rotate_stack,
    rotation_2d,
    trace_chain,
    trace_pairing_bound,
)


def random_spd(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q = q * np.sign(np.diag(r))
    vals = rng.uniform(0.5, 5.0, size=n)
    return SymTensor(q @ np.diag(vals) @ q.T)


class TestEig:
    def test_diagonal_input(self):
        es = eig(SymTensor.diag([4 / 3, 3 / 2]))
        assert es.values == pytest.approx((1.5, 4 / 3))

    def test_identity(self):
        es = eig(SymTensor.identity(3))
        assert es.values == pytest.approx((1.0, 1.0, 1.0))

    def test_rotation_round_trip(self):
        q = rotation_2d(np.pi / 6)
        es = eig(SymTensor(q @ np.diag([2.0, 1.0]) @ q.T))
        assert es.values == pytest.approx((2.0, 1.0), abs=1e-12)
        # frame matches the rotation up to column sign
        for i in range(2):
            col = es.frame[:, i]
            ref = q[:, i]
            assert min(np.abs(col - ref).max(), np.abs(col + ref).max()) < 1e-10

    def test_deterministic_sign_convention(self):
        es = eig(SymTensor([[2.0, 1.0], [1.0, 2.0]]))
        for i in range(2):
            lead = np.nonzero(np.abs(es.frame[:, i]) > 1e-9)[0][0]
            assert es.frame[lead, i] > 0

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_property(self, seed, n):
        rng = np.random.default_rng(seed)
        s = random_spd(rng, n)
        es = eig(s)
        rebuilt = es.frame @ np.diag(es.values) @ es.frame.T
        norm = np.linalg.norm(s.mat)
        assert np.linalg.norm(rebuilt - s.mat) <= 1e-10 * norm
        assert np.abs(es.frame @ es.frame.T - np.eye(n)).max() < 1e-12
        assert list(es.values) == sorted(es.values, reverse=True)

    @pytest.mark.parametrize(
        "values", [(1.0, 1.0, 1.0), (3.0, 1.0, 1.0), (2.0, 2.0, 0.5), (4.0, 4.0, 1.0, 1.0), (1.5, 1.5)]
    )
    def test_repeated_eigenvalues_sorted_and_signed(self, values):
        rng = np.random.default_rng(len(values))
        n = len(values)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        for m in (np.diag(values), q @ np.diag(values) @ q.T):
            es = eig(SymTensor(m))
            assert list(es.values) == sorted(es.values, reverse=True)
            assert es.values == pytest.approx(sorted(values, reverse=True), abs=1e-14)
            for col in es.frame.T:
                # first component above 1e-12 max(1, max|col|) is positive
                lead = np.nonzero(np.abs(col) > 1e-12 * max(1.0, np.abs(col).max()))[0][0]
                assert col[lead] > 0
            assert np.abs(es.frame @ np.diag(es.values) @ es.frame.T - m).max() < 1e-14 * max(values)

    def test_memoised_once_per_tensor(self):
        s = SymTensor([[2.0, 0.5], [0.5, 1.0]])
        assert eig(s) is eig(s)
        m = s.mat
        assert eig(m) is not eig(m)  # plain arrays are decomposed on every call

    def test_mutating_outputs_leaves_tensor_and_cache_intact(self):
        ref = [[2.0, 0.5, 0.0], [0.5, 1.0, 0.25], [0.0, 0.25, 3.0]]
        s = SymTensor(ref)
        es = eig(s)
        values, frame = es.values, es.frame.copy()
        m = s.mat
        m[:] = 0.0
        np.asarray(s)[0, 0] = -1.0
        assert s == SymTensor(ref) and (s.mat == np.array(ref)).all()
        assert eig(s) is es and es.values == values and (es.frame == frame).all()
        with pytest.raises(ValueError):
            es.frame[0, 0] = 0.0  # the cached frame is read-only

    def test_value_equality(self):
        a = SymTensor([[1.0, 2.0], [0.0, 3.0]])
        assert a == SymTensor([[1.0, 1.0], [1.0, 3.0]])
        assert a != SymTensor.diag([1.0, 3.0])
        assert hash(a) == hash(SymTensor([[1.0, 1.0], [1.0, 3.0]]))
        assert a.dim == 2 and SymTensor.identity(3).dim == 3


def spectra(rng, n):
    """Matrices of dimension n with random, diagonal, repeated and clustered spectra."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    random = rng.uniform(0.5, 5.0, n)
    repeated = np.repeat(rng.uniform(0.5, 5.0, (n + 1) // 2), 2)[:n]
    clustered = 2.0 + 1e-13 * rng.normal(size=n)
    out = [np.diag(random), np.diag(repeated), np.diag(np.sort(random)), np.eye(n)]
    for values in (random, repeated, clustered):
        out.append(q @ np.diag(values) @ q.T)
    out.append(rng.normal(size=(n, n)))  # indefinite, symmetrised by SymTensor
    return out


class TestEigStack:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_bit_identical_to_eig(self, n):
        # values, frame and the sign bit of every frame entry, tensor by tensor
        rng = np.random.default_rng(n)
        mats = [m for _ in range(5) for m in spectra(rng, n)]
        stacked = eig_stack([SymTensor(m) for m in mats])
        for m, got in zip(mats, stacked):
            want = eig(SymTensor(m))
            assert got.values == want.values
            assert np.array_equal(got.frame, want.frame)
            assert np.array_equal(np.signbit(got.frame), np.signbit(want.frame))
            assert not got.frame.flags.writeable

    def test_memoises_each_tensor_and_keeps_earlier_results(self, monkeypatch):
        rng = np.random.default_rng(0)
        done, fresh = SymTensor(spectra(rng, 3)[4]), [SymTensor(m) for m in spectra(rng, 3)[5:]]
        kept = eig(done)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
        tensors = [fresh[0], done, *fresh[1:]]
        out = eig_stack(tensors)
        assert calls == [(len(fresh), 3, 3)]  # one LAPACK call, for the fresh tensors only
        assert out[1] is kept
        assert all(eig(t) is es for t, es in zip(tensors, out))  # every result is memoised
        assert all(a is b for a, b in zip(eig_stack(tensors), out)) and len(calls) == 1

    def test_mixed_dimensions_raise(self):
        with pytest.raises(ValueError):
            eig_stack([SymTensor.identity(2), SymTensor.identity(3)])

    def test_empty(self):
        assert eig_stack([]) == []


class TestTraceChain:
    def test_simple_laminate_identity(self, pa_half):
        a = SymTensor.diag([4 / 3, 3 / 2])
        b = SymTensor.diag([10 / 9, 1.0])
        outer = 2.0 * np.eye(2) - a.mat
        middle = SymTensor(2.0 * b.mat - a.mat)
        value = trace_chain([(1.0, 1), (outer, 1), (middle, -1), (outer, 1)])
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_identity_chain(self):
        i = SymTensor.identity(2)
        assert trace_chain([(i, 1), (i, -1), (i, 1)]) == pytest.approx(2.0)

    def test_square(self):
        assert trace_chain([(SymTensor.diag([1, 2]), 1), (SymTensor.diag([1, 2]), 1)]) == pytest.approx(5.0)

    def test_singular_factor(self):
        with pytest.raises(SingularFactor):
            trace_chain([(SymTensor.diag([1.0, 0.0]), -1)])

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_rotation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        s, t = random_spd(rng, n), random_spd(rng, n)
        q, r = np.linalg.qr(rng.normal(size=(n, n)))
        q = q * np.sign(np.diag(r))
        plain = trace_chain([(s, 1), (t, -1), (s, 2)])
        rotated = trace_chain([(rotate(s, q), 1), (rotate(t, q), -1), (rotate(s, q), 2)])
        assert rotated == pytest.approx(plain, rel=1e-10)


class TestCommutator:
    def test_diagonal_commute(self):
        assert commutator_norm(SymTensor.diag([4 / 3, 3 / 2]), SymTensor.diag([14 / 9, 2])) == 0.0

    def test_shared_frame(self):
        q = rotation_2d(0.7)
        s = SymTensor(q @ np.diag([1.0, 2.0]) @ q.T)
        t = SymTensor(q @ np.diag([5.0, 3.0]) @ q.T)
        assert commutator_norm(s, t) <= 1e-12

    def test_hand_value(self):
        # commutator of diag(1,2) and the all-ones matrix is [[0,-1],[1,0]]
        assert commutator_norm(SymTensor.diag([1, 2]), [[1, 1], [1, 1]]) == pytest.approx(np.sqrt(2))


class TestTracePairing:
    def test_hand_value(self):
        lower, gap = trace_pairing_bound(SymTensor.diag([1, 4]), SymTensor.diag([2, 3]))
        assert lower == pytest.approx(11.0)
        assert gap == pytest.approx(3.0)

    def test_identity(self):
        lower, gap = trace_pairing_bound(SymTensor.identity(2), SymTensor.identity(2))
        assert lower == pytest.approx(2.0)
        assert gap == pytest.approx(0.0, abs=1e-14)

    def test_rotated_gap_positive(self):
        q = rotation_2d(np.pi / 4)
        f = SymTensor(q @ np.diag([2.0, 3.0]) @ q.T)
        _, gap = trace_pairing_bound(SymTensor.diag([1, 4]), f)
        assert gap > 1e-3

    def test_gap_iff_commuting_suite(self):
        # gap 0 forces commutation; conversely the commuting pairs arising in
        # the optimality argument carry oppositely sorted spectra in the
        # shared frame ((A*-a1 I)^-2 reverses the order of A*), so their gap
        # vanishes -- mix both kinds with clearly non-commuting pairs
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(2, 4))
            q1, r1 = np.linalg.qr(rng.normal(size=(n, n)))
            q1 = q1 * np.sign(np.diag(r1))
            d_asc = np.sort(rng.uniform(1.0, 5.0, n))
            e = SymTensor(q1 @ np.diag(d_asc) @ q1.T)
            if rng.uniform() < 0.5:
                f_desc = np.sort(rng.uniform(1.0, 5.0, n))[::-1]
                f = SymTensor(q1 @ np.diag(f_desc) @ q1.T)
                expect_commuting = True
            else:
                q2, r2 = np.linalg.qr(rng.normal(size=(n, n)))
                q2 = q2 * np.sign(np.diag(r2))
                f = SymTensor(q2 @ np.diag(np.linspace(1.0, 5.0, n)) @ q2.T)
                expect_commuting = commutator_norm(e, f) <= 1e-8
            _, gap = trace_pairing_bound(e, f)
            scale = np.linalg.norm(e.mat) * np.linalg.norm(f.mat)
            assert gap >= -1e-12 * scale
            gap_zero = gap <= 1e-10 * scale
            if gap_zero:
                assert commutator_norm(e, f) <= 1e-8 * scale
            if expect_commuting:
                assert gap_zero


class TestRotate:
    def test_identity_frame(self):
        s = SymTensor.diag([4 / 3, 3 / 2])
        assert np.allclose(rotate(s, np.eye(2)).mat, s.mat)

    def test_identity_matrix(self):
        q = rotation_2d(1.1)
        assert np.allclose(rotate(SymTensor.identity(2), q).mat, np.eye(2))

    def test_eigenvalues_preserved(self):
        out = rotate(SymTensor.diag([2.0, 1.0]), rotation_2d(np.pi / 6))
        assert eig(out).values == pytest.approx((2.0, 1.0), abs=1e-12)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(NotOrthonormal):
            rotate(SymTensor.identity(2), [[1.0, 0.0], [0.1, 1.0]])

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_stack_matches_each_congruence(self, n):
        # the stacked products have the bits of Q S Q^T taken one frame at a time
        rng = np.random.default_rng(n)
        frames = [np.linalg.qr(rng.normal(size=(n, n)))[0] for _ in range(30)]
        tensors = [random_spd(rng, n) for _ in range(30)]
        for got, s, q in zip(rotate_stack(tensors, frames), tensors, frames):
            assert np.array_equal(got.mat, SymTensor(q @ s.mat @ q.T).mat)
            assert got == rotate(s, q)
        values = rng.uniform(-2.0, 2.0, (30, n))
        for got, q, v in zip(from_frames(np.array(frames), values), frames, values):
            assert np.array_equal(got, q @ np.diag(v) @ q.T)

    def test_stack_rejects_one_bad_frame(self):
        frames = [rotation_2d(0.3), [[1.0, 0.0], [0.1, 1.0]]]
        with pytest.raises(NotOrthonormal, match="not orthonormal"):
            rotate_stack([SymTensor.identity(2)] * 2, frames)
        with pytest.raises(NotOrthonormal, match="wrong shape"):
            rotate_stack([SymTensor.identity(2), SymTensor.identity(2)], [np.eye(3), np.eye(3)])


def test_positive_spectrum_refuses_at_the_relative_floor():
    # 1e-15 is below the floor 1e-14 max|eig|, and an all-zero row below the absolute floor
    rows = [[2.0, 1.0], [2.0, 1e-15], [2.0, 0.0], [2.0, -1.0], [0.0, 0.0]]
    refused = []
    for row in rows:
        try:
            assert positive_spectrum(row).tolist() == row
            refused.append(False)
        except SingularFactor:
            refused.append(True)
    assert refused == [False, True, True, True, True]


def test_nan_spectrum_is_refused():
    # every comparison with NaN is False, so "at or below the floor" alone let a NaN row pass
    for row in ([2.0, np.nan], [np.nan, np.nan], [np.nan, 2.0]):
        with pytest.raises(SingularFactor):
            positive_spectrum(row)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_eigenvalues_raise_no_verdict(bad):
    # LAPACK returns NaN eigenvalues for a NaN or infinite entry; that is a
    # ValueError of its own, not the SingularFactor a verdict is made from
    m = [[bad, 0.0], [0.0, 1.5]]
    for decompose in (eig, lambda t: eig_stack([t]), lambda t: eig_stack([SymTensor.identity(2), t])):
        tensor = SymTensor(m)
        with pytest.raises(ValueError, match="not finite") as info:
            decompose(tensor)
        assert not isinstance(info.value, SingularFactor)
        assert not tensor.decomposed
    with pytest.raises(ValueError, match="not finite"):
        eig(np.array(m))


def test_entries_near_the_float_limit_symmetrise_without_overflow():
    # each entry is halved before the sum, so finite entries stay finite and
    # no overflow warning is raised (the suite turns warnings into errors)
    t = SymTensor([[1.7e308, 1e308], [1e308, 1.7e308]])
    assert t.mat.tolist() == [[1.7e308, 1e308], [1e308, 1.7e308]]
    assert SymTensor([[1.0, 1.7e308], [1.5e308, 2.0]]).mat[0, 1] == 0.5 * 1.7e308 + 0.5 * 1.5e308
