"""Small dense symmetric-matrix kernel.

Everything downstream (phase-space membership, trace bounds, laminate
constructors) works with symmetric positive-definite matrices of dimension
N <= 8.  A SymTensor holds its symmetrized matrix as a read-only array and
computes its eigensystem once, with LAPACK's symmetric solver, on first
request; every later eig of the same tensor reuses it.  One routine
decomposes a stack of matrices in one LAPACK call and fixes the order and
signs of every result (eigh_arrays): eig_stack sends it the tensors of one
dimension not yet decomposed, with any plain matrices to decompose alongside,
and eig of a tensor is eig_stack of that one.  One routine symmetrises a
matrix or a stack (_symmetrised), for SymTensor, SymTensor.stack and eig of
a plain matrix.  derived keeps on a tensor what was computed from it with
one partner tensor, and positive_spectrum refuses an inverse factor whose
eigenvalues are not all positive at the floor positive_rows applies row by
row.  The module also evaluates trace chains of matrix powers, rotations
(rotate_stack takes many at once, and from_frames builds Q diag(v) Q^T
over a stack), and the rearrangement inequality tr(EF) >= sum of
oppositely sorted eigenvalue products used by the commutativity argument.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

MAX_DIM = 8

# relative floors; absolute floor avoids 0/0 on zero matrices
_EIG_SINGULAR_REL = 1e-14
_ORTHO_TOL = 1e-12
_ABS_FLOOR = 1e-300

# a NaN or infinite entry, given or overflowed, gives NaN eigenvalues, which
# compare False against every bound and so would pass for a verdict; a plain
# ValueError is no verdict
_NON_FINITE = "eigenvalues are not finite: a matrix entry is NaN or infinite, given or overflowed"


class SingularFactor(ValueError):
    """An inverse factor in a trace chain is singular or not positive."""


class NotOrthonormal(ValueError):
    """A rotation frame fails the orthonormality tolerance."""


class SymTensor:
    """N x N real symmetric matrix, immutable, with a memoised eigensystem."""

    __slots__ = ("_m", "_eig", "_derived")

    def __init__(self, m):
        self._hold(_symmetrised(m, 2))

    def _hold(self, m: np.ndarray) -> "SymTensor":
        """Hold the read-only symmetric matrix m, with nothing computed from it yet."""
        self._m = m
        self._eig = None
        self._derived = None  # (t, what was derived with t), see derived
        return self

    @property
    def dim(self) -> int:
        return self._m.shape[0]

    @property
    def decomposed(self) -> bool:
        """Whether the eigensystem is already computed and memoised."""
        return self._eig is not None

    @property
    def mat(self) -> np.ndarray:
        """Full symmetric matrix (fresh array, safe to mutate)."""
        return self._m.copy()

    @staticmethod
    def stack(m) -> list:
        """The SymTensor of each matrix of a (K, N, N) stack, symmetrised in one pass, bit for bit SymTensor of each."""
        return [SymTensor.__new__(SymTensor)._hold(row) for row in _symmetrised(m, 3)]

    @staticmethod
    def diag(values) -> "SymTensor":
        return SymTensor(np.diag(np.asarray(values, dtype=float)))

    @staticmethod
    def identity(n: int) -> "SymTensor":
        return SymTensor(np.eye(n))

    def __array__(self, dtype=None, copy=None):
        m = self.mat
        return m if dtype is None else m.astype(dtype)

    def __eq__(self, other):
        if not isinstance(other, SymTensor):
            return NotImplemented
        return bool(np.array_equal(self._m, other._m))

    def __hash__(self):
        return hash(tuple(self._m.ravel().tolist()))

    def __repr__(self):
        return f"SymTensor({self._m.tolist()!r})"


class EigSystem(NamedTuple):
    """Eigenvalues (descending) and an orthonormal eigenvector frame."""

    values: tuple
    frame: np.ndarray  # read-only; columns are eigenvectors, frame[:, i] <-> values[i]


def _symmetrised(m, ndim: int) -> np.ndarray:
    """(m + m^T)/2 of a square matrix (ndim 2) or of each matrix of a stack (ndim 3), read-only.

    ValueError unless the matrices are square and of dimension 1 to MAX_DIM.
    Each entry is halved before the sum, so finite entries stay finite; a
    subnormal entry can lose its last bit to the halving.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != ndim or m.shape[-1] != m.shape[-2]:
        raise ValueError("expected a square matrix" if ndim == 2 else "expected a stack of square matrices")
    if not (1 <= m.shape[-1] <= MAX_DIM):
        raise ValueError(f"dim must be in [1, {MAX_DIM}], got {m.shape[-1]}")
    half = 0.5 * m
    m = half + (half.T if ndim == 2 else half.swapaxes(-1, -2))
    m.flags.writeable = False
    return m


def _as_matrix(s) -> np.ndarray:
    return s._m if isinstance(s, SymTensor) else _symmetrised(s, 2)


def eigh_arrays(m: np.ndarray) -> tuple:
    """(values, frames) of each matrix of a (K, N, N) stack, from one LAPACK call, memoised nowhere.

    values is (K, N), each row descending, and frames (K, N, N), read-only,
    with the columns signed as eig signs them.  A non-finite eigenvalue
    raises ValueError, as in eig.
    """
    vals, q = np.linalg.eigh(m)
    if not np.isfinite(vals).all():
        raise ValueError(_NON_FINITE)
    q = q[:, :, ::-1]
    # sign each column so its first component above _ORTHO_TOL max(1, max|col|)
    # is positive; the columns are unit vectors, so that bound is _ORTHO_TOL
    k, n = q.shape[:2]
    lead = (np.abs(q) > _ORTHO_TOL).argmax(axis=1)
    q = q * np.copysign(1.0, q[np.arange(k)[:, None], lead, np.arange(n)])[:, None, :]
    q.flags.writeable = False
    return vals[:, ::-1], q


def eig(s) -> EigSystem:
    """Eigendecomposition of a symmetric matrix by LAPACK's symmetric solver.

    Eigenvalues come out descending; each eigenvector is signed so its first
    component of significant magnitude is positive, which makes the
    decomposition deterministic.  A SymTensor is decomposed once and keeps
    the result; a plain array is symmetrized and decomposed on every call.
    A matrix with a non-finite eigenvalue raises ValueError (neither
    SingularFactor nor any other verdict-bearing error) and keeps nothing.
    """
    if isinstance(s, SymTensor):
        return s._eig if s._eig is not None else eig_stack([s])[0]
    vals, q = eigh_arrays(_as_matrix(s)[None])
    return EigSystem(tuple(vals[0].tolist()), q[0])


def eig_stack(tensors, more=None):
    """eig of each SymTensor in a sequence, with one LAPACK call for every one not yet decomposed.

    The tensors must share one dimension (else ValueError).  Each result is
    memoised on its tensor; a tensor already decomposed keeps its EigSystem.
    more, a sequence of (M_i, N, N) stacks of plain matrices, is decomposed
    in the same call, and then (systems, eigh_arrays of their matrices in
    order) is returned.  A non-finite eigenvalue anywhere in the stack
    raises ValueError, as in eig, before any result is memoised.
    """
    if len({t.dim for t in tensors}) > 1:
        raise ValueError("eig_stack needs tensors of one dimension")
    fresh = [t for t in tensors if t._eig is None]
    stack = np.array([t._m for t in fresh])
    if more is not None:
        stack = np.concatenate([stack, *more] if fresh else more)
    if len(stack):
        vals, q = eigh_arrays(stack)
        for t, values, frame in zip(fresh, vals.tolist(), q):
            t._eig = EigSystem(tuple(values), frame)
    systems = [t._eig for t in tensors]
    return systems if more is None else (systems, (vals[len(fresh) :], q[len(fresh) :]))


def derived(s: SymTensor, t: SymTensor) -> dict:
    """The dict of what was derived from s with the tensor t, kept on s.

    s keeps the dict of its last partner object t only, so the memo stays
    bounded: another t, even an equal one, starts afresh.
    """
    if s._derived is None or s._derived[0] is not t:
        s._derived = (t, {})
    return s._derived[1]


def _above_floor(low, high):
    """Whether the least eigenvalue low is positive at the relative floor set by the largest magnitude high."""
    # "above" rather than "not at or below": every comparison with NaN is False
    return low > _EIG_SINGULAR_REL * (high + _ABS_FLOOR)


def positive_rows(values) -> np.ndarray:
    """Whether each row of a (K, N) stack of eigenvalues is positive at the relative floor (see positive_spectrum)."""
    vals = np.asarray(values, dtype=float)
    return _above_floor(vals.min(axis=-1), np.abs(vals).max(axis=-1))


def positive_spectrum(values) -> np.ndarray:
    """Eigenvalues of an inverse factor as an array; SingularFactor unless all are positive at the relative floor."""
    vals = np.asarray(values, dtype=float)
    if not _above_floor(vals.min(), np.abs(vals).max()):
        raise SingularFactor(
            f"inverse factor not positive definite (min eig {vals.min():.3e}, scale {np.abs(vals).max() + _ABS_FLOOR:.3e})"
        )
    return vals


def matrix_power(s, power: int) -> np.ndarray:
    """Integer matrix power; negative powers demand SPD."""
    m = _as_matrix(s)
    if power == 0:
        return np.eye(m.shape[0])
    if power < 0:
        es = eig(s)
        vals = positive_spectrum(es.values)
        return es.frame @ np.diag(vals ** float(power)) @ es.frame.T
    return np.linalg.matrix_power(m, power)


def trace_chain(factors) -> float:
    """Trace of an ordered product of matrix/scalar factors with powers.

    ``factors`` is a sequence of (factor, power) pairs where factor is a
    SymTensor, square array, or scalar.  Inverse factors must be SPD;
    otherwise SingularFactor is raised.
    """
    prod = None
    scalar = 1.0
    for factor, power in factors:
        if np.isscalar(factor):
            scalar *= float(factor) ** power
            continue
        m = matrix_power(factor, power)
        prod = m if prod is None else prod @ m
    if prod is None:
        raise ValueError("trace chain needs at least one matrix factor")
    return scalar * float(np.trace(prod))


def commutator_norm(s, t) -> float:
    """Frobenius norm of ST - TS."""
    a, b = _as_matrix(s), _as_matrix(t)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    return float(np.linalg.norm(a @ b - b @ a))


def trace_pairing_bound(e, f) -> tuple:
    """Rearrangement lower bound on tr(EF) for SPD matrices.

    Returns (lower_bound, gap) with lower_bound = sum_i s_i(E) s_{N-i+1}(F)
    over ascending eigenvalues and gap = tr(EF) - lower_bound >= 0.  The gap
    vanishes exactly when E and F commute, which is what the optimality
    argument exploits.
    """
    em, fm = _as_matrix(e), _as_matrix(f)
    se = np.sort(np.array(eig(e).values))
    sf = np.sort(np.array(eig(f).values))
    lower = float(np.dot(se, sf[::-1]))
    gap = float(np.trace(em @ fm)) - lower
    return lower, gap


def from_frames(frames: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The matrices Q diag(v) Q^T of a (K, N, N) stack of frames Q and a (K, N) stack of values v.

    One stacked product, bit for bit frame @ np.diag(v) @ frame.T of each row.
    """
    k, n = values.shape
    grid = np.zeros((k, n, n))
    grid.reshape(k, -1)[:, :: n + 1] = values  # np.diag of each row
    return frames @ grid @ frames.transpose(0, 2, 1)


def rotate_stack(tensors, frames) -> list:
    """Congruences Q S Q^T of a sequence of tensors of one dimension by orthonormal frames Q, one per tensor.

    One stacked product, bit for bit the product of each pair on its own;
    NotOrthonormal if a frame has the wrong shape or fails the tolerance.
    """
    q = np.asarray(frames, dtype=float)
    m = np.array([_as_matrix(s) for s in tensors])
    if q.shape != m.shape:
        raise NotOrthonormal("frame has wrong shape")
    if np.abs(q @ q.transpose(0, 2, 1) - np.eye(q.shape[-1])).max() > _ORTHO_TOL:
        raise NotOrthonormal("frame is not orthonormal within 1e-12")
    return SymTensor.stack(q @ m @ q.transpose(0, 2, 1))


def rotate(s, frame) -> SymTensor:
    """Congruence Q S Q^T by an orthonormal frame Q (the one-tensor case of rotate_stack)."""
    return rotate_stack([s], [frame])[0]


def rotation_2d(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])
