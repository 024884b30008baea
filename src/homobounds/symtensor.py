"""Small dense symmetric-matrix kernel.

Everything downstream (phase-space membership, trace bounds, laminate
constructors) works with symmetric positive-definite matrices of dimension
N <= 8.  The kernel keeps exact symmetry by storing only the upper triangle
and provides a cyclic Jacobi eigensolver, trace evaluation of matrix-power
chains, rotations, and the rearrangement inequality tr(EF) >= sum of
oppositely sorted eigenvalue products used by the commutativity argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DIM = 8

# relative floors; absolute floor avoids 0/0 on zero matrices
_EIG_SINGULAR_REL = 1e-14
_ORTHO_TOL = 1e-12
_ABS_FLOOR = 1e-300


class SingularFactor(ValueError):
    """An inverse factor in a trace chain is singular or not positive."""


class NotOrthonormal(ValueError):
    """A rotation frame fails the orthonormality tolerance."""


@dataclass(frozen=True)
class SymTensor:
    """N x N real symmetric matrix stored as its upper triangle."""

    dim: int
    upper: tuple  # row-major upper triangle incl. diagonal, length N(N+1)/2

    def __post_init__(self):
        if not (1 <= self.dim <= MAX_DIM):
            raise ValueError(f"dim must be in [1, {MAX_DIM}], got {self.dim}")
        if len(self.upper) != self.dim * (self.dim + 1) // 2:
            raise ValueError("upper triangle has wrong length")

    @property
    def mat(self) -> np.ndarray:
        """Full symmetric matrix (fresh array, safe to mutate)."""
        n = self.dim
        m = np.zeros((n, n))
        k = 0
        for i in range(n):
            for j in range(i, n):
                m[i, j] = self.upper[k]
                m[j, i] = self.upper[k]
                k += 1
        return m

    @staticmethod
    def from_matrix(m) -> "SymTensor":
        """Build from a square array, symmetrizing by averaging."""
        m = np.asarray(m, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("expected a square matrix")
        n = m.shape[0]
        upper = tuple(0.5 * (m[i, j] + m[j, i]) for i in range(n) for j in range(i, n))
        return SymTensor(n, upper)

    @staticmethod
    def diag(values) -> "SymTensor":
        return SymTensor.from_matrix(np.diag(np.asarray(values, dtype=float)))

    @staticmethod
    def identity(n: int) -> "SymTensor":
        return SymTensor.from_matrix(np.eye(n))

    def __array__(self, dtype=None):
        m = self.mat
        return m if dtype is None else m.astype(dtype)


@dataclass(frozen=True)
class EigSystem:
    """Eigenvalues (descending) and an orthonormal eigenvector frame."""

    values: tuple
    frame: np.ndarray  # columns are eigenvectors, frame[:, i] <-> values[i]


def _as_matrix(s) -> np.ndarray:
    if isinstance(s, SymTensor):
        return s.mat
    m = np.asarray(s, dtype=float)
    return 0.5 * (m + m.T)


def eig(s) -> EigSystem:
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Sweeps all off-diagonal pairs until their norm falls below
    1e-14 * ||S||_F.  Eigenvalues come out descending; each eigenvector is
    signed so its first component of significant magnitude is positive,
    which makes the decomposition deterministic.
    """
    a = _as_matrix(s).copy()
    n = a.shape[0]
    q = np.eye(n)
    norm = np.linalg.norm(a) + _ABS_FLOOR
    for _ in range(100):  # sweeps; tiny matrices converge in a handful
        off = np.sqrt(2.0 * np.sum(np.triu(a, 1) ** 2))
        if off <= 1e-14 * norm:
            break
        for p in range(n - 1):
            for r in range(p + 1, n):
                apr = a[p, r]
                if abs(apr) <= 1e-18 * norm:
                    continue
                tau = (a[r, r] - a[p, p]) / (2.0 * apr)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau)) if tau != 0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                sn = t * c
                rot = np.eye(n)
                rot[p, p] = rot[r, r] = c
                rot[p, r] = sn
                rot[r, p] = -sn
                a = rot.T @ a @ rot
                a[p, r] = a[r, p] = 0.0
                q = q @ rot
    vals = np.diag(a).copy()
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    q = q[:, order]
    for i in range(n):
        col = q[:, i]
        lead = np.nonzero(np.abs(col) > _ORTHO_TOL * max(1.0, np.abs(col).max()))[0]
        if lead.size and col[lead[0]] < 0:
            q[:, i] = -col
    return EigSystem(tuple(float(v) for v in vals), q)


def _sym_inverse(m: np.ndarray, power: int) -> np.ndarray:
    """m**power for negative integer power via eigendecomposition."""
    es = eig(m)
    vals = np.array(es.values)
    scale = np.abs(vals).max() + _ABS_FLOOR
    if vals.min() <= _EIG_SINGULAR_REL * scale:
        raise SingularFactor(
            f"inverse factor not positive definite (min eig {vals.min():.3e}, scale {scale:.3e})"
        )
    return es.frame @ np.diag(vals ** float(power)) @ es.frame.T


def matrix_power(s, power: int) -> np.ndarray:
    """Integer matrix power; negative powers demand SPD."""
    m = _as_matrix(s)
    if power == 0:
        return np.eye(m.shape[0])
    if power < 0:
        return _sym_inverse(m, power)
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
    se = np.sort(np.array(eig(em).values))
    sf = np.sort(np.array(eig(fm).values))
    lower = float(np.dot(se, sf[::-1]))
    gap = float(np.trace(em @ fm)) - lower
    return lower, gap


def rotate(s, frame) -> SymTensor:
    """Congruence Q S Q^T by an orthonormal frame Q."""
    q = np.asarray(frame, dtype=float)
    m = _as_matrix(s)
    if q.shape != m.shape:
        raise NotOrthonormal("frame has wrong shape")
    if np.abs(q @ q.T - np.eye(q.shape[0])).max() > _ORTHO_TOL:
        raise NotOrthonormal("frame is not orthonormal within 1e-12")
    return SymTensor.from_matrix(q @ m @ q.T)


def rotation_2d(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])
