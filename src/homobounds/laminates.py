"""Closed-form laminate constructors for (A*, B#) pairs.

Simple laminates stack the two phases in one direction; rank-p sequential
laminates iterate lamination in p directions with weights m_i and realize
every boundary point of the A* phase set.  For each of the four inclusion
relations between the two microstructure sets there is a linear matrix
relation defining the accompanying relative limit, solved here entrywise in
the laminate eigenframe.  Each spec builds its direction moment once.
_laminate_frames decomposes the moments of many specs of one dimension in
one LAPACK call; _seq_const_stack builds their constant-density pairs
(A*, B#) from it with one frame product, and seq_A and seq_B_const build
one spec's tensors the same way.  A two-phase pair is diagonal in its
moment's eigenframe, and _seq_pp_stack judges the bounds chain there, on the
spectra it built, for many specs of one dimension at once; seq_pair_pp is
its one-spec case.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gclosure import DEFAULT_TOL, PhaseA, core_side, homogeneous_value, means
from .homog1d import bsharp_1d, overlap_window
from .pairbounds import (
    RELATIONS as _PAIR_RELATIONS,
    PhaseB,
    _chain_slacks,
    _flux_ratio,
    _flux_terms,
    _gradient_rows,
    _gradient_terms,
    admits,
    l2_terms,
    u2_terms,
)
from .symtensor import _NON_FINITE, SymTensor, eig, eig_stack, from_frames  # noqa: F401, eig is not called here but its alias is tested

RELATIONS = (*_PAIR_RELATIONS, "const_b")

_UNIT_TOL = 1e-12  # on a spec's unit directions and weights, and on the overlap window


class OverlapOutOfWindow(ValueError):
    pass


class InconsistentSpec(ValueError):
    pass


class RegionMismatch(ValueError):
    pass


class ChainViolation(RuntimeError):
    """Relation output breaks the general bounds chain; B# (tensor) and A* (astar) attached."""

    def __init__(self, message, tensor=None, astar=None):
        super().__init__(message)
        self.tensor = tensor
        self.astar = astar


@dataclass(frozen=True)
class LaminateSpec:
    directions: tuple  # unit vectors e_1..e_p
    weights: tuple  # m_1..m_p >= 0, summing to 1
    core_phase: str  # "a1" | "a2"
    relation: str

    def __post_init__(self):
        try:
            # from lists: a tuple built from a generator is resized and, once
            # freed, sits on a free list the check path never draws from
            dirs = tuple([tuple([float(x) for x in d]) for d in self.directions])
            weights = tuple([float(w) for w in self.weights])
        except (TypeError, ValueError) as exc:
            raise InconsistentSpec(f"directions must be lists of numbers, weights numbers: {exc}") from exc
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "weights", weights)
        if len(self.directions) != len(self.weights) or not self.directions:
            raise InconsistentSpec("directions and weights must be nonempty and match")
        if len({len(d) for d in self.directions}) != 1:
            raise InconsistentSpec("directions must all have the same dimension")
        if not all(map(math.isfinite, [x for d in self.directions for x in d] + list(self.weights))):
            raise InconsistentSpec("directions and weights must be finite")
        for d in self.directions:
            # hypot scales its arguments, so a huge finite direction fails here without an overflow warning
            if abs(math.hypot(*d) - 1.0) > _UNIT_TOL:
                raise InconsistentSpec(f"direction {d} is not a unit vector")
        if any(w < -_UNIT_TOL for w in self.weights):
            raise InconsistentSpec("weights must be nonnegative")
        if abs(sum(self.weights) - 1.0) > _UNIT_TOL:
            raise InconsistentSpec("weights must sum to 1")
        if self.core_phase not in ("a1", "a2"):
            raise InconsistentSpec("core_phase must be 'a1' or 'a2'")
        if self.relation not in RELATIONS:
            raise InconsistentSpec(f"relation must be one of {RELATIONS}")

    @property
    def dim(self) -> int:
        return len(self.directions[0])

    @cached_property
    def moment(self) -> SymTensor:
        """Unit-trace second moment sum m_i e_i (x) e_i, built once per spec."""
        e = np.array(self.directions)
        m = np.zeros((self.dim, self.dim))
        # one product for all the terms w_i e_i e_i^T, summed in order
        for term in np.array(self.weights)[:, None, None] * (e[:, :, None] * e[:, None, :]):
            m += term
        return SymTensor(m)

    def to_json(self) -> str:
        return json.dumps(
            {
                "directions": [list(d) for d in self.directions],
                "weights": list(self.weights),
                "core": self.core_phase,
                "relation": self.relation,
            }
        )

    @staticmethod
    def from_json(text: str) -> "LaminateSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise InconsistentSpec("a laminate spec is a JSON object")
        missing = [k for k in ("directions", "weights", "core", "relation") if k not in data]
        if missing:
            raise InconsistentSpec(f"missing from the laminate spec: {', '.join(map(repr, missing))}")
        # float() reads a JSON true as 1.0, so booleans are refused here, at the wire format
        for key in ("directions", "weights"):
            value = data[key]
            rows = value if isinstance(value, list) else [value]
            if any(isinstance(x, bool) for row in rows for x in (row if isinstance(row, list) else [row])):
                raise InconsistentSpec(f"laminate spec {key!r} holds numbers, not true or false, got {json.dumps(value)}")
        return LaminateSpec(data["directions"], data["weights"], data["core"], data["relation"])


def simple_laminate_pair(
    pa: PhaseA, pb: PhaseB, thetaAB: float, axis: int = 0, dim: int = 2
) -> tuple:
    """Rank-1 laminate pair with prescribed overlap fraction.

    A* is diagonal with the harmonic mean on the lamination axis and the
    arithmetic mean elsewhere; B# carries the one-dimensional relative limit
    on the axis and the plain mean elsewhere.
    """
    thetaAB = float(thetaAB)
    lo, hi = overlap_window(pa, pb)
    if not (lo - _UNIT_TOL <= thetaAB <= hi + _UNIT_TOL):
        raise OverlapOutOfWindow(f"thetaAB={thetaAB} outside [{lo}, {hi}]")
    if not (0 <= axis < dim):
        raise ValueError("axis out of range")
    harm, arith = means(pa)
    a_diag = [arith] * dim
    a_diag[axis] = harm
    b_diag = [pb.mean] * dim
    b_diag[axis] = bsharp_1d(pa, pb, thetaAB)
    return SymTensor.diag(a_diag), SymTensor.diag(b_diag)


def _laminate_frames(specs, pas) -> tuple:
    """(w, a_diag, frames): the moment weights and the A* eigenvalues along each moment eigenframe, as (K, N) and (K, N, N) stacks.

    A* shares the eigenframe of the direction second moment M, so every
    function of A* the constructors need is read from a_diag.  With
    (base, frac, rest, sign) = core_side(pa, core) it solves the resolvent relation
        frac (A* - base I)^-1 = sign (a2-a1)^-1 I + rest M / base,
    and a homogeneous base medium (see homogeneous_value) gives A* = base I.
    The specs share one dimension; one LAPACK call decomposes the moments
    not decomposed before, and each row has the bits of its one-spec case.
    """
    systems = eig_stack([s.moment for s in specs])
    w = np.array([es.values for es in systems])
    rows = []
    for spec, pa in zip(specs, pas):
        base, frac, rest, sign = core_side(pa, spec.core_phase)
        # a homogeneous base medium's row is base + 0/1
        rows.append((base, 0.0, 0.0, 1.0) if homogeneous_value(pa) == base else (base, frac, rest, sign / (pa.a2 - pa.a1)))
    base, frac, rest, lead = np.array(rows).T[:, :, None]
    return w, base + frac / (lead + rest * w / base), np.array([es.frame for es in systems])


def seq_A(spec: LaminateSpec, pa: PhaseA) -> SymTensor:
    """Effective tensor of a rank-p sequential laminate.

    Core a2 / matrix a1 realizes the lower boundary of the phase set,
    core a1 / matrix a2 the upper one; the formulas are resolvent relations
    in the direction second moment, solved in its eigenframe.
    """
    _, a_diag, frames = _laminate_frames([spec], [pa])
    return SymTensor(from_frames(frames, a_diag)[0])


def _seq_const_stack(specs, pas, bs) -> tuple:
    """([seq_A], [seq_B_const]) of each (spec, pa, b), the specs of one dimension, from one _laminate_frames pass.

    A non-finite entry anywhere in the stack raises ValueError, as in _seq_pp_stack.
    """
    for b in bs:
        if not b > 0:
            raise ValueError(f"need a density b > 0, got {b}")
    _, a_diag, frames = _laminate_frames(specs, pas)
    rows = []
    for spec, pa, b in zip(specs, pas, bs):
        base, frac, _, sign = core_side(pa, spec.core_phase)
        # a homogeneous base medium, where A* = base I, gives the row b + 0/1
        scale = 1.0 if homogeneous_value(pa) == base else frac * (pa.a2 - pa.a1) * base
        rows.append((b, base, sign, scale, means(pa)[1]))
    b, base, sign, scale, arith = np.array(rows).T[:, :, None]
    with np.errstate(all="ignore"):  # a non-finite result is refused below, without numpy's warning
        diag = b + b * (arith - a_diag) * (sign * (a_diag - base)) / scale
        matrices = from_frames(np.concatenate([frames, frames]), np.concatenate([a_diag, diag]))
    if not np.isfinite(matrices).all():
        raise ValueError(_NON_FINITE)
    tensors = SymTensor.stack(matrices)
    return tensors[: len(specs)], tensors[len(specs) :]


def seq_B_const(spec: LaminateSpec, pa: PhaseA, b: float) -> SymTensor:
    """Quasi-sequential relative limit for a constant second density b.

    Defining relation in the laminate frame:
        b (B# - b I)^-1 (Abar - A*)^2 = theta (1-theta) (a2-a1)^2 M.
    Eliminating M through the resolvent relation of _laminate_frames gives,
    along each eigenvalue lambda of A*,
        B# = b + b (Abar - lambda) sign (lambda - base) / (frac (a2-a1) base),
    which is b wherever M has zero weight.
    """
    return _seq_const_stack([spec], [pa], [b])[1][0]


def seq_B_pp(spec: LaminateSpec, pa: PhaseA, pb: PhaseB) -> SymTensor:
    """Two-phase sequential relative limit for the spec's inclusion relation.

    Solves the defining linear matrix relation entrywise in the laminate
    frame.  Each relation needs the A-core pairbounds.RELATIONS gives it:
    a2 for the relations on the lower A*-boundary (A_subset_B, disjoint),
    a1 for the flux-side ones (B_subset_A, complement_cover).  A homogeneous
    matrix medium gives mean(b) I with either core.  The result is checked
    against the general bounds chain; a complement_cover output may
    legitimately fail it, in which case ChainViolation is raised with the
    tensor and A* attached.
    """
    return seq_pair_pp(spec, pa, pb)[1]


def _check_pp(spec: LaminateSpec, pa: PhaseA, pb: PhaseB):
    """Refuse a spec seq_pair_pp cannot build: the constant-density relation, one the fractions do not admit, or the wrong core."""
    relation = spec.relation
    if relation == "const_b":
        raise InconsistentSpec("use seq_B_const for the constant-density relation")
    if not admits(relation, pa, pb, False):
        raise RegionMismatch(
            f"relation {relation} incompatible with thetaA={pa.thetaA}, thetaB={pb.thetaB}"
        )
    core = _PAIR_RELATIONS[relation].core_a
    if spec.core_phase != core:
        raise InconsistentSpec(f"relation {relation} needs core {core}")


def _columns(rows) -> tuple:
    """The entries of equal-length tuples, one per row of a stack, as (K, 1) columns; a lone row's entries stay as they are."""
    return rows[0] if len(rows) == 1 else tuple(np.array(rows).T[:, :, None])


def _pp_diag(kind: str, lam: np.ndarray, m: np.ndarray, specs, pas, pbs) -> np.ndarray:
    """B#'s eigenvalues along the moment's eigenframe of laminates of one kind (see _seq_pp_stack), each row's phase terms Python floats."""
    rows = [(pa, pb, pa.thetaA) for pa, pb in zip(pas, pbs)]
    if kind == "homogeneous":
        return np.broadcast_to(np.array([pb.mean for pb in pbs])[:, None], lam.shape)
    if kind == "a2":
        nested, disjoint = _gradient_rows(lam, m, _columns([_gradient_terms(*row) for row in rows]))
        return np.where(np.array([spec.relation == "A_subset_B" for spec in specs])[:, None], nested, disjoint)
    terms = l2_terms if kind == "B_subset_A" else u2_terms
    inverse_a2, scale, first, level, osc = _columns([(*_flux_terms(pa, theta), *terms(pa, pb, theta)) for pa, pb, theta in rows])
    ratio = _flux_ratio(lam, inverse_a2, scale) ** 2
    if kind == "B_subset_A":
        flux = first + (level + osc * (1.0 - m)) * ratio
    else:
        flux = first / lam - (level - osc * (1.0 - m)) * ratio
    return lam**2 * flux


def _seq_pp_stack(specs, pas, pbs) -> list:
    """seq_pair_pp of each (spec, pa, pb), the specs of one dimension, from one _laminate_frames pass.

    Each entry is the pair (A*, B#), or the ChainViolation seq_pair_pp
    raises for it; a spec seq_pair_pp refuses otherwise raises here, and a
    non-finite entry anywhere in the stack raises ValueError.  The rows of
    each kind (a homogeneous matrix medium, core a2, or each core-a1
    relation) are evaluated together by _pp_diag, so each row has the bits
    of its one-spec case.
    """
    for spec, pa, pb in zip(specs, pas, pbs):
        _check_pp(spec, pa, pb)
    w, a_diag, frames = _laminate_frames(specs, pas)
    kinds = {}
    for k, (spec, pa) in enumerate(zip(specs, pas)):
        core = _PAIR_RELATIONS[spec.relation].core_a
        # the core-a2 relations share one pass, gradient_extremes giving both
        kind = spec.relation if core == "a1" else "a2"
        kinds.setdefault("homogeneous" if homogeneous_value(pa) == core_side(pa, core)[0] else kind, []).append(k)
    if len(kinds) == 1:  # no row to scatter
        diag = _pp_diag(*kinds, a_diag, w, specs, pas, pbs)
    else:
        diag = np.empty_like(a_diag)
        for kind, ks in kinds.items():
            diag[ks] = _pp_diag(kind, a_diag[ks], w[ks], *([seq[k] for k in ks] for seq in (specs, pas, pbs)))
    k = len(specs)
    matrices = from_frames(np.concatenate([frames, frames]), np.concatenate([a_diag, diag]))
    link = _columns([(pb.b2 / pa.a1,) for pa, pb in zip(pas, pbs)])[0] * a_diag - diag
    # symmetrising keeps an entry finite, or not, as it is
    if not (np.isfinite(matrices).all() and np.isfinite(link).all()):
        raise ValueError(_NON_FINITE)
    tensors = SymTensor.stack(matrices)
    built = []
    for spec, pa, pb, astar, bsharp, lam, mu, nu in zip(specs, pas, pbs, tensors[:k], tensors[k:], a_diag.tolist(), diag.tolist(), link.tolist()):
        # as Python floats, like the eigenvalues general_chain_check takes, so an overflow is inf without a numpy warning
        slacks = _chain_slacks(lam, mu, nu, pa, pb)
        if min(slacks) < -DEFAULT_TOL:
            message = f"relation {spec.relation} output violates the bounds chain (worst slack {min(slacks):.3e})"
            built.append(ChainViolation(message, tensor=bsharp, astar=astar))
        else:
            built.append((astar, bsharp))
    return built


def seq_pair_pp(spec: LaminateSpec, pa: PhaseA, pb: PhaseB) -> tuple:
    """(A*, B#) = (seq_A, seq_B_pp) of a two-phase spec, with ChainViolation as in seq_B_pp: the one-spec case of _seq_pp_stack.

    A* and B# are diagonal in the moment's eigenframe (Francfort & Murat
    1986), so the chain is judged there, on their spectra and the link's
    (b2/a1) a_diag - diag, and only the moment is decomposed.  A non-finite
    A* or B# entry or link value is refused with the ValueError a
    decomposition gives it.  Where the matrix phase fills the medium (see
    homogeneous_value), A* is its value times I and B# is mean(b) I, for
    either core.
    """
    built = _seq_pp_stack([spec], [pa], [pb])[0]
    if isinstance(built, ChainViolation):
        raise built
    return built
