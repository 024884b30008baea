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
moment's eigenframe, and seq_pair_pp judges the bounds chain there, on the
spectra it built.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gclosure import DEFAULT_TOL, PhaseA, core_side, homogeneous_value, means
from .homog1d import bsharp_1d, overlap_window
from .pairbounds import RELATIONS as _PAIR_RELATIONS, PhaseB, _chain_slacks, admits, flux_ratio, gradient_extremes, l2_terms, u2_terms
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
        if not np.isfinite([x for d in self.directions for x in d] + list(self.weights)).all():
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
        m = np.zeros((self.dim, self.dim))
        for d, w in zip(self.directions, self.weights):
            e = np.asarray(d)
            m += w * np.outer(e, e)
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
    """([seq_A], [seq_B_const]) of each (spec, pa, b), the specs of one dimension, from one _laminate_frames pass."""
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
    diag = b + b * (arith - a_diag) * (sign * (a_diag - base)) / scale
    tensors = [SymTensor(m) for m in from_frames(np.concatenate([frames, frames]), np.concatenate([a_diag, diag]))]
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


def seq_pair_pp(spec: LaminateSpec, pa: PhaseA, pb: PhaseB) -> tuple:
    """(A*, B#) = (seq_A, seq_B_pp) of a two-phase spec, with ChainViolation as in seq_B_pp.

    A* and B# are diagonal in the moment's eigenframe (Francfort & Murat
    1986), so the chain is judged there, on their spectra and the link's
    (b2/a1) a_diag - diag, and only the moment is decomposed.  A non-finite
    A* or B# entry or link value is refused with the ValueError a
    decomposition gives it.  Where the matrix phase fills the medium (see
    homogeneous_value), A* is its value times I and B# is mean(b) I, for
    either core.
    """
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

    w, a_diag, frames = _laminate_frames([spec], [pa])
    w, a_diag = w[0], a_diag[0]
    theta = pa.thetaA

    if homogeneous_value(pa) == core_side(pa, core)[0]:
        diag = np.full(len(a_diag), pb.mean)
    elif core == "a2":
        nested, disjoint = gradient_extremes(a_diag, w, pa, pb, theta)
        diag = nested if relation == "A_subset_B" else disjoint
    else:
        ratio = flux_ratio(a_diag, pa, theta) ** 2
        if relation == "B_subset_A":
            c, level, osc = l2_terms(pa, pb, theta)
            flux = c + (level + osc * (1.0 - w)) * ratio
        else:
            lead, level, osc = u2_terms(pa, pb, theta)
            flux = lead / a_diag - (level - osc * (1.0 - w)) * ratio
        diag = a_diag**2 * flux

    astar, bsharp = [SymTensor(m) for m in from_frames(frames[[0, 0]], np.array([a_diag, diag]))]
    link = (pb.b2 / pa.a1) * a_diag - diag
    if not all(np.isfinite(v).all() for v in (astar._m, bsharp._m, link)):
        raise ValueError(_NON_FINITE)
    # as Python floats, like the eigenvalues general_chain_check takes, so an overflow is inf without a numpy warning
    slacks = _chain_slacks(a_diag.tolist(), diag.tolist(), link.tolist(), pa, pb)
    if min(slacks) < -DEFAULT_TOL:
        raise ChainViolation(
            f"relation {relation} output violates the bounds chain (worst slack {min(slacks):.3e})",
            tensor=bsharp,
            astar=astar,
        )
    return astar, bsharp
