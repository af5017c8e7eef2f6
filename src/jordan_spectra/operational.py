"""Operational layer: effects, measurements, frames, rank, spectrality.

Effects on a polytope are affine functionals with exact coefficients and
are certified by LP; effects on an EJA state space are algebra elements
under the trace pairing with eigenvalue-range tests.  Frames are ordered
tuples of jointly perfectly distinguishable pure states.

A k-frame's states are always affinely independent: applying e_k to an
affine dependence omega_k = sum_j lam_j omega_j gives 1 = 0.  Hence every
polytope frame spans a simplex, a frame hull is full-dimensional only when
the body itself is that simplex, and for every non-simplex polytope the
frame hulls form a measure-zero union; an exact interior point off all of
them certifies NotSpectral in any dimension.  Every verdict is exact: a
covering frame or such a point, both rechecked by exact barycentric
coordinates.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import EjaElement, inner, norm, trace, unit
from .exactla import barycentric_coordinates
from .exactlp import Feasible, linear_program, lp_feasible
from .geometry import (
    Ball,
    CapExceeded,
    EjaStateSpace,
    Face,
    Polytope,
    _analysis,
    exposed_faces,
    membership,
)
from .scalars import exact, format_scalar
from .spectral import eigenvalues, is_primitive_idempotent

FRAME_VERTEX_CAP = 14


class OperationalError(ValueError):
    pass


# ---------------------------------------------------------------------------
# effects


@dataclass(frozen=True)
class AffineEffect:
    """Affine functional coeffs . x + offset with exact scalars."""

    coeffs: tuple
    offset: object

    def __call__(self, point):
        return sum(c * x for c, x in zip(self.coeffs, point)) + self.offset

    def __add__(self, other):
        return AffineEffect(
            coeffs=tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
            offset=self.offset + other.offset,
        )


def unit_effect(body):
    if isinstance(body, (Polytope, Ball)):
        return AffineEffect(
            coeffs=tuple(Fraction(0) for _ in range(body.ambient_dim)),
            offset=Fraction(1),
        )
    if isinstance(body, EjaStateSpace):
        return unit(body.descriptor)
    raise OperationalError(f"unknown body {type(body).__name__}")


def zero_effect(body):
    if isinstance(body, (Polytope, Ball)):
        return AffineEffect(
            coeffs=tuple(Fraction(0) for _ in range(body.ambient_dim)),
            offset=Fraction(0),
        )
    if isinstance(body, EjaStateSpace):
        return unit(body.descriptor) * 0.0
    raise OperationalError(f"unknown body {type(body).__name__}")


def is_effect(body, functional, tol: float = 1e-9) -> bool:
    """True iff the functional's range over the body lies in [0, 1].

    Exact vertex evaluation for polytopes; exact norm comparison for the
    ball (offset +- |coeffs| bounds); eigenvalue range for EJA elements,
    using the self-duality of the cone of squares.
    """
    if isinstance(body, Polytope):
        eff = functional if isinstance(functional, AffineEffect) else AffineEffect(*functional)
        return all(0 <= eff(v) <= 1 for v in body.vertices)
    if isinstance(body, Ball):
        eff = functional if isinstance(functional, AffineEffect) else AffineEffect(*functional)
        g2 = sum(c * c for c in eff.coeffs)
        lo_ok = eff.offset >= 0 and eff.offset * eff.offset >= g2
        hi = 1 - eff.offset
        hi_ok = hi >= 0 and hi * hi >= g2
        return bool(lo_ok and hi_ok)
    if isinstance(body, EjaStateSpace):
        if not isinstance(functional, EjaElement):
            raise OperationalError("EJA effects are algebra elements")
        eigs = eigenvalues(functional)
        return bool(eigs[0] <= 1 + tol and eigs[-1] >= -tol)
    raise OperationalError(f"unknown body {type(body).__name__}")


# ---------------------------------------------------------------------------
# distinguishability


@dataclass(frozen=True)
class Measurement:
    effects: tuple


@dataclass(frozen=True)
class NotDistinguishable:
    reason: str = ""


@dataclass(frozen=True)
class FrameData:
    """Ordered jointly distinguishable pure states with their certificate."""

    states: tuple
    indices: tuple | None
    certificate: tuple


def _distinguishing_submeasurement(poly: Polytope, states):
    """Exact LP for effects with e_i(state_j) = delta_ij and sum <= u.

    Variables are the ambient affine coefficients of all k effects; the
    upper bound e_i <= 1 is implied by nonnegativity plus the sum row, so
    only e_i(v) >= 0 and sum_i e_i(v) <= 1 rows appear.
    """
    k = len(states)
    m = poly.ambient_dim
    width = k * (m + 1)
    rows = []

    def block(i, point, one):
        row = [0] * width
        base = i * (m + 1)
        for j in range(m):
            row[base + j] = point[j]
        row[base + m] = one
        return row

    for i in range(k):
        for j, s in enumerate(states):
            rows.append((tuple(block(i, s, 1)), "=", int(i == j)))
        for v in poly.vertices:
            rows.append((tuple(block(i, v, 1)), ">=", 0))
    for v in poly.vertices:
        row = [0] * width
        for i in range(k):
            base = i * (m + 1)
            for j in range(m):
                row[base + j] = row[base + j] + v[j]
            row[base + m] = row[base + m] + 1
        rows.append((tuple(row), "<=", 1))
    res = lp_feasible(linear_program(rows, n_vars=width))
    if not isinstance(res, Feasible):
        return None
    effects = []
    for i in range(k):
        base = i * (m + 1)
        effects.append(
            AffineEffect(
                coeffs=tuple(res.witness[base : base + m]),
                offset=res.witness[base + m],
            )
        )
    return tuple(effects)


def distinguishing_measurement(body, states, tol: float = 1e-9):
    """A measurement with e_i(state_j) = delta_ij, or NotDistinguishable.

    Polytopes: LP for a submeasurement, completed deterministically by
    folding the remainder into the first effect.  EJA: states must be
    primitive idempotents; they are distinguishable iff pairwise
    trace-orthogonal, and the idempotents themselves (plus the remainder,
    when nonzero) form the measurement.  Ball: pairs must be antipodal
    unit vectors.
    """
    states = tuple(states)
    if not states:
        raise OperationalError("need at least one state")
    if isinstance(body, Polytope):
        for s in states:
            if membership(body, s) == "outside":
                raise OperationalError("state outside the body")
        sub = _distinguishing_submeasurement(body, states)
        if sub is None:
            return NotDistinguishable(reason="submeasurement LP infeasible")
        remainder = unit_effect(body)
        for e in sub:
            remainder = AffineEffect(
                coeffs=tuple(r - c for r, c in zip(remainder.coeffs, e.coeffs)),
                offset=remainder.offset - e.offset,
            )
        completed = (sub[0] + remainder,) + sub[1:]
        return Measurement(effects=completed)
    if isinstance(body, Ball):
        for s in states:
            if sum(_sq(c) for c in s) != 1:
                raise OperationalError("ball states are unit vectors")
        if len(states) == 1:
            return Measurement(effects=(unit_effect(body),))
        if len(states) > 2:
            return NotDistinguishable(reason="ball frames have at most 2 states")
        x, y = states
        if any(a + b != 0 for a, b in zip(x, y)):
            return NotDistinguishable(reason="not antipodal")
        half = Fraction(1, 2)
        e1 = AffineEffect(coeffs=tuple(half * c for c in x), offset=half)
        e2 = AffineEffect(coeffs=tuple(-half * c for c in x), offset=half)
        return Measurement(effects=(e1, e2))
    if isinstance(body, EjaStateSpace):
        for s in states:
            if not isinstance(s, EjaElement) or s.algebra != body.descriptor:
                raise OperationalError("states must be elements of the algebra")
            if not is_primitive_idempotent(s, tol=max(tol, 1e-8)):
                raise OperationalError(
                    "EJA distinguishability is implemented for primitive idempotents"
                )
        for a, b in itertools.combinations(states, 2):
            if abs(inner(a, b)) > tol:
                return NotDistinguishable(reason="states are not trace-orthogonal")
        total = states[0]
        for s in states[1:]:
            total = total + s
        remainder = unit(body.descriptor) - total
        effects = states if norm(remainder) <= tol else states + (remainder,)
        return Measurement(effects=effects)
    raise OperationalError(f"unknown body {type(body).__name__}")


def _sq(c):
    v = exact(c)
    return v * v


def is_measurement(body, effects, tol: float = 1e-10) -> bool:
    """All effects valid and summing to the order unit."""
    if not all(is_effect(body, e, tol=max(tol, 1e-9)) for e in effects):
        return False
    if isinstance(body, (Polytope, Ball)):
        total = zero_effect(body)
        for e in effects:
            total = total + e
        pts = body.vertices if isinstance(body, Polytope) else None
        if pts is None:
            return all(c == 0 for c in total.coeffs) and total.offset == 1
        return all(total(v) == 1 for v in pts)
    total = effects[0]
    for e in effects[1:]:
        total = total + e
    return norm(total - unit(body.descriptor)) <= tol


# ---------------------------------------------------------------------------
# frames


def _frame_sets(poly: Polytope, k: int, cap: int) -> dict:
    """{k-subset: submeasurement} over the vertex subsets that are frames.

    Subsets are sorted index tuples in lex order; the map is kept in the
    body's analysis record, the cap is checked on every call.
    """
    n = len(poly.vertices)
    if n > cap:
        raise CapExceeded(f"{n} vertices exceeds the frame cap {cap}")
    frames = _analysis(poly).frames
    if k not in frames:
        found = {}
        for subset in itertools.combinations(range(n), k):
            states = [poly.vertices[i] for i in subset]
            cert = _distinguishing_submeasurement(poly, states)
            if cert is not None:
                found[subset] = cert
        frames[k] = found
    return frames[k]


def enumerate_frames(poly: Polytope, k: int, cap: int = FRAME_VERTEX_CAP):
    """All ordered k-frames of vertices, lexicographic on index tuples.

    The defining conditions are permutation-symmetric, so one LP per
    unordered subset suffices; each ordering reuses the permuted
    certificate.
    """
    if not isinstance(poly, Polytope):
        raise OperationalError("frame enumeration is for polytopes")
    if k < 1:
        raise OperationalError("frame size must be >= 1")
    frames = []
    for subset, cert in _frame_sets(poly, k, cap).items():
        for perm in itertools.permutations(subset):
            reordered = tuple(cert[subset.index(i)] for i in perm)
            states = tuple(poly.vertices[i] for i in perm)
            frames.append(FrameData(states=states, indices=perm, certificate=reordered))
    frames.sort(key=lambda f: f.indices)
    return tuple(frames)


def rank(body, cap: int = FRAME_VERTEX_CAP) -> int:
    """Largest frame cardinality.

    Polytopes by exact enumeration (frames are affinely independent, so
    k <= dim + 1 and subsets of frames are frames, allowing early stop);
    EJA by the algebra's rank; Ball(n) is 2.
    """
    if isinstance(body, EjaStateSpace):
        return body.descriptor.rank
    if isinstance(body, Ball):
        return 2
    if not isinstance(body, Polytope):
        raise OperationalError(f"unknown body {type(body).__name__}")
    d = body.dim
    best = 0
    for k in range(1, min(len(body.vertices), d + 1) + 1):
        if _frame_sets(body, k, cap):
            best = k
        else:
            break
    return best


# ---------------------------------------------------------------------------
# spectrality


@dataclass(frozen=True)
class SpectralVerdict:
    spectral: bool
    rank: int
    counterexample: tuple | None
    frames_by_k: tuple | None
    covering_frame: tuple | None = None

    def to_dict(self) -> dict:
        counter = None
        if self.counterexample is not None:
            counter = [format_scalar(c) for c in self.counterexample]
        frames = None
        if self.frames_by_k is not None:
            frames = {str(k): c for k, c in self.frames_by_k}
        return {
            "spectral": self.spectral,
            "rank": self.rank,
            "counterexample": counter,
            "frames_by_k": frames,
        }


def _in_hull_exact(states, point) -> bool:
    lam = barycentric_coordinates(list(states), list(point))
    return lam is not None and all(v >= 0 for v in lam)


def _interior_point_off_hulls(poly: Polytope, hulls, seed: int, tries: int = 1000):
    rng = random.Random(seed)
    n = len(poly.vertices)
    for _ in range(tries):
        weights = [Fraction(rng.randint(1, 64)) for _ in range(n)]
        total = sum(weights)
        point = None
        for w, v in zip(weights, poly.vertices):
            scaled = tuple(w / total * c for c in v)
            point = scaled if point is None else tuple(a + b for a, b in zip(point, scaled))
        if not any(_in_hull_exact(h, point) for h in hulls):
            return point
    raise OperationalError("failed to find a point off the frame hulls")


def is_spectral(
    body, cap: int = FRAME_VERTEX_CAP, seed: int = 0
) -> SpectralVerdict:
    """Is every state a convex combination over a single frame?

    EJA state spaces and balls are spectral (spectral theorem, diameters).
    For polytopes the body is spectral iff some frame's hull contains every
    vertex; otherwise an exact interior counterexample off the measure-zero
    union of frame hulls is produced, ``seed`` steering its search.
    """
    if isinstance(body, EjaStateSpace):
        return SpectralVerdict(
            spectral=True,
            rank=body.descriptor.rank,
            counterexample=None,
            frames_by_k=None,
        )
    if isinstance(body, Ball):
        return SpectralVerdict(
            spectral=True, rank=2, counterexample=None, frames_by_k=None
        )
    if not isinstance(body, Polytope):
        raise OperationalError(f"unknown body {type(body).__name__}")
    r = rank(body, cap)
    frames_by_k = []
    all_sets = []
    for k in range(1, r + 1):
        sets = _frame_sets(body, k, cap)
        frames_by_k.append((k, len(sets) * math.factorial(k)))
        all_sets.extend(sets)
    hulls = [tuple(body.vertices[i] for i in s) for s in all_sets]
    covering = None
    for s in _frame_sets(body, r, cap):
        states = [body.vertices[i] for i in s]
        if all(_in_hull_exact(states, v) for v in body.vertices):
            covering = s
            break
    if covering is not None:
        return SpectralVerdict(
            spectral=True,
            rank=r,
            counterexample=None,
            frames_by_k=tuple(frames_by_k),
            covering_frame=covering,
        )
    return SpectralVerdict(
        spectral=False,
        rank=r,
        counterexample=_interior_point_off_hulls(body, hulls, seed),
        frames_by_k=tuple(frames_by_k),
    )


def recheck_counterexample(body: Polytope, point, cap: int = FRAME_VERTEX_CAP) -> bool:
    """Exact re-verification that ``point`` defeats spectrality."""
    if membership(body, point) == "outside":
        return False
    r = rank(body, cap)
    for k in range(1, r + 1):
        for s in _frame_sets(body, k, cap):
            if _in_hull_exact([body.vertices[i] for i in s], point):
                return False
    return True


# ---------------------------------------------------------------------------
# faces of frames


@dataclass(frozen=True)
class EjaFace:
    """Face of an EJA state space: states supported on an idempotent."""

    idempotent: EjaElement

    @property
    def rank(self) -> int:
        return int(round(trace(self.idempotent)))


def face_of_frame(body, frame):
    """Smallest exposed face containing the frame.

    Polytopes: the intersection of the facets that contain the frame's
    vertex indices.  EJA: the face of the idempotent p = sum of the
    (pairwise orthogonal) frame elements.
    """
    if isinstance(body, Polytope):
        indices = frame.indices if isinstance(frame, FrameData) else tuple(frame)
        lat = exposed_faces(body)
        want = set(indices)
        through = [f.indices for f in lat.facets if want <= set(f.indices)]
        smallest = set(lat.top.indices).intersection(*through)
        if not want <= smallest:
            raise OperationalError("no face contains the frame")
        return lat.find(smallest)
    if isinstance(body, EjaStateSpace):
        elems = frame.states if isinstance(frame, FrameData) else tuple(frame)
        if not elems:
            return EjaFace(idempotent=unit(body.descriptor) * 0.0)
        for a, b in itertools.combinations(elems, 2):
            if abs(inner(a, b)) > 1e-8:
                raise OperationalError("frame elements must be orthogonal")
        total = elems[0]
        for s in elems[1:]:
            total = total + s
        return EjaFace(idempotent=total)
    raise OperationalError(f"unknown body {type(body).__name__}")


def complement_face(body, face):
    """The orthocomplement face.

    EJA: the face of u - p, an exact involution.  Polytopes: extend a
    maximal frame of the face to maximal frames of the body; when every
    extension generates the same face, that face is the complement
    (simplices; not well-defined for e.g. the square).
    """
    if isinstance(body, EjaStateSpace):
        if not isinstance(face, EjaFace):
            raise OperationalError("expected an EJA face")
        return EjaFace(idempotent=unit(body.descriptor) - face.idempotent)
    if not isinstance(body, Polytope):
        raise OperationalError(f"unknown body {type(body).__name__}")
    if not isinstance(face, Face):
        raise OperationalError("expected a polytope face")
    lat = exposed_faces(body)
    r = rank(body)
    inner_set = ()
    if face.indices:
        for k in range(len(face.indices), 0, -1):
            found = None
            for s in _frame_sets(body, k, FRAME_VERTEX_CAP):
                if set(s) <= set(face.indices):
                    found = s
                    break
            if found is not None:
                inner_set = found
                break
    candidates = set()
    for s in _frame_sets(body, r, FRAME_VERTEX_CAP):
        if set(inner_set) <= set(s):
            rest = tuple(sorted(set(s) - set(inner_set)))
            candidates.add(face_of_frame(body, rest).indices)
    if not candidates:
        raise OperationalError("face has no maximal-frame extension")
    if len(candidates) > 1:
        raise OperationalError("complement face is not well-defined for this body")
    return lat.find(candidates.pop())
