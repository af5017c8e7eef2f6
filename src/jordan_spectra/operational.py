"""Operational layer: effects, measurements, frames, rank, spectrality.

Effects on a polytope are affine functionals with exact coefficients.  By
the affine Farkas lemma each is mu + sum_F lam_F f_F with mu, lam >= 0 over
the facet functionals f_F (Ziegler, "Lectures on Polytopes", 1995), so a
submeasurement on two or more states is one small LP in facet multipliers,
or no LP when some state has no facet to carry its effect.  Effects on an
EJA state space are algebra elements under the trace pairing with
eigenvalue-range tests.  Frames are ordered tuples of jointly perfectly
distinguishable pure states.  One k-subset per automorphism orbit is
decided by the LP and its certificate checked exactly; the facet
multipliers are moved along the group generators to the rest of the
orbit.  Each generator is checked against the body's table of facet
values, once per frame size, and a checked generator carries a valid
certificate onto a valid one, so moved certificates need no check of
their own.  That table holds the ambient facet effects at the ambient
vertices in ring integers (Z or Z[sqrt 5], as in ``exactla``), never the
chart-side values that posed the LP, so each check is integer dot
products and signs; Fraction effects are built only to be handed out.

A k-frame's states are always affinely independent: applying e_k to an
affine dependence omega_k = sum_j lam_j omega_j gives 1 = 0.  A
(d + 1)-frame's effects are the barycentric coordinates of its simplex,
>= 0 on the body, so only a simplex has rank d + 1, and any other body's
frame hulls lie in hyperplanes spanned by d vertices.  Every verdict is
exact: a covering frame, which is then every vertex, or an interior point
on none of those hyperplanes, rechecked from their table alone.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .automorphisms import group_generators, orbit_tree
from .exactla import _eliminate, _Integers, _QuadraticIntegers, _ring_for
from .exactlp import Feasible, linear_program, lp_feasible
from .geometry import (
    VERTEX_CAP,
    Ball,
    EjaStateSpace,
    Face,
    Polytope,
    _analysis,
    _capped_analysis,
    exposed_faces,
    membership,
)
from .scalars import exact, format_scalar

if TYPE_CHECKING:
    from .algebra import EjaElement


class OperationalError(ValueError):
    pass


# An EJA effect's eigenvalues may leave [0, 1] by EFFECT_TOL, which also
# bounds the overlaps and the remainder of distinguished states; a
# measurement's effects sum to the unit within UNIT_SUM_TOL.
EFFECT_TOL = 1e-9
UNIT_SUM_TOL = 1e-10

# Seeded interior candidates tried for a spectrality counterexample.
WITNESS_TRIES = 1000


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
        from .algebra import unit

        return unit(body.descriptor)
    raise OperationalError(f"unknown body {type(body).__name__}")


def zero_effect(body):
    if isinstance(body, (Polytope, Ball)):
        return AffineEffect(
            coeffs=tuple(Fraction(0) for _ in range(body.ambient_dim)),
            offset=Fraction(0),
        )
    if isinstance(body, EjaStateSpace):
        from .algebra import unit

        return unit(body.descriptor) * 0.0
    raise OperationalError(f"unknown body {type(body).__name__}")


def is_effect(body, functional) -> bool:
    """True iff the functional's range over the body lies in [0, 1].

    Exact vertex evaluation for polytopes; exact norm comparison for the
    ball (offset +- |coeffs| bounds); eigenvalue range for EJA elements,
    within EFFECT_TOL, using the self-duality of the cone of squares.
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
        from .algebra import EjaElement
        from .spectral import eigenvalues

        if not isinstance(functional, EjaElement):
            raise OperationalError("EJA effects are algebra elements")
        eigs = eigenvalues(functional)
        return bool(eigs[0] <= 1 + EFFECT_TOL and eigs[-1] >= -EFFECT_TOL)
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


@dataclass(frozen=True)
class _AmbientFacets:
    """The facet effects of a polytope in ring integers, one per body.

    ``rows[F]`` = (A_F, B_F): n_F(x) = A_F . x + B_F is a positive multiple
    of facet F's functional in ambient coordinates.  The vertices are
    lifted once over a common denominator, v_w = V_w / q (``scale``), and
    ``table[w][F]`` = A_F . V_w + B_F q = q n_F(v_w).  With ``totals[F]``
    the sum of facet F's column, the effect of facet F is
    f_F(x) = q n_F(x) / totals[F], so f_F(v_w) = table[w][F] / totals[F].
    """

    ring: object
    rows: tuple
    scale: object
    table: tuple
    totals: tuple


def _ambient_facets(poly: Polytope, extra=()) -> _AmbientFacets:
    """The body's ``_AmbientFacets``, kept on the analysis record; built
    anew over Z[sqrt 5] when the ``extra`` values (states or multipliers)
    leave Q on a rational body."""
    rec = _analysis(poly)
    if rec.facet_table is None:
        rec.facet_table = _ambient_facet_effects(poly, rec)
    if rec.facet_table.ring is _Integers and _ring_for(extra) is not _Integers:
        return _ambient_facet_effects(poly, rec, _QuadraticIntegers)
    return rec.facet_table


def _ambient_facet_effects(poly, rec, ring=None) -> _AmbientFacets:
    """The facet rows, read straight off one elimination of [chart basis
    as rows | facet normals as columns]: with pivot coordinates P, the
    chart functional g.y + c is (E g).(x - origin)_P + c in ambient
    coordinates, and E g is the right-hand block T / d.  Multiplied by q d,
    n_F(x) = q T_F . x + q d c - T_F . V_0, all ring integers."""
    ch, facets = rec.chart, list(rec.facets.values())
    m = len(ch.origin)
    ring = ring or _ring_for(itertools.chain(*poly.vertices, *(g + (c,) for g, c in facets)))
    flat, q = ring.lift([x for v in poly.vertices for x in v])
    V = [flat[w : w + m] for w in range(0, len(flat), m)]
    lifted = [ring.lift(list(ch.basis[r]) + [g[r] for g, _ in facets])[0] for r in range(ch.dim)]
    _, T, pivots, d, _ = _eliminate(lifted, ring)
    rows = []
    for f, (_, c) in enumerate(facets):
        A = [ring.zero] * m
        for r, p in enumerate(pivots):
            A[p] = T[r][m + f]
        qdc = ring.mul(ring.mul(q, d), ring.lift([c])[0][0])
        rows.append((tuple(ring.mul(q, a) for a in A), ring.sub(qdc, ring.dot(A, V[0]))))
    table = tuple(tuple(ring.add(ring.dot(A, v), ring.mul(B, q)) for A, B in rows) for v in V)
    totals = tuple(functools.reduce(ring.add, col) for col in zip(*table))
    return _AmbientFacets(ring, tuple(rows), q, table, totals)


def _facet_effects(poly: Polytope) -> tuple:
    """The facet functionals as ambient effects f_F = q n_F / totals[F], in
    record order, each scaled so that its values at the vertices sum to 1.

    The scale commutes with every automorphism g: the vertex sum is
    invariant under vertex permutations, so f_F o g^-1 = f_gF exactly.
    Built from the integer rows of ``_ambient_facets`` for the
    certificates handed out, and kept on the analysis record.
    """
    rec = _analysis(poly)
    if rec.facet_effects is None:
        amb = _ambient_facets(poly)
        ring = amb.ring
        rec.facet_effects = tuple(
            AffineEffect(
                tuple(ring.quotient(ring.mul(amb.scale, a), t) for a in A),
                ring.quotient(ring.mul(amb.scale, B), t),
            )
            for (A, B), t in zip(amb.rows, amb.totals)
        )
    return rec.facet_effects


def _facet_values(poly: Polytope) -> tuple:
    """The facet effects at every vertex, values[w][F] = f_F(v_w), kept on
    the analysis record.  Read off the record's vertex values: f_F(v_w) is
    facet F's value at w over its sum at every vertex, one exact quotient
    in the ring, with no effect evaluated.  They pose the LPs."""
    rec = _analysis(poly)
    if rec.facet_values is None:
        ring = rec.ring
        columns = []
        for row in rec.vertex_values:
            total = functools.reduce(ring.add, row)
            columns.append([ring.quotient(x, total) for x in row])
        rec.facet_values = tuple(
            tuple(col[w] for col in columns) for w in range(len(poly.vertices))
        )
    return rec.facet_values


def _supports(at_states):
    """Per state i, the facets that may carry effect i, or None.

    ``at_states[j][F]`` is facet effect F at state j.  By the affine
    Farkas lemma an effect is mu + sum_F lam_F f_F with mu, lam >= 0.  For
    two or more states e_i vanishes at the others, which forces mu = 0 and
    lam_F = 0 unless f_F vanishes at every other state; and e_i(state_i)
    = 1 needs some such facet positive at state i.  None when a state has
    none: the states are refused with no LP.
    """
    k = len(at_states)
    support = []
    for i in range(k):
        own = [
            f
            for f, x in enumerate(at_states[i])
            if x > 0 and all(at_states[j][f] == 0 for j in range(k) if j != i)
        ]
        if not own:
            return None
        support.append(own)
    return support


def _submeasurement(at_states, at_others):
    """Facet multipliers ({facet: lam} per state) of a submeasurement on
    two or more states, or None.

    One LP in lam >= 0 over the ``_supports`` facets: e_i(state_i) = 1 for
    each i, and sum_i e_i(w) <= 1 at every vertex w of ``at_others``
    (facet values as in ``at_states``).  e_i >= 0 holds term by term and
    e_i <= 1 follows from the sum rows.
    """
    support = _supports(at_states)
    if support is None:
        return None
    slots = [(i, f) for i, own in enumerate(support) for f in own]
    width = len(slots)
    rows = [
        (tuple(at_states[i][f] if i == j else 0 for j, f in slots), "=", 1)
        for i in range(len(at_states))
    ]
    rows += [(tuple(w[f] for _, f in slots), "<=", 1) for w in at_others]
    rows += [(tuple(int(a == b) for b in range(width)), ">=", 0) for a in range(width)]
    res = lp_feasible(linear_program(rows, n_vars=width))
    if not isinstance(res, Feasible):
        return None
    multipliers = [{} for _ in support]
    for (i, f), lam in zip(slots, res.witness):
        if lam != 0:
            multipliers[i][f] = lam
    return multipliers


def _effect(facet_effects, multipliers) -> AffineEffect:
    """sum_F lam_F f_F as one ambient effect."""
    m = len(facet_effects[0].coeffs)
    coeffs, offset = [0] * m, 0
    for f, lam in multipliers.items():
        e = facet_effects[f]
        coeffs = [a + lam * b for a, b in zip(coeffs, e.coeffs)]
        offset = offset + lam * e.offset
    return AffineEffect(coeffs=tuple(coeffs), offset=offset)


def _check_submeasurement(poly: Polytope, states, multipliers):
    """Raise unless the effects e_i = sum_F lam_F f_F, one {facet: lam} per
    state, satisfy e_i(state_j) = delta_ij, each e_i >= 0 and sum e_i <= 1
    at every vertex, all exactly.

    A state is a vertex index or an ambient point x = S / p, lifted and
    evaluated directly.  Each lam_F / totals[F] is lifted to L_F / M over
    one denominator M > 0, so e_i(v_w) = sum_F L_F table[w][F] / M
    (``_AmbientFacets``), and every test is a dot product of ring integers
    and a sign.  Nothing is read from the chart side that posed the LP.
    """
    points = [x for s in states if not isinstance(s, int) for x in s]
    amb = _ambient_facets(poly, points + [x for m in multipliers for x in m.values()])
    ring, q = amb.ring, amb.scale
    flat, M = ring.lift(
        [lam * ring.quotient(ring.one, amb.totals[f]) for m in multipliers for f, lam in m.items()]
    )
    lifted = iter(flat)
    effects = [(list(m), [next(lifted) for _ in m]) for m in multipliers]

    def values(column):
        return [ring.dot(L, [column[f] for f in fs]) for fs, L in effects]

    ok = True
    for j, s in enumerate(states):
        if isinstance(s, int):
            column, p = amb.table[s], q
        else:
            S, p = ring.lift(s)
            column = [ring.add(ring.dot(A, S), ring.mul(B, p)) for A, B in amb.rows]
        unit = ring.mul(p, M)  # e_i(S / p) = q sum_F L_F column[F] / (p M)
        ok = ok and all(
            ring.mul(q, x) == (unit if i == j else ring.zero) for i, x in enumerate(values(column))
        )
    for got in map(values, amb.table):
        total = functools.reduce(ring.add, got)
        ok = ok and all(ring.sign(x) >= 0 for x in got) and ring.sign(ring.sub(M, total)) >= 0
    if not ok:
        raise OperationalError("certificate is not a submeasurement on the states")


def distinguishing_measurement(body, states):
    """A measurement with e_i(state_j) = delta_ij, or NotDistinguishable.

    Polytopes: a submeasurement, completed deterministically by folding
    the remainder into the first effect.  One state takes the unit
    effect; more take facet multipliers (``_submeasurement``), with every
    vertex in the sum rows.  EJA: states must be primitive idempotents
    (within FRAME_TOL); they are distinguishable iff pairwise
    trace-orthogonal, and the idempotents themselves (plus the remainder,
    when nonzero) form the measurement, both within EFFECT_TOL.  Ball:
    pairs must be antipodal unit vectors.
    """
    states = tuple(states)
    if not states:
        raise OperationalError("need at least one state")
    if isinstance(body, Polytope):
        for s in states:
            if membership(body, s) == "outside":
                raise OperationalError("state outside the body")
        if len(states) == 1:
            sub = (unit_effect(body),)
        else:
            effects = _facet_effects(body)
            multipliers = _submeasurement(
                [[e(s) for e in effects] for s in states], _facet_values(body)
            )
            if multipliers is None:
                return NotDistinguishable(reason="no facet multipliers separate the states")
            _check_submeasurement(body, states, multipliers)
            sub = tuple(_effect(effects, lam) for lam in multipliers)
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
        from .algebra import EjaElement, inner, norm, unit
        from .spectral import FRAME_TOL, is_primitive_idempotent

        for s in states:
            if not isinstance(s, EjaElement) or s.algebra != body.descriptor:
                raise OperationalError("states must be elements of the algebra")
            if not is_primitive_idempotent(s, tol=FRAME_TOL):
                raise OperationalError(
                    "EJA distinguishability is implemented for primitive idempotents"
                )
        for a, b in itertools.combinations(states, 2):
            if abs(inner(a, b)) > EFFECT_TOL:
                return NotDistinguishable(reason="states are not trace-orthogonal")
        total = states[0]
        for s in states[1:]:
            total = total + s
        remainder = unit(body.descriptor) - total
        effects = states if norm(remainder) <= EFFECT_TOL else states + (remainder,)
        return Measurement(effects=effects)
    raise OperationalError(f"unknown body {type(body).__name__}")


def _sq(c):
    v = exact(c)
    return v * v


def is_measurement(body, effects) -> bool:
    """All effects valid and summing to the order unit (EJA: within
    UNIT_SUM_TOL)."""
    if not all(is_effect(body, e) for e in effects):
        return False
    if isinstance(body, (Polytope, Ball)):
        total = zero_effect(body)
        for e in effects:
            total = total + e
        pts = body.vertices if isinstance(body, Polytope) else None
        if pts is None:
            return all(c == 0 for c in total.coeffs) and total.offset == 1
        return all(total(v) == 1 for v in pts)
    from .algebra import norm, unit

    total = effects[0]
    for e in effects[1:]:
        total = total + e
    return norm(total - unit(body.descriptor)) <= UNIT_SUM_TOL


# ---------------------------------------------------------------------------
# frames


def _frame_sets(poly: Polytope, k: int, cap: int) -> dict:
    """{k-subset: facet multipliers} over the vertex subsets that are frames.

    Subsets are sorted index tuples in lex order.  A k-frame's value holds
    one {facet: lam} per state, in subset order, for k >= 2, and is None
    for k = 1, whose certificate is the unit effect.  The map is kept in
    the body's analysis record, the cap is checked on every call.
    """
    if k < 1:
        raise OperationalError("frame size must be >= 1")
    frames = _capped_analysis(poly, cap).frames
    if k not in frames:
        frames[k] = _find_frame_sets(poly, k)
    return frames[k]


def _find_frame_sets(poly: Polytope, k: int) -> dict:
    """One LP per orbit of k-subsets under the automorphism group.

    Every vertex is a 1-frame with the unit effect.  For k >= 2 the least
    subset of each orbit is decided by ``_submeasurement`` (sum rows at
    the vertices off the subset; at the others the equality rows already
    give 1), and its certificate is checked exactly.  The rest of its
    orbit is reached breadth-first along the group generators, and each
    new subset takes its parent's facet multipliers moved along the
    generator g: f_F o g^-1 = f_gF.  ``_check_generators`` has shown that
    identity on every vertex for every generator, so a moved certificate
    takes the same values at the moved vertices as its parent at theirs,
    and is a submeasurement on the moved states by induction along the
    orbit tree.
    """
    n = len(poly.vertices)
    if k == 1:
        return {(i,): None for i in range(n)}
    values = _facet_values(poly)
    gens = group_generators(poly)
    perms = gens.permutations
    _check_generators(_ambient_facets(poly), perms, gens.facet_images)
    decided = set()
    found = {}
    for rep in itertools.combinations(range(n), k):
        if rep in decided:
            continue
        decided.add(rep)
        tree = orbit_tree(rep, perms, _move_subset)
        multipliers = _submeasurement(
            [values[i] for i in rep], [values[w] for w in range(n) if w not in rep]
        )
        if multipliers is None:
            decided.update(image for image, _, _ in tree)
            continue
        _check_submeasurement(poly, rep, multipliers)
        by_state = {rep: dict(zip(rep, multipliers))}
        found[rep] = tuple(multipliers)
        for image, parent, g in tree:
            perm, moved = perms[g], gens.facet_images[g]
            by_state[image] = {
                perm[i]: {moved[f]: lam for f, lam in lam_i.items()}
                for i, lam_i in by_state[parent].items()
            }
            decided.add(image)
            found[image] = tuple(by_state[image][i] for i in image)
    return dict(sorted(found.items()))


def _move_subset(perm, subset):
    return tuple(sorted(perm[i] for i in subset))


def _check_generators(amb, perms, facet_images):
    """Raise unless every generator g carries the facet effects along:
    f_gF(g w) = f_F(w) for all w and F, compared in ring integers as
    table[g w][gF] totals[F] = table[w][F] totals[gF].  Then
    sum_F lam_F f_gF at g w equals sum_F lam_F f_F at w, exactly."""
    mul, table, totals = amb.ring.mul, amb.table, amb.totals
    for perm, moved in zip(perms, facet_images):
        if any(
            mul(table[perm[w]][moved[f]], totals[f]) != mul(x, totals[moved[f]])
            for w, row in enumerate(table)
            for f, x in enumerate(row)
        ):
            raise OperationalError(
                f"{perm} does not carry the facet values, so a certificate "
                "moved along it is not a submeasurement"
            )


def enumerate_frames(poly: Polytope, k: int, cap: int = VERTEX_CAP):
    """All ordered k-frames of vertices, lexicographic on index tuples.

    The defining conditions are permutation-symmetric, so one LP per
    orbit of unordered subsets suffices; each subset's certificate is
    built from its facet multipliers here, and each ordering reuses it
    permuted.
    """
    if not isinstance(poly, Polytope):
        raise OperationalError("frame enumeration is for polytopes")
    sets = _frame_sets(poly, k, cap)
    effects = _facet_effects(poly) if k > 1 else ()
    frames = []
    for subset, multipliers in sets.items():
        if multipliers is None:
            cert = (unit_effect(poly),)
        else:
            cert = tuple(_effect(effects, lam) for lam in multipliers)
        for perm in itertools.permutations(subset):
            reordered = tuple(cert[subset.index(i)] for i in perm)
            states = tuple(poly.vertices[i] for i in perm)
            frames.append(FrameData(states=states, indices=perm, certificate=reordered))
    frames.sort(key=lambda f: f.indices)
    return tuple(frames)


def count_frames(poly: Polytope, k: int, cap: int = VERTEX_CAP) -> int:
    """The number of ordered k-frames of vertices, k! per frame subset."""
    return len(_frame_sets(poly, k, cap)) * math.factorial(k)


def rank(body, cap: int = VERTEX_CAP) -> int:
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
    counterexample: tuple | None = None
    frames_by_k: tuple | None = None
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


def _off_hyperplanes(rec, point) -> bool:
    """Does no vertex hyperplane of the analysis record vanish at ``point``?"""
    coords = rec.chart.to_chart(point)
    return all(
        sum(a * x for a, x in zip(g, coords)) + c != 0 for g, c, _ in rec.hyperplanes.values()
    )


def _point_off_hyperplanes(poly: Polytope, seed: int):
    """The first seeded candidate on no vertex hyperplane; each weighs every
    vertex by a positive integer, so it is interior."""
    rec = _analysis(poly)
    rng = random.Random(seed)
    n = len(poly.vertices)
    for _ in range(WITNESS_TRIES):
        weights = [Fraction(rng.randint(1, 64)) for _ in range(n)]
        total = sum(weights)
        point = None
        for w, v in zip(weights, poly.vertices):
            scaled = tuple(w / total * c for c in v)
            point = scaled if point is None else tuple(a + b for a, b in zip(point, scaled))
        if _off_hyperplanes(rec, point):
            return point
    raise OperationalError("failed to find a point off the vertex hyperplanes")


def is_spectral(
    body, cap: int = VERTEX_CAP, seed: int = 0
) -> SpectralVerdict:
    """Is every state a convex combination over a single frame?

    EJA state spaces and balls are spectral (spectral theorem, diameters).
    For polytopes the body is spectral iff some frame's hull contains every
    vertex, that is iff it is a simplex; otherwise an exact interior
    counterexample on no vertex hyperplane, so off every frame hull, is
    produced, ``seed`` steering its search.
    """
    if isinstance(body, EjaStateSpace):
        return SpectralVerdict(spectral=True, rank=body.descriptor.rank)
    if isinstance(body, Ball):
        return SpectralVerdict(spectral=True, rank=2)
    if not isinstance(body, Polytope):
        raise OperationalError(f"unknown body {type(body).__name__}")
    r = rank(body, cap)
    frames_by_k = tuple((k, count_frames(body, k, cap)) for k in range(1, r + 1))
    # A frame is affinely independent and every vertex is extreme, so a
    # frame whose hull holds every vertex is every vertex: one exists iff r = n.
    n = len(body.vertices)
    if r == n:
        return SpectralVerdict(True, r, frames_by_k=frames_by_k, covering_frame=tuple(range(n)))
    return SpectralVerdict(False, r, _point_off_hyperplanes(body, seed), frames_by_k)


def recheck_counterexample(body: Polytope, point, cap: int = VERTEX_CAP) -> bool:
    """Exact re-verification that ``point`` defeats spectrality: the body is
    no simplex (n > d + 1), so every frame hull lies in a vertex hyperplane,
    the point is strictly inside and on none.  No frame, LP or group search.
    """
    rec = _capped_analysis(body, cap)
    if len(body.vertices) <= rec.chart.dim + 1 or membership(body, point) != "inside":
        return False
    return _off_hyperplanes(rec, tuple(map(exact, point)))


# ---------------------------------------------------------------------------
# faces of frames


@dataclass(frozen=True)
class EjaFace:
    """Face of an EJA state space: states supported on an idempotent."""

    idempotent: EjaElement

    @property
    def rank(self) -> int:
        from .algebra import trace

        return int(round(trace(self.idempotent)))


def face_of_frame(body, frame, cap: int = VERTEX_CAP):
    """Smallest exposed face containing the frame.

    Polytopes: the intersection of the facets that contain the frame's
    vertex indices.  EJA: the face of the idempotent p = sum of the
    (pairwise orthogonal) frame elements.
    """
    if isinstance(body, Polytope):
        indices = frame.indices if isinstance(frame, FrameData) else tuple(frame)
        lat = exposed_faces(body, cap)
        want = set(indices)
        through = [f.indices for f in lat.facets if want <= set(f.indices)]
        smallest = set(lat.top.indices).intersection(*through)
        if not want <= smallest:
            raise OperationalError("no face contains the frame")
        return lat.find(smallest)
    if isinstance(body, EjaStateSpace):
        from .algebra import inner, unit
        from .spectral import FRAME_TOL

        elems = frame.states if isinstance(frame, FrameData) else tuple(frame)
        if not elems:
            return EjaFace(idempotent=unit(body.descriptor) * 0.0)
        for a, b in itertools.combinations(elems, 2):
            if abs(inner(a, b)) > FRAME_TOL:
                raise OperationalError("frame elements must be orthogonal")
        total = elems[0]
        for s in elems[1:]:
            total = total + s
        return EjaFace(idempotent=total)
    raise OperationalError(f"unknown body {type(body).__name__}")


def complement_face(body, face, cap: int = VERTEX_CAP):
    """The orthocomplement face.

    EJA: the face of u - p, an exact involution.  Polytopes: extend a
    maximal frame of the face to maximal frames of the body; when every
    extension generates the same face, that face is the complement
    (simplices; not well-defined for e.g. the square).
    """
    if isinstance(body, EjaStateSpace):
        from .algebra import unit

        if not isinstance(face, EjaFace):
            raise OperationalError("expected an EJA face")
        return EjaFace(idempotent=unit(body.descriptor) - face.idempotent)
    if not isinstance(body, Polytope):
        raise OperationalError(f"unknown body {type(body).__name__}")
    if not isinstance(face, Face):
        raise OperationalError("expected a polytope face")
    lat = exposed_faces(body, cap)
    r = rank(body, cap)
    inner_set = ()
    if face.indices:
        for k in range(len(face.indices), 0, -1):
            found = None
            for s in _frame_sets(body, k, cap):
                if set(s) <= set(face.indices):
                    found = s
                    break
            if found is not None:
                inner_set = found
                break
    candidates = set()
    for s in _frame_sets(body, r, cap):
        if set(inner_set) <= set(s):
            rest = tuple(sorted(set(s) - set(inner_set)))
            candidates.add(face_of_frame(body, rest, cap).indices)
    if not candidates:
        raise OperationalError("face has no maximal-frame extension")
    if len(candidates) > 1:
        raise OperationalError("complement face is not well-defined for this body")
    return lat.find(candidates.pop())
