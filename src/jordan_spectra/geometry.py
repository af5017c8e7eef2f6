"""Convex bodies: exact polytopes, Euclidean balls, and EJA state spaces.

Polytopes carry exact scalar coordinates (Fraction, or Sqrt5 for bodies
defined over Q(sqrt 5)) and all face/membership questions are answered
exactly.  Degenerate polytopes (not full-dimensional in their ambient
coordinates, e.g. a simplex given as unit vectors) are re-coordinatized to
their affine hull through an AffineChart before any face computation; the
one elimination that picks the chart's basis also gives every vertex its
chart coordinates, and the same as ring integers over one denominator.

Faces need no LP.  Every hyperplane through d affinely independent chart
vertices is found once, by one elimination, and kept in one table per
body, which the spectrality witnesses of `operational` also read.  The
facets are its entries with every vertex on one side, and the face
lattice is the intersection closure of their vertex sets (Kaibel &
Pfetsch, Comput. Geom. 23, 2002).  Each facet's values at the vertices,
which its elimination leaves as ring integers, are kept as well: a
face's exposing functional is scaled from their sums when it is first
read, face dims come from the lattice's grading, and `operational` reads
its facet values from them, so the lattice takes no elimination.  Every
face is an intersection of facets (Ziegler, Lectures on Polytopes, 1995,
ch. 2), so a point is a vertex iff the facets through it meet in that
point alone, which is how polytope validation decides extremality.
The lattice keeps the cover relation its grading finds, which gives the
flag count and the least flag with no flag listed, and barycenters build
on a pulling triangulation over the facets' vertex sets.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from .exactla import _eliminate, _ring_for, determinant, solve_any
from .scalars import Sqrt5, exact, format_scalar

#: The five simple Euclidean Jordan algebra families.  Defined here, on the
#: exact side, with their descriptor, so that naming an algebra and reading
#: its dim or rank (the CLI's --eja choices, an EJA body record, the table
#: checks) loads no float code.
FAMILIES = ("sym_r", "herm_c", "herm_h", "spin", "herm_o")


@dataclass(frozen=True)
class AlgebraDescriptor:
    """One of the five simple families plus its size parameter."""

    family: str
    param: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError("unknown family %r" % (self.family,))
        if _size(self.param) < 1:
            raise ValueError("param must be a positive integer")
        if self.family == "herm_o" and self.param != 3:
            raise ValueError("herm_o exists only for size 3")

    @cached_property
    def dim(self) -> int:
        m = self.param
        return {
            "sym_r": m * (m + 1) // 2,
            "herm_c": m * m,
            "herm_h": m * (2 * m - 1),
            "spin": m + 1,
            "herm_o": 27,
        }[self.family]

    @cached_property
    def rank(self) -> int:
        return {"spin": 2, "herm_o": 3}.get(self.family, self.param)

    def to_dict(self) -> dict:
        key = "n" if self.family == "spin" else "m"
        return {"family": self.family, key: self.param}

    @staticmethod
    def from_dict(data: dict) -> "AlgebraDescriptor":
        family = data.get("family")
        if family == "spin":
            param = data.get("n", data.get("m"))
        else:
            param = data.get("m", data.get("n"))
        if family == "herm_o" and param is None:
            param = 3
        if param is None:
            raise ValueError("missing size parameter in %r" % (data,))
        return AlgebraDescriptor(family, param)


def _size(value) -> int:
    """A body or algebra size, from a record or a call: an int, never a
    bool, a float or a numpy integer, so no size is read as another."""
    if type(value) is not int:
        raise ValueError("size must be an integer, got %r" % (value,))
    return value


def algebra(family: str, param: int) -> AlgebraDescriptor:
    return AlgebraDescriptor(family, param)


class GeometryError(ValueError):
    pass


class SymmetryError(ValueError):
    pass


class CapExceeded(GeometryError):
    pass


# The one vertex cap: a body with more vertices is refused (CapExceeded)
# by the group search, the face lattice and the frames, before any work.
# It bounds the vertex count only, not the work under it: the frame
# subsets and faces of a simplex grow as 2^n, and the listings only it
# bounds, enumerate_frames and maximal_flags, as n!.
VERTEX_CAP = 12


# ---------------------------------------------------------------------------
# body variants


@dataclass(frozen=True)
class Polytope:
    vertices: tuple

    # The analysis record cache hashes the body on every look-up, so the
    # hash of the vertices is taken once and kept on the instance; a copy
    # or a pickle carries the vertices only.
    @cached_property
    def _hash(self) -> int:
        return hash(self.vertices)

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Polytope, (self.vertices,)

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])

    @property
    def dim(self) -> int:
        return chart(self).dim


@dataclass(frozen=True)
class Ball:
    n: int

    @property
    def ambient_dim(self) -> int:
        return self.n

    @property
    def dim(self) -> int:
        return self.n


@dataclass(frozen=True)
class EjaStateSpace:
    descriptor: AlgebraDescriptor

    @property
    def ambient_dim(self) -> int:
        return self.descriptor.dim

    @property
    def dim(self) -> int:
        return self.descriptor.dim - 1


def polytope(vertices) -> Polytope:
    """Validate vertices: exact, pairwise distinct, each one extremal."""
    try:
        rows = tuple(tuple(map(exact, v)) for v in vertices)
    except (TypeError, ValueError) as exc:
        raise GeometryError(str(exc)) from None
    if not rows:
        raise GeometryError("a polytope needs at least one vertex")
    width = len(rows[0])
    if any(len(v) != width for v in rows):
        raise GeometryError("vertices have inconsistent dimensions")
    if len(set(rows)) != len(rows):
        raise GeometryError("vertices must be pairwise distinct")
    body = Polytope(vertices=rows)
    # validates, unless an equal body was accepted before; that body is
    # handed back, so later look-ups hit its record by identity
    kept = _analysis(body).body
    same = all(type(a) is type(b) for u, v in zip(rows, kept.vertices) for a, b in zip(u, v))
    return kept if same else body


def ball(n: int) -> Ball:
    if _size(n) < 1:
        raise GeometryError("ball dimension must be >= 1")
    return Ball(n=n)


def eja_state_space(family, param=None) -> EjaStateSpace:
    if isinstance(family, AlgebraDescriptor):
        return EjaStateSpace(descriptor=family)
    if param is None and family == "herm_o":
        param = 3
    return EjaStateSpace(descriptor=algebra(family, param))


# ---------------------------------------------------------------------------
# affine chart (re-coordinatization of degenerate polytopes)


@dataclass(frozen=True)
class AffineChart:
    origin: tuple
    basis: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)

    def to_ambient(self, coords):
        point = list(self.origin)
        for c, vec in zip(coords, self.basis):
            point = [p + c * v for p, v in zip(point, vec)]
        return tuple(point)

    def to_chart(self, point):
        """Chart coordinates of an ambient point; None if off the hull."""
        if self.dim == 0:
            return () if tuple(point) == self.origin else None
        rows = [[vec[i] for vec in self.basis] for i in range(len(self.origin))]
        rhs = [p - o for p, o in zip(point, self.origin)]
        sol = solve_any(rows, rhs)
        return None if sol is None else tuple(sol)


def _affine_chart(points):
    """(chart, coordinates, ring, homogenized): a chart on the affine hull,
    with an affine basis of ``points`` as frame, the chart coordinates of
    every point, and the same coordinates as ring integers over one
    denominator.

    One elimination of the difference vectors p_i - p_0 taken as columns,
    p_0's zero column included: its pivot columns are the basis (a column
    is a pivot exactly when it is independent of the columns before it, as
    in ``affine_basis_indices``), and column i of the reduced form T / d
    holds the coordinates of point i in that basis.  ``homogenized[i]`` is
    that column followed by d > 0, elements of the elimination's ``ring``.
    """
    origin = tuple(points[0])
    diffs = [[p[k] - x for p in points] for k, x in enumerate(origin)]
    ring, T, pivots, d, _ = _eliminate(diffs)
    basis = tuple(tuple(row[j] for row in diffs) for j in pivots)
    columns = list(zip(*T[: len(pivots)])) or [()] * len(points)
    coordinates = tuple(tuple(ring.quotient(x, d) for x in col) for col in columns)
    homogenized = tuple(col + (d,) for col in columns)
    return AffineChart(origin=origin, basis=basis), coordinates, ring, homogenized


# ---------------------------------------------------------------------------
# per-body analysis record

# Distinct polytopes whose analysis is kept; one pass over the converse
# catalog and its simplex batteries touches about 20.
ANALYSIS_CACHE_BODIES = 64


@dataclass
class _Analysis:
    """Everything derived from one polytope.

    The accepted body (which ``polytope()`` hands back for an equal one),
    the chart, the table of vertex hyperplanes (``_vertex_hyperplanes`` of
    the chart vertices), the facets, its one-signed entries,
    ``vertex_values[F][w]``, facet F's functional at chart vertex w as an
    element of ``ring`` (Z or Z[sqrt 5], as in ``exactla``), and
    ``facet_normals[F]``, the (g, c) of that functional as ring elements,
    are set when the record is made; the rest is filled on first use.
    ``ring_chart`` is the body's one integer chart: ``ring_chart[w]`` is
    chart vertex w homogenized over one denominator, (V_w, q) with
    v_w = V_w / q and q > 0, as the chart's one elimination leaves it, so
    nothing lifts it; the group search reads only it.  The face lattice,
    the frame LPs and their certificate checks all read ``vertex_values``,
    the body's only table of facet values.  ``faces`` is the face lattice,
    whose faces hold this record and build their exposing functionals,
    quotients of sums of ``vertex_values`` and ``facet_normals``, when
    first read, and which keeps its cover relation.
    ``facet_effects`` holds the ambient facet effects built for the
    certificates handed out.  ``frames`` maps k to {sorted
    k-subset: facet multipliers of a distinguishing submeasurement, one
    {facet: lam} per state} over the subsets that are frames.
    ``generators`` is a strong generating set of the automorphism group,
    as vertex permutations, with its order, and ``group`` lists the group
    as the closure of the generators, each member's map built when first
    read, for callers that need every map.  ``orbit_sizes`` maps an
    ordered frame to the size of its orbit under the group (counts only,
    no search), and ``strong_symmetry`` is the body's strong-symmetry
    report.
    No cap is stored: the capped entry points read the record through
    ``_capped_analysis``, which checks the caller's cap on every call.
    """

    body: Polytope
    chart: AffineChart
    chart_vertices: tuple
    hyperplanes: dict
    facets: dict
    ring: object
    ring_chart: tuple
    vertex_values: tuple
    facet_normals: tuple
    faces: FaceLattice | None = None
    facet_effects: tuple | None = None
    frames: dict = field(default_factory=dict)
    group: tuple | None = None
    generators: object = None
    orbit_sizes: dict = field(default_factory=dict)
    strong_symmetry: object = None


@lru_cache(maxsize=ANALYSIS_CACHE_BODIES)
def _analysis(poly: Polytope) -> _Analysis:
    """The analysis record of ``poly``; equal polytopes share one record.

    A record is made only for a point set whose every point is a vertex:
    otherwise GeometryError is raised and nothing is cached.  polytope()
    makes the record as it accepts the body, so the chart and the
    hyperplanes are found once per accepted body, and an equal body is
    accepted again from the cache.
    """
    ch, cv, ring, ring_chart = _affine_chart(poly.vertices)
    values = {}
    hyperplanes = _vertex_hyperplanes(cv, values)
    facets = _facets(hyperplanes)
    every = set(range(len(cv)))
    for i in range(len(cv)):
        if every.intersection(*(on for on in facets if i in on)) != {i}:
            raise GeometryError(f"vertex {i} is not extremal")
    return _Analysis(
        body=poly,
        chart=ch,
        chart_vertices=cv,
        hyperplanes=hyperplanes,
        facets=facets,
        ring=ring,
        ring_chart=ring_chart,
        vertex_values=tuple(values[on][0] for on in facets),
        facet_normals=tuple(values[on][1] for on in facets),
    )


def _capped_analysis(poly: Polytope, cap: int) -> _Analysis:
    """The analysis record of ``poly``, refused past ``cap`` vertices."""
    n = len(poly.vertices)
    if n > cap:
        raise CapExceeded(f"{n} vertices exceeds the vertex cap {cap}")
    return _analysis(poly)


def chart(poly: Polytope) -> AffineChart:
    return _analysis(poly).chart


def chart_vertices(poly: Polytope) -> tuple:
    return _analysis(poly).chart_vertices


# ---------------------------------------------------------------------------
# exposed faces and flags


@dataclass(frozen=True)
class Face:
    """A face by its vertex indices and dim.  ``functional`` is its exact
    exposing functional (g, c), None for the empty face; it is built from
    the body's analysis record, which the face holds, the first time it is
    read."""

    indices: tuple
    dim: int
    _record: _Analysis = field(compare=False, repr=False)

    @cached_property
    def functional(self) -> tuple | None:
        if self.dim < 0:
            return None
        return _exposing_functional(frozenset(self.indices), self._record)

    def __len__(self):
        return len(self.indices)


@dataclass(frozen=True)
class FaceLattice:
    """Faces by size then indices; ``covered[F.indices]``, the faces that F
    covers (the empty face below each vertex), as the grading found them."""

    faces: tuple
    covered: dict = field(compare=False, repr=False)

    @cached_property
    def _by_indices(self):
        return {f.indices: f for f in self.faces}

    def find(self, indices) -> Face:
        return self._by_indices[tuple(sorted(indices))]

    @property
    def bottom(self) -> Face:
        return self.faces[0]

    @property
    def top(self) -> Face:
        return self.faces[-1]

    @property
    def atoms(self):
        return tuple(f for f in self.faces if f.dim == 0)

    @property
    def facets(self):
        return tuple(f for f in self.faces if f.dim == self.top.dim - 1)

    @cached_property
    def _covers(self):
        """{face indices: the face's covers}, the inverse of ``covered``."""
        up = {f.indices: () for f in self.faces}
        for f in self.faces:
            for g in self.covered[f.indices]:
                up[g.indices] += (f,)
        return up

    def covers(self, face: Face):
        """Strict superfaces one dimension up, by size then indices."""
        return self._covers[face.indices]

    @cached_property
    def flag_count(self) -> int:
        """N(top), where N(bottom) = 1 and N(F) sums N(G) over the faces G
        that F covers: the maximal flags, counted in size order."""
        count = {(): 1}
        for f in self.faces[1:]:
            count[f.indices] = sum(count[g.indices] for g in self.covered[f.indices])
        return count[self.top.indices]

    @property
    def least_flag(self) -> tuple:
        """``maximal_flags(body)[0]``, greedily: the least atom, then the
        cover with the least indices, up to the top (the lattice is graded)."""
        flag = (self.atoms[0],)
        for _ in range(self.top.dim):
            flag += (min(self.covers(flag[-1]), key=lambda f: f.indices),)
        return flag


def _vertex_hyperplanes(cv, values=None) -> dict:
    """{frozenset of vertices on it: (g, c, facet)} over the hyperplanes
    g.x + c = 0 spanned by affinely independent d-subsets S of ``cv``.

    One elimination of [homogenized vertices (x, 1) as columns, S first |
    identity] pivots on S and leaves one row: the functional's values at
    the vertices, then (g, c), all ring elements of the kernel.  ``facet``:
    no two values have opposite signs; a facet is signed >= 0 on the body.
    A ``values`` dict also gets {facet's vertex set: (its values at the
    vertices, in vertex order, and its (g, c)), as ring elements}.  The
    d-subsets on a found hyperplane are skipped, so each costs one
    elimination, at its least spanning subset, plus one per affinely
    dependent subset met first.  Each row is lifted to the ring once,
    identity entry included, before any subset: a subset only reorders
    its columns.
    """
    n, d = len(cv), len(cv[0])
    table = {}
    if d == 0:
        return table
    ring = _ring_for(x for v in cv for x in v)
    lifted = [ring.lift(row) for row in [*zip(*cv), [1] * n]]
    rows = [r + [s if j == k else ring.zero for j in range(d + 1)] for k, (r, s) in enumerate(lifted)]
    decided = set()
    for subset in itertools.combinations(range(n), d):
        if subset in decided:
            continue
        order = list(subset) + [i for i in range(n) if i not in subset]
        _, T, pivots, _, _ = _eliminate([[row[i] for i in order] + row[n:] for row in rows], ring)
        if pivots[:d] != list(range(d)):
            continue  # affinely dependent
        signs = [ring.sign(x) for x in T[d][:n]]
        flipped = T[d] if -1 not in signs else [ring.sub(ring.zero, x) for x in T[d]]
        normal = [ring.scalar(y) for y in flipped[n:]]
        on = sorted(i for i, sign in zip(order, signs) if sign == 0)
        facet = not (1 in signs and -1 in signs)
        table[frozenset(on)] = (tuple(normal[:d]), normal[d], facet)
        if facet and values is not None:
            row = tuple(x for _, x in sorted(zip(order, flipped[:n])))
            values[frozenset(on)] = (row, tuple(flipped[n:]))
        decided.update(itertools.combinations(on, d))
    return table


def _facets(table) -> dict:
    """{frozenset of vertices on it: (g, c)} over the facets, the one-signed
    entries of a ``_vertex_hyperplanes`` table, each >= 0 on the body."""
    return {on: (g, c) for on, (g, c, facet) in table.items() if facet}


def _exposing_functional(face, rec):
    """(g, c): the sum of the functionals of the facets through ``face``,
    divided by its smallest value off the face, so it is zero on the face
    and >= 1 on every other chart vertex.  The facets' vertex values and
    normals are summed as ring elements, so nothing is evaluated, and each
    coefficient is one quotient."""
    ring, n = rec.ring, len(rec.chart_vertices)
    facets = zip(rec.facets, rec.vertex_values, rec.facet_normals)
    rows = [values + normal for on, values, normal in facets if face <= on]
    if not rows:
        return (0,) * rec.chart.dim, 0
    total = functools.reduce(lambda x, y: list(map(ring.add, x, y)), rows)
    low = functools.reduce(
        lambda a, b: b if ring.sign(ring.sub(b, a)) < 0 else a,
        (x for i, x in enumerate(total[:n]) if i not in face),
    )
    *g, c = (ring.quotient(x, low) for x in total[n:])
    return tuple(g), c


def exposed_faces(poly: Polytope, cap: int = VERTEX_CAP) -> FaceLattice:
    """All faces (every polytope face is exposed), each certified by an
    exact exposing functional: the intersections of facets, the whole body
    with the zero functional, and the empty face as the lattice bottom.
    A face's functional is built the first time it is read, so a caller
    that counts or walks the faces builds no Fraction or Sqrt5.

    Dims are the lattice's grading, with no elimination: each face F is
    one more than its largest proper subface (the empty face has dim -1,
    so a vertex has dim 0).  That is a facet of F, and each facet of F is
    F & G for some facet G of the body that does not contain F: the
    meets one dim down are the faces F covers, and the lattice keeps them.
    """
    rec = _capped_analysis(poly, cap)
    if rec.faces is not None:
        return rec.faces
    facets = rec.facets
    top = frozenset(range(len(rec.chart_vertices)))
    closed, queue = {top}, [top]
    while queue:
        face = queue.pop()
        for on in facets:
            meet = face & on
            if meet not in closed:
                closed.add(meet)
                queue.append(meet)
    empty = Face(indices=(), dim=-1, _record=rec)
    by_set, covered = {frozenset(): empty}, {(): ()}
    for face in sorted(closed - {frozenset()}, key=len):
        meets = [by_set[m] for m in {face & on for on in facets if not face <= on}]
        dim = 1 + max((g.dim for g in meets), default=-1)
        f = by_set[face] = Face(indices=tuple(sorted(face)), dim=dim, _record=rec)
        covered[f.indices] = tuple(g for g in meets if g.dim == dim - 1) or (empty,)
    faces = sorted(by_set.values(), key=lambda f: (len(f.indices), f.indices))
    rec.faces = FaceLattice(faces=tuple(faces), covered=covered)
    return rec.faces


def maximal_flags(poly: Polytope, cap: int = VERTEX_CAP):
    """Saturated chains from a vertex up to the whole body, by their face
    indices, listed up the covers on every call; no verdict lists them."""
    lat = exposed_faces(poly, cap)
    flags = [(a,) for a in lat.atoms]
    for _ in range(lat.top.dim):  # every chain climbs one dim per step
        flags = [flag + (f,) for flag in flags for f in lat.covers(flag[-1])]
    return tuple(sorted(flags, key=lambda flag: tuple(f.indices for f in flag)))


# ---------------------------------------------------------------------------
# membership

# A float point of a ball, or an EJA element, is decided within this.
MEMBERSHIP_TOL = 1e-10


def _chart_coordinates(poly: Polytope, point):
    """The chart coordinates of an exact ambient ``point``, None off the
    affine hull: one solve."""
    try:
        p = tuple(map(exact, point))
    except (TypeError, ValueError) as exc:
        raise GeometryError(str(exc)) from None
    if len(p) != poly.ambient_dim:
        raise GeometryError("point dimension mismatch")
    return _analysis(poly).chart.to_chart(p)


def membership(body, point) -> str:
    """Exact relative-interior/boundary/outside classification.

    Polytopes and rational points are decided exactly through the facet
    functionals; the ball compares |p|^2 with 1 exactly when the point is
    exact, and within MEMBERSHIP_TOL when it is not; EJA membership is the
    eigenvalue sign test within MEMBERSHIP_TOL.
    """
    if isinstance(body, Polytope):
        coords = _chart_coordinates(body, point)
        rec = _analysis(body)
        if coords is None:
            return "outside"
        if rec.chart.dim == 0:
            return "inside"
        on_boundary = False
        for g, c in rec.facets.values():
            val = sum(gi * xi for gi, xi in zip(g, coords)) + c
            if val < 0:
                return "outside"
            if val == 0:
                on_boundary = True
        return "boundary" if on_boundary else "inside"
    if isinstance(body, Ball):
        if len(point) != body.n:
            raise GeometryError("point dimension mismatch")
        if all(isinstance(c, (int, Fraction, Sqrt5)) for c in point):
            q = sum(v * v for v in map(exact, point))
            if q < 1:
                return "inside"
            return "boundary" if q == 1 else "outside"
        q = sum(float(c) ** 2 for c in point)
        if abs(q - 1.0) <= MEMBERSHIP_TOL:
            return "boundary"
        return "inside" if q < 1.0 else "outside"
    if isinstance(body, EjaStateSpace):
        from .algebra import EjaElement, trace
        from .spectral import eigenvalues

        x = point if isinstance(point, EjaElement) else EjaElement(body.descriptor, point)
        if x.algebra != body.descriptor:
            raise GeometryError("element belongs to a different algebra")
        if abs(trace(x) - 1.0) > MEMBERSHIP_TOL:
            return "outside"
        low = float(eigenvalues(x)[-1])
        if low > MEMBERSHIP_TOL:
            return "inside"
        return "boundary" if low >= -MEMBERSHIP_TOL else "outside"
    raise GeometryError(f"unknown body {type(body).__name__}")


# ---------------------------------------------------------------------------
# barycenter


def _pulling(face, facets):
    """The pulling triangulation of ``face``, a vertex set, as tuples of
    vertex indices: the cone from its least vertex over each facet of the
    face that misses it, those facets triangulated in turn.  The facets of
    a face are the inclusion-largest of its proper intersections with the
    body's ``facets``."""
    if len(face) == 1:
        return [tuple(face)]
    meets = {face & on for on in facets} - {face}
    apex = min(face)
    return [
        (apex,) + simplex
        for sub in meets
        if apex not in sub and not any(sub < other for other in meets)
        for simplex in _pulling(sub, facets)
    ]


def barycenter(body):
    """Affine-covariant centroid: exact for polytopes, e/rank for EJA.

    A polytope's is the volume-weighted mean of the centroids of the
    simplices of its pulling triangulation over the record's facets.  Each
    simplex has positive volume, since each apex lies off the facet it
    cones over, so no weight is zero and neither is their sum.
    """
    if isinstance(body, Ball):
        return tuple(Fraction(0) for _ in range(body.n))
    if isinstance(body, EjaStateSpace):
        from .algebra import unit

        return unit(body.descriptor) * (1.0 / body.descriptor.rank)
    if not isinstance(body, Polytope):
        raise GeometryError(f"unknown body {type(body).__name__}")
    rec = _analysis(body)
    ch, cv = rec.chart, rec.chart_vertices
    if ch.dim == 0:
        return body.vertices[0]
    total_w = 0
    accum = [0] * ch.dim
    for simplex in _pulling(frozenset(range(len(cv))), rec.facets):
        points = [cv[i] for i in simplex]
        base = points[0]
        rows = [[p[i] - base[i] for i in range(ch.dim)] for p in points[1:]]
        w = determinant(rows)
        if w < 0:
            w = -w
        cent = [
            sum(p[i] for p in points) * Fraction(1, len(points))
            for i in range(ch.dim)
        ]
        accum = [a + w * c for a, c in zip(accum, cent)]
        total_w = total_w + w
    inv = 1 / total_w
    return ch.to_ambient([a * inv for a in accum])


# ---------------------------------------------------------------------------
# fixtures


def simplex(n: int) -> Polytope:
    """The n-simplex as the n+1 unit vectors of R^(n+1)."""
    if _size(n) < 0:
        raise GeometryError("simplex dimension must be >= 0")
    return polytope(
        [tuple(int(i == j) for j in range(n + 1)) for i in range(n + 1)]
    )


def square() -> Polytope:
    return polytope([(1, 1), (-1, 1), (-1, -1), (1, -1)])


def rectangle(a=2, b=1) -> Polytope:
    if a == b:
        raise GeometryError("rectangle sides must differ; use square()")
    return polytope([(a, b), (-a, b), (-a, -b), (a, -b)])


def pentagon() -> Polytope:
    """Affinely regular pentagon over Q(sqrt 5).

    Orbit of (1, 0) under (x, y) -> (-y, x + c y) with c = (sqrt 5 - 1)/2;
    the barycenter is the origin and the affine symmetry group is dihedral
    of order 10.  (A pentagon with 5-fold affine symmetry cannot have purely
    rational vertices, so coordinates live in Q(sqrt 5).)
    """
    c = Sqrt5(Fraction(-1, 2), Fraction(1, 2))
    one, zero = Sqrt5(1), Sqrt5(0)
    return polytope(
        [
            (one, zero),
            (zero, one),
            (-one, c),
            (-c, -c),
            (c, -one),
        ]
    )


def hexagon() -> Polytope:
    """Affinely regular hexagon with integer vertices, in boundary order."""
    return polytope([(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)])


def cube() -> Polytope:
    return polytope(list(itertools.product((-1, 1), repeat=3)))


def octahedron() -> Polytope:
    pts = []
    for i in range(3):
        for s in (1, -1):
            pts.append(tuple(s * int(i == j) for j in range(3)))
    return polytope(pts)


NAMED_BODIES = {
    "triangle": lambda: simplex(2),
    "square": square,
    "rectangle": rectangle,
    "pentagon": pentagon,
    "hexagon": hexagon,
    "cube": cube,
    "octahedron": octahedron,
}


# ---------------------------------------------------------------------------
# JSON


def body_to_dict(body) -> dict:
    if isinstance(body, Polytope):
        return {
            "type": "polytope",
            "vertices": [[format_scalar(c) for c in v] for v in body.vertices],
        }
    if isinstance(body, Ball):
        return {"type": "ball", "n": body.n}
    if isinstance(body, EjaStateSpace):
        return {"type": "eja", **body.descriptor.to_dict()}
    raise GeometryError(f"unknown body {type(body).__name__}")


def body_from_dict(doc: dict):
    kind = doc.get("type")
    if kind == "polytope":
        return polytope(doc["vertices"])
    if kind == "ball":
        return ball(doc["n"])
    if kind == "eja":
        rest = {k: v for k, v in doc.items() if k != "type"}
        return EjaStateSpace(descriptor=AlgebraDescriptor.from_dict(rest))
    if kind == "named":
        name = doc.get("name")
        if name == "simplex":
            return simplex(doc["n"])
        if name in NAMED_BODIES:
            return NAMED_BODIES[name]()
        raise GeometryError(f"unknown named body {name!r}")
    raise GeometryError(f"unknown body type {kind!r}")
