"""Convex bodies: exact polytopes, Euclidean balls, and EJA state spaces.

Polytopes carry exact scalar coordinates (Fraction, or Sqrt5 for bodies
defined over Q(sqrt 5)) and all face/membership questions are answered
exactly.  Degenerate polytopes (not full-dimensional in their ambient
coordinates, e.g. a simplex given as unit vectors) are re-coordinatized to
their affine hull through an AffineChart before any face computation.

Exposed faces are certified one subset at a time: S is a face iff some
affine functional vanishes on S and is >= 1 on every other vertex, an exact
LP.  The face lattice, flags and barycenters build on that.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, cmp_to_key, lru_cache

from .algebra import AlgebraDescriptor, EjaElement, algebra, trace, unit
from .exactla import affine_basis_indices, affine_rank, determinant, solve_any
from .exactlp import Feasible, linear_program, lp_feasible
from .scalars import Sqrt5, exact, format_scalar
from .spectral import eigenvalues

FACE_VERTEX_CAP = 14


class GeometryError(ValueError):
    pass


class CapExceeded(GeometryError):
    pass


# ---------------------------------------------------------------------------
# body variants


@dataclass(frozen=True)
class Polytope:
    vertices: tuple

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])

    @property
    def dim(self) -> int:
        return affine_rank(list(self.vertices))


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
    except TypeError as exc:
        raise GeometryError(str(exc)) from None
    if not rows:
        raise GeometryError("a polytope needs at least one vertex")
    width = len(rows[0])
    if any(len(v) != width for v in rows):
        raise GeometryError("vertices have inconsistent dimensions")
    if len(set(rows)) != len(rows):
        raise GeometryError("vertices must be pairwise distinct")
    body = Polytope(vertices=rows)
    cv = chart_vertices(body)
    d = len(cv[0]) if cv and cv[0] is not None else 0
    for i in range(len(rows)):
        if len(rows) == 1:
            break
        others = [cv[j] for j in range(len(rows)) if j != i]
        k = len(others)
        constraints = [(tuple(1 for _ in range(k)), "=", 1)]
        for coord in range(d):
            constraints.append(
                (tuple(p[coord] for p in others), "=", cv[i][coord])
            )
        for j in range(k):
            constraints.append((tuple(int(t == j) for t in range(k)), ">=", 0))
        if isinstance(lp_feasible(linear_program(constraints, n_vars=k)), Feasible):
            raise GeometryError(f"vertex {i} is not extremal")
    return body


def ball(n: int) -> Ball:
    if n < 1:
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


def _affine_chart(points) -> AffineChart:
    """Chart on the affine hull, with an affine basis of ``points`` as frame."""
    idx = affine_basis_indices(points)
    origin = tuple(points[idx[0]])
    basis = tuple(
        tuple(a - b for a, b in zip(points[i], origin)) for i in idx[1:]
    )
    return AffineChart(origin=origin, basis=basis)


# ---------------------------------------------------------------------------
# per-body analysis record

# Distinct polytopes whose analysis is kept; one pass over the converse
# catalog and its simplex batteries touches about 20.
ANALYSIS_CACHE_BODIES = 64


@dataclass
class _Analysis:
    """Everything derived from one polytope, filled on first use.

    The chart is set when the record is made.  ``faces`` is the face
    lattice, ``frames`` maps k to {sorted k-subset: distinguishing
    submeasurement} over the subsets that are frames, and ``group`` is the
    automorphism group.  No cap is stored: the public entry points check
    their caps on every call, before they read the record.
    """

    chart: AffineChart
    chart_vertices: tuple
    faces: FaceLattice | None = None
    frames: dict = field(default_factory=dict)
    group: tuple | None = None


@lru_cache(maxsize=ANALYSIS_CACHE_BODIES)
def _analysis(poly: Polytope) -> _Analysis:
    """The analysis record of ``poly``; equal polytopes share one record."""
    ch = _affine_chart(list(poly.vertices))
    return _Analysis(
        chart=ch, chart_vertices=tuple(ch.to_chart(v) for v in poly.vertices)
    )


def chart(poly: Polytope) -> AffineChart:
    return _analysis(poly).chart


def chart_vertices(poly: Polytope) -> tuple:
    return _analysis(poly).chart_vertices


# ---------------------------------------------------------------------------
# exposed faces and flags


@dataclass(frozen=True)
class Face:
    indices: tuple
    functional: tuple | None
    dim: int

    def __len__(self):
        return len(self.indices)


@dataclass(frozen=True)
class FaceLattice:
    faces: tuple

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
        return tuple(
            f
            for f in self.faces
            if f.indices and f.dim == self.top.dim - 1 and f.indices != self.top.indices
        )

    def meet(self, a: Face, b: Face) -> Face:
        common = tuple(sorted(set(a.indices) & set(b.indices)))
        if common not in self._by_indices:
            raise GeometryError("face lattice is not intersection-closed")
        return self._by_indices[common]

    def join(self, a: Face, b: Face) -> Face:
        union = set(a.indices) | set(b.indices)
        for f in self.faces:
            if union <= set(f.indices):
                return f
        raise GeometryError("no face above the union")

    def covers(self, face: Face):
        """Minimal strict superfaces of ``face``."""
        above = [
            f
            for f in self.faces
            if set(face.indices) < set(f.indices)
        ]
        out = []
        for f in above:
            if not any(
                set(g.indices) < set(f.indices) for g in above
            ):
                out.append(f)
        # stable order: by size then indices
        return tuple(sorted(out, key=lambda f: (len(f.indices), f.indices)))


def exposed_faces(poly: Polytope, cap: int = FACE_VERTEX_CAP) -> FaceLattice:
    """All exposed faces, each certified by an exact supporting functional.

    A vertex subset S is exposed iff some affine functional vanishes on S
    and is >= 1 on the complement (scaling makes strict positivity >= 1).
    The whole body enters with the zero functional; the empty face is the
    lattice bottom.
    """
    n = len(poly.vertices)
    if n > cap:
        raise CapExceeded(f"{n} vertices exceeds the face enumeration cap {cap}")
    rec = _analysis(poly)
    if rec.faces is not None:
        return rec.faces
    cv = rec.chart_vertices
    d = rec.chart.dim
    faces = [Face(indices=(), functional=None, dim=-1)]
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            inside = set(subset)
            constraints = []
            for i in range(n):
                row = tuple(cv[i]) + (1,)
                if i in inside:
                    constraints.append((row, "=", 0))
                else:
                    constraints.append((row, ">=", 1))
            res = lp_feasible(linear_program(constraints, n_vars=d + 1))
            if isinstance(res, Feasible):
                g, c = res.witness[:d], res.witness[d]
                faces.append(
                    Face(
                        indices=subset,
                        functional=(tuple(g), c),
                        dim=affine_rank([cv[i] for i in subset]),
                    )
                )
    faces.sort(key=lambda f: (len(f.indices), f.indices))
    rec.faces = FaceLattice(faces=tuple(faces))
    return rec.faces


def flags(poly: Polytope, cap: int = FACE_VERTEX_CAP):
    """All strictly increasing chains of nonempty exposed faces."""
    lat = exposed_faces(poly, cap)
    nonempty = [f for f in lat.faces if f.indices]
    out = []

    def grow(prefix, last):
        out.append(tuple(prefix))
        for f in nonempty:
            if set(last.indices) < set(f.indices):
                prefix.append(f)
                grow(prefix, f)
                prefix.pop()

    for f in nonempty:
        grow([f], f)
    out.sort(key=lambda fl: (len(fl), tuple(f.indices for f in fl)))
    return tuple(out)


def maximal_flags(poly: Polytope, cap: int = FACE_VERTEX_CAP):
    """Saturated chains from a vertex up to the whole body."""
    lat = exposed_faces(poly, cap)
    top = lat.top
    out = []

    def grow(prefix, last):
        if last.indices == top.indices:
            out.append(tuple(prefix))
            return
        for f in lat.covers(last):
            prefix.append(f)
            grow(prefix, f)
            prefix.pop()

    for a in lat.atoms:
        grow([a], a)
    out.sort(key=lambda fl: tuple(f.indices for f in fl))
    return tuple(out)


def facet_functionals(poly: Polytope, cap: int = FACE_VERTEX_CAP):
    """H-representation of the chart polytope: f(x) >= 0 rows, one per facet."""
    lat = exposed_faces(poly, cap)
    if chart(poly).dim == 0:
        return ()
    return tuple(f.functional for f in lat.facets)


# ---------------------------------------------------------------------------
# membership


def membership(body, point, tol: float = 1e-10) -> str:
    """Exact relative-interior/boundary/outside classification.

    Polytopes and rational points are decided exactly through the facet
    functionals; the ball compares |p|^2 with 1 exactly when the point is
    exact; EJA membership is the eigenvalue sign test at tolerance ``tol``.
    """
    if isinstance(body, Polytope):
        try:
            p = tuple(map(exact, point))
        except TypeError as exc:
            raise GeometryError(str(exc)) from None
        if len(p) != body.ambient_dim:
            raise GeometryError("point dimension mismatch")
        coords = chart(body).to_chart(p)
        if coords is None:
            return "outside"
        if chart(body).dim == 0:
            return "inside"
        on_boundary = False
        for g, c in facet_functionals(body):
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
        if abs(q - 1.0) <= tol:
            return "boundary"
        return "inside" if q < 1.0 else "outside"
    if isinstance(body, EjaStateSpace):
        x = point if isinstance(point, EjaElement) else EjaElement(body.descriptor, point)
        if x.algebra != body.descriptor:
            raise GeometryError("element belongs to a different algebra")
        if abs(trace(x) - 1.0) > tol:
            return "outside"
        low = float(eigenvalues(x)[-1])
        if low > tol:
            return "inside"
        return "boundary" if low >= -tol else "outside"
    raise GeometryError(f"unknown body {type(body).__name__}")


# ---------------------------------------------------------------------------
# barycenter


def _ccw_order(points):
    n = len(points)
    cx = [sum(p[i] for p in points) * Fraction(1, n) for i in range(2)]

    def half(p):
        x, y = p[0] - cx[0], p[1] - cx[1]
        return 0 if (y > 0 or (y == 0 and x > 0)) else 1

    def compare(i, j):
        hi, hj = half(points[i]), half(points[j])
        if hi != hj:
            return -1 if hi < hj else 1
        ax, ay = points[i][0] - cx[0], points[i][1] - cx[1]
        bx, by = points[j][0] - cx[0], points[j][1] - cx[1]
        cross = ax * by - ay * bx
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        na = ax * ax + ay * ay
        nb = bx * bx + by * by
        return -1 if na < nb else (1 if na > nb else 0)

    return sorted(range(n), key=cmp_to_key(compare))


def _triangulate(points):
    """Partition a full-dimensional convex hull into simplices, exactly."""
    d = affine_rank(points)
    if len(points) == d + 1:
        return [tuple(tuple(p) for p in points)]
    if len(points[0]) > d:
        # planar-but-embedded point set: work in a local chart, lift back
        local_chart = _affine_chart(points)
        local = [local_chart.to_chart(p) for p in points]
        return [
            tuple(local_chart.to_ambient(q) for q in s)
            for s in _triangulate(local)
        ]
    if d == 1:
        raise GeometryError("segment with interior vertices cannot occur")
    if d == 2:
        order = _ccw_order(points)
        ring = [points[i] for i in order]
        return [
            (ring[0], ring[k], ring[k + 1]) for k in range(1, len(ring) - 1)
        ]
    sub = polytope(points)
    lat = exposed_faces(sub)
    apex = points[0]
    apex_idx = sub.vertices.index(tuple(apex))
    simplices = []
    for facet in lat.facets:
        if apex_idx in facet.indices:
            continue
        facet_pts = [sub.vertices[i] for i in facet.indices]
        for s in _triangulate(facet_pts):
            simplices.append((tuple(apex),) + tuple(s))
    return simplices


def barycenter(body):
    """Affine-covariant centroid: exact for polytopes, e/rank for EJA."""
    if isinstance(body, Ball):
        return tuple(Fraction(0) for _ in range(body.n))
    if isinstance(body, EjaStateSpace):
        return unit(body.descriptor) * (1.0 / body.descriptor.rank)
    if not isinstance(body, Polytope):
        raise GeometryError(f"unknown body {type(body).__name__}")
    ch = chart(body)
    if ch.dim == 0:
        return body.vertices[0]
    cv = list(chart_vertices(body))
    total_w = 0
    accum = [0] * ch.dim
    for simplex in _triangulate(cv):
        base = simplex[0]
        rows = [[p[i] - base[i] for i in range(ch.dim)] for p in simplex[1:]]
        w = determinant(rows)
        if w < 0:
            w = -w
        if w == 0:
            continue
        cent = [
            sum(p[i] for p in simplex) * Fraction(1, len(simplex))
            for i in range(ch.dim)
        ]
        accum = [a + w * c for a, c in zip(accum, cent)]
        total_w = total_w + w
    if total_w == 0:
        raise GeometryError("degenerate triangulation")
    inv = 1 / total_w
    return ch.to_ambient([a * inv for a in accum])


# ---------------------------------------------------------------------------
# fixtures


def simplex(n: int) -> Polytope:
    """The n-simplex as the n+1 unit vectors of R^(n+1)."""
    if n < 0:
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
        return ball(int(doc["n"]))
    if kind == "eja":
        rest = {k: v for k, v in doc.items() if k != "type"}
        return EjaStateSpace(descriptor=AlgebraDescriptor.from_dict(rest))
    if kind == "named":
        name = doc.get("name")
        if name == "simplex":
            return simplex(int(doc["n"]))
        if name in NAMED_BODIES:
            return NAMED_BODIES[name]()
        raise GeometryError(f"unknown named body {name!r}")
    raise GeometryError(f"unknown body type {kind!r}")
