"""Convex body fixtures: faces, flags, barycenters, embeddings, membership.

The face lattice is built from exact facets with no linear program.  The
LP face program it replaced survives here as a reference oracle: a vertex
subset S is an exposed face iff some affine functional vanishes on S and
is >= 1 on every other vertex, one exact LP per subset.  The lattice must
match the oracle face for face, and polytope validation must refuse the
same first vertex as the oracle's singleton programs.
"""

import copy
import dataclasses
import fractions
import hashlib
import itertools
import json
import math
import pickle
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jordan_spectra import automorphisms, exactla, exactlp, geometry, operational, scalars
from jordan_spectra.classification import default_converse_catalog
from jordan_spectra.algebra import EjaElement, unit
from jordan_spectra.exactla import (
    _eliminate,
    affine_basis_indices,
    mat_vec,
    solve_any,
)
from jordan_spectra.exactlp import Feasible, linear_program, lp_feasible
from jordan_spectra.geometry import (
    AffineChart,
    Ball,
    CapExceeded,
    EjaStateSpace,
    GeometryError,
    Polytope,
    ball,
    barycenter,
    body_from_dict,
    body_to_dict,
    chart,
    chart_vertices,
    cube,
    eja_state_space,
    exposed_faces,
    hexagon,
    maximal_flags,
    membership,
    octahedron,
    pentagon,
    polytope,
    rectangle,
    simplex,
    square,
)
from jordan_spectra.operational import enumerate_frames, rank
from jordan_spectra.scalars import Sqrt5, format_scalar
from jordan_spectra.symmetry import automorphism_group

F = Fraction
R5 = Sqrt5(0, 1)


def face_sizes(poly):
    lat = exposed_faces(poly)
    out = {}
    for f in lat.faces:
        if f.indices:
            out[f.dim] = out.get(f.dim, 0) + 1
    return out


# ---------------------------------------------------------------------------
# construction and validation


def test_vertex_validation():
    with pytest.raises(GeometryError):
        polytope([(0, 0), (0, 0), (1, 1)])
    with pytest.raises(GeometryError):
        polytope([(0, 0), (1,)])
    with pytest.raises(GeometryError):
        polytope([])
    with pytest.raises(GeometryError):
        polytope([(0.5, 0)])


@pytest.mark.parametrize("bad", [True, None, 0.5], ids=["bool", "none", "float"])
def test_non_exact_coordinates_rejected(bad):
    with pytest.raises(GeometryError):
        polytope([(0, 0), (1, bad)])
    with pytest.raises(GeometryError):
        membership(square(), (0, bad))


def test_center_point_not_extremal():
    with pytest.raises(GeometryError):
        polytope([(1, 1), (-1, 1), (-1, -1), (1, -1), (0, 0)])


def test_midpoint_of_edge_not_extremal():
    with pytest.raises(GeometryError):
        polytope([(0, 0), (2, 0), (1, 0)])


def in_hull_of_others(points, i):
    """Caratheodory oracle, no LP: points[i] is a convex combination of an
    affinely independent subset of the other points with at most d + 1
    members."""
    others = [p for j, p in enumerate(points) if j != i]
    for r in range(1, len(points[i]) + 2):
        for subset in itertools.combinations(others, r):
            if len(affine_basis_indices(list(subset))) == len(subset):
                # barycentric coordinates: sum lam_j s_j = p, sum lam_j = 1
                rows = [[s[k] for s in subset] for k in range(len(points[i]))]
                lam = solve_any(rows + [[1] * r], list(points[i]) + [1])
                if lam is not None and all(x >= 0 for x in lam):
                    return True
    return False


coord = st.integers(min_value=-2, max_value=2)
point_sets = st.integers(min_value=2, max_value=3).flatmap(
    lambda d: st.lists(st.tuples(*[coord] * d), min_size=1, max_size=7, unique=True)
)


def oracle_exposes(cv, inside) -> bool:
    """Is some affine functional zero on ``inside`` and >= 1 on every other
    chart vertex?  One exact LP."""
    constraints = [
        (tuple(v) + (1,), "=", 0) if i in inside else (tuple(v) + (1,), ">=", 1)
        for i, v in enumerate(cv)
    ]
    res = lp_feasible(linear_program(constraints, n_vars=len(cv[0]) + 1))
    return isinstance(res, Feasible)


def oracle_faces(poly):
    """(indices, dim) of every face, by one LP per nonempty vertex subset."""
    cv = chart_vertices(poly)
    out = [((), -1)]
    for r in range(1, len(cv) + 1):
        for subset in itertools.combinations(range(len(cv)), r):
            if oracle_exposes(cv, set(subset)):
                dim = len(affine_basis_indices([cv[i] for i in subset])) - 1
                out.append((subset, dim))
    return sorted(out, key=lambda f: (len(f[0]), f[0]))


def oracle_refused_vertex(points):
    """First index whose singleton the LP cannot expose, or None."""
    if len(points) == 1:
        return None
    exact_points = [tuple(map(F, p)) for p in points]
    ch = geometry._affine_chart(exact_points)[0]
    cv = [ch.to_chart(p) for p in exact_points]
    return next((i for i in range(len(cv)) if not oracle_exposes(cv, {i})), None)


def face_list(poly, cap=geometry.VERTEX_CAP):
    """(indices, dim) of every face; each functional must vanish on its face
    and take exactly 1 as its smallest value on the other vertices."""
    cv = chart_vertices(poly)
    lat = exposed_faces(poly, cap)
    for face in lat.faces[1:-1]:
        g, c = face.functional
        values = [sum(a * b for a, b in zip(g, v)) + c for v in cv]
        assert all(values[i] == 0 for i in face.indices)
        assert min(x for i, x in enumerate(values) if i not in face.indices) == 1
    return [(f.indices, f.dim) for f in lat.faces]


def signed_shuffled_image(body, rng):
    """The body under a signed coordinate permutation, vertices shuffled."""
    d = len(body.vertices[0])
    axes = rng.sample(range(d), d)
    signs = [rng.choice((1, -1)) for _ in range(d)]
    moved = [tuple(s * v[a] for s, a in zip(signs, axes)) for v in body.vertices]
    rng.shuffle(moved)
    return polytope(moved)


@pytest.mark.parametrize(
    "name,body", [pytest.param(*entry, id=entry[0]) for entry in default_converse_catalog()]
)
def test_faces_match_the_lp_oracle_on_catalog_images(name, body):
    rng = random.Random(name)
    for image in [body] + [signed_shuffled_image(body, rng) for _ in range(2)]:
        assert face_list(image) == oracle_faces(image)


@settings(max_examples=60, deadline=None)
@given(points=point_sets)
@example(points=[(1, 1), (-1, 1), (-1, -1), (1, -1), (0, 0)])  # interior point
@example(points=[(0, 0), (1, 0), (2, 0)])  # on an edge, before its end
@example(points=[(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)])  # in a facet
@example(points=[(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 0, 0)])  # in an edge
@example(points=[(0, 0, 0), (1, 1, 1), (2, 2, 2), (-1, 0, 1)])  # degenerate hull
def test_extremality_matches_caratheodory_oracle(points):
    first = next((i for i in range(len(points)) if in_hull_of_others(points, i)), None)
    assert oracle_refused_vertex(points) == first
    if first is None:
        body = polytope(points)
        assert body.vertices == tuple(tuple(map(F, p)) for p in points)
        assert face_list(body) == oracle_faces(body)
    else:
        with pytest.raises(GeometryError, match=rf"^vertex {first} is not extremal$"):
            polytope(points)


def test_rectangle_rejects_square():
    with pytest.raises(GeometryError):
        rectangle(1, 1)


def test_chart_roundtrip():
    for body in (simplex(2), square(), pentagon(), cube()):
        ch = chart(body)
        for v, cv in zip(body.vertices, chart_vertices(body)):
            assert ch.to_ambient(cv) == v
    # off-hull point has no chart coordinates
    assert chart(simplex(2)).to_chart((1, 1, 1)) is None


# ---------------------------------------------------------------------------
# barycenters


def test_barycenter_simplex_unit_vectors():
    assert barycenter(simplex(2)) == (F(1, 3), F(1, 3), F(1, 3))
    assert barycenter(simplex(4)) == tuple([F(1, 5)] * 5)


def test_barycenter_centered_fixtures():
    for body in (square(), hexagon(), cube(), octahedron(), rectangle()):
        assert all(c == 0 for c in barycenter(body))
    assert all(c == 0 for c in barycenter(pentagon()))


def test_barycenter_irregular_quadrilateral():
    # Hand triangulation: (0,0),(2,0),(2,2) has area 2 and centroid
    # (4/3, 2/3); (0,0),(2,2),(0,1) has area 1 and centroid (2/3, 1).
    # Weighted: ((8/3 + 2/3)/3, (4/3 + 1)/3) = (10/9, 7/9).
    quad = polytope([(0, 0), (2, 0), (2, 2), (0, 1)])
    assert barycenter(quad) == (F(10, 9), F(7, 9))


def test_barycenter_affine_covariance():
    quad = polytope([(0, 0), (2, 0), (2, 2), (0, 1)])
    mat = [[F(1), F(1)], [F(0), F(1)]]
    t = (F(3), F(-2))
    moved = polytope(
        [tuple(x + y for x, y in zip(mat_vec(mat, v), t)) for v in quad.vertices]
    )
    expected = tuple(
        x + y for x, y in zip(mat_vec(mat, barycenter(quad)), t)
    )
    assert barycenter(moved) == expected


def test_barycenter_segment_and_point():
    assert barycenter(polytope([(0, 0, 0), (2, 2, 2)])) == (1, 1, 1)
    assert barycenter(polytope([(7, 8)])) == (7, 8)


def test_barycenter_ball_and_eja():
    assert barycenter(ball(3)) == (0, 0, 0)
    st = eja_state_space("herm_c", 3)
    b = barycenter(st)
    e = unit(st.descriptor)
    assert np.allclose(b.coeffs, e.coeffs / 3.0, atol=1e-15)


def test_barycenter_reads_the_record_not_a_table(monkeypatch):
    # a square pyramid with an off-centre apex: base centroid (1, 1, 0)
    # plus a quarter of (apex - base centroid); and the same pyramid
    # embedded in R^4, where the chart is not the ambient space
    apex_base = [(0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0), (2, 0, 4)]
    pyramid = polytope(apex_base)
    embedded = polytope([p + (0,) for p in apex_base])
    # the 24-cell lies past the cap, and barycenter takes none
    centred = [four_cube(), twenty_four_cell()]

    def refuse(*args, **kwargs):
        raise AssertionError("barycenter rebuilt a table or solved for a chart")

    monkeypatch.setattr(geometry, "_vertex_hyperplanes", refuse)
    monkeypatch.setattr(geometry, "solve_any", refuse)
    assert barycenter(pyramid) == (F(5, 4), F(3, 4), F(1))
    assert barycenter(embedded) == (F(5, 4), F(3, 4), F(1), F(0))
    for body in centred:
        assert barycenter(body) == (0, 0, 0, 0)


# ---------------------------------------------------------------------------
# exposed faces


def test_simplex2_face_lattice():
    lat = exposed_faces(simplex(2))
    assert face_sizes(simplex(2)) == {0: 3, 1: 3, 2: 1}
    assert lat.bottom.indices == ()
    assert lat.top.indices == (0, 1, 2)


def test_square_pentagon_hexagon_face_counts():
    assert face_sizes(square()) == {0: 4, 1: 4, 2: 1}
    assert face_sizes(pentagon()) == {0: 5, 1: 5, 2: 1}
    assert face_sizes(hexagon()) == {0: 6, 1: 6, 2: 1}


def test_cube_octahedron_face_counts():
    assert face_sizes(cube()) == {0: 8, 1: 12, 2: 6, 3: 1}
    assert face_sizes(octahedron()) == {0: 6, 1: 12, 2: 8, 3: 1}


def test_pentagon_edges_are_consecutive_pairs():
    lat = exposed_faces(pentagon())
    edges = sorted(f.indices for f in lat.faces if f.dim == 1)
    assert edges == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]


def test_single_point_and_segment_lattices():
    lat = exposed_faces(polytope([(3, 4)]))
    assert [f.indices for f in lat.faces] == [(), (0,)]
    lat = exposed_faces(polytope([(0,), (1,)]))
    assert [f.indices for f in lat.faces] == [(), (0,), (1,), (0, 1)]


def test_exposedness_certificates():
    # every reported face is exactly the zero set of its functional,
    # with value >= 1 on all other vertices
    for body in (simplex(2), square(), pentagon(), octahedron()):
        cv = chart_vertices(body)
        for face in exposed_faces(body).faces:
            if not face.indices:
                continue
            g, c = face.functional
            for i, coords in enumerate(cv):
                val = sum(a * b for a, b in zip(g, coords)) + c
                if i in face.indices:
                    assert val == 0
                else:
                    assert val >= 1


def test_face_enumeration_cap():
    # 15 rational points on the unit circle, all extremal
    ts = [F(k, 7) for k in range(-7, 8)]
    pts = [((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)) for t in ts]
    body = polytope(pts)
    with pytest.raises(CapExceeded):
        exposed_faces(body)


# ---------------------------------------------------------------------------
# the per-body analysis record


def _count_calls(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_face_lattice_solved_once_whatever_the_cap(monkeypatch):
    # a body no other test builds, so its record starts empty
    eliminations = _count_calls(monkeypatch, geometry, "_eliminate")
    # the kernel as every exactla routine calls it (solve_any, determinant)
    kernel = _count_calls(monkeypatch, exactla, "_eliminate")
    body = polytope([(3, 0), (0, 2), (-3, 1), (-1, -2)])
    # the chart, coordinates included, then one hyperplane per vertex pair;
    # extremality is read from the facets' vertex sets.  The accepted body
    # keeps its facets and their vertex values, so the lattice needs no
    # elimination, in this module or in exactla
    assert len(eliminations) == 1 + 6
    assert len(kernel) == 0
    lat = exposed_faces(body)
    assert exposed_faces(body, 14) is lat
    assert exposed_faces(body, cap=14) is lat
    assert len(eliminations) == 1 + 6 and len(kernel) == 0
    # the cube's vertex triples span 20 planes: 6 facets and 6 diagonal
    # planes of four vertices each, and 8 corner cuts of three; the first
    # triple on a plane spans it and the others on it are skipped
    cv = chart_vertices(cube())
    eliminations.clear()
    table = geometry._vertex_hyperplanes(cv)
    assert len(table) == 20 and len(geometry._facets(table)) == 6
    assert len(eliminations) == math.comb(8, 3) - 12 * 3 == 20


def four_cube():
    return polytope(list(itertools.product((-1, 1), repeat=4)))


def twenty_four_cell():
    """The 24 vertices (+-1, +-1, 0, 0) up to coordinate order."""
    points = []
    for i, j in itertools.combinations(range(4), 2):
        for a, b in itertools.product((1, -1), repeat=2):
            points.append(tuple(a if k == i else b if k == j else 0 for k in range(4)))
    return polytope(points)


def brute_force_hyperplanes(cv):
    """(on-sets, facets) by one elimination per d-subset of ``cv``: the
    facet search that the vertex-hyperplane table replaced, with nothing
    skipped.

    ``on-sets`` lists the vertex set of each affinely independent subset's
    hyperplane, one entry per subset.  ``facets`` is {on-set: (g, c)} over
    the one-signed hyperplanes, signed >= 0 on the body and taken at the
    first subset that spans each.
    """
    n, d = len(cv), len(cv[0])
    homogenized = [[v[k] for v in cv] for k in range(d)] + [[1] * n]
    ident = [[int(j == k) for j in range(d + 1)] for k in range(d + 1)]
    on_sets, facets = [], {}
    for subset in itertools.combinations(range(n), d):
        order = list(subset) + [i for i in range(n) if i not in subset]
        rows = [[row[i] for i in order] + e for row, e in zip(homogenized, ident)]
        ring, T, pivots, _, _ = _eliminate(rows)
        if pivots[:d] != list(range(d)):
            continue  # affinely dependent
        signs = [ring.sign(x) for x in T[d][:n]]
        on = frozenset(i for i, sign in zip(order, signs) if sign == 0)
        on_sets.append(on)
        if not (1 in signs and -1 in signs) and on not in facets:
            flip = -1 if -1 in signs else 1
            normal = [flip * ring.scalar(y) for y in T[d][n:]]
            facets[on] = (tuple(normal[:d]), normal[d])
    return on_sets, facets


def _pinned_images():
    """The converse catalog and the two seeded images of each body that
    ``test_pinned_reports`` pins, with the 4-cube and the 24-cell."""
    out = []
    for name, body in default_converse_catalog():
        rng = random.Random(name)
        out.append(pytest.param(lambda body=body: body, id=name))
        for i in (1, 2):
            image = signed_shuffled_image(body, rng)
            out.append(pytest.param(lambda image=image: image, id=f"{name}#{i}"))
    return out + [
        pytest.param(four_cube, id="4-cube"),
        pytest.param(twenty_four_cell, id="24-cell"),
    ]


@pytest.mark.parametrize("make", _pinned_images())
def test_vertex_hyperplanes_match_brute_force(make):
    rec = geometry._analysis(make())
    cv = rec.chart_vertices
    on_sets, facets = brute_force_hyperplanes(cv)
    # every spanned hyperplane is in the table, once, under its vertex set
    assert set(rec.hyperplanes) == set(on_sets)
    for on, (g, c, facet) in rec.hyperplanes.items():
        values = [sum(a * x for a, x in zip(g, v)) + c for v in cv]
        assert {i for i, x in enumerate(values) if x == 0} == on
        assert facet == (min(values) >= 0 or max(values) <= 0)
    # the facets are the brute-force ones in keys, order and values
    assert list(rec.facets.items()) == list(facets.items())


@pytest.mark.parametrize(
    "make,hyperplanes,count",
    [(four_cube, 140, 141), (twenty_four_cell, 888, 889)],
    ids=["4-cube", "24-cell"],
)
def test_one_elimination_per_vertex_hyperplane(monkeypatch, make, hyperplanes, count):
    # plus one per affinely dependent subset on no hyperplane found before
    cv = chart_vertices(make())
    eliminations = _count_calls(monkeypatch, geometry, "_eliminate")
    assert len(geometry._vertex_hyperplanes(cv)) == hyperplanes
    assert len(eliminations) == count


def _exact_types(values):
    return {type(x) for x in values} <= {int, Fraction, Sqrt5}


@pytest.mark.parametrize(
    "make,cap,counts",
    [
        (four_cube, 16, {0: 16, 1: 32, 2: 24, 3: 8, 4: 1}),
        (twenty_four_cell, 24, {0: 24, 1: 96, 2: 96, 3: 24, 4: 1}),
        (pentagon, 12, {0: 5, 1: 5, 2: 1}),
    ],
    ids=["4-cube", "24-cell", "pentagon"],
)
def test_graded_faces_are_exact(make, cap, counts):
    body = make()
    cv = chart_vertices(body)
    faces = face_list(body, cap)  # functionals: zero on the face, off-face minimum 1
    sizes = {}
    for indices, dim in faces[1:]:
        # the grading agrees with the affine rank of the face's vertices
        assert dim == len(affine_basis_indices([cv[i] for i in indices])) - 1
        sizes[dim] = sizes.get(dim, 0) + 1
    assert sizes == counts
    # every number is exact: a float would come from dividing by an int
    for face in exposed_faces(body, cap).faces[1:]:
        g, c = face.functional
        assert _exact_types(g + (c,))
    effects = operational._facet_effects(body)
    values = [[e(v) for e in effects] for v in body.vertices]
    assert len(values) == len(cv) and all(_exact_types(row) for row in values)
    assert all(sum(col) == 1 for col in zip(*values))


def test_face_side_solves_no_lp(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the face side solved an LP")

    # the solver, and every package module that bound it by name
    solver = exactlp.lp_feasible
    for module in list(sys.modules.values()):
        if getattr(module, "lp_feasible", None) is solver:
            monkeypatch.setattr(module, "lp_feasible", refuse)
    geometry._analysis.cache_clear()
    with pytest.raises(GeometryError, match="^vertex 4 is not extremal$"):
        polytope([(1, 1), (-1, 1), (-1, -1), (1, -1), (0, 0)])
    assert face_sizes(cube()) == {0: 8, 1: 12, 2: 6, 3: 1}
    assert len(exposed_faces(pentagon()).facets) == 5


def test_automorphism_group_searched_once_whatever_the_cap(monkeypatch):
    body = polytope([(2, 0), (0, 3), (-2, 0), (0, -3)])
    searches = _count_calls(monkeypatch, automorphisms, "_search_generators")
    # per search: the Gram invariant and one basis inverse, nothing per map
    eliminations = _count_calls(monkeypatch, automorphisms, "_eliminate")
    group = automorphism_group(body)
    assert len(group) == 8
    assert automorphism_group(body, 12) is group
    assert automorphism_group(body, cap=12) is group
    assert len(searches) == 1 and len(eliminations) == 2


def test_facets_found_once_per_accepted_body(monkeypatch):
    found = _count_calls(monkeypatch, geometry, "_facets")
    charts = _count_calls(monkeypatch, geometry, "_affine_chart")
    # a body no other test builds
    body = polytope([(0, 0, 0), (3, 0, 0), (0, 2, 0), (0, 0, 5), (1, 1, 1)])
    lat = exposed_faces(body)
    assert rank(body) == 3
    assert membership(body, (1, 0, 0)) == "boundary"
    assert len(lat.facets) == 6
    assert len(found) == 1 and len(charts) == 1


def test_caps_refuse_after_caching():
    exposed_faces(cube())
    with pytest.raises(CapExceeded):
        exposed_faces(cube(), cap=4)
    automorphism_group(cube())
    with pytest.raises(CapExceeded):
        automorphism_group(cube(), 3)
    enumerate_frames(square(), 2)
    with pytest.raises(CapExceeded, match="cap 3"):
        enumerate_frames(square(), 2, cap=3)
    rank(square())
    with pytest.raises(CapExceeded, match="cap 3"):
        rank(square(), cap=3)


def test_equal_bodies_share_one_record():
    assert geometry._analysis(square()) is geometry._analysis(square())
    assert geometry._analysis(square()) is not geometry._analysis(hexagon())


def test_polytope_hash_is_kept_and_copies_stay_equal():
    points = [(5, 0), (0, 7), (-5, 1), (-2, -7)]  # a body no other test builds
    body = polytope(points)
    # an equal body is accepted from the cache, which hands back the body
    # it holds, so later look-ups hit by identity
    again = polytope(points)
    assert again is body
    assert geometry._analysis(again) is geometry._analysis(body)
    for copied in (copy.deepcopy(body), pickle.loads(pickle.dumps(body))):
        assert copied is not body and copied == body and hash(copied) == hash(body)
        assert copied.vertices == body.vertices
        assert geometry._analysis(copied) is geometry._analysis(body)
    assert hash(body) == hash(Polytope(vertices=body.vertices))
    with pytest.raises(dataclasses.FrozenInstanceError):
        body.vertices = ()
    assert body.vertices == tuple(tuple(map(F, p)) for p in points)


def test_refused_point_sets_take_no_cache_slot():
    geometry._analysis.cache_clear()
    for k in range(2, 7):
        with pytest.raises(GeometryError, match="^vertex 2 is not extremal$"):
            polytope([(0, 0), (k, 0), (1, 0)])
    assert geometry._analysis.cache_info().currsize == 0
    triangle = [(0, 0), (2, 0), (0, 1)]
    assert geometry._analysis(polytope(triangle)) is geometry._analysis(polytope(triangle))


def test_analysis_cache_is_bounded():
    bound = geometry.ANALYSIS_CACHE_BODIES
    assert geometry._analysis.cache_info().maxsize == bound
    segments = [polytope([(0,), (k,)]) for k in range(1, bound + 11)]
    assert geometry._analysis.cache_info().currsize <= bound
    # an evicted body is analysed again on demand, with the same answer
    assert [f.indices for f in exposed_faces(segments[0]).faces] == [
        (), (0,), (1,), (0, 1)
    ]
    assert chart_vertices(segments[0]) == ((F(0),), (F(1),))


def test_frames_come_in_lexicographic_order():
    for body, k in ((square(), 2), (simplex(2), 3), (pentagon(), 2)):
        got = [f.indices for f in enumerate_frames(body, k)]
        assert got == sorted(got)
        assert len(got) == len(set(got))
        keys = {tuple(sorted(i)) for i in got}
        assert all(
            (tuple(sorted(perm)) in keys) == (perm in got)
            for perm in itertools.permutations(range(len(body.vertices)), k)
        )


# ---------------------------------------------------------------------------
# flags


def test_maximal_flag_counts():
    assert len(maximal_flags(simplex(2))) == 6
    assert len(maximal_flags(square())) == 8
    assert len(maximal_flags(pentagon())) == 10
    assert len(maximal_flags(hexagon())) == 12
    assert len(maximal_flags(cube())) == 48
    assert len(maximal_flags(octahedron())) == 48


def test_maximal_flags_saturated():
    for fl in maximal_flags(cube()):
        assert [f.dim for f in fl] == [0, 1, 2, 3]
        for a, b in zip(fl, fl[1:]):
            assert set(a.indices) < set(b.indices)


# ---------------------------------------------------------------------------
# membership


def test_membership_polytope():
    assert membership(simplex(2), (F(1, 3), F(1, 3), F(1, 3))) == "inside"
    assert membership(simplex(2), (1, 0, 0)) == "boundary"
    assert membership(simplex(2), (1, 1, 1)) == "outside"
    assert membership(square(), (F(1, 2), F(1, 5))) == "inside"
    assert membership(square(), (1, 0)) == "boundary"
    assert membership(square(), (2, 0)) == "outside"
    assert membership(polytope([(3, 4)]), (3, 4)) == "inside"
    assert membership(polytope([(3, 4)]), (3, 5)) == "outside"


def test_membership_pentagon_exact():
    body = pentagon()
    assert membership(body, (0, 0)) == "inside"
    assert membership(body, tuple(body.vertices[2])) == "boundary"
    assert membership(body, (1, 1)) == "outside"


def test_membership_ball():
    assert membership(ball(3), (F(1, 2), 0, 0)) == "inside"
    assert membership(ball(3), (1, 0, 0)) == "boundary"
    assert membership(ball(3), (1, 1, 0)) == "outside"
    assert membership(ball(2), (0.6, 0.8)) == "boundary"


def test_membership_eja():
    st = eja_state_space("sym_r", 3)
    d = st.descriptor
    e = unit(d)
    assert membership(st, e * (1.0 / 3.0)) == "inside"
    c = np.zeros(d.dim)
    c[0] = 1.0
    assert membership(st, EjaElement(d, c)) == "boundary"
    assert membership(st, e) == "outside"  # trace 3
    c2 = np.zeros(d.dim)
    c2[0], c2[1] = 2.0, -1.0
    assert membership(st, EjaElement(d, c2)) == "outside"


# ---------------------------------------------------------------------------
# JSON


def test_body_json_roundtrip():
    for body in (square(), pentagon(), ball(3), eja_state_space("herm_o", 3)):
        doc = body_to_dict(body)
        assert body_from_dict(doc) == body


def test_polytope_json_shape():
    doc = body_to_dict(square())
    assert doc["type"] == "polytope"
    assert doc["vertices"][0] == ["1", "1"]
    assert doc["vertices"][1] == ["-1", "1"]


def test_named_bodies():
    assert body_from_dict({"type": "named", "name": "pentagon"}) == pentagon()
    assert body_from_dict({"type": "named", "name": "simplex", "n": 3}) == simplex(3)
    with pytest.raises(GeometryError):
        body_from_dict({"type": "named", "name": "dodecahedron"})
    with pytest.raises(GeometryError):
        body_from_dict({"type": "torus"})


def root5_square():
    """sqrt 5 times the square: a rational shape with Sqrt5 coordinates."""
    return polytope([(R5 * x, R5 * y) for x, y in square().vertices])


def scalar_code_outside_quotients(call):
    """(result, ring quotients, names of the Fraction or Sqrt5 code entered
    outside a ring quotient) of ``call()``."""
    scalar_files = {fractions.__file__, scalars.__file__}
    inside, quotients, stray = [0], [0], []

    def profile(frame, event, arg):
        code = frame.f_code
        if code.co_name == "quotient" and code.co_filename == exactla.__file__:
            inside[0] += {"call": 1, "return": -1}.get(event, 0)
            quotients[0] += event == "call"
        elif event == "call" and not inside[0] and code.co_filename in scalar_files:
            stray.append(code.co_name)

    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, quotients[0], stray


@pytest.mark.parametrize(
    "make",
    [square, pentagon, cube, lambda: simplex(3), lambda: root5_square()],
    ids=["square", "pentagon", "cube", "simplex3", "sqrt5-square"],
)
def test_exposing_functionals_build_only_their_quotients(make):
    # facet values and normals are summed as ring elements and compared by
    # ring signs; the only Fraction or Sqrt5 values built are the g and c
    # handed out, one quotient each
    body = make()
    rec = geometry._analysis(body)
    lat = exposed_faces(body)
    for face in lat.faces[1:]:
        on = frozenset(face.indices)
        got, quotients, stray = scalar_code_outside_quotients(
            lambda: geometry._exposing_functional(on, rec)
        )
        assert got == face.functional and not stray, (face.indices, stray)
        assert quotients == (0 if face is lat.top else rec.chart.dim + 1)


# ---------------------------------------------------------------------------
# pinned face lattices and maximal flags


def _lattice_bodies(name):
    """(body, cap) pairs pinned under ``name``: a catalog body with two
    seeded images of it, or one of the extra bodies."""
    catalog = dict(default_converse_catalog())
    if name in catalog:
        rng = random.Random(name)
        body = catalog[name]
        images = [signed_shuffled_image(body, rng) for _ in range(2)]
        return [(image, 12) for image in [body] + images]
    return {
        "sqrt5-square": lambda: [(root5_square(), 12)],
        "simplex(5)": lambda: [(simplex(5), 12)],
        "4-cube": lambda: [(four_cube(), 16)],
    }[name]()


def lattice_doc(body, cap):
    """Every face (indices, dim and exposing functional, each scalar by
    ``format_scalar``) and every maximal flag (face indices)."""
    faces = []
    for f in exposed_faces(body, cap).faces:
        functional = None
        if f.functional is not None:
            g, c = f.functional
            functional = [[format_scalar(x) for x in g], format_scalar(c)]
        faces.append([list(f.indices), f.dim, functional])
    flags = [[list(f.indices) for f in flag] for flag in maximal_flags(body, cap)]
    return [faces, flags]


# sha256 of the canonical JSON of ``lattice_doc`` over ``_lattice_bodies``,
# taken from the code that scaled each functional's Fraction (or Sqrt5)
# sums by one reciprocal and rebuilt the flags on every call
LATTICE_DIGESTS = {
    "simplex(1)": "27ecb4aa311c3cdbd51f10254064fce544e4e9d2c5ba883d02df4c0408814f86",
    "simplex(2)": "c81def3e823a03247c72aabfc642ab485179231b2b8e40cfe58c0b573a93d4f5",
    "simplex(3)": "91f43260175d74805a324d4b4b58a65e3de8101b22a6cd47b57f0f7e355ee61d",
    "simplex(4)": "31e91f3626c876f31844054184c80a9613f7614b1a2594029fe894f1b1284da7",
    "square": "92ec7d6eb6c21fec548b5c0b687efef777c49be6ac2850ae15a6ec0eee71c0d1",
    "rectangle": "d6ed3b6f76079ed066cd173d173cb4fbe98c0df0d865f9a584f708cc7cec8967",
    "pentagon": "41d35888d604673e0055bcd4abe81c1c79d809eca4e98f42dbaf9a70033c813f",
    "hexagon": "ae067aa8eba386290e046df9d696efe0d778aeb443b2e46d864ec579a1f09ffa",
    "cube": "a754447ee489e9768b9aef5a7c6342ac712fa82f723c02ee2b920ea3a5384a70",
    "octahedron": "6a863cc515a2369902b4782fe620f609c446b8299b694998be3c7582ad98e3e7",
    "sqrt5-square": "5280245786dddd2b549fa18480d94a7994f3ff29be05e87d4686278e29c9be15",
    "simplex(5)": "c7bc972a167af45bdbdd15b8e67d8328d605531932c664129a7b2925cb6d7ac9",
    "4-cube": "8d22855b5e223034d730ad2d0cb73c5bdb4aeb44a0aa4766e36a5f154432abfe",
}


@pytest.mark.parametrize("name", list(LATTICE_DIGESTS))
def test_face_lattices_and_flags_are_pinned(name):
    doc = [lattice_doc(body, cap) for body, cap in _lattice_bodies(name)]
    blob = json.dumps(doc, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == LATTICE_DIGESTS[name]
