"""Convex body fixtures: faces, flags, barycenters, embeddings, membership."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from jordan_spectra import geometry, symmetry
from jordan_spectra.algebra import EjaElement, unit
from jordan_spectra.exactla import mat_vec
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
    facet_functionals,
    flags,
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
from jordan_spectra.operational import OperationalError, enumerate_frames, rank
from jordan_spectra.scalars import Sqrt5
from jordan_spectra.symmetry import automorphism_group

F = Fraction


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


def test_lattice_laws():
    for body in (simplex(2), square()):
        lat = exposed_faces(body)
        faces = lat.faces
        for a in faces:
            assert lat.meet(a, lat.bottom).indices == ()
            assert lat.join(a, lat.top).indices == lat.top.indices
            for b in faces:
                assert lat.meet(a, b) == lat.meet(b, a)
                assert lat.join(a, b) == lat.join(b, a)
                for c in faces:
                    assert lat.meet(lat.meet(a, b), c) == lat.meet(a, lat.meet(b, c))
                    assert lat.join(lat.join(a, b), c) == lat.join(a, lat.join(b, c))


def test_square_meet_join_specifics():
    lat = exposed_faces(square())
    e01 = lat.find((0, 1))
    e12 = lat.find((1, 2))
    assert lat.meet(e01, e12).indices == (1,)
    assert lat.join(lat.find((0,)), lat.find((1,))).indices == (0, 1)
    # diagonal vertices span no edge, so their join is the whole square
    assert lat.join(lat.find((0,)), lat.find((2,))).indices == (0, 1, 2, 3)


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
    body = polytope([(3, 0), (0, 2), (-3, 1), (-1, -2)])
    lps = _count_calls(monkeypatch, geometry, "lp_feasible")
    lat = exposed_faces(body)
    assert len(lps) == 15  # one LP per nonempty vertex subset
    assert exposed_faces(body, 14) is lat
    assert exposed_faces(body, cap=14) is lat
    assert len(lps) == 15


def test_automorphism_group_searched_once_whatever_the_cap(monkeypatch):
    body = polytope([(2, 0), (0, 3), (-2, 0), (0, -3)])
    maps = _count_calls(monkeypatch, symmetry, "affine_map_from_correspondence")
    group = automorphism_group(body)
    assert len(group) == 8 and maps
    searched = len(maps)
    assert automorphism_group(body, 12) is group
    assert automorphism_group(body, cap=12) is group
    assert len(maps) == searched


def test_caps_refuse_after_caching():
    exposed_faces(cube())
    with pytest.raises(CapExceeded):
        exposed_faces(cube(), cap=4)
    automorphism_group(cube())
    with pytest.raises(CapExceeded):
        automorphism_group(cube(), 3)
    enumerate_frames(square(), 2)
    with pytest.raises(OperationalError, match="cap 3"):
        enumerate_frames(square(), 2, cap=3)
    rank(square())
    with pytest.raises(OperationalError, match="cap 3"):
        rank(square(), cap=3)


def test_equal_bodies_share_one_record():
    assert geometry._analysis(square()) is geometry._analysis(square())
    assert geometry._analysis(square()) is not geometry._analysis(hexagon())


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


def test_all_flags_simplex2():
    # nonempty faces: 3 vertices, 3 edges, top.  Chains: 7 singletons,
    # 6 vertex-edge + 3 vertex-top + 3 edge-top pairs, 6 full chains.
    assert len(flags(simplex(2))) == 25
    for fl in flags(simplex(2)):
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
