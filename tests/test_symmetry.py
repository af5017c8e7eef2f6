"""Symmetry oracles, all derived by hand before running the code.

Group orders (affine maps permuting the vertex set):
  * simplex(n): every vertex permutation extends affinely, (n+1)!.
  * square and rectangle: affinely equivalent, dihedral order 8 (the
    rectangle picks up the axis swap composed with a rescale).
  * pentagon: dihedral order 10; hexagon: dihedral order 12 (affine maps
    preserve the boundary cycle, so only dihedral permutations survive).
  * cube, octahedron: 48; a single point: 1.

Ordered 2-frame orbits under those groups:
  * square: adjacent pairs (8) and diagonal pairs (4), so not strongly
    symmetric; pentagon: all 10 non-adjacent ordered pairs form one
    orbit; hexagon: distance-2 pairs (12) and opposite pairs (6).
  * cube: 2-frames are all 56 ordered pairs, split by Hamming distance
    into orbits 24/24/8; octahedron: 30 ordered pairs split 24/6.

Past the old 12-vertex cap: the 4-cube has the hyperoctahedral group of
order 2^4 4! = 384; the order-4 permutahedron (permutations of 1..4, a
3-dimensional body in R^4) has the symmetric group times the central
inversion, 4! * 2 = 48; the icosahedron, over Q(sqrt 5), has the full
icosahedral group of order 120.

The group search is checked against a brute force that solves one exact
affine system for every image of an affine vertex basis, P(n, d+1) of
them (1,680 for the cube, against the cube's 48 automorphisms).

An automorphism fixing a maximal flag fixes its faces' barycenters, an
affine basis, so the group acts freely on maximal flags: a body is
regular iff its group order equals its flag count (the 4-cube: 384 and
384).  A trapezoid has automorphism group of order 2 but 8 maximal flags,
so it cannot be flag-transitive.  Transporter residuals are float-level for
the matrix families; the spin transporter fixes the unit exactly since
it rotates only the vector part.
"""

import dataclasses
import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from jordan_spectra.algebra import (
    AlgebraDescriptor,
    EjaElement,
    inner,
    norm,
    unit,
)
from jordan_spectra.classification import default_converse_catalog
from jordan_spectra.exactla import _eliminate, affine_basis_indices, mat_vec
from jordan_spectra.geometry import (
    CapExceeded,
    barycenter,
    chart,
    chart_vertices,
    cube,
    exposed_faces,
    hexagon,
    maximal_flags,
    octahedron,
    pentagon,
    polytope,
    rectangle,
    simplex,
    square,
)
from jordan_spectra import automorphisms, exactla, geometry, operational, spectral, symmetry
from jordan_spectra.automorphisms import group_generators, orbit_tree
from jordan_spectra.operational import (
    enumerate_frames,
    is_spectral,
    recheck_counterexample,
)
from jordan_spectra.scalars import Sqrt5
from jordan_spectra.spectral import (
    UnsupportedFamily,
    extend_to_maximal_frame,
    jordan_frame_transporter,
    random_element,
    random_jordan_frame,
    spectral_decompose,
    verify_strong_symmetry_eja,
)
from jordan_spectra.symmetry import (
    FrameFlagReport,
    SymmetryError,
    automorphism_group,
    frame_flag_bijection,
    is_regular,
    is_strongly_symmetric,
)
from test_geometry import four_cube, scalar_code_outside_quotients, twenty_four_cell

F = Fraction


def standard_frame(alg):
    from jordan_spectra.classification import standard_frame as sf

    return sf(alg)


# -- automorphism groups ---------------------------------------------------------


GROUP_ORDERS = [
    (simplex(1), 2),
    (simplex(2), 6),
    (simplex(3), 24),
    (square(), 8),
    (rectangle(), 8),
    (pentagon(), 10),
    (hexagon(), 12),
    (cube(), 48),
    (octahedron(), 48),
    (polytope([(0, 0)]), 1),
]


@pytest.mark.parametrize("body,order", GROUP_ORDERS)
def test_group_orders(body, order):
    assert len(automorphism_group(body)) == order


@pytest.mark.parametrize("body,order", GROUP_ORDERS)
def test_generators_generate_the_group(body, order):
    gens = group_generators(body)
    assert gens.order == order
    # the Cayley graph of the generators reaches every automorphism
    ident = tuple(range(len(body.vertices)))
    reached = {ident} | {
        image
        for image, _, _ in orbit_tree(
            ident, gens.permutations, lambda p, h: tuple(p[i] for i in h)
        )
    }
    brute = brute_force_automorphisms(chart(body), chart_vertices(body))
    assert reached == {perm for perm, _, _ in brute}


def test_group_contains_identity_and_inverses():
    group = automorphism_group(pentagon())
    perms = {g.permutation for g in group}
    assert tuple(range(5)) in perms
    for g in group:
        inv = tuple(sorted(range(5), key=lambda i: g.permutation[i]))
        assert inv in perms
        for h in group:
            assert tuple(g.permutation[j] for j in h.permutation) in perms


def test_vertex_action_is_exact():
    body = pentagon()
    for g in automorphism_group(body):
        for i, v in enumerate(body.vertices):
            image = g.apply(v)
            assert image == body.vertices[g.permutation[i]]


def test_barycenter_is_fixed_exactly():
    for body in (simplex(3), square(), pentagon(), cube()):
        center = barycenter(body)
        for g in automorphism_group(body):
            assert g.apply(center) == tuple(center)


def test_group_average_of_vertex_orbit_is_barycenter():
    # vertex-transitive bodies: averaging one orbit sweeps all vertices evenly
    for body in (simplex(2), square(), hexagon(), octahedron()):
        group = automorphism_group(body)
        d = len(body.vertices[0])
        total = [F(0)] * d
        for g in group:
            image = g.apply(body.vertices[0])
            total = [a + c for a, c in zip(total, image)]
        avg = tuple(t / F(len(group)) for t in total)
        assert avg == tuple(barycenter(body))


def test_orbit_stabilizer_products():
    for body in (square(), pentagon(), cube()):
        group = automorphism_group(body)
        n = len(body.vertices)
        for i in range(n):
            orbit = {g.permutation[i] for g in group}
            stab = [g for g in group if g.permutation[i] == i]
            assert len(orbit) * len(stab) == len(group)


def test_automorphism_cap():
    points = [(F(k), F(k * k)) for k in range(25)]  # strictly convex, 25 vertices
    with pytest.raises(CapExceeded):
        automorphism_group(polytope(points))


def affine_map(src, dst):
    """The affine map sending each of the d + 1 affinely independent src
    points to its dst point: one elimination of [src | 1 | dst], whose
    right-hand block is [matrix | translation] transposed."""
    d = len(src[0])
    ring, T, pivots, den, _ = _eliminate(
        [list(p) + [1] + list(q) for p, q in zip(src, dst)]
    )
    assert pivots == list(range(d + 1))
    cols = [[ring.quotient(T[j][d + 1 + i], den) for j in range(d + 1)] for i in range(d)]
    return [col[:d] for col in cols], [col[d] for col in cols]


def brute_force_automorphisms(ch, cverts):
    """(permutation, matrix, translation) of every affine self-map, sorted.

    Solves the affine map for each of the P(n, d+1) ordered images of an
    affine vertex basis and keeps it iff it permutes the chart vertices.
    """
    n = len(cverts)
    if ch.dim == 0:
        return [((0,), (), ())]
    basis_ids = affine_basis_indices(list(cverts))
    src = [cverts[i] for i in basis_ids]
    index = {v: i for i, v in enumerate(cverts)}
    found = {}
    for images in itertools.permutations(range(n), len(basis_ids)):
        matrix, translation = affine_map(src, [cverts[i] for i in images])
        perm = tuple(
            index.get(tuple(a + b for a, b in zip(mat_vec(matrix, v), translation)))
            for v in cverts
        )
        if None not in perm and len(set(perm)) == n:
            found[perm] = (tuple(tuple(row) for row in matrix), tuple(translation))
    return [(p,) + found[p] for p in sorted(found)]


def triples(group):
    return [(g.permutation, g.matrix, g.translation) for g in group]


def shuffled_image(body, rng):
    """The body under a signed coordinate permutation, vertices shuffled."""
    d = len(body.vertices[0])
    axes = rng.sample(range(d), d)
    signs = [rng.choice((1, -1)) for _ in range(d)]
    moved = [tuple(s * v[a] for s, a in zip(signs, axes)) for v in body.vertices]
    rng.shuffle(moved)
    return polytope(moved)


def trapezoid():
    return polytope([(F(0), F(0)), (F(3), F(0)), (F(2), F(1)), (F(1), F(1))])


R5 = Sqrt5(0, 1)


@pytest.mark.parametrize(
    "name,body", [pytest.param(*entry, id=entry[0]) for entry in default_converse_catalog()]
)
def test_search_matches_brute_force_on_catalog_images(name, body):
    rng = random.Random(name)
    for image in [body] + [shuffled_image(body, rng) for _ in range(3)]:
        expected = brute_force_automorphisms(chart(image), chart_vertices(image))
        assert triples(automorphism_group(image)) == expected


def field_gram_colours(cverts):
    """The Gram invariant Q_ij = v_i^T (sum_k v_k v_k^T)^-1 v_j over the
    field itself (Fraction or Sqrt5 values, no ring), M inverted by plain
    Gauss-Jordan; colours numbered by first appearance, row by row."""
    hat = [list(v) + [F(1)] for v in cverts]
    m = len(hat[0])
    aug = [
        [sum(v[r] * v[c] for v in hat) for c in range(m)] + [F(int(r == c)) for c in range(m)]
        for r in range(m)
    ]
    for c in range(m):
        p = next(r for r in range(c, m) if aug[r][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        pivot = aug[c][c]
        aug[c] = [x / pivot for x in aug[c]]
        for r in range(m):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    inverse = [row[m:] for row in aug]
    colours = {}
    out = []
    for vi in hat:
        row = []
        for vj in hat:
            q = sum(vi[r] * inverse[r][c] * vj[c] for r in range(m) for c in range(m))
            row.append(colours.setdefault(q, len(colours)))
        out.append(row)
    return out


@pytest.mark.parametrize(
    "name,body", [pytest.param(*entry, id=entry[0]) for entry in default_converse_catalog()]
)
def test_gram_colours_match_the_field_gram(name, body):
    # ring-integer colours against the Gram matrix over Q or Q(sqrt 5):
    # both number classes by first appearance, so the same partition of
    # the vertex pairs gives the same lists
    rng = random.Random(name)
    for image in [body] + [shuffled_image(body, rng) for _ in range(3)]:
        cv, rec = chart_vertices(image), geometry._analysis(image)
        assert automorphisms._gram_colours(rec.ring, rec.ring_chart) == field_gram_colours(cv)


@pytest.mark.parametrize(
    "body,order",
    [
        (trapezoid(), 2),
        # a triangle on scaled unit vectors of R^4: a 2-dimensional chart
        (polytope([(2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 0, 1)]), 6),
        # sqrt 5 times the square: a Sqrt5-typed chart over a rational shape
        (polytope([(R5, R5), (-R5, R5), (-R5, -R5), (R5, -R5)]), 8),
        # the unit vectors of R^4: a 3-dimensional chart
        (simplex(3), 24),
        (pentagon(), 10),
        (shuffled_image(cube(), random.Random("cube")), 48),
    ],
)
def test_search_matches_brute_force(body, order):
    # the maps built from the record's integer chart against the ones
    # solved over the field, types included
    expected = brute_force_automorphisms(chart(body), chart_vertices(body))
    assert len(expected) == order
    assert triples(automorphism_group(body)) == expected
    assert repr(triples(automorphism_group(body))) == repr(expected)


def test_cube_search_solves_one_map_per_automorphism(monkeypatch):
    # the brute force solves P(8, 4) = 1,680 maps for the same 48; the
    # search inverts the homogenized basis once and solves nothing per map
    eliminations = []
    inner = automorphisms._eliminate

    def counted(matrix, *args):
        eliminations.append(len(matrix))
        return inner(matrix, *args)

    monkeypatch.setattr(automorphisms, "_eliminate", counted)
    geometry._analysis.cache_clear()
    group = automorphism_group(cube())
    assert len(group) == 48
    # the Gram invariant and the basis inverse, each one 4 x 4 system
    assert eliminations == [4, 4]


def _lift_callers(monkeypatch):
    """Each ring ``lift`` call, as its call stack: (module, function) pairs
    from the caller of lift outward, comprehension frames left out."""
    calls = []
    for ring in (exactla._Integers, exactla._QuadraticIntegers):

        def counted(values, lift=ring.lift):
            frame, stack = sys._getframe(1), []
            while frame is not None:
                if not frame.f_code.co_name.startswith("<"):
                    stack.append((frame.f_globals.get("__name__"), frame.f_code.co_name))
                frame = frame.f_back
            calls.append(stack)
            return lift(values)

        monkeypatch.setattr(ring, "lift", staticmethod(counted))
    return calls


def test_lift_runs_neither_in_the_group_search_nor_per_vertex_subset(monkeypatch):
    # the group search reads the record's integer chart, which the chart's
    # one elimination leaves; the vertex hyperplanes lift their d + 1
    # homogenized rows once each, before the subset loop
    calls = _lift_callers(monkeypatch)
    geometry._analysis.cache_clear()
    bodies = [square(), pentagon(), cube(), simplex(3)]
    for body in bodies:
        is_strongly_symmetric(body)
        is_spectral(body)
        automorphism_group(body)
    assert calls
    assert not [c for c in calls if "jordan_spectra.automorphisms" in {m for m, _ in c}]
    table = [c for c in calls if ("jordan_spectra.geometry", "_vertex_hyperplanes") in c]
    assert all(c[0] == ("jordan_spectra.geometry", "_vertex_hyperplanes") for c in table)
    assert len(table) == sum(body.dim + 1 for body in bodies) == 14


def test_the_group_search_builds_no_map(monkeypatch):
    # strong symmetry, frames and orbits read vertex permutations only; a
    # map is built only for the listed group
    def refuse(*args, **kwargs):
        raise AssertionError("the search built a PolytopeAutomorphism")

    monkeypatch.setattr(automorphisms, "PolytopeAutomorphism", refuse)
    geometry._analysis.cache_clear()
    for make in (square, pentagon, cube, lambda: simplex(3)):
        body = make()
        is_strongly_symmetric(body)
        is_spectral(body)
        assert group_generators(body).order == len(
            brute_force_automorphisms(chart(body), chart_vertices(body))
        )
    with pytest.raises(AssertionError, match="built a PolytopeAutomorphism"):
        automorphism_group(square())


@pytest.mark.parametrize("make", [cube, pentagon], ids=["cube", "pentagon"])
def test_group_maps_are_built_when_first_read(make):
    # listing the group decides vertex permutations only; a member's
    # matrix and translation are one affine map, built on the first read
    # of either, one ring quotient per entry
    geometry._analysis.cache_clear()
    body = make()
    group, quotients, stray = scalar_code_outside_quotients(lambda: automorphism_group(body))
    assert (quotients, stray) == (0, [])
    member, d = group[len(group) // 2], body.dim
    matrix, quotients, stray = scalar_code_outside_quotients(lambda: member.matrix)
    assert (quotients, stray) == (d * (d + 1), [])
    translation, quotients, stray = scalar_code_outside_quotients(lambda: member.translation)
    assert (quotients, stray) == (0, [])
    assert (member.matrix, member.translation) == member.affine_map(member.permutation)
    assert matrix is member.matrix and translation is member.translation
    assert [g for g in group if "_map" in vars(g)] == [member]


@pytest.mark.parametrize(
    "body", [square(), rectangle(), pentagon(), hexagon(), trapezoid()]
)
def test_exact_check_decides_without_gram_pruning(monkeypatch, body):
    # with one colour for every Q entry the search tries every vertex
    # permutation, and the exact vertex check alone must find the group
    pruned = triples(automorphism_group(body))
    n = len(body.vertices)
    monkeypatch.setattr(automorphisms, "_gram_colours", lambda ring, points: [[0] * n] * n)
    geometry._analysis.cache_clear()
    assert triples(automorphism_group(body)) == pruned


def test_closure_check_refuses_a_non_group(monkeypatch):
    # the listed group is the closure of the generators: it must have
    # exactly the group order's members, each one an affine map
    body = square()
    gens = group_generators(body)
    assert len(automorphism_group(body)) == gens.order == 8
    dropped = dataclasses.replace(
        gens,
        permutations=gens.permutations[:-1],
        facet_images=gens.facet_images[:-1],
    )
    # the transposition (1 2) and the square's group generate all 24
    # vertex permutations, and the vertex check refuses (1 2)
    transposition = (0, 2, 1, 3)
    forged = dataclasses.replace(
        gens, permutations=gens.permutations + (transposition,), order=24
    )
    for bad, message in ((dropped, "not the order 8"), (forged, "not an affine map")):
        monkeypatch.setattr(automorphisms, "group_generators", lambda poly: bad)
        geometry._analysis.cache_clear()
        with pytest.raises(SymmetryError, match=message):
            automorphism_group(body)


def icosahedron():
    phi = Sqrt5(F(1, 2), F(1, 2))
    points = []
    for a in (1, -1):
        for b in (phi, -phi):
            cyclic = (0, a, b)
            points += [cyclic[r:] + cyclic[:r] for r in range(3)]
    return polytope(points)


@pytest.mark.parametrize(
    "make,n,order",
    [
        (lambda: polytope(list(itertools.product((-1, 1), repeat=4))), 16, 384),
        (lambda: polytope(list(itertools.permutations((1, 2, 3, 4)))), 24, 48),
        (icosahedron, 12, 120),
    ],
    ids=["4-cube", "permutahedron4", "icosahedron"],
)
def test_group_orders_past_the_old_cap(make, n, order):
    body = make()
    assert len(body.vertices) == n
    assert len(automorphism_group(body, cap=24)) == order


def test_icosahedron_verdicts():
    # rank 2 (centrally symmetric); 2-frames are the 36 pairs at distance 2
    # or 3 on the vertex graph, ordered: 60 at distance 2, 12 antipodal
    body = icosahedron()
    report = is_strongly_symmetric(body)
    assert not report.strongly_symmetric
    assert report.group_order == 120
    assert report.orbit_sizes_by_k == ((1, (12,)), (2, (60, 12)))
    verdict = is_spectral(body)
    assert verdict.spectral is False and verdict.rank == 2
    assert verdict.frames_by_k == ((1, 12), (2, 72))
    assert recheck_counterexample(body, verdict.counterexample)


def test_off_hull_point_rejected():
    g = automorphism_group(simplex(2))[0]
    with pytest.raises(SymmetryError):
        g.apply((F(1), F(1), F(1)))


# -- strong symmetry -------------------------------------------------------------


def test_simplex_strongly_symmetric():
    for n in (1, 2, 3):
        report = is_strongly_symmetric(simplex(n))
        assert report.strongly_symmetric
        assert report.witness_pair is None
        for _, sizes in report.orbit_sizes_by_k:
            assert len(sizes) == 1


def test_square_not_strongly_symmetric():
    report = is_strongly_symmetric(square())
    assert not report.strongly_symmetric
    assert report.group_order == 8
    sizes = dict(report.orbit_sizes_by_k)
    assert sorted(sizes[2]) == [4, 8]
    k, fa, fb = report.witness_pair
    assert k == 2 and fa != fb


def test_pentagon_strongly_symmetric():
    report = is_strongly_symmetric(pentagon())
    assert report.strongly_symmetric
    sizes = dict(report.orbit_sizes_by_k)
    assert sizes[1] == (5,)
    assert sizes[2] == (10,)


def test_hexagon_orbit_split():
    report = is_strongly_symmetric(hexagon())
    assert not report.strongly_symmetric
    sizes = dict(report.orbit_sizes_by_k)
    assert sorted(sizes[2]) == [6, 12]


def test_cube_orbits_by_hamming_distance():
    report = is_strongly_symmetric(cube())
    assert not report.strongly_symmetric
    sizes = dict(report.orbit_sizes_by_k)
    assert sorted(sizes[2]) == [8, 24, 24]


def test_octahedron_orbits():
    report = is_strongly_symmetric(octahedron())
    assert not report.strongly_symmetric
    sizes = dict(report.orbit_sizes_by_k)
    assert sorted(sizes[2]) == [6, 24]


@pytest.mark.parametrize(
    "body,sizes,witness",
    [
        (square(), ((1, (4,)), (2, (8, 4))), (2, (0, 1), (0, 2))),
        (rectangle(), ((1, (4,)), (2, (8, 4))), (2, (0, 1), (0, 2))),
        (hexagon(), ((1, (6,)), (2, (12, 6))), (2, (0, 2), (0, 3))),
        (cube(), ((1, (8,)), (2, (24, 24, 8))), (2, (0, 1), (0, 3))),
        (octahedron(), ((1, (6,)), (2, (6, 24))), (2, (0, 1), (0, 2))),
        (pentagon(), ((1, (5,)), (2, (10,))), None),
    ],
)
def test_orbit_report_pinned(monkeypatch, body, sizes, witness):
    # orbits are listed by their least frame, so the order is pinned too;
    # they are walked along the generators, and the group is never listed
    monkeypatch.setattr(symmetry, "polytope_group", refuse_to_list)
    report = is_strongly_symmetric(body)
    assert report.orbit_sizes_by_k == sizes
    assert report.witness_pair == witness


def refuse_to_list(poly):
    raise AssertionError("a symmetry verdict listed the whole group")


def cross_polytope(d):
    return polytope(
        [tuple(s * int(i == j) for j in range(d)) for i in range(d) for s in (1, -1)]
    )


# -- regularity ------------------------------------------------------------------


def assert_flags_counted(body, cap):
    # the counted flags and the greedy least flag agree with the listing
    lat = exposed_faces(body, cap)
    flags = maximal_flags(body, cap)
    assert lat.flag_count == len(flags)
    assert lat.least_flag == flags[0]


@pytest.mark.parametrize(
    "body",
    # with the rest of the converse catalog after the first seven
    [simplex(2), simplex(3), square(), rectangle(), pentagon(), hexagon(), cube()]
    + [simplex(1), simplex(4), octahedron()],
)
def test_regular_bodies(body):
    assert is_regular(body)
    assert_flags_counted(body, 64)


def three_fold_hexagon():
    # a triangle cut at a quarter of each side: D3 (order 6), 12 flags
    return polytope([(1, 0), (3, 0), (3, 1), (1, 3), (0, 3), (0, 1)])


def test_four_cube_regular_at_the_callers_cap(monkeypatch):
    # the 4-cube has 384 automorphisms and as many maximal flags, the
    # 24-cell 1,152 and the 5-cross-polytope 3,840; the verdict reads the
    # order from the generators and counts the flags, so it lists neither.
    # The trapezoid and the three-fold hexagon have more flags than maps.
    bodies = [
        (four_cube(), 384, True),
        (twenty_four_cell(), 1152, True),
        (cross_polytope(5), 3840, True),
        (trapezoid(), 2, False),
        (three_fold_hexagon(), 6, False),
    ]
    with monkeypatch.context() as m:
        m.setattr(symmetry, "polytope_group", refuse_to_list)
        m.setattr(geometry, "maximal_flags", refuse_to_list)
        for body, _, regular in bodies:
            assert is_regular(body, 64) is regular
    assert len(automorphism_group(four_cube(), 64)) == 384
    for body, order, _ in bodies:
        assert group_generators(body).order == order
        assert_flags_counted(body, 64)


def test_strong_symmetry_passes_its_cap_to_the_frame_layer(monkeypatch):
    # the frame layer is stubbed: the 4-cube's frame LPs are not solved
    body = polytope(list(itertools.product((-1, 1), repeat=4)))
    caps = []

    def fake_rank(poly, cap):
        caps.append(("rank", cap))
        return 1

    def fake_frame_sets(poly, k, cap):
        caps.append(("frames", cap))
        return {(i,): None for i in range(len(poly.vertices))}

    monkeypatch.setattr(symmetry, "rank", fake_rank)
    monkeypatch.setattr(symmetry, "_frame_sets", fake_frame_sets)
    report = is_strongly_symmetric(body, 24)
    assert caps == [("rank", 24), ("frames", 24)]
    assert report.group_order == 384
    assert report.orbit_sizes_by_k == ((1, (16,)),)


def test_strong_symmetry_of_a_large_simplex_lists_no_frames(monkeypatch):
    # simplex(8): 9! automorphisms and 986,409 ordered frames, counted by
    # orbit-stabilizer from one stabilizer chain per k
    def refuse(*args, **kwargs):
        raise AssertionError("strong symmetry listed frames or the group")

    # symmetry reaches enumerate_frames only through operational
    monkeypatch.setattr(operational, "enumerate_frames", refuse)
    for module in (automorphisms, symmetry):
        monkeypatch.setattr(module, "polytope_group", refuse)
    report = is_strongly_symmetric(simplex(8))
    assert report.strongly_symmetric and report.witness_pair is None
    assert report.group_order == math.factorial(9)
    assert report.orbit_sizes_by_k == tuple((k, (math.perm(9, k),)) for k in range(1, 10))


@pytest.mark.parametrize("make", [square, hexagon, octahedron, pentagon, trapezoid])
def test_ordered_orbit_sizes_match_the_brute_force_group(make):
    body = make()
    group = [g[0] for g in brute_force_automorphisms(chart(body), chart_vertices(body))]
    frames = [f.indices for f in enumerate_frames(body, 2)]
    for frame in frames:
        size, contains = automorphisms.ordered_orbit(body, frame)
        orbit = {tuple(g[i] for i in frame) for g in group}
        assert size == len(orbit)
        assert [contains(other) for other in frames] == [other in orbit for other in frames]


def test_orbit_counts_and_the_strong_symmetry_report_are_computed_once(monkeypatch):
    # each is kept on the analysis record: asked again, directly or by a
    # simplex battery, neither is computed again, and the cap is still
    # checked
    from jordan_spectra.classification import verify_main_theorem_if_direction

    geometry._analysis.cache_clear()
    orbits, reports = [], []
    count = automorphisms.ordered_orbit
    monkeypatch.setattr(
        automorphisms, "ordered_orbit", lambda poly, f: orbits.append(f) or count(poly, f)
    )
    make = symmetry.StrongSymmetryReport
    monkeypatch.setattr(
        symmetry, "StrongSymmetryReport", lambda **kw: reports.append(kw) or make(**kw)
    )
    body = simplex(4)
    report = is_strongly_symmetric(body)
    assert is_strongly_symmetric(body) is report and len(reports) == 1
    assert len(orbits) == 5  # the least frame of each size
    assert automorphisms.orbit_size(body, (0,)) == 5 and len(orbits) == 5
    assert verify_main_theorem_if_direction(4, trials=1)["all_pass"]
    assert (len(orbits), len(reports)) == (5, 1)
    for capped in (maximal_flags, is_strongly_symmetric, is_regular, geometry.exposed_faces):
        with pytest.raises(CapExceeded):
            capped(body, 4)
    geometry._analysis.cache_clear()
    rec = geometry._analysis(body)
    assert (rec.orbit_sizes, rec.strong_symmetry) == ({}, None)
    assert is_strongly_symmetric(body) == report and len(reports) == 2 and len(orbits) == 10


def mirrored_paraboloid():
    # ten points on z = x^2 + y^2, closed under x -> -x: a group of order 2
    rng = random.Random(0)
    pts = set()
    while len(pts) < 5:
        pts.add((rng.randint(1, 9), rng.randint(-9, 9)))
    return polytope(
        [(s * x, y, x * x + y * y) for s in (1, -1) for x, y in sorted(pts)]
    )


@pytest.mark.parametrize(
    "make,counted",
    [(lambda: simplex(4), 5), (square, 1), (trapezoid, 0), (mirrored_paraboloid, 0)],
    ids=["simplex4", "square", "trapezoid", "mirrored"],
)
def test_strong_symmetry_counts_at_most_one_orbit_per_frame_size(monkeypatch, make, counted):
    # the least frame's orbit is counted once per k, and only when the
    # ordered k-frames could form one orbit; the rest are walked
    geometry._analysis.cache_clear()  # the report and the counts are kept on the record
    body = make()
    calls = []
    count = automorphisms.orbit_size
    monkeypatch.setattr(
        symmetry, "orbit_size", lambda poly, frame: calls.append(frame) or count(poly, frame)
    )
    report = is_strongly_symmetric(body)
    assert len(calls) == counted
    group = [g.permutation for g in automorphism_group(body)]
    for k, sizes in report.orbit_sizes_by_k:
        frames = sorted(f.indices for f in enumerate_frames(body, k))
        orbits, seen = [], set()
        for f in frames:
            if f not in seen:
                orbit = {tuple(g[i] for i in f) for g in group}
                seen |= orbit
                orbits.append(len(orbit))
        assert sizes == tuple(orbits)


def test_trapezoid_not_regular():
    trap = trapezoid()
    assert len(automorphism_group(trap)) == 2
    assert not is_regular(trap)


def test_three_fold_hexagon_not_regular():
    hexagon3 = three_fold_hexagon()
    assert len(automorphism_group(hexagon3)) == 6
    assert len(maximal_flags(hexagon3)) == 12
    assert not is_regular(hexagon3)


def test_regularity_refuses_a_map_that_breaks_faces(monkeypatch):
    # the transposition (1 2) sends the square's edge {0, 1} to a diagonal
    search = automorphisms._search_generators

    def forged(ring, points):
        gens, order, *maps = search(ring, points)
        bad = (0, 2, 1, 3)
        return gens + (bad,), order, *maps

    monkeypatch.setattr(automorphisms, "_search_generators", forged)
    geometry._analysis.cache_clear()
    with pytest.raises(SymmetryError, match="does not permute the facets"):
        is_regular(square())


# -- frame/flag bijection ---------------------------------------------------------


def test_frame_flag_bijection_simplices():
    for n, count in ((2, 6), (3, 24)):
        report = frame_flag_bijection(simplex(n))
        assert report.frames == count
        assert report.flags == count
        assert report.bijective


def test_frame_flag_bijection_orders_the_frame_subsets(monkeypatch):
    # the ordered r-frames are the orderings of the r-frame subsets: no
    # certificate is built for them
    def refuse(*args, **kwargs):
        raise AssertionError("frame certificates were built")

    monkeypatch.setattr(operational, "enumerate_frames", refuse)
    monkeypatch.setattr(operational, "_effect", refuse)
    for n in range(1, 7):
        count = math.factorial(n + 1)
        assert frame_flag_bijection(simplex(n)) == FrameFlagReport(count, count, True)


def test_frame_flag_bijection_rejects_non_simplex():
    with pytest.raises(SymmetryError):
        frame_flag_bijection(square())


def test_frame_flag_bijection_eja():
    alg = AlgebraDescriptor("sym_r", 3)
    report = frame_flag_bijection(standard_frame(alg))
    assert report.frames == 6 and report.flags == 6 and report.bijective
    with pytest.raises(SymmetryError):
        frame_flag_bijection((unit(alg),))


# -- transporters ----------------------------------------------------------------


def test_transporter_swaps_diagonal_frame():
    alg = AlgebraDescriptor("herm_c", 2)
    c1, c2 = standard_frame(alg)
    auto = jordan_frame_transporter(alg, (c1, c2), (c2, c1))
    assert norm(auto.apply(c1) - c2) <= 1e-12
    assert norm(auto.apply(c2) - c1) <= 1e-12


@pytest.mark.parametrize("family,param", [("sym_r", 3), ("herm_c", 3), ("herm_h", 3)])
def test_transporter_random_frames(family, param):
    alg = AlgebraDescriptor(family, param)
    fa = tuple(random_jordan_frame(alg, 11))
    fb = tuple(random_jordan_frame(alg, 22))
    auto = jordan_frame_transporter(alg, fa, fb)
    worst = max(norm(auto.apply(a) - b) for a, b in zip(fa, fb))
    assert worst <= 1e-8
    # the map keeps the residual its verification measured
    assert abs(auto.residual - worst) <= 1e-15
    assert norm(auto.apply(unit(alg)) - unit(alg)) <= 1e-9


@pytest.mark.parametrize("family,param", [("sym_r", 3), ("herm_c", 3), ("herm_h", 3)])
def test_transporter_is_a_function_of_the_frames(family, param):
    # a herm_h idempotent's range is a 2-dimensional eigenspace, so the
    # transporter must not follow LAPACK's rounding-dependent basis of it
    alg = AlgebraDescriptor(family, param)
    fa = tuple(random_jordan_frame(alg, 11))
    fb = tuple(random_jordan_frame(alg, 22))
    rng = np.random.default_rng(33)
    nudged = tuple(
        EjaElement(alg, c.coeffs * (1.0 + 1e-15 * rng.standard_normal(alg.dim)))
        for c in fa
    )
    auto = jordan_frame_transporter(alg, fa, fb)
    again = jordan_frame_transporter(alg, nudged, fb)
    for _ in range(4):
        x = random_element(alg, rng)
        assert norm(auto.apply(x) - again.apply(x)) <= 1e-12 * (1.0 + norm(x))


def test_spin_transporter_fixes_unit_exactly():
    alg = AlgebraDescriptor("spin", 5)
    fa = tuple(random_jordan_frame(alg, 5))
    fb = tuple(random_jordan_frame(alg, 6))
    auto = jordan_frame_transporter(alg, fa, fb)
    assert norm(auto.apply(unit(alg)) - unit(alg)) == 0.0
    assert max(norm(auto.apply(a) - b) for a, b in zip(fa, fb)) <= 1e-9


@pytest.mark.parametrize(
    "family,param", [("sym_r", 3), ("herm_c", 3), ("herm_h", 3), ("spin", 5)]
)
def test_transporter_map_is_orthogonal_for_the_trace_form(family, param):
    alg = AlgebraDescriptor(family, param)
    auto = jordan_frame_transporter(
        alg, tuple(random_jordan_frame(alg, 11)), tuple(random_jordan_frame(alg, 22))
    )
    eye = np.eye(alg.dim)
    gram = np.array(
        [[inner(EjaElement(alg, a), EjaElement(alg, b)) for b in eye] for a in eye]
    )
    assert auto.M.shape == (alg.dim, alg.dim) and auto.M.dtype == np.float64
    assert np.max(np.abs(auto.M.T @ gram @ auto.M - gram)) <= 1e-12


def test_transporter_preserves_spectra():
    alg = AlgebraDescriptor("sym_r", 3)
    auto = jordan_frame_transporter(
        alg, tuple(random_jordan_frame(alg, 1)), tuple(random_jordan_frame(alg, 2))
    )
    x = random_element(alg, 77)
    before = spectral_decompose(x).eigenvalues
    after = spectral_decompose(auto.apply(x)).eigenvalues
    assert np.max(np.abs(before - after)) <= 1e-8


def test_transporter_rejects_octonions_and_non_frames():
    with pytest.raises(UnsupportedFamily):
        alg = AlgebraDescriptor("herm_o", 3)
        jordan_frame_transporter(alg, standard_frame(alg), standard_frame(alg))
    alg = AlgebraDescriptor("sym_r", 2)
    c1, _ = standard_frame(alg)
    with pytest.raises(SymmetryError):
        jordan_frame_transporter(alg, (c1, c1), (c1, c1))


TRANSPORTED = [("sym_r", 5), ("herm_c", 4), ("herm_h", 3), ("spin", 10)]


@pytest.mark.parametrize("family,param", TRANSPORTED)
def test_transporters_and_extensions_call_no_eigensolver(monkeypatch, family, param):
    # the ranges are read off the idempotents and a remainder is split by
    # compressions: neither decomposes an element (the cone check of the
    # verification keeps its eigenvalue call)
    alg = AlgebraDescriptor(family, param)
    fa = tuple(random_jordan_frame(alg, 11))
    fb = tuple(random_jordan_frame(alg, 22))

    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called")

    monkeypatch.setattr(spectral.np.linalg, "eigh", refuse)
    monkeypatch.setattr(spectral, "spectral_decompose_rows", refuse)
    assert jordan_frame_transporter(alg, fa, fb).residual <= 1e-8
    for k in (0, 1):
        assert len(extend_to_maximal_frame(alg, fa[:k])) == alg.rank


@pytest.mark.parametrize("family,param", TRANSPORTED)
def test_transporter_verification_makes_one_eigenvalue_call(monkeypatch, family, param):
    alg = AlgebraDescriptor(family, param)
    fa = tuple(random_jordan_frame(alg, 11))
    fb = tuple(random_jordan_frame(alg, 22))
    auto = jordan_frame_transporter(alg, fa, fb)
    calls = []
    rows = spectral.eigenvalue_rows

    def counted(alg, x):
        calls.append(len(x))
        return rows(alg, x)

    monkeypatch.setattr(spectral, "eigenvalue_rows", counted)
    spectral._verify_transporter(
        alg, auto.M[None], np.array([c.coeffs for c in fa])[None], np.array([c.coeffs for c in fb])[None]
    )
    assert calls == [3]


@pytest.mark.parametrize("family,param", TRANSPORTED)
def test_battery_transports_the_frames_of_the_reference_loop(monkeypatch, family, param):
    # the rng stream of verify_strong_symmetry_eja: two random frames a
    # trial, and every third trial one draw for the sub-frame size
    alg = AlgebraDescriptor(family, param)
    trials, r = 6, alg.rank
    transported = []
    transporters = spectral._transporter_rows

    def recorded(alg, rows_a, rows_b):
        frames = [[tuple(EjaElement(alg, row) for row in rows) for rows in side] for side in (rows_a, rows_b)]
        transported.extend(zip(*frames))
        return transporters(alg, rows_a, rows_b)

    monkeypatch.setattr(spectral, "_transporter_rows", recorded)
    for seed in range(5):
        transported.clear()
        report = verify_strong_symmetry_eja(alg, trials=trials, seed=seed)
        assert report["failures"] == []
        rng = np.random.default_rng(seed)
        want = []
        for t in range(trials):
            fa = tuple(random_jordan_frame(alg, rng))
            fb = tuple(random_jordan_frame(alg, rng))
            if t % 3 == 2 and r >= 2:
                k = 1 + int(rng.integers(r - 1))
                fa = extend_to_maximal_frame(alg, fa[:k])
                fb = extend_to_maximal_frame(alg, fb[:k])
            want.append((fa, fb))
        assert len(transported) == trials
        for got, ref in zip(transported, want):
            for frame, ref_frame in zip(got, ref):
                assert len(frame) == len(ref_frame) == r
                for c, d in zip(frame, ref_frame):
                    assert np.max(np.abs(c.coeffs - d.coeffs)) <= 1e-12


def _forged(alg, coeffs):
    return EjaElement(alg, np.asarray(coeffs, dtype=float))


def test_frame_check_refusals_keep_their_messages():
    alg = AlgebraDescriptor("sym_r", 2)
    c1, c2 = standard_frame(alg)
    off = 1e-5 * np.eye(3)[2]  # the off-diagonal basis member
    rotated = 0.5 * np.array([1.0, 1.0, np.sqrt(2.0)])  # projector onto (1, 1)/sqrt 2
    stranger = random_element(AlgebraDescriptor("sym_r", 3), 1)
    cases = [
        ((c1,), "frame length differs from the rank"),
        ((c1, stranger), "frame element from a different algebra"),
        ((c1, 0.5 * (c1 + c2)), "not a primitive idempotent"),
        ((c1, _forged(alg, rotated)), "frame elements are not orthogonal"),
        # each off by O(1e-10) from idempotent and orthogonal, their sum by 2e-5
        ((_forged(alg, c1.coeffs + off), _forged(alg, c2.coeffs + off)),
         "frame does not sum to the unit"),
    ]
    for frame, message in cases:
        with pytest.raises(SymmetryError, match=message):
            jordan_frame_transporter(alg, frame, (c1, c2))
        with pytest.raises(SymmetryError, match=message):
            jordan_frame_transporter(alg, (c1, c2), frame)


def _patched_transporter(monkeypatch, forge):
    real = spectral.EjaAutomorphism
    monkeypatch.setattr(
        spectral, "EjaAutomorphism", lambda alg, m: real(alg, forge(alg, m))
    )


def _scaled_off_diagonal(alg, m):
    # fixes the diagonal frame and the unit, stretches the rest
    out = m.copy()
    out[alg.rank :] *= 2.0
    return out


def _one_sign_flipped(alg, m):
    # orthogonal and fixing the diagonal frame, but not an automorphism:
    # conjugation by a diagonal sign matrix flips pairs of off-diagonal
    # entries, never the (0, 1) entry alone
    out = m.copy()
    out[alg.rank] *= -1.0
    return out


def _unit_nudged(alg, m):
    # every frame element moves by 8e-10 (within 1e-8), the unit by 2.4e-9
    out = m.copy()
    g = np.zeros(alg.dim)
    g[-1] = 8e-10
    out += np.outer(g, unit(alg).coeffs)
    return out


@pytest.mark.parametrize(
    "forge,message",
    [
        (lambda alg, m: m[::-1].copy(), "transporter misses a frame element"),
        (_unit_nudged, "transporter moves the unit"),
        (_scaled_off_diagonal, "transporter is not orthogonal for the trace form"),
        (_one_sign_flipped, "transporter leaves the cone"),
    ],
    ids=["misses", "unit", "orthogonality", "cone"],
)
def test_transporter_refusals_keep_their_messages(monkeypatch, forge, message):
    alg = AlgebraDescriptor("sym_r", 3)
    frame = standard_frame(alg)
    # the identity transports the frame onto itself; each forged map keeps
    # every earlier check passing
    assert np.allclose(jordan_frame_transporter(alg, frame, frame).M, np.eye(alg.dim))
    _patched_transporter(monkeypatch, forge)
    with pytest.raises(SymmetryError, match=message):
        jordan_frame_transporter(alg, frame, frame)


def test_extend_to_maximal_frame():
    alg = AlgebraDescriptor("sym_r", 4)
    partial = standard_frame(alg)[:2]
    frame = extend_to_maximal_frame(alg, partial)
    assert frame[:2] == partial  # untouched, not recomputed
    assert len(frame) == 4
    total = frame[0]
    for c in frame[1:]:
        total = total + c
    assert norm(total - unit(alg)) <= 1e-9


@pytest.mark.parametrize("family,param", [("sym_r", 3), ("herm_c", 3), ("herm_h", 3)])
def test_extension_is_a_function_of_the_partial_frame(family, param):
    # the remainder e - c_1 has the repeated eigenvalue 1, so its split
    # must not follow an eigensolver's rounding-dependent basis of it
    alg = AlgebraDescriptor(family, param)
    fa = tuple(random_jordan_frame(alg, 11))
    frame = extend_to_maximal_frame(alg, fa[:1])
    rng = np.random.default_rng(33)
    for _ in range(4):
        nudged = EjaElement(alg, fa[0].coeffs * (1.0 + 1e-15 * rng.standard_normal(alg.dim)))
        again = extend_to_maximal_frame(alg, (nudged,))
        for c, d in zip(frame[1:], again[1:]):
            assert np.max(np.abs(c.coeffs - d.coeffs)) <= 1e-12


@pytest.mark.parametrize("family,param", TRANSPORTED)
def test_extension_of_an_empty_or_a_full_frame(family, param):
    alg = AlgebraDescriptor(family, param)
    frame = tuple(random_jordan_frame(alg, 11))
    assert extend_to_maximal_frame(alg, frame) == frame
    # the unit splits into the diagonal frame (for spin, along the first axis)
    split = extend_to_maximal_frame(alg, ())
    assert len(split) == alg.rank
    for c, d in zip(split, standard_frame(alg)):
        assert np.max(np.abs(c.coeffs - d.coeffs)) <= 1e-12


@pytest.mark.parametrize("family,param", TRANSPORTED[:3])
def test_transporters_take_frames_noisy_within_the_tolerance(family, param):
    # frame a idempotent and orthogonal only to about 1e-10, well inside
    # FRAME_TOL: the transporter must still fix the unit to 1e-9
    alg = AlgebraDescriptor(family, param)
    for seed in range(40):
        rng = np.random.default_rng(seed)
        fa = random_jordan_frame(alg, rng)
        fb = random_jordan_frame(alg, rng)
        noisy = [EjaElement(alg, c.coeffs + 1e-10 * rng.standard_normal(alg.dim)) for c in fa]
        assert jordan_frame_transporter(alg, noisy, fb).residual <= 1e-8


@pytest.mark.parametrize(
    "family,param,trials",
    [("sym_r", 4, 12), ("herm_c", 3, 12), ("herm_h", 3, 9), ("spin", 10, 12), ("herm_h", 2, 1)],
)
def test_verify_strong_symmetry_eja(family, param, trials):
    report = verify_strong_symmetry_eja(
        AlgebraDescriptor(family, param), trials=trials, seed=3
    )
    assert report["failures"] == []
    assert report["max_residual"] <= 1e-8
    assert "sampled" in report["method"]


@pytest.mark.parametrize("trials", [0, -1])
def test_verify_strong_symmetry_eja_refuses_fewer_than_one_trial(trials):
    # no trial would leave a verdict on no sample
    with pytest.raises(SymmetryError, match="trials must be >= 1"):
        verify_strong_symmetry_eja(AlgebraDescriptor("herm_h", 2), trials=trials)


def test_verify_strong_symmetry_eja_rejects_octonions():
    with pytest.raises(UnsupportedFamily):
        verify_strong_symmetry_eja(AlgebraDescriptor("herm_o", 3), trials=1)


def test_spin_two_frames_antipodal():
    alg = AlgebraDescriptor("spin", 6)
    for seed in range(5):
        c1, c2 = random_jordan_frame(alg, seed)
        assert np.linalg.norm(c1.coeffs[:-1] + c2.coeffs[:-1]) <= 1e-9
        assert abs(c1.coeffs[-1] - 0.5) <= 1e-9
        assert abs(inner(c1, c2)) <= 1e-9
