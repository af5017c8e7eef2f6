"""Effects, distinguishability, frames, rank, spectrality, faces.

Expected frame catalogs are derived by hand before touching the
implementation:

* Centrally symmetric polytopes have rank 2: every vertex v comes with
  -v, so any effect has e(0) = (e(v) + e(-v))/2 >= e(v)/2; for a triple,
  each e_i(v_i) = 1 forces e_i(0) >= 1/2 and the sum exceeds 1 at the
  barycenter.  This kills all 3-frames of the square, hexagon, cube and
  octahedron.
* Any two vertices of a coordinate box differ in some coordinate j, and
  the pair ((1 + x_j)/2, (1 - x_j)/2) distinguishes them, so all vertex
  pairs of the square and the cube are 2-frames; likewise +-x_j/2 + 1/2
  handles the octahedron's antipodal pairs and (1 + x_i - x_j)/2 style
  functionals its skew pairs.
* Pentagon, c = (sqrt5 - 1)/2: an effect pair for the non-adjacent pair
  (v0, v2) has values (1, c(1-t), 0, t, c+t) and (0, c(1-s), 1, c+s, s)
  with t = e0(v3), s = e2(v4); the sum bound at v1 forces t + s >= c^2
  and at v3, v4 forces t + s <= 1 - c = c^2, so solutions exist exactly
  on the line t + s = c^2 and the completed measurement sums to 1
  identically.  t = 0 recovers the golden effect (1, c, 0, 0, c).  For
  the adjacent pair (v0, v1), e0(v3) = 1 + phi*r <= 1 forces
  r = e0(v2) = 0, and then e0(v4) = 1 + c > 1: not distinguishable.
* Hexagon: for adjacent (v0, v1) the delta conditions force
  e0(v2) = c - 1 < 0 with c = e0 at the origin, so adjacent pairs fail;
  the nine non-adjacent pairs are distinguished by (1 +- x)/2 style
  functionals.
* Simplex frames are exactly the ordered subsets of vertices: the
  barycentric coordinate functionals restrict to every subset.
"""

import dataclasses
import hashlib
import itertools
import json
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from jordan_spectra.algebra import (
    algebra,
    from_matrix,
    inner,
    jordan_product,
    norm,
    quadratic_rep,
    trace,
    unit,
)
from jordan_spectra import automorphisms, exactlp, geometry, operational
from jordan_spectra.automorphisms import SymmetryError, group_generators
from jordan_spectra.classification import default_converse_catalog
from jordan_spectra.cli import main
from jordan_spectra.exactla import solve_any
from jordan_spectra.exactlp import Feasible, linear_program, lp_feasible
from jordan_spectra.geometry import (
    ball,
    chart,
    chart_vertices,
    cube,
    eja_state_space,
    exposed_faces,
    hexagon,
    membership,
    octahedron,
    pentagon,
    polytope,
    rectangle,
    simplex,
    square,
)
from jordan_spectra.operational import (
    AffineEffect,
    EjaFace,
    FrameData,
    Measurement,
    NotDistinguishable,
    OperationalError,
    complement_face,
    distinguishing_measurement,
    enumerate_frames,
    face_of_frame,
    is_effect,
    is_measurement,
    is_spectral,
    rank,
    recheck_counterexample,
    unit_effect,
)
from jordan_spectra.scalars import PHI, Sqrt5, exact, format_scalar
from jordan_spectra.symmetry import is_strongly_symmetric
from jordan_spectra.spectral import (
    is_primitive_idempotent,
    random_jordan_frame,
    random_state,
    spectral_decompose,
)
from test_exactlp import free_program
from test_symmetry import brute_force_automorphisms, icosahedron

F = Fraction
C = Sqrt5(F(-1, 2), F(1, 2))  # (sqrt5 - 1) / 2


def frame_sets(poly, k):
    return sorted({tuple(sorted(f.indices)) for f in enumerate_frames(poly, k)})


# ---------------------------------------------------------------------------
# effects


def test_unit_effect_is_effect():
    for body in (square(), pentagon(), ball(3), eja_state_space("sym_r", 3)):
        assert is_effect(body, unit_effect(body))


def test_polytope_effect_range():
    half_x = AffineEffect(coeffs=(F(1, 2), F(0)), offset=F(1, 2))
    assert is_effect(square(), half_x)
    assert not is_effect(square(), AffineEffect((F(1), F(0)), F(1)))  # hits 2
    assert not is_effect(square(), AffineEffect((F(1), F(0)), F(0)))  # hits -1


def test_pentagon_golden_effect():
    # values (1, c, 0, 0, c) on v0..v4, all in [0, 1]
    vs = pentagon().vertices
    zero = Sqrt5(0)
    coeffs, offset = _affine_through(vs[0], Sqrt5(1), vs[2], zero, vs[3], zero)
    eff = AffineEffect(coeffs=coeffs, offset=offset)
    values = [eff(v) for v in vs]
    assert values == [Sqrt5(1), PHI - 1, Sqrt5(0), Sqrt5(0), PHI - 1]
    assert is_effect(pentagon(), eff)


def _affine_through(p1, y1, p2, y2, p3, y3):
    # solve a 3x3 system for an affine functional on the plane
    from jordan_spectra.exactla import solve_any

    rows = [list(p1) + [1], list(p2) + [1], list(p3) + [1]]
    a, b, c = solve_any(rows, [y1, y2, y3])
    return (a, b), c


def test_ball_effect_range_exact():
    # range of coeffs.x + offset over the ball is offset +- |coeffs|
    assert is_effect(ball(2), AffineEffect((F(3, 10), F(4, 10)), F(1, 2)))
    assert not is_effect(ball(2), AffineEffect((F(3, 5), F(4, 5)), F(1, 2)))
    assert not is_effect(ball(2), AffineEffect((F(0), F(0)), F(2)))


def test_eja_effect_by_eigenvalues():
    alg = algebra("sym_r", 3)
    u = unit(alg)
    assert is_effect(eja_state_space("sym_r", 3), u)
    assert is_effect(eja_state_space("sym_r", 3), u * 0.5)
    e11 = from_matrix(alg, np.diag([1.0, 0.0, 0.0]))
    assert is_effect(eja_state_space("sym_r", 3), e11)
    assert not is_effect(eja_state_space("sym_r", 3), e11 * 1.5)
    assert not is_effect(eja_state_space("sym_r", 3), u * -0.1)


# ---------------------------------------------------------------------------
# distinguishing measurements


def test_square_pair_measurement():
    sq = square()
    v = sq.vertices
    res = distinguishing_measurement(sq, (v[0], v[2]))
    assert isinstance(res, Measurement)
    assert len(res.effects) == 2
    for i, e in enumerate(res.effects):
        for j, s in enumerate((v[0], v[2])):
            assert e(s) == int(i == j)
    # completion folds the remainder into the first effect: total is u
    assert is_measurement(sq, res.effects)


def test_square_triple_not_distinguishable():
    sq = square()
    v = sq.vertices
    res = distinguishing_measurement(sq, (v[0], v[1], v[2]))
    assert isinstance(res, NotDistinguishable)


def test_measurement_requires_member_states():
    with pytest.raises(OperationalError):
        distinguishing_measurement(square(), ((F(3), F(0)),))


def test_pentagon_pair_certificate_is_tight():
    # any valid submeasurement for a non-adjacent pair sums to 1 at every
    # vertex (the t + s = c^2 degeneracy), so the completed measurement
    # equals the submeasurement
    pent = pentagon()
    v = pent.vertices
    res = distinguishing_measurement(pent, (v[0], v[2]))
    assert isinstance(res, Measurement)
    e0, e2 = res.effects
    assert e0(v[0]) == Sqrt5(1) and e0(v[2]) == Sqrt5(0)
    assert e2(v[0]) == Sqrt5(0) and e2(v[2]) == Sqrt5(1)
    t = e0(v[3])
    s = e2(v[4])
    c2 = C * C
    assert t + s == c2
    assert [e0(p) for p in v] == [Sqrt5(1), C * (Sqrt5(1) - t), Sqrt5(0), t, C + t]
    for p in v:
        assert e0(p) + e2(p) == Sqrt5(1)


def test_pentagon_adjacent_not_distinguishable():
    pent = pentagon()
    v = pent.vertices
    assert isinstance(
        distinguishing_measurement(pent, (v[0], v[1])), NotDistinguishable
    )


def test_ball_antipodal_measurement():
    b = ball(2)
    x = (F(3, 5), F(4, 5))
    res = distinguishing_measurement(b, (x, (-x[0], -x[1])))
    assert isinstance(res, Measurement)
    e1, e2 = res.effects
    assert e1(x) == 1 and e1((-x[0], -x[1])) == 0
    assert e2(x) == 0 and e2((-x[0], -x[1])) == 1
    assert isinstance(
        distinguishing_measurement(b, (x, (F(0), F(1)))), NotDistinguishable
    )
    assert isinstance(
        distinguishing_measurement(b, ((F(1), F(0)), (F(0), F(1)), (F(0), F(-1)))),
        NotDistinguishable,
    )
    with pytest.raises(OperationalError):
        distinguishing_measurement(b, ((F(1, 2), F(0)),))


def test_eja_orthogonal_idempotents_distinguishable():
    alg = algebra("sym_r", 3)
    frame = random_jordan_frame(alg, seed=7)
    res = distinguishing_measurement(eja_state_space("sym_r", 3), frame[:2])
    assert isinstance(res, Measurement)
    # sub-frame: remainder u - c1 - c2 is the third effect
    assert len(res.effects) == 3
    total = res.effects[0]
    for e in res.effects[1:]:
        total = total + e
    assert norm(total - unit(alg)) <= 1e-9
    # a maximal frame needs no remainder
    full = distinguishing_measurement(eja_state_space("sym_r", 3), frame)
    assert len(full.effects) == 3


def test_eja_nonorthogonal_states_rejected():
    alg = algebra("sym_r", 3)
    f1 = random_jordan_frame(alg, seed=1)
    f2 = random_jordan_frame(alg, seed=2)
    assert abs(inner(f1[0], f2[0])) > 1e-6
    res = distinguishing_measurement(eja_state_space("sym_r", 3), (f1[0], f2[0]))
    assert isinstance(res, NotDistinguishable)
    with pytest.raises(OperationalError):
        distinguishing_measurement(eja_state_space("sym_r", 3), (unit(alg),))
    with pytest.raises(OperationalError):
        distinguishing_measurement(
            eja_state_space("sym_r", 3), (random_jordan_frame(algebra("sym_r", 2), 0)[0],)
        )


def test_is_measurement_rejects_bad_sums():
    sq = square()
    u = unit_effect(sq)
    assert is_measurement(sq, (u,))
    half = AffineEffect((F(0), F(0)), F(1, 2))
    assert not is_measurement(sq, (half,))
    assert is_measurement(sq, (half, half))


# ---------------------------------------------------------------------------
# frame catalogs (hand-derived, see module docstring)


def test_simplex_frames_are_ordered_subsets():
    tri = simplex(2)
    for k in (1, 2, 3):
        got = [f.indices for f in enumerate_frames(tri, k)]
        assert got == sorted(itertools.permutations(range(3), k))
    assert rank(tri) == 3


def test_square_frame_catalog():
    sq = square()
    assert frame_sets(sq, 1) == [(0,), (1,), (2,), (3,)]
    assert frame_sets(sq, 2) == sorted(itertools.combinations(range(4), 2))
    assert len(enumerate_frames(sq, 2)) == 12
    assert enumerate_frames(sq, 3) == ()
    assert rank(sq) == 2


def test_pentagon_frame_catalog():
    pent = pentagon()
    non_adjacent = [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]
    assert frame_sets(pent, 2) == non_adjacent
    assert len(enumerate_frames(pent, 2)) == 10
    assert rank(pent) == 2


def test_hexagon_frame_catalog():
    hexa = hexagon()
    adjacent = {tuple(sorted((i, (i + 1) % 6))) for i in range(6)}
    expected = sorted(
        s for s in itertools.combinations(range(6), 2) if s not in adjacent
    )
    assert frame_sets(hexa, 2) == expected
    assert len(enumerate_frames(hexa, 2)) == 18
    assert rank(hexa) == 2


def test_cube_frame_catalog():
    cb = cube()
    assert frame_sets(cb, 2) == sorted(itertools.combinations(range(8), 2))
    assert len(enumerate_frames(cb, 2)) == 56
    assert rank(cb) == 2


def test_octahedron_frame_catalog():
    octa = octahedron()
    assert frame_sets(octa, 2) == sorted(itertools.combinations(range(6), 2))
    assert len(enumerate_frames(octa, 2)) == 30
    assert rank(octa) == 2


def oracle_frame_sets(poly, k):
    """The k-subsets that are frames, one LP per subset in the ambient
    affine coefficients of all k effects: k(m + 1) free variables, each
    split into two non-negative columns (``free_program``);
    e_i(v_j) = delta_ij on the subset, e_i >= 0 and sum_i e_i <= 1 at
    every vertex."""
    m = poly.ambient_dim
    width = k * (m + 1)

    def block(i, point):
        row = [0] * width
        row[i * (m + 1) : (i + 1) * (m + 1)] = list(point) + [1]
        return row

    out = []
    for subset in itertools.combinations(range(len(poly.vertices)), k):
        rows = []
        for i in range(k):
            for j, s in enumerate(subset):
                rows.append((block(i, poly.vertices[s]), "=", int(i == j)))
            rows += [(block(i, v), ">=", 0) for v in poly.vertices]
        for v in poly.vertices:
            rows.append(([sum(c) for c in zip(*(block(i, v) for i in range(k)))], "<=", 1))
        if isinstance(lp_feasible(free_program(rows, n_vars=width)), Feasible):
            out.append(subset)
    return out


def signed_shuffled_image(body, rng):
    """The body under a signed coordinate permutation, vertices shuffled."""
    d = len(body.vertices[0])
    axes = rng.sample(range(d), d)
    signs = [rng.choice((1, -1)) for _ in range(d)]
    moved = [tuple(s * v[a] for s, a in zip(signs, axes)) for v in body.vertices]
    rng.shuffle(moved)
    return polytope(moved)


def assert_submeasurements(poly, frames):
    for f in frames:
        for i, e in enumerate(f.certificate):
            assert [e(s) for s in f.states] == [int(i == j) for j in range(len(f.states))]
            assert all(e(p) >= 0 for p in poly.vertices)
        assert all(sum(e(p) for e in f.certificate) <= 1 for p in poly.vertices)


@pytest.mark.parametrize(
    "name,body", [pytest.param(*entry, id=entry[0]) for entry in default_converse_catalog()]
)
def test_frames_match_the_lp_oracle_on_catalog_images(name, body):
    rng = random.Random(name)
    for image in [body] + [signed_shuffled_image(body, rng) for _ in range(2)]:
        for k in range(1, image.dim + 2):
            frames = enumerate_frames(image, k)
            assert frame_sets(image, k) == oracle_frame_sets(image, k), (name, k)
            assert_submeasurements(image, frames)


def hexagonal_prism():
    """Its two hexagons labelled in different orders: the first vertex
    triples of the hexagons span triangles of different areas, and so do
    the raw facet functionals, which are scaled by those areas."""
    hexv = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
    return polytope(
        [hexv[i] + (1,) for i in range(6)] + [hexv[i] + (-1,) for i in (0, 2, 4, 1, 3, 5)]
    )


@pytest.mark.parametrize("make", [hexagonal_prism, pentagon])
def test_the_group_carries_facet_effects_onto_each_other(make):
    # f_F o g^-1 = f_gF, which moving a certificate along g relies on
    body = make()
    effects = operational._facet_effects(body)
    facets = list(geometry._analysis(body).facets)
    index = {on: f for f, on in enumerate(facets)}
    n = len(body.vertices)
    for p in group_generators(body).permutations:
        for f, on in enumerate(facets):
            image = effects[index[frozenset(p[i] for i in on)]]
            assert [image(body.vertices[p[j]]) for j in range(n)] == [
                effects[f](v) for v in body.vertices
            ]


def _count_lps(monkeypatch):
    calls = []

    def counted(lp):
        calls.append(lp)
        return lp_feasible(lp)

    monkeypatch.setattr(operational, "lp_feasible", counted)
    return calls


@pytest.mark.parametrize("make", [square, pentagon, hexagon, cube, octahedron, lambda: simplex(3)])
def test_one_lp_per_orbit_representative_that_passes_the_facet_test(monkeypatch, make):
    geometry._analysis.cache_clear()
    body = make()
    n = len(body.vertices)
    effects = operational._facet_effects(body)
    values = [[e(v) for e in effects] for v in body.vertices]
    # orbits from the brute-force group, independent of the generators
    # that the frame layer walks
    group = [g[0] for g in brute_force_automorphisms(chart(body), chart_vertices(body))]
    lps = _count_lps(monkeypatch)
    for k in range(1, body.dim + 2):
        reps, seen = [], set()
        for subset in itertools.combinations(range(n), k):
            if subset not in seen:
                reps.append(subset)
                seen |= {tuple(sorted(g[i] for i in subset)) for g in group}
        passing = [
            r for r in reps if k > 1 and operational._supports([values[i] for i in r]) is not None
        ]
        before = len(lps)
        enumerate_frames(body, k)
        assert len(lps) - before == len(passing), k


def _count_exact_checks(monkeypatch):
    calls = []
    check = operational._check_submeasurement

    def counted(poly, states, multipliers):
        calls.append(tuple(states))
        return check(poly, states, multipliers)

    monkeypatch.setattr(operational, "_check_submeasurement", counted)
    return calls


def test_one_exact_check_per_frame_orbit_representative(monkeypatch):
    # simplex(6): one orbit of k-subsets for each k = 2..7, each one a
    # frame; the 2^7 - 8 moved subsets take no check of their own
    geometry._analysis.cache_clear()
    checks = _count_exact_checks(monkeypatch)
    body = simplex(6)
    assert rank(body) == 7
    assert len(checks) == 6
    assert [len(states) for states in checks] == [2, 3, 4, 5, 6, 7]


@pytest.mark.parametrize("make", [square, hexagon, octahedron, pentagon])
def test_exact_checks_match_the_frame_orbits_of_the_brute_force_group(monkeypatch, make):
    geometry._analysis.cache_clear()
    body = make()
    group = [g[0] for g in brute_force_automorphisms(chart(body), chart_vertices(body))]
    checks = _count_exact_checks(monkeypatch)
    sets = frame_sets(body, 2)
    orbits = {frozenset(tuple(sorted(g[i] for i in s)) for g in group) for s in sets}
    assert len(checks) == len(orbits)


@pytest.mark.parametrize(
    "make,k",
    [(lambda: simplex(5), 3), (hexagonal_prism, 2), (cube, 2)],
    ids=["simplex5", "prism", "cube"],
)
def test_moved_certificates_pass_the_exact_check(make, k):
    # only orbit representatives are checked when frames are found; every
    # moved certificate must still pass the ring check, and every
    # certificate handed out the ambient Fraction evaluation
    body = make()
    sets = operational._frame_sets(body, k, geometry.VERTEX_CAP)
    assert sets
    for subset, multipliers in sets.items():
        operational._check_submeasurement(body, subset, lp_multipliers(body, multipliers))
    assert_submeasurements(body, enumerate_frames(body, k))


def test_distinguishing_measurement_reads_the_facets_from_the_record(monkeypatch):
    body = pentagon()
    states = (body.vertices[0], body.vertices[2])
    first = distinguishing_measurement(body, states)
    rec = geometry._analysis(body)
    effects = rec.facet_effects
    assert effects is not None

    def refuse(*args):
        raise AssertionError("the facet effects were rebuilt")

    monkeypatch.setattr(operational, "_eliminate", refuse)
    assert distinguishing_measurement(body, states) == first
    assert rec.facet_effects is effects


def cross_polytope(d):
    return polytope(
        [tuple(s * int(i == j) for j in range(d)) for i in range(d) for s in (1, -1)]
    )


# ---------------------------------------------------------------------------
# the ring-integer certificate check against an ambient Fraction oracle


def oracle_facet_effects(poly):
    """Each facet's effect from its vertex set alone, in Fraction (or Sqrt5)
    arithmetic: an ambient affine function zero on the facet and 1 at its
    least vertex off it (unique on the affine hull), over its vertex sum."""
    n = len(poly.vertices)
    out = []
    for on in geometry._analysis(poly).facets:
        off = min(set(range(n)) - on)
        rows = [list(poly.vertices[i]) + [1] for i in sorted(on) + [off]]
        sol = solve_any(rows, [0] * len(on) + [1])
        raw = AffineEffect(tuple(sol[:-1]), sol[-1])
        total = sum(raw(v) for v in poly.vertices)
        out.append(AffineEffect(tuple(c / total for c in raw.coeffs), raw.offset / total))
    return out


def oracle_verdict(poly, effects, states, multipliers):
    points = [poly.vertices[s] for s in states]

    def e(i, x):
        return sum(lam * effects[f](x) for f, lam in multipliers[i].items())

    k = len(points)
    return (
        all(e(i, x) == int(i == j) for i in range(k) for j, x in enumerate(points))
        and all(e(i, v) >= 0 for i in range(k) for v in poly.vertices)
        and all(sum(e(i, v) for i in range(k)) <= 1 for v in poly.vertices)
    )


def lp_multipliers(poly, multipliers):
    """Facet multipliers lam as the ring check takes them: the LP's
    multipliers of the ``vertex_values`` columns, lam_F / totals[F]."""
    totals = operational._lp_table(geometry._analysis(poly))[1]
    return [{f: exact(lam) / totals[f] for f, lam in m.items()} for m in multipliers]


def ring_verdict(check, poly, states, multipliers):
    try:
        check(poly, states, lp_multipliers(poly, multipliers))
    except OperationalError:
        return False
    return True


def mutated(poly, effects, states, multipliers):
    """One lam doubled, one lam moved to another facet, two states
    swapped, and, when a facet holds every state, that facet's effect
    subtracted from the first one (which leaves e_i(state_j) alone)."""
    f, lam = next(iter(multipliers[0].items()))
    doubled = [dict(m) for m in multipliers]
    doubled[0][f] = 2 * lam
    moved = [dict(m) for m in multipliers]
    del moved[0][f]
    moved[0][next(g for g in range(len(effects)) if g not in multipliers[0])] = lam
    swapped = (states[1], states[0]) + tuple(states[2:])
    cases = [(states, doubled), (states, moved), (swapped, multipliers)]
    points = [poly.vertices[s] for s in states]
    through = [g for g, e in enumerate(effects) if all(e(x) == 0 for x in points)]
    if through:
        negative = [dict(m) for m in multipliers]
        negative[0][through[0]] = negative[0].get(through[0], 0) - 1
        cases.append((states, negative))
    return cases


def recorded_checks(monkeypatch):
    calls = []
    check = operational._check_submeasurement

    def recorded(poly, states, scaled):
        # kept as facet multipliers, lam_F = mu_F totals[F], for the oracle
        totals = operational._lp_table(geometry._analysis(poly))[1]
        calls.append((tuple(states), [{f: mu * totals[f] for f, mu in m.items()} for m in scaled]))
        return check(poly, states, scaled)

    monkeypatch.setattr(operational, "_check_submeasurement", recorded)
    return calls, check


def assert_ring_check_matches_the_oracle(body, calls, check):
    effects = oracle_facet_effects(body)
    for states, multipliers in calls:
        assert oracle_verdict(body, effects, states, multipliers)
        assert ring_verdict(check, body, states, multipliers)
        verdicts = []
        for case in mutated(body, effects, states, multipliers):
            verdicts.append(oracle_verdict(body, effects, *case))
            assert ring_verdict(check, body, *case) == verdicts[-1], (states, case)
        assert verdicts[2:] == [False] * (len(verdicts) - 2)  # swapped, negative


RING_CHECK_BODIES = [
    pytest.param(lambda body=body: polytope(body.vertices), 12, id=name)
    for name, body in default_converse_catalog()
] + [
    pytest.param(icosahedron, 12, id="icosahedron"),
    pytest.param(lambda: polytope(list(itertools.product((-1, 1), repeat=4))), 16, id="4-cube"),
    pytest.param(lambda: cross_polytope(4), 8, id="cross4"),
]


@pytest.mark.parametrize("make,cap", RING_CHECK_BODIES)
def test_the_ring_check_agrees_with_the_fraction_oracle_on_orbit_representatives(
    monkeypatch, make, cap
):
    geometry._analysis.cache_clear()
    body = make()
    calls, check = recorded_checks(monkeypatch)
    rank(body, cap)
    if body.dim > 1:
        assert calls
    assert_ring_check_matches_the_oracle(body, calls, check)


@pytest.mark.parametrize("make,cap", RING_CHECK_BODIES)
def test_facet_effects_agree_with_the_fraction_oracle(make, cap):
    # the catalog simplices sit in a hyperplane of their ambient space, so
    # an effect's extension off the hull is not unique: compare values there
    geometry._analysis.cache_clear()
    body = make()
    effects, oracle = operational._facet_effects(body), oracle_facet_effects(body)
    assert len(effects) == len(oracle)
    for e, o in zip(effects, oracle):
        assert [e(v) for v in body.vertices] == [o(v) for v in body.vertices]
    if body.dim == body.ambient_dim:
        assert list(effects) == oracle


@pytest.mark.parametrize("make", [square, pentagon])
def test_facet_effects_that_disagree_with_the_facet_values_are_refused(make):
    geometry._analysis.cache_clear()
    body = make()
    rec = geometry._analysis(body)
    rows = [list(row) for row in rec.vertex_values]
    w = next(w for w, x in enumerate(rows[0]) if x != rec.ring.zero)
    rows[0][w] = rec.ring.add(rows[0][w], rec.ring.one)
    rec.vertex_values = tuple(map(tuple, rows))
    try:
        with pytest.raises(OperationalError, match="disagrees with the facet values"):
            operational._facet_effects(body)
        assert rec.facet_effects is None
    finally:
        geometry._analysis.cache_clear()


def assert_distinguishes(body, states, res):
    """The measurement handed out, checked by exact evaluation alone: its
    effects take exact values in [0, 1] at every vertex and sum to 1 there,
    and e_i(state_j) = delta_ij."""
    assert isinstance(res, Measurement) and len(res.effects) == len(states)
    for e in res.effects:
        assert all(isinstance(x, (int, F, Sqrt5)) for x in e.coeffs + (e.offset,))
    for v in body.vertices:
        values = [e(v) for e in res.effects]
        assert all(0 <= x <= 1 for x in values) and sum(values) == 1
    assert [[e(s) for s in states] for e in res.effects] == [
        [int(i == j) for j in range(len(states))] for i in range(len(states))
    ]


@pytest.mark.parametrize("make", [square, pentagon, cube], ids=["square", "pentagon", "cube"])
def test_edge_midpoint_measurements_pass_exact_evaluation(make):
    # edge midpoints are states that are no vertices, each paired with a
    # vertex or another midpoint; the pentagon puts them in Q(sqrt 5)
    body = make()
    n = len(body.vertices)
    mids = [
        tuple((a + b) / 2 for a, b in zip(body.vertices[i], body.vertices[j]))
        for i, j in itertools.combinations(range(n), 2)
        if any(set(face.indices) == {i, j} for face in exposed_faces(body).faces)
    ]
    found = 0
    for x, y in itertools.product(mids, list(body.vertices) + mids):
        if x == y:
            continue
        res = distinguishing_measurement(body, (x, y))
        if isinstance(res, Measurement):
            assert_distinguishes(body, (x, y), res)
            found += 1
    assert found >= n


def test_irrational_states_on_a_rational_body_are_checked_over_sqrt5():
    states = ((F(1), C), (F(-1), -C))
    res = distinguishing_measurement(square(), states)
    assert_distinguishes(square(), states, res)
    assert any(isinstance(e(s), Sqrt5) for e in res.effects for s in states)


def _measurement_cases(body):
    """Every pair of edge midpoints, every ordered vertex pair and every
    vertex triple of ``body``."""
    n = len(body.vertices)
    mids = [
        tuple((a + b) / 2 for a, b in zip(body.vertices[i], body.vertices[j]))
        for i, j in itertools.combinations(range(n), 2)
        if any(set(face.indices) == {i, j} for face in exposed_faces(body).faces)
    ]
    return (
        list(itertools.combinations(mids, 2))
        + list(itertools.permutations(body.vertices, 2))
        + list(itertools.combinations(body.vertices, 3))
    )


# sha256 of the canonical JSON of ``distinguishing_measurement`` on these
# cases, every scalar by its repr (so its type too), taken from the code
# that posed the LP on evaluated Fraction effects and the frame LPs on a
# second, ambient table of facet values
MEASUREMENT_DIGESTS = {
    "square": "902240ba2a3357ba961109f41584c1d7b7ce23bd5be076919a75eba80c6d22a3",
    "pentagon": "c4b3f82b65b50dcf47bcf57d3ad5bf01e3c443e2b78112dda734bab141e67e0e",
    "cube": "ad0c6359ab35f1d2a2f2c952f20b3bd1d9bf3508c912654ad15220d78d70a7a5",
    "square-sqrt5": "a5fb117f3883522e92168430ce3b8b326a77393a9c282bd5c392ecdeaaa0f43c",
}


@pytest.mark.parametrize("name", list(MEASUREMENT_DIGESTS))
def test_distinguishing_measurement_results_are_pinned(name):
    if name == "square-sqrt5":
        body = square()
        one, zero = Sqrt5(1), Sqrt5(0)
        states = [(PHI - 1, one), (1 - PHI, -one), (one, zero), (-one, zero)]
        cases = list(itertools.permutations(states, 2))
    else:
        body = {"square": square, "pentagon": pentagon, "cube": cube}[name]()
        cases = _measurement_cases(body)
    doc = []
    for states in cases:
        res = distinguishing_measurement(body, states)
        if isinstance(res, Measurement):
            res = [[list(map(repr, e.coeffs)), repr(e.offset)] for e in res.effects]
        else:
            res = res.reason
        doc.append([[list(map(repr, s)) for s in states], res])
    blob = json.dumps(doc, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == MEASUREMENT_DIGESTS[name]


def _patched_submeasurement(monkeypatch, how):
    """``_submeasurement`` with the last state's first multiplier doubled,
    or moved to the least facet that carries none of that state's effect.
    The first effect handed out is the unit less the others, so a wrong
    multiplier of a later state is what reaches the measurement."""
    solve = operational._submeasurement

    def patched(at_states, at_others):
        multipliers = solve(at_states, at_others)
        last = dict(multipliers[-1])
        f, lam = next(iter(last.items()))
        if how == "doubled":
            last[f] = 2 * lam
        else:
            del last[f]
            last[next(g for g in range(len(at_states[0])) if g not in multipliers[-1])] = lam
        return multipliers[:-1] + [last]

    monkeypatch.setattr(operational, "_submeasurement", patched)


@pytest.mark.parametrize("how", ["doubled", "moved"])
@pytest.mark.parametrize(
    "make,states",
    [
        (square, ((F(1), F(0)), (F(-1), F(0)))),
        (square, ((F(1), C), (F(-1), -C))),
        (pentagon, None),
        (cube, None),
    ],
    ids=["square-midpoints", "square-irrational", "pentagon-vertices", "cube-vertices"],
)
def test_a_corrupted_submeasurement_is_refused(monkeypatch, make, states, how):
    body = make()
    if states is None:  # the first 2-frame
        states = tuple(enumerate_frames(body, 2)[0].states)
    assert_distinguishes(body, states, distinguishing_measurement(body, states))
    _patched_submeasurement(monkeypatch, how)
    with pytest.raises(OperationalError, match="does not distinguish the states"):
        distinguishing_measurement(body, states)


def test_frame_lps_are_posed_on_ring_integers(monkeypatch):
    # every coefficient the frame layer hands the LP is an int or a Sqrt5
    # with integer parts: the columns of the ring-integer facet table.  The
    # multipliers are the LP's own non-negative variables, so neither the
    # frame LPs nor distinguishing_measurement pose a sign row: every row
    # is "=" or "<=", and none is a unit vector over a zero right-hand side
    # (a simplex's state rows are unit vectors equal to 1).
    def integral(x):
        if isinstance(x, Sqrt5):
            return x.a.denominator == 1 and x.b.denominator == 1
        return type(x) is int

    posed = []

    def recorded(rows, n_vars=None):
        lp = linear_program(rows, n_vars=n_vars)
        posed.extend(rows)
        posed.extend(lp.constraints)  # and the program keeps them so
        return lp

    monkeypatch.setattr(operational, "linear_program", recorded)
    geometry._analysis.cache_clear()
    for _, body in default_converse_catalog():
        rank(body)
    assert any(isinstance(x, Sqrt5) for row in posed for x in row[0])  # the pentagon
    bad = [row for row in posed if not all(map(integral, row[0] + (row[2],)))]
    assert not bad, bad[:3]
    frame_rows = len(posed)
    pent = pentagon()
    assert isinstance(distinguishing_measurement(pent, pent.vertices[0:3:2]), Measurement)
    assert len(posed) > frame_rows
    signs = [
        (row, rel, rhs)
        for row, rel, rhs in posed
        if rel not in ("=", "<=") or (rhs == 0 and [c for c in row if c] == [1])
    ]
    assert not signs, signs[:3]


def effects_doc(effects):
    return [[[format_scalar(c) for c in e.coeffs], format_scalar(e.offset)] for e in effects]


def all_frames_doc(body):
    """Every ordered k-frame with its certificate, for k = 1..rank."""
    return [
        [list(f.indices), effects_doc(f.certificate)]
        for k in range(1, rank(body, cap=64) + 1)
        for f in enumerate_frames(body, k, cap=64)
    ]


def pair_measurements_doc(body):
    """distinguishing_measurement on every pair of vertices, then on every
    pair of edge midpoints: its effects, or the refusal's reason."""
    half = F(1, 2)
    edges = [f.indices for f in exposed_faces(body).faces if f.dim == 1]
    mids = [
        tuple(half * (a + b) for a, b in zip(body.vertices[i], body.vertices[j]))
        for i, j in edges
    ]
    out = []
    for points in (body.vertices, mids):
        for pair in itertools.combinations(points, 2):
            got = distinguishing_measurement(body, pair)
            out.append(effects_doc(got.effects) if isinstance(got, Measurement) else got.reason)
    return out


def sha256_json(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# Taken from the solver that split every variable over a shared offset
# column and posed one sign row per facet multiplier; the solver that takes
# its variables non-negative must hand out the same certificates.
CERTIFICATES_PINNED = {
    "frames simplex(5)": "ee72f79b20a2a1c01139cdd9ca32c63f2c936f7379fa1d23a4a61b121e639bf5",
    "frames 4-cube": "56abda3020f680839aa94bb2940046ac21c1b7552fe6f3a538a9e6eed2578a37",
    "pairs simplex(1)": "b10ceb57e23babe39b004960e67df118cda1823b55f5cc01794b17344c9c9fb1",
    "pairs simplex(2)": "2d7d8515b6dac2559bb550d27da085701e4c332706121fefadd1c0c737f123fe",
    "pairs simplex(3)": "4b17df22b6a64a2ac0e0b32443f931b97cff997ebcf975bd8270f13e46340f90",
    "pairs simplex(4)": "8fe7b2b259f05abf62f2ce8501e3ec4175390e2eab1b60a19b6bd1286217b686",
    "pairs square": "bbf4c1254cafe473816f0986bc2383499e62141cbeb0bece406193d159880606",
    "pairs rectangle": "7d4122e397abc22bbe5f025fe98dc14fc65663704db8a86c6acd1182846a45a0",
    "pairs pentagon": "f087c837aef689f2d4fd1b2092a3583bdbd97b3ee52394945abcf233c182059d",
    "pairs hexagon": "a59bce4eb5c4f90c4fe82602af57bdc2747abc4fe2a9d0d5084dfb34f6a14e05",
    "pairs cube": "9b8289d3b36e89ad559cf7f3f69abe6aa130e299f213061b5c83f468b9ef0b3e",
    "pairs octahedron": "ef6f0307591d91008c67d470160e824118f1b45418f9e0c2ec41b5f3dd0d150e",
}


def test_frame_and_pair_certificates_are_pinned():
    geometry._analysis.cache_clear()
    got = {
        "frames simplex(5)": sha256_json(all_frames_doc(simplex(5))),
        "frames 4-cube": sha256_json(
            all_frames_doc(polytope(list(itertools.product((-1, 1), repeat=4))))
        ),
    }
    for name, body in default_converse_catalog():
        got[f"pairs {name}"] = sha256_json(pair_measurements_doc(body))
    assert got == CERTIFICATES_PINNED


@pytest.mark.parametrize(
    "name", ["square", "rectangle", "pentagon", "hexagon", "cube", "octahedron"]
)
def test_a_rechecked_point_is_solved_once(monkeypatch, name):
    # the candidates take their chart coordinates from their vertex
    # weights, and the recheck reads both of its tests (inside, and on no
    # vertex hyperplane) at the coordinates of one solve
    geometry._analysis.cache_clear()
    body = polytope(dict(default_converse_catalog())[name].vertices)
    solves = []
    solve = geometry.solve_any
    monkeypatch.setattr(geometry, "solve_any", lambda a, b: solves.append(b) or solve(a, b))
    for seed in range(3):
        verdict = is_spectral(body, seed=seed)
        assert solves == []
        assert recheck_counterexample(body, verdict.counterexample)
        assert len(solves) == 1
        solves.clear()


def test_rank_spectrality_and_strong_symmetry_build_no_fraction_effects(monkeypatch):
    # certificates are checked in ring integers; Fraction effects are built
    # only where one is handed out
    geometry._analysis.cache_clear()
    bodies = [
        body
        for _, body in default_converse_catalog()
        if not any(isinstance(x, Sqrt5) for v in body.vertices for x in v)
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction effect was built")

    monkeypatch.setattr(operational, "_effect", refuse)
    monkeypatch.setattr(AffineEffect, "__init__", refuse)
    for body in bodies:
        rank(body)
        is_spectral(body)
        is_strongly_symmetric(body)
    assert len(bodies) == 9


@pytest.mark.parametrize(
    "make,expected_rank,order,lps",
    [
        # one orbit of k-subsets for each k = 2..9, each one a frame
        (lambda: simplex(8), 9, 362880, 8),
        (lambda: cross_polytope(5), 2, 3840, None),
    ],
    ids=["simplex8", "cross5"],
)
def test_frames_of_a_large_group_are_found_from_its_generators(
    monkeypatch, make, expected_rank, order, lps
):
    def refuse(*args):
        raise AssertionError("the frame layer listed the whole group")

    monkeypatch.setattr(automorphisms, "polytope_group", refuse)
    geometry._analysis.cache_clear()
    body = make()
    calls = _count_lps(monkeypatch)
    assert rank(body) == expected_rank
    gens = group_generators(body)
    assert gens.order == order
    assert len(gens.permutations) <= len(body.vertices)
    if lps is not None:
        assert len(calls) == lps


def test_vertices_and_square_triples_solve_no_lp(monkeypatch):
    geometry._analysis.cache_clear()
    lps = _count_lps(monkeypatch)
    for body in (square(), pentagon(), cube(), simplex(3)):
        frames = enumerate_frames(body, 1)
        assert [f.indices for f in frames] == [(i,) for i in range(len(body.vertices))]
        assert all(f.certificate == (unit_effect(body),) for f in frames)
    assert enumerate_frames(square(), 3) == ()
    assert lps == []


def trapezoid():
    return polytope([(0, 0), (3, 0), (2, 1), (1, 1)])


def test_a_map_that_breaks_facets_is_refused_as_a_generator():
    # the transposition (1 2) moves an edge of the square onto a diagonal
    body = square()
    facets = list(geometry._analysis(body).facets)
    index = {on: f for f, on in enumerate(facets)}
    with pytest.raises(SymmetryError, match="does not permute the facets"):
        automorphisms._facet_images((0, 2, 1, 3), facets, index)


def test_a_forged_generator_is_caught_when_certificates_move(monkeypatch):
    # the 4-cycle permutes the trapezoid's edges, but is no affine map
    geometry._analysis.cache_clear()
    body = trapezoid()
    gens = group_generators(body)
    facets = list(geometry._analysis(body).facets)
    index = {on: f for f, on in enumerate(facets)}
    forged = (1, 2, 3, 0)
    with_bad = dataclasses.replace(
        gens,
        permutations=gens.permutations + (forged,),
        facet_images=gens.facet_images
        + (automorphisms._facet_images(forged, facets, index),),
    )
    monkeypatch.setattr(operational, "group_generators", lambda poly: with_bad)
    with pytest.raises(OperationalError, match="not a submeasurement"):
        enumerate_frames(body, 2)


def test_frame_certificates_are_submeasurements():
    pent = pentagon()
    for f in enumerate_frames(pent, 2):
        for i, e in enumerate(f.certificate):
            for j, s in enumerate(f.states):
                assert e(s) == int(i == j)
            for p in pent.vertices:
                assert e(p) >= 0
        for p in pent.vertices:
            assert sum(e(p) for e in f.certificate) <= 1


def test_rank_eja_and_ball():
    assert rank(eja_state_space("sym_r", 3)) == 3
    assert rank(eja_state_space("herm_c", 2)) == 2
    assert rank(eja_state_space("herm_o")) == 3
    assert rank(ball(4)) == 2
    assert rank(ball(2)) == 2


# ---------------------------------------------------------------------------
# spectrality


def test_simplex_spectral():
    verdict = is_spectral(simplex(2))
    assert verdict.spectral is True
    assert verdict.rank == 3
    assert verdict.covering_frame == (0, 1, 2)
    assert verdict.counterexample is None
    d = verdict.to_dict()
    assert d["spectral"] is True
    assert d["frames_by_k"] == {"1": 3, "2": 6, "3": 6}


def test_segment_and_point_spectral():
    seg = polytope([(F(-1),), (F(1),)])
    assert is_spectral(seg).spectral is True
    pt = polytope([(F(2), F(3))])
    assert is_spectral(pt).spectral is True


def test_square_not_spectral():
    sq = square()
    verdict = is_spectral(sq)
    assert verdict.spectral is False
    assert verdict.rank == 2
    assert recheck_counterexample(sq, verdict.counterexample)
    assert verdict.to_dict()["frames_by_k"] == {"1": 4, "2": 12}


def test_square_pinned_counterexample():
    # (1/2, 1/5) is interior and misses both diagonals, the only
    # full-rank frame hulls
    assert recheck_counterexample(square(), (F(1, 2), F(1, 5)))
    # a diagonal point is covered, so it is not a counterexample
    assert not recheck_counterexample(square(), (F(1, 3), F(1, 3)))
    assert not recheck_counterexample(square(), (F(2), F(0)))


def test_other_polytopes_not_spectral():
    for body in (pentagon(), hexagon(), rectangle(), octahedron()):
        verdict = is_spectral(body)
        assert verdict.spectral is False
        assert recheck_counterexample(body, verdict.counterexample)


def test_cube_not_spectral():
    verdict = is_spectral(cube())
    assert verdict.spectral is False
    assert verdict.rank == 2
    assert recheck_counterexample(cube(), verdict.counterexample)


def _refuse_frame_layer(monkeypatch):
    """Make the LP solver, the group search and the frame sets raise, in
    every package module that bound them by name."""

    def refuse(*args, **kwargs):
        raise AssertionError("the witness recheck reached the frame layer")

    layer = (exactlp.lp_feasible, automorphisms.group_generators, operational._frame_sets)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("jordan_spectra"):
            for name, value in list(vars(module).items()):
                if any(value is f for f in layer):
                    monkeypatch.setattr(module, name, refuse)


def test_witness_stands_without_the_frame_layer(monkeypatch):
    bodies = (square(), rectangle(), pentagon(), hexagon(), cube(), octahedron())
    witnesses = [(body, is_spectral(body).counterexample) for body in bodies]
    geometry._analysis.cache_clear()  # nothing found before is read
    _refuse_frame_layer(monkeypatch)
    for body, point in witnesses:
        assert recheck_counterexample(body, point)
    # a simplex is spectral: no interior point refutes it
    assert not recheck_counterexample(simplex(2), (F(1, 3), F(1, 3), F(1, 3)))
    with pytest.raises(AssertionError, match="frame layer"):
        rank(square())


def test_cli_recheck_stands_without_the_frame_layer(monkeypatch, tmp_path):
    runner = CliRunner()
    body = tmp_path / "p.json"
    body.write_text(json.dumps({"type": "named", "name": "pentagon"}))
    refuted = runner.invoke(main, ["check", "--property", "spectral", str(body)])
    assert refuted.exit_code == 1
    witness = tmp_path / "w.json"
    witness.write_text(refuted.output)
    geometry._analysis.cache_clear()
    _refuse_frame_layer(monkeypatch)
    result = runner.invoke(main, ["recheck", str(witness)])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["witness_valid"] is True
    assert doc["detail"] == "counterexample lies inside the body and off every frame hull"


def test_cube_point_on_a_vertex_plane_is_refused():
    # interior and on the plane x = y through four vertices, but on no
    # frame segment: a witness must lie on no vertex hyperplane
    body = cube()
    point = (F(1, 2), F(1, 2), F(1, 5))
    assert membership(body, point) == "inside"
    assert rank(body) == 2
    for frame in enumerate_frames(body, 2):
        a, b = frame.states
        t = solve_any([[y - x] for x, y in zip(a, b)], [p - x for p, x in zip(point, a)])
        assert t is None or not 0 <= t[0] <= 1
    assert not recheck_counterexample(body, point)


def test_eja_and_ball_spectral():
    v = is_spectral(eja_state_space("herm_c", 3))
    assert v.spectral is True and v.rank == 3
    b = is_spectral(ball(5))
    assert b.spectral is True and b.rank == 2


# ---------------------------------------------------------------------------
# spectral decomposition of states


def test_decompose_diagonal_state():
    alg = algebra("sym_r", 3)
    rho = from_matrix(alg, np.diag([0.5, 0.3, 0.2]))
    dec = spectral_decompose(rho)
    weights, frame = dec.eigenvalues, dec.frame
    assert np.allclose(weights, [0.5, 0.3, 0.2])
    recon = frame[0] * weights[0]
    for w, f in zip(weights[1:], frame[1:]):
        recon = recon + f * w
    assert norm(recon - rho) <= 1e-9


def test_decompose_random_states():
    cases = [("sym_r", 3), ("herm_c", 2), ("herm_h", 2), ("spin", 4), ("herm_o", 3)]
    for i, (fam, m) in enumerate(cases):
        alg = algebra(fam, m)
        rho = random_state(alg, seed=100 + i)
        dec = spectral_decompose(rho)
        weights, frame = dec.eigenvalues, dec.frame
        assert all(w >= 0 for w in weights)
        assert abs(sum(weights) - 1.0) <= 1e-8
        # frame orthonormality under the trace inner product
        for a in range(len(frame)):
            for b in range(len(frame)):
                assert abs(inner(frame[a], frame[b]) - (a == b)) <= 1e-9


# ---------------------------------------------------------------------------
# faces of frames and complements


def test_face_of_frame_polytope():
    tri = simplex(3)
    f = face_of_frame(tri, (0, 2))
    assert f.indices == (0, 2)
    sq = square()
    edge = face_of_frame(sq, (0, 1))
    assert edge.dim == 1
    diag = face_of_frame(sq, (0, 2))
    assert diag.indices == (0, 1, 2, 3)  # no proper face holds both


def test_face_of_frame_is_the_smallest_face_holding_it():
    # the facets through a frame meet in the first face, by size, above it
    for body in (simplex(3), square(), pentagon(), cube(), polytope([(3, 4)])):
        faces = exposed_faces(body).faces
        for k in range(4):
            for frame in itertools.combinations(range(len(body.vertices)), k):
                smallest = next(f for f in faces if set(frame) <= set(f.indices))
                assert face_of_frame(body, frame) == smallest


def test_complement_on_simplex_faces():
    tri = simplex(3)
    lat = exposed_faces(tri)
    full = set(range(4))
    for f in lat.faces:
        comp = complement_face(tri, f)
        assert set(comp.indices) == full - set(f.indices)
        assert complement_face(tri, comp) == f


def test_complement_not_defined_for_square_vertex():
    sq = square()
    vertex = face_of_frame(sq, (0,))
    with pytest.raises(OperationalError):
        complement_face(sq, vertex)


def test_eja_face_of_frame():
    alg = algebra("sym_r", 3)
    e11 = from_matrix(alg, np.diag([1.0, 0.0, 0.0]))
    e22 = from_matrix(alg, np.diag([0.0, 1.0, 0.0]))
    e33 = from_matrix(alg, np.diag([0.0, 0.0, 1.0]))
    face = face_of_frame(eja_state_space("sym_r", 3), (e11, e22))
    assert isinstance(face, EjaFace)
    assert face.rank == 2
    comp = complement_face(eja_state_space("sym_r", 3), face)
    assert comp.rank == 1
    assert norm(comp.idempotent - e33) <= 1e-12
    again = complement_face(eja_state_space("sym_r", 3), comp)
    assert norm(again.idempotent - face.idempotent) <= 1e-12
    with pytest.raises(OperationalError):
        face_of_frame(eja_state_space("sym_r", 3), (e11, e11))


def test_subframe_lattice_orthomodular():
    # faces generated by subsets of a fixed Jordan frame: complements are
    # subset complements, and the sub-frame lattice is orthomodular
    for fam, m in (("sym_r", 3), ("herm_c", 3)):
        alg = algebra(fam, m)
        space = eja_state_space(fam, m)
        frame = random_jordan_frame(alg, seed=11)
        faces = {}
        for r in range(m + 1):
            for s in itertools.combinations(range(m), r):
                faces[s] = face_of_frame(space, tuple(frame[i] for i in s))
        full = frozenset(range(m))
        for s in faces:
            comp = complement_face(space, faces[s])
            sc = tuple(sorted(full - set(s)))
            assert norm(comp.idempotent - faces[sc].idempotent) <= 1e-9
        # orthomodularity on the subset lattice: s <= t implies
        # t = s join (s' meet t); exact as sets
        subsets = list(faces)
        for s in subsets:
            for t in subsets:
                if set(s) <= set(t):
                    sc = full - set(s)
                    assert set(s) | (sc & set(t)) == set(t)


def test_face_heredity_rank_two_face():
    # states supported on a rank-2 face of Herm(3, R) decompose inside it
    alg = algebra("sym_r", 3)
    frame = random_jordan_frame(alg, seed=23)
    p = frame[0] + frame[1]
    y = random_state(alg, seed=29)
    compressed = quadratic_rep(p, y)
    rho = compressed * (1.0 / trace(compressed))
    dec = spectral_decompose(rho)
    assert abs(sum(dec.eigenvalues) - 1.0) <= 1e-8
    for w, omega in zip(dec.eigenvalues, dec.frame):
        if w <= 1e-8:
            continue  # the frame member outside the face carries no weight
        assert is_primitive_idempotent(omega, tol=1e-7)
        # each component stays under p
        assert norm(jordan_product(p, omega) - omega) <= 1e-6
        assert abs(inner(unit(alg) - p, omega)) <= 1e-6


def test_maximal_frame_sums_to_unit():
    for fam, m in (("sym_r", 3), ("herm_c", 2), ("herm_h", 2), ("spin", 5), ("herm_o", 3)):
        alg = algebra(fam, m)
        frame = random_jordan_frame(alg, seed=31)
        total = frame[0]
        for f in frame[1:]:
            total = total + f
        assert norm(total - unit(alg)) <= 1e-9
