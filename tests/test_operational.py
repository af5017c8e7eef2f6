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

import itertools
from fractions import Fraction

import numpy as np
import pytest

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
from jordan_spectra.geometry import (
    ball,
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
from jordan_spectra.scalars import PHI, Sqrt5
from jordan_spectra.spectral import (
    is_primitive_idempotent,
    random_jordan_frame,
    random_state,
    spectral_decompose,
)

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
    from jordan_spectra.exactla import solve_unique

    rows = [list(p1) + [1], list(p2) + [1], list(p3) + [1]]
    a, b, c = solve_unique(rows, [y1, y2, y3])
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
