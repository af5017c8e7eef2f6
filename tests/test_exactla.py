import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jordan_spectra import exactla as la
from jordan_spectra import geometry
from jordan_spectra.automorphisms import PolytopeAutomorphism, _affine_maps
from jordan_spectra.geometry import chart_vertices, pentagon, polytope
from jordan_spectra.scalars import PHI, SQRT5, Sqrt5


def F(x):
    return Fraction(x)


# ---------------------------------------------------------------------------
# reference oracle: the textbook Gauss-Jordan over field scalars, dividing
# rows by their pivot, and the Leibniz determinant


def oracle_rref(matrix):
    rows = [[F(x) if isinstance(x, int) else x for x in r] for r in matrix]
    nrow = len(rows)
    ncol = len(rows[0]) if nrow else 0
    pivots = []
    r = 0
    for c in range(ncol):
        pivot_row = next((i for i in range(r, nrow) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nrow):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrow:
            break
    return rows, pivots


def oracle_solve_any(a, b):
    ncol = len(a[0]) if a else 0
    rows, pivots = oracle_rref([list(row) + [bv] for row, bv in zip(a, b)])
    if ncol in pivots:
        return None
    x = [F(0)] * ncol
    for r, c in enumerate(pivots):
        x[c] = rows[r][ncol]
    return x


def oracle_affine_basis_indices(points):
    """The greedy loop: keep each point that is affinely independent of
    those kept before it, one rank elimination per point."""
    chosen = []
    for i in range(len(points)):
        trial = chosen + [i]
        p0 = points[trial[0]]
        diffs = [[x - y for x, y in zip(points[j], p0)] for j in trial[1:]]
        if len(oracle_rref(diffs)[1]) == len(diffs):
            chosen = trial
    return chosen


def oracle_determinant(a):
    n = len(a)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod((a[i][perm[i]] for i in range(n)), start=F(1))
    return total


def is_exact(values):
    return all(isinstance(v, (Fraction, Sqrt5)) for v in values)


def kernel_rref(matrix):
    """The reduced row echelon form T / d of the kernel, as field scalars."""
    ring, T, pivots, d, _ = la._eliminate(matrix)
    return [[ring.quotient(x, d) for x in row] for row in T], pivots


# ---------------------------------------------------------------------------
# pinned cases


def test_rref_and_rank():
    m = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    rows, pivots = kernel_rref(m)
    assert pivots == [0, 1]
    assert rows[0] == [F(1), F(0), F(1)]
    assert rows[1] == [F(0), F(1), F(1)]


def test_solve_unique_exact():
    a = [[F(2), F(1)], [F(1), F(3)]]
    x = la.solve_any(a, [F(5), F(10)])
    assert x == [F(1), F(3)]
    singular = [[F(1), F(2)], [F(2), F(4)]]
    assert la.determinant(singular) == 0
    assert la.solve_any(singular, [F(1), F(3)]) is None


def test_solve_over_quadratic_field():
    a = [[PHI, Fraction(1)], [Fraction(1), PHI]]
    b = [PHI * PHI + 1, 2 * PHI]
    x = la.solve_any(a, b)
    assert x == [PHI, Fraction(1)]


def test_determinant():
    a = [[F(1), F(2)], [F(3), F(5)]]
    assert la.determinant(a) == F(-1)
    assert la.determinant([[F(1), F(2)], [F(2), F(4)]]) == 0


def test_affine_helpers():
    pts = [[F(0), F(0)], [F(1), F(0)], [F(0), F(1)], [F(1), F(1)]]
    assert la.affine_basis_indices(pts) == [0, 1, 2]
    assert la.affine_basis_indices(pts[1:]) == [0, 1, 2]
    assert la.affine_basis_indices([pts[0], pts[0], pts[3]]) == [0, 2]
    assert la.affine_basis_indices(pts[:1]) == [0]
    assert la.affine_basis_indices([]) == []


def affine_maps(body):
    """The search's exact vertex check and map on the body's integer chart
    as one function: a vertex permutation to its automorphism, or None."""
    rec = geometry._analysis(body)
    points = rec.ring_chart
    check, build = _affine_maps(rec.ring, points, la.affine_basis_indices(list(points), rec.ring))
    return lambda perm: PolytopeAutomorphism(perm, rec.chart, build) if check(perm) else None


def test_affine_map_from_correspondence():
    # automorphisms are built from one inverse of the homogenized vertex
    # basis; each kept map moves every vertex onto its image
    square = polytope([(0, 0), (1, 0), (1, 1), (0, 1)])
    maps = affine_maps(square)
    for perm in ((1, 2, 3, 0), (3, 2, 1, 0), (0, 1, 2, 3)):
        g = maps(perm)
        for i, v in enumerate(square.vertices):
            assert g.apply(v) == square.vertices[perm[i]]
    assert maps((1, 0, 2, 3)) is None  # swaps two ends of an edge only


def oracle_affine_map(src, dst):
    """[M | t] one output coordinate at a time, as the oracle solves it."""
    n = len(src[0])
    a = [list(p) + [F(1)] for p in src]
    cols = [oracle_solve_any(a, [q[i] for q in dst]) for i in range(n)]
    return [col[:n] for col in cols], [col[n] for col in cols]


@pytest.mark.parametrize("step,shift", [(1, 1), (1, 3), (-1, 0), (-1, 2)])
def test_affine_map_pentagon_chart_basis(step, shift):
    # rotations and reflections of the pentagon, in its Q(sqrt 5) chart
    body = pentagon()
    cv = chart_vertices(body)
    basis = la.affine_basis_indices(list(cv))
    perm = tuple((step * i + shift) % 5 for i in range(5))
    g = affine_maps(body)(perm)
    src = [cv[i] for i in basis]
    dst = [cv[perm[i]] for i in basis]
    assert ([list(row) for row in g.matrix], list(g.translation)) == oracle_affine_map(
        src, dst
    )
    assert is_exact([*g.translation, *itertools.chain(*g.matrix)])
    images = [tuple(a + b for a, b in zip(la.mat_vec(g.matrix, v), g.translation)) for v in cv]
    assert images == [cv[perm[i]] for i in range(5)]
    # a permutation that is no symmetry of the boundary cycle is refused
    assert affine_maps(body)((perm[1], perm[0]) + perm[2:]) is None


# ---------------------------------------------------------------------------
# the kernel against the oracle on random small matrices, singular,
# non-square and rank-deficient ones included (few distinct entries make
# repeated and dependent rows common)

RATIONALS = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)])
QUADRATIC = st.sampled_from(
    [0, 1, Fraction(-1, 2), SQRT5, PHI, Sqrt5(1, -1), Sqrt5(Fraction(-1, 2), Fraction(1, 2)), Sqrt5(2)]
)
FIELDS = st.sampled_from([RATIONALS, QUADRATIC])


@st.composite
def matrices(draw, nrow=None, ncol=None):
    entries = draw(FIELDS)
    nrow = draw(st.integers(0, 4)) if nrow is None else nrow
    ncol = draw(st.integers(1, 4)) if ncol is None else ncol
    return [[draw(entries) for _ in range(ncol)] for _ in range(nrow)]


@st.composite
def square_systems(draw):
    n = draw(st.integers(1, 4))
    a = draw(matrices(n, n))
    return a, draw(matrices(1, n))[0]


@settings(max_examples=150, deadline=None)
@given(m=matrices())
@example(m=[[0, 0], [0, 0]])
@example(m=[[1, 2, 3], [2, 4, 6], [PHI, 1, 0]])
def test_rref_matches_oracle(m):
    rows, pivots = kernel_rref(m)
    assert (rows, pivots) == oracle_rref(m)
    assert is_exact(itertools.chain(*rows))


@settings(max_examples=150, deadline=None)
@given(a=matrices(), data=st.data())
def test_solve_any_matches_oracle(a, data):
    b = data.draw(matrices(1, len(a)))[0] if a else []
    x = la.solve_any(a, b)
    assert x == oracle_solve_any(a, b)
    if x is not None:
        assert is_exact(x)
        assert la.mat_vec(a, x) == list(b)


@settings(max_examples=150, deadline=None)
@given(system=square_systems())
@example(system=([[1, 2], [2, 4]], [1, 2]))
@example(system=([[SQRT5, 1], [5, SQRT5]], [0, 1]))
def test_solve_unique_and_determinant_match_oracle(system):
    a, b = system
    det = la.determinant(a)
    assert det == oracle_determinant(a)
    assert is_exact([det])
    if det == 0:
        assert len(la._eliminate(a)[2]) < len(a)
    else:
        x = la.solve_any(a, b)
        assert x == oracle_solve_any(a, b)
        assert is_exact(x)
        assert la.mat_vec(a, x) == list(b)


@settings(max_examples=150, deadline=None)
@given(points=matrices().filter(bool))
@example(points=[[0, 0], [0, 0], [1, 1], [2, 2], [0, 1]])
@example(points=[[SQRT5, 1], [PHI, 0], [0, PHI]])
def test_affine_basis_indices_is_one_elimination(points):
    with mock.patch.object(la, "_eliminate", wraps=la._eliminate) as kernel:
        got = la.affine_basis_indices(points)
    assert kernel.call_count == 1
    assert got == oracle_affine_basis_indices(points)
