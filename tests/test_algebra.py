import subprocess
import sys

import numpy as np
import pytest

from jordan_spectra.algebra import (
    BASIS_CACHE_ALGEBRAS,
    AlgebraDescriptor,
    EjaElement,
    _herm_o_constants,
    _matrix_basis,
    algebra,
    determinant,
    from_matrix,
    herm_o_product_rows,
    inner,
    j_twin,
    jordan_product,
    jordan_product_rows,
    norm,
    norm_rows,
    power,
    quadratic_rep,
    quadratic_rows,
    to_matrix,
    trace,
    unit,
    zero,
)
from jordan_spectra.hypercomplex import oct_mat_mul, quat_to_complex2
from jordan_spectra.spectral import random_element, spectral_decompose

ALL_ALGEBRAS = [
    algebra("sym_r", 3),
    algebra("herm_c", 3),
    algebra("herm_h", 2),
    algebra("spin", 4),
    algebra("herm_o", 3),
]


def diag_element(alg, values):
    c = np.zeros(alg.dim)
    c[: len(values)] = values
    return EjaElement(alg, c)


def test_dimension_and_rank_table():
    cases = [
        ("sym_r", 3, 6, 3),
        ("sym_r", 5, 15, 5),
        ("herm_c", 3, 9, 3),
        ("herm_c", 4, 16, 4),
        ("herm_h", 2, 6, 2),
        ("herm_h", 3, 15, 3),
        ("spin", 2, 3, 2),
        ("spin", 9, 10, 2),
        ("herm_o", 3, 27, 3),
    ]
    for family, p, dim, rank in cases:
        alg = algebra(family, p)
        assert alg.dim == dim and alg.rank == rank


def test_descriptor_validation_and_serialization():
    with pytest.raises(ValueError):
        algebra("herm_o", 4)
    with pytest.raises(ValueError):
        algebra("sym_r", 0)
    with pytest.raises(ValueError):
        algebra("cayley", 2)
    d = algebra("sym_r", 3).to_dict()
    assert d == {"family": "sym_r", "m": 3}
    assert AlgebraDescriptor.from_dict(d) == algebra("sym_r", 3)
    assert AlgebraDescriptor.from_dict({"family": "spin", "n": 5}) == algebra("spin", 5)
    assert AlgebraDescriptor.from_dict({"family": "herm_o"}) == algebra("herm_o", 3)


def test_element_length_check_and_immutability():
    alg = algebra("sym_r", 2)
    with pytest.raises(ValueError):
        EjaElement(alg, [1.0, 2.0])
    x = EjaElement(alg, [1.0, 2.0, 3.0])
    with pytest.raises(Exception):
        x.coeffs[0] = 5.0


def test_spin_product_pinned_example():
    # ((1,0), 2) * ((0,1), 3) = ((3,2), 6)
    alg = algebra("spin", 2)
    a = EjaElement(alg, [1.0, 0.0, 2.0])
    b = EjaElement(alg, [0.0, 1.0, 3.0])
    ab = jordan_product(a, b)
    assert np.allclose(ab.coeffs, [3.0, 2.0, 6.0])


def test_sym_r_anticommuting_pair_has_zero_product():
    alg = algebra("sym_r", 2)
    a = from_matrix(alg, np.diag([1.0, -1.0]))
    b = from_matrix(alg, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert norm(jordan_product(a, b)) < 1e-14


def test_unit_law_all_families():
    for alg in ALL_ALGEBRAS:
        e = unit(alg)
        x = random_element(alg, 7)
        assert norm(jordan_product(e, x) - x) < 1e-12
        assert trace(e) == pytest.approx(alg.rank)


def test_algebra_mismatch_errors():
    x = random_element(algebra("sym_r", 2), 0)
    y = random_element(algebra("sym_r", 3), 0)
    with pytest.raises(ValueError):
        jordan_product(x, y)
    with pytest.raises(ValueError):
        inner(x, y)


def test_trace_and_inner_pinned_values():
    sym2 = algebra("sym_r", 2)
    e11 = diag_element(sym2, [1.0])
    e22 = diag_element(sym2, [0.0, 1.0])
    assert inner(e11, e22) == 0.0
    assert trace(unit(algebra("herm_c", 3))) == pytest.approx(3.0)
    spin2 = algebra("spin", 2)
    assert trace(EjaElement(spin2, [3.0, 4.0, 1.0])) == pytest.approx(2.0)


def test_commutativity_is_exact():
    for alg in ALL_ALGEBRAS:
        a = random_element(alg, 11)
        b = random_element(alg, 12)
        assert np.array_equal(jordan_product(a, b).coeffs, jordan_product(b, a).coeffs)


def test_jordan_identity_all_families():
    for alg in ALL_ALGEBRAS:
        for seed in range(5):
            a = random_element(alg, 100 + seed)
            b = random_element(alg, 200 + seed)
            a2 = jordan_product(a, a)
            lhs = jordan_product(a2, jordan_product(a, b))
            rhs = jordan_product(a, jordan_product(a2, b))
            scale = 1.0 + norm(a) ** 3 * norm(b)
            assert norm(lhs - rhs) <= 1e-9 * scale, alg


def test_trace_form_associativity():
    for alg in ALL_ALGEBRAS:
        for seed in range(5):
            a = random_element(alg, 300 + seed)
            b = random_element(alg, 400 + seed)
            c = random_element(alg, 500 + seed)
            lhs = inner(jordan_product(a, b), c)
            rhs = inner(a, jordan_product(b, c))
            scale = 1.0 + norm(a) * norm(b) * norm(c)
            assert abs(lhs - rhs) <= 1e-9 * scale, alg


def test_inner_symmetric_positive_definite():
    for alg in ALL_ALGEBRAS:
        a = random_element(alg, 21)
        b = random_element(alg, 22)
        assert inner(a, b) == pytest.approx(inner(b, a))
        assert inner(a, a) > 0
        assert inner(zero(alg), zero(alg)) == 0.0


def test_formal_reality_contrapositive():
    # |a^2 + b^2| >= |a|^2 / rank: squares cannot cancel
    for alg in ALL_ALGEBRAS:
        a = random_element(alg, 31)
        b = random_element(alg, 32)
        s = jordan_product(a, a) + jordan_product(b, b)
        assert trace(s) == pytest.approx(inner(a, a) + inner(b, b))
        assert norm(s) >= inner(a, a) / np.sqrt(alg.rank) - 1e-12


def test_power_and_quadratic_rep():
    for alg in ALL_ALGEBRAS:
        x = random_element(alg, 41)
        assert norm(power(x, 0) - unit(alg)) < 1e-14
        assert norm(power(x, 1) - x) < 1e-14
        x4a = power(x, 4)
        x4b = jordan_product(jordan_product(x, x), jordan_product(x, x))
        assert norm(x4a - x4b) <= 1e-10 * (1.0 + norm(x) ** 4)
        b = random_element(alg, 42)
        assert norm(quadratic_rep(unit(alg), b) - b) < 1e-12
    with pytest.raises(ValueError):
        power(random_element(ALL_ALGEBRAS[0], 1), -1)


def test_power_associativity_mixed_products():
    for alg in ALL_ALGEBRAS:
        x = random_element(alg, 43)
        lhs = jordan_product(power(x, 2), power(x, 3))
        rhs = jordan_product(power(x, 4), x)
        assert norm(lhs - rhs) <= 1e-9 * (1.0 + norm(x) ** 5)


def test_determinant_against_numpy_sym_r():
    alg = algebra("sym_r", 3)
    x = random_element(alg, 51)
    assert determinant(x) == pytest.approx(np.linalg.det(to_matrix(x)), rel=1e-9)
    alg4 = algebra("sym_r", 4)  # rank 4 goes through the eigensolver
    y = random_element(alg4, 52)
    assert determinant(y) == pytest.approx(np.linalg.det(to_matrix(y)), rel=1e-8)


def test_determinant_spin_closed_form():
    alg = algebra("spin", 3)
    x = EjaElement(alg, [1.0, 2.0, 2.0, 4.0])
    # (t + |x|)(t - |x|) = 16 - 9 = 7
    assert determinant(x) == pytest.approx(7.0)


def test_determinant_herm_c_against_numpy():
    alg = algebra("herm_c", 3)
    x = random_element(alg, 53)
    assert determinant(x) == pytest.approx(np.linalg.det(to_matrix(x)).real, rel=1e-9)


@pytest.mark.parametrize(
    "alg", [algebra("herm_h", 3), algebra("herm_o", 3)], ids=lambda a: a.family
)
def test_determinant_against_decomposition(alg):
    from jordan_spectra.spectral import random_jordan_frame, spectral_decompose

    frame = random_jordan_frame(alg, 54)
    double = 2.0 * (frame[0] + frame[1]) - 0.5 * frame[2]
    for x in (random_element(alg, 55), double):
        want = float(np.prod(spectral_decompose(x).eigenvalues))
        assert determinant(x) == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert determinant(double) == pytest.approx(-2.0, rel=1e-9)


def test_matrix_roundtrip_all_matrix_families():
    for alg in ALL_ALGEBRAS:
        if alg.family == "spin":
            continue
        x = random_element(alg, 61)
        assert np.allclose(from_matrix(alg, to_matrix(x)).coeffs, x.coeffs)


QUATERNION_SIZES = (1, 2, 3, 5)


def quaternionic_j(m):
    return np.kron(np.eye(m), np.array([[0.0, 1.0], [-1.0, 0.0]]))


@pytest.mark.parametrize("m", QUATERNION_SIZES)
def test_herm_h_is_stored_as_its_complex_embedding(m):
    alg = algebra("herm_h", m)
    x, y = random_element(alg, 80 + m), random_element(alg, 90 + m)
    xm, ym = to_matrix(x), to_matrix(y)
    assert xm.shape == (2 * m, 2 * m)
    assert np.allclose(xm, xm.conj().T, rtol=0, atol=1e-14)
    j = quaternionic_j(m)
    assert np.allclose(j @ np.conj(xm), xm @ j, rtol=0, atol=1e-14)
    # the embedding doubles the trace
    assert trace(x) == pytest.approx(np.trace(xm).real / 2.0, rel=1e-12)
    assert inner(x, y) == pytest.approx(np.trace(xm @ ym).real / 2.0, rel=1e-12)
    assert np.allclose(from_matrix(alg, xm).coeffs, x.coeffs, rtol=0, atol=1e-14)


@pytest.mark.parametrize("m", QUATERNION_SIZES)
def test_herm_h_coordinates_are_quaternion_components(m):
    # basis member k is the blockwise embedding of the k-th (m, m, 4)
    # quaternion component member: diagonal ones first, then i < j
    # row-major with the units 1, i, j, k innermost
    alg = algebra("herm_h", m)
    members = []
    for i in range(m):
        q = np.zeros((m, m, 4))
        q[i, i, 0] = 1.0
        members.append(q)
    for i in range(m):
        for j in range(i + 1, m):
            for u in range(4):
                q = np.zeros((m, m, 4))
                q[i, j, u] = 1.0 / np.sqrt(2.0)
                q[j, i, u] = (1.0 if u == 0 else -1.0) / np.sqrt(2.0)
                members.append(q)
    assert len(members) == alg.dim
    for k, q in enumerate(members):
        want = quat_to_complex2(q).transpose(0, 2, 1, 3).reshape(2 * m, 2 * m)
        got = to_matrix(EjaElement(alg, np.eye(alg.dim)[k]))
        assert np.allclose(got, want, rtol=0, atol=1e-15), k


@pytest.mark.parametrize("m", QUATERNION_SIZES)
def test_j_twin(m):
    rng = np.random.default_rng(m)
    v = rng.standard_normal(2 * m) + 1j * rng.standard_normal(2 * m)
    twin = j_twin(v)
    assert np.allclose(twin, quaternionic_j(m) @ np.conj(v), rtol=0, atol=1e-15)
    assert abs(np.vdot(v, twin)) <= 1e-14
    assert np.allclose(j_twin(twin), -v, rtol=0, atol=1e-15)


def test_spin_has_no_matrix_representation():
    alg = algebra("spin", 3)
    with pytest.raises(ValueError, match="spin has no matrix representation"):
        to_matrix(unit(alg))
    with pytest.raises(ValueError, match="spin has no matrix representation"):
        from_matrix(alg, np.zeros(4))


def test_quadratic_rep_preserves_cone():
    from jordan_spectra.spectral import spectral_decompose

    for alg in ALL_ALGEBRAS:
        a = random_element(alg, 71)
        b = random_element(alg, 72)
        bsq = jordan_product(b, b)
        image = quadratic_rep(a, bsq)
        w = spectral_decompose(image).eigenvalues
        assert float(np.min(w)) >= -1e-8 * (1.0 + float(np.max(np.abs(w))))


def test_quadratic_rows_match_the_jordan_formula():
    # a b a on the stored matrices (herm_h in its 2m x 2m embedding), the
    # multiplication operators for herm_o, products for spin: each the
    # formula 2 a * (a * b) - (a * a) * b
    rng = np.random.default_rng(73)
    for alg in ALL_ALGEBRAS + [algebra("sym_r", 5), algebra("herm_h", 3)]:
        a = rng.standard_normal((12, alg.dim)) * rng.choice([1e-3, 1.0, 30.0], size=(12, 1))
        b = rng.standard_normal((12, alg.dim))
        aab = jordan_product_rows(alg, a, jordan_product_rows(alg, a, b))
        want = 2.0 * aab - jordan_product_rows(alg, jordan_product_rows(alg, a), b)
        got = quadratic_rows(alg, a, b)
        bound = 1e-12 * (1.0 + norm_rows(alg, a) ** 2 * norm_rows(alg, b))
        assert (np.abs(got - want).max(axis=1) <= bound).all(), alg
        one = quadratic_rep(EjaElement(alg, a[0]), EjaElement(alg, b[0]))
        assert np.max(np.abs(one.coeffs - got[0])) <= bound[0]


def test_basis_cache_is_bounded():
    assert _matrix_basis.cache_info().maxsize == BASIS_CACHE_ALGEBRAS
    first = _matrix_basis(algebra("sym_r", 1))[0].copy()
    for m in range(2, BASIS_CACHE_ALGEBRAS + 6):
        _matrix_basis(algebra("herm_c" if m % 2 else "sym_r", m))
    assert _matrix_basis.cache_info().currsize <= BASIS_CACHE_ALGEBRAS
    # an evicted algebra is built again on demand, with the same basis
    assert np.array_equal(_matrix_basis(algebra("sym_r", 1))[0], first)


# -- herm_o product from structure constants ----------------------------------

HERM_O = algebra("herm_o", 3)


def _octonion_product(a, b):
    """(ab + ba) / 2 of the octonion matrices, projected back: the reference."""
    xa, xb = to_matrix(a), to_matrix(b)
    return from_matrix(HERM_O, (oct_mat_mul(xa, xb) + oct_mat_mul(xb, xa)) / 2.0)


def test_herm_o_constants_match_octonion_products():
    constants = _herm_o_constants()
    assert constants.shape == (27 * 27, 27)
    eye = np.eye(27)
    for i in range(27):
        for j in range(27):
            want = _octonion_product(EjaElement(HERM_O, eye[i]), EjaElement(HERM_O, eye[j]))
            assert np.max(np.abs(constants[27 * i + j] - want.coeffs)) <= 1e-15, (i, j)


def test_herm_o_product_matches_octonion_matrices():
    for seed in range(20):
        x = random_element(HERM_O, 300 + seed)
        y = random_element(HERM_O, 400 + seed)
        got = jordan_product(x, y)
        assert norm(got - _octonion_product(x, y)) <= 1e-13 * norm(x) * norm(y)
        assert np.array_equal(got.coeffs, jordan_product(y, x).coeffs)
        x2 = jordan_product(x, x)
        lhs = jordan_product(x2, jordan_product(x, y))
        rhs = jordan_product(x, jordan_product(x2, y))
        assert norm(lhs - rhs) <= 1e-10 * (1.0 + norm(x) ** 3 * norm(y))


def test_herm_o_product_rows_match_single_products():
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal((2, 9, 27))
    rows = herm_o_product_rows(x, y)
    squares = herm_o_product_rows(x)
    assert np.array_equal(squares, herm_o_product_rows(x, x))
    for k in range(9):
        a, b = EjaElement(HERM_O, x[k]), EjaElement(HERM_O, y[k])
        assert np.max(np.abs(rows[k] - jordan_product(a, b).coeffs)) <= 1e-13
        assert np.max(np.abs(squares[k] - jordan_product(a, a).coeffs)) <= 1e-13


def test_herm_o_constants_are_built_on_first_use(cli_env):
    code = (
        "import jordan_spectra.cli\n"
        "from jordan_spectra.algebra import _herm_o_constants\n"
        "assert _herm_o_constants.cache_info().currsize == 0\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=cli_env)


# -- row-wise products and projector frames -----------------------------------

ROW_ALGEBRAS = ALL_ALGEBRAS + [algebra("sym_r", 5), algebra("herm_c", 4), algebra("herm_h", 3)]


def _reference_product(a, b):
    """The product without the row path: the spin closed form, the
    octonion-matrix reference for herm_o, and (xy + yx)/2 of the stored
    matrices projected back for the matrix families."""
    alg = a.algebra
    if alg.family == "spin":
        n = alg.param
        x, s = a.coeffs[:n], a.coeffs[n]
        y, t = b.coeffs[:n], b.coeffs[n]
        return np.concatenate([t * x + s * y, [np.dot(x, y) + s * t]])
    if alg.family == "herm_o":
        return _octonion_product(a, b).coeffs
    xa, xb = to_matrix(a), to_matrix(b)
    return from_matrix(alg, (xa @ xb + xb @ xa) / 2.0).coeffs


@pytest.mark.parametrize("alg", ROW_ALGEBRAS, ids=lambda a: f"{a.family}{a.param}")
def test_jordan_product_rows_agree_with_single_products(alg):
    rng = np.random.default_rng(17)
    x, y = rng.standard_normal((2, 7, alg.dim))
    rows = jordan_product_rows(alg, x, y)
    squares = jordan_product_rows(alg, x)
    assert rows.shape == squares.shape == (7, alg.dim)
    # exactly commutative, and squaring is the same floats as x * x
    assert np.array_equal(rows, jordan_product_rows(alg, y, x))
    assert np.array_equal(squares, jordan_product_rows(alg, x, x))
    for k in range(7):
        a, b = EjaElement(alg, x[k]), EjaElement(alg, y[k])
        scale = 1e-13 * (1.0 + norm(a) * norm(b))
        assert np.max(np.abs(rows[k] - jordan_product(a, b).coeffs)) <= scale
        assert np.max(np.abs(rows[k] - _reference_product(a, b))) <= scale
        # the one-row case is the element product, float for float
        one = jordan_product_rows(alg, x[k : k + 1])
        assert np.array_equal(one[0], jordan_product(a, a).coeffs)
        assert np.max(np.abs(squares[k] - one[0])) <= 1e-13 * (1.0 + norm(a) ** 2)


@pytest.mark.parametrize(
    "alg",
    [algebra("sym_r", 4), algebra("sym_r", 5), algebra("herm_c", 3), algebra("herm_c", 4),
     algebra("herm_h", 2), algebra("herm_h", 3)],
    ids=lambda a: f"{a.family}{a.param}",
)
def test_spectral_frames_are_eigenvector_projectors(alg):
    # the projector onto each eigenspace, built here from LAPACK's
    # eigenvectors; a herm_h eigenvalue is a doublet of the 2m x 2m matrix
    per = 2 if alg.family == "herm_h" else 1
    for seed in range(5):
        x = random_element(alg, 500 + seed)
        w, v = np.linalg.eigh(to_matrix(x))
        w, v = w[::-1], v[:, ::-1]
        dec = spectral_decompose(x)
        assert np.max(np.abs(dec.eigenvalues - w[::per])) <= 1e-12 * (1.0 + np.max(np.abs(w)))
        for i, c in enumerate(dec.frame):
            cols = v[:, per * i : per * (i + 1)]
            want = from_matrix(alg, cols @ cols.conj().T)
            assert np.max(np.abs(c.coeffs - want.coeffs)) <= 1e-12, (seed, i)


@pytest.mark.parametrize("alg", ALL_ALGEBRAS, ids=lambda a: f"{a.family}{a.param}")
def test_norm_rows_are_the_element_norms(alg):
    rows = np.random.default_rng(23).standard_normal((5, alg.dim))
    norms = norm_rows(alg, rows)
    for k, row in enumerate(rows):
        x = EjaElement(alg, row)
        assert norms[k] == norm(x)
        assert abs(norms[k] - np.sqrt(inner(x, x))) <= 1e-13 * norms[k]
