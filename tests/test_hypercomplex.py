import numpy as np
import pytest

from jordan_spectra.hypercomplex import (
    OCT_TABLE,
    oct_conj,
    oct_mat_mul,
    oct_mul,
    quat_conj,
    quat_mul,
    quat_to_complex2,
)

# Multiplication table frozen from a hand Cayley-Dickson computation:
# entry (p, q) is s*idx meaning e_p e_q = sign(s) * e_|idx|, with +0/-0
# disambiguated by storing (sign, idx) pairs.
OCT_EXPECTED = [
    # q:   e0       e1       e2       e3       e4       e5       e6       e7
    [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7)],  # e0
    [(1, 1), (-1, 0), (1, 3), (-1, 2), (1, 5), (-1, 4), (-1, 7), (1, 6)],  # e1
    [(1, 2), (-1, 3), (-1, 0), (1, 1), (1, 6), (1, 7), (-1, 4), (-1, 5)],  # e2
    [(1, 3), (1, 2), (-1, 1), (-1, 0), (1, 7), (-1, 6), (1, 5), (-1, 4)],  # e3
    [(1, 4), (-1, 5), (-1, 6), (-1, 7), (-1, 0), (1, 1), (1, 2), (1, 3)],  # e4
    [(1, 5), (1, 4), (-1, 7), (1, 6), (-1, 1), (-1, 0), (-1, 3), (1, 2)],  # e5
    [(1, 6), (1, 7), (1, 4), (-1, 5), (-1, 2), (1, 3), (-1, 0), (-1, 1)],  # e6
    [(1, 7), (-1, 6), (1, 5), (1, 4), (-1, 3), (-1, 2), (1, 1), (-1, 0)],  # e7
]


def unit(idx, n=8):
    v = np.zeros(n)
    v[idx] = 1.0
    return v


def test_quaternion_ijk_table():
    i, j, k = unit(1, 4), unit(2, 4), unit(3, 4)
    assert np.allclose(quat_mul(i, j), k)
    assert np.allclose(quat_mul(j, k), i)
    assert np.allclose(quat_mul(k, i), j)
    assert np.allclose(quat_mul(j, i), -k)
    for u in (i, j, k):
        assert np.allclose(quat_mul(u, u), -unit(0, 4))


def test_quaternion_norm_composition():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = rng.normal(size=4), rng.normal(size=4)
        lhs = np.linalg.norm(quat_mul(a, b))
        assert lhs == pytest.approx(np.linalg.norm(a) * np.linalg.norm(b))


def test_quaternion_complex_embedding_is_homomorphism():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b = rng.normal(size=4), rng.normal(size=4)
        lhs = quat_to_complex2(quat_mul(a, b))
        rhs = quat_to_complex2(a) @ quat_to_complex2(b)
        assert np.allclose(lhs, rhs)


def test_octonion_multiplication_table():
    for p in range(8):
        for q in range(8):
            sign, idx = OCT_EXPECTED[p][q]
            got = oct_mul(unit(p), unit(q))
            assert np.allclose(got, sign * unit(idx)), (p, q, got)


def test_structure_tensor_matches_table():
    for p in range(8):
        for q in range(8):
            sign, idx = OCT_EXPECTED[p][q]
            expected = sign * unit(idx)
            assert np.allclose(OCT_TABLE[p, q], expected)


def test_octonion_norm_composition_and_alternativity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, b = rng.normal(size=8), rng.normal(size=8)
        assert np.linalg.norm(oct_mul(a, b)) == pytest.approx(
            np.linalg.norm(a) * np.linalg.norm(b)
        )
        # alternative laws: a(ab) = (aa)b and (ba)a = b(aa)
        assert np.allclose(oct_mul(a, oct_mul(a, b)), oct_mul(oct_mul(a, a), b))
        assert np.allclose(oct_mul(oct_mul(b, a), a), oct_mul(b, oct_mul(a, a)))


def test_octonion_not_associative():
    e1, e2, e4 = unit(1), unit(2), unit(4)
    lhs = oct_mul(oct_mul(e1, e2), e4)
    rhs = oct_mul(e1, oct_mul(e2, e4))
    assert np.allclose(lhs, -rhs)
    assert not np.allclose(lhs, rhs)


def test_octonion_conjugation_reverses_products():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = rng.normal(size=8), rng.normal(size=8)
        assert np.allclose(oct_conj(oct_mul(a, b)), oct_mul(oct_conj(b), oct_conj(a)))


def test_octonion_matrix_product_against_loops():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 3, 8))
    b = rng.normal(size=(3, 3, 8))
    got = oct_mat_mul(a, b)
    want = np.zeros((3, 3, 8))
    for i in range(3):
        for k in range(3):
            for j in range(3):
                want[i, k] += oct_mul(a[i, j], b[j, k])
    assert np.allclose(got, want)
