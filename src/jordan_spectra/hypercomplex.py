"""Quaternion and octonion arithmetic.

Quaternions are numpy arrays [w, x, y, z] with the standard i, j, k table
(ij = k, jk = i, ki = j).  Octonions are arrays of 8 coefficients built from
quaternion pairs by the Cayley-Dickson doubling

    (a, b)(c, d) = (ac - conj(d) b,  d a + b conj(c))

so the basis is e0 = (1,0), e1 = (i,0), e2 = (j,0), e3 = (k,0), e4 = (0,1),
e5 = (0,i), e6 = (0,j), e7 = (0,k).  All products broadcast over leading
axes, so matrices of quaternions/octonions are arrays with trailing axis 4
or 8.
"""

from __future__ import annotations

import numpy as np


# -- quaternions -------------------------------------------------------------

def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    w1, x1, y1, z1 = (a[..., i] for i in range(4))
    w2, x2, y2, z2 = (b[..., i] for i in range(4))
    return np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ],
        axis=-1,
    )


def quat_conj(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return a * np.array([1.0, -1.0, -1.0, -1.0])


def quat_to_complex2(q: np.ndarray) -> np.ndarray:
    """Embed a + bi + cj + dk as [[a+bi, c+di], [-c+di, a-bi]].

    An algebra homomorphism into 2x2 complex matrices; broadcasts, mapping
    shape (..., 4) to (..., 2, 2).
    """
    q = np.asarray(q, dtype=float)
    a, b, c, d = (q[..., i] for i in range(4))
    alpha = a + 1j * b
    beta = c + 1j * d
    out = np.empty(q.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = alpha
    out[..., 0, 1] = beta
    out[..., 1, 0] = -np.conj(beta)
    out[..., 1, 1] = np.conj(alpha)
    return out


# -- octonions ---------------------------------------------------------------

def oct_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a1, a2 = a[..., :4], a[..., 4:]
    b1, b2 = b[..., :4], b[..., 4:]
    first = quat_mul(a1, b1) - quat_mul(quat_conj(b2), a2)
    second = quat_mul(b2, a1) + quat_mul(a2, quat_conj(b1))
    return np.concatenate([first, second], axis=-1)


def oct_conj(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return a * np.array([1.0] + [-1.0] * 7)


def _structure_tensor() -> np.ndarray:
    t = np.zeros((8, 8, 8))
    eye = np.eye(8)
    for p in range(8):
        for q in range(8):
            t[p, q] = oct_mul(eye[p], eye[q])
    return t


#: T[p, q, r] is the e_r coefficient of e_p e_q
OCT_TABLE: np.ndarray = _structure_tensor()


def oct_mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of octonion matrices, shapes (n, m, 8) x (m, k, 8)."""
    return np.einsum("ijp,jkq,pqr->ikr", a, b, OCT_TABLE, optimize=True)
