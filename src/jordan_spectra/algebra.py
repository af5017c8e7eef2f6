"""Arithmetic for the five simple finite-dimensional Euclidean Jordan algebras.

Families and their parameters (real dimension / rank):

    sym_r   real symmetric m x m matrices        m(m+1)/2   m
    herm_c  complex Hermitian m x m              m^2        m
    herm_h  quaternionic Hermitian m x m         m(2m-1)    m
    spin    R^n + R with the spin product        n + 1      2
    herm_o  octonion Hermitian 3 x 3             27         3

Matrix families use x * y = (xy + yx)/2; the spin factor uses
(x, s) * (y, t) = (t x + s y, <x, y> + s t).  Elements are coefficient
vectors over a fixed orthonormal basis of the trace inner product
(x, y) = tr(x * y); the spin factor keeps its natural (x, t) coordinates,
where the form is 2(<x, y> + s t).

Quaternionic elements are stored and multiplied through the complex
embedding a+bi+cj+dk -> [[a+bi, c+di], [-c+di, a-bi]] applied entrywise;
octonion matrices are multiplied directly with the Cayley-Dickson table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypercomplex import (
    complex2_to_quat,
    oct_mat_mul,
    quat_to_complex2,
)

FAMILIES = ("sym_r", "herm_c", "herm_h", "spin", "herm_o")


@dataclass(frozen=True)
class AlgebraDescriptor:
    """One of the five simple families plus its size parameter."""

    family: str
    param: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError("unknown family %r" % (self.family,))
        if not isinstance(self.param, int) or self.param < 1:
            raise ValueError("param must be a positive integer")
        if self.family == "herm_o" and self.param != 3:
            raise ValueError("herm_o exists only for size 3")

    @property
    def dim(self) -> int:
        m = self.param
        return {
            "sym_r": m * (m + 1) // 2,
            "herm_c": m * m,
            "herm_h": m * (2 * m - 1),
            "spin": m + 1,
            "herm_o": 27,
        }[self.family]

    @property
    def rank(self) -> int:
        return {"spin": 2, "herm_o": 3}.get(self.family, self.param)

    def to_dict(self) -> dict:
        key = "n" if self.family == "spin" else "m"
        return {"family": self.family, key: self.param}

    @staticmethod
    def from_dict(data: dict) -> "AlgebraDescriptor":
        family = data.get("family")
        if family == "spin":
            param = data.get("n", data.get("m"))
        else:
            param = data.get("m", data.get("n"))
        if family == "herm_o" and param is None:
            param = 3
        if param is None:
            raise ValueError("missing size parameter in %r" % (data,))
        return AlgebraDescriptor(family, int(param))


def algebra(family: str, param: int) -> AlgebraDescriptor:
    return AlgebraDescriptor(family, param)


class EjaElement:
    """A vector of basis coefficients in a fixed algebra.

    Supports +, -, unary minus and scalar multiplication directly; the
    Jordan product and everything spectral live in module functions.
    """

    __slots__ = ("algebra", "coeffs")

    def __init__(self, alg: AlgebraDescriptor, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (alg.dim,):
            raise ValueError(
                "coefficient length %s does not match dim %d of %s"
                % (coeffs.shape, alg.dim, alg.family)
            )
        object.__setattr__(self, "algebra", alg)
        c = coeffs.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, name, value):
        raise AttributeError("EjaElement is immutable")

    def __add__(self, other):
        _same_algebra(self, other)
        return EjaElement(self.algebra, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _same_algebra(self, other)
        return EjaElement(self.algebra, self.coeffs - other.coeffs)

    def __neg__(self):
        return EjaElement(self.algebra, -self.coeffs)

    def __mul__(self, scalar):
        return EjaElement(self.algebra, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return EjaElement(self.algebra, self.coeffs / float(scalar))

    def __repr__(self):
        return "EjaElement(%s[%d], %s)" % (
            self.algebra.family,
            self.algebra.param,
            np.array2string(self.coeffs, precision=6, suppress_small=True),
        )


def _same_algebra(a: EjaElement, b: EjaElement):
    if a.algebra != b.algebra:
        raise ValueError(
            "algebra mismatch: %s vs %s" % (a.algebra, b.algebra)
        )


# -- bases --------------------------------------------------------------------

_BASIS_CACHE: dict = {}

_SQ2 = np.sqrt(2.0)


def _matrix_basis(alg: AlgebraDescriptor) -> np.ndarray:
    """Stack of basis members, orthonormal for the trace inner product.

    Component shapes: sym_r (dim,m,m) real; herm_c (dim,m,m) complex;
    herm_h (dim,m,m,4); herm_o (27,3,3,8).
    """
    if alg in _BASIS_CACHE:
        return _BASIS_CACHE[alg]
    m = alg.param
    units = {"sym_r": 1, "herm_c": 2, "herm_h": 4, "herm_o": 8}[alg.family]
    mats = []
    if alg.family == "sym_r":
        for i in range(m):
            b = np.zeros((m, m))
            b[i, i] = 1.0
            mats.append(b)
        for i in range(m):
            for j in range(i + 1, m):
                b = np.zeros((m, m))
                b[i, j] = b[j, i] = 1.0 / _SQ2
                mats.append(b)
    elif alg.family == "herm_c":
        for i in range(m):
            b = np.zeros((m, m), dtype=complex)
            b[i, i] = 1.0
            mats.append(b)
        for i in range(m):
            for j in range(i + 1, m):
                b = np.zeros((m, m), dtype=complex)
                b[i, j] = b[j, i] = 1.0 / _SQ2
                mats.append(b)
                b = np.zeros((m, m), dtype=complex)
                b[i, j] = 1j / _SQ2
                b[j, i] = -1j / _SQ2
                mats.append(b)
    else:  # herm_h, herm_o as hypercomplex component arrays
        for i in range(m):
            b = np.zeros((m, m, units))
            b[i, i, 0] = 1.0
            mats.append(b)
        for i in range(m):
            for j in range(i + 1, m):
                for u in range(units):
                    b = np.zeros((m, m, units))
                    b[i, j, u] = 1.0 / _SQ2
                    b[j, i, u] = (1.0 if u == 0 else -1.0) / _SQ2
                    mats.append(b)
    basis = np.stack(mats)
    assert basis.shape[0] == alg.dim
    _BASIS_CACHE[alg] = basis
    return basis


def to_matrix(x: EjaElement) -> np.ndarray:
    """Representation of x: matrix/component array, or (x, t) for spin."""
    alg = x.algebra
    if alg.family == "spin":
        return x.coeffs.copy()
    basis = _matrix_basis(alg)
    return np.tensordot(x.coeffs, basis, axes=(0, 0))


def from_matrix(alg: AlgebraDescriptor, mat: np.ndarray) -> EjaElement:
    """Element with the given representation (orthonormal projection)."""
    if alg.family == "spin":
        return EjaElement(alg, np.asarray(mat, dtype=float))
    basis = _matrix_basis(alg)
    mat = np.asarray(mat)
    basis_axes = tuple(range(1, basis.ndim))
    mat_axes = tuple(range(mat.ndim))
    if alg.family == "herm_c":
        coeffs = np.tensordot(np.conj(basis), mat, axes=(basis_axes, mat_axes))
    else:
        coeffs = np.tensordot(basis, mat, axes=(basis_axes, mat_axes))
    return EjaElement(alg, np.real(coeffs))


def unit(alg: AlgebraDescriptor) -> EjaElement:
    """The algebra unit e."""
    if alg.family == "spin":
        c = np.zeros(alg.dim)
        c[-1] = 1.0
        return EjaElement(alg, c)
    c = np.zeros(alg.dim)
    c[: alg.param] = 1.0  # diagonal basis members come first
    return EjaElement(alg, c)


def zero(alg: AlgebraDescriptor) -> EjaElement:
    return EjaElement(alg, np.zeros(alg.dim))


# -- quaternion embedding ------------------------------------------------------

def _embed_quat_matrix(q: np.ndarray) -> np.ndarray:
    """(m, m, 4) quaternion matrix -> (2m, 2m) complex via entrywise blocks."""
    m = q.shape[0]
    blocks = quat_to_complex2(q)  # (m, m, 2, 2)
    return blocks.transpose(0, 2, 1, 3).reshape(2 * m, 2 * m)


def _unembed_quat_matrix(c: np.ndarray) -> np.ndarray:
    m = c.shape[0] // 2
    blocks = c.reshape(m, 2, m, 2).transpose(0, 2, 1, 3)
    return complex2_to_quat(blocks)


# -- the product and trace form ------------------------------------------------

def jordan_product(a: EjaElement, b: EjaElement) -> EjaElement:
    """x * y: (xy + yx)/2 for matrix families, the spin product for spin."""
    _same_algebra(a, b)
    alg = a.algebra
    if alg.family == "spin":
        n = alg.param
        x, s = a.coeffs[:n], a.coeffs[n]
        y, t = b.coeffs[:n], b.coeffs[n]
        out = np.empty(n + 1)
        out[:n] = t * x + s * y
        out[n] = float(np.dot(x, y)) + s * t
        return EjaElement(alg, out)
    xa, xb = to_matrix(a), to_matrix(b)
    if alg.family == "sym_r" or alg.family == "herm_c":
        prod = (xa @ xb + xb @ xa) / 2.0
    elif alg.family == "herm_h":
        ea, eb = _embed_quat_matrix(xa), _embed_quat_matrix(xb)
        prod = _unembed_quat_matrix((ea @ eb + eb @ ea) / 2.0)
    else:  # herm_o
        prod = (oct_mat_mul(xa, xb) + oct_mat_mul(xb, xa)) / 2.0
    return from_matrix(alg, prod)


def trace(x: EjaElement) -> float:
    """Sum of eigenvalues; for matrices the (real) diagonal sum."""
    alg = x.algebra
    if alg.family == "spin":
        return 2.0 * float(x.coeffs[-1])
    # diagonal basis members are the first `param` coefficients
    return float(np.sum(x.coeffs[: alg.param]))


def inner(x: EjaElement, y: EjaElement) -> float:
    """The trace form (x, y) = tr(x * y)."""
    _same_algebra(x, y)
    alg = x.algebra
    if alg.family == "spin":
        n = alg.param
        return 2.0 * (float(np.dot(x.coeffs[:n], y.coeffs[:n])) + x.coeffs[n] * y.coeffs[n])
    # basis is orthonormal for the trace form
    return float(np.dot(x.coeffs, y.coeffs))


def norm(x: EjaElement) -> float:
    return float(np.sqrt(max(inner(x, x), 0.0)))


def power(x: EjaElement, k: int) -> EjaElement:
    """Jordan power x^k, well-defined by power-associativity."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("power wants a nonnegative integer")
    alg = x.algebra
    out = unit(alg)
    base = x
    while k:
        if k & 1:
            out = jordan_product(out, base)
        base = jordan_product(base, base)
        k >>= 1
    return out


def quadratic_rep(a: EjaElement, b: EjaElement) -> EjaElement:
    """U_a(b) = 2 a*(a*b) - (a*a)*b; maps the cone into itself."""
    _same_algebra(a, b)
    ab = jordan_product(a, b)
    return 2.0 * jordan_product(a, ab) - jordan_product(jordan_product(a, a), b)


def determinant(x: EjaElement) -> float:
    """Product of eigenvalues."""
    from .spectral import eigenvalues

    return float(np.prod(eigenvalues(x)))
