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

Quaternionic elements are stored and multiplied as their 2m x 2m complex
embedding, a+bi+cj+dk -> [[a+bi, c+di], [-c+di, a-bi]] applied entrywise
(Herm(m,H) is a Jordan subalgebra of Herm(2m,C)); octonion matrices are
(3, 3, 8) component arrays multiplied with the Cayley-Dickson table.  The
herm_o product itself contracts coefficient rows with the algebra's
27 x 27 x 27 structure constants, built from those arrays on first use.

Frames and other stacks of elements are handled as (n, dim) arrays of
coefficient rows; `jordan_product`, `trace`, `inner`, `norm` and
`quadratic_rep` are the one-row cases of their `_rows` functions, so every
family has one product path.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# the descriptor lives on the exact side, which names families and sizes
# without numpy; it is imported back here for the algebra's own users
from .geometry import AlgebraDescriptor, algebra  # noqa: F401
from .hypercomplex import oct_conj, oct_mat_mul, quat_to_complex2


class EjaElement:
    """A vector of basis coefficients in a fixed algebra.

    Supports +, -, unary minus and scalar multiplication directly; the
    Jordan product and everything spectral live in module functions.
    """

    __slots__ = ("algebra", "coeffs")

    def __init__(self, alg: AlgebraDescriptor, coeffs):
        c = np.array(coeffs, dtype=float)
        if c.shape != (alg.dim,):
            raise ValueError(
                "coefficient length %s does not match dim %d of %s"
                % (c.shape, alg.dim, alg.family)
            )
        object.__setattr__(self, "algebra", alg)
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


def coefficient_rows(elements) -> np.ndarray:
    """The elements' coefficient vectors as the rows of one (n, dim) array."""
    return np.array([c.coeffs for c in elements])


_set_algebra, _set_coeffs = EjaElement.algebra.__set__, EjaElement.coeffs.__set__


def element_views(alg: AlgebraDescriptor, rows: np.ndarray) -> list:
    """Elements whose coefficients are the rows of ``rows``, a read-only
    (n, dim) float array: views with no copy and no shape check, for
    callers that built the array themselves."""
    out = []
    for row in rows:
        x = EjaElement.__new__(EjaElement)
        _set_algebra(x, alg)
        _set_coeffs(x, row)
        out.append(x)
    return out


def _same_algebra(a: EjaElement, b: EjaElement):
    if a.algebra != b.algebra:
        raise ValueError(
            "algebra mismatch: %s vs %s" % (a.algebra, b.algebra)
        )


# -- bases --------------------------------------------------------------------

# Distinct algebras whose dense bases are kept; a herm_h(20) entry alone
# holds 40 MB, and the batteries and benchmarks touch fewer than ten.
BASIS_CACHE_ALGEBRAS = 16

_SQ2 = np.sqrt(2.0)


@lru_cache(maxsize=BASIS_CACHE_ALGEBRAS)
def _matrix_basis(alg: AlgebraDescriptor) -> tuple:
    """(basis, dual, shape) of a matrix family; basis and dual are (dim, size).

    The basis is orthonormal for the trace inner product: diagonal members
    E_ii (x) 1 first, then for i < j row-major and each unit u (1 first)
    (E_ij (x) u + E_ji (x) u*) / sqrt 2, reshaped to ``shape``.  The units
    are real [1] for sym_r and complex [1, i] for herm_c, both m x m; for
    herm_h, 1, i, j, k as the 2 x 2 blocks of ``quat_to_complex2`` placed by
    Kronecker product, giving 2m x 2m complex matrices; for herm_o, the
    eight octonion units as a trailing component axis, giving (3, 3, 8).
    The dual projects a matrix onto coefficients, conj(basis) / s with
    s = 2 for herm_h, whose embedding doubles the trace, and s = 1 otherwise.
    """
    if alg.family == "spin":
        raise ValueError("spin has no matrix representation")
    if alg.family == "herm_o":
        units, place, star = np.eye(8), np.multiply.outer, oct_conj
    else:
        units = {
            "sym_r": np.ones((1, 1, 1)),
            "herm_c": np.array([1.0, 1j]).reshape(2, 1, 1),
            "herm_h": quat_to_complex2(np.eye(4)),
        }[alg.family]
        place, star = np.kron, lambda u: u.conj().T
    m = alg.param
    cell = np.eye(m)
    mats = [place(np.outer(cell[i], cell[i]), units[0]) for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            for u in units:
                upper = place(np.outer(cell[i], cell[j]), u)
                lower = place(np.outer(cell[j], cell[i]), star(u))
                mats.append((upper + lower) / _SQ2)
    basis = np.stack(mats)
    assert basis.shape[0] == alg.dim
    scale = 2.0 if alg.family == "herm_h" else 1.0
    flat = basis.reshape(alg.dim, -1)
    return flat, np.conj(flat) / scale, basis.shape[1:]


def to_matrix_rows(alg: AlgebraDescriptor, x) -> np.ndarray:
    """The matrices that store coefficient rows x (n x dim), (n,) + shape.

    Real symmetric m x m for sym_r, complex Hermitian m x m for herm_c, the
    2m x 2m complex embedding of the quaternionic matrix for herm_h, and
    (3, 3, 8) octonion components for herm_o.  Spin has none: ValueError.
    A complex basis is multiplied as its interleaved real and imaginary
    parts, one real GEMM with the same floats as the complex product:
    OpenBLAS threads a complex GEMM from about 600 rows of herm_c(3), and
    on a 2-core VM its spinning threads made 1024 rows take 8 ms, against
    0.02 ms for the real GEMM.
    """
    basis, _, shape = _matrix_basis(alg)
    return (x @ basis.view(np.float64)).view(basis.dtype).reshape((len(x),) + shape)


def to_matrix(x: EjaElement) -> np.ndarray:
    """The matrix that stores x, the one-row case of `to_matrix_rows`."""
    return to_matrix_rows(x.algebra, x.coeffs[None])[0]


def from_matrix(alg: AlgebraDescriptor, mat: np.ndarray) -> EjaElement:
    """Element with the given representation (orthonormal projection)."""
    _, dual, _ = _matrix_basis(alg)
    return EjaElement(alg, np.real(dual @ np.asarray(mat).reshape(-1)))


def j_twin(v: np.ndarray) -> np.ndarray:
    """The twin J conj(v) of a vector v in C^2m, J = kron(I_m, [[0, 1], [-1, 0]]);
    of each row for a stack of vectors (..., 2m).

    Every herm_h matrix X satisfies J conj(X) = X J, so the twin of an
    eigenvector of X is an eigenvector for the same eigenvalue, orthogonal
    to v; the twin of the twin is -v.
    """
    twin = np.empty(v.shape, dtype=complex)
    twin[..., 0::2] = np.conj(v[..., 1::2])
    twin[..., 1::2] = -np.conj(v[..., 0::2])
    return twin


@lru_cache(maxsize=BASIS_CACHE_ALGEBRAS)
def unit(alg: AlgebraDescriptor) -> EjaElement:
    """The algebra unit e, one per algebra (elements are immutable)."""
    if alg.family == "spin":
        c = np.zeros(alg.dim)
        c[-1] = 1.0
        return EjaElement(alg, c)
    c = np.zeros(alg.dim)
    c[: alg.param] = 1.0  # diagonal basis members come first
    return EjaElement(alg, c)


def zero(alg: AlgebraDescriptor) -> EjaElement:
    return EjaElement(alg, np.zeros(alg.dim))


# -- the product and trace form ------------------------------------------------

def jordan_product(a: EjaElement, b: EjaElement) -> EjaElement:
    """x * y: (xy + yx)/2 for matrix families, the spin product for spin.

    The one-row case of `jordan_product_rows`.
    """
    _same_algebra(a, b)
    alg = a.algebra
    return EjaElement(alg, jordan_product_rows(alg, a.coeffs[None], b.coeffs[None])[0])


def jordan_product_rows(alg: AlgebraDescriptor, x, y=None) -> np.ndarray:
    """Jordan products x[k] * y[k] of coefficient rows (n x dim), as n x dim.

    The closed form for spin, `herm_o_product_rows` for herm_o, and for the
    matrix families one stacked (xy + yx)/2 of the stored matrices projected
    back onto coefficients.  The sum is formed in the same order for x * y
    and y * x, so the product is exactly commutative.  With y omitted the
    rows are squared, in the same floats as x * x.
    """
    x = np.asarray(x, dtype=float)
    if alg.family == "herm_o":
        return herm_o_product_rows(x, y)
    if alg.family == "spin":
        y = x if y is None else np.asarray(y, dtype=float)
        n = alg.param
        out = np.empty(x.shape)
        out[:, :n] = y[:, n:] * x[:, :n] + x[:, n:] * y[:, :n]
        out[:, n] = (x * y).sum(axis=1)
        return out
    xa = to_matrix_rows(alg, x)
    if y is None:
        prod = xa @ xa
    else:
        xb = to_matrix_rows(alg, np.asarray(y, dtype=float))
        prod = (xa @ xb + xb @ xa) / 2.0
    dual = _matrix_basis(alg)[1]
    return np.real(prod.reshape(len(x), dual.shape[1]) @ dual.T)


@lru_cache(maxsize=1)
def _herm_o_constants() -> np.ndarray:
    """herm_o structure constants, (27 * 27, 27): row 27 i + j is e_i * e_j.

    ``oct_mat_mul`` of e_i by the basis stacked as a row of 3 x 3 blocks
    gives every e_i e_j as block j.  Projecting e_i e_j onto the basis gives
    the coefficients of e_i * e_j, as e_j e_i is its conjugate transpose and
    the projection keeps only the Hermitian part; the result is then
    symmetrised exactly.
    """
    alg = AlgebraDescriptor("herm_o", 3)
    flat, dual, shape = _matrix_basis(alg)
    basis = flat.reshape((alg.dim,) + shape)
    dual = dual.reshape((alg.dim,) + shape)
    row = basis.transpose(1, 0, 2, 3).reshape(3, -1, 8)
    coeffs = np.stack(
        [
            np.einsum("ajcr,kacr->jk", oct_mat_mul(e, row).reshape(3, alg.dim, 3, 8), dual)
            for e in basis
        ]
    )
    return (coeffs + coeffs.transpose(1, 0, 2)).reshape(alg.dim * alg.dim, -1) / 2.0


def herm_o_product_rows(x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """Jordan products x[k] * y[k] of herm_o coefficient rows, shape (n, 27).

    Each pair's outer product is symmetrised before the contraction with
    the structure constants, so x * y and y * x are the same floats.  With
    y omitted the rows are squared; the outer product of a row with itself
    is already symmetric, and the result is the same floats as x * x.
    """
    shape = (len(x), x.shape[1] ** 2)
    if y is None:
        return (x[:, :, None] * x[:, None, :]).reshape(shape) @ _herm_o_constants()
    pairs = x[:, :, None] * y[:, None, :]
    pairs = pairs + pairs.transpose(0, 2, 1)
    return 0.5 * (pairs.reshape(shape) @ _herm_o_constants())


def trace(x: EjaElement) -> float:
    """Sum of eigenvalues; for matrices the (real) diagonal sum."""
    return float(trace_rows(x.algebra, x.coeffs[None])[0])


def trace_rows(alg: AlgebraDescriptor, x) -> np.ndarray:
    """Traces of coefficient rows (n x dim): twice the last coefficient for
    spin, else the sum of the first ``param``, the diagonal basis members."""
    if alg.family == "spin":
        return 2.0 * x[:, -1]
    return np.add.reduce(x[:, : alg.param], axis=1)


def inner(x: EjaElement, y: EjaElement) -> float:
    """The trace form (x, y) = tr(x * y), the one-row case of `gram_rows`."""
    _same_algebra(x, y)
    return float(gram_rows(x.algebra, x.coeffs[None], y.coeffs[None])[0, 0])


def gram_rows(alg: AlgebraDescriptor, x, y=None) -> np.ndarray:
    """Trace-form Gram matrix [(x[i], y[j])] of coefficient rows; y defaults
    to x, and stacks (..., n, dim) give stacks of Gram matrices.  The basis
    is orthonormal for the form, so this is x y^T, doubled for spin's
    natural coordinates."""
    g = x @ np.swapaxes(x if y is None else y, -1, -2)
    return 2.0 * g if alg.family == "spin" else g


def inner_rows(alg: AlgebraDescriptor, x, y) -> np.ndarray:
    """Trace-form products (x[k], y[k]) of paired coefficient rows (..., dim),
    the diagonal of `gram_rows` without the rest of the matrix."""
    g = np.add.reduce(x * y, axis=-1)
    return 2.0 * g if alg.family == "spin" else g


def norm_rows(alg: AlgebraDescriptor, x) -> np.ndarray:
    """Trace-form norms of coefficient rows (..., dim)."""
    return np.sqrt(inner_rows(alg, x, x))


def norm(x: EjaElement) -> float:
    """The trace-form norm, the one-row case of `norm_rows`."""
    return float(norm_rows(x.algebra, x.coeffs[None])[0])


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
    """U_a(b), which maps the cone into itself: the one-row case of
    `quadratic_rows`."""
    _same_algebra(a, b)
    alg = a.algebra
    return EjaElement(alg, quadratic_rows(alg, a.coeffs[None], b.coeffs[None])[0])


def quadratic_rows(alg: AlgebraDescriptor, a, b) -> np.ndarray:
    """The quadratic representation U_a[k](b[k]) = 2 a*(a*b) - (a*a)*b of
    paired coefficient rows (n x dim), as n x dim.

    On matrices U_a b is the product a b a (Faraut & Korányi, Analysis on
    Symmetric Cones, 1994, ch. II), so sym_r, herm_c and herm_h form one
    stacked a b a of the stored matrices (for herm_h the 2m x 2m embedding,
    a homomorphism of the matrix product) projected back onto coefficients.
    herm_o takes the formula through the multiplication operators, y L_a =
    a * y, read off the structure constants for a and b in one product:
    U_a b = 2 (b L_a) L_a - (a L_a) L_b.  spin takes it product by product.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n = len(a)
    if alg.family == "spin":
        aab = jordan_product_rows(alg, a, jordan_product_rows(alg, a, b))
        return 2.0 * aab - jordan_product_rows(alg, jordan_product_rows(alg, a), b)
    if alg.family == "herm_o":
        ops = np.concatenate([a, b]) @ _herm_o_constants().reshape(alg.dim, -1)
        la, lb = ops.reshape(2, n, alg.dim, alg.dim)
        return (2.0 * (b[:, None] @ la @ la) - a[:, None] @ la @ lb)[:, 0]
    ma = to_matrix_rows(alg, a)
    dual = _matrix_basis(alg)[1]
    return ((ma @ to_matrix_rows(alg, b) @ ma).reshape(n, dual.shape[1]) @ dual.T).real


def determinant(x: EjaElement) -> float:
    """Product of eigenvalues."""
    from .spectral import eigenvalues

    return float(np.prod(eigenvalues(x)))
