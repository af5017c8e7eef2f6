"""Spectral decomposition across the five families, on stacks of rows.

`spectral_decompose_rows` decomposes a stack of coefficient rows (n x dim)
of one algebra in a few array calls per family:

* sym_r   one stacked LAPACK eigh of the real symmetric matrices
* herm_c  one stacked LAPACK eigh of the complex Hermitian matrices
* herm_h  one stacked LAPACK eigh of the 2m x 2m complex matrices that
          store the rows; each quaternionic eigenvalue is a pair of their
          eigenvalues, and the projector onto a pair's eigenvectors is a
          primitive idempotent
* spin    closed form: (x, t) has eigenvalues t +- |x| with idempotents
          ((+-x/|x|)/2, 1/2); x = 0 keeps the coarse part [(t, e)] and
          splits the fine frame along a fixed axis
* herm_o  Newton identities -> characteristic cubic -> trigonometric roots,
          one `_herm_o_cubic` over all rows; of three distinct values, the
          simple one's idempotent by Lagrange interpolation in Jordan powers
          of x, and the two nearest each other split in closed form in the
          rank-2 algebra left by it

A repeated herm_h or herm_o eigenvalue has a coarse idempotent c of trace
k > 1 (the sum of its pair projectors, or its Lagrange polynomial), which
`_peel` splits into k primitives by compressions U_c of diagonal
primitives, only on the rows that have one: no random draw, so the fine
frame is a function of x alone.  Each row's values and frame are those of
the row decomposed alone, and `spectral_decompose` is the one-row case.
A `SpectralRows` result holds the eigenvalues (n, r) and the fine frames
(n, r, dim); indexing it gives one element's `SpectralDecomposition`,
with the coarse decomposition by distinct eigenvalues, which is unique.

`eigenvalue_rows` returns the same numbers without building a frame: one
stacked eigvalsh for the matrix families, the closed form for spin, and
the cubic for herm_o.  `eigenvalues` is its one-row case.  Both stacked
entry points share one overflow guard: a row whose sum of squares
overflows is solved as row / 2**k (k the binary exponent of its largest
coefficient) and its eigenvalues scaled back, and a non-finite coefficient
or a scaled-back eigenvalue that overflows is refused with SpectralError,
as is an element of finite norm whose herm_o power traces or eigenvalues
overflow.

`random_frame_rows` draws a block of random elements and returns their
frames, each element redrawn until its eigenvalues are distinct;
`random_jordan_frame` is its one-row case.  `is_idempotent` and
`is_primitive_idempotent` are the one-row cases of `idempotent_rows` and
`primitive_rows`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraDescriptor,
    EjaElement,
    _matrix_basis,
    coefficient_rows,
    gram_rows,
    herm_o_product_rows,
    inner_rows,
    jordan_product,
    jordan_product_rows,
    norm_rows,
    trace,
    trace_rows,
    unit,
)

DEFAULT_TOL = 1e-10

# Wherever a Jordan frame is checked, its members are primitive, pairwise
# trace-orthogonal and sum to the unit within this.
FRAME_TOL = 1e-8

# `random_frame_rows` draws at most this many elements per frame.
RANDOM_FRAME_RETRIES = 50

# A herm_o frame further than this from orthonormal is refused.  A pair the
# cubic merges leaves a frame orthonormal to ~5e-8 that rebuilds x exactly.
HERM_O_GRAM_TOL = 1e-6


class SpectralError(RuntimeError):
    """Non-finite input, an eigenvalue overflow, a failed reconstruction or
    a herm_o frame far from orthonormal; the random generators raise it
    for draws that stay degenerate."""

    def __init__(self, message: str, residual: float | None = None):
        if residual is not None:
            message = "%s (residual %.3e)" % (message, residual)
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (descending), fine frame, and coarse decomposition."""

    eigenvalues: np.ndarray
    frame: list
    coarse: list  # [(eigenvalue, idempotent)], distinct values descending

    def reconstruct(self) -> EjaElement:
        """sum lambda_i c_i."""
        rows = coefficient_rows(self.frame)
        return EjaElement(self.frame[0].algebra, self.eigenvalues @ rows)


# -- per-family fine decompositions of coefficient rows ------------------------------

def _projector_rows(alg: AlgebraDescriptor, vecs: np.ndarray) -> np.ndarray:
    """Coefficient rows (..., dim) of the projectors onto the spans of a stack
    of orthonormal vector blocks (..., j, size), sum v v^H over each block's
    j vectors."""
    _, dual, _ = _matrix_basis(alg)
    proj = np.swapaxes(vecs, -1, -2) @ np.conj(vecs)
    rows = np.real(proj.reshape(-1, dual.shape[1]) @ dual.T)
    return rows.reshape(vecs.shape[:-2] + (alg.dim,))


def _descending(values: np.ndarray, frames: np.ndarray) -> tuple:
    """The value rows (n, r) sorted descending, ties kept in order, and the
    frame rows (n, r, dim) in the same order."""
    if not (values[:, :-1] < values[:, 1:]).any():
        return values, frames
    order = (np.arange(len(values))[:, None], (-values).argsort(axis=1, kind="stable"))
    return values[order], frames[order]


def _fine_matrix_rows(alg: AlgebraDescriptor, x: np.ndarray, tol: float):
    """sym_r, herm_c and herm_h: one stacked LAPACK eigh of the stored
    matrices, eigenvalues descending.  For sym_r and herm_c the frame is
    v v^H over the eigenvectors.  Each quaternionic eigenvalue is a pair of
    the 2m values of a herm_h matrix; one pair's projector is primitive, and
    a cluster of j pairs sums to its coarse idempotent, which `_peel` splits.
    The herm_h values are then (x, c), one dot product per member, so a tie
    within a cluster orders as `inner` does."""
    basis, _, shape = _matrix_basis(alg)
    w, v = np.linalg.eigh((x @ basis).reshape((len(x),) + shape))
    w, vecs = w[:, ::-1], np.swapaxes(v, 1, 2)[:, ::-1]
    if alg.family != "herm_h":
        return w, _projector_rows(alg, vecs[:, :, None, :])
    pairs = _projector_rows(alg, vecs.reshape(len(x), alg.param, 2, vecs.shape[-1]))
    # neighbouring pair values within tol (1 + max |value|) form a cluster
    ctol = tol * (1.0 + np.maximum.reduce(np.abs(w), axis=1, keepdims=True))
    joined = w[:, :-2:2] - w[:, 2::2] <= ctol
    if joined.any():
        peeled = {}  # cluster size -> [(row, cluster slice)]
        for i in np.flatnonzero(joined.any(axis=1)):
            start = 0
            for j, join in enumerate(joined[i].tolist() + [False]):
                if not join:
                    if j > start:
                        peeled.setdefault(j + 1 - start, []).append((i, slice(start, j + 1)))
                    start = j + 1
        for k, at in peeled.items():
            pieces = _peel(alg, np.array([np.add.reduce(pairs[i, run]) for i, run in at]), k)
            for (i, run), piece in zip(at, pieces):
                pairs[i, run] = piece
    return _descending((pairs @ x[:, :, None])[:, :, 0], pairs)


def _fine_spin_rows(alg: AlgebraDescriptor, x: np.ndarray, tol: float):
    """spin: (w, t) has eigenvalues t +- |w| with idempotents
    ((+-w/|w|)/2, 1/2); a w within tol (1 + |t| + |w|) of 0 splits along
    the first axis."""
    n = alg.param
    w, t = x[:, :n], x[:, n:]
    nw = np.sqrt(np.add.reduce(w * w, axis=1, keepdims=True))
    whole = nw <= tol * (1.0 + np.abs(t) + nw)
    half = w / (2.0 * np.where(whole, 1.0, nw))
    if whole.any():
        half[whole[:, 0]] = np.eye(n)[0] / 2.0
    rows = np.empty((len(x), 2, n + 1))
    rows[:, 0, :n], rows[:, 1, :n], rows[:, :, n] = half, -half, 0.5
    # the eigenvalues t + |w| and t - |w|
    return t + nw * np.array([1.0, -1.0]), rows


# cos(theta - 2 pi k / 3), k = 0, 1, 2, gives the three trigonometric roots
_THIRD_TURNS = 2.0 * np.pi * np.arange(3) / 3.0


def _elementary_symmetric(p1, p2, p3) -> tuple:
    """(e1, e2, e3) of the eigenvalues from the power traces tr x, tr x^2, tr x^3.

    Newton's identities; for rank <= 3 these are the coefficients of the
    characteristic polynomial z^3 - e1 z^2 + e2 z - e3.  Works on floats
    and elementwise on arrays.
    """
    return p1, (p1 * p1 - p2) / 2.0, (p1 * p1 * p1 - 3.0 * p1 * p2 + 2.0 * p3) / 6.0


def _herm_o_cubic(x: np.ndarray, x2: np.ndarray, tol: float) -> np.ndarray:
    """Eigenvalues of herm_o coefficient rows x (with squares x2), shape (n, 3).

    Each row holds the roots of its characteristic cubic, descending: the
    trigonometric roots, or one triple root where p = e2 - e1^2/3 >= 0.  The
    trigonometric roots resolve a double root only to ~sqrt(machine eps),
    so clusters are detected with that floor: a triple cluster becomes
    e1/3, and a double one the root of the cubic's derivative nearest its
    mean (a well-conditioned simple quadratic root), or the mean itself if
    that root is more than 1e-6 (1 + max |root|) away.
    """
    # tr x^2 = (x, x) and tr x^3 = (x * x, x) in the trace form; where they
    # overflow, so does q, and the finiteness test refuses the row
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        e1, e2, e3 = _elementary_symmetric(
            np.add.reduce(x[:, :3], axis=1), np.add.reduce(x * x, axis=1), np.add.reduce(x2 * x, axis=1)
        )
        p = e2 - e1 * e1 / 3.0
        q = -2.0 * e1 * e1 * e1 / 27.0 + e1 * e2 / 3.0 - e3
        mfac = 2.0 * np.sqrt(-p / 3.0)
        # fmin/fmax send the 0/0 of an underflowed p to -1
        arg = np.fmin(1.0, np.fmax(-1.0, 3.0 * q / (p * mfac)))
        trig = mfac[:, None] * np.cos(np.arccos(arg)[:, None] / 3.0 - _THIRD_TURNS)
        offsets = np.where((p >= 0.0)[:, None], np.cbrt(-q)[:, None], trig)
        e1 = e1[:, None]
        roots = e1 / 3.0 + offsets
        roots.sort(axis=1)
        roots = roots[:, ::-1]
        if not np.isfinite(roots + q[:, None]).all():
            raise SpectralError("eigenvalues overflow")
        scale = 1.0 + np.maximum.reduce(np.abs(roots), axis=1, keepdims=True)
        near = roots[:, :2] - roots[:, 1:] <= max(tol, 4e-8) * scale
        if not near.any():
            return roots
        # per adjacent pair of roots, the derivative root nearest their mean,
        # or the mean if that root is too far
        root = np.sqrt(np.maximum(e1 * e1 - 3.0 * e2[:, None], 0.0))
        hi, lo = (e1 + root) / 3.0, (e1 - root) / 3.0
        means = (roots[:, :2] + roots[:, 1:]) / 2.0
        pair = np.where(np.abs(lo - means) < np.abs(hi - means), lo, hi)
        pair = np.where(np.abs(pair - means) > 1e-6 * scale, means, pair)
    vals = roots.copy()
    for i in range(2):
        double = near[:, i] & ~near[:, 1 - i]
        vals[double, i : i + 2] = pair[double, i : i + 1]
    triple = near.all(axis=1)
    vals[triple] = e1[triple] / 3.0
    return np.sort(vals, axis=1)[:, ::-1]


def _fine_herm_o_rows(alg: AlgebraDescriptor, x: np.ndarray, tol: float):
    """herm_o: the values of the cubic, which sets a cluster's members equal.

    Three distinct values are split by `_herm_o_three`, all rows at once.
    A row with a repeated value is split on its own: three equal values
    split the unit by `_peel`; of two, the simple value s takes
    c_s = (x - d e) / (s - d) as idempotent and the repeated value d's
    idempotent e - c_s is split by `_peel`.
    """
    x2 = herm_o_product_rows(x)
    values = _herm_o_cubic(x, x2, tol)
    equal = values[:, :2] == values[:, 1:]
    if not equal.any():
        return _herm_o_three(alg, x, x2, values)
    repeated = equal.any(axis=1)
    rows = np.empty((len(x), 3, alg.dim))
    if not repeated.all():
        simple = ~repeated
        values[simple], rows[simple] = _herm_o_three(alg, x[simple], x2[simple], values[simple])
    e = unit(alg).coeffs
    for i in np.flatnonzero(repeated):
        top, d, bottom = values[i].tolist()
        if top == bottom:
            rows[i] = _peel(alg, e[None], 3)[0]
            continue
        s = bottom if top == d else top
        c_s = (x[i] - d * e) * (1.0 / (s - d))
        pair = _peel(alg, (e - c_s)[None], 2)[0]
        # in the order of the values: the repeated pair on top or below s
        rows[i] = np.concatenate([pair, c_s[None]] if top == d else [c_s[None], pair])
    return values, rows


def _herm_o_three(alg: AlgebraDescriptor, x: np.ndarray, x2: np.ndarray, roots: np.ndarray):
    """herm_o rows with three distinct values (roots descending).

    s is the value farthest from its neighbour, with its Lagrange
    polynomial in x as idempotent c_s.  The other two, a (the middle root)
    and b, whose gap the cubic resolves only to ~sqrt(machine eps), are
    split with no division by it: w = x - s c_s - t c, with c = e - c_s and
    t their mean, is r (p - q) with r = |w| / sqrt 2 for their idempotents
    p and q.
    """
    e = unit(alg).coeffs
    top, a, bottom = roots[:, 0:1], roots[:, 1:2], roots[:, 2:3]
    near_top = top - a < a - bottom
    s, b = np.where(near_top, bottom, top), np.where(near_top, top, bottom)
    a_b = a + b
    c_s = (x2 - a_b * x + (a * b) * e) * (1.0 / ((s - a) * (s - b)))
    c = e - c_s
    mean = a_b / 2.0
    w = x - s * c_s - mean * c
    # the rounding of x, large next to w, leaves c's rank-2 algebra; w's
    # part there is 2 c * w - w plus its part along the primitive c_s
    w = 2.0 * herm_o_product_rows(c, w) - w + inner_rows(alg, w, c_s)[:, None] * c_s
    shift = trace_rows(alg, w)[:, None] / 2.0
    w = w - shift * c
    r = norm_rows(alg, w)[:, None] / math.sqrt(2.0)
    t = mean + shift
    # p and q are (c +- w / r) / 2
    c, w = c / 2.0, w / (2.0 * r)
    rows = np.empty((len(x), 3, alg.dim))
    rows[:, 0], rows[:, 1], rows[:, 2] = c_s, c + w, c - w
    return _descending(np.concatenate([s, t + r, t - r], axis=1), rows)


def _peel(alg: AlgebraDescriptor, c: np.ndarray, k: int) -> np.ndarray:
    """Split each coefficient row of c (n, dim), a trace-k idempotent, into k
    orthogonal primitives: (n, k, dim), each row's k pieces summing to it.

    The compression U_c q = 2 c * (c * q) - c * q of a primitive q is a
    multiple of a primitive below c, the multiple being tr U_c q = (q, c)
    (Alfsen & Shultz, Geometry of State Spaces of Operator Algebras, 2003).
    Each step compresses the diagonal primitive E_ii (basis row i) of
    largest (E_ii, c) = c[i], which is at least tr c / rank, divides the
    image by its trace and takes it off c; the last piece is what remains.
    Used for herm_h and herm_o, whose first `rank` basis rows are the E_ii.
    """
    pieces = np.empty((len(c), k, alg.dim))
    for j in range(k - 1):
        q = np.zeros(c.shape)
        q[np.arange(len(c)), np.argmax(c[:, : alg.rank], axis=1)] = 1.0
        cq = jordan_product_rows(alg, c, q)
        image = 2.0 * jordan_product_rows(alg, c, cq) - cq
        pieces[:, j] = image / trace_rows(alg, image)[:, None]
        c = c - pieces[:, j]
    pieces[:, -1] = c
    return pieces


def _fine_rows(alg: AlgebraDescriptor, x: np.ndarray, tol: float):
    """(values (n, r), frames (n, r, dim)) of the coefficient rows x."""
    if alg.family == "spin":
        return _fine_spin_rows(alg, x, tol)
    if alg.family == "herm_o":
        return _fine_herm_o_rows(alg, x, tol)
    return _fine_matrix_rows(alg, x, tol)


# -- the stacked decomposition -------------------------------------------------------

def _downscaled_rows(x: np.ndarray, sizes) -> tuple:
    """(y, k): the coefficient rows x with each row whose size in ``sizes``
    is not finite divided by 2**k, k the binary exponent of its largest
    coefficient (so its quotient lies below 1 in magnitude), and k = 0 for
    every other row; k has shape (n, 1).  Refuses a non-finite coefficient,
    which makes its row's size non-finite too."""
    big = ~np.isfinite(sizes)
    if not np.isfinite(x[big]).all():
        raise SpectralError("element has non-finite coefficients")
    k = np.where(big, np.frexp(np.abs(x).max(axis=1))[1], 0)[:, None]
    return np.ldexp(x, -k), k


def _scaled_back(values: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``values`` times 2**k, the shifts of `_downscaled_rows`; SpectralError
    if one overflows."""
    with np.errstate(over="ignore"):
        values = np.ldexp(values, k)
    if not np.isfinite(values).all():
        raise SpectralError("eigenvalues overflow")
    return values


@dataclass(frozen=True)
class SpectralRows:
    """Decompositions of a stack of n elements of one algebra, as arrays.

    ``eigenvalues`` (n, r) and ``frames`` (n, r, dim) hold each element's
    eigenvalues, descending, and its fine frame as coefficient rows.
    Indexing gives one element's SpectralDecomposition, whose coarse
    clusters are the runs of neighbouring eigenvalues within
    tol (1 + max |eigenvalue|) of each other, each with the mean of its
    values and the sum of its frame members.
    """

    algebra: AlgebraDescriptor
    eigenvalues: np.ndarray
    frames: np.ndarray
    tol: float

    def reconstruct(self) -> np.ndarray:
        """sum lambda_i c_i of each element, as (n, dim) coefficient rows."""
        return (self.eigenvalues[:, None, :] @ self.frames)[:, 0]

    def __getitem__(self, i) -> SpectralDecomposition:
        alg, rows = self.algebra, self.frames[i]
        frame = [EjaElement(alg, row) for row in rows]
        values = self.eigenvalues[i].tolist()
        ctol = self.tol * (1.0 + max(map(abs, values)))
        coarse, start = [], 0
        for j in range(1, len(values) + 1):
            if j < len(values) and abs(values[j] - values[j - 1]) <= ctol:
                continue
            run = values[start:j]
            # the mean, exact for equal values and free of overflow
            lam = run[0] + sum(v - run[0] for v in run[1:]) / len(run)
            idem = frame[start] if len(run) == 1 else EjaElement(alg, rows[start:j].sum(axis=0))
            coarse.append((lam, idem))
            start = j
        return SpectralDecomposition(self.eigenvalues[i], frame, coarse)


def spectral_decompose_rows(alg: AlgebraDescriptor, rows, tol: float = DEFAULT_TOL) -> SpectralRows:
    """Fine and coarse spectral decompositions of each coefficient row of
    ``rows`` (n x dim).

    Per family, over all rows at once: one stacked LAPACK eigh for sym_r,
    herm_c and herm_h, the closed form for spin, and one `_herm_o_cubic`
    with the Lagrange / near-pair split for herm_o; `_peel` runs only on
    the rows with a repeated herm_h or herm_o eigenvalue.  Each row's values
    and frame are those of that row decomposed alone.

    Eigenvalues come back descending; each reconstruction residual is
    bounded by tol*(1 + |x|).  The fine frames are a deterministic function
    of the rows.  A row whose norm overflows is decomposed as row / 2**k,
    with its eigenvalues scaled back by 2**k.  A herm_o frame whose Gram
    matrix is further than HERM_O_GRAM_TOL from I is refused, with that
    distance as the residual.  The stack is refused with the first refused
    row's SpectralError.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = np.asarray(rows, dtype=float).reshape(-1, alg.dim)
    # non-finite iff a coefficient is or the sum of squares overflows
    with np.errstate(over="ignore", invalid="ignore"):
        sizes = inner_rows(alg, x, x)
        scaled = not math.isfinite(np.add.reduce(sizes))
    if scaled:
        x, k = _downscaled_rows(x, sizes)
        sizes = inner_rows(alg, x, x)
    values, frames = _fine_rows(alg, x, tol)
    resid = norm_rows(alg, np.add.reduce(values[:, :, None] * frames, axis=1) - x)
    # written so that a NaN residual fails too
    passed = resid <= max(tol, 1e-9) * (1.0 + np.sqrt(sizes))
    if not passed.all():
        raise SpectralError("spectral reconstruction failed", residual=float(resid[~passed][0]))
    if alg.family == "herm_o":
        gram = np.maximum.reduce(np.abs(gram_rows(alg, frames) - np.eye(3)), axis=(1, 2))
        passed = gram <= HERM_O_GRAM_TOL
        if not passed.all():
            raise SpectralError("herm_o frame is not orthonormal", residual=float(gram[~passed][0]))
    if scaled:
        values = _scaled_back(values, k)
    return SpectralRows(alg, values, frames, tol)


def spectral_decompose(x: EjaElement, tol: float = DEFAULT_TOL) -> SpectralDecomposition:
    """Fine and coarse spectral decompositions of x: the one-row case of
    `spectral_decompose_rows`, with its bounds and refusals."""
    return spectral_decompose_rows(x.algebra, x.coeffs[None], tol)[0]


def eigenvalue_rows(alg: AlgebraDescriptor, rows) -> np.ndarray:
    """Eigenvalues of each coefficient row of ``rows`` (n x dim), as n x rank.

    Each row is descending and repeated by multiplicity.  Per family: the
    closed form for spin, one stacked LAPACK eigvalsh of the stored
    matrices for sym_r, herm_c and herm_h (taking every other value of a
    2m x 2m herm_h matrix, where each quaternionic eigenvalue appears
    twice), and `_herm_o_cubic` for herm_o, after one row-wise Jordan square.
    """
    x = np.asarray(rows, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        sizes = (x * x).sum(axis=1)
        # a finite total has finite terms; only a total that overflows
        # needs the row-by-row test
        scaled = not math.isfinite(sizes.sum())
        if scaled:
            x, k = _downscaled_rows(x, sizes)
        fam = alg.family
        if fam == "spin":
            n = alg.param
            t, nw = x[:, n], np.sqrt((x[:, :n] * x[:, :n]).sum(axis=1))
            vals = np.stack([t + nw, t - nw], axis=1)
        elif fam == "herm_o":
            vals = _herm_o_cubic(x, herm_o_product_rows(x), DEFAULT_TOL)
        else:
            basis, _, shape = _matrix_basis(alg)
            mats = (x @ basis).reshape((len(x),) + shape)
            vals = np.linalg.eigvalsh(mats)[:, ::-1][:, :: shape[0] // alg.param]
        if scaled:
            # the values of a row of finite norm are finite (the herm_o
            # cubic refuses its own overflows); only scaling back can overflow
            vals = _scaled_back(vals, k)
    return vals


def eigenvalues(x: EjaElement) -> np.ndarray:
    """Eigenvalues of x, descending and repeated by multiplicity, without a frame.

    The one-row case of `eigenvalue_rows`: the numbers
    `spectral_decompose(x).eigenvalues` gives, computed the same way.
    """
    return eigenvalue_rows(x.algebra, x.coeffs[None])[0]


# -- predicates ------------------------------------------------------------------

def idempotent_rows(alg: AlgebraDescriptor, rows, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Which coefficient rows c have |c * c - c| <= tol; NaN fails."""
    return norm_rows(alg, jordan_product_rows(alg, rows) - rows) <= tol


def primitive_rows(alg: AlgebraDescriptor, rows, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Which coefficient rows are primitive idempotents: in these algebras
    exactly the idempotents with |tr c - 1| <= tol."""
    return idempotent_rows(alg, rows, tol) & (np.abs(trace_rows(alg, rows) - 1.0) <= tol)


def is_idempotent(x: EjaElement, tol: float = DEFAULT_TOL) -> bool:
    """The one-row case of `idempotent_rows`."""
    return bool(idempotent_rows(x.algebra, x.coeffs[None], tol)[0])


def is_primitive_idempotent(x: EjaElement, tol: float = DEFAULT_TOL) -> bool:
    """The one-row case of `primitive_rows`."""
    return bool(primitive_rows(x.algebra, x.coeffs[None], tol)[0])


# -- random generators -------------------------------------------------------------

def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_element(alg: AlgebraDescriptor, seed) -> EjaElement:
    rng = _as_rng(seed)
    return EjaElement(alg, rng.standard_normal(alg.dim))


def random_state(alg: AlgebraDescriptor, seed) -> EjaElement:
    """A random normalized state: a unit-trace square."""
    rng = _as_rng(seed)
    y = random_element(alg, rng)
    sq = jordan_product(y, y)
    t = trace(sq)
    if t <= 0:
        raise SpectralError("degenerate random square with trace %.3e" % t)
    return sq * (1.0 / t)


def _redrawn_frames(alg: AlgebraDescriptor, draws, rng) -> np.ndarray:
    """Frames (n, r, dim) of the elements ``draws`` (n x dim), each draw
    whose eigenvalues are not distinct replaced by a fresh draw from rng.

    The whole block is decomposed at once, and a degenerate draw is redrawn
    only after it: so the stream is that of one draw and one decomposition
    per frame only when no draw is degenerate.
    """
    x = np.array(draws, dtype=float).reshape(-1, alg.dim)
    frames = np.empty((len(x), alg.rank, alg.dim))
    todo = np.arange(len(x))
    for attempt in range(RANDOM_FRAME_RETRIES):
        if attempt:
            x[todo] = rng.standard_normal((len(todo), alg.dim))
        dec = spectral_decompose_rows(alg, x[todo])
        w = dec.eigenvalues
        sep = 1e-6 * (1.0 + np.abs(w).max(axis=1))
        distinct = np.min(w[:, :-1] - w[:, 1:], axis=1, initial=np.inf) > sep
        frames[todo[distinct]] = dec.frames[distinct]
        todo = todo[~distinct]
        if not len(todo):
            return frames
    raise SpectralError("random frame retry cap (%d) exceeded" % RANDOM_FRAME_RETRIES)


def random_frame_rows(alg: AlgebraDescriptor, count: int, seed) -> np.ndarray:
    """Frames (count, r, dim) of random elements drawn as one block, each
    redrawn until its eigenvalues are distinct (see `_redrawn_frames`)."""
    rng = _as_rng(seed)
    return _redrawn_frames(alg, rng.standard_normal((count, alg.dim)), rng)


def random_jordan_frame(alg: AlgebraDescriptor, seed):
    """Frame of a random element, redrawn until eigenvalues are distinct:
    the one-row case of `random_frame_rows`."""
    return [EjaElement(alg, row) for row in random_frame_rows(alg, 1, seed)[0]]


# The float side loads as one unit.  The exact side imports symmetry only
# where a command needs it, so without this line a process could load this
# module and symmetry at different times, and code that wraps the loaded
# modules' functions once (perfbench's tracer) would miss every symmetry
# call.  symmetry imports this module, which is complete by this line.
from . import symmetry  # noqa: E402,F401
