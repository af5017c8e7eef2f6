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
* herm_o  characteristic cubic read off the entries (Freudenthal's
          determinant, no Jordan square) -> trigonometric roots, one
          `_herm_o_cubic` over all rows; of three distinct values, the
          simple one's idempotent by Lagrange interpolation in x and x * x,
          and the two nearest each other split in closed form in the rank-2
          algebra left by it

A repeated herm_h or herm_o eigenvalue has a coarse idempotent c of trace
k > 1 (the sum of its pair projectors, or its Lagrange polynomial), which
`_peel` splits into k primitives by compressions U_c of diagonal
primitives, only on the rows that have one: no random draw, so the fine
frame is a function of x alone.  The compression is the quadratic
representation (`algebra.quadratic_rows`), on herm_h the product c q c of
the stored 2m x 2m matrices.  Each row's values and frame are those of
the row decomposed alone, to rounding (on herm_o, and through
`quadratic_rows`, the last bits can depend on the number of rows), and
`spectral_decompose` is the one-row case.
A `SpectralRows` result holds the eigenvalues (n, r) and the fine frames
(n, r, dim), both read-only; indexing it gives one element's
`SpectralDecomposition`, with the coarse decomposition by distinct
eigenvalues, which is unique.

`eigenvalue_rows` returns the same numbers without building a frame: one
stacked eigvalsh for the matrix families, the closed form for spin, and
the cubic for herm_o.  `eigenvalues` is its one-row case.  Both stacked
entry points share one overflow guard: a row whose sum of squares
overflows is solved as row / 2**k (k the binary exponent of its largest
coefficient) and its eigenvalues scaled back, and a non-finite coefficient
or a scaled-back eigenvalue that overflows is refused with SpectralError,
as is an element of finite norm whose herm_o cubic coefficients or
eigenvalues overflow.

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
    element_views,
    gram_rows,
    herm_o_product_rows,
    inner_rows,
    jordan_product,
    jordan_product_rows,
    norm_rows,
    quadratic_rows,
    to_matrix_rows,
    trace,
    trace_rows,
)
from .hypercomplex import OCT_TABLE

DEFAULT_TOL = 1e-10

# Wherever a Jordan frame is checked, its members are primitive, pairwise
# trace-orthogonal and sum to the unit within this.
FRAME_TOL = 1e-8

# `random_frame_rows` draws at most this many elements per frame.
RANDOM_FRAME_RETRIES = 50

# A herm_o frame further than this from orthonormal is refused.  A pair the
# cubic merges leaves a frame orthonormal to ~5e-8 that rebuilds x exactly.
HERM_O_GRAM_TOL = 1e-6
_EYE3 = np.eye(3)

# the herm_o unit: the diagonal basis members come first
_HERM_O_UNIT = np.zeros(27)
_HERM_O_UNIT[:3] = 1.0
_HERM_O_UNIT.flags.writeable = False


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
    proj = vecs.swapaxes(-1, -2) @ vecs.conj()
    rows = (proj.reshape(-1, dual.shape[1]) @ dual.T).real
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
    w, v = np.linalg.eigh(to_matrix_rows(alg, x))
    w, vecs = w[:, ::-1], v.swapaxes(1, 2)[:, ::-1]
    if alg.family != "herm_h":
        return w, _projector_rows(alg, vecs[:, :, None, :])
    pairs = _projector_rows(alg, vecs.reshape(len(x), alg.param, 2, vecs.shape[-1]))
    # neighbouring pair values within tol (1 + max |value|) form a cluster
    ctol = tol * (1.0 + np.maximum.reduce(np.abs(w), axis=1, keepdims=True))
    joined = w[:, :-2:2] - w[:, 2::2] <= ctol
    if joined.any():
        peeled = {}  # cluster size -> [(row, cluster slice)]
        for i in joined.any(axis=1).nonzero()[0]:
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


_PLUS_MINUS = np.array([1.0, -1.0])


def _fine_spin_rows(alg: AlgebraDescriptor, x: np.ndarray, tol: float):
    """spin: (w, t) has eigenvalues t +- |w| with idempotents
    ((+-w/|w|)/2, 1/2); a w within tol (1 + |t| + |w|) of 0 splits along
    the first axis."""
    n = alg.param
    w, t = x[:, :n], x[:, n:]
    nw = np.sqrt(np.add.reduce(w * w, axis=1, keepdims=True))
    whole = nw <= tol * (1.0 + np.abs(t) + nw)
    # a whole row divides by 2 (|w| + 1), not by 0, and is overwritten
    half = w / (2.0 * (nw + whole))
    if whole.any():
        half[whole[:, 0]] = np.eye(n)[0] / 2.0
    rows = np.empty((len(x), 2, n + 1))
    rows[:, 0, :n], rows[:, 1, :n], rows[:, :, n] = half, -half, 0.5
    # the eigenvalues t + |w| and t - |w|
    return t + nw * _PLUS_MINUS, rows


# cos(theta - 2 pi k / 3), k = 0, 1, 2, gives the three trigonometric roots
_THIRD_TURNS = 2.0 * np.pi * np.arange(3) / 3.0

# The octonion table as an (8, 64) map of the first factor, over sqrt 2: for
# coefficient blocks u, v, w of X12, X23, X13, v^T (u @ it) w is 2 <X12 X23, X13>
_OCT_TRIPLE = OCT_TABLE.reshape(8, 64) / math.sqrt(2.0)


def _herm_o_coefficients(x: np.ndarray) -> tuple:
    """(e1, e2, e3), columns (n, 1) of the coefficients of the characteristic
    cubic z^3 - e1 z^2 + e2 z - e3 of each herm_o coefficient row, read off
    its entries with no Jordan square.

    With a, b, c the diagonal and X12, X13, X23 = x[3:11], x[11:19],
    x[19:27] / sqrt 2 the octonion entries:

        e1 = a + b + c
        e2 = ab + bc + ca - |X12|^2 - |X13|^2 - |X23|^2 = (e1^2 - |x|^2) / 2
        e3 = abc - a |X23|^2 - b |X13|^2 - c |X12|^2 + 2 <X12 X23, X13>

    e3 is Freudenthal's determinant of Herm(3, O) (Faraut & Korányi,
    Analysis on Symmetric Cones, 1994, ch. II): one octonion product per
    row, 512 multiply-adds against 27^3 for the square.
    """
    d, o = x[:, :3], x[:, 3:].reshape(-1, 3, 8)
    # the octonion product first: its (n, 64) temporary is freed before the
    # squares are allocated, which keeps a 1024-row block's peak down
    triple = o[:, 2, None] @ (o[:, 0] @ _OCT_TRIPLE).reshape(-1, 8, 8) @ o[:, 1, :, None]
    xx = x * x
    # 2 |X12|^2, 2 |X13|^2, 2 |X23|^2, reversed to face a, b, c
    opposite = np.add.reduce(xx[:, 3:].reshape(-1, 3, 8), axis=2)[:, ::-1]
    e1 = np.add.reduce(d, axis=1, keepdims=True)
    return (
        e1,
        (e1 * e1 - np.add.reduce(xx, axis=1, keepdims=True)) / 2.0,
        np.multiply.reduce(d, axis=1, keepdims=True)
        - np.add.reduce(d * opposite, axis=1, keepdims=True) / 2.0
        + triple[:, 0],
    )


def _herm_o_cubic(x: np.ndarray, tol: float) -> np.ndarray:
    """Eigenvalues of herm_o coefficient rows x, shape (n, 3).

    Each row holds the roots of its cubic (`_herm_o_coefficients`),
    descending: with c = e1/3 and h = c^2 - e2/3, the trigonometric roots
    c + 2 sqrt(h) cos(theta - 2 pi k / 3), k = 0, 1, 2, which descend in k
    for theta in [0, pi/3] (up to rounding at a tie, which the cluster
    floor below catches); h <= 0 gives c three times.  The trigonometric
    roots resolve a double root only to ~sqrt(machine eps), so clusters
    are detected with that floor: a triple cluster becomes c,
    and a double one the root c +- sqrt(h) of the cubic's derivative
    nearest its mean (a well-conditioned simple quadratic root), or the
    mean itself if that root is more than 1e-6 (1 + max |root|) away.
    """
    # where a coefficient overflows, so does mq, and the finiteness test
    # refuses the row
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        e1, e2, e3 = _herm_o_coefficients(x)
        c = e1 / 3.0
        cc = c * c
        h = cc - e2 / 3.0
        # minus the depressed cubic's constant term, e3 - c (e2 - 2 c^2)
        mq = e3 - c * (e2 - 2.0 * cc)
        root = np.sqrt(np.fmax(h, 0.0))
        mfac = 2.0 * root
        # fmin/fmax send the 0/0 of an underflowed or non-positive h to -1
        arg = np.fmin(1.0, np.fmax(-1.0, mq / (mfac * h)))
        roots = c + mfac * np.cos(np.arccos(arg) / 3.0 - _THIRD_TURNS)
        if not np.isfinite(roots + mq).all():
            raise SpectralError("eigenvalues overflow")
        scale = 1.0 + np.maximum.reduce(np.abs(roots), axis=1, keepdims=True)
        near = roots[:, :2] - roots[:, 1:] <= max(tol, 4e-8) * scale
        if not near.any():
            return roots
        # per adjacent pair of roots, the derivative root on the side of c
        # their mean is on, or the mean if that root is too far
        means = (roots[:, :2] + roots[:, 1:]) / 2.0
        pair = c + np.copysign(root, means - c)
        pair = np.where(np.abs(pair - means) > 1e-6 * scale, means, pair)
    # a near bottom pair, then a near top pair, then a near triple
    top, bottom = near[:, :1], near[:, 1:]
    vals = np.where(bottom, np.concatenate([roots[:, :1], pair[:, 1:], pair[:, 1:]], axis=1), roots)
    vals = np.where(top, np.concatenate([pair[:, :1], pair[:, :1], vals[:, 2:]], axis=1), vals)
    vals = np.where(top & bottom, c, vals)
    vals.sort(axis=1)
    return vals[:, ::-1]


def _fine_herm_o_rows(alg: AlgebraDescriptor, x: np.ndarray, tol: float):
    """herm_o: the values of the cubic, which sets a cluster's members equal.

    Three distinct values are split by `_herm_o_three`, all rows at once;
    only those rows form the Jordan square x * x.
    A row with a repeated value is split on its own: three equal values
    split the unit by `_peel`; of two, the simple value s takes
    c_s = (x - d e) / (s - d) as idempotent and the repeated value d's
    idempotent e - c_s is split by `_peel`.
    """
    values = _herm_o_cubic(x, tol)
    equal = values[:, :2] == values[:, 1:]
    if not equal.any():
        return _herm_o_three(alg, x, values)
    repeated = equal.any(axis=1)
    rows = np.empty((len(x), 3, alg.dim))
    if not repeated.all():
        simple = ~repeated
        values[simple], rows[simple] = _herm_o_three(alg, x[simple], values[simple])
    e = _HERM_O_UNIT
    for i in repeated.nonzero()[0]:
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


def _herm_o_three(alg: AlgebraDescriptor, x: np.ndarray, roots: np.ndarray):
    """herm_o rows with three distinct values (roots descending).

    s is the value farthest from its neighbour, with its Lagrange
    polynomial in x as idempotent c_s.  The other two, a (the middle root)
    and b, whose gap the cubic resolves only to ~sqrt(machine eps), are
    split with no division by it: w = x - s c_s - t c, with c = e - c_s and
    t their mean, is r (p - q) with r = |w| / sqrt 2 for their idempotents
    p and q.
    """
    e = _HERM_O_UNIT
    a = roots[:, 1:2]
    # (s, b): (bottom, top) where a is nearer the top, else (top, bottom)
    sb = np.where(roots[:, :1] - a < a - roots[:, 2:], roots[:, ::-2], roots[:, ::2])
    s, b = sb[:, :1], sb[:, 1:]
    a_b = a + b
    c_s = (herm_o_product_rows(x) - a_b * x + (a * b) * e) * (1.0 / ((s - a) * (s - b)))
    c = e - c_s
    mean = a_b / 2.0
    w = x - s * c_s - mean * c
    # the rounding of x, large next to w, leaves c's rank-2 algebra; w's
    # part there is 2 c * w - w plus its part along the primitive c_s
    w = 2.0 * herm_o_product_rows(c, w) - w + np.add.reduce(w * c_s, axis=1, keepdims=True) * c_s
    # half the trace, the sum of the diagonal coefficients
    shift = np.add.reduce(w[:, :3], axis=1, keepdims=True) / 2.0
    w = w - shift * c
    r = np.sqrt(np.add.reduce(w * w, axis=1, keepdims=True)) / math.sqrt(2.0)
    t = mean + shift
    # p and q are (c +- w / r) / 2
    c, w = c / 2.0, w / (2.0 * r)
    rows = np.concatenate([c_s, c + w, c - w], axis=1).reshape(-1, 3, alg.dim)
    return _descending(np.concatenate([s, t + r, t - r], axis=1), rows)


def _peel(alg: AlgebraDescriptor, c: np.ndarray, k: int) -> np.ndarray:
    """Split each coefficient row of c (n, dim), a trace-k idempotent, into k
    orthogonal primitives: (n, k, dim), each row's k pieces summing to it.

    The compression U_c q (`quadratic_rows`: c q c on the stored matrices)
    of a primitive q is a multiple of a primitive below c, the multiple
    being tr U_c q = (q, c) (Alfsen & Shultz, Geometry of State Spaces of
    Operator Algebras, 2003).  Each step compresses the diagonal primitive
    E_ii (basis row i) of largest (E_ii, c) = c[i], which is at least
    tr c / rank, divides the image by its trace and takes it off c; the last
    piece is what remains.  Spin's only idempotent of trace 2 is the unit,
    which splits along the first axis as in `_fine_spin_rows`.  The one
    idempotent splitter: of repeated herm_h and herm_o eigenvalues, and of
    the remainder of a partial frame in `symmetry._extended_rows`.
    """
    pieces = np.empty((len(c), k, alg.dim))
    for j in range(k - 1):
        q = np.zeros(c.shape)
        if alg.family == "spin":
            q[:, 0], q[:, -1] = 0.5, 0.5
        else:
            q[np.arange(len(c)), c[:, : alg.rank].argmax(axis=1)] = 1.0
        image = quadratic_rows(alg, c, q)
        pieces[:, j] = image / trace_rows(alg, image)[:, None]
        c = c - pieces[:, j]
    if k:
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
    eigenvalues, descending, and its fine frame as coefficient rows; both
    are read-only.  Indexing gives one element's SpectralDecomposition,
    whose eigenvalues and frame members are read-only views of these rows,
    and whose coarse clusters are the runs of neighbouring eigenvalues
    within tol (1 + max |eigenvalue|) of each other, each with the mean of
    its values and the sum of its frame members.
    """

    algebra: AlgebraDescriptor
    eigenvalues: np.ndarray
    frames: np.ndarray
    tol: float

    def reconstruct(self) -> np.ndarray:
        """sum lambda_i c_i of each element, as (n, dim) coefficient rows."""
        return (self.eigenvalues[:, None, :] @ self.frames)[:, 0]

    def __getitem__(self, i) -> SpectralDecomposition:
        alg, rows, eigenvalues = self.algebra, self.frames[i], self.eigenvalues[i]
        frame = element_views(alg, rows)
        values = eigenvalues.tolist()
        ctol = self.tol * (1.0 + max(map(abs, values)))
        if not any(abs(a - b) <= ctol for a, b in zip(values, values[1:])):
            # every value simple: each is its own cluster
            return SpectralDecomposition(eigenvalues, frame, list(zip(values, frame)))
        coarse, start = [], 0
        for j in range(1, len(values) + 1):
            if j < len(values) and abs(values[j] - values[j - 1]) <= ctol:
                continue
            run = values[start:j]
            # the mean, exact for equal values and free of overflow
            lam = run[0] + sum(v - run[0] for v in run[1:]) / len(run)
            idem = frame[start] if len(run) == 1 else EjaElement(alg, np.add.reduce(rows[start:j]))
            coarse.append((lam, idem))
            start = j
        return SpectralDecomposition(eigenvalues, frame, coarse)


def spectral_decompose_rows(alg: AlgebraDescriptor, rows, tol: float = DEFAULT_TOL) -> SpectralRows:
    """Fine and coarse spectral decompositions of each coefficient row of
    ``rows`` (n x dim).

    Per family, over all rows at once: one stacked LAPACK eigh for sym_r,
    herm_c and herm_h, the closed form for spin, and one `_herm_o_cubic`
    with the Lagrange / near-pair split for herm_o; `_peel` runs only on
    the rows with a repeated herm_h or herm_o eigenvalue.  Each row's values
    and frame are those of that row decomposed alone, to rounding: on
    herm_o, and in the compressions of `algebra.quadratic_rows`, the last
    bits can depend on how many rows the stack holds.

    Eigenvalues come back descending; each reconstruction residual is
    bounded by tol*(1 + |x|).  The fine frames are a deterministic function
    of the rows.  A row whose norm overflows is decomposed as row / 2**k,
    with its eigenvalues scaled back by 2**k; one max |x| test keeps every
    other stack off that route.  A herm_o frame whose Gram matrix is
    further than HERM_O_GRAM_TOL from I is refused, with that distance as
    the residual.  The stack is refused with the first refused row's
    SpectralError.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = np.asarray(rows, dtype=float).reshape(-1, alg.dim)
    # no sum of squares, at most 2 dim max |x|^2, overflows below this
    # bound, and a non-finite coefficient fails it; a Python float product
    # overflows to inf without a warning
    top = float(np.maximum.reduce(np.abs(x), axis=None, initial=0.0))
    scaled = not 2.0 * alg.dim * top * top < math.inf
    if scaled:
        # non-finite iff a coefficient is or the sum of squares overflows
        with np.errstate(over="ignore", invalid="ignore"):
            sizes = inner_rows(alg, x, x)
        x, k = _downscaled_rows(x, sizes)
    values, frames = _fine_rows(alg, x, tol)
    # each row's residual |sum lambda_i c_i - x| and size |x|, in one norm
    pairs = np.concatenate([(values[:, None, :] @ frames)[:, 0] - x, x], axis=1)
    resid, size = norm_rows(alg, pairs.reshape(-1, 2, alg.dim)).T
    # written so that a NaN residual fails too
    passed = resid <= max(tol, 1e-9) * (1.0 + size)
    if not passed.all():
        raise SpectralError("spectral reconstruction failed", residual=float(resid[~passed][0]))
    if alg.family == "herm_o":
        gram = np.maximum.reduce(np.abs(gram_rows(alg, frames) - _EYE3), axis=(1, 2))
        passed = gram <= HERM_O_GRAM_TOL
        if not passed.all():
            raise SpectralError("herm_o frame is not orthonormal", residual=float(gram[~passed][0]))
    if scaled:
        values = _scaled_back(values, k)
    values.flags.writeable = frames.flags.writeable = False
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
    twice), and `_herm_o_cubic` for herm_o, which forms no Jordan product.
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
            vals = _herm_o_cubic(x, DEFAULT_TOL)
        else:
            mats = to_matrix_rows(alg, x)
            vals = np.linalg.eigvalsh(mats)[:, ::-1][:, :: mats.shape[1] // alg.param]
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
