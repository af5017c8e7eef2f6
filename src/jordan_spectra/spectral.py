"""Spectral decomposition across the five families.

Solver strategy:

* sym_r   LAPACK eigh on the real symmetric matrix
* herm_c  LAPACK eigh on the complex Hermitian matrix
* herm_h  LAPACK eigh on the 2m x 2m complex matrix that stores x; each
          quaternionic eigenline shows up as a J-paired doublet (J = the
          embedded j unit), so idempotents come from pairing eigenvectors v
          with their twins J conj(v)
* spin    closed form: (x, t) has eigenvalues t +- |x| with idempotents
          ((+-x/|x|)/2, 1/2); x = 0 keeps the coarse part [(t, e)] and splits
          the fine frame along a fixed axis
* herm_o  Newton identities -> characteristic cubic -> trigonometric roots;
          idempotents by Lagrange interpolation in Jordan powers of x, with
          repeated eigenvalues refined through the quadratic representation

`eigenvalue_rows` returns the same numbers without building a frame, for a
stack of coefficient rows at once: one stacked eigvalsh for the matrix
families, the closed form for spin, and the cubic evaluated elementwise
over the rows for herm_o (the one cubic `spectral_decompose` reads too).
`eigenvalues` is its one-row case.  Elements with non-finite coefficients
are refused with SpectralError.  An element whose norm overflows is solved
as x / 2**k (k the binary exponent of its largest coefficient) and its
eigenvalues scaled back; it is refused when a scaled-back eigenvalue
overflows, and so is an element of finite norm whose herm_o power traces or
eigenvalues overflow.

A decomposition carries the fine frame (not canonical when eigenvalues
repeat) and the coarse decomposition by distinct eigenvalues, which is
unique.  Every decomposition builds its fine frame as one (r, dim) array
of coefficient rows.  `is_idempotent` and `is_primitive_idempotent` are the
one-row cases of `idempotent_rows` and `primitive_rows`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraDescriptor,
    EjaElement,
    _matrix_basis,
    coefficient_rows,
    herm_o_product_rows,
    inner,
    j_twin,
    jordan_product,
    jordan_product_rows,
    norm,
    norm_rows,
    quadratic_rep,
    to_matrix,
    trace,
    trace_rows,
    unit,
)

DEFAULT_TOL = 1e-10


class SpectralError(RuntimeError):
    """Non-finite input, a failed reconstruction, or a refinement retry cap hit."""

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


# -- per-family fine decompositions ---------------------------------------------

def _eigh_descending(a: np.ndarray):
    """LAPACK eigh with eigenvalues (and eigenvector columns) descending."""
    w, v = np.linalg.eigh(a)
    return w[::-1], v[:, ::-1]


def _projector_rows(alg: AlgebraDescriptor, vecs: np.ndarray) -> np.ndarray:
    """Coefficient rows (k, dim) of the projectors onto the spans of a stack
    of orthonormal vector blocks (k, j, size), sum v v^H over each block's
    j vectors; each row is the same floats as projecting its one projector
    on its own."""
    _, dual, _ = _matrix_basis(alg)
    proj = (vecs[:, :, :, None] * np.conj(vecs[:, :, None, :])).sum(axis=1)
    rows = np.real(dual @ proj.reshape(len(vecs), -1, 1))[:, :, 0]
    return np.ascontiguousarray(rows)


def _fine_matrix(x: EjaElement):
    """sym_r and herm_c: the frame is v v^H over the eigenvectors of x."""
    w, v = _eigh_descending(to_matrix(x))
    return w, _projector_rows(x.algebra, v.T[:, None, :])


def _fine_herm_h(x: EjaElement, tol: float):
    w, v = _eigh_descending(to_matrix(x))
    ctol = tol * (1.0 + float(np.max(np.abs(w))))
    # cluster the 2m eigenvalues, then peel J-pairs inside each cluster
    pairs = []
    for idx in _cluster_indices(w, ctol):
        cols = v[:, idx]
        while cols.shape[1] > 0:
            vec = cols[:, 0]
            twin = j_twin(vec)
            # twin is an eigenvector of the same eigenvalue, orthogonal to vec
            twin = twin - vec * np.vdot(vec, twin)
            nrm = np.linalg.norm(twin)
            if nrm < 0.5:
                raise SpectralError("quaternionic J-pairing degenerated", residual=nrm)
            twin = twin / nrm
            pairs.append((vec, twin))
            # remove the pair from the cluster basis; no singular value of
            # the rest exceeds its Frobenius norm, so at most 0.5 leaves none
            rest = cols - np.outer(vec, np.conj(vec) @ cols) - np.outer(
                twin, np.conj(twin) @ cols
            )
            if np.vdot(rest, rest).real <= 0.25:
                break
            u_mat, sv, _ = np.linalg.svd(rest, full_matrices=False)
            cols = u_mat[:, sv > 0.5]
    rows = _projector_rows(x.algebra, np.array(pairs))
    # the basis is orthonormal for the trace form: the values are (x, c),
    # one dot product each, so a tie within a cluster orders as `inner` does
    return [np.dot(x.coeffs, row) for row in rows], rows


def _fine_spin(x: EjaElement, tol: float):
    n = x.algebra.param
    w, t = x.coeffs[:n], float(x.coeffs[n])
    nw = float(np.linalg.norm(w))
    ctol = tol * (1.0 + abs(t) + nw)
    if nw <= ctol:
        axis = np.zeros(n)
        axis[0] = 1.0
    else:
        axis = w / nw
    rows = np.full((2, n + 1), 0.5)
    rows[0, :n] = axis / 2.0
    rows[1, :n] = -axis / 2.0
    return [t + nw, t - nw], rows


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
            x[:, :3].sum(axis=1), (x * x).sum(axis=1), (x2 * x).sum(axis=1)
        )
        p = e2 - e1 * e1 / 3.0
        q = -2.0 * e1 * e1 * e1 / 27.0 + e1 * e2 / 3.0 - e3
        mfac = 2.0 * np.sqrt(-p / 3.0)
        # fmin/fmax send the 0/0 of an underflowed p to -1
        arg = np.fmin(1.0, np.fmax(-1.0, 3.0 * q / (p * mfac)))
        trig = mfac[:, None] * np.cos(np.arccos(arg)[:, None] / 3.0 - _THIRD_TURNS)
        offsets = np.where((p >= 0.0)[:, None], np.cbrt(-q)[:, None], trig)
        e1 = e1[:, None]
        roots = np.sort(e1 / 3.0 + offsets, axis=1)[:, ::-1]
        if not np.isfinite(roots + q[:, None]).all():
            raise SpectralError("eigenvalues overflow")
        scale = 1.0 + np.abs(roots).max(axis=1, keepdims=True)
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


def _herm_o_values(x: EjaElement, x2: EjaElement, tol: float) -> list:
    """Distinct eigenvalues [(value, multiplicity)] of x (with x2 = x * x),
    descending, read from `_herm_o_cubic`, which sets a cluster's members equal."""
    row = _herm_o_cubic(x.coeffs[None], x2.coeffs[None], tol)[0]
    return [(v, len(list(run))) for v, run in itertools.groupby(row.tolist())]


def _herm_o_coarse(x: EjaElement, tol: float):
    """Coarse pieces [(value, multiplicity, idempotent)] via the cubic.

    Idempotents are Lagrange interpolation polynomials in x evaluated at the
    distinct eigenvalues.
    """
    e = unit(x.algebra)
    x2 = jordan_product(x, x)
    vals = _herm_o_values(x, x2, tol)
    out = []
    if len(vals) == 1:
        lam, _ = vals[0]
        out.append((lam, 3, e))
    elif len(vals) == 2:
        # x - d*e = (s - d) c_s for the simple value s and repeated value d
        (v1, m1), (v2, m2) = vals
        s, d = (v1, v2) if m1 == 1 else (v2, v1)
        c_single = (x - d * e) * (1.0 / (s - d))
        pieces = {s: (1, c_single), d: (2, e - c_single)}
        for lam, _ in vals:
            mult, idem = pieces[lam]
            out.append((lam, mult, idem))
    else:
        for i, (lam, _) in enumerate(vals):
            others = [vals[j][0] for j in range(3) if j != i]
            numer = x2 - (others[0] + others[1]) * x + (others[0] * others[1]) * e
            idem = numer * (1.0 / ((lam - others[0]) * (lam - others[1])))
            out.append((lam, 1, idem))
    return out


def _fine_herm_o(x: EjaElement, tol: float, seed: int):
    values, frame = [], []
    for lam, mult, idem in _herm_o_coarse(x, tol):
        if mult == 1:
            values.append(lam)
            frame.append(idem)
        else:
            # at most one eigenvalue of a rank-3 algebra repeats
            rng = np.random.default_rng(seed)
            for piece in _refine_idempotent(idem, mult, tol, rng):
                values.append(lam)
                frame.append(piece)
    return values, coefficient_rows(frame)


def _refine_idempotent(c: EjaElement, k: int, tol: float, rng: np.random.Generator):
    """Split a trace-k herm_o idempotent into k primitives.

    Conjugates a random element into the Peirce 1-space of c via U_c; a
    generic draw has k distinct nonzero eigenvalues there, whose primitive
    idempotents decompose c.  Retries on degenerate draws.
    """
    alg = c.algebra
    for _ in range(60):
        y = random_element(alg, rng)
        z = quadratic_rep(c, y)
        pieces = []
        ok = True
        for lam, _, d in _herm_o_coarse(z, tol):
            s = inner(d, c)
            t = trace(d)
            if abs(s - t) <= 1e-6 * (1.0 + abs(t)):
                if abs(t - 1.0) > 1e-6:
                    ok = False  # a repeated eigenvalue inside the face
                    break
                if abs(lam) > 1e-9:
                    pieces.append(d)
                else:
                    ok = False  # eigenvalue collapsed onto the outside cluster
                    break
            elif abs(s) > 1e-6:
                ok = False  # piece straddles the face boundary
                break
        if ok and len(pieces) == k:
            total = EjaElement(alg, coefficient_rows(pieces).sum(axis=0))
            if norm(total - c) <= 1e-7 * (1.0 + norm(c)):
                return pieces
    raise SpectralError("idempotent refinement retry cap exceeded for trace %d" % k)


def _fine_for(x: EjaElement, tol: float, seed: int):
    """(values, frame rows): the fine frame as an (r, dim) coefficient array."""
    fam = x.algebra.family
    if fam in ("sym_r", "herm_c"):
        return _fine_matrix(x)
    if fam == "herm_h":
        return _fine_herm_h(x, tol)
    if fam == "spin":
        return _fine_spin(x, tol)
    return _fine_herm_o(x, tol, seed)


# -- clustering and assembly -----------------------------------------------------

def _cluster_indices(values: np.ndarray, ctol: float):
    """Group indices of a descending value list into clusters within ctol."""
    clusters = []
    current = [0] if len(values) else []
    for i in range(1, len(values)):
        if abs(values[i] - values[current[-1]]) <= ctol:
            current.append(i)
        else:
            clusters.append(current)
            current = [i]
    if current:
        clusters.append(current)
    return clusters


def _require_finite(values: list, message: str):
    """Raise SpectralError unless every float in ``values`` is finite.

    A finite sum has finite terms, so only a sum that overflows needs the
    term-by-term test; on a few Python floats this beats a numpy call.
    """
    if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
        raise SpectralError(message)


def _size(x: EjaElement) -> float:
    """|x| without an overflow warning: non-finite iff a coefficient is or
    the sum of squares overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return norm(x)


def _downscaled(x: EjaElement):
    """(x / 2**k, k) for an x whose norm overflows; refuses non-finite x.

    k is the binary exponent of the largest coefficient, so the quotient's
    coefficients lie below 1 in magnitude.
    """
    _require_finite(x.coeffs.tolist(), "element has non-finite coefficients")
    k = math.frexp(float(np.max(np.abs(x.coeffs))))[1]
    return EjaElement(x.algebra, np.ldexp(x.coeffs, -k)), k


def _upscaled(values, k: int) -> list:
    """The floats ``values`` times 2**k; SpectralError if one overflows."""
    try:
        return [math.ldexp(v, k) for v in values]
    except OverflowError:
        raise SpectralError("eigenvalues overflow") from None


def spectral_decompose(
    x: EjaElement, tol: float = DEFAULT_TOL, seed: int = 0xA5
) -> SpectralDecomposition:
    """Fine and coarse spectral decompositions of x.

    Eigenvalues come back descending; the reconstruction residual is bounded
    by tol*(1 + |x|).  `seed` only steers the non-canonical fine splitting of
    repeated eigenvalues.  An x whose norm overflows is decomposed as
    x / 2**k, with its eigenvalues scaled back by 2**k.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    size = _size(x)
    if not math.isfinite(size):
        y, k = _downscaled(x)
        dec = spectral_decompose(y, tol, seed)
        values = _upscaled(dec.eigenvalues.tolist(), k)
        lams = _upscaled([lam for lam, _ in dec.coarse], k)
        coarse = [(lam, idem) for lam, (_, idem) in zip(lams, dec.coarse)]
        return SpectralDecomposition(np.asarray(values), dec.frame, coarse)
    values, rows = _fine_for(x, tol, seed)
    values = [float(v) for v in values]
    order = sorted(range(len(values)), key=lambda i: -values[i])
    values = [values[i] for i in order]
    w = np.asarray(values)
    rows = rows[order]
    alg = x.algebra
    frame = [EjaElement(alg, row) for row in rows]
    ctol = tol * (1.0 + max(map(abs, values)))
    coarse = []
    for idx in _cluster_indices(values, ctol):
        lam = sum(values[i] for i in idx) / len(idx)
        if len(idx) == 1:
            coarse.append((lam, frame[idx[0]]))
        else:
            coarse.append((lam, EjaElement(alg, rows[idx].sum(axis=0))))
    resid = float(norm_rows(alg, (w @ rows - x.coeffs)[None])[0])
    # written so that a NaN residual fails too
    if not resid <= max(tol, 1e-9) * (1.0 + size):
        raise SpectralError("spectral reconstruction failed", residual=resid)
    return SpectralDecomposition(w, frame, coarse)


def eigenvalue_rows(alg: AlgebraDescriptor, rows) -> np.ndarray:
    """Eigenvalues of each coefficient row of ``rows`` (n x dim), as n x rank.

    Each row is descending and repeated by multiplicity.  Per family: the
    closed form for spin, one stacked LAPACK eigvalsh of the stored
    matrices for sym_r, herm_c and herm_h (taking every other value of a
    2m x 2m herm_h matrix, where each quaternionic eigenvalue appears
    twice), and `_herm_o_cubic` for herm_o, after one row-wise Jordan square.
    A row whose norm overflows is solved as row / 2**k and scaled back.
    """
    x = np.asarray(rows, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        sizes = (x * x).sum(axis=1)
        # a finite total has finite terms; only a total that overflows
        # needs the row-by-row test
        scaled = not math.isfinite(sizes.sum())
        if scaled:
            big = ~np.isfinite(sizes)
            if not np.isfinite(x[big]).all():
                raise SpectralError("element has non-finite coefficients")
            shift = np.frexp(np.abs(x[big]).max(axis=1))[1][:, None]
            x = x.copy()
            x[big] = np.ldexp(x[big], -shift)
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
            vals[big] = np.ldexp(vals[big], shift)
            if not np.isfinite(vals).all():
                raise SpectralError("eigenvalues overflow")
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


def random_jordan_frame(alg: AlgebraDescriptor, seed, retries: int = 50):
    """Frame of a random element, retried until eigenvalues are distinct."""
    rng = _as_rng(seed)
    for _ in range(retries):
        x = random_element(alg, rng)
        dec = spectral_decompose(x)
        w = dec.eigenvalues
        sep = 1e-6 * (1.0 + float(np.max(np.abs(w))))
        if len(w) < 2 or float(np.min(w[:-1] - w[1:])) > sep:
            return dec.frame
    raise SpectralError("random frame retry cap (%d) exceeded" % retries)
