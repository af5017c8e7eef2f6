"""Spectral decomposition across the five families.

Solver strategy:

* sym_r   LAPACK eigh on the real symmetric matrix
* herm_c  LAPACK eigh on the complex Hermitian matrix
* herm_h  LAPACK eigh on the 2m x 2m embedded matrix; each quaternionic
          eigenline shows up as a J-paired doublet (J = the embedded j unit),
          so idempotents come from pairing eigenvectors v with J conj(v)
* spin    closed form: (x, t) has eigenvalues t +- |x| with idempotents
          ((+-x/|x|)/2, 1/2); x = 0 keeps the coarse part [(t, e)] and splits
          the fine frame along a fixed axis
* herm_o  Newton identities -> characteristic cubic -> trigonometric roots;
          idempotents by Lagrange interpolation in Jordan powers of x, with
          repeated eigenvalues refined through the quadratic representation

`eigenvalues` returns the same numbers without building a frame.  Elements
with non-finite coefficients are refused with SpectralError.  An element
whose norm overflows is solved as x / 2**k (k the binary exponent of its
largest coefficient) and its eigenvalues scaled back; it is refused when a
scaled-back eigenvalue overflows, and so is an element of finite norm whose
herm_o power traces or eigenvalues overflow.

A decomposition carries the fine frame (not canonical when eigenvalues
repeat) and the coarse decomposition by distinct eigenvalues, which is
unique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraDescriptor,
    EjaElement,
    _embed_quat_matrix,
    _unembed_quat_matrix,
    from_matrix,
    inner,
    jordan_product,
    norm,
    quadratic_rep,
    to_matrix,
    trace,
    unit,
    zero,
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
        alg = self.frame[0].algebra
        out = zero(alg)
        for lam, c in zip(self.eigenvalues, self.frame):
            out = out + float(lam) * c
        return out


# -- per-family fine decompositions ---------------------------------------------

def _eigh_descending(a: np.ndarray):
    """LAPACK eigh with eigenvalues (and eigenvector columns) descending."""
    w, v = np.linalg.eigh(a)
    return w[::-1], v[:, ::-1]


def _fine_matrix(x: EjaElement):
    """sym_r and herm_c: the frame is v v^H over the eigenvectors of x."""
    w, v = _eigh_descending(to_matrix(x))
    frame = [
        from_matrix(x.algebra, np.outer(v[:, i], np.conj(v[:, i])))
        for i in range(len(w))
    ]
    return list(w), frame


def _j_matrix(m: int) -> np.ndarray:
    j = np.zeros((2 * m, 2 * m))
    for i in range(m):
        j[2 * i, 2 * i + 1] = 1.0
        j[2 * i + 1, 2 * i] = -1.0
    return j


def _fine_herm_h(x: EjaElement, tol: float):
    alg = x.algebra
    m = alg.param
    w, v = _eigh_descending(_embed_quat_matrix(to_matrix(x)))
    jmat = _j_matrix(m)
    ctol = tol * (1.0 + float(np.max(np.abs(w))))
    # cluster the 2m eigenvalues, then peel J-pairs inside each cluster
    clusters = _cluster_indices(w, ctol)
    values, frame = [], []
    for idx in clusters:
        cols = v[:, idx]
        while cols.shape[1] > 0:
            vec = cols[:, 0]
            twin = jmat @ np.conj(vec)
            # twin is an eigenvector of the same eigenvalue, orthogonal to vec
            twin = twin - vec * np.vdot(vec, twin)
            nrm = np.linalg.norm(twin)
            if nrm < 0.5:
                raise SpectralError("quaternionic J-pairing degenerated", residual=nrm)
            twin = twin / nrm
            proj = np.outer(vec, np.conj(vec)) + np.outer(twin, np.conj(twin))
            c = from_matrix(alg, _unembed_quat_matrix(proj))
            frame.append(c)
            values.append(inner(x, c))
            # remove the pair from the cluster basis
            rest = cols - np.outer(vec, np.conj(vec) @ cols) - np.outer(
                twin, np.conj(twin) @ cols
            )
            u_mat, sv, _ = np.linalg.svd(rest, full_matrices=False)
            cols = u_mat[:, sv > 0.5]
    order = np.argsort(-np.asarray(values), kind="stable")
    return [values[i] for i in order], [frame[i] for i in order]


def _fine_spin(x: EjaElement, tol: float):
    alg = x.algebra
    n = alg.param
    w, t = x.coeffs[:n], float(x.coeffs[n])
    nw = float(np.linalg.norm(w))
    ctol = tol * (1.0 + abs(t) + nw)
    if nw <= ctol:
        axis = np.zeros(n)
        axis[0] = 1.0
    else:
        axis = w / nw
    cp = np.concatenate([axis / 2.0, [0.5]])
    cm = np.concatenate([-axis / 2.0, [0.5]])
    return [t + nw, t - nw], [EjaElement(alg, cp), EjaElement(alg, cm)]


def _char_cubic_roots(e1: float, e2: float, e3: float) -> list:
    """Real roots of z^3 - e1 z^2 + e2 z - e3, descending."""
    p = e2 - e1 * e1 / 3.0
    q = -2.0 * e1 * e1 * e1 / 27.0 + e1 * e2 / 3.0 - e3
    shift = e1 / 3.0
    if p > -1e-300:
        p_eff = min(p, 0.0)
        if p_eff == 0.0:
            return [shift + np.cbrt(-q)] * 3
        p = p_eff
    mfac = 2.0 * np.sqrt(-p / 3.0)
    arg = 3.0 * q / (p * mfac)
    arg = min(1.0, max(-1.0, arg))
    theta = np.arccos(arg) / 3.0
    roots = [shift + mfac * np.cos(theta - 2.0 * np.pi * k / 3.0) for k in range(3)]
    return sorted(roots, reverse=True)


def _elementary_symmetric(p1: float, p2: float, p3: float) -> tuple:
    """(e1, e2, e3) of the eigenvalues from the power traces tr x, tr x^2, tr x^3.

    Newton's identities; for rank <= 3 these are the coefficients of the
    characteristic polynomial z^3 - e1 z^2 + e2 z - e3.
    """
    return p1, (p1 * p1 - p2) / 2.0, (p1 * p1 * p1 - 3.0 * p1 * p2 + 2.0 * p3) / 6.0


def _herm_o_values(x: EjaElement, x2: EjaElement, tol: float) -> list:
    """Distinct eigenvalues [(value, multiplicity)] of x (with x2 = x * x).

    The characteristic cubic's trigonometric roots resolve double roots only
    to ~sqrt(machine eps), so clusters are detected with that floor and a
    repeated root is re-derived as the root of the cubic's derivative (a
    well-conditioned simple quadratic root).
    """
    powers = (trace(x), trace(x2), trace(jordan_product(x2, x)))
    _require_finite(powers, "power traces overflow")
    e1, e2, e3 = _elementary_symmetric(*powers)
    lams = _char_cubic_roots(e1, e2, e3)
    _require_finite(lams, "eigenvalues overflow")
    scale = 1.0 + max(abs(v) for v in lams)
    ctol = max(tol * scale, 4e-8 * scale)
    vals = []
    for idx in _cluster_indices(np.asarray(lams), ctol):
        mean = float(np.mean([lams[i] for i in idx]))
        if len(idx) == 3:
            vals.append((e1 / 3.0, 3))
        elif len(idx) == 2:
            disc = max(e1 * e1 - 3.0 * e2, 0.0)
            root = float(np.sqrt(disc))
            val = min(
                [(e1 + root) / 3.0, (e1 - root) / 3.0], key=lambda v: abs(v - mean)
            )
            if abs(val - mean) > 1e-6 * scale:
                val = mean
            vals.append((val, 2))
        else:
            vals.append((mean, 1))
    return vals


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


def _fine_herm_o(x: EjaElement, tol: float, rng: np.random.Generator):
    values, frame = [], []
    for lam, mult, idem in _herm_o_coarse(x, tol):
        if mult == 1:
            values.append(lam)
            frame.append(idem)
        else:
            for piece in _refine_idempotent(idem, mult, tol, rng):
                values.append(lam)
                frame.append(piece)
    return values, frame


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
            total = pieces[0]
            for piece in pieces[1:]:
                total = total + piece
            if norm(total - c) <= 1e-7 * (1.0 + norm(c)):
                return pieces
    raise SpectralError("idempotent refinement retry cap exceeded for trace %d" % k)


def _fine_for(x: EjaElement, tol: float, rng: np.random.Generator):
    fam = x.algebra.family
    if fam in ("sym_r", "herm_c"):
        return _fine_matrix(x)
    if fam == "herm_h":
        return _fine_herm_h(x, tol)
    if fam == "spin":
        return _fine_spin(x, tol)
    return _fine_herm_o(x, tol, rng)


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
    rng = np.random.default_rng(seed)
    values, frame = _fine_for(x, tol, rng)
    values = [float(v) for v in values]
    order = sorted(range(len(values)), key=lambda i: -values[i])
    values = [values[i] for i in order]
    frame = [frame[i] for i in order]
    w = np.asarray(values)
    ctol = tol * (1.0 + (float(np.max(np.abs(w))) if len(w) else 0.0))
    coarse = []
    for idx in _cluster_indices(w, ctol):
        lam = float(np.mean(w[idx]))
        idem = frame[idx[0]]
        for i in idx[1:]:
            idem = idem + frame[i]
        coarse.append((lam, idem))
    dec = SpectralDecomposition(np.asarray(values), frame, coarse)
    resid = norm(dec.reconstruct() - x)
    # written so that a NaN residual fails too
    if not resid <= max(tol, 1e-9) * (1.0 + size):
        raise SpectralError("spectral reconstruction failed", residual=resid)
    return dec


def eigenvalues(x: EjaElement) -> np.ndarray:
    """Eigenvalues of x, descending and repeated by multiplicity, without a frame.

    The numbers `spectral_decompose(x).eigenvalues` gives, computed the
    same way per family: the closed form for spin, LAPACK eigvalsh for sym_r
    and herm_c, every other eigvalsh value of the 2m x 2m embedding for
    herm_h (each quaternionic eigenvalue appears twice there), and the
    characteristic cubic for herm_o.
    """
    if not math.isfinite(_size(x)):
        y, k = _downscaled(x)
        return np.asarray(_upscaled(eigenvalues(y).tolist(), k))
    alg = x.algebra
    if alg.family == "spin":
        n = alg.param
        t, nw = float(x.coeffs[n]), float(np.linalg.norm(x.coeffs[:n]))
        vals = np.array([t + nw, t - nw])
    elif alg.family in ("sym_r", "herm_c"):
        vals = np.linalg.eigvalsh(to_matrix(x))[::-1]
    elif alg.family == "herm_h":
        vals = np.linalg.eigvalsh(_embed_quat_matrix(to_matrix(x)))[::-1][::2]
    else:
        pieces = _herm_o_values(x, jordan_product(x, x), DEFAULT_TOL)
        vals = np.sort([lam for lam, mult in pieces for _ in range(mult)])[::-1]
    _require_finite(vals.tolist(), "eigenvalues overflow")
    return vals


# -- predicates ------------------------------------------------------------------

def is_idempotent(x: EjaElement, tol: float = DEFAULT_TOL) -> bool:
    return norm(jordan_product(x, x) - x) <= tol


def is_primitive_idempotent(x: EjaElement, tol: float = DEFAULT_TOL) -> bool:
    # primitive idempotents are exactly the trace-1 ones in these algebras
    return is_idempotent(x, tol) and abs(trace(x) - 1.0) <= tol


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
