"""Automorphism groups, transitivity tests, and Jordan frame transporters.

Polytope automorphism groups are searched in :mod:`automorphisms` (Gram
pruning, one basis inverse per body); this module adds the cap, strong
symmetry and regularity on top of them.  Neither verdict lists the group:
the group order comes with the strong generating set.  Strong symmetry
counts the orbit of one ordered frame per frame size by orbit-stabilizer,
and walks the ordered frames along the generators only for a size whose
frames that orbit does not cover.

EJA transporters follow the classical constructions (conjugation by
U_B U_A^dagger for the matrix families, cf. Faraut-Koranyi IV.2.7; a
Householder reflection of the ball part for spin factors), each stored as
the real linear map it induces on coefficients.  Frames are checked and
transported as (r, dim) arrays of coefficient rows.  The octonionic
algebra is not supported: its automorphisms live in F4 and constructing
them outweighs what the checks need.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraDescriptor,
    EjaElement,
    _matrix_basis,
    coefficient_rows,
    gram_rows,
    inner,
    j_twin,
    jordan_product_rows,
    norm,
    norm_rows,
    trace,
    unit,
)
from .automorphisms import (
    SymmetryError,
    group_generators,
    orbit_tree,
    ordered_orbit,
    polytope_group,
)
from .geometry import VERTEX_CAP, Polytope, _capped_analysis, maximal_flags
from .operational import _frame_sets, count_frames, enumerate_frames, rank
from .spectral import (
    FRAME_TOL,
    eigenvalue_rows,
    is_primitive_idempotent,
    primitive_rows,
    random_jordan_frame,
    spectral_decompose,
)


# A transporter carries each frame member within TRANSPORTER_TOL of its
# target.  A frame checked after one more decomposition (an extension) or
# handed to the frame/flag check is held to LOOSE_FRAME_TOL.
TRANSPORTER_TOL = 1e-8
LOOSE_FRAME_TOL = 1e-7


class UnsupportedFamily(SymmetryError):
    pass


# ---------------------------------------------------------------------------
# polytope automorphisms


def automorphism_group(poly: Polytope, cap: int = VERTEX_CAP):
    """All affine self-maps permuting the vertex set, sorted by permutation.

    Works in exact chart coordinates so degenerate embeddings (simplices
    as unit vectors) pose no problem.  The group is the closure of the
    strong generating set of ``group_generators`` (a search pruned by the
    exact Gram invariant of the homogenized chart vertices, Bremner et
    al. 2014), checked to have exactly the group order's number of
    members, each decided by the search's exact vertex check.  The group
    is kept in the body's analysis record; the cap is checked on every
    call.
    """
    _capped_analysis(poly, cap)
    return polytope_group(poly)


def _orbits(items, permutations):
    """Orbit partition of index tuples under the group the vertex
    permutations generate, each orbit sorted, listed by least member.

    An orbit is walked breadth-first from its least member along the
    permutations, so the group is never listed.
    """
    seen = set()
    orbits = []
    for it in sorted(items):
        if it in seen:
            continue
        orbit = {it}.union(image for image, _, _ in orbit_tree(it, permutations))
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return orbits


@dataclass(frozen=True)
class StrongSymmetryReport:
    strongly_symmetric: bool
    group_order: int
    orbit_sizes_by_k: tuple  # ((k, (sizes...)), ...)
    witness_pair: tuple | None = None  # (k, frame_a, frame_b) in distinct orbits

    def to_dict(self) -> dict:
        out = {
            "strongly_symmetric": self.strongly_symmetric,
            "group_order": self.group_order,
            "orbit_sizes_by_k": {str(k): list(s) for k, s in self.orbit_sizes_by_k},
        }
        if self.witness_pair is not None:
            k, fa, fb = self.witness_pair
            out["witness_pair"] = {"k": k, "frames": [list(fa), list(fb)]}
        return out


def is_strongly_symmetric(
    poly: Polytope, cap: int = VERTEX_CAP
) -> StrongSymmetryReport:
    """Does the automorphism group act transitively on ordered k-frames?

    The least frame's orbit is counted by ``ordered_orbit``: the k-frames,
    k! orderings of each frame subset, form one orbit iff that count is
    their number, and then none is listed.  The count is skipped when
    their number does not divide |G|.  Otherwise the orbits of the
    ordered frames are walked along the generators.  Orbits come in the
    order of their least frames, the witness pair is the least frames of
    the first two.
    """
    r = rank(poly, cap)
    gens = group_generators(poly)
    sizes = []
    witness = None
    for k in range(1, r + 1):
        sets = _frame_sets(poly, k, cap)
        total = count_frames(poly, k, cap)
        first = next(iter(sets))
        # an orbit's size divides |G|, so one orbit can hold them all only then
        if gens.order % total == 0 and ordered_orbit(poly, first)[0] == total:
            orbits = [(first, total)]
        else:
            ordered = itertools.chain.from_iterable(map(itertools.permutations, sets))
            orbits = [(o[0], len(o)) for o in _orbits(ordered, gens.permutations)]
        sizes.append((k, tuple(size for _, size in orbits)))
        if len(orbits) > 1 and witness is None:
            witness = (k, orbits[0][0], orbits[1][0])
    return StrongSymmetryReport(
        strongly_symmetric=witness is None,
        group_order=gens.order,
        orbit_sizes_by_k=tuple(sizes),
        witness_pair=witness,
    )


def is_regular(poly: Polytope, cap: int = VERTEX_CAP) -> bool:
    """Transitivity of the automorphism group on maximal flags, by counting:
    a map fixing a maximal flag fixes its faces' barycenters, an affine
    basis, so the group acts freely on the flags, and the body is regular
    iff the group order equals the flag count.  The group permutes the
    faces, which are intersections of facets, because ``group_generators``
    refuses a generator that does not permute the facets."""
    flags = maximal_flags(poly, cap)
    return group_generators(poly).order == len(flags)


@dataclass(frozen=True)
class FrameFlagReport:
    frames: int
    flags: int
    bijective: bool


def frame_flag_bijection(fixture, cap: int = VERTEX_CAP) -> FrameFlagReport:
    """Check that prefixes of maximal frames biject onto maximal flags.

    Accepts a simplex polytope, or a Jordan frame (sequence of primitive
    idempotents) whose sub-frame lattice is used combinatorially.
    """
    if isinstance(fixture, Polytope):
        _capped_analysis(fixture, cap)
        if len(fixture.vertices) != fixture.dim + 1:
            raise SymmetryError("frame/flag bijection needs a simplex")
        r = rank(fixture, cap)
        frames = [f.indices for f in enumerate_frames(fixture, r, cap)]
        chains = {
            tuple(tuple(sorted(fr[: i + 1])) for i in range(r)) for fr in frames
        }
        flags = {
            tuple(f.indices for f in flag) for flag in maximal_flags(fixture, cap)
        }
        return FrameFlagReport(
            frames=len(frames), flags=len(flags), bijective=chains == flags
        )
    frame = tuple(fixture)
    if not frame or not all(isinstance(c, EjaElement) for c in frame):
        raise SymmetryError("expected a polytope or a Jordan frame")
    for c in frame:
        if not is_primitive_idempotent(c, tol=LOOSE_FRAME_TOL):
            raise SymmetryError("not a Jordan frame")
    for a, b in itertools.combinations(frame, 2):
        if abs(inner(a, b)) > LOOSE_FRAME_TOL:
            raise SymmetryError("not a Jordan frame")
    r = len(frame)
    # maximal frames of the sub-frame lattice are orderings of the frame
    orderings = list(itertools.permutations(range(r)))
    chains = {tuple(tuple(sorted(o[: i + 1])) for i in range(r)) for o in orderings}
    # maximal flags enumerated independently by walking the covering
    # relation of the subset lattice upward from the atoms
    flags = set()
    stack = [((i,),) for i in range(r)]
    while stack:
        chain = stack.pop()
        top = chain[-1]
        if len(top) == r:
            flags.add(chain)
            continue
        for i in range(r):
            if i not in top:
                stack.append(chain + (tuple(sorted(top + (i,))),))
    # each subset face carries the idempotent of its members
    for subset in {s for chain in flags for s in chain}:
        total = frame[subset[0]]
        for i in subset[1:]:
            total = total + frame[i]
        if abs(trace(total) - len(subset)) > LOOSE_FRAME_TOL:
            raise SymmetryError("sub-frame face has the wrong rank")
    return FrameFlagReport(
        frames=len(orderings), flags=len(flags), bijective=chains == flags
    )


# ---------------------------------------------------------------------------
# EJA transporters


@dataclass(frozen=True, eq=False)
class EjaAutomorphism:
    """Jordan automorphism as a real dim x dim map M on coefficients: x -> M x.

    ``residual`` is the worst trace-form distance |M a_i - b_i| over the
    frames the map was built to transport, 0 for a map given directly.
    """

    algebra: AlgebraDescriptor
    M: np.ndarray
    residual: float = 0.0

    def apply(self, x: EjaElement) -> EjaElement:
        if x.algebra != self.algebra:
            raise SymmetryError("element from a different algebra")
        return EjaElement(self.algebra, self.M @ x.coeffs)


def _distinguished_columns(alg: AlgebraDescriptor, rows: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the ranges of a frame's idempotents, in
    frame order, phase-fixed.

    Each range is spanned by the top eigenvector v of its idempotent, whose
    first entry above 1e-8 in size is made real positive.  A herm_h range
    is the span of v and its twin, where LAPACK's choice of v turns on
    rounding (even on the sign of a zero); mixing in the twin makes the
    first quaternionic entry (v_2i, v_2i+1) real positive, so the columns
    depend on the idempotents alone.
    """
    basis, _, shape = _matrix_basis(alg)
    v = np.linalg.eigh((rows @ basis).reshape((len(rows),) + shape))[1][:, :, -1]
    if alg.family == "herm_h":
        # the size of each quaternionic entry (v_2i, v_2i+1)
        size = np.hypot(np.abs(v[:, 0::2]), np.abs(v[:, 1::2]))
    else:
        size = np.abs(v)
    big = size > 1e-8
    if not big.any(axis=1).all():
        raise SymmetryError("zero eigenvector")
    first = (np.arange(len(v)), big.argmax(axis=1))
    if alg.family != "herm_h":
        return (v / (v[first] / size[first])[:, None]).T
    a, b, s = v[:, 0::2][first], v[:, 1::2][first], size[first]
    v = (np.conj(a)[:, None] * v + b[:, None] * j_twin(v)) / s[:, None]
    # columns v_0, twin_0, v_1, twin_1, ...
    return np.stack([v, j_twin(v)], axis=1).reshape(-1, v.shape[1]).T


def _check_jordan_frame(alg: AlgebraDescriptor, frame, tol: float = FRAME_TOL) -> np.ndarray:
    """The frame's coefficient rows (r, dim), after checking that it is a
    Jordan frame: r primitive idempotents, pairwise orthogonal for the trace
    form, summing to the unit, each within tol; NaN fails every test."""
    frame = tuple(frame)
    if len(frame) != alg.rank:
        raise SymmetryError("frame length differs from the rank")
    if any(c.algebra != alg for c in frame):
        raise SymmetryError("frame element from a different algebra")
    rows = coefficient_rows(frame)
    if not primitive_rows(alg, rows, tol).all():
        raise SymmetryError("frame element is not a primitive idempotent")
    gram = gram_rows(alg, rows)
    if not (np.abs(gram - np.diag(gram.diagonal())) <= tol).all():
        raise SymmetryError("frame elements are not orthogonal")
    if not norm(EjaElement(alg, rows.sum(axis=0)) - unit(alg)) <= tol:
        raise SymmetryError("frame does not sum to the unit")
    return rows


def jordan_frame_transporter(alg: AlgebraDescriptor, frame_a, frame_b) -> EjaAutomorphism:
    """An automorphism taking the ordered frame A onto the ordered frame B.

    Matrix families conjugate by U = U_B U_A^dagger built from the
    distinguished eigenvectors (quaternionic twins for herm_h); spin uses
    the Householder reflection of the ball part.  Verifies the residuals
    (within TRANSPORTER_TOL), unit preservation, trace-form orthogonality
    and cone preservation, and keeps the worst frame residual on the map.
    """
    if alg.family == "herm_o":
        raise UnsupportedFamily(
            "octonionic transporters (F4 elements) are not constructed"
        )
    rows_a = _check_jordan_frame(alg, frame_a)
    rows_b = _check_jordan_frame(alg, frame_b)
    if alg.family == "spin":
        n = alg.param
        x = rows_a[0, :n] * 2.0
        y = rows_b[0, :n] * 2.0
        if np.linalg.norm(x - y) <= 1e-12:
            h = np.eye(n)
        else:
            d = x - y
            d = d / np.linalg.norm(d)
            h = np.eye(n) - 2.0 * np.outer(d, d)
        m = np.eye(alg.dim)
        m[:n, :n] = h
    else:
        ua = _distinguished_columns(alg, rows_a)
        u = _distinguished_columns(alg, rows_b) @ ua.conj().T
        # column i is the coefficient vector of U B_i U^H, B_i the i-th basis member
        basis, dual, shape = _matrix_basis(alg)
        images = u @ basis.reshape((alg.dim,) + shape) @ u.conj().T
        m = np.real(dual @ images.reshape(alg.dim, -1).T)
    auto = EjaAutomorphism(alg, m)
    return EjaAutomorphism(alg, m, _verify_transporter(auto, rows_a, rows_b))


def _verify_transporter(auto, rows_a, rows_b) -> float:
    """The worst frame residual, after checking the map on the frame rows,
    the unit, and three probe pairs for trace-form orthogonality and cone
    preservation."""
    alg = auto.algebra
    resid = norm_rows(alg, rows_a @ auto.M.T - rows_b)
    if not (resid <= TRANSPORTER_TOL).all():
        raise SymmetryError("transporter misses a frame element")
    e = unit(alg)
    if norm(auto.apply(e) - e) > 1e-9:
        raise SymmetryError("transporter moves the unit")
    probes = np.random.default_rng(0x5EED).standard_normal((3, 2, alg.dim))
    x, y = probes[:, 0], probes[:, 1]
    before = gram_rows(alg, x, y).diagonal()
    after = gram_rows(alg, x @ auto.M.T, y @ auto.M.T).diagonal()
    bound = 1e-7 * (1.0 + norm_rows(alg, x) * norm_rows(alg, y))
    if (np.abs(after - before) > bound).any():
        raise SymmetryError("transporter is not orthogonal for the trace form")
    sq = jordan_product_rows(alg, x)
    eigs = eigenvalue_rows(alg, sq @ auto.M.T)
    if (eigs[:, -1] < -1e-7 * (1.0 + norm_rows(alg, sq))).any():
        raise SymmetryError("transporter leaves the cone")
    return float(resid.max())


def extend_to_maximal_frame(alg: AlgebraDescriptor, partial):
    """Complete orthogonal primitive idempotents to a full Jordan frame."""
    partial = tuple(partial)
    rest = unit(alg)
    if partial:
        rows = coefficient_rows(partial)
        if not primitive_rows(alg, rows, FRAME_TOL).all():
            raise SymmetryError("partial frame element is not primitive")
        rest = EjaElement(alg, rest.coeffs - rows.sum(axis=0))
    if norm(rest) <= FRAME_TOL:
        return partial
    dec = spectral_decompose(rest)
    extension = [
        idem for lam, idem in zip(dec.eigenvalues, dec.frame) if lam > 0.5
    ]
    frame = partial + tuple(extension)
    _check_jordan_frame(alg, frame, LOOSE_FRAME_TOL)
    return frame


def verify_strong_symmetry_eja(
    alg: AlgebraDescriptor, trials: int = 100, seed: int = 0
) -> dict:
    """Randomized constructive transitivity check on ordered Jordan frames.

    Builds a transporter between fresh random frame pairs each trial
    (every third trial transports an extension of a proper sub-frame) and
    aggregates the worst residual.  Transitivity of a continuous group is
    not certified computationally; this constructive sampling stands in
    for it, which is exactly what the report states.
    """
    if alg.family == "herm_o":
        raise UnsupportedFamily(
            "octonionic transporters (F4 elements) are not constructed"
        )
    rng = np.random.default_rng(seed)
    failures = []
    worst = 0.0
    r = alg.rank
    for t in range(trials):
        fa = tuple(random_jordan_frame(alg, rng))
        fb = tuple(random_jordan_frame(alg, rng))
        label = "full"
        if t % 3 == 2 and r >= 2:
            k = 1 + int(rng.integers(r - 1))
            fa = extend_to_maximal_frame(alg, fa[:k])
            fb = extend_to_maximal_frame(alg, fb[:k])
            label = f"extended-from-{k}"
        try:
            worst = max(worst, jordan_frame_transporter(alg, fa, fb).residual)
        except SymmetryError as exc:
            failures.append({"trial": t, "kind": label, "error": str(exc)})
    return {
        "family": alg.family,
        "param": alg.param,
        "trials": trials,
        "max_residual": worst,
        "failures": failures,
        "method": "randomized constructive transporters "
        "(continuous-group transitivity is sampled, not certified)",
    }
