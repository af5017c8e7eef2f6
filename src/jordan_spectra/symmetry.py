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
the real linear map it induces on coefficients.  U_A's columns are read
off the frame members' matrices, and a partial frame is completed by
splitting the rest of the unit with `spectral._peel`; neither runs an
eigensolver, and each depends on the given members alone.  Frames are
checked, extended and transported in stacks: `_frame_refusals`,
`_extended_rows`, `_transporter_rows` and `_verify_transporter` work on
(n, r, dim) arrays of coefficient rows, n frames or frame pairs at once,
and keep every check of the one-frame code.  A refused pair is reported
on its own with its message; the others go on.  `_check_jordan_frame`,
`extend_to_maximal_frame` and `jordan_frame_transporter` are the
one-frame (one-pair) cases, and `verify_strong_symmetry_eja` draws its
trials in the order of one trial at a time and then decomposes, extends
and transports them in a few stacked calls.  The octonionic algebra is
not supported: its automorphisms live in F4 and constructing them
outweighs what the checks need.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .algebra import (
    AlgebraDescriptor,
    EjaElement,
    _matrix_basis,
    coefficient_rows,
    gram_rows,
    inner,
    inner_rows,
    j_twin,
    jordan_product_rows,
    norm_rows,
    to_matrix_rows,
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
    _peel,
    _redrawn_frames,
    eigenvalue_rows,
    is_primitive_idempotent,
    primitive_rows,
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


def _transportable(alg: AlgebraDescriptor):
    if alg.family == "herm_o":
        raise UnsupportedFamily(
            "octonionic transporters (F4 elements) are not constructed"
        )


def _refused(refusals: list, live: np.ndarray, ok: np.ndarray, message: str) -> np.ndarray:
    """Record ``message`` for the stack entries live[~ok] and return live[ok],
    the entries that passed this check and go on to the next."""
    for i in live[~ok]:
        refusals[i] = message
    return live[ok]


def _range_columns(alg: AlgebraDescriptor, rows: np.ndarray) -> np.ndarray:
    """Orthonormal columns (n, size, r) spanning the ranges of the idempotents
    of a stack of frames (n, r, dim), in frame order, read off their stored
    matrices C with no eigensolver.

    A primitive's range is spanned by column j of C, j at C's largest
    diagonal entry C_jj >= 1 / rank.  C times that column, normalized, is a
    unit vector of the range with entry j real positive; the product with C
    projects a member that is idempotent only to its tolerance back towards
    the range.  A herm_h range adds the twin (columns v_0, twin_0, v_1, ...),
    j being the even index of the quaternionic entry with the largest pair
    of equal diagonal entries, so j does not flip between the two.
    """
    n, r = rows.shape[:2]
    c = rows.reshape(n * r, alg.dim)
    mats = to_matrix_rows(alg, c)
    # the diagonal basis members come first, each a 2 x 2 block for herm_h
    j = c[:, : alg.rank].argmax(axis=1) * (mats.shape[1] // alg.rank)
    v = (mats @ mats[np.arange(n * r), :, j, None])[:, :, 0]
    v = v / np.linalg.norm(v, axis=1, keepdims=True)
    if alg.family == "herm_h":
        v, r = np.stack([v, j_twin(v)], axis=1), 2 * r
    return np.swapaxes(v.reshape(n, r, v.shape[-1]), 1, 2)


def _frame_rows(alg: AlgebraDescriptor, frame) -> np.ndarray:
    """The coefficient rows (r, dim) of a frame of r elements of alg."""
    frame = tuple(frame)
    if len(frame) != alg.rank:
        raise SymmetryError("frame length differs from the rank")
    if any(c.algebra != alg for c in frame):
        raise SymmetryError("frame element from a different algebra")
    return coefficient_rows(frame)


def _frame_refusals(alg: AlgebraDescriptor, rows: np.ndarray, tol: float) -> list:
    """For each frame of a stack (n, r, dim), the first Jordan frame check it
    fails, or None: r primitive idempotents, pairwise orthogonal for the
    trace form, summing to the unit, each within tol; NaN fails every test."""
    n, r = rows.shape[:2]
    refusals = [None] * n
    live = np.arange(n)
    prim = primitive_rows(alg, rows.reshape(n * r, alg.dim), tol).reshape(n, r).all(axis=1)
    live = _refused(refusals, live, prim, "frame element is not a primitive idempotent")
    gram = gram_rows(alg, rows[live])
    off = np.abs(gram - gram * np.eye(r)) <= tol
    live = _refused(refusals, live, off.all(axis=(1, 2)), "frame elements are not orthogonal")
    total = norm_rows(alg, rows[live].sum(axis=1) - unit(alg).coeffs) <= tol
    _refused(refusals, live, total, "frame does not sum to the unit")
    return refusals


def _check_jordan_frame(alg: AlgebraDescriptor, frame, tol: float = FRAME_TOL) -> np.ndarray:
    """The frame's coefficient rows (r, dim), after checking that it is a
    Jordan frame (`_frame_refusals`), the one-frame case."""
    rows = _frame_rows(alg, frame)
    (refusal,) = _frame_refusals(alg, rows[None], tol)
    if refusal is not None:
        raise SymmetryError(refusal)
    return rows


def _transporter_rows(alg: AlgebraDescriptor, rows_a: np.ndarray, rows_b: np.ndarray) -> list:
    """For each pair of frames of two stacks (n, r, dim), an automorphism
    taking the ordered frame a onto the ordered frame b, or the
    SymmetryError that refuses that pair alone.

    Both frames of a pair are checked (`_frame_refusals`, frame a's refusal
    first).  Matrix families conjugate by U = U_B U_A^dagger, whose columns
    span the ranges of the frame members (`_range_columns`, quaternionic
    twins for herm_h); spin uses the Householder reflection of the ball
    part.  Each map is then verified by `_verify_transporter` and keeps its
    worst frame residual.  The callers refuse herm_o (`_transportable`).
    """
    n = len(rows_a)
    both = _frame_refusals(alg, np.concatenate([rows_a, rows_b]), FRAME_TOL)
    refusals = [ra or rb for ra, rb in zip(both[:n], both[n:])]
    live = np.flatnonzero([refusal is None for refusal in refusals])
    ra, rb = rows_a[live], rows_b[live]
    if alg.family == "spin":
        m = alg.param
        d = (ra[:, 0, :m] - rb[:, 0, :m]) * 2.0
        size = np.sqrt(np.add.reduce(d * d, axis=1, keepdims=True))
        # frames whose first members agree (within 1e-12) are fixed
        fixed = size <= 1e-12
        d = np.where(fixed, 0.0, d / np.where(fixed, 1.0, size))
        maps = np.tile(np.eye(alg.dim), (len(live), 1, 1))
        maps[:, :m, :m] -= 2.0 * d[:, :, None] * d[:, None, :]
    else:
        u = _range_columns(alg, rb) @ np.conj(np.swapaxes(_range_columns(alg, ra), 1, 2))
        # column i is the coefficient vector of U B_i U^H, B_i the i-th basis member
        basis, dual, shape = _matrix_basis(alg)
        images = u[:, None] @ basis.reshape((alg.dim,) + shape) @ np.conj(np.swapaxes(u, 1, 2))[:, None]
        maps = np.swapaxes(np.real(images.reshape(len(u), alg.dim, dual.shape[1]) @ dual.T), 1, 2)
    # each map is verified as the EjaAutomorphism it becomes
    autos = [EjaAutomorphism(alg, m) for m in maps]
    checks, resid = _verify_transporter(
        alg, np.array([auto.M for auto in autos]).reshape(maps.shape), ra, rb
    )
    for i, auto, refusal, worst in zip(live, autos, checks, resid.tolist()):
        refusals[i] = refusal or replace(auto, residual=worst)
    return [SymmetryError(r) if isinstance(r, str) else r for r in refusals]


def jordan_frame_transporter(alg: AlgebraDescriptor, frame_a, frame_b) -> EjaAutomorphism:
    """An automorphism taking the ordered frame A onto the ordered frame B:
    the one-pair case of `_transporter_rows`, which raises its refusal.

    Verifies the residuals (within TRANSPORTER_TOL), unit preservation,
    trace-form orthogonality and cone preservation, and keeps the worst
    frame residual on the map.
    """
    _transportable(alg)
    rows = [_frame_rows(alg, frame)[None] for frame in (frame_a, frame_b)]
    (result,) = _transporter_rows(alg, *rows)
    if isinstance(result, SymmetryError):
        raise result
    return result


def _verify_transporter(alg: AlgebraDescriptor, maps, rows_a, rows_b) -> tuple:
    """(refusals, residuals) for a stack of maps (n, dim, dim) built to carry
    the frames rows_a onto rows_b (n, r, dim): each map's first failed check
    or None, and its worst frame residual.  The checks, in order: the frame
    rows, the unit, and three fixed probe pairs, drawn once per stack, for
    trace-form orthogonality and cone preservation; a map refused by one
    check is not given the later ones."""
    n = len(maps)
    refusals = [None] * n
    resid = norm_rows(alg, rows_a @ np.swapaxes(maps, 1, 2) - rows_b).max(axis=1)
    live = _refused(refusals, np.arange(n), resid <= TRANSPORTER_TOL, "transporter misses a frame element")
    e = unit(alg).coeffs
    moved = norm_rows(alg, maps[live] @ e - e) > 1e-9
    live = _refused(refusals, live, ~moved, "transporter moves the unit")
    probes = np.random.default_rng(0x5EED).standard_normal((3, 2, alg.dim))
    x, y = probes[:, 0], probes[:, 1]
    m = np.swapaxes(maps[live], 1, 2)
    before = inner_rows(alg, x, y)
    after = inner_rows(alg, x @ m, y @ m)
    bound = 1e-7 * (1.0 + norm_rows(alg, x) * norm_rows(alg, y))
    kept = ~(np.abs(after - before) > bound).any(axis=1)
    live = _refused(refusals, live, kept, "transporter is not orthogonal for the trace form")
    if len(live):
        sq = jordan_product_rows(alg, x)
        images = sq @ np.swapaxes(maps[live], 1, 2)
        eigs = eigenvalue_rows(alg, images.reshape(-1, alg.dim)).reshape(len(live), 3, -1)
        kept = ~(eigs[:, :, -1] < -1e-7 * (1.0 + norm_rows(alg, sq))).any(axis=1)
        _refused(refusals, live, kept, "transporter leaves the cone")
    return refusals, resid


def _extended_rows(alg: AlgebraDescriptor, partial: np.ndarray, ks) -> np.ndarray:
    """Complete partial frames to Jordan frames (n, r, dim): row i of the
    stack partial (n, j, dim) keeps its first ks[i] members, followed by the
    r - ks[i] primitives `_peel` splits the remainder, e minus their sum,
    into (one call per distinct ks[i]), so the completion is a function of
    the kept members alone.  Refuses the stack if a kept member is not
    primitive, a row keeps more than r members, or a completed frame is not
    a Jordan frame within LOOSE_FRAME_TOL; each check reports the first row
    that fails it."""
    ks = np.asarray(ks)
    kept = np.arange(partial.shape[1]) < ks[:, None]
    if kept.any() and not primitive_rows(alg, partial[kept], FRAME_TOL).all():
        raise SymmetryError("partial frame element is not primitive")
    if (ks > alg.rank).any():
        raise SymmetryError("frame length differs from the rank")
    rest = unit(alg).coeffs - (partial * kept[:, :, None]).sum(axis=1)
    frames = np.empty((len(ks), alg.rank, alg.dim))
    for k in set(ks.tolist()):
        at = ks == k
        frames[at] = np.concatenate([partial[at, :k], _peel(alg, rest[at], alg.rank - k)], axis=1)
    refusal = next(filter(None, _frame_refusals(alg, frames, LOOSE_FRAME_TOL)), None)
    if refusal is not None:
        raise SymmetryError(refusal)
    return frames


def extend_to_maximal_frame(alg: AlgebraDescriptor, partial):
    """Complete orthogonal primitive idempotents to a full Jordan frame: the
    one-row case of `_extended_rows`, returning the given members first."""
    partial = tuple(partial)
    rows = coefficient_rows(partial).reshape(len(partial), alg.dim)
    frame = _extended_rows(alg, rows[None], [len(partial)])[0]
    return partial + tuple(EjaElement(alg, row) for row in frame[len(partial) :])


def verify_strong_symmetry_eja(
    alg: AlgebraDescriptor, trials: int = 100, seed: int = 0
) -> dict:
    """Randomized constructive transitivity check on ordered Jordan frames.

    Builds a transporter between fresh random frame pairs each trial
    (every third trial transports an extension of a proper sub-frame) and
    aggregates the worst residual; ``strongly_symmetric`` is true when no
    trial fails.  The draws come in the order of one trial at a time (two
    frames, then the sub-frame size), and are then decomposed, extended and
    transported in a few stacked calls; a degenerate draw is redrawn after
    the block (see `spectral._redrawn_frames`).  Transitivity of a
    continuous group is not certified computationally; this constructive
    sampling stands in for it, which is exactly what the report states.
    """
    _transportable(alg)
    rng = np.random.default_rng(seed)
    r = alg.rank
    draws, sizes = [], []
    for t in range(trials):
        draws += [rng.standard_normal(alg.dim), rng.standard_normal(alg.dim)]
        sizes.append(1 + int(rng.integers(r - 1)) if t % 3 == 2 and r >= 2 else r)
    # pairs (trials, 2, r, dim): frame a and frame b of each trial
    pairs = _redrawn_frames(alg, draws, rng).reshape(trials, 2, r, alg.dim)
    sizes = np.array(sizes, dtype=int)
    extended = np.flatnonzero(sizes < r)
    if len(extended):
        partial = pairs[extended].reshape(-1, r, alg.dim)
        pairs[extended] = _extended_rows(alg, partial, np.repeat(sizes[extended], 2)).reshape(
            -1, 2, r, alg.dim
        )
    failures = []
    worst = 0.0
    for t, result in enumerate(_transporter_rows(alg, pairs[:, 0], pairs[:, 1])):
        if isinstance(result, SymmetryError):
            kind = "full" if sizes[t] == r else f"extended-from-{sizes[t]}"
            failures.append({"trial": t, "kind": kind, "error": str(result)})
        else:
            worst = max(worst, result.residual)
    return {
        "family": alg.family,
        "param": alg.param,
        "trials": trials,
        "strongly_symmetric": not failures,
        "max_residual": worst,
        "failures": failures,
        "method": "randomized constructive transporters "
        "(continuous-group transitivity is sampled, not certified)",
    }
