"""Automorphism groups, strong symmetry, regularity, and frames versus flags.

Polytope automorphism groups are searched in :mod:`automorphisms` (Gram
pruning, one basis inverse per body); this module adds the cap, strong
symmetry and regularity on top of them.  Neither verdict lists the group:
the group order comes with the strong generating set.  Strong symmetry
counts the orbit of one ordered frame per frame size by orbit-stabilizer,
and walks the ordered frames along the generators only for a size whose
frames that orbit does not cover.

The module is exact side: polytope work here loads no numpy.  The frame
and flag check of a Jordan frame imports the float side in its branch;
the Jordan-frame transporters, the algebra side's strong symmetry, live in
:mod:`spectral`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .automorphisms import (
    SymmetryError,
    group_generators,
    orbit_size,
    orbit_tree,
    polytope_group,
)
from .geometry import VERTEX_CAP, Polytope, _capped_analysis, maximal_flags
from .operational import _frame_sets, count_frames, rank


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

    The least frame's orbit is counted by ``orbit_size``: the k-frames,
    k! orderings of each frame subset, form one orbit iff that count is
    their number, and then none is listed.  The count is skipped when
    their number does not divide |G|.  Otherwise the orbits of the
    ordered frames are walked along the generators.  Orbits come in the
    order of their least frames, the witness pair is the least frames of
    the first two.  The report is kept on the analysis record; the cap is
    checked on every call.
    """
    rec = _capped_analysis(poly, cap)
    if rec.strong_symmetry is not None:
        return rec.strong_symmetry
    r = rank(poly, cap)
    gens = group_generators(poly)
    sizes = []
    witness = None
    for k in range(1, r + 1):
        sets = _frame_sets(poly, k, cap)
        total = count_frames(poly, k, cap)
        first = next(iter(sets))
        # an orbit's size divides |G|, so one orbit can hold them all only then
        if gens.order % total == 0 and orbit_size(poly, first) == total:
            orbits = [(first, total)]
        else:
            ordered = itertools.chain.from_iterable(map(itertools.permutations, sets))
            orbits = [(o[0], len(o)) for o in _orbits(ordered, gens.permutations)]
        sizes.append((k, tuple(size for _, size in orbits)))
        if len(orbits) > 1 and witness is None:
            witness = (k, orbits[0][0], orbits[1][0])
    rec.strong_symmetry = StrongSymmetryReport(
        strongly_symmetric=witness is None,
        group_order=gens.order,
        orbit_sizes_by_k=tuple(sizes),
        witness_pair=witness,
    )
    return rec.strong_symmetry


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
        frames = [p for s in _frame_sets(fixture, r, cap) for p in itertools.permutations(s)]
        chains = {
            tuple(tuple(sorted(fr[: i + 1])) for i in range(r)) for fr in frames
        }
        flags = {
            tuple(f.indices for f in flag) for flag in maximal_flags(fixture, cap)
        }
        return FrameFlagReport(
            frames=len(frames), flags=len(flags), bijective=chains == flags
        )
    from .algebra import EjaElement, inner, trace
    from .spectral import LOOSE_FRAME_TOL, is_primitive_idempotent

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
