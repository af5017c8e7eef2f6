"""Affine automorphism groups of polytopes.

Polytope automorphisms are affine self-maps (not metric ones).  On
homogenized chart vertices v = (x, 1) the Gram invariant
Q_ij = v_i^T (sum_k v_k v_k^T)^-1 v_j is preserved by exactly the vertex
permutations that extend to affine maps (Bremner, Dutour Sikirić,
Pasechnik, Rehn & Schürmann, "Computing symmetry groups of polyhedra",
LMS J. Comput. Math. 17, 2014), so a backtracking search over vertex
images pruned by Q visits only near-automorphisms.  Q only prunes: a
permutation is accepted iff the affine map sending an affine basis of
vertices to its assigned images moves every vertex onto its image,
checked exactly.

Everything here reads the analysis record's one integer chart, the
homogenized chart vertices over one denominator in Z or Z[sqrt 5], so
nothing is lifted or coerced.  The homogenized basis is inverted once per
body, so deciding a candidate is ring-integer arithmetic with no solve.
There is one search, and it decides vertex permutations only.
``group_generators`` stops at a strong generating set along a stabilizer
chain on the basis, with the group order, so its cost does not grow with
the order (the simplex on 10 vertices has 10! automorphisms and 9
generators).  Orbits and the order are all that the frame and symmetry
layers read.  ``ordered_orbit`` runs the same chain on a basis
that starts with a given affinely independent vertex tuple, whose
pointwise stabilizer is then the bottom of the chain, so the tuple's
orbit size is counted by orbit-stabilizer (Seress, "Permutation Group
Algorithms", 2003) and membership in it is one search look-up;
``orbit_size`` keeps each count on the record.
``polytope_group`` lists the group when a caller needs every map: it is
the closure of the generators, each member decided by the search's own
exact vertex check, and it must have exactly the order's number of
members.  A member holds its permutation, and its Fraction (or Sqrt5) map
is built the first time it is read, so a caller that counts the members
builds none.  Both are kept in the body's analysis record, so neither
layer imports the other for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .exactla import _eliminate, affine_basis_indices, mat_vec
from .geometry import Polytope, SymmetryError, _analysis


@dataclass(frozen=True)
class PolytopeAutomorphism:
    """A vertex permutation with its induced exact affine map.

    The matrix and translation act on the body's affine chart
    coordinates (for full-dimensional bodies that is an ambient map up
    to the chart change of basis); both are built by ``affine_map``, the
    group search's map of a permutation, the first time either is read.
    apply() takes and returns ambient points of the affine hull.
    """

    permutation: tuple
    chart: object
    affine_map: object = field(compare=False, repr=False)

    @cached_property
    def _map(self):
        return self.affine_map(self.permutation)

    @property
    def matrix(self) -> tuple:
        return self._map[0]

    @property
    def translation(self) -> tuple:
        return self._map[1]

    def apply(self, point):
        local = self.chart.to_chart(point)
        if local is None:
            raise SymmetryError("point is off the body's affine hull")
        moved = mat_vec(self.matrix, local)
        moved = tuple(a + b for a, b in zip(moved, self.translation))
        return self.chart.to_ambient(moved)


def polytope_group(poly: Polytope) -> tuple:
    """Every affine self-map of ``poly`` permuting its vertices, sorted by
    permutation; the closure of ``group_generators``, kept on the analysis
    record.  No cap is checked.

    The closure is walked from the identity along the generators, and
    each member is decided by the search's exact vertex check.  It raises
    SymmetryError unless there are exactly ``order`` members and every
    one passes that check.  A member's map is built only when it is read.
    """
    rec = _analysis(poly)
    if rec.group is None:
        gens = group_generators(poly)
        ident = tuple(range(len(rec.ring_chart)))
        tree = orbit_tree(ident, gens.permutations)
        perms = [ident] + [image for image, _, _ in tree]
        if len(perms) != gens.order:
            raise SymmetryError(
                f"the generators give {len(perms)} maps, not the order {gens.order}"
            )
        if not all(map(gens.is_automorphism, perms)):
            raise SymmetryError("a product of generators is not an affine map")
        rec.group = tuple(
            PolytopeAutomorphism(p, rec.chart, gens.affine_map) for p in sorted(perms)
        )
    return rec.group


@dataclass(frozen=True)
class GroupGenerators:
    """A strong generating set of the automorphism group, as vertex
    permutations, and its order.

    ``facet_images[g][F]`` is the index of the facet that generator g
    moves facet F onto, facets in the analysis record's order.
    ``is_automorphism`` is the search's exact vertex check: is a vertex
    permutation induced by an affine map of the body?  ``affine_map``
    takes such a permutation to the (matrix, translation) of that map.
    ``gram_colours`` is the Gram invariant that pruned the search, kept
    for the searches of ``ordered_orbit``.
    """

    permutations: tuple
    order: int
    facet_images: tuple
    is_automorphism: object
    affine_map: object
    gram_colours: list


def group_generators(poly: Polytope) -> GroupGenerators:
    """Generators of the automorphism group of ``poly``, with the group
    order; searched once per analysis record, without listing the group.
    No cap is checked."""
    rec = _analysis(poly)
    if rec.generators is None:
        perms, order, check, affine_map, colours = _search_generators(rec.ring, rec.ring_chart)
        facets = list(rec.facets)
        index = {on: f for f, on in enumerate(facets)}
        rec.generators = GroupGenerators(
            permutations=perms,
            order=order,
            facet_images=tuple(_facet_images(p, facets, index) for p in perms),
            is_automorphism=check,
            affine_map=affine_map,
            gram_colours=colours,
        )
    return rec.generators


def _facet_images(perm, facets, index) -> tuple:
    moved = tuple(index.get(frozenset(perm[i] for i in on)) for on in facets)
    if None in moved:
        raise SymmetryError(f"{perm} does not permute the facets")
    return moved


def ordered_orbit(poly: Polytope, frame):
    """(size, contains) for the orbit of the ordered vertex tuple
    ``frame``, affinely independent, under the automorphism group.

    The search runs on the greedy affine basis of the vertices taken with
    ``frame`` first, and decides each candidate by the group search's
    exact vertex check.  The pointwise stabilizer G_(frame) is then the
    chain's group at level len(frame), its order the product of the orbit
    sizes from that level down, and the orbit has |G| / |G_(frame)|
    members.  ``contains(image)`` is one look-up: is there an
    automorphism sending frame[i] to image[i] for every i?
    """
    frame = tuple(frame)
    gens = group_generators(poly)
    rec = _analysis(poly)
    points = rec.ring_chart
    scan = list(frame) + [i for i in range(len(points)) if i not in frame]
    basis_ids = [scan[i] for i in affine_basis_indices([points[i] for i in scan], rec.ring)]
    if tuple(basis_ids[: len(frame)]) != frame:
        raise SymmetryError(f"{frame} is not affinely independent")
    extensions = _searcher(basis_ids, gens.gram_colours, gens.is_automorphism)
    _, stabilizer = _stabilizer_chain(basis_ids, extensions, len(points), len(frame))
    return gens.order // stabilizer, lambda image: next(extensions(tuple(image)), None) is not None


def orbit_size(poly: Polytope, frame) -> int:
    """The size of the orbit of the ordered vertex tuple ``frame`` under
    the automorphism group, counted by ``ordered_orbit`` once per frame
    and kept on the analysis record; only the count is kept."""
    sizes = _analysis(poly).orbit_sizes
    if frame not in sizes:
        sizes[frame] = ordered_orbit(poly, frame)[0]
    return sizes[frame]


def _move_entries(perm, indices):
    return tuple(perm[i] for i in indices)


def orbit_tree(start, permutations, act=_move_entries):
    """Breadth-first search of the orbit of ``start`` under the group the
    permutations generate.

    Yields (image, parent, g) once for every orbit member but ``start``,
    where image = act(permutations[g], parent) and parent was reached
    before image; by default act moves each entry of an index tuple.  The
    work is about the orbit size times the number of permutations.
    """
    seen = {start}
    queue = [start]
    for item in queue:
        for g, perm in enumerate(permutations):
            image = act(perm, item)
            if image not in seen:
                seen.add(image)
                queue.append(image)
                yield image, item, g


def _search_generators(ring, points):
    """(generators, group order, exact vertex check, affine map, Gram
    colours) from a stabilizer chain on the basis, over the record's
    integer chart ``points`` in ``ring``.

    With b_0, ..., b_d the affine vertex basis, G_i fixes b_0 .. b_(i-1)
    and G_(d+1) is trivial.  Level i, from d down to 0, looks for one
    automorphism of G_i sending b_i to each vertex not yet in the orbit of
    b_i under the generators found so far (all of which lie in G_i), so
    those generators end up generating G_i, and |G| is the product of the
    orbit sizes.  Each look-up stops at its first automorphism.
    """
    basis_ids = affine_basis_indices(list(points), ring)
    check, affine_map = _affine_maps(ring, points, basis_ids)
    colours = _gram_colours(ring, points)
    extensions = _searcher(basis_ids, colours, check)
    gens, order = _stabilizer_chain(basis_ids, extensions, len(points), 0)
    return gens, order, check, affine_map, colours


def _stabilizer_chain(basis_ids, extensions, n, top):
    """(generators, order) of G_top, the pointwise stabilizer of the
    first ``top`` basis vertices, by the levels from d down to ``top``."""
    gens = []
    order = 1
    for level in reversed(range(top, len(basis_ids))):
        fixed = tuple(basis_ids[:level])
        b = basis_ids[level]
        orbit = {b}
        for j in range(n):
            if j in orbit:
                continue
            g = next(extensions(fixed + (j,)), None)
            if g is None:
                continue
            gens.append(g)
            orbit = {b}.union(
                image for image, _, _ in orbit_tree(b, gens, lambda p, x: p[x])
            )
        order *= len(orbit)
    return tuple(gens), order


def _searcher(basis_ids, colour, is_automorphism):
    """``extensions`` over an affine vertex basis.

    ``extensions(prefix)`` yields, in lex order of the permutation read on
    the basis first, every automorphism, as a vertex permutation, sending
    basis vertex i to prefix[i] for i < len(prefix).  It backtracks over
    vertex images, basis vertices first, keeping a partial assignment only
    while it preserves ``colour``, the Gram invariant Q as small int
    colours (``_gram_colours``).  Each complete permutation is then
    decided exactly by ``is_automorphism`` (``_affine_maps``): the affine
    map it gives a basis must move every chart vertex onto its image.
    """
    n = len(colour)
    order = basis_ids + [i for i in range(n) if i not in basis_ids]

    def extensions(prefix):
        image = [None] * n
        used = [False] * n

        def extend(depth):
            if depth == n:
                if is_automorphism(tuple(image)):
                    yield tuple(image)
                return
            i = order[depth]
            row = colour[i]
            for j in (prefix[depth],) if depth < len(prefix) else range(n):
                if used[j] or colour[j][j] != row[i]:
                    continue
                if any(row[k] != colour[j][image[k]] for k in order[:depth]):
                    continue
                image[i], used[j] = j, True
                yield from extend(depth + 1)
                used[j] = False

        return extend(0)

    return extensions


def _gram_colours(ring, points):
    """The Gram invariant Q of the chart vertices, as small int colours.

    Q_ij = v_i^T (sum_k v_k v_k^T)^-1 v_j on homogenized vertices v = (x, 1).
    The record's integer chart holds them as P = q v, q > 0, which leaves
    Q unchanged, and M = sum_k P_k P_k^T is formed in the ring.  One
    elimination of [M | P^T] gives T / d = [I | M^-1 P^T], so d Q_ij is
    the ring integer P_i . T_j, column j of the right-hand block; with
    d > 0 fixed, equal colours mean equal exact values.
    """
    m = len(points[0])
    rows = list(zip(*points))
    _, T, _, _, _ = _eliminate(
        [[ring.dot(r, c) for c in rows] + list(r) for r in rows], ring
    )
    cols = list(zip(*(row[m:] for row in T)))
    colours = {}
    return [[colours.setdefault(ring.dot(v, col), len(colours)) for col in cols] for v in points]


def _affine_maps(ring, points, basis_ids):
    """(is_automorphism, affine_map) over the record's integer chart: the
    homogenized vertices P_j = q (v_j, 1), ring elements.

    H has the basis vertices P_b as columns.  One elimination of
    [H | I | every P_j as a column] gives, over one denominator den,
    W = den H^-1 and the barycentric coordinates L_j = den H^-1 P_j of
    every vertex on the basis.  The affine map sending basis vertex b to
    perm[b] moves v_j onto v_perm[j] iff sum_b L_jb V_perm[b] = den
    V_perm[j], V the first d coordinates of P; ``is_automorphism`` checks
    that on every vertex.  ``affine_map`` gives [matrix | translation],
    the image basis times H^-1, as Fraction (or Sqrt5) values.
    """
    width = len(points[0])
    _, T, _, den, _ = _eliminate(
        [
            [points[b][r] for b in basis_ids]
            + [ring.one if r == c else ring.zero for c in range(width)]
            + [v[r] for v in points]
            for r in range(width)
        ],
        ring,
    )
    W_columns = list(zip(*(row[width : 2 * width] for row in T)))
    L = list(zip(*(row[2 * width :] for row in T)))
    target = [[ring.mul(den, x) for x in v[:-1]] for v in points]

    def images(perm):
        # images(perm)[r][b] is coordinate r of the image of basis vertex b
        return list(zip(*(points[perm[b]] for b in basis_ids)))[:-1]

    def is_automorphism(perm):
        columns = images(perm)
        return all([ring.dot(lam, col) for col in columns] == target[j] for lam, j in zip(L, perm))

    def affine_map(perm):
        rows = [[ring.quotient(ring.dot(col, w), den) for w in W_columns] for col in images(perm)]
        return tuple(tuple(row[:-1]) for row in rows), tuple(row[-1] for row in rows)

    return is_automorphism, affine_map
