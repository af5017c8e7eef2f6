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

The homogenized basis is inverted once per body, so deciding a candidate
and building its map is ring-integer arithmetic with no solve.  There is
one search.  ``group_generators`` stops at a strong generating set along
a stabilizer chain on the basis, with the group order, so its cost does
not grow with the order (the simplex on 10 vertices has 10! automorphisms
and 9 generators).  Orbits and the order are all that the frame and
symmetry layers read.  ``ordered_orbit`` runs the same chain on a basis
that starts with a given affinely independent vertex tuple, whose
pointwise stabilizer is then the bottom of the chain, so the tuple's
orbit size is counted by orbit-stabilizer (Seress, "Permutation Group
Algorithms", 2003) and membership in it is one search look-up.
``polytope_group`` lists the group when a caller needs every map: it is
the closure of the generators, each member decided by the search's own
exact vertex check, and it must have exactly the order's number of
members.  Both are kept in the body's analysis record,
so neither layer imports the other for them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactla import _eliminate, _ring_for, affine_basis_indices, mat_vec
from .geometry import Polytope, _analysis


class SymmetryError(ValueError):
    pass


@dataclass(frozen=True)
class PolytopeAutomorphism:
    """A vertex permutation with its induced exact affine map.

    The matrix and translation act on the body's affine chart
    coordinates (for full-dimensional bodies that is an ambient map up
    to the chart change of basis); apply() takes and returns ambient
    points of the affine hull.
    """

    permutation: tuple
    matrix: tuple
    translation: tuple
    chart: object

    def apply(self, point):
        local = self.chart.to_chart(point)
        if local is None:
            raise SymmetryError("point is off the body's affine hull")
        if not local:
            return self.chart.to_ambient(local)
        moved = mat_vec(self.matrix, local)
        moved = tuple(a + b for a, b in zip(moved, self.translation))
        return self.chart.to_ambient(moved)


def polytope_group(poly: Polytope) -> tuple:
    """Every affine self-map of ``poly`` permuting its vertices, sorted by
    permutation; the closure of ``group_generators``, kept on the analysis
    record.  No cap is checked.

    The closure is walked from the identity along the generators, and
    each member is built by the search's exact vertex check.  It raises
    SymmetryError unless there are exactly ``order`` members and every
    one passes that check.
    """
    rec = _analysis(poly)
    if rec.group is None:
        gens = group_generators(poly)
        ident = tuple(range(len(rec.chart_vertices)))
        tree = orbit_tree(ident, gens.permutations)
        perms = [ident] + [image for image, _, _ in tree]
        if len(perms) != gens.order:
            raise SymmetryError(
                f"the generators give {len(perms)} maps, not the order {gens.order}"
            )
        group = tuple(gens.induced(p) for p in sorted(perms))
        if None in group:
            raise SymmetryError("a product of generators is not an affine map")
        rec.group = group
    return rec.group


@dataclass(frozen=True)
class GroupGenerators:
    """A strong generating set of the automorphism group and its order.

    ``facet_images[g][F]`` is the index of the facet that generator g
    moves facet F onto, facets in the analysis record's order.
    ``induced`` is the search's exact vertex check: it takes a vertex
    permutation to its ``PolytopeAutomorphism``, or to None when no affine
    map of the body induces it.  ``gram_colours`` is the Gram invariant
    that pruned the search, kept for the searches of ``ordered_orbit``.
    """

    automorphisms: tuple
    order: int
    facet_images: tuple
    induced: object
    gram_colours: list

    @property
    def permutations(self) -> list:
        return [g.permutation for g in self.automorphisms]


def group_generators(poly: Polytope) -> GroupGenerators:
    """Generators of the automorphism group of ``poly``, with the group
    order; searched once per analysis record, without listing the group.
    No cap is checked."""
    rec = _analysis(poly)
    if rec.generators is None:
        gens, order, (induced, colours) = _search_generators(
            rec.chart, rec.chart_vertices
        )
        facets = list(rec.facets)
        index = {on: f for f, on in enumerate(facets)}
        rec.generators = GroupGenerators(
            automorphisms=gens,
            order=order,
            facet_images=tuple(
                _facet_images(g.permutation, facets, index) for g in gens
            ),
            induced=induced,
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
    cverts = _analysis(poly).chart_vertices
    scan = list(frame) + [i for i in range(len(cverts)) if i not in frame]
    basis_ids = [scan[i] for i in affine_basis_indices([cverts[i] for i in scan])]
    if tuple(basis_ids[: len(frame)]) != frame:
        raise SymmetryError(f"{frame} is not affinely independent")
    extensions = _searcher(basis_ids, gens.gram_colours, gens.induced)
    _, stabilizer = _stabilizer_chain(basis_ids, extensions, len(cverts), len(frame))
    return gens.order // stabilizer, lambda image: next(extensions(tuple(image)), None) is not None


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


def _search_generators(ch, cverts):
    """(generators, group order, (exact vertex check, Gram colours)) from
    a stabilizer chain on the basis.

    With b_0, ..., b_d the affine vertex basis, G_i fixes b_0 .. b_(i-1)
    and G_(d+1) is trivial.  Level i, from d down to 0, looks for one
    automorphism of G_i sending b_i to each vertex not yet in the orbit of
    b_i under the generators found so far (all of which lie in G_i), so
    those generators end up generating G_i, and |G| is the product of the
    orbit sizes.  Each look-up stops at its first automorphism.
    """
    if ch.dim == 0:
        return (), 1, (lambda perm: PolytopeAutomorphism(perm, (), (), ch), [[0]])
    basis_ids = affine_basis_indices(list(cverts))
    induced = _affine_maps(ch, cverts, basis_ids)
    colours = _gram_colours(cverts)
    extensions = _searcher(basis_ids, colours, induced)
    gens, order = _stabilizer_chain(basis_ids, extensions, len(cverts), 0)
    return gens, order, (induced, colours)


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
            perms = [h.permutation for h in gens]
            orbit = {b}.union(
                image for image, _, _ in orbit_tree(b, perms, lambda p, x: p[x])
            )
        order *= len(orbit)
    return tuple(gens), order


def _searcher(basis_ids, colour, induced):
    """``extensions`` over an affine vertex basis.

    ``extensions(prefix)`` yields, in lex order of the permutation read on
    the basis first, every automorphism sending basis vertex i to
    prefix[i] for i < len(prefix).  It backtracks over vertex images,
    basis vertices first, keeping a partial assignment only while it
    preserves ``colour``, the Gram invariant Q as small int colours
    (``_gram_colours``).  Each complete permutation is then decided
    exactly by ``induced`` (``_affine_maps``): the affine map it gives a
    basis must move every chart vertex onto its image.
    """
    n = len(colour)
    order = basis_ids + [i for i in range(n) if i not in basis_ids]

    def extensions(prefix):
        image = [None] * n
        used = [False] * n

        def extend(depth):
            if depth == n:
                auto = induced(tuple(image))
                if auto is not None:
                    yield auto
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


def _gram_colours(cverts):
    """The Gram invariant Q of the chart vertices, as small int colours.

    Q_ij = v_i^T (sum_k v_k v_k^T)^-1 v_j on homogenized vertices v = (x, 1).
    The v are lifted once to ring integers V = s v (ints, or Z[sqrt 5]
    pairs), which leaves Q unchanged, and M = sum_k V_k V_k^T is formed in
    the ring.  One elimination of [M | V^T] gives T / d = [I | M^-1 V^T],
    so d Q_ij is the ring integer V_i . T_j, column j of the right-hand
    block; with d > 0 fixed, equal colours mean equal exact values.
    """
    m = len(cverts[0]) + 1
    ring = _ring_for(x for v in cverts for x in v)
    flat, _ = ring.lift([x for v in cverts for x in tuple(v) + (1,)])
    V = [flat[j * m : (j + 1) * m] for j in range(len(cverts))]
    rows = list(zip(*V))
    _, T, _, _, _ = _eliminate(
        [[ring.dot(r, c) for c in rows] + list(r) for r in rows], ring
    )
    cols = list(zip(*(row[m:] for row in T)))
    colours = {}
    return [[colours.setdefault(ring.dot(v, col), len(colours)) for col in cols] for v in V]


def _affine_maps(ch, cverts, basis_ids):
    """A function taking a vertex permutation to its automorphism, or None.

    H has the homogenized basis vertices (v_b, 1) as columns.  One
    elimination of [H | I | homogenized vertices as columns] gives, over
    one denominator den, W = den H^-1 and the barycentric coordinates
    L_j = den H^-1 (v_j, 1) of every vertex on the basis, in the ring of
    all the chart coordinates (ints, or Z[sqrt 5] pairs).  With the
    vertices held as V_j = s v_j for one common scale s, the affine map
    sending basis vertex b to perm[b] moves v_j onto v_perm[j] iff
    sum_b L_jb V_perm[b] = den V_perm[j].  That is checked on every
    vertex, and [matrix | translation] is the image basis times H^-1.
    """
    d = ch.dim
    width = d + 1
    hat = [list(v) + [1] for v in cverts]
    ring, T, _, den, _ = _eliminate(
        [
            [hat[b][r] for b in basis_ids]
            + [int(r == c) for c in range(width)]
            + [v[r] for v in hat]
            for r in range(width)
        ]
    )
    W_columns = list(zip(*(row[width : 2 * width] for row in T)))
    L = list(zip(*(row[2 * width :] for row in T)))
    flat, s = ring.lift([x for v in cverts for x in v])
    V = [flat[j * d : (j + 1) * d] for j in range(len(cverts))]
    target = [[ring.mul(den, x) for x in v] for v in V]
    ds = ring.mul(den, s)

    def induced(perm):
        # columns[r][b] is coordinate r of the image of basis vertex b
        columns = list(zip(*(V[perm[b]] for b in basis_ids)))
        for lam, j in zip(L, perm):
            if [ring.dot(lam, col) for col in columns] != target[j]:
                return None
        rows = [
            [ring.quotient(ring.dot(col, w), ds) for w in W_columns]
            for col in columns
        ]
        return PolytopeAutomorphism(
            permutation=perm,
            matrix=tuple(tuple(row[:d]) for row in rows),
            translation=tuple(row[d] for row in rows),
            chart=ch,
        )

    return induced

