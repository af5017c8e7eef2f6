"""Exact dense linear algebra over Q and Q(sqrt 5), on one elimination kernel.

Matrices are lists of rows whose entries are int, Fraction or Sqrt5.  Every
routine here, and the simplex of :mod:`exactlp`, eliminates with the same
fraction-free kernel.  Each row is scaled by the lcm of its denominators
into a ring, Python ints for rational input and Z[sqrt 5] (int pairs) when
any entry is a Sqrt5, and every pivot is an integer-preserving Bareiss
update over one common denominator (Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 22, 1968),
so no division is ever inexact.  Fraction and Sqrt5 values appear only on
the way out, through ``ring.quotient``.  Pivoting picks the first nonzero
entry (exact arithmetic needs no magnitude pivoting).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .scalars import Sqrt5

# ---------------------------------------------------------------------------
# rings: the arithmetic of the fraction-free kernel
#
# A ring element stands for a field value times a known positive scale.
# ``combine(row, prow, p, f, d)`` is the Bareiss update (row*p - f*prow)/d
# and ``scale(row, p, d)`` is row*p/d; both divisions are exact whenever d
# is the previous pivot, because every entry is then a minor of the scaled
# input matrix.  ``dot`` is the inner product of two vectors of elements.


class _Integers:
    """Rational input: ring elements are Python ints."""

    zero, one, minus_one = 0, 1, -1
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)

    @staticmethod
    def dot(xs, ys):
        return sum(map(operator.mul, xs, ys))

    @staticmethod
    def lift(values):
        """Scale Fractions by the lcm of their denominators: (ints, lcm)."""
        scale = math.lcm(*(v.denominator for v in values))
        return [v.numerator * (scale // v.denominator) for v in values], scale

    @staticmethod
    def combine(row, prow, p, f, d):
        return [(a * p - f * b) // d for a, b in zip(row, prow)]

    @staticmethod
    def scale(row, p, d):
        return [a * p // d for a in row]

    @staticmethod
    def sign(x):
        return (x > 0) - (x < 0)

    @staticmethod
    def scalar(x):
        return x

    @staticmethod
    def quotient(x, d):
        return Fraction(x, d)


_FRACTION_ZERO = Fraction(0)


class _QuadraticIntegers:
    """Input over Q(sqrt 5): ring elements are int pairs (a, b) = a + b*sqrt5."""

    zero, one, minus_one = (0, 0), (1, 0), (-1, 0)

    @staticmethod
    def add(x, y):
        return (x[0] + y[0], x[1] + y[1])

    @staticmethod
    def sub(x, y):
        return (x[0] - y[0], x[1] - y[1])

    @staticmethod
    def mul(x, y):
        return (x[0] * y[0] + 5 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    @staticmethod
    def dot(xs, ys):
        a = b = 0
        for (xa, xb), (ya, yb) in zip(xs, ys):
            a += xa * ya + 5 * xb * yb
            b += xa * yb + xb * ya
        return (a, b)

    @staticmethod
    def lift(values):
        """Scale Fraction/Sqrt5 values by the lcm of all part denominators:
        (pairs, lcm as a pair)."""
        parts = [(v.a, v.b) if isinstance(v, Sqrt5) else (v, _FRACTION_ZERO) for v in values]
        scale = math.lcm(*(q.denominator for pair in parts for q in pair))
        ring = [
            (a.numerator * (scale // a.denominator), b.numerator * (scale // b.denominator))
            for a, b in parts
        ]
        return ring, (scale, 0)

    @staticmethod
    def combine(row, prow, p, f, d):
        pa, pb = p
        fa, fb = f
        da, db = d
        norm = da * da - 5 * db * db
        out = []
        # x = a*p - f*c in Z[sqrt5], then x / d = x * conj(d) / norm(d)
        for (a, b), (c, e) in zip(row, prow):
            xa = a * pa + 5 * b * pb - fa * c - 5 * fb * e
            xb = a * pb + b * pa - fa * e - fb * c
            out.append(((xa * da - 5 * xb * db) // norm, (xb * da - xa * db) // norm))
        return out

    @staticmethod
    def scale(row, p, d):
        return _QuadraticIntegers.combine(row, row, p, (0, 0), d)

    @staticmethod
    def sign(x):
        a, b = x
        sa = (a > 0) - (a < 0)
        sb = (b > 0) - (b < 0)
        if sa == sb or sb == 0:
            return sa
        if sa == 0:
            return sb
        # opposite signs: the larger of a^2 and 5 b^2 wins (never equal)
        return sa if a * a > 5 * b * b else sb

    @staticmethod
    def scalar(x):
        return x[0] if x[1] == 0 else Sqrt5(x[0], x[1])

    @staticmethod
    def quotient(x, d):
        (a, b), (da, db) = x, d
        norm = da * da - 5 * db * db
        return Sqrt5(Fraction(a * da - 5 * b * db, norm), Fraction(b * da - a * db, norm))


def _ring_for(values):
    """Z[sqrt 5] when any value is a Sqrt5, else the integers."""
    if any(isinstance(v, Sqrt5) for v in values):
        return _QuadraticIntegers
    return _Integers


def _bareiss_pivot(ring, T, basis, d, r, j):
    """Pivot on T[r][j] over common denominator ``d``; returns the new one.

    The rows of T stand for T / d.  The pivot row is kept, every other row
    becomes (row * p - row[j] * T[r]) / d, and the new denominator is p;
    when p < 0 the whole of T is negated so that the denominator stays
    positive.
    """
    prow = T[r]
    p = prow[j]
    zero = ring.zero
    for i, row in enumerate(T):
        if i == r:
            continue
        f = row[j]
        if f != zero:
            T[i] = ring.combine(row, prow, p, f, d)
        elif p != d:
            T[i] = ring.scale(row, p, d)
    basis[r] = j
    if ring.sign(p) < 0:
        for i, row in enumerate(T):
            T[i] = ring.scale(row, ring.minus_one, ring.one)
        p = ring.sub(zero, p)
    return p


def _eliminate(matrix, ring=None):
    """Fraction-free Gauss-Jordan elimination of ``matrix``.

    Returns (ring, T, pivots, d, scale): ``T / d`` is the reduced row
    echelon form, with ``pivots`` its pivot columns in order.  For a square
    matrix of full rank det(matrix) = d / scale, where ``scale`` is the
    product of the row lcms, negated once per row swap and once per
    negative pivot.  Given a ``ring``, the entries are already its elements
    and no row is lifted.
    """
    if ring is None:
        ring = _ring_for(v for row in matrix for v in row)
        T, scale = [], ring.one
        for row in matrix:
            lifted, s = ring.lift(row)
            T.append(lifted)
            scale = ring.mul(scale, s)
    else:
        T, scale = [list(row) for row in matrix], ring.one
    zero = ring.zero
    nrow = len(T)
    ncol = len(T[0]) if nrow else 0
    basis = [None] * nrow
    d = ring.one
    r = 0
    for c in range(ncol):
        if r == nrow:
            break
        i = next((i for i in range(r, nrow) if T[i][c] != zero), None)
        if i is None:
            continue
        if i != r:
            T[r], T[i] = T[i], T[r]
            scale = ring.sub(zero, scale)
        if ring.sign(T[r][c]) < 0:
            scale = ring.sub(zero, scale)
        d = _bareiss_pivot(ring, T, basis, d, r, c)
        r += 1
    return ring, T, basis[:r], d, scale


# ---------------------------------------------------------------------------
# routines


def mat_vec(m, v):
    return [sum(mij * vj for mij, vj in zip(row, v)) for row in m]


def solve_any(a, b):
    """One solution of a x = b (possibly underdetermined); None if none."""
    ncol = len(a[0]) if a else 0
    ring, T, pivots, d, _ = _eliminate([list(row) + [bv] for row, bv in zip(a, b)])
    if ncol in pivots:
        return None
    x = [Fraction(0)] * ncol
    for r, c in enumerate(pivots):
        x[c] = ring.quotient(T[r][ncol], d)
    return x


def determinant(a):
    """Exact determinant of a square matrix."""
    ring, _, pivots, d, scale = _eliminate(a)
    if len(pivots) != len(a):
        return Fraction(0)
    return ring.quotient(d, scale)


def affine_basis_indices(points, ring=None):
    """Indices of a maximal affinely independent subset, greedily (lex order).

    Index 0 and then, from one elimination of the difference vectors
    p_i - p_0 taken as columns, the pivot columns: a column is a pivot
    exactly when it is independent of the columns before it.  Given a
    ``ring``, the points are its elements, as in ``_eliminate``.
    """
    if not points:
        return []
    p0 = points[0]
    sub = operator.sub if ring is None else ring.sub
    diffs = [[sub(p[k], p0[k]) for p in points[1:]] for k in range(len(p0))]
    return [0] + [c + 1 for c in _eliminate(diffs, ring)[2]]
