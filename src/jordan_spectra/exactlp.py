"""Exact linear feasibility over rational (and quadratic-extension) scalars.

The frame and distinguishability queries on polytopes each ask one
question of a small linear program in facet multipliers: is it feasible?
Every variable is non-negative, x >= 0, so a multiplier's sign costs no
row.  Everything is exact: coefficients are ints, Fractions or Sqrt5
values (for bodies defined over Q(sqrt 5)), and every answer carries a
certificate that re-verifies with zero tolerance before it is returned:
a witness point for Feasible, a Farkas ray for Infeasible.

The simplex method (phase I only) is fraction-free and pivots with the
elimination kernel of :mod:`exactla`.  Each standardized row is scaled by
the lcm of its denominators into a ring, Python ints for rational programs
and Z[sqrt 5] (int pairs) for any program containing a Sqrt5, and every
pivot is an integer-preserving Bareiss update over one common denominator
(Bareiss, Math. Comp. 22, 1968), so no division is ever inexact.  Pivots
follow Bland's anti-cycling rule (Bland, Math. Oper. Res. 2, 1977); sign
tests and ratio tests compare by cross-multiplication.  Int coefficients
stay ints, so the ring-integer frame LPs build no Fraction on the way in;
Fraction and Sqrt5 objects appear only when rows are scaled on the way in
and when certificates are built on the way out.  Bools and floats are
rejected at construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactla import _bareiss_pivot, _ring_for
from .scalars import exact

RELATIONS = ("<=", "=", ">=")


class LPError(ValueError):
    """Malformed program or internal certificate failure."""


@dataclass(frozen=True)
class LinearProgram:
    """Immutable exact feasibility program.

    ``constraints`` is a tuple of ``(row, relation, rhs)`` triples with
    relation one of ``<=``, ``=``, ``>=``, over variables x >= 0.
    """

    n_vars: int
    constraints: tuple


def _coefficient(value):
    """An int as it is (ints are exact), any other value through ``exact``."""
    return value if type(value) is int else exact(value)


def linear_program(constraints, n_vars=None):
    """Validate and freeze a program; the only supported constructor.  Int
    coefficients stay ints, bools and floats are refused."""
    try:
        rows = tuple(
            (tuple(map(_coefficient, row)), rel, _coefficient(rhs)) for row, rel, rhs in constraints
        )
    except (TypeError, ValueError) as exc:
        raise LPError(str(exc)) from None
    width = n_vars
    for coeffs, rel, _ in rows:
        if width is None:
            width = len(coeffs)
        if len(coeffs) != width:
            raise LPError(f"constraint row has {len(coeffs)} coefficients, expected {width}")
        if rel not in RELATIONS:
            raise LPError(f"unknown relation {rel!r}")
    if width is None:
        raise LPError("cannot infer variable count from an empty program")
    if width < 1:
        raise LPError("programs need at least one variable")
    if not rows:
        raise LPError("programs need at least one constraint")
    return LinearProgram(n_vars=width, constraints=rows)


@dataclass(frozen=True)
class FarkasCertificate:
    """Farkas ray for the standardized program {z >= 0 : Az = b}.

    ``y`` has y.A >= 0 column by column and y.b < 0, so y.(Az) >= 0 > y.b
    for every z >= 0 and no z solves the program.  ``rows`` and ``rhs`` are
    the standardized program, one multiplier per row: z = (x, slacks)
    with one slack per inequality, each row scaled to integer
    (or Z[sqrt 5]) coefficients with slack entry +-1 and signed so that
    b >= 0.
    """

    rows: tuple
    rhs: tuple
    y: tuple

    def is_valid(self) -> bool:
        cols = [0] * len(self.rows[0])
        for yi, row in zip(self.y, self.rows):
            if yi != 0:
                for j, a in enumerate(row):
                    if a != 0:
                        cols[j] = cols[j] + yi * a
        if any(v < 0 for v in cols):
            return False
        return sum(yi * bi for yi, bi in zip(self.y, self.rhs)) < 0


@dataclass(frozen=True)
class Feasible:
    witness: tuple

    status = "feasible"


@dataclass(frozen=True)
class Infeasible:
    certificate: FarkasCertificate

    status = "infeasible"


def check_witness(lp: LinearProgram, point) -> bool:
    """Exact zero-tolerance check of x >= 0 and of every constraint at
    ``point``."""
    if len(point) != lp.n_vars:
        raise LPError("witness length mismatch")
    if any(x < 0 for x in point):
        return False
    for row, rel, rhs in lp.constraints:
        lhs = sum(c * x for c, x in zip(row, point) if c and x)
        ok = lhs <= rhs if rel == "<=" else lhs >= rhs if rel == ">=" else lhs == rhs
        if not ok:
            return False
    return True


# ---------------------------------------------------------------------------
# simplex core


def _standardize(lp: LinearProgram, ring):
    """Rewrite the constraints as {z >= 0 : Az = b, b >= 0} over ``ring``.

    Columns of z: x_0..x_{n-1}, then one slack per inequality.  Each row
    is scaled into the ring by the lcm of its denominators, its slack
    keeping coefficient +-1, and negated so that b >= 0 and a zero-rhs
    inequality has slack +1.  ``start[i]`` is
    the +1 slack column of row i, which can open the basis, or None when
    row i needs an artificial column.
    """
    n = lp.n_vars
    width = n + sum(1 for _, rel, _ in lp.constraints if rel != "=")
    zero = ring.zero
    rows, rhs, start = [], [], []
    slack_at = n
    for coeffs, rel, b in lp.constraints:
        body, _ = ring.lift(coeffs + (b,))
        b = body.pop()
        body.extend([zero] * (width - n))
        sign = ring.sign(b)
        flip = sign < 0 or (sign == 0 and rel == ">=")
        col = None
        if rel != "=":
            body[slack_at] = ring.one if rel == "<=" else ring.minus_one
            if (rel == "<=") != flip:  # the slack ends up with coefficient +1
                col = slack_at
            slack_at += 1
        if flip:
            body = ring.scale(body, ring.minus_one, ring.one)
            b = ring.sub(zero, b)
        rows.append(body)
        rhs.append(b)
        start.append(col)
    return rows, rhs, start


def _bland(ring, T, basis, d):
    """Bland's rule until optimal; returns the final denominator.

    Entering: the first column with a positive reduced cost.  Leaving: the
    minimum ratio rhs/entry over positive entries, compared by
    cross-multiplication, ties to the smallest basic column.  Phase I is
    bounded (its objective is at most 0), so some row always leaves.
    """
    sign, mul, sub = ring.sign, ring.mul, ring.sub
    m = len(T) - 1
    width = len(T[-1]) - 1
    while True:
        w = T[-1]
        enter = next((j for j in range(width) if sign(w[j]) > 0), None)
        if enter is None:
            return d
        best = None
        for i in range(m):
            a = T[i][enter]
            if sign(a) <= 0:
                continue
            if best is None:
                best = i
                continue
            c = sign(sub(mul(T[i][-1], T[best][enter]), mul(T[best][-1], a)))
            if c < 0 or (c == 0 and basis[i] < basis[best]):
                best = i
        if best is None:
            raise LPError("internal error: phase I found no leaving row")
        d = _bareiss_pivot(ring, T, basis, d, best, enter)


def _phase_one(ring, rows, rhs, start):
    """Drive the artificial columns to zero.

    Returns (T, basis, d, cols): the tableau with the phase I reduced-cost
    row last, the basis, the denominator, and for each row the column that
    opened the basis (its slack, or its artificial after the ``width``
    standard columns).  The program is infeasible iff T[-1][-1] != 0.
    """
    zero, one = ring.zero, ring.one
    width = len(rows[0])
    cols = list(start)
    n_art = 0
    for i, col in enumerate(start):
        if col is None:
            cols[i] = width + n_art
            n_art += 1
    T = []
    w = [zero] * (width + n_art + 1)
    for i, row in enumerate(rows):
        t = row + [zero] * n_art + [rhs[i]]
        if start[i] is None:
            t[cols[i]] = one
            w = ring.combine(w, t, one, ring.minus_one, one)
        T.append(t)
    for i, col in enumerate(start):
        if col is None:
            w[cols[i]] = zero
    T.append(w)
    basis = list(cols)
    return T, basis, _bland(ring, T, basis, one), cols


def _farkas(ring, rows, rhs, start, T, cols, d):
    """Farkas ray from the phase I reduced costs, verified before return.

    The phase I dual is y = c_B B^-1 with cost -1 on artificials; the
    reduced cost of a row's opening column is c_col - y_row, so
    d*y_row = -T[-1][col] - (d if the column is artificial else 0).
    """
    w = T[-1]
    y = []
    for i, col in enumerate(cols):
        yi = ring.sub(ring.zero, w[col])
        if start[i] is None:
            yi = ring.sub(yi, d)
        y.append(ring.scalar(yi))
    cert = FarkasCertificate(
        rows=tuple(tuple(map(ring.scalar, row)) for row in rows),
        rhs=tuple(map(ring.scalar, rhs)),
        y=tuple(y),
    )
    if not cert.is_valid():
        raise LPError("internal error: Farkas certificate failed exact verification")
    return Infeasible(certificate=cert)


def _witness(ring, T, basis, d, n):
    """x from the basic values, as exact field scalars."""
    values = [ring.zero] * n
    for i, col in enumerate(basis):
        if col < n:
            values[col] = T[i][-1]
    return tuple(ring.quotient(v, d) for v in values)


def lp_feasible(lp: LinearProgram):
    """Exact feasibility: Feasible(witness) or Infeasible(certificate)."""
    ring = _ring_for([v for row, _, rhs in lp.constraints for v in (*row, rhs)])
    rows, rhs, start = _standardize(lp, ring)
    T, basis, d, cols = _phase_one(ring, rows, rhs, start)
    if T[-1][-1] != ring.zero:
        return _farkas(ring, rows, rhs, start, T, cols, d)
    witness = _witness(ring, T, basis, d, lp.n_vars)
    if not check_witness(lp, witness):
        raise LPError("internal error: simplex witness failed exact re-check")
    return Feasible(witness=witness)

