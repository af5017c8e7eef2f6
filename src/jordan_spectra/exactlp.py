"""Exact linear programming over rational (and quadratic-extension) scalars.

Feasibility and optimization for small linear programs, used by the
distinguishability, face, and spectrality queries on polytopes.  Everything
is exact: coefficients are Fractions (or Sqrt5 values for bodies defined
over Q(sqrt 5)), and every answer carries a certificate that re-verifies
with zero tolerance before it is returned: a witness point for Feasible, a
dual solution for Optimal, a Farkas ray for Infeasible.

The simplex method is fraction-free and pivots with the elimination kernel
of :mod:`exactla`.  Each standardized row is scaled by the lcm of its
denominators into a ring, Python ints for rational programs and Z[sqrt 5]
(int pairs) for any program containing a Sqrt5, and every pivot is an
integer-preserving Bareiss update over one common denominator (Bareiss,
Math. Comp. 22, 1968), so no division is ever inexact.  Pivots
follow Bland's anti-cycling rule; sign tests and ratio tests compare by
cross-multiplication.  Free variables share one offset column
(x = x' - t with x', t >= 0).  Fraction and Sqrt5 objects appear only when
rows are scaled on the way in and when certificates are built on the way
out.

Floats are rejected at construction; callers that start from floating-point
data must go through :func:`rationalize_vector`, which records the rounding
error it introduced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .exactla import _bareiss_pivot, _ring_for
from .scalars import exact, format_scalar

RELATIONS = ("<=", "=", ">=")


class LPError(ValueError):
    """Malformed program or internal certificate failure."""


@dataclass(frozen=True)
class LinearProgram:
    """Immutable exact linear program.

    ``constraints`` is a tuple of ``(row, relation, rhs)`` triples with
    relation one of ``<=``, ``=``, ``>=``.  Variables are free unless
    constrained; per-variable bounds passed to :func:`linear_program` are
    normalized into single-variable rows here.  ``objective`` may be None
    for pure feasibility programs; ``sense`` is ``max`` or ``min``.
    """

    n_vars: int
    constraints: tuple
    objective: tuple | None = None
    sense: str = "max"

    def to_json(self) -> str:
        doc = {
            "n_vars": self.n_vars,
            "sense": self.sense,
            "objective": None
            if self.objective is None
            else [format_scalar(v) for v in self.objective],
            "constraints": [
                {
                    "coeffs": [format_scalar(v) for v in row],
                    "rel": rel,
                    "rhs": format_scalar(rhs),
                }
                for row, rel, rhs in self.constraints
            ],
        }
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "LinearProgram":
        doc = json.loads(text)
        return linear_program(
            constraints=[(c["coeffs"], c["rel"], c["rhs"]) for c in doc["constraints"]],
            objective=doc["objective"],
            sense=doc["sense"],
            n_vars=doc["n_vars"],
        )


def linear_program(constraints, objective=None, sense="max", n_vars=None, bounds=None):
    """Validate and freeze a program; the only supported constructor.

    ``bounds``, when given, is a sequence of ``(lo, hi)`` pairs (either end
    may be None) that become ``x_j >= lo`` / ``x_j <= hi`` rows.
    """
    try:
        rows = [(tuple(map(exact, row)), rel, exact(rhs)) for row, rel, rhs in constraints]
        if bounds is not None:
            bounds = [tuple(v if v is None else exact(v) for v in pair) for pair in bounds]
        obj = None if objective is None else tuple(map(exact, objective))
    except TypeError as exc:
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
    if not rows and not bounds:
        raise LPError("programs need at least one constraint")
    if bounds is not None:
        if len(bounds) != width:
            raise LPError("bounds length must match variable count")
        for j, (lo, hi) in enumerate(bounds):
            unit = tuple(Fraction(int(k == j)) for k in range(width))
            if lo is not None:
                rows.append((unit, ">=", lo))
            if hi is not None:
                rows.append((unit, "<=", hi))
    if obj is not None and len(obj) != width:
        raise LPError(f"objective has {len(obj)} coefficients, expected {width}")
    if sense not in ("max", "min"):
        raise LPError(f"unknown sense {sense!r}")
    return LinearProgram(n_vars=width, constraints=tuple(rows), objective=obj, sense=sense)


def _transpose_times(y, rows):
    """Column sums of sum_i y_i * rows_i, skipping zero multipliers."""
    out = [0] * len(rows[0])
    for yi, row in zip(y, rows):
        if yi != 0:
            for j, a in enumerate(row):
                if a != 0:
                    out[j] = out[j] + yi * a
    return out


@dataclass(frozen=True)
class FarkasCertificate:
    """Farkas ray for the standardized program {z >= 0 : Az = b}.

    ``y`` has y.A >= 0 column by column and y.b < 0, so y.(Az) >= 0 > y.b
    for every z >= 0 and no z solves the program.  ``rows`` and ``rhs`` are
    the standardized rows as :func:`lp_optimize` documents them, one
    multiplier per row.
    """

    rows: tuple
    rhs: tuple
    y: tuple

    def is_valid(self) -> bool:
        if any(v < 0 for v in _transpose_times(self.y, self.rows)):
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


@dataclass(frozen=True)
class Unbounded:
    status = "unbounded"


@dataclass(frozen=True)
class DualCertificate:
    """Dual solution for the standardized program max{cz : Az = b, z >= 0}.

    ``y`` is dual-feasible when y.col_j >= c_j for every column; strong
    duality then pins y.b to the primal optimum.  One multiplier per
    standardized row, redundant rows included.
    """

    rows: tuple
    rhs: tuple
    costs: tuple
    y: tuple

    def is_valid(self, value) -> bool:
        reduced = _transpose_times(self.y, self.rows)
        if any(r < c for r, c in zip(reduced, self.costs)):
            return False
        dual_value = sum(yi * bi for yi, bi in zip(self.y, self.rhs))
        return dual_value == value


@dataclass(frozen=True)
class Optimal:
    value: object
    witness: tuple
    certificate: DualCertificate

    status = "optimal"


def check_witness(lp: LinearProgram, point) -> bool:
    """Exact zero-tolerance check of every constraint at ``point``."""
    if len(point) != lp.n_vars:
        raise LPError("witness length mismatch")
    for row, rel, rhs in lp.constraints:
        lhs = sum(c * x for c, x in zip(row, point) if c and x)
        ok = lhs <= rhs if rel == "<=" else lhs >= rhs if rel == ">=" else lhs == rhs
        if not ok:
            return False
    return True


# ---------------------------------------------------------------------------
# simplex core


def _ring_of(lp: LinearProgram):
    values = [v for row, _, rhs in lp.constraints for v in (*row, rhs)]
    return _ring_for(values + list(lp.objective or ()))


def _negated_sum(ring, values):
    """Coefficient of the offset t, given a row's coefficients on x'."""
    total = ring.zero
    for v in values:
        total = ring.sub(total, v)
    return total


def _scalars(ring, rows, rhs):
    """Standardized rows and right-hand side as exact scalars."""
    return tuple(tuple(map(ring.scalar, row)) for row in rows), tuple(map(ring.scalar, rhs))


def _standardize(lp: LinearProgram, ring):
    """Rewrite the constraints as {z >= 0 : Az = b, b >= 0} over ``ring``.

    Columns of z: x'_0..x'_{n-1}, the shared offset t (x = x' - t), then
    one slack per inequality.  Each row is scaled into the ring by the lcm
    of its denominators, its slack keeping coefficient +-1, and negated so
    that b >= 0 and a zero-rhs inequality has slack +1.  ``start[i]`` is
    the +1 slack column of row i, which can open the basis, or None when
    row i needs an artificial column.
    """
    n = lp.n_vars
    width = n + 1 + sum(1 for _, rel, _ in lp.constraints if rel != "=")
    zero = ring.zero
    rows, rhs, start = [], [], []
    slack_at = n + 1
    for coeffs, rel, b in lp.constraints:
        body, _ = ring.lift(coeffs + (b,))
        b = body.pop()
        body.append(_negated_sum(ring, body))
        body.extend([zero] * (width - n - 1))
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


def _bland(ring, T, basis, d, allowed):
    """Bland's rule until optimal; returns (verdict, denominator).

    Entering: the first column below ``allowed`` with a positive reduced
    cost.  Leaving: the minimum ratio rhs/entry over positive entries,
    compared by cross-multiplication, ties to the smallest basic column.
    """
    sign, mul, sub = ring.sign, ring.mul, ring.sub
    m = len(T) - 1
    while True:
        w = T[-1]
        enter = next((j for j in range(allowed) if sign(w[j]) > 0), None)
        if enter is None:
            return "optimal", d
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
            return "unbounded", d
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
    _, d = _bland(ring, T, basis, one, width + n_art)
    return T, basis, d, cols


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
    exact_rows, exact_rhs = _scalars(ring, rows, rhs)
    cert = FarkasCertificate(rows=exact_rows, rhs=exact_rhs, y=tuple(y))
    if not cert.is_valid():
        raise LPError("internal error: Farkas certificate failed exact verification")
    return Infeasible(certificate=cert)


def _witness(ring, T, basis, d, n):
    """x = x' - t from the basic values, as exact field scalars."""
    zero = ring.zero
    values = [zero] * (n + 1)
    for i, col in enumerate(basis):
        if col <= n:
            values[col] = T[i][-1]
    t = values[n]
    return tuple(ring.quotient(ring.sub(v, t), d) for v in values[:n])


def lp_feasible(lp: LinearProgram):
    """Exact feasibility: Feasible(witness) or Infeasible(certificate)."""
    ring = _ring_of(lp)
    rows, rhs, start = _standardize(lp, ring)
    T, basis, d, cols = _phase_one(ring, rows, rhs, start)
    if T[-1][-1] != ring.zero:
        return _farkas(ring, rows, rhs, start, T, cols, d)
    witness = _witness(ring, T, basis, d, lp.n_vars)
    if not check_witness(lp, witness):
        raise LPError("internal error: simplex witness failed exact re-check")
    return Feasible(witness=witness)


def lp_optimize(lp: LinearProgram):
    """Exact optimum with a verified dual certificate.

    Returns Optimal(value, witness, certificate), Unbounded, or
    Infeasible(certificate).  Certificates refer to the standardized
    program max{cz : Az = b, z >= 0}: z = (x', t, slacks) with x = x' - t,
    one slack per inequality, each row of A scaled to integer (or
    Z[sqrt 5]) coefficients with slack entry +-1 and signed so that b >= 0,
    and c the objective on x' (negated for ``min``) with -sum(c) on t.
    Every certificate is checked before returning; a failure would be an
    internal bug, raised as LPError.
    """
    if lp.objective is None:
        raise LPError("lp_optimize requires an objective")
    ring = _ring_of(lp)
    zero = ring.zero
    rows, rhs, start = _standardize(lp, ring)
    T, basis, d, cols = _phase_one(ring, rows, rhs, start)
    if T[-1][-1] != zero:
        return _farkas(ring, rows, rhs, start, T, cols, d)
    width = len(rows[0])
    # Drive leftover artificials out of the (degenerate) basis; a row with
    # no standard column left is redundant and dropped.
    drop = []
    for i in range(len(rows)):
        if basis[i] >= width:
            j = next((k for k in range(width) if T[i][k] != zero), None)
            if j is None:
                drop.append(i)
            else:
                d = _bareiss_pivot(ring, T, basis, d, i, j)
    T = [row for i, row in enumerate(T) if i not in drop]
    basis = [col for i, col in enumerate(basis) if i not in drop]
    # Phase II reduced costs from scratch: d*c - sum_i c_basis(i) * T[i].
    sign = 1 if lp.sense == "max" else -1
    lifted, cost_scale = ring.lift(tuple(sign * c for c in lp.objective))
    cost = lifted + [_negated_sum(ring, lifted)] + [zero] * (width - lp.n_vars - 1)
    w = [ring.mul(d, c) for c in cost] + [zero] * (len(T[0]) - width)
    for i, col in enumerate(basis):
        cb = cost[col]
        if cb != zero:
            w = ring.combine(w, T[i], ring.one, cb, ring.one)
    T[-1] = w
    verdict, d = _bland(ring, T, basis, d, width)
    if verdict == "unbounded":
        return Unbounded()
    witness = _witness(ring, T, basis, d, lp.n_vars)
    if not check_witness(lp, witness):
        raise LPError("internal error: simplex witness failed exact re-check")
    # y_i = -(reduced cost of row i's opening column), whose cost is 0 here.
    denom = ring.mul(d, cost_scale)
    exact_rows, exact_rhs = _scalars(ring, rows, rhs)
    cert = DualCertificate(
        rows=exact_rows,
        rhs=exact_rhs,
        costs=tuple(ring.quotient(c, cost_scale) for c in cost),
        y=tuple(ring.quotient(ring.sub(zero, T[-1][col]), denom) for col in cols),
    )
    value = sum(c * v for c, v in zip(lp.objective, witness))
    if not cert.is_valid(sign * value):
        raise LPError("internal error: dual certificate failed exact verification")
    return Optimal(value=value, witness=witness, certificate=cert)


# ---------------------------------------------------------------------------
# float -> rational bridge


def rationalize_vector(values, max_denominator=10**6):
    """Round floats to Fractions with bounded denominator, reporting the error.

    Returns (fractions, report) where report records the denominator bound
    and the largest absolute rounding error as a float.  This is the only
    sanctioned entry point for floating-point data.
    """
    fracs = []
    worst = 0.0
    for v in values:
        f = Fraction(float(v)).limit_denominator(max_denominator)
        fracs.append(f)
        err = abs(float(f) - float(v))
        if err > worst:
            worst = err
    report = {"max_denominator": max_denominator, "max_abs_error": worst}
    return tuple(fracs), report
