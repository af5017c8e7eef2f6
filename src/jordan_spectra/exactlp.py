"""Exact linear programming over rational (and quadratic-extension) scalars.

Feasibility and optimization for small linear programs, used by the
distinguishability, face, and spectrality queries on polytopes.  Everything
is exact: coefficients are Fractions (or Sqrt5 values for bodies defined
over Q(sqrt 5)), and every answer carries a certificate that re-verifies
with zero tolerance before it is returned: a witness point for Feasible, a
dual solution for Optimal, a Farkas ray for Infeasible.

The simplex method is fraction-free.  Each standardized row is scaled by
the lcm of its denominators into a ring, Python ints for rational programs
and Z[sqrt 5] (int pairs) for any program containing a Sqrt5, and every
pivot is an integer-preserving Bareiss update over one common denominator
(Bareiss, Math. Comp. 22, 1968), so no division is ever inexact.  Pivots
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
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .scalars import Sqrt5, format_scalar, parse_scalar

RELATIONS = ("<=", "=", ">=")


class LPError(ValueError):
    """Malformed program or internal certificate failure."""


def _coerce(value):
    if isinstance(value, bool):
        raise LPError("boolean is not a scalar coefficient")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (Fraction, Sqrt5)):
        return value
    if isinstance(value, str):
        return parse_scalar(value)
    if isinstance(value, float):
        raise LPError(
            "float coefficients are not accepted; rationalize explicitly "
            "with rationalize_vector"
        )
    raise LPError(f"unsupported coefficient type {type(value).__name__}")


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
    rows = []
    width = n_vars
    for row, rel, rhs in constraints:
        coeffs = tuple(_coerce(v) for v in row)
        if width is None:
            width = len(coeffs)
        if len(coeffs) != width:
            raise LPError(f"constraint row has {len(coeffs)} coefficients, expected {width}")
        if rel not in RELATIONS:
            raise LPError(f"unknown relation {rel!r}")
        rows.append((coeffs, rel, _coerce(rhs)))
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
                rows.append((unit, ">=", _coerce(lo)))
            if hi is not None:
                rows.append((unit, "<=", _coerce(hi)))
    obj = None
    if objective is not None:
        obj = tuple(_coerce(v) for v in objective)
        if len(obj) != width:
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
# rings: the arithmetic kernel of the fraction-free simplex
#
# A ring element stands for a field value times a known positive scale.
# ``combine(row, prow, p, f, d)`` is the Bareiss update (row*p - f*prow)/d
# and ``scale(row, p, d)`` is row*p/d; both divisions are exact whenever d
# is the previous pivot, because every entry is then a minor of the scaled
# input matrix.


class _Integers:
    """Rational programs: ring elements are Python ints."""

    zero, one, minus_one = 0, 1, -1
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)

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
    """Programs over Q(sqrt 5): ring elements are int pairs (a, b) = a + b*sqrt5."""

    zero, one, minus_one = (0, 0), (1, 0), (-1, 0)

    @staticmethod
    def sub(x, y):
        return (x[0] - y[0], x[1] - y[1])

    @staticmethod
    def mul(x, y):
        return (x[0] * y[0] + 5 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

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


def _ring_of(lp: LinearProgram):
    values = [v for row, _, rhs in lp.constraints for v in (*row, rhs)]
    values += lp.objective or ()
    if any(isinstance(v, Sqrt5) for v in values):
        return _QuadraticIntegers
    return _Integers


# ---------------------------------------------------------------------------
# simplex core


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


def _bareiss_pivot(ring, T, basis, d, r, j):
    """Pivot on T[r][j] over common denominator ``d``; returns the new one.

    The tableau (constraint rows, then the reduced-cost row) stands for
    T / d.  The pivot row is kept, every other row becomes
    (row * p - row[j] * T[r]) / d, and the new denominator is p; when p < 0
    the whole tableau is negated so that the denominator stays positive.
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
