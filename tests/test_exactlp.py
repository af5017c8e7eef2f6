"""Exact LP fixtures: hand-eliminated oracles first, then solver behavior."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jordan_spectra.exactla import solve_any
from jordan_spectra.exactlp import (
    FarkasCertificate,
    Feasible,
    Infeasible,
    LPError,
    check_witness,
    linear_program,
    lp_feasible,
)
from jordan_spectra.scalars import PHI, Sqrt5

F = Fraction

SQUARE = [(1, 1), (-1, 1), (-1, -1), (1, -1)]

# Affinely regular pentagon over Q(sqrt 5): the orbit of (1, 0) under
# (x, y) -> (-y, x + c*y) with c = (sqrt5 - 1)/2.  Barycenter is the origin.
C = Sqrt5(F(-1, 2), F(1, 2))
PENTAGON = [
    (Sqrt5(1), Sqrt5(0)),
    (Sqrt5(0), Sqrt5(1)),
    (Sqrt5(-1), C),
    (-C, -C),
    (C, Sqrt5(-1)),
]


def free_program(constraints, n_vars=None):
    """The program over free variables x = x+ - x-, as the solver takes only
    x >= 0: each row is written on the columns x+ and again, negated, on
    the columns x-."""
    rows = [(tuple(row) + tuple(-c for c in row), rel, rhs) for row, rel, rhs in constraints]
    return linear_program(rows, n_vars=None if n_vars is None else 2 * n_vars)


def affine_effect_rows(vertices, values):
    """Equality rows pinning an affine functional a + b.x to given values."""
    rows = []
    for v, val in zip(vertices, values):
        rows.append(((1,) + tuple(v), "=", val))
    return rows


# ---------------------------------------------------------------------------
# feasibility


def test_interval_feasible():
    lp = linear_program([((1,), ">=", 0), ((1,), "<=", 1)])
    res = lp_feasible(lp)
    assert isinstance(res, Feasible)
    assert check_witness(lp, res.witness)
    assert isinstance(res.witness[0], Fraction)


def test_witness_check_refuses_a_negative_coordinate():
    # x >= 0 is part of every program, so a point outside the orthant is
    # refused even where it meets every posed row
    lp = linear_program([((1,), "<=", 1)])
    assert check_witness(lp, (F(1, 2),))
    assert not check_witness(lp, (F(-1),))
    assert not check_witness(linear_program([((0, 1), "=", 0)]), (Sqrt5(0), -PHI))


def test_interval_infeasible():
    lp = linear_program([((1,), ">=", 1), ((1,), "<=", 0)])
    assert isinstance(lp_feasible(lp), Infeasible)


# The rows 0x<=0, 0x<=0, -2x<=-1, 3x<=3, x<=1 admit exactly x in [1/2, 1].
# Dividing int rows by an int pivot with `/` once turned this into floats
# and a false Infeasible.
FLOAT_LEAK_ROWS = [((0,), "<=", 0), ((0,), "<=", 0), ((-2,), "<=", -1), ((3,), "<=", 3), ((1,), "<=", 1)]


def lift_to_sqrt5(rows):
    """The same system with every coefficient a Sqrt5: the Z[sqrt5] kernel."""
    return [(tuple(Sqrt5(c) for c in row), rel, Sqrt5(rhs)) for row, rel, rhs in rows]


@pytest.mark.parametrize("lift", [False, True], ids=["int", "z_sqrt5"])
def test_float_leak_case_is_feasible_and_exact(lift):
    lp = linear_program(lift_to_sqrt5(FLOAT_LEAK_ROWS) if lift else FLOAT_LEAK_ROWS)
    res = lp_feasible(lp)
    assert isinstance(res, Feasible)
    assert res.witness in {(F(1, 2),), (F(1),)}  # a vertex of [1/2, 1]
    assert all(type(x) is (Sqrt5 if lift else Fraction) for x in res.witness)
    assert check_witness(lp, res.witness)


def farkas_recheck(cert):
    """Independent re-check of a Farkas ray, bypassing is_valid."""
    m, n = len(cert.rows), len(cert.rows[0])
    assert len(cert.y) == len(cert.rhs) == m
    for j in range(n):
        assert sum(cert.y[i] * cert.rows[i][j] for i in range(m)) >= 0
    assert sum(cert.y[i] * cert.rhs[i] for i in range(m)) < 0


def test_farkas_certificate_contents_recheck():
    # x >= 1 and x <= 0: standardized rows x - s1 = 1, x + s2 = 0.
    lp = linear_program([((1,), ">=", 1), ((1,), "<=", 0)])
    res = lp_feasible(lp)
    assert isinstance(res, Infeasible)
    cert = res.certificate
    assert isinstance(cert, FarkasCertificate) and cert.is_valid()
    farkas_recheck(cert)
    assert not any(isinstance(v, float) for v in cert.y + cert.rhs)
    # A ray for another right-hand side need not certify anything.
    assert not FarkasCertificate(rows=cert.rows, rhs=(0,) * len(cert.rhs), y=cert.y).is_valid()


def test_square_pair_effects_feasible():
    # Distinguishing the adjacent vertices v1, v2 of the square: two affine
    # effects with e_i(v_j) = delta_ij, both in [0, 1] on every vertex, and
    # e_1 + e_2 <= 1 pointwise.  e_1 = (1+x)/2, e_2 = (1-x)/2 is a solution.
    # The coefficients are free, so each is split into two columns.
    rows = []
    for i in range(2):
        off = 3 * i
        for j in range(2):
            coeff = [0] * 6
            coeff[off] = 1
            coeff[off + 1] = SQUARE[j][0]
            coeff[off + 2] = SQUARE[j][1]
            rows.append((tuple(coeff), "=", int(i == j)))
        for j in range(2, 4):
            coeff = [0] * 6
            coeff[off] = 1
            coeff[off + 1] = SQUARE[j][0]
            coeff[off + 2] = SQUARE[j][1]
            rows.append((tuple(coeff), ">=", 0))
            rows.append((tuple(coeff), "<=", 1))
    for j in range(4):
        coeff = [1, SQUARE[j][0], SQUARE[j][1]] * 2
        rows.append((tuple(coeff), "<=", 1))
    lp = free_program(rows)
    res = lp_feasible(lp)
    assert isinstance(res, Feasible)
    assert check_witness(lp, res.witness)


def test_square_triple_effects_infeasible():
    # Three affine effects e_i = a_i + b_i x + c_i y with e_i(v_j) = delta_ij
    # on the first three square vertices.  Hand elimination: the equalities
    # for e_2 give c_2 = 1/2, b_2 = -1/2, a_2 = 0, so e_2 = (y - x)/2 and
    # e_2(v_4) = e_2(1, -1) = -1, violating e_2(v_4) >= 0.  Infeasible over
    # free coefficients, each split into two columns.
    rows = []
    for i in range(3):
        off = 3 * i
        for j in range(3):
            coeff = [0] * 9
            coeff[off] = 1
            coeff[off + 1] = SQUARE[j][0]
            coeff[off + 2] = SQUARE[j][1]
            rows.append((tuple(coeff), "=", int(i == j)))
        coeff = [0] * 9
        coeff[off] = 1
        coeff[off + 1] = SQUARE[3][0]
        coeff[off + 2] = SQUARE[3][1]
        rows.append((tuple(coeff), ">=", 0))
        rows.append((tuple(coeff), "<=", 1))
    for j in range(4):
        coeff = [1, SQUARE[j][0], SQUARE[j][1]] * 3
        rows.append((tuple(coeff), "<=", 1))
    lp = free_program(rows)
    res = lp_feasible(lp)
    assert isinstance(res, Infeasible)
    farkas_recheck(res.certificate)


# ---------------------------------------------------------------------------
# optima as feasibility pairs: the program reaching a value is Feasible, the
# one just past it Infeasible, both certified


def tight_pair(rows, at, past):
    """rows + [at] is Feasible with a checked witness, rows + [past] is
    Infeasible with a rechecked Farkas ray; returns the witness."""
    lp = linear_program(rows + [at])
    res = lp_feasible(lp)
    assert isinstance(res, Feasible)
    assert check_witness(lp, res.witness)
    beyond = lp_feasible(linear_program(rows + [past]))
    assert isinstance(beyond, Infeasible)
    farkas_recheck(beyond.certificate)
    return res.witness


def box(n, lo, hi):
    """lo <= x_j <= hi for each of n variables."""
    rows = []
    for j in range(n):
        unit = tuple(int(k == j) for k in range(n))
        rows += [(unit, ">=", lo), (unit, "<=", hi)]
    return rows


def test_max_x_on_unit_interval():
    witness = tight_pair(box(1, 0, 1), ((1,), ">=", 1), ((1,), ">=", F(101, 100)))
    assert witness == (F(1),)


def test_max_sum_on_square():
    witness = tight_pair(box(2, -1, 1), ((1, 1), ">=", 2), ((1, 1), ">=", F(201, 100)))
    assert witness == (F(1), F(1))


def test_min_sense():
    rows = [((1, 1), ">=", 3)] + box(2, 0, 5)
    witness = tight_pair(rows, ((1, 1), "<=", 3), ((1, 1), "<=", F(299, 100)))
    assert sum(witness) == 3


def test_unbounded():
    # An unbounded region still gets a witness however far out it is asked
    # for: phase I itself is bounded and always finds a leaving row.
    for floor in (0, 10**6, F(10**9, 7)):
        lp = linear_program([((1,), ">=", 0), ((1,), ">=", floor)])
        res = lp_feasible(lp)
        assert isinstance(res, Feasible)
        assert check_witness(lp, res.witness)


def test_pentagon_effect_maximized_at_top_vertex():
    # The affine functional vanishing on v2, v3 and equal to 1 on v0 takes
    # the value phi - 1 on each neighbor of v0.  Solve for it exactly, then
    # check that over convex weights it reaches 1 only with all mass on v0
    # and never goes below 0.
    one, zero = Sqrt5(1), Sqrt5(0)
    mat = [
        [one, PENTAGON[0][0], PENTAGON[0][1]],
        [one, PENTAGON[2][0], PENTAGON[2][1]],
        [one, PENTAGON[3][0], PENTAGON[3][1]],
    ]
    alpha, beta, gamma = solve_any(mat, [one, zero, zero])
    values = [alpha + beta * v[0] + gamma * v[1] for v in PENTAGON]
    golden = PHI - 1
    assert golden == C
    assert values == [Sqrt5(1), golden, Sqrt5(0), Sqrt5(0), golden]

    rows = [((1, 1, 1, 1, 1), "=", 1)]
    for j in range(5):
        unit = tuple(int(k == j) for k in range(5))
        rows.append((unit, ">=", 0))
    values = tuple(values)
    top = tight_pair(rows, (values, ">=", 1), (values, ">=", 1 + F(1, 100)))
    assert top == (F(1), F(0), F(0), F(0), F(0))
    tight_pair(rows, (values, "<=", 0), (values, "<=", F(-1, 100)))


def test_beale_cycling_example_terminates():
    # Beale's classic fixture cycles under the largest-coefficient rule.
    # Under Bland's rule the degenerate phase I pivots certify its optimum
    # 1/20: objective >= 1/20 is feasible, only at x = (1/25, 0, 1, 0), and
    # objective >= 1/20 + 1/1000 is not.
    rows = [
        ((F(1, 4), -60, F(-1, 25), 9), "<=", 0),
        ((F(1, 2), -90, F(-1, 50), 3), "<=", 0),
        ((0, 0, 1, 0), "<=", 1),
    ] + [(tuple(int(k == j) for k in range(4)), ">=", 0) for j in range(4)]
    objective = (F(3, 4), -150, F(1, 50), -6)
    witness = tight_pair(
        rows, (objective, ">=", F(1, 20)), (objective, ">=", F(1, 20) + F(1, 1000))
    )
    assert witness == (F(1, 25), F(0), F(1), F(0))


def test_redundant_equalities():
    rows = [
        ((1, 1), "=", 1),
        ((1, 1), "=", 1),
        ((1, 1), "=", 1),
        ((1, 0), ">=", 0),
        ((0, 1), ">=", 0),
    ]
    witness = tight_pair(rows, ((0, 1), ">=", 1), ((0, 1), ">=", 2))
    assert witness == (F(0), F(1))


# ---------------------------------------------------------------------------
# validation


def test_dimension_mismatch():
    with pytest.raises(LPError):
        linear_program([((1, 2), "<=", 1), ((1,), "<=", 1)])
    with pytest.raises(LPError):
        linear_program([((1, 2), "<=", 1)], n_vars=1)


def test_bad_relation_and_sense():
    with pytest.raises(LPError):
        linear_program([((1,), "<", 1)])


def test_float_rejected():
    with pytest.raises(LPError):
        linear_program([((0.5,), "<=", 1)])


@pytest.mark.parametrize("bad", [True, 1j, [1]], ids=["bool", "complex", "list"])
def test_non_scalar_coefficients_rejected(bad):
    with pytest.raises(LPError):
        linear_program([((1,), "<=", bad)])
    with pytest.raises(LPError):
        linear_program([((bad,), "<=", 1)])


def test_int_rows_stay_ints_and_other_scalars_are_coerced():
    # ints are exact, so a program posed on ring integers keeps them; every
    # other scalar still goes through the one validating coercer
    lp = linear_program(
        [((2, -3), "<=", 5), ((F(1, 2), "1/3"), ">=", 0), ((Sqrt5(0, 1), 0), "=", 1)]
    )
    types = [[type(x) for x in row + (rhs,)] for row, _, rhs in lp.constraints]
    assert types == [[int, int, int], [F, F, int], [Sqrt5, int, int]]
    for bad in (True, False, 0.5, "1/0", "x", None):
        with pytest.raises(LPError):
            linear_program([((1, bad), "<=", 1)])
        with pytest.raises(LPError):
            linear_program([((1, 2), "<=", bad)])
    # the answer is the one the Fraction program gets, types included
    rows = [((1, 1), ">=", 2), ((1, -1), "<=", 1), ((1, 0), "<=", 3)]
    as_fractions = [(tuple(map(F, r)), rel, F(b)) for r, rel, b in rows]
    got, want = (lp_feasible(linear_program(r)) for r in (rows, as_fractions))
    assert repr(got) == repr(want)


def test_empty_program_rejected():
    with pytest.raises(LPError):
        linear_program([])
    with pytest.raises(LPError):
        linear_program([], n_vars=2)


# ---------------------------------------------------------------------------
# properties


coeff = st.integers(min_value=-6, max_value=6).map(F)
non_negative = st.integers(min_value=0, max_value=6).map(F)


@settings(max_examples=60, deadline=None)
@given(
    point=st.tuples(non_negative, non_negative),
    rows=st.lists(st.tuples(coeff, coeff), min_size=1, max_size=6),
    slacks=st.lists(st.integers(min_value=0, max_value=4), min_size=6, max_size=6),
)
@example(  # FLOAT_LEAK_ROWS in two variables
    point=(F(1), F(0)),
    rows=[(F(0), F(0)), (F(0), F(0)), (F(-2), F(0)), (F(3), F(0)), (F(1), F(0))],
    slacks=[0, 0, 1, 0, 0, 0],
)
def test_constructed_feasible_systems(point, rows, slacks):
    # rhs chosen so the sampled point, in the non-negative orthant where
    # the variables live, satisfies every row; the solver must agree and
    # its witness must pass the exact re-check.
    constraints = []
    for row, s in zip(rows, slacks):
        rhs = row[0] * point[0] + row[1] * point[1] + s
        constraints.append((row, "<=", rhs))
    lp = linear_program(constraints, n_vars=2)
    res = lp_feasible(lp)
    assert isinstance(res, Feasible)
    assert check_witness(lp, res.witness)


@settings(max_examples=40, deadline=None)
@given(
    row=st.tuples(coeff, coeff).filter(lambda r: r != (0, 0)),
    t=coeff,
)
def test_contradictory_pair_infeasible(row, t):
    lp = linear_program([(row, "<=", t), (row, ">=", t + 1)])
    res = lp_feasible(lp)
    assert isinstance(res, Infeasible)
    farkas_recheck(res.certificate)


relation = st.sampled_from(("<=", "=", ">="))
small = st.integers(min_value=-3, max_value=3).map(F)
# Positive multipliers in Q(sqrt5): scaling a row by one keeps its solution
# set, so the lifted program is the same system over genuinely irrational
# coefficients.
MULTIPLIERS = (Sqrt5(1), PHI, PHI - 1, 2 - PHI)


@settings(max_examples=80, deadline=None)
@given(
    rows=st.lists(st.tuples(st.tuples(small, small), relation, small), min_size=2, max_size=6)
)
def test_int_and_sqrt5_kernels_agree(rows):
    # Two variables and up to six mixed rows: about half the draws are
    # infeasible, so both certificates get exercised.
    lifted = [
        (tuple(MULTIPLIERS[i % 4] * c for c in row), rel, MULTIPLIERS[i % 4] * rhs)
        for i, (row, rel, rhs) in enumerate(rows)
    ]
    rational, quadratic = linear_program(rows), linear_program(lifted)
    got = [lp_feasible(rational), lp_feasible(quadratic)]
    assert type(got[0]) is type(got[1])
    for lp, res in zip((rational, quadratic), got):
        if isinstance(res, Feasible):
            assert not any(isinstance(x, float) for x in res.witness)
            assert check_witness(lp, res.witness)
        else:
            farkas_recheck(res.certificate)
