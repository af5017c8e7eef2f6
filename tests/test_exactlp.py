"""Exact LP fixtures: hand-eliminated oracles first, then solver behavior."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jordan_spectra.exactla import solve_unique
from jordan_spectra.exactlp import (
    FarkasCertificate,
    Feasible,
    Infeasible,
    LPError,
    Optimal,
    Unbounded,
    check_witness,
    linear_program,
    lp_feasible,
    lp_optimize,
    rationalize_vector,
    LinearProgram,
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
    # x >= 1 and x <= 0: standardized rows x' - t - s1 = 1, x' - t + s2 = 0.
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
    lp = linear_program(rows)
    res = lp_feasible(lp)
    assert isinstance(res, Feasible)
    assert check_witness(lp, res.witness)


def test_square_triple_effects_infeasible():
    # Three affine effects e_i = a_i + b_i x + c_i y with e_i(v_j) = delta_ij
    # on the first three square vertices.  Hand elimination: the equalities
    # for e_2 give c_2 = 1/2, b_2 = -1/2, a_2 = 0, so e_2 = (y - x)/2 and
    # e_2(v_4) = e_2(1, -1) = -1, violating e_2(v_4) >= 0.  Infeasible.
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
    lp = linear_program(rows)
    res = lp_feasible(lp)
    assert isinstance(res, Infeasible)
    farkas_recheck(res.certificate)


# ---------------------------------------------------------------------------
# optimization


def test_max_x_on_unit_interval():
    lp = linear_program([], objective=(1,), n_vars=1, bounds=[(0, 1)])
    res = lp_optimize(lp)
    assert isinstance(res, Optimal)
    assert res.value == 1
    assert res.witness == (F(1),)
    assert res.certificate.is_valid(res.value)


def test_max_sum_on_square():
    lp = linear_program([], objective=(1, 1), n_vars=2, bounds=[(-1, 1), (-1, 1)])
    res = lp_optimize(lp)
    assert res.value == 2
    assert res.witness == (F(1), F(1))
    assert res.certificate.is_valid(res.value)


def test_min_sense():
    lp = linear_program(
        [((1, 1), ">=", 3)], objective=(1, 1), sense="min", n_vars=2, bounds=[(0, 5), (0, 5)]
    )
    res = lp_optimize(lp)
    assert res.value == 3
    assert sum(res.witness) == 3


def test_unbounded():
    lp = linear_program([((1,), ">=", 0)], objective=(1,))
    assert isinstance(lp_optimize(lp), Unbounded)


def test_optimize_infeasible():
    lp = linear_program([((1,), ">=", 1), ((1,), "<=", 0)], objective=(1,))
    assert isinstance(lp_optimize(lp), Infeasible)


def test_pentagon_effect_maximized_at_top_vertex():
    # The affine functional vanishing on v2, v3 and equal to 1 on v0 takes
    # the value phi - 1 on each neighbor of v0.  Solve for it exactly, then
    # check that maximizing it over convex weights puts all mass on v0.
    one, zero = Sqrt5(1), Sqrt5(0)
    mat = [
        [one, PENTAGON[0][0], PENTAGON[0][1]],
        [one, PENTAGON[2][0], PENTAGON[2][1]],
        [one, PENTAGON[3][0], PENTAGON[3][1]],
    ]
    alpha, beta, gamma = solve_unique(mat, [one, zero, zero])
    values = [alpha + beta * v[0] + gamma * v[1] for v in PENTAGON]
    golden = PHI - 1
    assert golden == C
    assert values == [Sqrt5(1), golden, Sqrt5(0), Sqrt5(0), golden]

    rows = [((1, 1, 1, 1, 1), "=", 1)]
    for j in range(5):
        unit = tuple(int(k == j) for k in range(5))
        rows.append((unit, ">=", 0))
    lp = linear_program(rows, objective=tuple(values))
    res = lp_optimize(lp)
    assert isinstance(res, Optimal)
    assert res.value == 1
    assert res.witness == (F(1), F(0), F(0), F(0), F(0))
    assert res.certificate.is_valid(res.value)

    low = lp_optimize(linear_program(rows, objective=tuple(values), sense="min"))
    assert low.value == 0


def test_beale_cycling_example_terminates():
    # Beale's classic fixture cycles under the largest-coefficient rule;
    # Bland's rule must reach the optimum 1/20 at x = (1/25, 0, 1, 0).
    lp = linear_program(
        [
            ((F(1, 4), -60, F(-1, 25), 9), "<=", 0),
            ((F(1, 2), -90, F(-1, 50), 3), "<=", 0),
            ((0, 0, 1, 0), "<=", 1),
        ],
        objective=(F(3, 4), -150, F(1, 50), -6),
        bounds=[(0, None)] * 4,
    )
    res = lp_optimize(lp)
    assert res.value == F(1, 20)
    assert res.witness == (F(1, 25), F(0), F(1), F(0))
    assert res.certificate.is_valid(res.value)


def test_redundant_equalities():
    rows = [
        ((1, 1), "=", 1),
        ((1, 1), "=", 1),
        ((1, 1), "=", 1),
        ((1, 0), ">=", 0),
        ((0, 1), ">=", 0),
    ]
    res = lp_optimize(linear_program(rows, objective=(0, 1)))
    assert res.value == 1
    assert res.witness == (F(0), F(1))
    assert res.certificate.is_valid(res.value)


def test_certificate_contents_recheck():
    # Independent re-check of the certificate arithmetic, bypassing is_valid.
    lp = linear_program([], objective=(1, 1), n_vars=2, bounds=[(-1, 1), (-1, 1)])
    res = lp_optimize(lp)
    cert = res.certificate
    m, n = len(cert.rows), len(cert.costs)
    for j in range(n):
        reduced = sum(cert.y[i] * cert.rows[i][j] for i in range(m)) - cert.costs[j]
        assert reduced >= 0
    assert sum(cert.y[i] * cert.rhs[i] for i in range(m)) == res.value


# ---------------------------------------------------------------------------
# validation and serialization


def test_dimension_mismatch():
    with pytest.raises(LPError):
        linear_program([((1, 2), "<=", 1), ((1,), "<=", 1)])
    with pytest.raises(LPError):
        linear_program([((1,), "<=", 1)], objective=(1, 2))


def test_bad_relation_and_sense():
    with pytest.raises(LPError):
        linear_program([((1,), "<", 1)])
    with pytest.raises(LPError):
        linear_program([((1,), "<=", 1)], sense="maximize")


def test_float_rejected():
    with pytest.raises(LPError):
        linear_program([((0.5,), "<=", 1)])


@pytest.mark.parametrize("bad", [True, 1j, [1]], ids=["bool", "complex", "list"])
def test_non_scalar_coefficients_rejected(bad):
    with pytest.raises(LPError):
        linear_program([((1,), "<=", bad)])
    with pytest.raises(LPError):
        linear_program([((1,), "<=", 1)], objective=(bad,))
    with pytest.raises(LPError):
        linear_program([((1,), "<=", 1)], bounds=[(bad, None)])


def test_optimize_needs_objective():
    with pytest.raises(LPError):
        lp_optimize(linear_program([((1,), "<=", 1)]))


def test_empty_program_rejected():
    with pytest.raises(LPError):
        linear_program([])
    with pytest.raises(LPError):
        linear_program([], n_vars=2)


def test_json_roundtrip():
    lp = linear_program(
        [((F(3, 7), 1), "<=", F(22, 7)), ((PHI, -1), ">=", 0)],
        objective=(1, F(1, 2)),
        sense="min",
    )
    again = LinearProgram.from_json(lp.to_json())
    assert again == lp
    assert '"3/7"' in lp.to_json()


def test_rationalize_vector():
    fracs, report = rationalize_vector([0.5, 1.0 / 3.0])
    assert fracs == (F(1, 2), F(1, 3))
    assert report["max_denominator"] == 10**6
    assert report["max_abs_error"] < 1e-12
    import math

    fracs, report = rationalize_vector([math.pi], max_denominator=10**6)
    assert fracs[0].denominator <= 10**6
    assert abs(float(fracs[0]) - math.pi) == report["max_abs_error"] < 1e-11


# ---------------------------------------------------------------------------
# properties


coeff = st.integers(min_value=-6, max_value=6).map(F)


@settings(max_examples=60, deadline=None)
@given(
    point=st.tuples(coeff, coeff),
    rows=st.lists(st.tuples(coeff, coeff), min_size=1, max_size=6),
    slacks=st.lists(st.integers(min_value=0, max_value=4), min_size=6, max_size=6),
)
@example(  # FLOAT_LEAK_ROWS in two variables
    point=(F(1), F(0)),
    rows=[(F(0), F(0)), (F(0), F(0)), (F(-2), F(0)), (F(3), F(0)), (F(1), F(0))],
    slacks=[0, 0, 1, 0, 0, 0],
)
def test_constructed_feasible_systems(point, rows, slacks):
    # rhs chosen so the sampled point satisfies every row; the solver must
    # agree and its witness must pass the exact re-check.
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
