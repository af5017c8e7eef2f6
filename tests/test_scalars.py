from fractions import Fraction

import pytest

from jordan_spectra.scalars import (
    PHI,
    SQRT5,
    Sqrt5,
    exact,
    format_scalar,
    parse_scalar,
)


def test_field_axioms_spot():
    x = Sqrt5(Fraction(1, 2), Fraction(-3, 7))
    y = Sqrt5(Fraction(2), Fraction(1, 5))
    z = Sqrt5(Fraction(-1, 3), Fraction(4))
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert x * (1 / x) == 1
    assert x - x == 0


def test_sqrt5_squares_to_five():
    assert SQRT5 * SQRT5 == 5
    assert PHI * PHI == PHI + 1  # golden ratio identity
    assert 1 / PHI == PHI - 1


def test_mixing_with_int_and_fraction():
    x = Sqrt5(1, 1)
    assert x + 1 == Sqrt5(2, 1)
    assert 1 + x == Sqrt5(2, 1)
    assert Fraction(1, 2) * x == Sqrt5(Fraction(1, 2), Fraction(1, 2))
    assert x - Fraction(1, 2) == Sqrt5(Fraction(1, 2), 1)
    assert Fraction(3) / Sqrt5(0, 1) == Sqrt5(0, Fraction(3, 5))
    assert Sqrt5(2, 0) == 2
    assert Sqrt5(2, 0) == Fraction(2)


def test_exact_ordering():
    # sqrt5 is between 2 and 3; 2 + sqrt5 > 4; phi < 13/8
    assert SQRT5 > 2
    assert SQRT5 < 3
    assert 2 < SQRT5
    assert Sqrt5(2, 1) > 4
    assert PHI < Fraction(13, 8)
    assert PHI > Fraction(8, 5)
    assert Sqrt5(-3, 1) < 0
    assert Sqrt5(3, -1) > 0
    assert sorted([PHI, Fraction(1), SQRT5, 0]) == [0, Fraction(1), PHI, SQRT5]


def test_float_and_abs():
    assert float(SQRT5) == pytest.approx(5 ** 0.5)
    assert abs(Sqrt5(1, -1)) == Sqrt5(-1, 1)


def test_hash_consistent_with_fraction():
    assert hash(Sqrt5(Fraction(3, 4), 0)) == hash(Fraction(3, 4))
    d = {Fraction(3, 4): "x"}
    d[Sqrt5(Fraction(3, 4), 0)] = "y"
    assert d == {Fraction(3, 4): "y"}


def test_exact_coerces_and_refuses():
    assert exact(3) == 3 and isinstance(exact(3), Fraction)
    assert exact("1/2+1/2*s5") == PHI
    assert exact(PHI) is PHI
    for bad in (True, 0.5, None, 1j, [1]):
        with pytest.raises(TypeError):
            exact(bad)


@pytest.mark.parametrize(
    "text,value",
    [
        ("3", Fraction(3)),
        ("-1/2", Fraction(-1, 2)),
        ("s5", Sqrt5(0, 1)),
        ("-s5", Sqrt5(0, -1)),
        ("s5/2", Sqrt5(0, Fraction(1, 2))),
        ("1/2+1/2*s5", PHI),
        ("2-3/4*s5", Sqrt5(2, Fraction(-3, 4))),
        ("-1/2+s5/2", Sqrt5(Fraction(-1, 2), Fraction(1, 2))),
    ],
)
def test_parse_scalar(text, value):
    assert parse_scalar(text) == value


def test_format_parse_roundtrip():
    values = [
        Fraction(0),
        Fraction(-7, 3),
        Sqrt5(0, 1),
        Sqrt5(0, Fraction(-2, 3)),
        PHI,
        Sqrt5(Fraction(5, 2), Fraction(-1, 2)),
    ]
    for v in values:
        assert parse_scalar(format_scalar(v)) == v


def test_parse_rejects_garbage():
    for bad in ["", "x", "1//2", "s5s5", "1+", "sqrt(5)"]:
        with pytest.raises(ValueError):
            parse_scalar(bad)
