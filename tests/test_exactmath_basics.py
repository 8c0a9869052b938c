from fractions import Fraction

import pytest

from credalgames.exactmath import (
    Vector,
    approx_decimal,
    rat,
    row_reduce,
    solve_square_system,
    unit_vector,
)

F = Fraction


@pytest.mark.parametrize(
    "text,expected",
    [("3/4", F(3, 4)), ("-21/64", F(-21, 64)), ("5", F(5)), ("0", F(0))],
)
def test_parse_and_format_round_trip(text, expected):
    value = rat(text)
    assert value == expected
    assert rat(str(value)) == value  # the wire format is str()


def test_lowest_terms_and_positive_denominator():
    q = rat(F(6, -8))
    assert (q.numerator, q.denominator) == (-3, 4)
    assert rat("-6/8") == F(-3, 4)


def test_floats_rejected():
    with pytest.raises(TypeError):
        rat(0.5)


def test_exactness_of_composed_products():
    # products of small fractions stay exact no matter how composed
    q = rat("7/16") + rat("7/16") * (1 - rat("1/3"))
    assert q == F(35, 48)
    assert (q.numerator, q.denominator) == (35, 48)


def test_approx_decimal_marks():
    assert approx_decimal(F(1, 3)) == "0.333333"
    assert approx_decimal(F(-1, 2)) == "-0.5"
    assert approx_decimal(F(2474, 25)) == "98.96"


def test_vector_arithmetic():
    a = Vector(["1/2", "1/3"])
    b = Vector(["1/2", "2/3"])
    assert (a + b) == Vector([1, 1])
    assert (b - a) == Vector([0, "1/3"])
    assert a.dot(b) == F(1, 4) + F(2, 9)
    assert a.scale(6) == Vector([3, 2])
    assert unit_vector(3, 1) == Vector([0, 1, 0])
    assert Vector([0, 1]) < Vector([1, 0])


def test_vector_probability_check():
    assert Vector(["1/4", "3/4", 0]).is_probability()
    assert not Vector(["1/2", "3/4", 0]).is_probability()
    assert not Vector(["-1/4", "5/4", 0]).is_probability()


def test_square_solve_and_singular():
    sol = solve_square_system([[F(2), F(1)], [F(1), F(-1)]], [F(4), F(-1)])
    assert sol == [F(1), F(2)]
    assert solve_square_system([[F(1), F(2)], [F(2), F(4)]], [F(1), F(2)]) is None


def test_row_reduce_rank_and_inconsistency():
    rows = [[F(0), F(2), F(4)], [F(1), F(1), F(1)], [F(1), F(2), F(3)]]
    assert row_reduce(rows, [F(2), F(1), F(2)]) == (
        [[F(1), F(0), F(-1)], [F(0), F(1), F(2)]],
        [F(0), F(1)],
    )
    assert row_reduce(rows, [F(2), F(1), F(3)]) is None
