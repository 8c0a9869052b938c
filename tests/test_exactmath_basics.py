from fractions import Fraction

import pytest

from credalgames.exactmath import (
    DimensionMismatchError,
    Vector,
    approx_decimal,
    rat,
    row_reduce,
    solve_square_system,
    unit_vector,
)
from polytope_oracle import fraction_row_reduce

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


def test_row_reduce_rejects_dropped_equations_and_ragged_rows():
    # a missing right-hand side must not silently drop an equation
    with pytest.raises(DimensionMismatchError):
        row_reduce([[F(1), F(0)], [F(0), F(1)]], [F(1)])
    with pytest.raises(DimensionMismatchError):
        row_reduce([[F(1)]], [F(1), F(2)])
    with pytest.raises(DimensionMismatchError):
        row_reduce([[F(1), F(0)], [F(1)]], [F(1), F(2)])


def _systems(st):
    """A linear system ``rows . x = rhs`` with 0..5 rows and 1..5 columns.

    Entries are ints or fractions, often zero.  The rows may get a copy of a
    row, a combination of two rows (rank-deficient) or a zero row appended,
    and their order is shuffled.  The right-hand side is ``rows . x`` for a
    drawn point (consistent) or drawn freely (often inconsistent).
    """
    entry = st.one_of(
        st.integers(-4, 4),
        st.builds(F, st.integers(-6, 6), st.integers(1, 5)),
        st.just(0),
    )

    @st.composite
    def system(draw):
        n = draw(st.integers(1, 5))
        rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=5))
        extra = draw(st.sampled_from(["none", "duplicate", "combination", "zero"]))
        if rows and extra == "duplicate":
            rows.append(list(draw(st.sampled_from(rows))))
        elif rows and extra == "combination":
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            k = draw(st.integers(-2, 2))
            rows.append([k * x + y for x, y in zip(a, b)])
        elif extra == "zero":
            rows.append([0] * n)
        rows = draw(st.permutations(rows))
        if draw(st.booleans()):
            x = draw(st.lists(entry, min_size=n, max_size=n))
            rhs = [sum((a * b for a, b in zip(row, x)), F(0)) for row in rows]
        else:
            rhs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
        return rows, rhs

    return system()


def test_row_reduce_matches_the_fraction_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    seen = set()

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
    @hypothesis.given(_systems(hypothesis.strategies))
    def check(system):
        rows, rhs = system
        reduced = row_reduce(rows, rhs)
        expected = fraction_row_reduce(rows, rhs)
        assert reduced == expected
        if not rows:
            return
        if reduced is not None:
            assert all(type(c) is F for row in reduced[0] for c in row)
            assert all(type(b) is F for b in reduced[1])
        m, n = len(rows), len(rows[0])
        if m == n:
            square = solve_square_system(rows, rhs)
            assert square == (expected[1] if expected and len(expected[0]) == n else None)
            seen.add("square solved" if square is not None else "square singular")
        seen.add("tall" if m > n else "wide" if m < n else "square")
        if reduced is None:
            seen.add("inconsistent")
        elif len(reduced[0]) < min(m, n):
            seen.add("rank-deficient")
        entries = [c for row in rows for c in row]
        if any(not any(row) for row in rows):
            seen.add("zero row")
        if any(rows[i] == rows[j] and any(rows[i]) for i in range(m) for j in range(i)):
            seen.add("duplicate")
        if any(next((c for c in row if c), 0) < 0 for row in rows):
            seen.add("negative leading entry")
        if any(type(c) is int and c for c in entries):
            seen.add("int")
        if any(type(c) is F and c.denominator > 1 for c in entries):
            seen.add("fraction")

    check()
    assert {
        "tall",
        "wide",
        "square",
        "square solved",
        "square singular",
        "inconsistent",
        "rank-deficient",
        "zero row",
        "duplicate",
        "negative leading entry",
        "int",
        "fraction",
    } <= seen
