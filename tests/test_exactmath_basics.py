import operator
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm, prod

import pytest

from credalgames.exactmath import (
    DimensionMismatchError,
    Vector,
    approx_decimal,
    cleared,
    dot,
    fixed,
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
    assert approx_decimal(F(-1, 10**7)) == "0.0"
    assert approx_decimal(F(-1, 2 * 10**6)) == "-0.000001"


def _two_decimals(x: Fraction) -> str:
    """The two-decimal rounding SVG coordinates were written with before
    ``fixed``: halves away from zero, on the reduced ``100 x``."""
    scaled = x * 100
    n, d = scaled.numerator, scaled.denominator
    rounded = (n + d // 2) // d if n >= 0 else -((-n + d // 2) // d)
    whole, frac = divmod(abs(rounded), 100)
    return f"{'-' if rounded < 0 else ''}{whole}.{frac:02d}"


def test_fixed_rounds_as_the_svg_coordinates_did():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = set()
    # exact halves of the last place (odd over 200), negatives that round
    # to zero, and free fractions, some not in lowest terms on their
    # hundredfold
    values = st.one_of(
        st.builds(F, st.integers(-10**4, 10**4).map(lambda n: 2 * n + 1), st.just(200)),
        st.builds(F, st.integers(-1, 0), st.integers(201, 10**6)),
        st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**4)),
    )

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
    @hypothesis.given(values)
    def check(x):
        text = fixed(x, 2)
        assert text == _two_decimals(x)
        if (x * 200).denominator == 1 and (x * 100).denominator == 2:
            seen.add("half up" if x > 0 else "half down")
        if x < 0 and text == "0.00":
            seen.add("negative to zero")

    check()
    assert seen == {"half up", "half down", "negative to zero"}
    assert fixed(F(-5, 2), 1) == "-2.5" and fixed(F(2, 3), 6) == "0.666667"
    # a copy that rounds halves to even gives 0.12 and -0.12 here
    assert (fixed(F(1, 8), 2), fixed(F(-1, 8), 2)) == ("0.13", "-0.13")


def test_cleared_scales_by_the_lcm_of_the_denominators():
    assert cleared([F(1, 4), F(-5, 6), 3]) == [3, -10, 36]
    assert cleared([F(1, 4), F(-5, 6), 1]) == [3, -10, 12]  # a trailing 1 gives the lcm
    assert cleared([0, 2]) == [0, 2]
    assert all(type(c) is int for c in cleared([F(2, 3), F(4, 1)]))


def test_vector_arithmetic():
    a = Vector(["1/2", "1/3"])
    b = Vector(["1/2", "2/3"])
    # componentwise, never tuple concatenation
    assert (a + b) == Vector([1, 1]) and len(a + b) == 2
    assert (b - a) == Vector([0, "1/3"])
    assert a.dot(b) == F(1, 4) + F(2, 9)
    assert unit_vector(3, 1) == Vector([0, 1, 0])
    assert Vector([0, 1]) < Vector([1, 0])


def test_vector_rejects_inexact_empty_and_mismatched_operands():
    assert all(type(e) is F for e in Vector([1, "2/3", F(1, 2)]))
    for bad in ([0.5], [True, 0], [1, 1.0]):
        with pytest.raises(TypeError):
            Vector(bad)
    for empty in ([], ()):
        with pytest.raises(ValueError):
            Vector(empty)
    short, long = Vector([1, 2]), Vector([1, 2, 3])
    for x, y in ((short, long), (long, short)):
        for op in (operator.add, operator.sub, Vector.dot):
            with pytest.raises(DimensionMismatchError):
                op(x, y)


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


def _dot_cases(st):
    """Two equal-length lists of ints and Fractions, lengths 1..64.

    Denominators are shared (divisors of 60), pairwise coprime (one prime
    per position, so the least common multiple is their product) or mixed;
    zeros and negatives are frequent.
    """
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]

    @st.composite
    def cases(draw):
        n = draw(st.integers(1, 64))
        mode = draw(st.sampled_from(["int", "shared", "coprime", "mixed"]))
        shared = st.sampled_from([1, 2, 3, 4, 6, 12, 60])
        mixed = st.one_of(st.just(1), st.integers(1, 10**4))
        numerators = st.lists(
            st.one_of(st.just(0), st.integers(-10**6, 10**6)), min_size=n, max_size=n
        )

        def side():
            nums = draw(numerators)
            if mode == "int":
                return nums
            if mode == "coprime":
                dens = [primes[i % len(primes)] for i in range(n)]
            else:
                pick = shared if mode == "shared" else mixed
                dens = draw(st.lists(pick, min_size=n, max_size=n))
            # a denominator of 1 stays an int in mixed lists
            return [x if d == 1 and mode == "mixed" else F(x, d) for x, d in zip(nums, dens)]

        return side(), side()

    return cases()


def test_dot_matches_the_fraction_sum():
    hypothesis = pytest.importorskip("hypothesis")
    seen = set()

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(_dot_cases(hypothesis.strategies))
    def check(case):
        a, b = case
        expected = sum((x * y for x, y in zip(a, b)), F(0))
        for result in (dot(a, b), Vector(a).dot(Vector(b))):
            assert type(result) is F
            assert result == expected
            assert result.denominator > 0
            assert gcd(result.numerator, result.denominator) == 1
        assert dot(a, repeat(1)) == sum(a, F(0))
        assert type(dot(a, repeat(1))) is F
        kinds = {type(x) for x in a + b}
        seen.add("int" if kinds == {int} else "fraction" if kinds == {F} else "int and fraction")
        seen.add("length 1" if len(a) == 1 else "length 2-32" if len(a) <= 32 else "length 33-64")
        if 0 in a:
            seen.add("zero")
        if any(x < 0 for x in a):
            seen.add("negative")
        dens = {F(x).denominator for x in a if x} - {1}
        if len(dens) > 2:
            seen.add("coprime" if lcm(*dens) == prod(dens) else "shared factors")

    check()
    assert {
        "int",
        "fraction",
        "int and fraction",
        "length 1",
        "length 2-32",
        "length 33-64",
        "zero",
        "negative",
        "coprime",
        "shared factors",
    } <= seen


def test_vector_dot_checks_dimensions():
    with pytest.raises(DimensionMismatchError):
        Vector([1, 2]).dot(Vector([1, 2, 3]))
    # the kernel itself, like zip, runs over the shorter operand
    assert dot([F(1, 2), F(1, 3)], [F(2, 3)]) == F(1, 3)
