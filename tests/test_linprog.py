import random
from fractions import Fraction
from itertools import product

import pytest

from credalgames.exactmath import (
    EQUAL,
    GREATER_EQUAL,
    INFEASIBLE,
    LESS_EQUAL,
    OPTIMAL,
    LinearProgram,
    UNBOUNDED,
    Vector,
    lp_solve,
    row_reduce,
    unit_vector,
)

F = Fraction


def solve(objective, constraints):
    return lp_solve(LinearProgram.build(objective, constraints))


def test_single_variable_identity():
    sol = solve([1], [([1], LESS_EQUAL, 1), ([1], GREATER_EQUAL, 0)])
    assert sol.is_optimal
    assert sol.value == 1
    assert sol.point == Vector([1])


def test_unbounded():
    sol = solve([1], [([1], GREATER_EQUAL, 0)])
    assert sol.status == UNBOUNDED


def test_equality_constraint():
    sol = solve([2, 3], [([1, 1], EQUAL, 1)])
    assert sol.is_optimal
    assert sol.value == 3
    assert sol.point == Vector([0, 1])


def test_variable_bounds_both_sides():
    sol = solve([-1], [([1], GREATER_EQUAL, F(1, 3)), ([1], LESS_EQUAL, 2)])
    assert sol.is_optimal
    assert sol.value == F(-1, 3)
    assert sol.point == Vector([F(1, 3)])


def test_upper_bound_only():
    sol = solve([1], [([1], LESS_EQUAL, F(7, 2))])
    assert sol.is_optimal
    assert sol.point == Vector([F(7, 2)])


def test_a_program_with_no_rows():
    assert solve([1], []).status == UNBOUNDED
    sol = solve([-1], [])
    assert sol.is_optimal
    assert (sol.value, sol.point, sol.duals) == (0, Vector([0]), ())


def test_crossed_bounds_infeasible():
    sol = solve([1], [([1], GREATER_EQUAL, 2), ([1], LESS_EQUAL, 1)])
    assert sol.status == INFEASIBLE


def exante_strategic_lp(eps):
    """The two-player strategic-form worst-case problem at contamination eps.

    Variables (m, t); the payoff against opponent mix (l, r, o) is
    -o + 101 l + 100 r + m (r - 101 l), and t is a lower bound on it at
    every extreme point of the contaminated belief set.
    """
    center = [F(0), F(1), F(0)]
    verts = []
    for s in range(3):
        unit = [F(1) if i == s else F(0) for i in range(3)]
        verts.append([(1 - eps) * c + eps * u for c, u in zip(center, unit)])
    constraints = []
    for l, r, o in verts:
        const = -o + 101 * l + 100 * r
        slope = r - 101 * l
        # t - slope*m <= const
        constraints.append(([-slope, F(1)], LESS_EQUAL, const))
    constraints.append(([1, 0], LESS_EQUAL, 1))  # m in [0, 1]; t is positive here
    return LinearProgram.build([0, 1], constraints)


def test_exante_strategic_form_at_eps_one_fiftieth():
    # oracle: the three vertex payoff lines at eps=1/50 are
    #   (eps,1-eps,0): (5001 - 52 m)/50   (0,1,0): 100 + m
    #   (0,1-eps,eps): (4899 + 49 m)/50
    # whose lower envelope is the third line, increasing, so the optimum
    # sits at m=1 with value 4948/50 = 2474/25.
    for m in (F(0), F(1), F(1, 2)):
        envelope = min(
            (F(5001) - 52 * m) / 50, 100 + m, (F(4899) + 49 * m) / 50
        )
        assert envelope == (F(4899) + 49 * m) / 50
    sol = lp_solve(exante_strategic_lp(F(1, 50)))
    assert sol.is_optimal
    assert sol.value == F(2474, 25)
    assert sol.point[0] == 1


def test_deterministic_resolution():
    lp = exante_strategic_lp(F(1, 50))
    first = lp_solve(lp)
    for _ in range(3):
        again = lp_solve(lp)
        assert again.value == first.value and again.point == first.point


def brute_force_max(objective, verts):
    return max(Vector(objective).dot(Vector(v)) for v in verts)


def test_random_lps_match_vertex_enumeration():
    # boxes with one diagonal cut: vertices are enumerable by hand, so the
    # LP value must equal the best vertex value exactly
    rng = random.Random(20260808)
    for _ in range(40):
        n = rng.choice([2, 3])
        ub = [F(rng.randint(1, 4)) for _ in range(n)]
        cut = [F(rng.randint(0, 3)) for _ in range(n)]
        rhs = sum(c * u for c, u in zip(cut, ub)) * F(rng.randint(1, 4), 4)
        objective = [F(rng.randint(-3, 5)) for _ in range(n)]
        constraints = [(cut, LESS_EQUAL, rhs)]
        constraints += [(unit_vector(n, j), LESS_EQUAL, u) for j, u in enumerate(ub)]
        sol = solve(objective, constraints)
        assert sol.is_optimal
        corners = []
        for point in product(*[(F(0), u) for u in ub]):
            if sum(c * x for c, x in zip(cut, point)) <= rhs:
                corners.append(point)
        # the cut plane adds vertices; sample the cut by scaling corners that
        # violate the constraint back onto it through feasible neighbours
        best = brute_force_max(objective, corners) if corners else None
        assert best is not None
        assert sol.value >= best
        # the optimum is attained at a feasible point and beats a fine grid
        grid_pts = []
        steps = 4
        for point in product(*[[u * F(k, steps) for k in range(steps + 1)] for u in ub]):
            if sum(c * x for c, x in zip(cut, point)) <= rhs:
                grid_pts.append(point)
        assert sol.value >= brute_force_max(objective, grid_pts)
        assert sum(c * x for c, x in zip(cut, sol.point)) <= rhs
        assert all(0 <= x <= u for x, u in zip(sol.point, ub))
        assert Vector(objective).dot(sol.point) == sol.value


def test_random_box_lps_equal_best_vertex_exactly():
    # a box's vertex set is enumerable, so the optimum must EQUAL the best
    # corner value, not merely bound it
    rng = random.Random(606)
    for _ in range(30):
        n = rng.choice([2, 3])
        lo = [F(rng.randint(0, 3)) for _ in range(n)]
        hi = [l + F(rng.randint(1, 5), rng.choice([1, 2])) for l in lo]
        objective = [F(rng.randint(-4, 4), rng.choice([1, 3])) for _ in range(n)]
        box = [(unit_vector(n, j), GREATER_EQUAL, l) for j, l in enumerate(lo)]
        box += [(unit_vector(n, j), LESS_EQUAL, h) for j, h in enumerate(hi)]
        sol = solve(objective, box)
        assert sol.is_optimal
        best = brute_force_max(objective, list(product(*zip(lo, hi))))
        assert sol.value == best


def test_degenerate_cycling_guard():
    # classic degenerate instance; Bland's rule must terminate
    sol = solve(
        [F(3, 4), -150, F(1, 50), -6],
        [
            ([F(1, 4), -60, F(-1, 25), 9], LESS_EQUAL, 0),
            ([F(1, 2), -90, F(-1, 50), 3], LESS_EQUAL, 0),
            ([0, 0, 1, 0], LESS_EQUAL, 1),
        ],
    )
    assert sol.is_optimal
    assert sol.value == F(1, 20)


def assert_dual_certificate(objective, constraints, sol):
    """Dual signs, (A^T y)_j >= c_j and b . y = value."""
    assert sol.is_optimal and len(sol.duals) == len(constraints)
    for (_, relation, _), y in zip(constraints, sol.duals):
        if relation == LESS_EQUAL:
            assert y >= 0
        elif relation == GREATER_EQUAL:
            assert y <= 0
    for j, c in enumerate(objective):
        column = sum(row[j] * y for (row, _, _), y in zip(constraints, sol.duals))
        assert column >= c
    assert sum(F(b) * y for (_, _, b), y in zip(constraints, sol.duals)) == sol.value


def test_duals_of_flipped_row():
    # maximize -x subject to -x <= -3: the row is negated for the tableau
    constraints = [([-1], LESS_EQUAL, -3)]
    sol = solve([-1], constraints)
    assert sol.value == -3 and sol.duals == (1,)
    assert_dual_certificate([-1], constraints, sol)


def test_duals_with_redundant_equality_row():
    # the second row repeats the first; phase 1 deletes one of them
    constraints = [([1, 1], EQUAL, 1), ([2, 2], EQUAL, 2), ([1, 0], GREATER_EQUAL, F(1, 4))]
    sol = solve([1, 2], constraints)
    assert sol.value == F(7, 4)
    assert_dual_certificate([1, 2], constraints, sol)


def test_random_lps_duals_certify_the_value():
    # feasible by construction (rows are built around a point x0 >= 0) and
    # bounded by a final sum row; entries of both signs make negative
    # right-hand sides common, and repeated equality rows are redundant.
    rng = random.Random(1408)
    flipped = redundant = 0
    for _ in range(300):
        n, m = rng.randint(1, 4), rng.randint(1, 5)
        x0 = [F(rng.randint(0, 4)) for _ in range(n)]
        constraints = []
        for _ in range(m):
            row = [F(rng.randint(-5, 5)) for _ in range(n)]
            relation = rng.choice([LESS_EQUAL, EQUAL, GREATER_EQUAL])
            gap = {LESS_EQUAL: rng.randint(0, 3), EQUAL: 0, GREATER_EQUAL: -rng.randint(0, 3)}
            rhs = sum(a * x for a, x in zip(row, x0)) + gap[relation]
            constraints.append((row, relation, rhs))
            if relation == EQUAL and rng.random() < 0.5:
                scale = rng.choice([2, -1, F(1, 2)])
                constraints.append(([scale * a for a in row], EQUAL, scale * rhs))
                redundant += 1
        constraints.append(([F(1)] * n, LESS_EQUAL, 20))
        flipped += any(rhs < 0 for _, _, rhs in constraints)
        objective = [F(rng.randint(-4, 4)) for _ in range(n)]
        sol = solve(objective, constraints)
        assert_dual_certificate(objective, constraints, sol)
    assert flipped > 100 and redundant > 50


def _lps(st, certified: bool):
    """A small LP: objective and constraints.

    Rows mix ``<=``, ``==`` and ``>=`` with int or fraction coefficients of
    both signs, so negative right-hand sides are common; an equality row
    may be repeated at a scale (redundant).  ``certified`` programs are
    built around a point x0 >= 0 and bounded (the variables' sum below 12),
    so they have an optimum.  Otherwise the right-hand sides are drawn freely and the
    bounding rows may be missing, so programs are also infeasible or
    unbounded.
    """
    entry = st.one_of(st.integers(-4, 4), st.builds(F, st.integers(-6, 6), st.integers(1, 4)))

    @st.composite
    def lp(draw):
        n = draw(st.integers(1, 4))
        x0 = [F(draw(st.integers(0, 3))) for _ in range(n)]
        feasible = certified or draw(st.booleans())
        constraints = []
        for _ in range(draw(st.integers(1, 5))):
            row = draw(st.lists(entry, min_size=n, max_size=n))
            relation = draw(st.sampled_from([LESS_EQUAL, EQUAL, GREATER_EQUAL]))
            if feasible:
                slack = F(draw(st.integers(0, 3)))
                gap = {LESS_EQUAL: slack, EQUAL: 0, GREATER_EQUAL: -slack}[relation]
                rhs = sum((a * x for a, x in zip(row, x0)), F(0)) + gap
            else:
                rhs = F(draw(entry))
            constraints.append((row, relation, rhs))
        equalities = [c for c in constraints if c[1] == EQUAL]
        if equalities and draw(st.booleans()):
            row, _, rhs = draw(st.sampled_from(equalities))
            scale = draw(st.sampled_from([F(2), F(-1), F(1, 2)]))
            constraints.append(([scale * a for a in row], EQUAL, scale * rhs))
        if certified or draw(st.booleans()):
            constraints.append(([F(1)] * n, LESS_EQUAL, 12))
        objective = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
        return objective, constraints

    return lp()


def _highs(objective, constraints):
    """scipy HiGHS on the same program: (status, value) in lp_solve's terms."""
    from scipy.optimize import linprog

    rows = {LESS_EQUAL: [], EQUAL: [], GREATER_EQUAL: []}
    for row, relation, rhs in constraints:
        rows[relation].append(([float(a) for a in row], float(rhs)))
    upper = rows[LESS_EQUAL] + [([-a for a in r], -b) for r, b in rows[GREATER_EQUAL]]
    kwargs = dict(
        A_ub=[r for r, _ in upper] or None,
        b_ub=[b for _, b in upper] or None,
        A_eq=[r for r, _ in rows[EQUAL]] or None,
        b_eq=[b for _, b in rows[EQUAL]] or None,
        bounds=[(0, None)] * len(objective),
        method="highs",
    )
    cost = [-float(c) for c in objective]
    result = linprog(cost, **kwargs)
    if result.status == 4:
        # presolve found "infeasible or unbounded"; the simplex tells which
        result = linprog(cost, options={"presolve": False}, **kwargs)
    status = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}[result.status]
    return status, -result.fun if status == OPTIMAL else None


def test_lp_solve_matches_highs():
    hypothesis = pytest.importorskip("hypothesis")
    pytest.importorskip("scipy")
    seen = set()

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(_lps(hypothesis.strategies, certified=False))
    def check(lp):
        objective, constraints = lp
        sol = solve(objective, constraints)
        status, value = _highs(objective, constraints)
        assert sol.status == status
        if status == OPTIMAL:
            exact = float(sol.value)
            assert abs(value - exact) <= 1e-7 * max(1.0, abs(exact))
        seen.add(status)

    check()
    assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED}


def test_duals_certify_every_drawn_optimum():
    hypothesis = pytest.importorskip("hypothesis")
    seen = set()

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(_lps(hypothesis.strategies, certified=True))
    def check(lp):
        objective, constraints = lp
        sol = solve(objective, constraints)
        assert_dual_certificate(objective, constraints, sol)
        seen.update(relation for _, relation, _ in constraints)
        if any(rhs < 0 for _, _, rhs in constraints):
            seen.add("negative rhs")
        equalities = [(row, rhs) for row, relation, rhs in constraints if relation == EQUAL]
        if equalities:
            rank = len(row_reduce(*zip(*equalities))[0])
            if rank < len(equalities):
                seen.add("redundant equality")

    check()
    assert {
        LESS_EQUAL,
        EQUAL,
        GREATER_EQUAL,
        "negative rhs",
        "redundant equality",
    } <= seen
