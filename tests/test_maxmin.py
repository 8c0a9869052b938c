import random
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm

import pytest

import credalgames.maxmin
from credalgames.beliefs import CredalSet, StateSpace, eps_contamination
from credalgames.exactmath import (
    EQUAL,
    GREATER_EQUAL,
    LinearProgram,
    Polytope,
    Vector,
    lp_solve,
    solve_square_system,
)
from credalgames.maxmin import (
    DecisionProblem,
    constrained_maxmin,
    maxmin_solve,
    maxmin_value_of,
)
from polytope_oracle import lp_minimize, polytope_equal

F = Fraction

LRO = StateSpace.of("L", "R", "O")
LR = StateSpace.of("L", "R")

EXANTE_ROWS = [[0, 101, -1], [101, 100, -1]]  # pure M and pure N
CONDITIONAL_ROWS = [[0, 101], [101, 100]]


def exante_problem(eps):
    beliefs = eps_contamination(Vector([0, 1, 0]), eps, LRO)
    return DecisionProblem.build(EXANTE_ROWS, LRO, beliefs)


def conditional_problem(delta_lo):
    # conditional beliefs: chance of R between delta_lo and 1
    beliefs = CredalSet.from_vertices(LR, [[1 - delta_lo, delta_lo], [0, 1]])
    return DecisionProblem.build(CONDITIONAL_ROWS, LR, beliefs)


def test_exante_commitment_optimum():
    for eps in (F(1, 50), F(1, 4)):
        sol = maxmin_solve(exante_problem(eps))
        assert sol.strategy == Vector([1, 0])
        assert sol.optimal_face.vertices == (Vector([1, 0]),)
        assert sol.binding_vertices == (Vector([0, 1 - eps, eps]),)
    assert maxmin_solve(exante_problem(F(1, 50))).value == F(2474, 25)


def test_conditional_hedging_optimum():
    sol = maxmin_solve(conditional_problem(F(3, 4)))
    assert sol.value == 100 + F(1, 102)
    assert sol.strategy == Vector([F(1, 102), F(101, 102)])
    assert sol.optimal_face.vertices == (Vector([F(1, 102), F(101, 102)]),)
    # both extreme conditionals bind at the hedge
    assert set(sol.binding_vertices) == {
        Vector([F(1, 4), F(3, 4)]), Vector([0, 1])
    }


def test_singleton_beliefs_reduce_to_expected_utility():
    beliefs = CredalSet.singleton(LR, [1, 0])
    problem = DecisionProblem.build([[1, 0], [0, 1]], LR, beliefs)
    sol = maxmin_solve(problem)
    assert sol.value == 1 and sol.strategy == Vector([1, 0])


def test_value_of_commitment_exante():
    assert maxmin_value_of(Vector([1, 0]), exante_problem(F(1, 50))) == F(2474, 25)


def test_value_of_pure_wait_conditional():
    assert maxmin_value_of(Vector([0, 1]), conditional_problem(F(3, 4))) == 100


def test_value_of_against_singleton_is_expectation():
    beliefs = CredalSet.singleton(LR, [F(1, 3), F(2, 3)])
    problem = DecisionProblem.build([[3, 0], [0, 3]], LR, beliefs)
    s = Vector([F(1, 4), F(3, 4)])
    assert maxmin_value_of(s, problem) == F(1, 4) * 1 + F(3, 4) * 2


def test_constrained_full_simplex_matches_unconstrained():
    problem = conditional_problem(F(3, 4))
    free = maxmin_solve(problem)
    boxed = constrained_maxmin(
        problem, Polytope.from_vertices([Vector([1, 0]), Vector([0, 1])])
    )
    assert boxed.value == free.value
    assert polytope_equal(boxed.optimal_face, free.optimal_face)


def test_constrained_to_commitment_point():
    problem = conditional_problem(F(3, 4))
    sol = constrained_maxmin(problem, Polytope.from_vertices([Vector([1, 0])]))
    assert sol.value == F(303, 4)  # = 101 - 101/4
    assert sol.strategy == Vector([1, 0])


def test_constrained_to_optimal_vertex_retains_value():
    problem = conditional_problem(F(3, 4))
    free = maxmin_solve(problem)
    pinned = constrained_maxmin(
        problem, Polytope.from_vertices([free.optimal_face.vertices[0]])
    )
    assert pinned.value == free.value


def random_problem(rng, actions, states):
    space = StateSpace(tuple(f"s{i}" for i in range(states)))
    verts = []
    for _ in range(rng.randint(1, 4)):
        raw = [F(rng.randint(0, 5)) for _ in range(states)]
        if sum(raw) == 0:
            raw[0] = F(1)
        total = sum(raw)
        verts.append([x / total for x in raw])
    beliefs = CredalSet.from_vertices(space, verts)
    rows = [
        [F(rng.randint(-6, 9), rng.choice([1, 2])) for _ in range(states)]
        for _ in range(actions)
    ]
    return DecisionProblem.build(rows, space, beliefs)


def exact_two_action_oracle(problem):
    """Max over m of min over belief vertices, via candidate enumeration.

    The inner value is a minimum of lines in m, so the maximum sits at an
    endpoint or at a crossing of two lines.
    """
    lines = []
    for v in problem.beliefs.vertices:
        g = problem.action_values(v)
        lines.append((g[1], g[0] - g[1]))  # value at m: c + slope*m
    candidates = {F(0), F(1)}
    for (c1, s1), (c2, s2) in combinations(lines, 2):
        if s1 != s2:
            m = (c2 - c1) / (s1 - s2)
            if 0 <= m <= 1:
                candidates.add(m)
    return max(min(c + s * m for c, s in lines) for m in sorted(candidates))


def test_random_two_action_problems_match_exact_oracle():
    rng = random.Random(1213)
    for _ in range(40):
        problem = random_problem(rng, 2, rng.choice([2, 3]))
        sol = maxmin_solve(problem)
        assert sol.value == exact_two_action_oracle(problem)
        assert maxmin_value_of(sol.strategy, problem) == sol.value
        for vertex in sol.optimal_face.vertices:
            assert maxmin_value_of(vertex, problem) == sol.value


def test_random_three_action_problems_beat_grid():
    rng = random.Random(77)
    steps = 6
    for _ in range(15):
        problem = random_problem(rng, 3, rng.choice([2, 3]))
        sol = maxmin_solve(problem)
        assert maxmin_value_of(sol.strategy, problem) == sol.value
        best_grid = max(
            maxmin_value_of(Vector([F(i, steps), F(j, steps), F(steps - i - j, steps)]), problem)
            for i in range(steps + 1)
            for j in range(steps + 1 - i)
        )
        assert sol.value >= best_grid


def test_concavity_along_segments():
    rng = random.Random(4242)
    for _ in range(20):
        problem = random_problem(rng, rng.choice([2, 3]), rng.choice([2, 3]))
        k = problem.strategy_dimension

        def rand_point():
            raw = [F(rng.randint(0, 4)) for _ in range(k)]
            if sum(raw) == 0:
                raw[0] = F(1)
            t = sum(raw)
            return Vector(x / t for x in raw)

        a, b = rand_point(), rand_point()
        mid = Vector((x + y) / 2 for x, y in zip(a, b))
        va, vb = maxmin_value_of(a, problem), maxmin_value_of(b, problem)
        assert maxmin_value_of(mid, problem) >= (va + vb) / 2


def test_redundant_belief_vertex_changes_nothing():
    problem = conditional_problem(F(3, 4))
    base = maxmin_solve(problem)
    verts = list(problem.beliefs.vertices)
    midpoint = Vector((a + b) / 2 for a, b in zip(verts[0], verts[1]))
    padded_beliefs = CredalSet(
        LR, Polytope.from_vertices(verts + [midpoint])
    )
    padded = DecisionProblem.build(CONDITIONAL_ROWS, LR, padded_beliefs)
    sol = maxmin_solve(padded)
    assert sol.value == base.value
    assert polytope_equal(sol.optimal_face, base.optimal_face)


def test_solution_json_carries_exact_strings():
    sol = maxmin_solve(exante_problem(F(1, 4)))
    data = sol.to_json()
    assert data["value"] == str(sol.value)


def test_validation_errors():
    with pytest.raises(ValueError):
        DecisionProblem.build([[1, 2, 3]], LR, CredalSet.singleton(LR, [1, 0]))
    problem = conditional_problem(F(3, 4))
    with pytest.raises(ValueError):
        maxmin_value_of(Vector([F(1, 2), F(1, 4)]), problem)
    with pytest.raises(ValueError):
        constrained_maxmin(problem, Polytope.from_vertices([Vector([1, 0, 0])]))


# -- brute-force oracle -------------------------------------------------------


def oracle_value(gains, k):
    """The value LP: max t subject to g.s >= t for every gain g, s in the simplex.

    The gains are shifted by 1 - b, for the least gain entry b, so t is
    positive and can be nonnegative like s; t is shifted back.
    """
    shift = 1 - min(min(g) for g in gains)
    constraints = [([x + shift for x in g] + [F(-1)], GREATER_EQUAL, 0) for g in gains]
    constraints.append(([F(1)] * k + [F(0)], EQUAL, 1))
    return lp_solve(LinearProgram.build([F(0)] * k + [F(1)], constraints)).value - shift


def oracle_face(gains, value, k):
    """Vertices of {s in simplex : g.s >= value for every gain g}.

    Every vertex solves a square system made of the simplex equality plus
    k-1 tight inequalities, so scanning all C(k + |gains|, k - 1) of those
    systems finds them all.
    """
    rows_pool = [([F(int(i == j)) for j in range(k)], F(0)) for i in range(k)]
    rows_pool += [(list(g), value) for g in gains]
    found = set()
    for combo in combinations(rows_pool, k - 1):
        point = solve_square_system(
            [[F(1)] * k] + [r for r, _ in combo], [F(1)] + [b for _, b in combo]
        )
        if point is None or any(x < 0 for x in point):
            continue
        if all(sum(c * x for c, x in zip(g, point)) >= value for g in gains):
            found.add(tuple(point))
    return tuple(Vector(p) for p in sorted(found))


def oracle_solve(problem, restriction=None):
    """(value, face vertices, strategy, binding priors) by brute force."""
    gains = [problem.action_values(v) for v in problem.beliefs.vertices]
    if restriction is None:
        value = oracle_value(gains, problem.strategy_dimension)
        face = oracle_face(gains, value, problem.strategy_dimension)
    else:
        corners = restriction.vertices
        lifted = [Vector(r.dot(g) for r in corners) for g in gains]
        value = oracle_value(lifted, len(corners))
        points = [
            Vector(sum(wi * r[j] for wi, r in zip(w, corners)) for j in range(len(corners[0])))
            for w in oracle_face(lifted, value, len(corners))
        ]
        face = lp_minimize(Polytope.from_vertices(points)).vertices
    binding = tuple(
        v for v in problem.beliefs.vertices if face[0].dot(problem.action_values(v)) == value
    )
    return value, face, face[0], binding


def assert_matches_oracle(sol, problem, restriction=None):
    value, face, strategy, binding = oracle_solve(problem, restriction)
    assert sol.value == value
    assert sol.optimal_face.vertices == face
    assert sol.strategy == strategy
    assert sol.binding_vertices == binding


def _tie_heavy_cases(st):
    """Problems with k, v <= 5 whose payoffs and priors repeat small values,
    so optimal faces are often wider than a point; some carry a restriction."""

    def simplex_point(dimension):
        weights = st.lists(st.integers(0, 2), min_size=dimension, max_size=dimension)
        return weights.filter(any).map(lambda w: Vector(F(x, sum(w)) for x in w))

    @st.composite
    def case(draw):
        k = draw(st.integers(1, 5))
        n = draw(st.integers(1, 4))
        space = StateSpace(tuple(f"s{i}" for i in range(n)))
        priors = draw(st.lists(simplex_point(n), min_size=1, max_size=5))
        payoff = draw(
            st.lists(
                st.lists(st.sampled_from([-1, 0, 0, 1, 2]), min_size=n, max_size=n),
                min_size=k,
                max_size=k,
            )
        )
        # the priors are kept as drawn, redundant ones included
        beliefs = CredalSet(space, Polytope(tuple(priors)))
        problem = DecisionProblem.build(payoff, space, beliefs)
        restriction = None
        if draw(st.booleans()):
            corners = draw(st.lists(simplex_point(k), min_size=1, max_size=4))
            restriction = Polytope(tuple(corners))
        return problem, restriction

    return case()


def test_face_matches_brute_force_oracle():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(_tie_heavy_cases(hypothesis.strategies))
    def check(case):
        problem, restriction = case
        if restriction is None:
            sol = maxmin_solve(problem)
        else:
            sol = constrained_maxmin(problem, restriction)
        assert_matches_oracle(sol, problem, restriction)

    check()


def test_wide_face_matches_brute_force_oracle():
    # identical actions and a prior-independent payoff make every strategy
    # optimal, so the face is the whole simplex and enumeration must run
    space = StateSpace.of("a", "b")
    beliefs = CredalSet.from_vertices(space, [[1, 0], [0, 1]])
    problem = DecisionProblem.build([[1, 1], [1, 1], [1, 1]], space, beliefs)
    sol = maxmin_solve(problem)
    assert sol.optimal_face.vertices == (Vector([0, 0, 1]), Vector([0, 1, 0]), Vector([1, 0, 0]))
    assert_matches_oracle(sol, problem)
    restriction = Polytope.from_vertices([[1, 0, 0], [0, 1, 0], [F(1, 2), F(1, 2), 0]])
    assert_matches_oracle(constrained_maxmin(problem, restriction), problem, restriction)


def test_wide_problem_needs_no_square_solves(monkeypatch):
    # k=10 actions over n=8 states with 8 permutohedron priors: brute force
    # would scan C(18, 9) = 48,620 square systems
    rng = random.Random(1408)
    weights = rng.sample(range(1, 13), 8)
    space = StateSpace(tuple(f"s{i}" for i in range(8)))
    perms = rng.sample(list(permutations(weights)), 8)
    beliefs = CredalSet.from_vertices(space, [[F(w, sum(weights)) for w in p] for p in perms])
    assert len(beliefs.vertices) == 8
    rows = [[F(rng.randint(-9, 12), rng.choice((1, 2))) for _ in range(8)] for _ in range(10)]
    problem = DecisionProblem.build(rows, space, beliefs)

    calls = []

    def counting(rows, rhs):
        calls.append(len(rows))
        return solve_square_system(rows, rhs)

    monkeypatch.setattr(credalgames.maxmin, "solve_square_system", counting)
    sol = maxmin_solve(problem)
    assert calls == []
    assert sol.optimal_face.vertices == (sol.strategy,)
    assert maxmin_value_of(sol.strategy, problem) == sol.value


@pytest.mark.parametrize("k, tied", [(108, 18), (128, 32)])
def test_face_solves_systems_over_its_support_only(k, tied, monkeypatch):
    # against the one prior (1, 0) the tied rows (1, 2) pay the value 1 and
    # the rows (0, 5) pay 0, so the face is the simplex over the tied
    # strategies; its equalities have rank 1 and no gain is left as an
    # inequality, so its comb(tied, tied - 1) = tied candidates are 1 x 1
    # systems, one per vertex, and a k x k system would take seconds
    rows = [[1, 2]] * tied + [[0, 5]] * (k - tied)
    problem = DecisionProblem.build(rows, LR, CredalSet.singleton(LR, [1, 0]))
    calls = []

    def recording(rows, rhs):
        if len(rows) > tied:
            raise AssertionError(f"a {len(rows)} x {len(rows)} system over {tied} tied strategies")
        calls.append(len(rows))
        return solve_square_system(rows, rhs)

    monkeypatch.setattr(credalgames.maxmin, "solve_square_system", recording)
    sol = maxmin_solve(problem)
    assert sol.value == 1
    units = [Vector(int(i == j) for i in range(k)) for j in range(tied)]
    assert sol.optimal_face.vertices == tuple(sorted(units))
    assert calls == [1] * tied


def test_face_over_the_candidate_budget_is_refused_before_any_solve(monkeypatch):
    # 32 rows (2 + i/50, 0, 1 - i/50) and 32 rows (0, 2 + i/50, 1 - i/50)
    # against an eps = 1/4 contamination of the uniform prior: every
    # strategy pays the value against nature's mix, which weights all three
    # gains, and they and the simplex row have rank 3, so the one-point face
    # has comb(64, 3) = 41,664 candidates, more than the budget
    half = [(2 + F(i, 50), 1 - F(i, 50)) for i in range(32)]
    rows = [[a, 0, b] for a, b in half] + [[0, a, b] for a, b in half]
    beliefs = eps_contamination(Vector([F(1, 3)] * 3), F(1, 4), LRO)
    problem = DecisionProblem.build(rows, LRO, beliefs)
    assert 41_664 > credalgames.maxmin.MAX_FACE_CANDIDATES

    def refusing(rows, rhs):
        raise AssertionError("a square system solved over the budget")

    monkeypatch.setattr(credalgames.maxmin, "solve_square_system", refusing)
    with pytest.raises(ValueError, match="over 64 strategies has 41664 candidate vertices"):
        maxmin_solve(problem)


def test_one_vertex_restriction_needs_no_lp(monkeypatch):
    # over a one-point restriction the value is the least expected payoff of
    # that strategy, so constrained_maxmin must not run the value LP
    import credalgames.exactmath.linprog as linprog

    rng = random.Random(21)
    solves = []

    def counting(lp):
        solves.append(lp)
        return lp_solve(lp)

    for trial in range(40):
        problem = random_problem(rng, rng.randint(1, 4), rng.randint(1, 4))
        weights = [rng.randint(0, 3) for _ in range(problem.strategy_dimension)]
        weights[rng.randrange(len(weights))] += 1
        point = Vector(F(w, sum(weights)) for w in weights)
        restriction = Polytope.from_vertices([point])
        monkeypatch.setattr(linprog, "lp_solve", counting)
        monkeypatch.setattr(credalgames.maxmin, "lp_solve", counting)
        sol = constrained_maxmin(problem, restriction)
        monkeypatch.undo()
        assert sol.value == maxmin_value_of(point, problem), trial
        assert sol.optimal_face.vertices == (point,)
        assert_matches_oracle(sol, problem, restriction)
    assert solves == []


def test_failed_dual_certificate_raises(monkeypatch):
    # three strategies against three priors, so the value LP runs and its
    # tampered duals are checked
    solves = []

    def tampered(lp):
        solves.append(lp)
        sol = lp_solve(lp)
        return type(sol)(sol.status, sol.value, sol.point, tuple(0 * y for y in sol.duals))

    problem = exante_problem(F(1, 4))
    assert len(problem.beliefs.vertices) == 3
    problem = DecisionProblem.build(EXANTE_ROWS + [[50, 50, 50]], LRO, problem.beliefs)
    monkeypatch.setattr(credalgames.maxmin, "lp_solve", tampered)
    with pytest.raises(RuntimeError, match="certificate"):
        maxmin_solve(problem)
    assert len(solves) == 1


def _tamper_envelope(monkeypatch, change):
    """Patch ``_envelope`` so that ``change`` edits its (value, mix, face)."""
    envelope = credalgames.maxmin._envelope

    def tampered(gains):
        scale, lines, value, mix, face = envelope(gains)
        return (scale, lines, *change(value, mix, face))

    monkeypatch.setattr(credalgames.maxmin, "_envelope", tampered)


def test_failed_envelope_certificate_raises(monkeypatch):
    # all of nature's weight on one prior pays (101, 100), above the value,
    # so the check must refuse the mix
    def one_prior(value, mix, face):
        assert mix != {0: value[1]}
        return value, {0: value[1]}, face

    _tamper_envelope(monkeypatch, one_prior)
    with pytest.raises(RuntimeError, match="certificate"):
        maxmin_solve(conditional_problem(F(3, 4)))


def test_envelope_face_off_the_optimum_raises(monkeypatch):
    # t = 0 (pure commitment) earns 303/4, below the value 100 + 1/102, so the
    # check must refuse it as the face's lower end
    def pure_first(value, mix, face):
        (lo, hi) = face
        assert lo != (0, 1)
        return value, mix, ((0, 1), hi)

    _tamper_envelope(monkeypatch, pure_first)
    with pytest.raises(RuntimeError, match="certificate"):
        maxmin_solve(conditional_problem(F(3, 4)))


def test_failed_two_prior_envelope_certificate_raises(monkeypatch):
    # three strategies against two priors read the value off the transposed
    # envelope: nature's weight t on the second sorted prior, (1/4, 3/4), is
    # 2/51, where M and N cross, and the strategy is their hedge
    beliefs = CredalSet.from_vertices(LR, [[F(1, 4), F(3, 4)], [0, 1]])
    problem = DecisionProblem.build(CONDITIONAL_ROWS + [[50, 50]], LR, beliefs)
    assert maxmin_solve(problem).strategy == Vector([F(1, 102), F(101, 102), 0])

    def safe_strategy(value, mix, face):
        # the flat strategy earns 50, below the value
        assert mix != {2: value[1]}
        return value, {2: value[1]}, face

    def nature_at_0(value, mix, face):
        # t = 0 pays M 101, above the value
        (lo, hi) = face
        assert F(*lo) == F(*hi) == F(2, 51)
        return value, mix, ((0, 1), hi)

    for change in (safe_strategy, nature_at_0):
        with monkeypatch.context() as m:
            _tamper_envelope(m, change)
            with pytest.raises(RuntimeError, match="certificate"):
                maxmin_solve(problem)


def _edge_problem(rows, priors):
    space = StateSpace(tuple(f"s{i}" for i in range(len(priors[0]))))
    return DecisionProblem.build(rows, space, CredalSet(space, Polytope.from_vertices(priors)))


# fig4's induced quadrilateral over (Z, RN, O) with the DC-violating payoffs
# uRNS = -1, uOT = -1 (the rest 0)
FIG4_QUAD = [
    [F(5, 16), F(3, 16), F(1, 2)],
    [F(5, 12), F(1, 12), F(1, 2)],
    [F(35, 64), F(21, 64), F(1, 8)],
    [F(35, 48), F(7, 48), F(1, 8)],
]

TWO_STRATEGY_EDGES = {
    **{
        f"fig1-{part}-{eps}": make(eps)
        for eps in (F(1, 2040000), F(1, 102), F(1, 101))
        for part, make in (
            ("exante", exante_problem),
            # full Bayes on {L, R}: the chance of R runs over [1 - eps, 1]
            ("conditional", lambda eps: conditional_problem(1 - eps)),
        )
    },
    "fig4-quadrilateral": _edge_problem([[0, -1, 0], [0, 0, -1]], FIG4_QUAD),
    "one-prior": _edge_problem([[3, 0], [0, 3]], [[F(1, 3), F(2, 3)]]),
    "one-prior-flat": _edge_problem([[1, 2], [1, 2]], [[F(1, 3), F(2, 3)]]),
    "all-flat": _edge_problem([[1, 2], [1, 2]], [[1, 0], [0, 1]]),
    "optimum-at-0": _edge_problem([[2, 3], [1, 3]], [[1, 0], [0, 1]]),
    "optimum-at-1": _edge_problem([[1, 3], [2, 3]], [[1, 0], [0, 1]]),
    # min(2t, 2 - 2t, 1/2) peaks on [1/4, 3/4]
    "inner-segment": _edge_problem(
        [[0, 2, F(1, 2)], [2, 0, F(1, 2)]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    ),
    # the rising and the falling line cross on the flat one: lo = hi
    "lo-equals-hi": _edge_problem(
        [[0, 2, 1], [2, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    ),
}


@pytest.mark.parametrize("name", TWO_STRATEGY_EDGES)
def test_two_strategy_edge_cases_match_oracle(name):
    problem = TWO_STRATEGY_EDGES[name]
    assert problem.strategy_dimension == 2
    assert_matches_oracle(maxmin_solve(problem), problem)


def _two_strategy_cases(st):
    """Two-strategy problems over 1-16 drawn priors (and their mirror
    images, for crossing lines) whose lines often tie, run parallel or
    coincide; some carry a two-vertex restriction of a larger simplex,
    which lifts them to two strategies again.  And their transposes: 3-8
    strategies against one or two priors, with duplicate, parallel and flat
    rows; some carry a restriction with 3-5 vertices, which keeps two
    priors against three or more weights."""

    def simplex_point(dimension, weight=st.integers(0, 3)):
        weights = st.lists(weight, min_size=dimension, max_size=dimension)
        return weights.filter(any).map(lambda w: Vector(F(x, sum(w)) for x in w))

    @st.composite
    def case(draw):
        n = draw(st.integers(2, 4))
        space = StateSpace(tuple(f"s{i}" for i in range(n)))
        # weights up to 10**6 give priors with large coprime denominators
        prior = simplex_point(n) | simplex_point(n, st.integers(0, 10**6))
        priors = draw(st.lists(prior, min_size=1, max_size=16, unique=True))
        entry = st.sampled_from([-1, 0, 0, 1, 2, 3])
        k = draw(st.integers(2, 4)) if draw(st.booleans()) else 2
        first = draw(st.lists(entry, min_size=n, max_size=n))
        shape = draw(st.sampled_from(["free", "mirror", "mirror", "parallel", "equal"]))
        payoff = [first]
        for _ in range(k - 1):
            if shape == "mirror":
                payoff.append(first[::-1])
            elif shape == "equal":
                payoff.append(first)  # every gain has equal coordinates
            elif shape == "parallel":
                shift = draw(st.sampled_from([-1, 1, 2]))  # every line has one slope
                payoff.append([x + shift for x in first])
            else:
                row = st.lists(entry, min_size=n, max_size=n).filter(lambda r: r != first)
                payoff.append(draw(row))
        if shape == "mirror":
            # each prior's mirror image swaps its gains, so their lines cross
            priors += [Vector(p[::-1]) for p in priors if Vector(p[::-1]) not in priors]
        beliefs = CredalSet(space, Polytope(tuple(priors)))
        problem = DecisionProblem.build(payoff, space, beliefs)
        restriction = None
        if k > 2:
            corners = draw(st.lists(simplex_point(k), min_size=2, max_size=2, unique=True))
            restriction = Polytope(tuple(corners))
        return problem, restriction

    @st.composite
    def transposed(draw):
        n = draw(st.integers(2, 4))
        space = StateSpace(tuple(f"s{i}" for i in range(n)))
        prior = simplex_point(n) | simplex_point(n, st.integers(0, 10**6))
        priors = draw(st.lists(prior, min_size=1, max_size=2, unique=True))
        entry = st.sampled_from([-1, 0, 0, 1, 2, 3])
        payoff = [draw(st.lists(entry, min_size=n, max_size=n))]
        for _ in range(draw(st.integers(2, 7))):
            shape = draw(st.sampled_from(["free", "duplicate", "parallel", "flat"]))
            earlier = draw(st.sampled_from(payoff))
            if shape == "duplicate":
                payoff.append(earlier)  # the same line twice
            elif shape == "parallel":
                shift = draw(st.sampled_from([-1, 1, 2]))  # the same slope
                payoff.append([x + shift for x in earlier])
            elif shape == "flat":
                payoff.append([draw(entry)] * n)  # the same gain against every prior
            else:
                payoff.append(draw(st.lists(entry, min_size=n, max_size=n)))
        beliefs = CredalSet(space, Polytope(tuple(priors)))
        problem = DecisionProblem.build(payoff, space, beliefs)
        restriction = None
        if draw(st.booleans()):
            k = len(payoff)
            corners = draw(st.lists(simplex_point(k), min_size=3, max_size=5, unique=True))
            restriction = Polytope(tuple(corners))
        return problem, restriction

    return case() | transposed()


def test_two_strategy_envelope_matches_lp_oracle(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    import credalgames.exactmath.linprog as linprog

    solves = []

    def counting(lp):
        solves.append(lp)
        return lp_solve(lp)

    def solve(problem, restriction=None):
        with monkeypatch.context() as m:
            m.setattr(linprog, "lp_solve", counting)
            m.setattr(credalgames.maxmin, "lp_solve", counting)
            if restriction is None:
                return maxmin_solve(problem)
            return constrained_maxmin(problem, restriction)

    def binding(problem, sol):
        gains = [problem.action_values(v) for v in problem.beliefs.vertices]
        return credalgames.maxmin._binding(problem, gains, sol.strategy, sol.value)

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
    @hypothesis.given(_two_strategy_cases(hypothesis.strategies))
    def check(case):
        problem, restriction = case
        sol = solve(problem, restriction)
        assert solves == []
        # the oracle's value is lp_solve's on the same LP
        assert_matches_oracle(sol, problem, restriction)
        # the binding priors read off the envelope's integer lines are the
        # ones one exact dot product per prior finds
        assert sol.binding_vertices == binding(problem, sol)

    check()

    # 64 strategies against two priors: the oracle's value LP is cheap at
    # this size, its scan of C(66, 63) square systems is not
    rng = random.Random(64)
    space = StateSpace.of("a", "b", "c")
    priors = [[F(1, 5), F(3, 5), F(1, 5)], [F(1, 2), F(1, 8), F(3, 8)]]
    beliefs = CredalSet.from_vertices(space, priors)
    rows = [[F(rng.randint(-50, 50), rng.choice((1, 3))) for _ in range(3)] for _ in range(64)]
    problem = DecisionProblem.build(rows, space, beliefs)
    sol = solve(problem)
    assert solves == []
    gains = [problem.action_values(v) for v in beliefs.vertices]
    assert sol.value == oracle_value(gains, 64)
    assert sol.optimal_face.vertices == (sol.strategy,)
    assert maxmin_value_of(sol.strategy, problem) == sol.value
    assert sol.binding_vertices == binding(problem, sol)


def test_envelope_lines_match_the_hand_cleared_ones():
    # the envelope clears its gains through exactmath.cleared; the lines
    # must be the ones it once built by hand from the lcm
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entry = st.builds(F, st.integers(-10**4, 10**4), st.sampled_from([1, 2, 3, 7, 12, 10**6 + 3]))
    gains = st.lists(st.builds(lambda a, b: Vector([a, b]), entry, entry), min_size=1, max_size=6)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(gains)
    def check(gains):
        scale = lcm(*(x.denominator for g in gains for x in g))
        lines = []
        for g0, g1 in gains:
            a = g0.numerator * (scale // g0.denominator)
            lines.append((a, g1.numerator * (scale // g1.denominator) - a))
        assert credalgames.maxmin._envelope(gains)[:2] == (scale, lines)

    check()


@pytest.mark.parametrize(
    "argv",
    [["analyze", "fig4"], ["check-dc", "fig1"], ["sweep", "--bisect", "1/2040000:1/51"]],
    ids=["analyze-fig4", "check-dc-fig1", "sweep-bisect"],
)
def test_paper_commands_solve_no_square_system(argv, monkeypatch, capsys):
    # every player in the paper's games has two strategies, whose whole
    # optimal face the envelope gives, so no face vertex solves a system
    import credalgames.exactmath.vector as vector
    from credalgames.cli import main

    calls = []

    def counting(rows, rhs):
        calls.append(len(rows))
        return solve_square_system(rows, rhs)

    monkeypatch.setattr(vector, "solve_square_system", counting)
    monkeypatch.setattr(credalgames.maxmin, "solve_square_system", counting)
    assert main(argv) == 0
    assert calls == []
