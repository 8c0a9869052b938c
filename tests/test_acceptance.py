"""Acceptance suite: every criterion checked exactly (zero tolerance).

Each test prints one PASS/FAIL line; run with ``pytest tests/test_acceptance.py -s``
to see them all.
"""

import functools
import random
from fractions import Fraction

from credalgames.beliefs import (
    CredalSet,
    Filtration,
    StateSpace,
    compose,
    eps_contamination,
    full_bayes_update,
    is_rectangular,
    rectangular_hull,
)
from credalgames.cli import sweep_eps
from credalgames.dynamics import (
    INCONSISTENT,
    build_player_problem,
    check_dynamic_consistency,
    find_dc_violation_payoffs,
    induce_downstream,
    player_problem_from_matrix,
)
from credalgames.exactmath import Vector
from credalgames.gametree import (
    behavioral_to_mixed,
    builtin_game,
    mixed_to_behavioral,
    outcome_equivalent,
    validate_perfect_recall,
)
from credalgames.maxmin import DecisionProblem, maxmin_solve
from randtrees import random_behavioral, random_mixed, random_perfect_recall_game

F = Fraction

LRO = StateSpace.of("L", "R", "O")
ZRNO = StateSpace.of("Z", "RN", "O")
F2 = Filtration.build(LRO, [(("L", "R"), ("O",))])
F3 = Filtration.build(ZRNO, [(("Z",), ("RN", "O"))])

QUAD = CredalSet.from_vertices(
    LRO,
    [
        [F(7, 32), F(21, 32), F(1, 8)],
        [F(7, 16), F(7, 16), F(1, 8)],
        [F(1, 4), F(1, 4), F(1, 2)],
        [F(1, 8), F(3, 8), F(1, 2)],
    ],
)


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} FAIL  {description}")
                raise
            print(f"ACCEPTANCE {number:2d} PASS  {description}")

        return wrapper

    return decorate


def contamination(eps):
    return eps_contamination(Vector([0, 1, 0]), eps, LRO)


def fig1_problem(eps):
    return build_player_problem(builtin_game("fig1"), "2", contamination(eps))


@criterion(1, "strategic-form optimum commits fully, worst case at (0,1-eps,eps)")
def test_01_exante_optimum():
    for eps in (F(1, 4), F(1, 50)):
        sol = maxmin_solve(fig1_problem(eps).exante)
        assert sol.optimal_face.vertices == (Vector([1, 0]),)
        assert sol.strategy == Vector([1, 0])
        assert sol.binding_vertices == (Vector([0, 1 - eps, eps]),)


@criterion(2, "updating gives the [3/4,1] segment and conditional optimum 1/102")
def test_02_conditional_optimum():
    pp = fig1_problem(F(1, 4))
    post = full_bayes_update(pp.exante.beliefs, ("L", "R"))
    assert set(post.vertices) == {Vector([0, 1]), Vector([F(1, 4), F(3, 4)])}
    (slot,) = pp.conditionals
    assert slot.cell == ("L", "R")
    # one information set: the cell matrix is the strategic matrix's columns
    rows = [[row[pp.space.index(s)] for s in slot.cell] for row in pp.exante.payoff]
    problem = DecisionProblem.build(rows, post.space, post)
    sol = maxmin_solve(problem)
    assert sol.strategy == Vector([F(1, 102), F(101, 102)])
    assert sol.optimal_face.vertices == (Vector([F(1, 102), F(101, 102)]),)
    assert sol.value == 100 + F(1, 102)


@criterion(3, "sweep flips verdict exactly above 1/102, boundary consistent")
def test_03_threshold_sweep():
    result = sweep_eps(["1/200", "1/103", "1/102", "1/101", "1/100", "1/4"])
    assert [(str(e), v) for e, v in result.entries] == [
        ("1/200", "consistent"),
        ("1/103", "consistent"),
        ("1/102", "consistent"),
        ("1/101", "inconsistent"),
        ("1/100", "inconsistent"),
        ("1/4", "inconsistent"),
    ]
    assert result.threshold == F(1, 102)


@criterion(4, "rectangular hull has the four stated vertices and is idempotent")
def test_04_rectangular_hull():
    beliefs = contamination(F(1, 4))
    hull = rectangular_hull(beliefs, F2)
    assert set(hull.vertices) == {
        Vector([0, 1, 0]),
        Vector([F(1, 4), F(3, 4), 0]),
        Vector([0, F(3, 4), F(1, 4)]),
        Vector([F(3, 16), F(9, 16), F(1, 4)]),
    }
    before = is_rectangular(beliefs, F2)
    assert not before.rectangular
    assert before.witness == Vector([F(3, 16), F(9, 16), F(1, 4)])
    assert is_rectangular(hull, F2).rectangular
    assert rectangular_hull(hull, F2) == hull


@criterion(5, "hulled beliefs restore consistency with common optimum 1/102")
def test_05_consistency_restored():
    hulled = rectangular_hull(contamination(F(1, 4)), F2)
    pp = build_player_problem(builtin_game("fig1"), "2", hulled)
    report = check_dynamic_consistency(pp)
    assert report.overall
    cell = report.cells[0]
    assert cell.status == "consistent"
    assert cell.common_face.vertices == (Vector([F(1, 102), F(101, 102)]),)
    assert report.exante_solution.strategy == Vector([F(1, 102), F(101, 102)])


@criterion(6, "induced set is the stated quadrilateral with ratios 3/8 and 1/6")
def test_06_three_player_induction():
    induced = induce_downstream(QUAD, (F(1, 3), F(1, 2)))
    expected = {
        Vector([F(35, 64), F(21, 64), F(1, 8)]),
        Vector([F(35, 48), F(7, 48), F(1, 8)]),
        Vector([F(5, 12), F(1, 12), F(1, 2)]),
        Vector([F(5, 16), F(3, 16), F(1, 2)]),
    }
    assert set(induced.vertices) == expected
    ratios = {v: v[1] / (v[0] + v[1]) for v in induced.vertices}
    assert ratios[Vector([F(35, 64), F(21, 64), F(1, 8)])] == F(3, 8)
    assert ratios[Vector([F(5, 16), F(3, 16), F(1, 2)])] == F(3, 8)
    assert ratios[Vector([F(35, 48), F(7, 48), F(1, 8)])] == F(1, 6)
    assert ratios[Vector([F(5, 12), F(1, 12), F(1, 2)])] == F(1, 6)


@criterion(7, "the induced set is not rectangular downstream, with a witness")
def test_07_non_rectangularity():
    induced = induce_downstream(QUAD, (F(1, 3), F(1, 2)))
    check = is_rectangular(induced, F3)
    assert not check.rectangular
    # the witness is verifiable: a recombination point outside the set
    hull = rectangular_hull(induced, F3)
    assert check.witness in hull.vertices
    assert hull.contains(check.witness)
    assert not induced.contains(check.witness)


@criterion(8, "grid search finds payoffs that break consistency, re-checked")
def test_08_counterexample_payoffs():
    game = builtin_game("fig4")
    induced = induce_downstream(QUAD, (F(1, 3), F(1, 2)))
    found = find_dc_violation_payoffs(
        build_player_problem(game, "3", induced),
        [-1, 0, 1, 100, 101],
        ["uRNS", "uRNT", "uOS", "uOT"],
    )
    assert found is not None
    assert any(c.status == INCONSISTENT for c in found.report.cells)
    pp = build_player_problem(game, "3", induced, found.payoffs)
    confirm = check_dynamic_consistency(pp)
    assert not confirm.overall


@criterion(9, "Kuhn translations are outcome-equivalent on 100 random trees")
def test_09_kuhn_round_trips():
    rng = random.Random(0x5EED)
    trees = 0
    while trees < 100:
        game = random_perfect_recall_game(rng, max_players=3, max_terminals=8)
        assert validate_perfect_recall(game).ok
        player = max(
            game.players, key=lambda p: len(game.information_sets_for(p))
        )
        mixed = random_mixed(rng, game, player)
        image = mixed_to_behavioral(game, mixed)
        assert outcome_equivalent(game, player, mixed, image)
        behavioral = random_behavioral(rng, game, player)
        back = behavioral_to_mixed(game, behavioral)
        assert outcome_equivalent(game, player, behavioral, back)
        trees += 1


@criterion(10, "rectangular beliefs never test inconsistent on random payoffs")
def test_10_rectangularity_implies_consistency():
    rng = random.Random(0xACCE)
    stage = (("L", "R"), ("O",))
    runs = 0
    while runs < 100:
        lo = F(rng.randint(1, 10), 20)
        hi = lo + F(rng.randint(0, 8), 20)
        if hi >= 1:
            hi = F(19, 20)
        marginal = CredalSet.from_vertices(
            StateSpace.of("{L,R}", "O"), [[1 - lo, lo], [1 - hi, hi]]
        )
        conds = []
        for _ in range(rng.randint(1, 3)):
            d = F(rng.randint(0, 12), 12)
            conds.append([1 - d, d])
        beliefs = compose(
            LRO,
            stage,
            marginal,
            {
                ("L", "R"): CredalSet.from_vertices(StateSpace.of("L", "R"), conds),
                ("O",): CredalSet.singleton(StateSpace.of("O"), [1]),
            },
        )
        assert is_rectangular(beliefs, F2).rectangular
        actions = rng.choice([2, 3])
        outside = F(rng.randint(-9, 9), rng.choice([1, 2]))
        rows = [
            [
                F(rng.randint(-9, 12), rng.choice([1, 2])),
                F(rng.randint(-9, 12), rng.choice([1, 2])),
                outside,
            ]
            for _ in range(actions)
        ]
        pp = player_problem_from_matrix(
            "2", rows, LRO, beliefs, [("L", "R"), ("O",)], [("L", "R")]
        )
        report = check_dynamic_consistency(pp)
        assert all(c.status != INCONSISTENT for c in report.cells)
        runs += 1
