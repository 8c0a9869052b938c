import itertools
import random
from fractions import Fraction

import pytest

from credalgames import dynamics
from credalgames.beliefs import (
    CredalSet,
    StateSpace,
    ZeroProbabilityReachError,
    compose,
    eps_contamination,
    full_bayes_update,
    is_rectangular,
    rectangular_hull,
)
from credalgames.dynamics import (
    CONSISTENT,
    INCONSISTENT,
    UNREACHABLE,
    Posteriors,
    StateSpaceError,
    build_player_problem,
    check_dynamic_consistency,
    find_dc_violation_payoffs,
    induce_downstream,
    player_problem_from_matrix,
)
from credalgames.exactmath import Vector
from credalgames.cli import RunFlags, run
from credalgames.gametree import UnboundParameterError, builtin_game
from randtrees import terminal

F = Fraction

LRO = StateSpace.of("L", "R", "O")
ZRNO = StateSpace.of("Z", "RN", "O")

QUAD = CredalSet.from_vertices(
    LRO,
    [
        [F(7, 32), F(21, 32), F(1, 8)],
        [F(7, 16), F(7, 16), F(1, 8)],
        [F(1, 4), F(1, 4), F(1, 2)],
        [F(1, 8), F(3, 8), F(1, 2)],
    ],
)

INDUCED_VERTICES = {
    Vector([F(35, 64), F(21, 64), F(1, 8)]),
    Vector([F(35, 48), F(7, 48), F(1, 8)]),
    Vector([F(5, 12), F(1, 12), F(1, 2)]),
    Vector([F(5, 16), F(3, 16), F(1, 2)]),
}


@pytest.fixture(scope="module")
def fig1():
    return builtin_game("fig1")


@pytest.fixture(scope="module")
def fig4():
    return builtin_game("fig4")


def contamination(eps):
    return eps_contamination(Vector([0, 1, 0]), eps, LRO)


def fig1_problem(fig1, eps):
    return build_player_problem(fig1, "2", contamination(eps))


def cell_matrix(pp, slot):
    """A slot's decision matrix: per joint action, the strategic row of the
    first pure strategy mapped to it, restricted to the cell's states."""
    columns = [pp.space.index(s) for s in slot.cell]
    return tuple(
        tuple(pp.exante.payoff[slot.projection.index(j)][i] for i in columns)
        for j in range(max(slot.projection) + 1)
    )


def test_build_two_player_problem(fig1):
    pp = fig1_problem(fig1, F(1, 4))
    assert pp.space.labels == ("L", "R", "O")
    assert pp.exante.payoff == ((F(0), F(101), F(-1)), (F(101), F(100), F(-1)))
    assert pp.filtration.stages == ((("L", "R"), ("O",)),)
    assert len(pp.conditionals) == 1
    slot = pp.conditionals[0]
    assert slot.cell == ("L", "R")
    assert cell_matrix(pp, slot) == ((F(0), F(101)), (F(101), F(100)))
    # single information set: the conditional matrix is the plain column
    # restriction of the strategic matrix and the projection is identity
    assert slot.projection == (0, 1)


def test_build_three_player_raw_states(fig4):
    raw_space = StateSpace.of("LM", "LN", "RM", "RN", "O")
    beliefs = CredalSet.singleton(raw_space, [F(1, 5)] * 5)
    pp = build_player_problem(fig4, "3", beliefs, {"y": 7})
    assert pp.space.labels == ("LM", "LN", "RM", "RN", "O")
    assert pp.filtration.stages == ((("LM", "LN", "RM"), ("RN", "O")),)
    assert pp.exante.payoff[0] == (7, 7, 7, 0, 0)  # playing S, slots default 0
    assert pp.conditionals[0].cell == ("RN", "O")


def test_build_aggregates_to_match_beliefs(fig4):
    beliefs = CredalSet.singleton(ZRNO, [F(1, 2), F(1, 4), F(1, 4)])
    pp = build_player_problem(fig4, "3", beliefs, {"uRNS": 1, "uOT": 5})
    assert pp.space.labels == ("Z", "RN", "O")
    assert pp.exante.payoff == ((F(0), F(1), F(0)), (F(0), F(0), F(5)))
    assert pp.filtration.stages == ((("Z",), ("RN", "O")),)


def test_build_player2_in_three_player_game(fig4):
    # the third player's move never touches player 2's payoffs, so the two
    # terminal branches below O merge into the single belief state O
    pp = build_player_problem(fig4, "2", contamination(F(1, 4)))
    assert pp.space.labels == ("L", "R", "O")
    assert pp.exante.payoff == ((F(0), F(101), F(-1)), (F(101), F(100), F(-1)))


def test_build_rejects_mismatched_beliefs(fig1, fig4):
    bad = CredalSet.singleton(StateSpace.of("a", "b"), [F(1, 2), F(1, 2)])
    with pytest.raises(StateSpaceError) as caught:
        build_player_problem(fig4, "3", bad)
    assert str(caught.value) == "player 3's states LM, LN, RM, RN, O do not fit beliefs over a, b"
    # as many states as belief states, but the lone state L is not Z: the same message
    beliefs = CredalSet.singleton(ZRNO, [F(1, 2), F(1, 4), F(1, 4)])
    with pytest.raises(StateSpaceError) as caught:
        build_player_problem(fig1, "2", beliefs)
    assert str(caught.value) == "player 2's states L, R, O do not fit beliefs over Z, RN, O"


def test_constant_payoff_player_all_rows_equal(fig1):
    pp = build_player_problem(fig1, "1", CredalSet.singleton(
        StateSpace.of("start"), [1]
    ), {"x": 3})
    assert pp.exante.payoff == ((F(3),),) * 3
    # with identical rows every strategy is optimal, ex ante and conditionally
    report = check_dynamic_consistency(pp)
    assert report.overall
    assert report.exante_solution.value == 3
    assert len(report.exante_solution.optimal_face.vertices) == 3


def test_induce_downstream_quadrilateral():
    induced = induce_downstream(QUAD, (F(1, 3), F(1, 2)))
    assert induced.space.labels == ("Z", "RN", "O")
    assert set(induced.vertices) == INDUCED_VERTICES
    # the prior is read by its labels: listed over O, L, R it induces the same set
    permuted = CredalSet.from_vertices(
        StateSpace.of("O", "L", "R"), [[o, l, r] for l, r, o in QUAD.vertices]
    )
    assert induce_downstream(permuted, (F(1, 3), F(1, 2))) == induced


def test_induce_downstream_refuses_a_prior_not_over_l_r_o():
    prior = CredalSet.singleton(StateSpace.of("A", "B", "C"), [F(1, 2), F(1, 4), F(1, 4)])
    with pytest.raises(StateSpaceError) as caught:
        induce_downstream(prior, (F(1, 3), F(1, 2)))
    assert str(caught.value) == "downstream induction reads beliefs over L, R, O, not A, B, C"


def test_induce_downstream_identity_at_one():
    induced = induce_downstream(QUAD, (1, 1))
    assert set(induced.vertices) == set(QUAD.vertices)


def test_induce_downstream_singleton_full_interval():
    single = CredalSet.singleton(LRO, [0, 1, 0])
    induced = induce_downstream(single, (0, 1))
    assert set(induced.vertices) == {Vector([1, 0, 0]), Vector([0, 1, 0])}


def test_induce_downstream_rejects_bad_interval():
    with pytest.raises(ValueError):
        induce_downstream(QUAD, (F(1, 2), F(1, 3)))


def test_intermediate_images_lie_in_endpoint_hull():
    # the downstream set is built from the interval's endpoints only; images
    # at interior chances must still fall inside it
    rng = random.Random(13)
    induced = induce_downstream(QUAD, (F(1, 3), F(1, 2)))
    for _ in range(20):
        weights = [F(rng.randint(0, 5)) for _ in QUAD.vertices]
        if sum(weights) == 0:
            weights[0] = F(1)
        total = sum(weights)
        point = [
            sum((w * v[i] for w, v in zip(weights, QUAD.vertices)), F(0)) / total
            for i in range(3)
        ]
        n = F(1, 3) + F(rng.randint(0, 6), 6) * (F(1, 2) - F(1, 3))
        l, r, o = point
        image = Vector([l + r * (1 - n), r * n, o])
        assert induced.contains(image)


def test_induced_o_coordinate_preserved():
    induced = induce_downstream(QUAD, (F(1, 3), F(1, 2)))
    assert {v[2] for v in induced.vertices} == {v[2] for v in QUAD.vertices}


def test_footnote_ratio_property():
    induced = induce_downstream(QUAD, (F(1, 3), F(1, 2)))
    ratios = sorted(v[1] / (v[0] + v[1]) for v in induced.vertices)
    assert ratios == [F(1, 6), F(1, 6), F(3, 8), F(3, 8)]
    # matching input conditionals map to matching output conditionals
    rng = random.Random(2)
    for _ in range(10):
        r1, l1 = F(rng.randint(1, 5), 10), F(rng.randint(1, 4), 10)
        scale = F(rng.randint(1, 3), 3)
        l2, r2 = l1 * scale, r1 * scale  # same conditional over the first two
        n = F(rng.randint(1, 4), 5)
        z1, rn1 = l1 + r1 * (1 - n), r1 * n
        z2, rn2 = l2 + r2 * (1 - n), r2 * n
        assert rn1 * (z2 + rn2) == rn2 * (z1 + rn1)


def test_segment_preservation_at_fixed_n():
    rng = random.Random(8)
    verts = list(QUAD.vertices)
    for _ in range(10):
        a, b = rng.sample(verts, 2)
        lam = F(rng.randint(0, 6), 6)
        mix = Vector(lam * x + (1 - lam) * y for x, y in zip(a, b))
        n = F(rng.randint(0, 4), 4)

        def image(v):
            l, r, o = v
            return Vector([l + r * (1 - n), r * n, o])

        assert image(mix) == Vector(
            lam * x + (1 - lam) * y for x, y in zip(image(a), image(b))
        )


def test_induced_set_not_rectangular_downstream():
    induced = induce_downstream(QUAD, (F(1, 3), F(1, 2)))
    from credalgames.beliefs import Filtration

    f3 = Filtration.build(ZRNO, [(("Z",), ("RN", "O"))])
    check = is_rectangular(induced, f3)
    assert not check
    assert not induced.contains(check.witness)


def test_check_dc_inconsistent_at_quarter(fig1):
    report = check_dynamic_consistency(fig1_problem(fig1, F(1, 4)))
    assert not report.overall
    assert report.exante_solution.strategy == Vector([1, 0])
    cell = report.cells[0]
    assert cell.status == INCONSISTENT
    assert cell.cell == ("L", "R")
    assert cell.conditional_value == 100 + F(1, 102)
    assert cell.restricted_value == F(303, 4)
    assert cell.value_gap == (100 + F(1, 102)) - F(303, 4)
    assert cell.conditional_face.vertices == (Vector([F(1, 102), F(101, 102)]),)


def test_check_dc_restored_by_rectangular_hull(fig1):
    from credalgames.beliefs import Filtration

    hulled = rectangular_hull(
        contamination(F(1, 4)),
        Filtration.build(LRO, [(("L", "R"), ("O",))]),
    )
    pp = build_player_problem(fig1, "2", hulled)
    report = check_dynamic_consistency(pp)
    assert report.overall
    cell = report.cells[0]
    assert cell.status == CONSISTENT
    assert cell.common_face.vertices == (Vector([F(1, 102), F(101, 102)]),)
    assert report.exante_solution.strategy == Vector([F(1, 102), F(101, 102)])


def test_check_dc_consistent_below_threshold(fig1):
    report = check_dynamic_consistency(fig1_problem(fig1, F(1, 200)))
    assert report.overall
    cell = report.cells[0]
    assert cell.status == CONSISTENT
    # both the strategic and the conditional problem commit fully
    assert report.exante_solution.strategy == Vector([1, 0])
    assert cell.common_face.vertices == (Vector([1, 0]),)


def test_check_dc_unreachable_cell():
    space = StateSpace.of("a", "b", "c")
    beliefs = CredalSet.from_vertices(
        space, [[F(1, 2), F(1, 2), 0], [F(1, 4), F(1, 4), F(1, 2)]]
    )
    pp = player_problem_from_matrix(
        "p",
        [[1, 0, 2], [0, 1, 2]],
        space,
        beliefs,
        [("a", "b"), ("c",)],
        [("a", "b"), ("c",)],
    )
    report = check_dynamic_consistency(pp)
    by_cell = {v.cell: v for v in report.cells}
    assert by_cell[("c",)].status == UNREACHABLE
    assert by_cell[("a", "b")].status in (CONSISTENT, INCONSISTENT)
    assert report.overall in (True, False)


def test_find_dc_violation_on_three_player_game(fig4):
    induced = induce_downstream(QUAD, (F(1, 3), F(1, 2)))
    result = find_dc_violation_payoffs(
        build_player_problem(fig4, "3", induced),
        [-1, 0, 1, 100, 101],
        ["uRNS", "uRNT", "uOS", "uOT"],
    )
    assert result is not None
    assert not result.report.overall
    # independent re-check of the found assignment
    pp = build_player_problem(fig4, "3", induced, result.payoffs)
    again = check_dynamic_consistency(pp)
    assert not again.overall


def test_find_dc_violation_constant_payoffs_not_found(fig4):
    induced = induce_downstream(QUAD, (F(1, 3), F(1, 2)))
    # a single grid value makes every slot constant: all strategies optimal
    result = find_dc_violation_payoffs(
        build_player_problem(fig4, "3", induced), [5], ["uRNS", "uRNT", "uOS", "uOT"]
    )
    assert result is None


def test_find_dc_violation_rectangular_beliefs_not_found(fig1):
    from credalgames.beliefs import Filtration

    hulled = rectangular_hull(
        contamination(F(1, 4)),
        Filtration.build(LRO, [(("L", "R"), ("O",))]),
    )
    result = find_dc_violation_payoffs(build_player_problem(fig1, "2", hulled), [0], ["x"])
    assert result is None


def test_find_dc_violation_rejects_undeclared_slots(fig1):
    pp = fig1_problem(fig1, F(1, 4))
    with pytest.raises(UnboundParameterError, match="zz"):
        find_dc_violation_payoffs(pp, [0, 1], ["zz"])


@pytest.fixture
def updates(monkeypatch):
    """The cells the player problems update on, in call order."""
    cells = []

    def counting(beliefs, cell):
        cells.append(cell)
        return full_bayes_update(beliefs, cell)

    monkeypatch.setattr(dynamics, "full_bayes_update", counting)
    return cells


def oracle_search(game, player, beliefs, grid, slots, bindings=None):
    """The search as a loop that rebuilds the whole problem at every point."""
    base = dict(bindings or {})
    for assignment in itertools.product([F(g) for g in grid], repeat=len(slots)):
        pp = build_player_problem(game, player, beliefs, {**base, **dict(zip(slots, assignment))})
        report = check_dynamic_consistency(pp)
        if not report.overall:
            return dict(zip(slots, assignment)), report
    return None


@pytest.mark.parametrize(
    "grid, bindings, hulled",
    [
        ([-1, 0, 1, 100, 101], None, False),
        ([-1, 0, 1, 100, 101], {"y": 7}, False),
        # rectangular beliefs are consistent at every point
        ([-1, 0, 100], None, True),
    ],
    ids=["fig4-grid", "fixed-base-binding", "exhausted"],
)
def test_search_matches_rebuilding_oracle(fig4, grid, bindings, hulled, updates):
    induced = induce_downstream(QUAD, (F(1, 3), F(1, 2)))
    problem = build_player_problem(fig4, "3", induced)
    if hulled:
        induced = rectangular_hull(induced, problem.filtration)
    slots = ["uRNS", "uRNT", "uOS", "uOT"]
    want = oracle_search(fig4, "3", induced, grid, slots, bindings)
    assert (want is None) == hulled
    updates.clear()
    got = find_dc_violation_payoffs(
        build_player_problem(fig4, "3", induced, bindings), grid, slots
    )
    if want is None:
        assert got is None
    else:
        assert got.payoffs == want[0]
        assert got.report.to_json() == want[1].to_json()
    # one update per acting cell for the whole search, not one per grid point
    assert sorted(updates) == sorted(slot.cell for slot in problem.conditionals)


def test_posteriors_update_each_cell_once_and_repeat_unreachable(updates):
    space = StateSpace.of("a", "b", "c")
    beliefs = CredalSet.from_vertices(
        space, [[F(1, 2), F(1, 2), 0], [F(1, 4), F(1, 4), F(1, 2)]]
    )
    posterior = Posteriors(beliefs)
    assert posterior(("a", "b")) is posterior(("a", "b"))
    for _ in range(2):
        with pytest.raises(ZeroProbabilityReachError) as caught:
            posterior(("c",))
        assert caught.value.vertex == Vector([F(1, 2), F(1, 2), 0])
    assert updates == [("a", "b"), ("c",)]


def test_payoff_search_shares_the_commands_posteriors(updates):
    run("fig4", RunFlags(analyses=("check-dc", "find-payoffs")))
    assert updates.count(("RN", "O")) == 1


def random_rectangular_fig1_style(rng):
    """Compose a random marginal over {{L,R},{O}} with random conditionals."""
    lo = F(rng.randint(1, 6), 12)
    hi = F(rng.randint(lo.numerator * 2, 20), 24)
    marg_space = StateSpace.of("{L,R}", "O")
    marginal = CredalSet.from_vertices(
        marg_space, [[1 - lo, lo], [1 - hi, hi]]
    )
    conds = []
    for _ in range(rng.randint(1, 3)):
        d = F(rng.randint(0, 8), 8)
        conds.append([1 - d, d])
    conditionals = {
        ("L", "R"): CredalSet.from_vertices(StateSpace.of("L", "R"), conds),
        ("O",): CredalSet.singleton(StateSpace.of("O"), [1]),
    }
    return compose(LRO, (("L", "R"), ("O",)), marginal, conditionals)


def test_rectangularity_implies_consistency_randomized():
    from credalgames.beliefs import Filtration

    f = Filtration.build(LRO, [(("L", "R"), ("O",))])
    rng = random.Random(314159)
    for _ in range(30):
        beliefs = random_rectangular_fig1_style(rng)
        assert is_rectangular(beliefs, f)
        actions = rng.choice([2, 3])
        outside = F(rng.randint(-5, 5))
        rows = [
            [F(rng.randint(-6, 9)), F(rng.randint(-6, 9)), outside]
            for _ in range(actions)
        ]
        pp = player_problem_from_matrix(
            "p", rows, LRO, beliefs, [("L", "R"), ("O",)], [("L", "R")]
        )
        report = check_dynamic_consistency(pp)
        for cell in report.cells:
            assert cell.status != INCONSISTENT


def test_rectangularity_implies_consistency_downstream_filtration():
    # same direction on the later-mover shape: a lone first cell plus an
    # acting two-state cell, payoffs constant where the player never moves
    from credalgames.beliefs import Filtration

    f = Filtration.build(ZRNO, [(("Z",), ("RN", "O"))])
    stage = (("Z",), ("RN", "O"))
    rng = random.Random(2718)
    for _ in range(25):
        z_lo = F(rng.randint(1, 8), 16)
        z_hi = z_lo + F(rng.randint(0, 6), 16)
        marginal = CredalSet.from_vertices(
            StateSpace.of("Z", "{RN,O}"), [[z_lo, 1 - z_lo], [z_hi, 1 - z_hi]]
        )
        conds = []
        for _ in range(rng.randint(1, 3)):
            d = F(rng.randint(0, 10), 10)
            conds.append([d, 1 - d])
        beliefs = compose(
            ZRNO,
            stage,
            marginal,
            {
                ("Z",): CredalSet.singleton(StateSpace.of("Z"), [1]),
                ("RN", "O"): CredalSet.from_vertices(
                    StateSpace.of("RN", "O"), conds
                ),
            },
        )
        assert is_rectangular(beliefs, f)
        constant = F(rng.randint(-5, 5))
        rows = [
            [constant, F(rng.randint(-6, 9)), F(rng.randint(-6, 9))]
            for _ in range(rng.choice([2, 3]))
        ]
        pp = player_problem_from_matrix(
            "p", rows, ZRNO, beliefs, stage, [("RN", "O")]
        )
        report = check_dynamic_consistency(pp)
        for cell in report.cells:
            assert cell.status != INCONSISTENT


def test_two_stage_own_play_projects_onto_cell_coordinates():
    # the player moves twice below one opponent branch: the cell problem
    # ranges over joint choices at both of his information sets
    from credalgames.gametree import GameTree, decision

    inner = decision("2", [("e", terminal([0, 4])), ("f", terminal([0, 0]))])
    mid = decision("2", [("c", inner), ("d", terminal([0, 1]))])
    root = decision("1", [("A", mid), ("B", terminal([0, 10]))])
    game = GameTree(["1", "2"], root)
    space = StateSpace.of("A", "B")
    beliefs = CredalSet.from_vertices(
        space, [[F(1, 2), F(1, 2)], [F(3, 4), F(1, 4)]]
    )
    pp = build_player_problem(game, "2", beliefs)
    assert pp.space.labels == ("A", "B")
    assert pp.exante.payoff == (
        (4, 10), (0, 10), (1, 10), (1, 10)
    )  # pures (c,e), (c,f), (d,e), (d,f)
    slot = pp.conditionals[0]
    assert slot.cell == ("A",)
    assert cell_matrix(pp, slot) == ((4,), (0,), (1,), (1,))
    report = check_dynamic_consistency(pp)
    assert report.exante_solution.value == F(11, 2)
    assert report.exante_solution.strategy == Vector([1, 0, 0, 0])
    cell = report.cells[0]
    assert cell.status == CONSISTENT
    assert cell.conditional_value == 4 and cell.restricted_value == 4


def test_two_acting_cells_judged_independently():
    from credalgames.gametree import GameTree, decision

    first = decision("2", [("u", terminal([0, 6])), ("v", terminal([0, 0]))])
    second = decision("2", [("w", terminal([0, 0])), ("z", terminal([0, 6]))])
    root = decision("1", [("A", first), ("B", second), ("C", terminal([0, 1]))])
    game = GameTree(["1", "2"], root)
    space = StateSpace.of("A", "B", "C")
    beliefs = CredalSet.from_vertices(
        space,
        [[F(1, 2), F(1, 4), F(1, 4)], [F(1, 4), F(1, 2), F(1, 4)]],
    )
    pp = build_player_problem(game, "2", beliefs)
    assert pp.filtration.stages == ((("A",), ("B",), ("C",)),)
    assert {slot.cell for slot in pp.conditionals} == {("A",), ("B",)}
    report = check_dynamic_consistency(pp)
    assert report.exante_solution.value == F(19, 4)
    assert report.exante_solution.strategy == Vector([0, 1, 0, 0])  # (u, z)
    assert report.overall
    for cell in report.cells:
        assert cell.status == CONSISTENT
        assert cell.conditional_value == 6


def test_full_bayes_update_unchanged_by_hull(fig1):
    from credalgames.beliefs import Filtration

    c = contamination(F(1, 4))
    f = Filtration.build(LRO, [(("L", "R"), ("O",))])
    hull = rectangular_hull(c, f)
    assert full_bayes_update(hull, ("L", "R")) == full_bayes_update(c, ("L", "R"))


def test_derived_matrix_agrees_with_outcome_semantics():
    # for a fixed opponent behavioral profile, the strategic matrix dotted
    # with the induced state distribution must equal the tree's expected
    # payoff, computed independently through outcome_distribution
    from credalgames.dynamics import _derive_structure
    from credalgames.gametree import (
        DecisionNode,
        outcome_distribution,
        pure_behavioral,
    )
    from randtrees import random_behavioral, random_perfect_recall_game

    rng = random.Random(505)
    checked = 0
    while checked < 25:
        game = random_perfect_recall_game(rng)
        player = rng.choice(game.players)
        try:
            states = _derive_structure(game, player)[0]
        except StateSpaceError:
            continue  # an opponent moves below the player with varying payoffs
        profile = {q: random_behavioral(rng, game, q) for q in game.players}

        def state_probability(path):
            prob = F(1)
            node = game.root
            walked = ()
            for label in path:
                assert isinstance(node, DecisionNode)
                _, iso = game.infoset_at(walked)
                i = node.actions.index(label)
                prob *= profile[node.player].choices[iso][i]
                node = node.children[i]
                walked = walked + (label,)
            return prob

        point = [state_probability(s.path) for s in states]
        assert sum(point) == 1  # opponent paths partition the play
        space = StateSpace(tuple(s.label for s in states))
        beliefs = CredalSet.singleton(space, point)
        pp = build_player_problem(game, player, beliefs)
        pidx = game.players.index(player)
        for k, pure in enumerate(game.pure_strategies(player)):
            row_value = sum(
                (a * p for a, p in zip(pp.exante.payoff[k], point)), F(0)
            )
            dist = outcome_distribution(
                game, {**profile, player: pure_behavioral(game, player, pure)}
            )
            expected = F(0)
            for (path, node), prob in zip(game.terminals(), dist.probabilities):
                expected += prob * node.payoffs[pidx]
            assert row_value == expected
        checked += 1


def test_projections_keep_every_action_that_moves_cell_payoffs():
    # every joint index up to the largest is taken, and pure strategies that
    # share an index agree ex ante on the cell's states, so the cell matrix
    # check_dynamic_consistency reads off the projection is well defined; the
    # ex-ante face it reports is the image of the optimal face under the
    # dense 0/1 selection matrix the index map encodes (checked for at most
    # 16 pure strategies: the check's single-state ex-ante LPs grow slow)
    from credalgames.dynamics import _derive_structure
    from credalgames.exactmath import affine_image
    from randtrees import random_perfect_recall_game

    rng = random.Random(606)
    checked = joint = dense_checked = 0
    while checked < 60:
        game = random_perfect_recall_game(rng)
        player = rng.choice(game.players)
        try:
            states = _derive_structure(game, player)[0]
        except StateSpaceError:
            continue
        space = StateSpace(tuple(s.label for s in states))
        beliefs = CredalSet.singleton(space, [F(1, len(space))] * len(space))
        pp = build_player_problem(game, player, beliefs)
        report = check_dynamic_consistency(pp) if len(pp.strategy_labels) <= 16 else None
        for ci, slot in enumerate(pp.conditionals):
            width = max(slot.projection) + 1
            assert set(slot.projection) == set(range(width))
            columns = [pp.space.index(s) for s in slot.cell]
            for j in range(width):
                seen = {
                    tuple(pp.exante.payoff[k][i] for i in columns)
                    for k, index in enumerate(slot.projection)
                    if index == j
                }
                assert len(seen) == 1
            joint += width < len(slot.projection)
            if report is not None:
                dense = [[F(int(index == j)) for index in slot.projection] for j in range(width)]
                face = report.exante_solution.optimal_face
                assert affine_image(face, dense) == report.cells[ci].exante_face
                dense_checked += width < len(slot.projection)
        checked += 1
    assert joint > 0  # some cells project several pure strategies onto one index
    assert dense_checked > 0  # and the dense oracle sees some of them


def test_check_fails_fast_on_a_face_too_wide_to_enumerate(monkeypatch):
    # the 50th game drawn from random.Random(505) gives its player 768 pure
    # strategies over one state, 256 of them tied at the top payoff: the
    # face's equalities have rank 1 and leave no gain as an inequality, so
    # it has comb(256, 255) = 256 candidates, one over the lowered budget,
    # and the solve refuses before solving any of them
    import credalgames.exactmath.polytope
    import credalgames.maxmin
    from randtrees import random_perfect_recall_game

    rng = random.Random(505)
    for _ in range(50):
        game = random_perfect_recall_game(rng)
        player = rng.choice(game.players)
    pp = build_player_problem(game, player, CredalSet.singleton(StateSpace.of("start"), [1]))
    assert len(pp.strategy_labels) == 768
    monkeypatch.setattr(credalgames.maxmin, "MAX_FACE_CANDIDATES", 255)
    work = []
    for module, name in (
        (credalgames.maxmin, "solve_square_system"),
        (credalgames.exactmath.polytope, "eliminate"),
    ):
        monkeypatch.setattr(module, name, lambda *args: work.append(args))
    with pytest.raises(ValueError, match="over 768 strategies has 256 candidate vertices"):
        check_dynamic_consistency(pp)
    assert work == []


def test_report_json_shape(fig1):
    report = check_dynamic_consistency(fig1_problem(fig1, F(1, 4)))
    data = report.to_json()
    assert data["overall"] is False
    assert data["cells"][0]["status"] == INCONSISTENT
    assert data["cells"][0]["value_gap"] == str((100 + F(1, 102)) - F(303, 4))
