import copy
import itertools
import random
import re
from fractions import Fraction

import pytest

from credalgames.exactmath import Vector
from credalgames.gametree import (
    BUILTIN_GAMES,
    BehavioralStrategy,
    GameTree,
    MalformedGameError,
    MixedStrategy,
    TerminalNode,
    UnboundParameterError,
    behavioral_to_mixed,
    builtin_game,
    decision,
    mixed_to_behavioral,
    outcome_distribution,
    outcome_equivalent,
    pure_behavioral,
    validate_perfect_recall,
)
from randtrees import random_behavioral, random_mixed, random_perfect_recall_game, terminal

F = Fraction


@pytest.fixture(scope="module")
def fig1():
    return builtin_game("fig1")


@pytest.fixture(scope="module")
def fig4():
    return builtin_game("fig4")


def beh(player, *rows):
    return BehavioralStrategy(player, tuple(Vector(r) for r in rows))


def test_fig1_structure(fig1):
    assert fig1.players == ("1", "2")
    assert fig1.terminal_labels() == ("LM", "LN", "RM", "RN", "O")
    sets2 = fig1.information_sets_for("2")
    assert len(sets2) == 1 and sets2[0].paths == (("L",), ("R",))
    assert fig1.pure_strategies("2") == [(0,), (1,)]
    assert fig1.parameters == {"x": F(0)}


def test_fig4_structure(fig4):
    assert fig4.players == ("1", "2", "3")
    assert fig4.terminal_labels() == ("LM", "LN", "RM", "RNS", "RNT", "OS", "OT")
    sets3 = fig4.information_sets_for("3")
    assert len(sets3) == 1 and sets3[0].paths == (("R", "N"), ("O",))
    assert set(fig4.parameters) == {"x", "y", "uRNS", "uRNT", "uOS", "uOT"}


def test_builtin_games_have_perfect_recall(fig1, fig4):
    assert validate_perfect_recall(fig1).ok
    assert validate_perfect_recall(fig4).ok
    # each build parses the module's own spec, which no build changes
    specs = copy.deepcopy(BUILTIN_GAMES)
    for name in specs:
        first, second = builtin_game(name), builtin_game(name)
        assert first is not second and first.root is not second.root
        assert first.root == second.root and first.parameters == second.parameters
        assert [first.information_sets_for(p) for p in first.players] == [
            second.information_sets_for(p) for p in second.players
        ]
    assert BUILTIN_GAMES == specs


def forgetful_game():
    # one player moves twice; both second-stage nodes share a set, so the
    # player no longer remembers his first action
    inner = lambda: decision(
        "1", [("c", terminal([0])), ("d", terminal([1]))]
    )
    root = decision("1", [("a", inner()), ("b", inner())])
    return GameTree(["1"], root, [[["a"], ["b"]]])


def test_recall_violation_detected():
    check = validate_perfect_recall(forgetful_game())
    assert not check.ok
    assert check.player == "1"
    assert check.witness == (("a",), ("b",))


def test_information_set_must_not_mix_players(fig1):
    with pytest.raises(MalformedGameError):
        GameTree(["1", "2"], fig1.root, [[["L"], []]], {"x": 0})
    with pytest.raises(MalformedGameError):
        GameTree(["1", "2"], fig1.root, [[[], ["L"]]], {"x": 0})


def numbering_game(information_sets=([["c"]], [["b"], ["a"]])):
    # player 2's sets are listed in reverse depth-first order, and the set
    # {a, b} lists its later node first
    pair = lambda: terminal([0, 0])
    moves = lambda *labels: [(label, pair()) for label in labels]
    root = decision(
        "1",
        [
            ("a", decision("2", [("x", decision("1", moves("u", "v"))), ("y", pair())])),
            ("b", decision("2", moves("x", "y"))),
            ("c", decision("2", moves("p", "q"))),
        ],
    )
    return GameTree(["1", "2"], root, [list(spec) for spec in information_sets])


def test_information_sets_are_numbered_by_their_first_node():
    game = numbering_game()
    sets1, sets2 = game.information_sets_for("1"), game.information_sets_for("2")
    assert [(s.index, s.paths, s.actions) for s in sets1] == [
        (0, ((),), ("a", "b", "c")),
        (1, (("a", "x"),), ("u", "v")),
    ]
    assert [(s.index, s.paths, s.actions) for s in sets2] == [
        (0, (("b",), ("a",)), ("x", "y")),
        (1, (("c",),), ("p", "q")),
    ]
    for player, sets in (("1", sets1), ("2", sets2)):
        for iset in sets:
            assert all(game.infoset_at(path) == (player, iset.index) for path in iset.paths)
    assert game.infoset_at(("b",)) == ("2", 0) and game.infoset_at(("c",)) == ("2", 1)


def test_own_history_of_every_decision_path():
    game = numbering_game()
    expected = {
        (): {"1": (), "2": ()},
        ("a",): {"1": ((0, 0),), "2": ()},
        ("a", "x"): {"1": ((0, 0),), "2": ((0, 0),)},
        ("b",): {"1": ((0, 1),), "2": ()},
        ("c",): {"1": ((0, 2),), "2": ()},
    }
    decision_paths = [path for p in game.players for s in game.information_sets_for(p)
                      for path in s.paths]
    assert {
        path: {p: game.own_history(p, path) for p in game.players} for path in decision_paths
    } == expected
    assert validate_perfect_recall(game).ok


@pytest.mark.parametrize(
    "specs, message",
    [
        ([[]], "empty information set"),
        ([[["z"]]], "information set names unknown node ('z',)"),
        ([[["a"]], [["b"], ["a"]]], "node ('a',) listed in two information sets"),
        ([[["a"], ["a"]]], "node ('a',) listed in two information sets"),
        ([[["a", "x"], ["b"]]], "information set mixes players '1' and '2'"),
        ([[["a"], ["c"]]], "information set mixes action lists at ('c',)"),
    ],
    ids=["empty", "unknown-node", "listed-twice", "listed-twice-in-one-set", "mixed-players",
         "mixed-actions"],
)
def test_malformed_information_sets_are_named(specs, message):
    with pytest.raises(MalformedGameError, match=f"^{re.escape(message)}$"):
        numbering_game(specs)


def test_undeclared_parameter_rejected():
    with pytest.raises(UnboundParameterError):
        GameTree(["1"], terminal(["mystery"]))


def test_outcome_distribution_pure_outside(fig1):
    dist = outcome_distribution(
        fig1,
        {"1": beh("1", [0, 0, 1]), "2": beh("2", [1, 0])},
    )
    assert dict(zip(dist.terminals, dist.probabilities)) == {
        "LM": 0, "LN": 0, "RM": 0, "RN": 0, "O": 1
    }


def test_outcome_distribution_product(fig1):
    dist = outcome_distribution(
        fig1,
        {"1": beh("1", [0, 1, 0]), "2": beh("2", ["1/2", "1/2"])},
    )
    by_label = dict(zip(dist.terminals, dist.probabilities))
    assert by_label["RM"] == F(1, 2) and by_label["RN"] == F(1, 2)
    assert by_label["LM"] == 0 and by_label["O"] == 0


def test_outcome_distribution_three_player(fig4):
    dist = outcome_distribution(
        fig4,
        {
            "1": beh("1", ["1/2", "1/2", 0]),
            "2": beh("2", ["1/2", "1/2"]),
            "3": beh("3", [1, 0]),
        },
    )
    by_label = dict(zip(dist.terminals, dist.probabilities))
    assert by_label == {
        "LM": F(1, 4), "LN": F(1, 4), "RM": F(1, 4), "RNS": F(1, 4),
        "RNT": 0, "OS": 0, "OT": 0,
    }
    assert sum(dist.probabilities) == 1


def test_missing_profile_entry(fig1):
    with pytest.raises(KeyError):
        outcome_distribution(fig1, {"1": beh("1", [0, 0, 1])})


def test_single_set_mixed_equals_behavioral(fig1):
    m = F(21, 64)
    mixed = MixedStrategy("2", Vector([m, 1 - m]))
    image = mixed_to_behavioral(fig1, mixed)
    assert image.choices == (Vector([m, 1 - m]),)
    back = behavioral_to_mixed(fig1, image)
    assert back.weights == mixed.weights


def test_pure_strategy_maps_to_point_mass(fig4):
    mixed = MixedStrategy("3", Vector([0, 1]))
    image = mixed_to_behavioral(fig4, mixed)
    assert image.choices == (Vector([0, 1]),)


def two_set_game():
    # one player, two information sets: a second choice only follows action a
    stage2 = decision("1", [("c", terminal([0])), ("d", terminal([1]))])
    root = decision("1", [("a", stage2), ("b", terminal([2]))])
    return GameTree(["1"], root)


def test_uniform_mixed_to_behavioral_two_sets():
    game = two_set_game()
    assert len(game.information_sets_for("1")) == 2
    mixed = MixedStrategy("1", Vector([F(1, 4)] * 4))
    image = mixed_to_behavioral(game, mixed)
    assert [tuple(c) for c in image.choices] == [
        (F(1, 2), F(1, 2)),
        (F(1, 2), F(1, 2)),
    ]


def test_behavioral_to_mixed_products():
    game = two_set_game()
    behavioral = BehavioralStrategy(
        "1", (Vector(["1/2", "1/2"]), Vector(["1/3", "2/3"]))
    )
    mixed = behavioral_to_mixed(game, behavioral)
    assert tuple(mixed.weights) == (F(1, 6), F(1, 3), F(1, 6), F(1, 3))


def test_behavioral_point_masses_to_pure():
    game = two_set_game()
    behavioral = BehavioralStrategy("1", (Vector([1, 0]), Vector([0, 1])))
    mixed = behavioral_to_mixed(game, behavioral)
    assert tuple(mixed.weights) == (0, 1, 0, 0)  # pure (a, d)


def test_outcome_equivalence_reflexive(fig1):
    mixed = MixedStrategy("2", Vector(["1/3", "2/3"]))
    assert outcome_equivalent(fig1, "2", mixed, mixed)


def test_kuhn_image_outcome_equivalent(fig1):
    mixed = MixedStrategy("2", Vector(["21/64", "43/64"]))
    assert outcome_equivalent(fig1, "2", mixed, mixed_to_behavioral(fig1, mixed))


def test_distinct_commitments_not_equivalent(fig1):
    m1 = MixedStrategy("2", Vector([1, 0]))
    m2 = MixedStrategy("2", Vector([F(1, 102), F(101, 102)]))
    assert not outcome_equivalent(fig1, "2", m1, m2)


def test_parameter_binding(fig4):
    values = fig4.resolve_parameters({"y": "7/2", "uOS": -1})
    assert values["y"] == F(7, 2) and values["uOS"] == -1 and values["x"] == 0
    with pytest.raises(UnboundParameterError):
        fig4.resolve_parameters({"nope": 1})


def test_multilinearity_probe(fig1):
    # the terminal distribution is linear in one player's local choice when
    # the other players are held fixed
    rng = random.Random(3)
    for _ in range(5):
        a = random_behavioral(rng, fig1, "2")
        b = random_behavioral(rng, fig1, "2")
        lam = F(rng.randint(0, 4), 4)
        mix = BehavioralStrategy(
            "2",
            tuple(
                Vector(lam * x + (1 - lam) * y for x, y in zip(ca, cb))
                for ca, cb in zip(a.choices, b.choices)
            ),
        )
        other = random_behavioral(rng, fig1, "1")
        da = outcome_distribution(fig1, {"1": other, "2": a}).probabilities
        db = outcome_distribution(fig1, {"1": other, "2": b}).probabilities
        dm = outcome_distribution(fig1, {"1": other, "2": mix}).probabilities
        assert dm == Vector(
            lam * x + (1 - lam) * y for x, y in zip(da, db)
        )


def test_random_trees_probabilities_sum_to_one():
    rng = random.Random(99)
    for _ in range(20):
        game = random_perfect_recall_game(rng)
        assert validate_perfect_recall(game).ok
        profile = {p: random_behavioral(rng, game, p) for p in game.players}
        dist = outcome_distribution(game, profile)
        assert sum(dist.probabilities) == 1


def test_random_round_trip_small():
    rng = random.Random(5)
    for _ in range(10):
        game = random_perfect_recall_game(rng)
        for player in game.players:
            mixed = random_mixed(rng, game, player)
            image = mixed_to_behavioral(game, mixed)
            assert outcome_equivalent(game, player, mixed, image)
            behavioral = random_behavioral(rng, game, player)
            back = behavioral_to_mixed(game, behavioral)
            assert outcome_equivalent(game, player, behavioral, back)


# -- tree-walking oracle ---------------------------------------------------------


def oracle_distribution(game, player, strategy, opponents, opp_pures):
    """Terminal distribution of (strategy, fixed opponent pure profile).

    Walks the tree directly: opponent nodes follow their pure choice, and a
    mixed strategy is the weighted sum of its pure strategies' walks.
    """
    choice = dict(zip(opponents, opp_pures))
    index = {path: i for i, (path, _) in enumerate(game.terminals())}

    def walk_behavioral(beh):
        out = [F(0)] * len(index)

        def walk(path, node, weight):
            if isinstance(node, TerminalNode):
                out[index[path]] += weight
                return
            _, iset = game.infoset_at(path)
            if node.player == player:
                for i, p in enumerate(beh.choices[iset]):
                    if p != 0:
                        walk(path + (node.actions[i],), node.children[i], weight * p)
            else:
                i = choice[node.player][iset]
                walk(path + (node.actions[i],), node.children[i], weight)

        walk((), game.root, F(1))
        return out

    if isinstance(strategy, BehavioralStrategy):
        return tuple(walk_behavioral(strategy))
    out = [F(0)] * len(index)
    for pure, w in zip(game.pure_strategies(player), strategy.weights):
        for i, mass in enumerate(walk_behavioral(pure_behavioral(game, player, pure))):
            out[i] += w * mass
    return tuple(out)


def oracle_equivalent(game, player, s1, s2):
    opponents = tuple(q for q in game.players if q != player)
    return all(
        oracle_distribution(game, player, s1, opponents, pures)
        == oracle_distribution(game, player, s2, opponents, pures)
        for pures in itertools.product(*[game.pure_strategies(q) for q in opponents])
    )


def test_outcome_equivalence_matches_tree_walking_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    verdicts = []

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(hypothesis.strategies.randoms(use_true_random=False))
    def check(rng):
        game = random_perfect_recall_game(rng)
        player = rng.choice(game.players)
        mixed = random_mixed(rng, game, player)
        for s1, s2 in (
            (mixed, mixed_to_behavioral(game, mixed)),  # equivalent by Kuhn
            (mixed, random_mixed(rng, game, player)),
            (mixed, random_behavioral(rng, game, player)),
        ):
            verdict = outcome_equivalent(game, player, s1, s2)
            assert verdict == oracle_equivalent(game, player, s1, s2)
            verdicts.append(verdict)

    check()
    assert True in verdicts and False in verdicts
