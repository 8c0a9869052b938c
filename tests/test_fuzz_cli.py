"""Every valid scenario answers or exits with a clean error.

Derandomized hypothesis draws perfect-recall games with
``tests/randtrees.py`` (at most 64 pure strategies per player), picks a
player and gives it an eps = 1/4 contamination of a point mass over its
opponent-path states.  Each draw is written as a scenario file with the game
inline and run through ``cli.main`` under every analysis, as text and with
``--json``: the exit code is 0, 1 or 2 and never an uncaught exception, the
JSON parses, and two runs give one ``scenario_hash``.
"""

import json
import math
import random

import pytest

from credalgames import cli
from credalgames.gametree import TerminalNode
from randtrees import random_perfect_recall_game

ANALYSES = ("validate", "maxmin", "update", "rect-hull", "check-rect", "check-dc")
MAX_PURE_STRATEGIES = 64


def _node_json(node):
    if isinstance(node, TerminalNode):
        return {"payoffs": [str(p) for p in node.payoffs]}
    return {
        "player": node.player,
        "actions": [
            {"label": label, "child": _node_json(child)}
            for label, child in zip(node.actions, node.children)
        ],
    }


def _game_json(game):
    sets = [
        [list(path) for path in iset.paths]
        for player in game.players
        for iset in game.information_sets_for(player)
        if len(iset.paths) > 1
    ]
    return {"players": list(game.players), "root": _node_json(game.root), "information_sets": sets}


def _states(game, player):
    """The player's opponent-path states: each path that reaches a leaf or
    one of the player's nodes without passing one, named by its labels."""
    states = []

    def scan(path, node):
        if isinstance(node, TerminalNode) or node.player == player:
            states.append("".join(path) or "start")
            return
        for label, child in zip(node.actions, node.children):
            scan(path + (label,), child)

    scan((), game.root)
    return states


def _scenario(seed):
    rng = random.Random(seed)
    game = random_perfect_recall_game(rng)
    player = rng.choice(game.players)
    pures = math.prod(len(iset.actions) for iset in game.information_sets_for(player))
    states = _states(game, player)
    point = rng.randrange(len(states))
    beliefs = {
        "type": "eps_contamination",
        "states": states,
        "center": ["1" if i == point else "0" for i in range(len(states))],
        "eps": "1/4",
    }
    data = {"game": _game_json(game), "player": player, "players": {player: {"beliefs": beliefs}}}
    return data, pures


def _main(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code in (0, 1, 2), (argv, code)
    return code, out


def test_random_scenarios_answer_or_exit_cleanly(tmp_path, capsys):
    hypothesis = pytest.importorskip("hypothesis")
    path = str(tmp_path / "scenario.json")
    codes = set()

    @hypothesis.settings(
        max_examples=150, deadline=None, derandomize=True, database=None,
        suppress_health_check=[hypothesis.HealthCheck.too_slow],
    )
    @hypothesis.given(hypothesis.strategies.integers(0, 2**32 - 1))
    def check(seed):
        data, pures = _scenario(seed)
        hypothesis.assume(pures <= MAX_PURE_STRATEGIES)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        for analysis in ANALYSES:
            codes.add(_main([analysis, path], capsys)[0])
            runs = [_main([analysis, path, "--json"], capsys) for _ in range(2)]
            (code, out), (again, out_again) = runs
            assert code == again
            if code == 0:
                report, report_again = json.loads(out), json.loads(out_again)
                assert report["scenario_hash"] == report_again["scenario_hash"]

    check()
    assert {0, 2} <= codes, codes
