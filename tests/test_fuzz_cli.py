"""Every valid scenario answers or exits with a clean error.

Derandomized hypothesis draws perfect-recall games with
``tests/randtrees.py`` (at most 64 pure strategies per player), picks a
player and gives it an eps = 1/4 contamination of a point mass over its
opponent-path states.  Each draw is written as a scenario file with the game
inline and run through ``cli.main`` under every analysis, as text and with
``--json``: the exit code is 0, 1 or 2 and never an uncaught exception, the
JSON parses, and two runs give one ``scenario_hash``.  Four draws that the
derandomized search misses, each with a wide optimal face, are pinned by
seed.
"""

import hashlib
import json
import math
import random

import pytest

from credalgames import cli, maxmin
from credalgames.exactmath import solve_square_system
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


# seed, the maxmin face's candidate vertices (each one square solve), the
# maxmin value, and digests of the maxmin and check-dc results
WIDE_FACES = [
    (93, 78, "5", "a5ffc5d2d46fe9d9", "7dd6d1b5213a13e0"),
    (103, 9, "2", "81713aeed082405b", "ab7814fe3b182355"),
    (291, 12, "17/8", "0e841cba5c35819d", "a91d96a4d8cad5f2"),
    (416, 528, "-1", "269e64732cc1ce68", "78245f46d11ddde5"),
]


def _digest(result):
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize(
    "seed, candidates, value, maxmin_digest, check_dc_digest",
    WIDE_FACES,
    ids=[f"seed-{case[0]}" for case in WIDE_FACES],
)
def test_wide_faces_solve_each_counted_candidate_once(
    seed, candidates, value, maxmin_digest, check_dc_digest, tmp_path, monkeypatch, capsys
):
    data, _ = _scenario(seed)
    path = str(tmp_path / "scenario.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    assert [_main([analysis, path], capsys)[0] for analysis in ("maxmin", "check-dc")] == [0, 0]
    # with no budget the refusal names the count
    monkeypatch.setattr(maxmin, "MAX_FACE_CANDIDATES", 0)
    with pytest.raises(ValueError, match=f"has {candidates} candidate vertices"):
        cli.run(data, cli.RunFlags(analyses=("maxmin",)))
    monkeypatch.undo()
    solves = []

    def counting(rows, rhs):
        solves.append(len(rows))
        return solve_square_system(rows, rhs)

    monkeypatch.setattr(maxmin, "solve_square_system", counting)
    result = cli.run(data, cli.RunFlags(analyses=("maxmin",))).results[0]
    assert len(solves) == candidates
    assert result["value"] == value
    assert _digest(result) == maxmin_digest
    result = cli.run(data, cli.RunFlags(analyses=("check-dc",))).results[0]
    assert _digest(result) == check_dc_digest
