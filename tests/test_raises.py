"""Input checks that no other test reaches: each raises with its message.

Also the scenario reader's integer branch: a JSON integer where the schema
takes an exact rational reads as that integer's fraction, so a file holding
one gives the same report as the file holding its string.
"""

import json
from fractions import Fraction as F

import pytest

from credalgames import cli, gametree
from credalgames.beliefs import (
    CredalSet,
    Filtration,
    StateSpace,
    compose,
    eps_contamination,
    rectangular_hull,
)
from credalgames.dynamics import (
    StateSpaceError,
    build_player_problem,
    player_problem_from_matrix,
)
from credalgames.exactmath import (
    LESS_EQUAL,
    DimensionMismatchError,
    LinearProgram,
    Polytope,
    Vector,
    affine_image,
    solve_square_system,
)
from credalgames.maxmin import DecisionProblem, maxmin_value_of

AB = StateSpace.of("a", "b")
ABC = StateSpace.of("a", "b", "c")
POINT_A = CredalSet.from_vertices(AB, [[1, 0]])


def _no_recall_game():
    """fig1 with player 1 at both of player 2's nodes, so player 1's own
    moves L and R share an information set."""
    data = json.loads(json.dumps(gametree.BUILTIN_GAMES["fig1"]))
    for action in data["root"]["actions"][:2]:
        action["child"]["player"] = "1"
    return gametree.game_from_json(data)


CASES = {
    "credal-set-dimension": (
        lambda: CredalSet(AB, Polytope.from_vertices([[1, 0, 0]])),
        ValueError, "polytope dimension must match the state count",
    ),
    "empty-cell": (
        lambda: Filtration.build(AB, [[["a", "b"], []]]),
        ValueError, "empty cell in stage",
    ),
    "eps-above-one": (
        lambda: eps_contamination(Vector([0, 1]), 2, AB),
        ValueError, r"contamination weight 2 outside \[0, 1\]",
    ),
    "compose-missing-conditional": (
        lambda: compose(
            ABC, (("a", "b"), ("c",)), CredalSet.from_vertices(AB, [[F(1, 2), F(1, 2)]]),
            {("a", "b"): CredalSet.from_vertices(AB, [[1, 0]])},
        ),
        ValueError, r"cell \('c',\) has marginal mass but no conditional",
    ),
    "hull-other-space": (
        lambda: rectangular_hull(POINT_A, Filtration.build(ABC, [[["a", "b", "c"]]])),
        ValueError, "filtration and credal set use different state spaces",
    ),
    "render-unknown-layer": (
        lambda: cli.run("fig1", cli.RunFlags(analyses=("render",), layers=("bogus",))),
        cli.AnalysisError, "unknown render layer 'bogus'",
    ),
    "bisect-crossed-bounds": (
        lambda: cli.sweep_eps(bisect=(F(1, 2), F(1, 3))),
        cli.AnalysisError, "bisection bounds need 0 < low < high < 1",
    ),
    "unknown-player": (
        lambda: build_player_problem(gametree.builtin_game("fig1"), "9", POINT_A),
        StateSpaceError, "unknown player '9'",
    ),
    "no-perfect-recall": (
        lambda: build_player_problem(_no_recall_game(), "1", POINT_A),
        StateSpaceError, "player '1' lacks perfect recall",
    ),
    "acting-cell-outside-stage": (
        lambda: player_problem_from_matrix(
            "2", [[1, 2, 3]], ABC, CredalSet.from_vertices(ABC, [[1, 0, 0]]),
            [["a", "b"], ["c"]], [["b", "c"]],
        ),
        StateSpaceError, r"acting cell \('b', 'c'\) is not a stage-1 cell",
    ),
    "unknown-relation": (
        lambda: LinearProgram.build([1], [([1], "<", 0)]),
        ValueError, "unknown relation '<'",
    ),
    "constraint-width": (
        lambda: LinearProgram.build([1, 2], [([1], LESS_EQUAL, 1)]),
        DimensionMismatchError, "constraint has 1 coefficients, expected 2",
    ),
    "beliefs-other-space": (
        lambda: DecisionProblem.build([[1, 2, 3]], ABC, POINT_A),
        ValueError, "beliefs must live on the problem's state space",
    ),
    "strategy-width": (
        lambda: maxmin_value_of(
            Vector([1, 0, 0]), DecisionProblem.build([[1, 2], [2, 1]], AB, POINT_A)
        ),
        ValueError, "strategy has 3 coordinates, problem wants 2",
    ),
    "affine-map-width": (
        lambda: affine_image(Polytope.from_vertices([[1, 0]]), [[1]]),
        DimensionMismatchError, "matrix has 1 columns, polytope dimension is 2",
    ),
    "system-not-square": (
        lambda: solve_square_system([[1, 2]], [1]),
        DimensionMismatchError, "system is not square",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_input_check_raises(case):
    call, error, match = CASES[case]
    with pytest.raises(error, match=match):
        call()


def _edited(name, path, value):
    data = cli.load_scenario(name)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


@pytest.mark.parametrize(
    "name, path, number, string",
    [
        ("fig1", ("players", "2", "beliefs", "eps"), 0, "0"),
        ("fig4", ("players", "3", "beliefs", "vertices", 0), [0, "7/8", "1/8"],
         ["0", "7/8", "1/8"]),
        ("fig1", ("bindings", "x"), 3, "3"),
        ("fig4", ("payoff_search", "grid", 0), -1, "-1"),
    ],
    ids=["eps", "vertex-entry", "binding", "grid-value"],
)
def test_json_integers_read_as_their_strings(name, path, number, string):
    with_int = cli.run(_edited(name, path, number))
    with_str = cli.run(_edited(name, path, string))
    assert (with_int.player, with_int.results) == (with_str.player, with_str.results)
