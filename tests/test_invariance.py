"""Metamorphic relations: transform the input, and the reports change in a
known way, exactly.

- Relabelling: beliefs that list fig1's states in another order give the
  same values, faces and verdicts, with every prior's coordinates permuted.
- Positive affine maps: mapping one player's payoffs u to a u + b, a > 0,
  maps values v to a v + b and gaps to a gap, and keeps faces, binding
  priors and verdicts (Gilboa & Schmeidler 1989).
- Relabelling actions and players: listing player 2's actions N before M
  permutes strategies and face coordinates, and renaming player 2 changes
  only the player ids.
- A duplicated action keeps every value, gap and verdict; the optimal face
  grows to the segment between the action and its copy.
- A prior inside the hull changes nothing but the scenario's hash.
"""

import json
from fractions import Fraction as F

import pytest

from credalgames import cli, gametree, maxmin
from credalgames.beliefs import CredalSet, StateSpace
from credalgames.dynamics import (
    CONSISTENT,
    INCONSISTENT,
    check_dynamic_consistency,
    player_problem_from_matrix,
)

EPS = ("1/4", "1/101", "1/102")


def _fig1(eps, analyses, states=("L", "R", "O"), game="fig1"):
    """fig1's results by analysis: player 2 under eps-contamination of R,
    with the beliefs' states listed in ``states``'s order."""
    data = cli.load_scenario("fig1")
    data["game"] = game
    data["players"]["2"]["beliefs"].update(
        states=list(states), center=["1" if s == "R" else "0" for s in states]
    )
    report = cli.run(data, cli.RunFlags(eps=F(eps), analyses=analyses))
    return {r.pop("analysis"): r for r in report.results}


@pytest.mark.parametrize("eps", EPS)
def test_relabelled_fig1_beliefs_permute_the_reports(eps):
    states = ("R", "O", "L")
    analyses = ("maxmin", "check-dc", "rect-hull")
    base, relabelled = _fig1(eps, analyses), _fig1(eps, analyses, states)

    def permuted(vertices):
        return sorted([v["LRO".index(s)] for s in states] for v in vertices)

    for result in (base["maxmin"], base["check-dc"]["exante"]):
        result["binding_vertices"] = permuted(result["binding_vertices"])
    for result in (relabelled["maxmin"], relabelled["check-dc"]["exante"]):
        result["binding_vertices"].sort()
    for cell in relabelled["check-dc"]["cells"]:
        cell["cell"] = sorted(cell["cell"], key="LRO".index)
    assert relabelled["maxmin"] == base["maxmin"]
    assert relabelled["check-dc"] == base["check-dc"]
    hull, hull_relabelled = base["rect-hull"], relabelled["rect-hull"]
    assert hull_relabelled["states"] == list(states)
    assert sorted(hull_relabelled["vertices"]) == permuted(hull["vertices"])
    assert hull_relabelled["was_rectangular"] == hull["was_rectangular"]


def _mapped_fig1(a, b):
    """fig1 with player 2's payoffs u mapped to a u + b."""
    data = json.loads(json.dumps(gametree.BUILTIN_GAMES["fig1"]))

    def walk(node):
        if "payoffs" in node:
            node["payoffs"][1] = str(a * F(node["payoffs"][1]) + b)
        for action in node.get("actions", ()):
            walk(action["child"])

    walk(data["root"])
    return data


# eps -> player 2's value and the gap at {L,R} (None when consistent),
# before and after u -> 3u + 7
FIG1_AFFINE = {
    "1/4": (("151/2", "4949/204"), ("467/2", "4949/68")),
    "1/101": (("10099/101", "1/102"), ("31004/101", "1/34")),
    "1/102": (("100", None), ("307", None)),
}


@pytest.mark.parametrize("eps", EPS)
def test_an_affine_map_of_fig1_payoffs_maps_values_and_gaps(eps):
    a, b = 3, 7
    analyses = ("maxmin", "check-dc")
    base, mapped = _fig1(eps, analyses), _fig1(eps, analyses, game=_mapped_fig1(a, b))
    cell, mapped_cell = base["check-dc"]["cells"][0], mapped["check-dc"]["cells"][0]
    pinned = [
        (result["maxmin"]["value"], result["check-dc"]["cells"][0].get("value_gap"))
        for result in (base, mapped)
    ]
    assert tuple(pinned) == FIG1_AFFINE[eps]

    def affine(value):
        return str(a * F(value) + b)

    for result in (base["maxmin"], base["check-dc"]["exante"]):
        result["value"] = affine(result["value"])
    for result in (base, mapped):
        del result["maxmin"]["value_approx"]
    for key in ("conditional_value", "restricted_value"):
        cell[key] = affine(cell[key])
    if "value_gap" in cell:
        cell["value_gap"] = str(a * F(cell["value_gap"]))
    assert mapped == base
    assert (mapped_cell["status"] == CONSISTENT) == (eps == "1/102")


def _matrix_problems(st):
    """A player with 3 or 4 actions over 3..5 states, beliefs drawn as 3..5
    priors, a filtration of two cells where the player acts in both, and a
    positive affine map (a, b)."""

    @st.composite
    def case(draw):
        k, n = draw(st.integers(3, 4)), draw(st.integers(3, 5))
        rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                             min_size=k, max_size=k))
        weights = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any)
        drawn = draw(st.lists(weights, min_size=3, max_size=5))
        priors = [[F(w, sum(ws)) for w in ws] for ws in drawn]
        split = draw(st.integers(1, n - 1))
        a = F(draw(st.integers(1, 9)), draw(st.integers(1, 4)))
        b = F(draw(st.integers(-9, 9)), draw(st.integers(1, 4)))
        return rows, priors, split, a, b

    return case()


def test_positive_affine_maps_keep_faces_and_verdicts():
    hypothesis = pytest.importorskip("hypothesis")
    seen = set()

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True)
    @hypothesis.given(_matrix_problems(hypothesis.strategies))
    def check(case):
        rows, priors, split, a, b = case
        space = StateSpace.of(*(f"s{i}" for i in range(len(priors[0]))))
        beliefs = CredalSet.from_vertices(space, priors)
        # three or more priors against three or more actions: the value LP
        hypothesis.assume(len(beliefs.vertices) >= 3)
        cells = [space.labels[:split], space.labels[split:]]

        def report(payoffs):
            pp = player_problem_from_matrix("p", payoffs, space, beliefs, cells, cells)
            return check_dynamic_consistency(pp)

        base = report(rows)
        mapped = report([[a * u + b for u in row] for row in rows])
        exante = base.exante_solution
        assert mapped.exante_solution == exante.replace(value=a * exante.value + b)
        for verdict, mapped_verdict in zip(base.cells, mapped.cells, strict=True):
            expected = verdict
            if verdict.conditional_value is not None:
                expected = verdict.replace(
                    conditional_value=a * verdict.conditional_value + b,
                    restricted_value=a * verdict.restricted_value + b,
                )
            assert mapped_verdict == expected
            if verdict.value_gap is not None:
                assert mapped_verdict.value_gap == a * verdict.value_gap
            seen.add(verdict.status)

    check()
    assert {CONSISTENT, INCONSISTENT} <= seen, seen


def _fig1_game(edit):
    """fig1's game, with ``edit`` applied to each of player 2's nodes."""
    data = json.loads(json.dumps(gametree.BUILTIN_GAMES["fig1"]))
    for action in data["root"]["actions"][:2]:
        edit(action["child"])
    return data


def _faces(result):
    """Every optimal face in a check-dc result, as vertex lists."""
    faces = [result["exante"]["optimal_face"]["vertices"]]
    for cell in result["cells"]:
        faces += [cell[key]["vertices"] for key in cell if key.endswith("_face")]
    return faces


@pytest.mark.parametrize("eps", EPS)
def test_fig1_with_actions_reordered_permutes_strategies_and_faces(eps):
    analyses = ("maxmin", "check-dc")
    base = _fig1(eps, analyses)
    swapped = _fig1(eps, analyses, game=_fig1_game(lambda node: node["actions"].reverse()))
    for result in (base, swapped):
        # the conditional strategy is the face's first vertex in sorted
        # order, which the swap need not keep
        dc = result["check-dc"]
        assert dc.pop("conditional_strategy") == dc["cells"][0]["conditional_face"]["vertices"][0]
        result["maxmin"]["optimal_face"].sort()
        for face in _faces(dc):
            face.sort()
    for face in [base["maxmin"]["optimal_face"], *_faces(base["check-dc"])]:
        face[:] = sorted(vertex[::-1] for vertex in face)
    assert swapped == base


@pytest.mark.parametrize("eps", EPS)
def test_fig1_with_player_two_renamed_changes_only_player_ids(eps):
    analyses = ("validate", "maxmin", "update", "rect-hull", "check-rect", "check-dc")
    game = _fig1_game(lambda node: node.update(player="B"))
    game["players"] = ["1", "B"]
    data = cli.load_scenario("fig1")
    data.update(game=game, player="B", players={"B": data["players"]["2"]})
    flags = cli.RunFlags(eps=F(eps), analyses=analyses)
    base, renamed = cli.run(cli.load_scenario("fig1"), flags), cli.run(data, flags)

    def named_two(value):
        if isinstance(value, dict):
            return {k: named_two(v) for k, v in value.items()}
        if isinstance(value, list):
            return [named_two(v) for v in value]
        return "2" if value == "B" else value

    assert renamed.player == "B"
    assert named_two(renamed.to_json()["results"]) == base.to_json()["results"]


def _duplicate_m(node):
    m = node["actions"][0]
    assert m["label"] == "M"
    node["actions"].append({"label": "M2", "child": dict(m["child"])})


@pytest.mark.parametrize("eps", EPS)
def test_fig1_with_m_duplicated_keeps_values_gaps_and_verdicts(eps, monkeypatch):
    # three strategies against fig1's three priors: the value LP, and a face
    # of two vertices from _face's enumeration of square systems
    calls = {"_value_lp": 0, "solve_square_system": 0}
    for name in calls:
        original = getattr(maxmin, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(maxmin, name, counted)
    analyses = ("maxmin", "update", "rect-hull", "check-dc")
    base = _fig1(eps, analyses)
    duplicated = _fig1(eps, analyses, game=_fig1_game(_duplicate_m))
    assert calls["_value_lp"] > 0 and calls["solve_square_system"] > 0

    segment = [["0", "0", "1"], ["1", "0", "0"]]  # M2 and M over (M, N, M2)
    assert duplicated["maxmin"]["optimal_face"] == segment
    assert duplicated["check-dc"]["exante"]["optimal_face"]["vertices"] == segment
    for key in ("update", "rect-hull"):
        assert duplicated[key] == base[key]
    assert duplicated["maxmin"]["value"] == base["maxmin"]["value"]
    assert duplicated["maxmin"]["binding_vertices"] == base["maxmin"]["binding_vertices"]
    dc, dc_duplicated = base["check-dc"], duplicated["check-dc"]
    assert dc_duplicated["overall"] == dc["overall"]
    assert dc_duplicated["exante"]["value"] == dc["exante"]["value"]
    keys = ("cell", "status", "conditional_value", "restricted_value", "value_gap")
    for cell, cell_duplicated in zip(dc["cells"], dc_duplicated["cells"], strict=True):
        assert {k: cell_duplicated.get(k) for k in keys} == {k: cell.get(k) for k in keys}


def test_fig4_with_a_prior_inside_the_hull_changes_only_the_hash():
    data = cli.load_scenario("fig4")
    for player in ("2", "3"):
        vertices = data["players"][player]["beliefs"]["vertices"]
        # the midpoint of a diagonal of fig4's quadrilateral
        vertices.append([str((F(a) + F(b)) / 2) for a, b in zip(vertices[0], vertices[2])])
    analyses = ("maxmin", "rect-hull", "check-rect", "update", "check-dc", "find-payoffs")
    for player in ("2", "3"):
        # only player 3 has an n_interval to induce its beliefs from
        induce = ("induce",) if player == "3" else ()
        flags = cli.RunFlags(player=player, analyses=analyses + induce)
        base = cli.run(cli.load_scenario("fig4"), flags).to_json()
        with_midpoint = cli.run(data, flags).to_json()
        assert with_midpoint.pop("scenario_hash") != base.pop("scenario_hash")
        assert with_midpoint == base
