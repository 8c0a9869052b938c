"""Metamorphic relations: transform the input, and the reports change in a
known way, exactly.

- Relabelling: beliefs that list fig1's states in another order give the
  same values, faces and verdicts, with every prior's coordinates permuted.
- Positive affine maps: mapping one player's payoffs u to a u + b, a > 0,
  maps values v to a v + b and gaps to a gap, and keeps faces, binding
  priors and verdicts (Gilboa & Schmeidler 1989).
"""

import json
from fractions import Fraction as F

import pytest

from credalgames import cli, gametree
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
