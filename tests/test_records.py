"""The package's value types: immutable slotted records, and what importing costs."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from credalgames import cli, dynamics, render
from credalgames.beliefs import (
    CredalSet,
    Filtration,
    StateSpace,
    eps_contamination,
    is_rectangular,
)
from credalgames.exactmath import LinearProgram, Polytope, Record, Vector, lp_solve
from credalgames.gametree import (
    GameTree,
    MixedStrategy,
    builtin_game,
    outcome_distribution,
    pure_behavioral,
    validate_perfect_recall,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def _samples() -> dict:
    """One instance of every record type, built the way the program builds it."""
    fig1, fig4 = builtin_game("fig1"), builtin_game("fig4")
    space = StateSpace.of("L", "R", "O")
    beliefs = eps_contamination(Vector([0, 1, 0]), F(1, 4), space)
    problem = dynamics.build_player_problem(fig1, "2", beliefs)
    lp = LinearProgram.build([1, 1], [([1, 2], "<=", 4), ([3, 1], "<=", 6)])
    report = dynamics.check_dynamic_consistency(problem)
    layer = render.TriangleLayer(beliefs, "beliefs")
    scenario = cli.validate_scenario(cli.load_scenario("fig4"))
    spec = scenario.players["3"]
    induced = dynamics.induce_downstream(spec.beliefs(), spec.n_interval)
    player3 = dynamics.build_player_problem(fig4, "3", induced, scenario.bindings)
    root = fig1.root
    first_moves = {p: pure_behavioral(fig1, p, (0,)) for p in fig1.players}
    return {
        "Constraint": lp.constraints[0],
        "LinearProgram": lp,
        "LpSolution": lp_solve(lp),
        "Polytope": beliefs.set,
        "StateSpace": space,
        "CredalSet": beliefs,
        "Filtration": problem.filtration,
        "RectangularityCheck": is_rectangular(beliefs, problem.filtration),
        "DecisionProblem": problem.exante,
        "MaxminSolution": report.exante_solution,
        "TriangleLayer": layer,
        "TrianglePanel": render.TrianglePanel((layer,), "fig1"),
        "TerminalNode": root.children[-1],
        "DecisionNode": root,
        "InformationSet": fig1.information_sets_for("2")[0],
        "BehavioralStrategy": pure_behavioral(fig1, "2", (0,)),
        "MixedStrategy": MixedStrategy("2", Vector([F(1, 2), F(1, 2)])),
        "OutcomeDistribution": outcome_distribution(fig1, first_moves),
        "RecallCheck": validate_perfect_recall(fig1),
        "ConditionalSlot": problem.conditionals[0],
        "PlayerProblem": problem,
        "_State": dynamics._State("L", ("L",), root.children[0], 0),
        "CellVerdict": report.cells[0],
        "ConsistencyReport": report,
        "PayoffSearchResult": dynamics.find_dc_violation_payoffs(
            player3, scenario.grid, scenario.slots
        ),
        "RunFlags": cli.RunFlags(eps=F(1, 4), analyses=("check-dc",)),
        "PlayerSpec": spec,
        "Scenario": scenario,
        "SweepResult": cli.sweep_eps(["1/200", "1/4"]),
    }


SAMPLES = _samples()


def test_every_record_type_has_a_sample():
    assert {cls.__name__ for cls in Record.__subclasses__()} == set(SAMPLES)
    assert all(type(x).__name__ == name for name, x in SAMPLES.items())


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_fields_can_be_neither_set_nor_deleted(name):
    record = SAMPLES[name]
    for field in record.__slots__ + ("undeclared",):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_a_rebuilt_copy_is_equal_and_hashes_alike(name):
    record = SAMPLES[name]
    copy = record.replace()
    assert copy is not record
    assert copy == record and not copy != record
    assert record != object()
    try:
        expected = hash(record)
    except TypeError:  # a dict or list field leaves the record unhashable
        return
    assert hash(copy) == expected


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_pickle_and_copy_keep_every_field(name):
    record = SAMPLES[name]
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is type(record)
        for field in record.__slots__:
            value, copied = getattr(record, field), getattr(twin, field)
            if isinstance(value, (GameTree, dynamics.Posteriors)):  # equal only to themselves
                assert type(copied) is type(value)
            else:
                assert copied == value


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_repr_names_every_field_in_order(name):
    record = SAMPLES[name]
    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in record.__slots__)
    assert repr(record) == f"{name}({fields})"


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_replace_rejects_an_unknown_field(name):
    with pytest.raises(TypeError):
        SAMPLES[name].replace(no_such_field=1)


def test_value_types_are_equal_by_value_and_key_dicts():
    def build():
        space = StateSpace.of("a", "b")
        return space, Polytope.from_vertices([[1, 0], [0, 1]]), CredalSet.from_vertices(
            space, [[1, 0], [0, 1]]
        )

    first, second = build(), build()
    for a, b in zip(first, second):
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: "found"}[b] == "found"
    assert StateSpace.of("a", "b") != StateSpace.of("b", "a")
    assert repr(StateSpace.of("a", "b")) == "StateSpace(labels=('a', 'b'))"


def test_replace_runs_the_constructors_checks():
    with pytest.raises(ValueError, match="unique"):
        StateSpace.of("a").replace(labels=("a", "a"))
    space = StateSpace.of("L", "R", "O")
    with pytest.raises(ValueError, match="partition"):
        Filtration.build(space, [[("L", "R"), ("O",)]]).replace(stages=((("L",),),))


def test_player_problem_replace_rederives_exante_and_shares_posteriors():
    fig1 = builtin_game("fig1")
    beliefs = CredalSet.singleton(StateSpace.of("start"), [1])
    problem = dynamics.build_player_problem(fig1, "1", beliefs, {"x": 3})
    rebound = problem.replace(values={**problem.values, "x": F(5)})
    assert rebound.posterior is problem.posterior
    assert rebound.exante.payoff == ((F(5),),) * 3
    assert problem.exante.payoff == ((F(3),),) * 3
    assert rebound.exante == dynamics.build_player_problem(fig1, "1", beliefs, {"x": 5}).exante
    assert rebound != problem
    with pytest.raises(TypeError):
        problem.replace(exante=rebound.exante)  # derived, not a constructor argument


def test_player_problem_equality_skips_posterior_and_hash_skips_values():
    fig1 = builtin_game("fig1")
    beliefs = eps_contamination(Vector([0, 1, 0]), F(1, 4), StateSpace.of("L", "R", "O"))
    problem = dynamics.build_player_problem(fig1, "2", beliefs)
    other = problem.replace(posterior=dynamics.Posteriors(beliefs))
    assert other.posterior is not problem.posterior
    assert other == problem and hash(other) == hash(problem)
    # x is not in player 2's payoffs, so only values differ: unequal, same hash
    unused = problem.replace(values={"x": F(7)})
    assert unused != problem and hash(unused) == hash(problem)


def test_importing_the_cli_loads_no_code_generation_modules():
    # -S keeps the .pth files of site-packages from importing anything first
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import credalgames.cli, credalgames.render\n"
        "print(sorted(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
