import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction

import pytest

import credalgames.maxmin
from credalgames import cli, dynamics, gametree
from credalgames.beliefs import full_bayes_update, rectangular_hull
from credalgames.cli import (
    RunFlags,
    Scenario,
    ScenarioSchemaError,
    dumps,
    load_scenario,
    main,
    run,
    scenario_hash,
    sweep_eps,
    validate_scenario,
)
from credalgames.dynamics import Posteriors, build_player_problem
from credalgames.gametree import BUILTIN_GAMES, builtin_game, validate_perfect_recall
from credalgames.maxmin import DecisionProblem, maxmin_solve

F = Fraction


def result_for(report, analysis):
    return next(r for r in report.results if r["analysis"] == analysis)


def test_builtin_scenarios_pass_schema():
    parsed = {name: validate_scenario(load_scenario(name)) for name in ("fig1", "fig4")}
    for name, scenario in parsed.items():
        assert isinstance(scenario, Scenario)
        assert validate_perfect_recall(scenario.game).ok
    assert parsed["fig1"].players["2"].eps == F(1, 4)
    assert parsed["fig4"].players["3"].n_interval == (F(1, 3), F(1, 2))
    assert parsed["fig4"].grid == (-1, 0, 1, 100, 101)


def test_validate_checks_perfect_recall_once(monkeypatch):
    games = []

    def counting(game):
        games.append(game)
        return validate_perfect_recall(game)

    for module in (cli, dynamics, gametree):
        monkeypatch.setattr(module, "validate_perfect_recall", counting)
    report = run("fig1", RunFlags(analyses=("validate",)))
    assert result_for(report, "validate")["perfect_recall"] is True
    assert len(games) == 1


def test_run_fig1_check_dc_quarter():
    report = run("fig1", RunFlags(eps=F(1, 4), analyses=("check-dc",)))
    result = result_for(report, "check-dc")
    assert result["overall"] is False
    assert result["exante"]["strategy"] == {"M": "1", "N": "0"}
    assert result["conditional_strategy"] == ["1/102", "101/102"]
    assert result["cells"][0]["status"] == "inconsistent"


def test_run_fig1_rectangularized_restores_consistency():
    report = run(
        "fig1", RunFlags(eps=F(1, 4), rectangularize=True, analyses=("check-dc",))
    )
    result = result_for(report, "check-dc")
    assert result["overall"] is True
    assert result["exante"]["strategy"] == {"M": "1/102", "N": "101/102"}
    assert result["cells"][0]["common_face"]["vertices"] == [["1/102", "101/102"]]


def test_rectangularized_cells_are_judged_on_the_hulls_posteriors():
    report = run("fig1", RunFlags(eps=F(1, 4), rectangularize=True, analyses=("check-dc",)))
    judged = [c for c in result_for(report, "check-dc")["cells"] if "conditional_face" in c]
    assert judged
    spec = validate_scenario(load_scenario("fig1")).players["2"]
    problem = build_player_problem(builtin_game("fig1"), "2", spec.replace(eps=F(1, 4)).beliefs())
    hull = rectangular_hull(problem.exante.beliefs, problem.filtration)
    rows = problem.exante.payoff
    for cell in judged:
        post = full_bayes_update(hull, tuple(cell["cell"]))
        slot = next(s for s in problem.conditionals if list(s.cell) == cell["cell"])
        columns = [problem.space.index(s) for s in post.space.labels]
        width = max(slot.projection) + 1
        payoff = [[rows[slot.projection.index(j)][i] for i in columns] for j in range(width)]
        face = maxmin_solve(DecisionProblem.build(payoff, post.space, post)).optimal_face
        assert cell["conditional_face"] == face.to_json()
    # the posteriors hold the beliefs, so replacing them rebinds the ex-ante problem
    assert problem.replace(posterior=Posteriors(hull)).exante.beliefs is hull


def test_run_update_segment():
    report = run("fig1", RunFlags(eps=F(1, 4), analyses=("update",)))
    cells = result_for(report, "update")["cells"]
    assert cells[0]["cell"] == ["L", "R"]
    assert cells[0]["vertices"] == [["0", "1"], ["1/4", "3/4"]]


def test_run_reports_exact_strings_and_marked_decimals():
    report = run("fig1", RunFlags(eps=F(1, 50), analyses=("maxmin",)))
    result = result_for(report, "maxmin")
    assert result["value"] == "2474/25"
    assert result["value_approx"] == "98.96"
    text = dumps(report)
    assert "98.96" in text and "value_approx" in text


def test_report_json_round_trip_and_hash_stability():
    report = run("fig1", RunFlags(analyses=("maxmin",)))
    assert json.loads(dumps(report)) == report.to_json()
    data = load_scenario("fig1")
    reordered = {k: data[k] for k in reversed(list(data))}
    assert scenario_hash(data) == scenario_hash(reordered)


def test_scenario_schema_lists_every_violation(tmp_path):
    bad = {
        "game": "fig9",
        "player": "2",
        "players": {
            "2": {
                "beliefs": {
                    "type": "credal",
                    "states": ["a", "b"],
                    "vertices": [["1/2", "1/3"], ["1/2", "1/2"], ["2", "-1"]],
                }
            }
        },
        "analysis": ["maxmin", "mystery"],
    }
    with pytest.raises(ScenarioSchemaError) as caught:
        validate_scenario(bad)
    joined = "\n".join(caught.value.violations)
    assert "game: no built-in game named 'fig9'" in joined
    assert "vertices[0]" in joined and "sum to 5/6" in joined
    assert "vertices[2]" in joined
    assert "analysis[1]" in joined
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["validate", str(path)]) == 1


@pytest.mark.parametrize("name", ["bogus", "analyze", "sweep"])
def test_run_flags_naming_no_analysis_are_schema_errors(name):
    # render may be named here, as main does, though not in a scenario file
    assert [r["analysis"] for r in run("fig1", RunFlags(analyses=("render",))).results] == ["render"]
    with pytest.raises(ScenarioSchemaError) as caught:
        run("fig1", RunFlags(analyses=("maxmin", name)))
    assert caught.value.violations == [f"RunFlags.analyses[1]: unknown analysis {name!r}"]


def test_vertex_sum_violation_exits_one(tmp_path, capsys):
    data = load_scenario("fig4")
    data["players"]["3"]["beliefs"]["vertices"][1][0] = "1/2"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert main(["check-rect", str(path)]) == 1
    err = capsys.readouterr().err
    assert "vertices[1]" in err


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["maxmin", "fig1", "--eps", "1/4"]) == 0
    assert main(["maxmin", "no-such-file.json"]) == 1
    assert main(["maxmin", "fig1", "--eps", "0.25"]) == 1
    capsys.readouterr()
    # fig1 carries no second-mover interval, so induce cannot run
    assert main(["induce", "fig1"]) == 2
    assert "analysis error" in capsys.readouterr().err
    # conditioning on an excluded event is reported, not raised
    assert main(["update", "fig1", "--eps", "0", "--event", "O"]) == 0
    assert "unreachable" in capsys.readouterr().out


def test_induce_names_the_states_an_interval_cannot_reach(capsys):
    # the n_interval construction pushes a prior over L, R, O onto fig4's
    # third-mover states, which fig1's second mover does not have
    assert main(["induce", "fig1", "--player", "2", "--interval", "1/3:1/2"]) == 2
    err = capsys.readouterr().err
    assert err == "analysis error: player 2's states L, R, O do not fit beliefs over Z, RN, O\n"


def test_induce_reads_the_prior_by_its_labels():
    # fig4's player-3 prior listed over O, L, R induces fig4's four vertices
    data = load_scenario("fig4")
    beliefs = data["players"]["3"]["beliefs"]
    order = [2, 0, 1]
    beliefs["states"] = [beliefs["states"][i] for i in order]
    beliefs["vertices"] = [[v[i] for i in order] for v in beliefs["vertices"]]
    got = result_for(run(data, RunFlags(analyses=("induce",))), "induce")
    want = result_for(run("fig4", RunFlags(analyses=("induce",))), "induce")
    assert got == want
    assert len(got["vertices"]) == 4


def _tied_moves(tmp_path, count):
    # one move among count equal payoffs ties every strategy: the optimal
    # face is the whole simplex, whose count vertices are its only candidates
    moves = [{"label": f"a{i}", "child": {"payoffs": ["0"]}} for i in range(count)]
    data = {
        "game": {"players": ["1"], "root": {"player": "1", "actions": moves}},
        "player": "1",
        "players": {"1": {"beliefs": {"type": "credal", "states": ["start"], "vertices": [["1"]]}}},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_face_too_wide_to_enumerate_is_an_analysis_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(credalgames.maxmin, "MAX_FACE_CANDIDATES", 79)
    assert main(["maxmin", _tied_moves(tmp_path, 80)]) == 2
    err = capsys.readouterr().err
    assert "analysis error: the optimal face over 80 strategies has 80 candidate vertices" in err


def test_face_at_the_candidate_budget_is_enumerated(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(credalgames.maxmin, "MAX_FACE_CANDIDATES", 80)
    assert main(["maxmin", _tied_moves(tmp_path, 80), "--json"]) == 0
    face = json.loads(capsys.readouterr().out)["results"][0]["optimal_face"]
    assert len(face) == 80


def test_too_many_pure_strategies_is_an_analysis_error_before_any_is_listed(
    tmp_path, monkeypatch, capsys
):
    # player 1 makes a 12-way move, then player 2 moves at 12 singleton sets
    # with two actions each: 4096 pure strategies, over the budget
    k = 12
    moves = [
        {"label": f"A{i}", "child": {"player": "2", "actions": [
            {"label": "M", "child": {"payoffs": ["0", str((7 * i + 3) % 11)]}},
            {"label": "N", "child": {"payoffs": ["0", str((5 * i + 8) % 13)]}},
        ]}}
        for i in range(k)
    ]
    center = [f"1/{k}"] * k
    beliefs = {"type": "eps_contamination", "states": [f"A{i}" for i in range(k)],
               "center": center, "eps": "1/4"}
    data = {
        "game": {"players": ["1", "2"], "root": {"player": "1", "actions": moves}},
        "player": "2",
        "players": {"2": {"beliefs": beliefs}},
    }
    path = tmp_path / "singletons.json"
    path.write_text(json.dumps(data))
    listed = []
    real = gametree.GameTree.pure_strategies
    monkeypatch.setattr(
        gametree.GameTree,
        "pure_strategies",
        lambda game, player: listed.append(player) or real(game, player),
    )
    start = time.perf_counter()
    assert main(["check-dc", str(path)]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "analysis error: player '2' has 4096 pure strategies; "
        f"the pure-strategy problem stops at {dynamics.MAX_PURE_STRATEGIES}\n"
    )
    assert listed == []


def test_cli_json_report_is_deterministic(capsys):
    assert main(["check-dc", "fig1", "--eps", "1/4", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["check-dc", "fig1", "--eps", "1/4", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["results"][0]["cells"][0]["value_gap"] == "4949/204"


def test_cli_render_writes_svg(tmp_path, capsys):
    out = tmp_path / "fig.svg"
    assert main(["render", "fig1", "--layers", "hull,beliefs,update", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith('<?xml')
    assert 'viewBox="0 0 512 512"' in text
    capsys.readouterr()
    # byte-identical on a second run
    out2 = tmp_path / "fig_again.svg"
    assert main(["render", "fig1", "--layers", "hull,beliefs,update", "--out", str(out2)]) == 0
    assert out2.read_text() == text


def test_render_skips_the_update_of_an_unreachable_cell(tmp_path, capsys):
    # a center on O with eps 0 gives the cell {L,R} probability 0
    beliefs = {**_FIG1_BELIEFS, "center": ["0", "0", "1"], "eps": "0"}
    path = _scenario_file(tmp_path, "fig1", ("players", "2", "beliefs"), beliefs)
    assert main(["update", path]) == 0
    assert "[update] cell {L,R}: unreachable" in capsys.readouterr().out
    out = tmp_path / "fig.svg"
    assert main(["render", path, "--layers", "beliefs,update", "--out", str(out)]) == 0
    assert out.read_text().startswith("<?xml")


@pytest.mark.parametrize("name", ["fig1", "fig4"])
def test_update_layer_pads_each_posterior_like_the_embed_matrix(name, monkeypatch):
    from credalgames.exactmath import affine_image

    drawn = []
    monkeypatch.setattr(cli, "render_triangle", lambda panels, path: drawn.extend(panels) or "")
    flags = RunFlags(layers=("update",), svg_out="unused.svg")
    scenario = validate_scenario(load_scenario(name), flags)
    prep = cli._prepare(scenario, flags)
    cli._render(prep, scenario)
    pp = prep.problem
    expected = []
    for slot in pp.conditionals:
        post = pp.posterior(slot.cell)
        embed = [[F(int(s == c)) for c in post.space.labels] for s in pp.space.labels]
        expected.append(affine_image(post.set, embed))
    assert expected
    assert [layer.credal.set for layer in drawn[0].layers] == expected


def test_cli_find_payoffs_on_fig4(capsys):
    assert main(["analyze", "fig4"]) == 0
    out = capsys.readouterr().out
    assert "[check-rect] rectangular: no" in out
    assert "[find-payoffs] inconsistent at" in out


def test_sweep_eps_list_and_threshold():
    result = sweep_eps(["1/200", "1/103", "1/102", "1/101", "1/100", "1/4"])
    verdicts = [v for _, v in result.entries]
    assert verdicts == ["consistent"] * 3 + ["inconsistent"] * 3
    assert result.threshold == F(1, 102)
    assert result.first_inconsistent == F(1, 101)


def test_sweep_empty_list():
    result = sweep_eps([])
    assert result.entries == ()
    assert result.threshold is None


def test_sweep_bisect_hits_exact_boundary():
    result = sweep_eps(None, bisect=(F(1, 204), F(1, 51)))
    assert result.threshold == F(1, 102)
    assert result.first_inconsistent > F(1, 102)


def test_sweep_returns_entries_in_eps_order():
    result = sweep_eps(["1/4", "1/200"])
    assert [str(e) for e, _ in result.entries] == ["1/200", "1/4"]
    assert [v for _, v in result.entries] == ["consistent", "inconsistent"]


# verdicts that flip back, so no eps separates the consistent from the
# inconsistent: in eps lists, and in a list sorted in with a bisection's probes
C, I = "consistent", "inconsistent"
_INTERLEAVED = {
    "0,1/102,1/101,1/2,999/1000,1": [
        ("0", C), ("1/102", C), ("1/101", I), ("1/2", I), ("999/1000", I), ("1", C)
    ],
    "1/2,1": [("1/2", I), ("1", C)],
    "1 --bisect 1/204:1/51": [("1/204", C), ("1/102", C), ("1/68", I), ("1/51", I), ("1", C)],
}


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    "args", list(_INTERLEAVED), ids=["flips-back-at-1", "inconsistent-first", "with-bisect"]
)
def test_sweep_claims_no_threshold_its_entries_contradict(args, as_json, capsys):
    assert main(["sweep", "--eps-list", *args.split()] + ["--json"] * as_json) == 0
    out = capsys.readouterr().out
    expected = _INTERLEAVED[args]
    if as_json:
        data = json.loads(out)
        assert data["entries"] == [list(entry) for entry in expected]
        assert data["threshold"] is None
        assert data["first_inconsistent"] is None
    else:
        assert out.splitlines() == [f"eps = {e}: {v}" for e, v in expected]


def test_override_player_on_fig4():
    report = run("fig4", RunFlags(player="2", analyses=("maxmin", "check-dc")))
    result = result_for(report, "maxmin")
    # the quadrilateral is rectangular for player 2's filtration, so the
    # strategic and conditional optima agree (here: never play M, since the
    # chance of R stays below 101/102)
    assert result_for(report, "check-dc")["overall"] is True
    assert result["strategy"] == {"M": "0", "N": "1"}


def test_inline_scenario_runs():
    data = load_scenario("fig1")
    data["players"]["2"]["beliefs"]["eps"] = "1/200"
    report = run(data, RunFlags(analyses=("check-dc",)))
    assert result_for(report, "check-dc")["overall"] is True


NULL = object()  # a value _scenario_file writes as JSON null


def _scenario_file(tmp_path, name, path, value):
    """Write the built-in scenario with the entry at ``path`` set (None: deleted,
    NULL: null); an empty path replaces the whole scenario.

    The name "inline" gives fig1 with its game written out inline.
    """
    if name == "inline":
        data = load_scenario("fig1")
        data["game"] = json.loads(json.dumps(BUILTIN_GAMES["fig1"]))
    else:
        data = load_scenario(name)
    node = data
    for key in path[:-1]:
        node = node[key]
    if not path:
        data = value
    elif value is None:
        del node[path[-1]]
    else:
        node[path[-1]] = None if value is NULL else value
    out = tmp_path / "scenario.json"
    out.write_text(json.dumps(data))
    return str(out)


@pytest.mark.parametrize(
    "argv, edit",
    [
        (["maxmin", "fig1", "--eps", "1/0"], None),
        (["sweep", "--eps-list", "1/4,1/0"], None),
        (["sweep", "--bisect", "1/0:1/2"], None),
        (["maxmin"], ("fig1", ("players", "2", "beliefs", "eps"), "1/0")),
        (["induce"], ("fig4", ("players", "3", "n_interval", 0), "1/0")),
        (["maxmin"], ("fig1", ("players", "2", "beliefs", "eps"), True)),
        (["maxmin"], ("fig1", ("bindings",), {"x": False})),
    ],
    ids=["flag-eps", "flag-eps-list", "flag-bisect", "file-eps", "file-n-interval",
         "file-bool-eps", "file-bool-binding"],
)
def test_zero_denominators_and_bools_are_schema_errors(argv, edit, tmp_path, capsys):
    if edit is not None:
        argv = argv + [_scenario_file(tmp_path, *edit)]
    assert main(argv) == 1
    assert "schema error" in capsys.readouterr().err


_FIG1_BELIEFS = {
    "type": "eps_contamination",
    "states": ["L", "R", "O"],
    "center": ["0", "1", "0"],
    "eps": "1/4",
}
# fig1's root with player 1 at both of player 2's nodes, whose information
# set then joins player 1's own moves L and R
_NO_RECALL_ROOT = json.loads(json.dumps(BUILTIN_GAMES["fig1"]["root"]))
for _action in _NO_RECALL_ROOT["actions"][:2]:
    _action["child"]["player"] = "1"


@pytest.mark.parametrize(
    "name, path, value, where",
    [
        ("fig1", ("players", "2", "beliefs", "states"), None, "players.2.beliefs.states"),
        ("fig1", ("bindings",), ["x"], "bindings"),
        *[
            ("fig1", ("bindings",), value,
             "bindings: must map parameter names to exact rationals")
            for value in ([], 0, "", False, NULL)
        ],
        ("fig1", ("players", "2", "beliefs", "center"), ["0", "1"], "players.2.beliefs.center"),
        ("fig4", ("payoff_search", "grid", 0), "0.5", "payoff_search.grid[0]"),
        ("inline", ("game", "root", "actions", 0, "child"), None,
         "game.root.actions[0].child: required"),
        ("inline", ("game", "root"), [], "game.root: must be an object"),
        ("inline", ("game", "information_sets"), 5, "game.information_sets: must be a list"),
        ("inline", ("game", "root", "actions", 2, "child", "payoffs", 0), "zz",
         "game.root.actions[2].child.payoffs[0]: 'zz' is neither"),
        ("inline", ("game", "parameters", "x"), "1/0", "game.parameters.x: '1/0'"),
        ("inline", ("game", "root", "actions", 2, "child", "payoffs", 1), "0.5",
         "game.root.actions[2].child.payoffs[1]: '0.5'"),
        ("inline", ("game", "parameters", "x"), "1e3", "game.parameters.x: '1e3'"),
        ("inline", ("game", "root", "actions", 0, "label"), 5,
         "game.root.actions[0].label: must be a str"),
        ("fig1", ("bindings",), {"zz": "1"}, "bindings.zz: not a declared parameter"),
        ("fig4", ("payoff_search", "slots", 1), "zz",
         "payoff_search.slots[1]: not a declared parameter"),
        ("fig4", ("payoff_search", "slots", 2), "uRNS",
         "payoff_search.slots[2]: repeats an earlier slot"),
        ("fig1", ("player",), None, "player: required, in the scenario or as --player"),
        ("fig1", ("players", "9"), {"beliefs": _FIG1_BELIEFS}, "players.9: not a player of the game"),
        ("fig1", (), ["fig1"], "scenario: must be a JSON object"),
        ("fig1", ("players",), [], "players: must map player ids to belief entries"),
        ("fig1", ("analysis",), "maxmin", "analysis: must be a list"),
        ("fig1", ("analysis",), ["render"], "analysis[0]: unknown analysis 'render'"),
        ("fig4", ("payoff_search",), [], "payoff_search: must be an object with grid and slots"),
        ("fig4", ("payoff_search", "grid"), "0",
         "payoff_search.grid: must be a list of exact rationals"),
        ("fig4", ("payoff_search", "slots"), "uOS",
         "payoff_search.slots: must be a list of parameter names"),
        ("fig1", ("players", "2"), [], "players.2: must be an object"),
        ("fig1", ("players", "2", "beliefs"), [], "players.2.beliefs: an object is required"),
        ("fig1", ("players", "2", "beliefs", "type"), "interval",
         "players.2.beliefs.type: expected 'eps_contamination' or 'credal'"),
        ("fig1", ("players", "2", "beliefs", "eps"), None, "players.2.beliefs.eps: required"),
        ("fig4", ("players", "3", "beliefs", "vertices"), None,
         "players.3.beliefs.vertices: at least one vertex is required"),
        ("fig4", ("players", "3", "beliefs", "vertices", 0), "1/4",
         "players.3.beliefs.vertices[0]: a probability vector is required"),
        ("fig4", ("players", "3", "beliefs", "vertices", 0), ["-1/8", "1", "1/8"],
         "players.3.beliefs.vertices[0]: negative probability"),
        ("inline", ("game", "root", "player"), "9", "game: unknown player '9' at ()"),
        ("inline", ("game", "root", "actions", 1, "label"), "L",
         "game: duplicate action label at ()"),
        ("inline", ("game", "root", "actions", 2, "child", "payoffs"), ["x"],
         "game: terminal ('O',) has 1 payoffs for 2 players"),
        ("inline", ("game", "information_sets", 0, 1), ["R", "M"],
         "game: information set names unknown node ('R', 'M')"),
        ("inline", ("game", "root"), _NO_RECALL_ROOT,
         "game: player '1' lacks perfect recall at (('L',), ('R',))"),
        ("fig1", ("game",), 7, "game: a built-in name or an inline game object is required"),
        ("fig4", ("players", "3", "n_interval"), ["1/3"],
         "players.3.n_interval: expected [low, high]"),
        ("fig4", ("players", "3", "beliefs", "vertices", 0, 0), "x",
         "players.3.beliefs.vertices[0][0]: 'x' is not an exact rational like 1/102"),
    ],
    ids=["eps-without-states", "bindings-list", "bindings-empty-list", "bindings-zero",
         "bindings-empty-string", "bindings-false", "bindings-null", "center-length", "grid-entry",
         "game-action-without-child", "game-list-root", "game-int-information-sets",
         "game-undeclared-payoff", "game-zero-denominator-parameter", "game-decimal-payoff",
         "game-exponent-parameter", "game-int-label", "binding-undeclared",
         "slot-undeclared", "slot-repeated", "player-missing", "player-not-in-game",
         "scenario-list", "players-list", "analysis-string", "analysis-render",
         "payoff-search-list", "grid-string", "slots-string", "player-entry-list", "beliefs-list",
         "beliefs-type-unknown",
         "eps-missing", "vertices-missing", "vertex-string", "vertex-negative",
         "game-unknown-player", "game-duplicate-label", "game-short-payoffs",
         "game-information-set-unknown-node", "game-without-perfect-recall", "game-int",
         "n-interval-one-entry", "vertex-entry-not-rational"],
)
def test_malformed_scenario_files_are_schema_errors(name, path, value, where, tmp_path, capsys):
    assert main(["validate", _scenario_file(tmp_path, name, path, value)]) == 1
    assert f"schema error: {where}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, where",
    [
        (["maxmin", "fig1", "--eps", "2"], "--eps: 2 outside [0, 1]"),
        (["induce", "fig4", "--interval", "1/2:1/3"], "--interval: need 0 <= low <= high <= 1"),
        (["sweep", "--bisect", "1/2:1/3"], "--bisect: need 0 < low < high < 1"),
        (["update", "fig1", "--event", "L,L"], "--event: 'L,L' is not a set of player 2's states L,R,O"),
        (["update", "fig1", "--event", "X"], "--event: 'X' is not a set of player 2's states L,R,O"),
        (["maxmin", "fig1", "--bind", "zz=1"], "--bind zz: not a declared parameter"),
        (["find-payoffs", "fig4", "--slots", "uRNS,zz"], "--slots zz: not a declared parameter"),
        (["find-payoffs", "fig4", "--slots", "uOS,uOS"], "--slots uOS: repeats an earlier slot"),
        (["maxmin", "fig1", "--player", "9"], "--player: '9' has no entry under players"),
        (["render", "fig1", "--layers", "hull,foo"], "--layers: unknown layer 'foo'"),
        (["render", "fig4", "--layers", "beliefs,induced,induced"],
         "--layers: repeats an earlier layer"),
        (["maxmin", "fig1", "--eps", ""], "--eps: '' is not an exact rational"),
        (["maxmin", "fig1", "--player", ""], "--player: '' has no entry under players"),
        (["update", "fig1", "--event", ""], "--event: '' is not a set of player 2's states"),
        (["induce", "fig4", "--interval", ""], "--interval: '' is not low:high, two exact"),
        (["induce", "fig4", "--interval", "1/3"], "--interval: '1/3' is not low:high, two exact"),
        (["find-payoffs", "fig4", "--grid", ""], "--grid: '' is not an exact rational"),
        (["find-payoffs", "fig4", "--slots", ""], "--slots : not a declared parameter"),
        (["render", "fig1", "--layers", ""], "--layers: unknown layer ''"),
        (["sweep", "--eps-list", ""], "--eps-list: '' is not an exact rational"),
        (["sweep", "--bisect", ""], "--bisect: '' is not low:high, two exact rationals"),
        (["sweep", "--bisect", "1/3"], "--bisect: '1/3' is not low:high, two exact rationals"),
        (["sweep", "--bisect", "x:1/3:1/2"], "--bisect: 'x:1/3:1/2' is not low:high"),
        (["maxmin", "fig1", "--bind", "x"], "--bind: expected NAME=p/q, got 'x'"),
    ],
    ids=["eps", "interval", "bisect", "event-repeated", "event-unknown", "bind-undeclared",
         "slots-undeclared", "slots-repeated", "player-unknown", "layers-unknown",
         "layers-repeated", "eps-empty", "player-empty", "event-empty", "interval-empty",
         "interval-no-colon", "grid-empty", "slots-empty", "layers-empty", "eps-list-empty",
         "bisect-empty", "bisect-no-colon", "bisect-two-colons", "bind-no-equals"],
)
def test_out_of_range_flags_are_schema_errors(argv, where, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where render would write its default triangle.svg
    assert main(argv) == 1
    assert f"schema error: {where}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["sweep", "--bisect", ""], ["sweep", "--bisect", ":"], ["induce", "fig4", "--interval", "a:b"]],
    ids=["bisect-empty", "bisect-both-halves-empty", "interval-both-halves-bad"],
)
def test_a_bad_low_high_value_is_one_violation(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("schema error:") == 1
    assert f"{argv[-2]}: {argv[-1]!r} is not low:high, two exact rationals like 1/102" in err


def test_file_and_flag_violations_are_listed_together(tmp_path, capsys):
    path = _scenario_file(tmp_path, "fig1", ("bindings",), {"zz": "1"})
    assert main(["maxmin", path, "--bind", "qq=1"]) == 1
    err = capsys.readouterr().err
    assert "schema error: bindings.zz: not a declared parameter" in err
    assert "schema error: --bind qq: not a declared parameter" in err


def test_eps_flag_rejected_on_credal_beliefs(capsys):
    assert main(["maxmin", "fig4", "--eps", "1/2"]) == 1
    assert "schema error: --eps" in capsys.readouterr().err


# the cell {L,R} has probability 0 under the vertex on O
_ZERO_ON_LR = {
    "type": "credal",
    "states": ["L", "R", "O"],
    "vertices": [["0", "0", "1"], ["1/2", "1/2", "0"]],
}
# player 1's moves A then B spell the label of its move AB
_AB_TWICE = {
    "players": ["1", "2"],
    "root": {"player": "1", "actions": [
        {"label": "A", "child": {"player": "1", "actions": [
            {"label": "B", "child": {"payoffs": ["0", "0"]}},
            {"label": "C", "child": {"payoffs": ["0", "1"]}},
        ]}},
        {"label": "AB", "child": {"payoffs": ["1", "0"]}},
    ]},
}


@pytest.mark.parametrize(
    "argv, edit, message",
    [
        (["sweep", "--bisect", "1/2:3/4"], None,
         "bisection needs a consistent low bound and an inconsistent high bound; "
         "got inconsistent at 1/2 and inconsistent at 3/4"),
        (["render", "fig1", "--layers", "induced"], None,
         "the induced layer needs an n_interval"),
        (["rect-hull"], ("fig1", ("players", "2", "beliefs"), _ZERO_ON_LR),
         "rect-hull: event {L,R} has probability 0 under vertex (0, 0, 1)"),
        (["check-dc", "--rectangularize"], ("fig1", ("players", "2", "beliefs"), _ZERO_ON_LR),
         "--rectangularize: event {L,R} has probability 0 under vertex (0, 0, 1)"),
        (["render", "--layers", "hull"], ("fig1", ("players", "2", "beliefs"), _ZERO_ON_LR),
         "render: event {L,R} has probability 0 under vertex (0, 0, 1)"),
        (["validate"], ("fig1", ("game",), _AB_TWICE),
         "ambiguous opponent-path labels: ['AB', 'AC', 'AB']"),
        (["induce"], ("fig4", ("players", "3", "beliefs", "states"), ["A", "B", "C"]),
         "downstream induction reads beliefs over L, R, O, not A, B, C"),
    ],
    ids=["bisect-both-inconsistent", "render-induced-without-interval", "rect-hull-zero-mass",
         "check-dc-rectangularize-zero-mass", "render-hull-zero-mass", "ambiguous-labels",
         "induce-unknown-labels"],
)
def test_analysis_errors_exit_two_with_their_message(
    argv, edit, message, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)  # where render would write its default triangle.svg
    if edit is not None:
        argv = argv + [_scenario_file(tmp_path, *edit)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"analysis error: {message}\n"


@pytest.mark.parametrize(
    "argv, line, key, value",
    [
        (["check-rect", "fig1", "--eps", "0"], "[check-rect] rectangular: yes", "rectangular", True),
        (["find-payoffs", "fig4", "--grid", "0", "--slots", "uOS"],
         "[find-payoffs] no grid assignment breaks consistency", "found", False),
    ],
    ids=["check-rect-yes", "find-payoffs-none"],
)
def test_negative_answers_are_reported(argv, line, key, value, capsys):
    assert main(argv) == 0
    assert line in capsys.readouterr().out.splitlines()
    assert main(argv + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"][0][key] is value


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["analyze", "fig1"], "0355e99e2e0c8199"),
        (["analyze", "fig4"], "ce7de69cc66840c8"),
        (["sweep", "--bisect", "1/204:1/51"], "eb28db906deb3a92"),
        (["check-dc", "fig1", "--eps", "1/4", "--rectangularize"], "b0ab18fece3857e2"),
    ],
    ids=["analyze-fig1", "analyze-fig4", "sweep-bisect", "check-dc-rect"],
)
def test_json_reports_match_golden_digests(argv, digest, capsys):
    assert main(argv + ["--json"]) == 0
    assert _digest(capsys.readouterr().out) == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["analyze", "fig1"], "25954a1236a3dfe7"),
        (["analyze", "fig4"], "151fea6e37ae32ad"),
        (["update", "fig1"], "6515e261eb7bf31f"),
        (["check-dc", "fig1", "--eps", "1/4", "--rectangularize"], "bf675e498557d104"),
        (["sweep", "--eps-list", "1/200,1/102,1/100,1/4"], "05a115dc9e19ebf1"),
        (["check-dc", "fig4", "--player", "2"], "38b5f45c79f327c3"),
    ],
    ids=["analyze-fig1", "analyze-fig4", "update-fig1", "check-dc-rect", "sweep-list",
         "check-dc-fig4-player-2"],
)
def test_text_reports_match_golden_digests(argv, digest, capsys):
    assert main(argv) == 0
    assert _digest(capsys.readouterr().out) == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["render", "fig1", "--layers", "hull,beliefs,update"], "9af3422a0cca5822"),
        (["render", "fig4", "--layers", "beliefs,induced"], "d5a9662ba5686081"),
    ],
    ids=["fig1-hull-beliefs-update", "fig4-beliefs-induced"],
)
def test_svg_renders_match_golden_digests(argv, digest, tmp_path, capsys):
    out = tmp_path / "figure.svg"
    assert main(argv + ["--out", str(out)]) == 0
    assert _digest(out.read_text(encoding="utf-8")) == digest


@pytest.mark.parametrize(
    "argv", [["analyze", "fig1"], ["sweep", "--eps-list", "1/200,1/4"]], ids=["analyze", "sweep"]
)
def test_out_writes_the_json_report_and_prints_the_text(argv, tmp_path, capsys):
    assert main(argv + ["--json"]) == 0
    report = capsys.readouterr().out
    assert main(argv) == 0
    text = capsys.readouterr().out
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == text != report
    assert out.read_text(encoding="utf-8") == report


HELP_DIGESTS = [
    ("", "1cccf2e12f7ee9ad"),
    ("validate", "ccad841f1e08c925"),
    ("analyze", "d3242fc5c46124ae"),
    ("maxmin", "d4875071e6931b74"),
    ("rect-hull", "802fdfa0d09646c7"),
    ("check-rect", "403915e7b8d567bd"),
    ("update", "eba211c61c05481d"),
    ("check-dc", "6594a3ffb5013292"),
    ("induce", "de3a28e9d029840a"),
    ("find-payoffs", "dd070e4b6cdcb8ee"),
    ("sweep", "b03fc5d97436990a"),
    ("render", "9d250f707ae7f37c"),
]


@pytest.mark.parametrize("command, digest", HELP_DIGESTS)
def test_help_texts_match_golden_digests(command, digest, monkeypatch, capsys):
    # the subcommands' shared scenario options come from one table; their
    # help must read as when each subcommand declared them itself
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        cli.build_parser().parse_args([command, "--help"] if command else ["--help"])
    assert stop.value.code == 0
    assert _digest(capsys.readouterr().out) == digest


@pytest.mark.parametrize("command, digest", HELP_DIGESTS)
def test_help_texts_through_main_match_golden_digests(command, digest, monkeypatch, capsys):
    # main builds one subcommand's parser when argv names one
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"] if command else ["--help"])
    assert stop.value.code == 0
    assert _digest(capsys.readouterr().out) == digest


def test_a_new_table_entry_is_parsed_run_and_printed(monkeypatch, capsys):
    entry = cli.Command(
        "count the update cells", True, {},
        lambda prep, scenario: {"player": scenario.player, "cells": len(prep.cells)},
        lambda result: [f"player {result['player']} acts at {result['cells']} cell(s)"],
    )
    monkeypatch.setitem(cli.COMMANDS, "cells", entry)
    assert main(["cells", "fig1"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["[cells] player 2 acts at 1 cell(s)"]
    assert main(["cells", "fig1", "--json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results == [{"analysis": "cells", "player": "2", "cells": 1}]


def _argv_matrix() -> list[list[str]]:
    """Help, parse errors and runs of every command, and top-level oddities."""
    matrix = [
        ["--help"], ["-h"], ["--he"], ["--"], [], ["--bogus"], ["nosuch"],
        ["nosuch", "fig1"], ["Analyze", "fig1"], ["-x", "analyze", "fig1"],
        ["--", "analyze", "fig1"], ["--help", "analyze"],
    ]
    for name, command in cli.COMMANDS.items():
        run = [name, "fig1"] if command.scenario else [name, "--eps-list", "1/200,1/4"]
        if name == "render":
            run += ["--out", "figure.svg"]
        matrix += [
            [name, "--help"],
            [name, "-h"],
            [name],  # no scenario, or no sweep list
            run,
            run + ["--json"],
            run + ["--bogus"],  # unrecognized at the top level
            run + ["extra"],
            run + ["--eps"],  # a flag missing its value
            run + ["--js"],  # an abbreviated flag
            run + ["-h", "--bogus"],
            [name, "--", *run[1:]],
            [name, "fig1", "fig4"],
        ]
    return matrix


def _outcome(argv, capsys):
    try:
        code = main(list(argv))
    except SystemExit as stop:
        code = ("SystemExit", stop.code)
    out, err = capsys.readouterr()
    return code, out, err


def test_one_command_parser_matches_the_full_tree(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)  # where render writes by default
    full_tree = cli.build_parser
    mismatched = []
    for argv in _argv_matrix():
        got = _outcome(argv, capsys)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "build_parser", lambda command=None: full_tree())
            want = _outcome(argv, capsys)
        if got != want:
            mismatched.append((argv, got, want))
    assert not mismatched


def test_main_builds_only_the_invoked_subcommands_parser(monkeypatch, capsys):
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (
        ["check-dc", "fig1", "--eps", "1/4", "--json"],
        ["sweep", "--eps-list", "1/200", "--json"],
    ):
        progs.clear()
        assert main(argv) == 0
        assert len(progs) <= 3, argv
    progs.clear()
    with pytest.raises(SystemExit):
        main(["--help"])
    assert {f"credalgames {name}" for name in cli.COMMANDS} <= set(progs)
    capsys.readouterr()


def test_main_reads_sys_argv_when_given_none(monkeypatch, capsys):
    argv = ["check-dc", "fig1", "--eps", "1/4", "--json"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    asked = []
    build = cli.build_parser
    monkeypatch.setattr(
        cli, "build_parser", lambda command=None: asked.append(command) or build(command)
    )
    monkeypatch.setattr(sys, "argv", ["credalgames", *argv])
    assert main() == 0
    assert asked == ["check-dc"]
    assert capsys.readouterr().out == want
    monkeypatch.setattr(sys, "argv", ["credalgames", "nosuch"])
    assert main() == 1
    usage = (
        "{validate,analyze,maxmin,rect-hull,check-rect,update,check-dc,induce,find-payoffs,"
        "sweep,render}"
    )
    assert usage in capsys.readouterr().err
