"""Command-line front end: scenarios in, reports and figures out.

A scenario bundles a game (built-in name or inline JSON), per-player credal
beliefs, payoff-parameter bindings, and a list of analyses.  Reports carry
every number as an exact "p/q" string; decimal renderings are always marked
approximate.  Exit codes: 0 success, 1 I/O or schema error, 2 analysis error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction

from . import __version__
from .beliefs import (
    CredalSet,
    StateSpace,
    ZeroProbabilityReachError,
    eps_contamination,
    is_rectangular,
    rectangular_hull,
)
from .dynamics import (
    Posteriors,
    StateSpaceError,
    build_player_problem,
    check_dynamic_consistency,
    find_dc_violation_payoffs,
    induce_downstream,
)
from .exactmath import Record, Vector, affine_image, approx_decimal, cleared, rat, read_rational
from .gametree import (
    BUILTIN_GAMES,
    GameJsonError,
    UnboundParameterError,
    builtin_game,
    game_from_json,
    validate_perfect_recall,
)
from .maxmin import maxmin_solve
from .render import TriangleLayer, TrianglePanel, render_triangle

LAYERS = ("beliefs", "update", "hull", "induced")


class ScenarioSchemaError(ValueError):
    """Scenario input rejected; carries one message per offending path."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class AnalysisError(ValueError):
    """An analysis could not be carried out on valid input."""


# -- built-in scenarios -----------------------------------------------------

_QUAD_BELIEFS = {
    "type": "credal",
    "states": ["L", "R", "O"],
    "vertices": [
        ["7/32", "21/32", "1/8"],
        ["7/16", "7/16", "1/8"],
        ["1/4", "1/4", "1/2"],
        ["1/8", "3/8", "1/2"],
    ],
}

BUILTIN_SCENARIOS: dict[str, dict] = {
    "fig1": {
        "game": "fig1",
        "player": "2",
        "players": {
            "2": {
                "beliefs": {
                    "type": "eps_contamination",
                    "states": ["L", "R", "O"],
                    "center": ["0", "1", "0"],
                    "eps": "1/4",
                }
            }
        },
        "bindings": {},
        "analysis": ["validate", "maxmin", "update", "check-dc"],
    },
    "fig4": {
        "game": "fig4",
        "player": "3",
        "players": {
            "2": {"beliefs": _QUAD_BELIEFS},
            "3": {"beliefs": _QUAD_BELIEFS, "n_interval": ["1/3", "1/2"]},
        },
        "bindings": {},
        "analysis": ["validate", "induce", "check-rect", "find-payoffs"],
        "payoff_search": {
            "grid": ["-1", "0", "1", "100", "101"],
            "slots": ["uRNS", "uRNT", "uOS", "uOT"],
        },
    },
}


# -- schema -----------------------------------------------------------------


def _weight(value, path: str, out: list[str]) -> Fraction | None:
    """Read a contamination weight: an exact rational in [0, 1]."""
    eps = read_rational(value, path, out)
    if eps is not None and not 0 <= eps <= 1:
        out.append(f"{path}: {eps} outside [0, 1]")
        return None
    return eps


def _chance_interval(pair: tuple, path: str, out: list[str]) -> tuple:
    """Check a second-mover chance interval read as (low, high)."""
    if None not in pair and not 0 <= pair[0] <= pair[1] <= 1:
        out.append(f"{path}: need 0 <= low <= high <= 1")
    return pair


def _member(data: dict, path: str, kind: type, problem: str, out: list[str]):
    """The entry at ``path``'s last key in ``data`` if it is a ``kind``; an
    empty ``kind`` if it is absent or, with a violation, of another type."""
    value = data.get(path.rpartition(".")[2], kind())
    if isinstance(value, kind):
        return value
    out.append(f"{path}: {problem}")
    return kind()


def _distribution(value, n: int | None, path: str, out: list[str]) -> Vector | None:
    """A probability vector; ``n`` is the state count, None if the states are bad."""
    if not isinstance(value, list) or not value:
        out.append(f"{path}: a probability vector is required")
        return None
    if n is not None and len(value) != n:
        out.append(f"{path}: expected {n} entries, one per state")
        return None
    entries = [read_rational(x, f"{path}[{j}]", out) for j, x in enumerate(value)]
    if None in entries:
        return None
    if any(e < 0 for e in entries):
        out.append(f"{path}: negative probability")
    elif sum(entries) != 1:
        out.append(f"{path}: entries sum to {sum(entries)}, not 1")
    else:
        return Vector(entries)
    return None


class RunFlags(
    Record,
    defaults={"player": None, "eps": None, "rectangularize": False, "analyses": None,
              "event": None, "interval": None, "grid": None, "slots": None, "bindings": None,
              "layers": ("beliefs", "update"), "svg_out": None},
):
    """Command-line options; validate_scenario applies those that override the file."""

    __slots__ = ("player", "eps", "rectangularize", "analyses", "event", "interval", "grid",
                 "slots", "bindings", "layers", "svg_out")


class PlayerSpec(Record):
    """One player's entry: eps_contamination beliefs (``center`` and ``eps``) or
    credal ones (``vertices``), and n_interval."""

    __slots__ = ("space", "center", "eps", "vertices", "n_interval")

    def beliefs(self) -> CredalSet:
        if self.center is None:
            return CredalSet.from_vertices(self.space, list(self.vertices))
        return eps_contamination(self.center, self.eps, self.space)


def _parse_player(entry, path: str, out: list[str]) -> PlayerSpec | None:
    if not isinstance(entry, dict):
        out.append(f"{path}: must be an object")
        return None
    known = len(out)
    interval = None
    if "n_interval" in entry:
        iv = entry["n_interval"]
        if not isinstance(iv, list) or len(iv) != 2:
            out.append(f"{path}.n_interval: expected [low, high]")
        else:
            interval = _chance_interval(
                tuple(read_rational(x, f"{path}.n_interval[{i}]", out) for i, x in enumerate(iv)),
                f"{path}.n_interval",
                out,
            )
    path += ".beliefs"
    spec = entry.get("beliefs")
    if not isinstance(spec, dict):
        out.append(f"{path}: an object is required")
        return None
    kind = spec.get("type")
    if kind not in ("eps_contamination", "credal"):
        out.append(f"{path}.type: expected 'eps_contamination' or 'credal'")
    states = spec.get("states")
    n = None
    if (
        isinstance(states, list)
        and states
        and all(isinstance(s, str) for s in states)
        and len(set(states)) == len(states)
    ):
        n = len(states)
    else:
        out.append(f"{path}.states: state labels must be a nonempty unique list")
    center = eps = None
    vertices = ()
    if kind == "eps_contamination":
        center = _distribution(spec.get("center"), n, f"{path}.center", out)
        if "eps" not in spec:
            out.append(f"{path}.eps: required")
        else:
            eps = _weight(spec["eps"], f"{path}.eps", out)
    elif kind == "credal":
        raw = spec.get("vertices")
        if not isinstance(raw, list) or not raw:
            out.append(f"{path}.vertices: at least one vertex is required")
        else:
            vertices = tuple(
                _distribution(v, n, f"{path}.vertices[{i}]", out) for i, v in enumerate(raw)
            )
    if len(out) > known:
        return None
    return PlayerSpec(StateSpace(tuple(states)), center, eps, vertices, interval)


class Scenario(Record):
    """A scenario read once, flags applied: the game built, every number exact."""

    __slots__ = ("game", "player", "players", "bindings", "analyses", "grid", "slots")


def validate_scenario(data, flags: RunFlags = RunFlags()) -> Scenario:
    """Parse a raw scenario and apply the flags' overrides in one pass.

    Raises ScenarioSchemaError with every violation of the file and of the
    flags as a 'path: problem' string; otherwise returns the typed Scenario
    the analyses run on, holding the values the flags leave in effect.
    """
    if not isinstance(data, dict):
        raise ScenarioSchemaError(["scenario: must be a JSON object"])
    out: list[str] = []
    game = data.get("game")
    tree = None
    if isinstance(game, str):
        if game in BUILTIN_GAMES:
            tree = builtin_game(game)
        else:
            out.append(f"game: no built-in game named {game!r}")
    elif isinstance(game, dict):
        try:
            tree = game_from_json(game)
            check = validate_perfect_recall(tree)
            if not check.ok:
                out.append(
                    f"game: player {check.player!r} lacks perfect recall at {check.witness}"
                )
        except GameJsonError as exc:  # the message starts with the path
            out.append(str(exc))
        except (KeyError, TypeError, ValueError) as exc:
            out.append(f"game: {exc}")
    else:
        out.append("game: a built-in name or an inline game object is required")

    players = _member(data, "players", dict, "must map player ids to belief entries", out)
    specs = {pid: _parse_player(e, f"players.{pid}", out) for pid, e in players.items()}

    for where, pid in (("player", data.get("player")), ("--player", flags.player)):
        if pid is not None and str(pid) not in players:
            out.append(f"{where}: {pid!r} has no entry under players")
    player = data.get("player") if flags.player is None else flags.player
    if player is None:
        out.append("player: required, in the scenario or as --player")
    player = str(player)
    spec = specs.get(player)
    if flags.eps is not None and spec is not None and spec.center is None:
        out.append(f"--eps: player {player}'s beliefs are credal, not eps_contamination")

    bindings = _member(data, "bindings", dict, "must map parameter names to exact rationals", out)
    bindings = {name: read_rational(v, f"bindings.{name}", out) for name, v in bindings.items()}

    analysis = _member(data, "analysis", list, "must be a list", out)
    # a caller's own list may name render, which writes where its flags say
    runnable = tuple(name for name, entry in COMMANDS.items() if entry.compute)
    for where, names, known in (
        ("analysis", analysis, ANALYSES), ("RunFlags.analyses", flags.analyses or (), runnable)
    ):
        out.extend(
            f"{where}[{i}]: unknown analysis {a!r}" for i, a in enumerate(names) if a not in known
        )
    default_analyses = tuple(analysis) or ("validate", "maxmin", "check-dc")

    search = _member(data, "payoff_search", dict, "must be an object with grid and slots", out)
    grid = _member(search, "payoff_search.grid", list, "must be a list of exact rationals", out)
    grid = tuple(read_rational(g, f"payoff_search.grid[{i}]", out) for i, g in enumerate(grid))
    slots = search.get("slots", [])
    if not isinstance(slots, list) or not all(isinstance(s, str) for s in slots):
        out.append("payoff_search.slots: must be a list of parameter names")
        slots = []
    if tree is not None:
        out.extend(
            f"players.{pid}: not a player of the game" for pid in players if pid not in tree.players
        )
        named = [(f"bindings.{name}", name) for name in bindings]
        named += [(f"payoff_search.slots[{i}]", s) for i, s in enumerate(slots)]
        named += [(f"--bind {name}", name) for name in flags.bindings or ()]
        named += [(f"--slots {s}", s) for s in flags.slots or ()]
        out.extend(
            f"{path}: not a declared parameter of the game"
            for path, name in named
            if name not in tree.parameters
        )
        repeats = [f"payoff_search.slots[{i}]" for i, s in enumerate(slots) if s in slots[:i]]
        flag_slots = flags.slots or ()
        repeats += [f"--slots {s}" for i, s in enumerate(flag_slots) if s in flag_slots[:i]]
        out.extend(f"{path}: repeats an earlier slot" for path in repeats)

    if out:
        raise ScenarioSchemaError(out)
    if flags.eps is not None:
        spec = spec.replace(eps=flags.eps)
    if flags.interval is not None:
        spec = spec.replace(n_interval=flags.interval)
    return Scenario(
        tree,
        player,
        {**specs, player: spec},
        {**bindings, **(flags.bindings or {})},
        default_analyses if flags.analyses is None else flags.analyses,
        grid if flags.grid is None else flags.grid,
        tuple(slots) if flags.slots is None else flags.slots,
    )


def load_scenario(name_or_path: str) -> dict:
    if name_or_path in BUILTIN_SCENARIOS:
        return json.loads(json.dumps(BUILTIN_SCENARIOS[name_or_path]))
    with open(name_or_path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def scenario_hash(data: dict) -> str:
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]




# -- running analyses --------------------------------------------------------


class Report(Record):
    """What a run prints: one JSON object per analysis in ``results``."""

    __slots__ = ("scenario_hash", "version", "scenario", "player", "results")

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class _Prepared(Record):
    """What every analysis of a run shares: ``induced`` is the base beliefs
    pushed through the n_interval, None without one; ``problem`` is built on
    the induced beliefs if any and hulled by --rectangularize; ``cells`` are
    the update cells, --event or else the acting cells; ``layers`` and
    ``svg_out`` are what render draws and where it writes."""

    __slots__ = ("base_beliefs", "induced", "problem", "cells", "layers", "svg_out")


def _prepare(scenario: Scenario, flags: RunFlags) -> _Prepared:
    player = scenario.player
    spec = scenario.players[player]
    base = spec.beliefs()
    induced = induce_downstream(base, spec.n_interval) if spec.n_interval else None
    problem = build_player_problem(scenario.game, player, induced or base, scenario.bindings)
    if flags.rectangularize:
        # the hull lives on the same states and gets its own posteriors
        try:
            hull = rectangular_hull(problem.exante.beliefs, problem.filtration)
        except ZeroProbabilityReachError as exc:
            raise AnalysisError(f"--rectangularize: {exc}") from exc
        problem = problem.replace(posterior=Posteriors(hull))
    event, states = flags.event or (), problem.space.labels
    if len(set(event)) != len(event) or not set(event) <= set(states):
        raise ScenarioSchemaError(
            [f"--event: {','.join(event)!r} is not a set of player {player}'s states "
             f"{','.join(states)}"]
        )
    cells = [event] if event else [s.cell for s in problem.conditionals]
    return _Prepared(base, induced, problem, cells, flags.layers, flags.svg_out)


def run(scenario: str | dict, flags: RunFlags = RunFlags()) -> Report:
    """Execute the scenario's analyses (or the flags' override) in order."""
    data = load_scenario(scenario) if isinstance(scenario, str) else scenario
    parsed = validate_scenario(data, flags)
    prep = _prepare(parsed, flags)
    results = []
    for analysis in parsed.analyses:
        try:
            results.append({"analysis": analysis, **COMMANDS[analysis].compute(prep, parsed)})
        except (ZeroProbabilityReachError, StateSpaceError, UnboundParameterError) as exc:
            raise AnalysisError(f"{analysis}: {exc}") from exc
    name = scenario if isinstance(scenario, str) else "(inline)"
    return Report(scenario_hash(data), __version__, name, parsed.player, results)


# -- the analyses --------------------------------------------------------------
# Each analysis is a compute function, (prepared, scenario) -> its JSON result
# without the "analysis" key, and a text function, result -> its report lines
# without the "[name] " prefix; COMMANDS pairs them under the analysis's name.


def _cell(cell: list[str]) -> str:
    return "{" + ",".join(cell) + "}"


def _points(vertices) -> str:
    return "; ".join("(" + ", ".join(v) + ")" for v in vertices)


def _assignment(values: dict) -> str:
    return ", ".join(f"{k}={v}" for k, v in values.items())


def _validate(prep: _Prepared, scenario: Scenario) -> dict:
    pp = prep.problem
    return {
        "schema": "ok",
        # constant: build_player_problem has already rejected imperfect recall
        "perfect_recall": True,
        "players": list(scenario.game.players),
        "states": list(pp.space.labels),
        "filtration": [list(map(list, stage)) for stage in pp.filtration.stages],
    }


def _validate_text(result: dict) -> list[str]:
    return [
        f"schema ok; perfect recall: {result['perfect_recall']}; "
        f"states {', '.join(result['states'])}"
    ]


def _maxmin(prep: _Prepared, scenario: Scenario) -> dict:
    pp = prep.problem
    sol = maxmin_solve(pp.exante)
    return {
        "value": str(sol.value),
        "value_approx": approx_decimal(sol.value),
        "strategy": dict(zip(pp.strategy_labels, sol.strategy.to_json())),
        "optimal_face": [v.to_json() for v in sol.optimal_face.vertices],
        "binding_vertices": [v.to_json() for v in sol.binding_vertices],
    }


def _maxmin_text(result: dict) -> list[str]:
    return [
        f"value = {result['value']} (~{result['value_approx']}, approx); "
        f"strategy {_assignment(result['strategy'])}"
    ]


def _update(prep: _Prepared, scenario: Scenario) -> dict:
    cells = []
    for cell in prep.cells:
        entry = {"cell": list(cell)}
        try:
            post = prep.problem.posterior(cell)
        except ZeroProbabilityReachError as exc:
            entry.update(status="unreachable", zero_vertex=exc.vertex.to_json())
        else:
            vertices = [v.to_json() for v in post.vertices]
            entry.update(status="updated", states=list(post.space.labels), vertices=vertices)
        cells.append(entry)
    return {"cells": cells}


def _update_text(result: dict) -> list[str]:
    return [
        f"cell {_cell(cell['cell'])}: "
        + (_points(cell["vertices"]) if cell["status"] == "updated" else "unreachable")
        for cell in result["cells"]
    ]


def _rect_hull(prep: _Prepared, scenario: Scenario) -> dict:
    beliefs = prep.problem.exante.beliefs
    hull = rectangular_hull(beliefs, prep.problem.filtration)
    return {
        "states": list(hull.space.labels),
        "vertices": [v.to_json() for v in hull.vertices],
        "was_rectangular": hull == beliefs,
    }


def _rect_hull_text(result: dict) -> list[str]:
    return [f"vertices {_points(result['vertices'])}"]


def _check_rect(prep: _Prepared, scenario: Scenario) -> dict:
    check = is_rectangular(prep.problem.exante.beliefs, prep.problem.filtration)
    return {
        "rectangular": check.rectangular,
        "witness": None if check.witness is None else check.witness.to_json(),
    }


def _check_rect_text(result: dict) -> list[str]:
    if result["rectangular"]:
        return ["rectangular: yes"]
    return [f"rectangular: no; witness ({', '.join(result['witness'])})"]


def _check_dc(prep: _Prepared, scenario: Scenario) -> dict:
    pp = prep.problem
    report = check_dynamic_consistency(pp)
    result = report.to_json()
    result["exante"]["strategy"] = dict(
        zip(pp.strategy_labels, report.exante_solution.strategy.to_json())
    )
    judged = [c for c in report.cells if c.conditional_face is not None]
    if judged:
        result["conditional_strategy"] = judged[0].conditional_face.vertices[0].to_json()
    return result


def _check_dc_text(result: dict) -> list[str]:
    overall = "CONSISTENT" if result["overall"] else "INCONSISTENT"
    lines = [f"overall {overall}; ex-ante strategy {_assignment(result['exante']['strategy'])}"]
    for cell in result["cells"]:
        tag = cell["status"]
        extra = ""
        if tag == "inconsistent":
            extra = (
                f"; conditional value {cell['conditional_value']}"
                f"; ex-ante optimizers reach {cell['restricted_value']}"
                f"; gap {cell['value_gap']}"
            )
        elif tag == "consistent" and "common_face" in cell:
            extra = f"; common optimum {_points(cell['common_face']['vertices'])}"
        lines.append(f"  cell {_cell(cell['cell'])}: {tag}{extra}")
    return lines


def _induce(prep: _Prepared, scenario: Scenario) -> dict:
    if prep.induced is None:
        raise AnalysisError("induce needs an n_interval (scenario or --interval)")
    return {
        "interval": [str(x) for x in scenario.players[scenario.player].n_interval],
        "states": list(prep.induced.space.labels),
        "vertices": [v.to_json() for v in prep.induced.vertices],
    }


def _induce_text(result: dict) -> list[str]:
    low, high = result["interval"]
    return [
        f"n in [{low}, {high}] over {', '.join(result['states'])}: "
        f"{_points(result['vertices'])}"
    ]


def _find_payoffs(prep: _Prepared, scenario: Scenario) -> dict:
    if not scenario.grid or not scenario.slots:
        raise AnalysisError("find-payoffs needs --grid and --slots")
    found = find_dc_violation_payoffs(prep.problem, scenario.grid, scenario.slots)
    if found is None:
        return {"found": False}
    return {
        "found": True,
        "payoffs": {k: str(v) for k, v in found.payoffs.items()},
        "report": found.report.to_json(),
    }


def _find_payoffs_text(result: dict) -> list[str]:
    if result["found"]:
        return [f"inconsistent at {_assignment(result['payoffs'])}"]
    return ["no grid assignment breaks consistency"]


def _render(prep: _Prepared, scenario: Scenario) -> dict:
    panels: list[TrianglePanel] = []
    layers: list[TriangleLayer] = []
    pp = prep.problem
    for kind in prep.layers:
        if kind == "beliefs":
            layers.append(TriangleLayer(prep.base_beliefs, label="P"))
        elif kind == "hull":
            hull = rectangular_hull(pp.exante.beliefs, pp.filtration)
            layers.insert(0, TriangleLayer(hull, label="hull", fill="#dcdcdc"))
        elif kind == "update":
            for slot in pp.conditionals:
                try:
                    post = pp.posterior(slot.cell)
                except ZeroProbabilityReachError:
                    continue  # an unreachable cell has no posterior to draw
                # pad each posterior vertex with zeros off the cell
                embed = [[int(s == c) for c in post.space.labels] for s in pp.space.labels]
                layers.append(
                    TriangleLayer(
                        CredalSet(pp.space, affine_image(post.set, embed)),
                        label="conditional",
                        stroke="#000000",
                    )
                )
        elif kind == "induced":
            if prep.induced is None:
                raise AnalysisError("the induced layer needs an n_interval")
            panels.append(
                TrianglePanel((TriangleLayer(prep.induced, label="induced"),), "induced")
            )
        else:
            raise AnalysisError(f"unknown render layer {kind!r}")
    if layers:
        panels.insert(0, TrianglePanel(tuple(layers), scenario.player))
    doc = render_triangle(panels, prep.svg_out).encode("utf-8")
    return {"path": prep.svg_out, "bytes": len(doc), "sha256": hashlib.sha256(doc).hexdigest()[:16]}


def _render_text(result: dict) -> list[str]:
    return [f"wrote {result['path']} ({result['bytes']} bytes, sha256 {result['sha256']})"]


# -- the contamination sweep --------------------------------------------------


class SweepResult(Record):
    __slots__ = ("entries", "threshold", "first_inconsistent")

    def to_json(self) -> dict:
        return {
            "entries": [[str(e), v] for e, v in self.entries],
            "threshold": None if self.threshold is None else str(self.threshold),
            "first_inconsistent": (
                None if self.first_inconsistent is None else str(self.first_inconsistent)
            ),
        }


def sweep_eps(
    eps_list=None, bisect: tuple[Fraction, Fraction] | None = None
) -> SweepResult:
    """Verdict per contamination weight; optionally bisect for the threshold.

    Bisection runs on the integer grid over the bounds' common denominator,
    so when the true boundary lies on that grid it is returned exactly.  A
    threshold is reported only when, in eps order, every consistent entry
    comes before every inconsistent one, whether the entries come from the
    list, the bisection or both.
    """
    fig1 = validate_scenario(BUILTIN_SCENARIOS["fig1"])
    spec = fig1.players[fig1.player]
    problem = _prepare(fig1, RunFlags()).problem

    def verdict(eps: Fraction) -> str:
        at_eps = problem.replace(posterior=Posteriors(spec.replace(eps=eps).beliefs()))
        return "consistent" if check_dynamic_consistency(at_eps).overall else "inconsistent"

    entries = [(e, verdict(e)) for e in sorted(rat(e) for e in eps_list or ())]
    if bisect is not None:
        lo, hi = (rat(x) for x in bisect)
        if not 0 < lo < hi < 1:
            raise AnalysisError("bisection bounds need 0 < low < high < 1")
        p0, p1, den = cleared([lo, hi, 1])
        v_lo, v_hi = verdict(lo), verdict(hi)
        entries.extend([(lo, v_lo), (hi, v_hi)])
        if v_lo != "consistent" or v_hi != "inconsistent":
            raise AnalysisError(
                f"bisection needs a consistent low bound and an inconsistent high "
                f"bound; got {v_lo} at {lo} and {v_hi} at {hi}"
            )
        while p1 - p0 > 1:
            mid = (p0 + p1) // 2
            eps = Fraction(mid, den)
            v_mid = verdict(eps)
            entries.append((eps, v_mid))
            if v_mid == "consistent":
                p0 = mid
            else:
                p1 = mid
    entries.sort(key=lambda t: t[0])
    # the verdicts separate when the consistent ones all come first
    verdicts = [v for _, v in entries]
    split = verdicts.count("consistent")
    threshold = first_bad = None
    if 0 < split < len(verdicts) and "inconsistent" not in verdicts[:split]:
        threshold, first_bad = entries[split - 1][0], entries[split][0]
    return SweepResult(tuple(entries), threshold, first_bad)


# -- argument parsing ----------------------------------------------------------


# the scenario options every subcommand but sweep takes
SCENARIO_OPTIONS = {
    "scenario": {"help": "built-in name (fig1, fig4) or JSON path"},
    "--player": {"help": "analyze this player instead of the default"},
    "--eps": {"help": "contamination weight, as an exact rational"},
    "--bind": {
        "action": "append", "default": [], "metavar": "NAME=p/q",
        "help": "bind a payoff parameter (repeatable)",
    },
    "--json": {"action": "store_true", "help": "print the JSON report"},
    "--out": {"help": "write the JSON report (or SVG for render) here"},
}


class Command(Record, defaults={"compute": None, "text": None}):
    """A subcommand: its help, whether it takes SCENARIO_OPTIONS, its own
    flags and, for an analysis, its compute and text functions."""

    __slots__ = ("help", "scenario", "flags", "compute", "text")


COMMANDS: dict[str, Command] = {
    "validate": Command(
        "check the scenario schema and perfect recall", True, {}, _validate, _validate_text
    ),
    "analyze": Command("run the scenario's own analysis list", True, {}),
    "maxmin": Command(
        "solve the strategic-form worst-case problem", True, {}, _maxmin, _maxmin_text
    ),
    "rect-hull": Command(
        "smallest rectangular belief set for the filtration", True, {},
        _rect_hull, _rect_hull_text,
    ),
    "check-rect": Command(
        "test the beliefs for rectangularity", True, {}, _check_rect, _check_rect_text
    ),
    "update": Command("full Bayesian updating per reached cell", True, {
        "--event": {"help": "comma-separated states to condition on"},
    }, _update, _update_text),
    "check-dc": Command("decide dynamic consistency", True, {
        "--rectangularize": {
            "action": "store_true", "help": "replace beliefs by their rectangular hull first"
        },
    }, _check_dc, _check_dc_text),
    "induce": Command("push beliefs through the second mover", True, {
        "--interval": {"metavar": "a:b", "help": "second-mover chance interval"},
    }, _induce, _induce_text),
    "find-payoffs": Command("search for inconsistency payoffs", True, {
        "--grid": {"help": "comma-separated payoff grid values"},
        "--slots": {"help": "comma-separated free payoff parameters"},
    }, _find_payoffs, _find_payoffs_text),
    "sweep": Command("verdict per contamination weight", False, {
        "--eps-list": {"help": "comma-separated exact rationals"},
        "--bisect": {"metavar": "lo:hi", "help": "bisect for the threshold"},
        "--json": {"action": "store_true"},
        "--out": {},
    }),
    "render": Command("draw belief sets as an SVG triangle", True, {
        "--layers": {"help": "comma list of " + ",".join(LAYERS)},
        "--interval": {"metavar": "a:b"},
    }, _render, _render_text),
}
# what a scenario file may list: render writes to a path only a flag names
ANALYSES = tuple(name for name, entry in COMMANDS.items() if entry.compute and name != "render")


class _Parser(argparse.ArgumentParser):
    # set on a top-level parser built for one command: its usage would list
    # that command alone, so its errors print the full tree's usage
    one_command = False

    def error(self, message):  # usage problems are schema errors: exit 1
        if self.one_command:
            build_parser().error(message)
        self.print_usage(sys.stderr)
        raise ScenarioSchemaError([f"arguments: {message}"])


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser for every subcommand, or for ``command`` alone."""
    parser = _Parser(prog="credalgames", description=__doc__)
    parser.one_command = command is not None
    subs = parser.add_subparsers(dest="command", required=True)
    for name, entry in COMMANDS.items():
        if command in (None, name):
            sub = subs.add_parser(name, help=entry.help)
            flags = {**SCENARIO_OPTIONS, **entry.flags} if entry.scenario else entry.flags
            for flag, options in flags.items():
                sub.add_argument(flag, **options)
    return parser


def _rational_pair(text: str, where: str, out: list[str]) -> tuple:
    """Read a "low:high" flag value as two exact rationals, or one violation."""
    pair = tuple(read_rational(half, where, []) for half in text.split(":"))
    if len(pair) == 2 and None not in pair:
        return pair
    out.append(f"{where}: {text!r} is not low:high, two exact rationals like 1/102")
    return (None, None)


def _flags_from_args(args: argparse.Namespace) -> RunFlags:
    """The flags the command was given; an empty value is read, and rejected,
    like any other.  Every command but analyze runs the analysis of its name."""
    out: list[str] = []
    names = ("player", "eps", "rectangularize", "event", "interval", "grid", "slots", "layers")
    given = {name: v for name in names if (v := getattr(args, name, None)) is not None}
    if args.command != "analyze":
        given["analyses"] = (args.command,)
    if args.command == "render":
        given["svg_out"] = args.out or "triangle.svg"
    if "eps" in given:
        given["eps"] = _weight(given["eps"], "--eps", out)
    bindings = {}
    for item in getattr(args, "bind", []):
        name, sep, value = item.partition("=")
        if sep:
            bindings[name] = read_rational(value, f"--bind {name}", out)
        else:
            out.append(f"--bind: expected NAME=p/q, got {item!r}")
    if bindings:
        given["bindings"] = bindings
    for name in ("event", "slots", "layers"):
        if name in given:
            given[name] = tuple(given[name].split(","))
    if "interval" in given:
        pair = _rational_pair(given["interval"], "--interval", out)
        given["interval"] = _chance_interval(pair, "--interval", out)
    if "grid" in given:
        given["grid"] = tuple(read_rational(g, "--grid", out) for g in given["grid"].split(","))
    layers = given.get("layers", ())
    out.extend(f"--layers: unknown layer {k!r}" for k in layers if k not in LAYERS)
    if len(set(layers)) < len(layers):
        out.append("--layers: repeats an earlier layer")
    if out:
        raise ScenarioSchemaError(out)
    return RunFlags(**given)


def dumps(result: Report | SweepResult) -> str:
    """The JSON text ``--json`` prints and ``--out`` writes."""
    return json.dumps(result.to_json(), sort_keys=True, indent=2)


def format_report(report: Report) -> str:
    lines = [
        f"scenario {report.scenario}  player {report.player}  "
        f"hash {report.scenario_hash}  credalgames {report.version}"
    ]
    for result in report.results:
        name = result["analysis"]
        lines.extend(f"[{name}] {line}" for line in COMMANDS[name].text(result))
    return "\n".join(lines)


def format_sweep(result: SweepResult) -> str:
    lines = [f"eps = {eps}: {verdict}" for eps, verdict in result.entries]
    if result.threshold is not None:
        lines.append(
            f"threshold: consistent through {result.threshold}, "
            f"inconsistent from {result.first_inconsistent}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        if args.command == "sweep":
            bad: list[str] = []
            eps_list = bisect = None
            if args.eps_list is not None:
                eps_list = [_weight(e, "--eps-list", bad) for e in args.eps_list.split(",")]
            if args.bisect is not None:
                bisect = _rational_pair(args.bisect, "--bisect", bad)
                if None not in bisect and not 0 < bisect[0] < bisect[1] < 1:
                    bad.append("--bisect: need 0 < low < high < 1")
            if eps_list is None and bisect is None:
                bad.append("sweep: provide --eps-list or --bisect")
            if bad:
                raise ScenarioSchemaError(bad)
            result, describe = sweep_eps(eps_list, bisect), format_sweep
        else:
            result, describe = run(args.scenario, _flags_from_args(args)), format_report
        json_out = None if args.command == "render" else args.out
        if args.json or json_out:
            payload = dumps(result)
        print(payload if args.json else describe(result))
        if json_out:
            with open(json_out, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
        return 0
    except ScenarioSchemaError as exc:
        for violation in exc.violations:
            print(f"schema error: {violation}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, UnboundParameterError) as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
