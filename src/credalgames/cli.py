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
from math import lcm

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
    PlayerProblem,
    Posteriors,
    StateSpaceError,
    build_player_problem,
    check_dynamic_consistency,
    find_dc_violation_payoffs,
    induce_downstream,
)
from .exactmath import Polytope, Record, Vector, approx_decimal, rat, read_rational
from .gametree import (
    BUILTIN_GAMES,
    GameJsonError,
    GameTree,
    MalformedGameError,
    UnboundParameterError,
    builtin_game,
    game_from_json,
    validate_perfect_recall,
)
from .maxmin import MaxminSolution, maxmin_solve
from .render import TriangleLayer, TrianglePanel, render_triangle

ANALYSES = (
    "validate",
    "maxmin",
    "update",
    "rect-hull",
    "check-rect",
    "check-dc",
    "induce",
    "find-payoffs",
)
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


class RunFlags(Record):
    """Command-line options; validate_scenario applies those that override the file."""

    __slots__ = ("player", "eps", "rectangularize", "analyses", "event", "interval", "grid",
                 "slots", "bindings", "layers", "svg_out")

    def __init__(
        self, player: str | None = None, eps: Fraction | None = None, rectangularize: bool = False,
        analyses: tuple[str, ...] | None = None, event: tuple[str, ...] | None = None,
        interval: tuple[Fraction, Fraction] | None = None, grid: tuple[Fraction, ...] | None = None,
        slots: tuple[str, ...] | None = None, bindings: dict | None = None,
        layers: tuple[str, ...] = ("beliefs", "update"), svg_out: str | None = None,
    ):
        object.__setattr__(self, "player", player)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "rectangularize", rectangularize)
        object.__setattr__(self, "analyses", analyses)
        object.__setattr__(self, "event", event)
        object.__setattr__(self, "interval", interval)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "bindings", bindings)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "svg_out", svg_out)


class PlayerSpec(Record):
    """One player's entry: eps_contamination beliefs (``center`` and ``eps``) or
    credal ones (``vertices``), and n_interval."""

    __slots__ = ("space", "center", "eps", "vertices", "n_interval")

    def __init__(
        self, space: StateSpace, center: Vector | None, eps: Fraction | None,
        vertices: tuple[Vector, ...], n_interval: tuple[Fraction, Fraction] | None,
    ):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "n_interval", n_interval)

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

    def __init__(
        self, game: GameTree, player: str, players: dict[str, PlayerSpec],
        bindings: dict[str, Fraction], analyses: tuple[str, ...], grid: tuple[Fraction, ...],
        slots: tuple[str, ...],
    ):
        object.__setattr__(self, "game", game)
        object.__setattr__(self, "player", player)
        object.__setattr__(self, "players", players)
        object.__setattr__(self, "bindings", bindings)
        object.__setattr__(self, "analyses", analyses)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "slots", slots)


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

    players = data.get("players", {})
    if not isinstance(players, dict):
        out.append("players: must map player ids to belief entries")
        players = {}
    specs = {pid: _parse_player(e, f"players.{pid}", out) for pid, e in players.items()}

    for where, pid in (("player", data.get("player")), ("--player", flags.player)):
        if pid is not None and str(pid) not in players:
            out.append(f"{where}: {pid!r} has no entry under players")
    player = flags.player or data.get("player")
    if player is None:
        out.append("player: required, in the scenario or as --player")
    player = str(player)
    spec = specs.get(player)
    if flags.eps is not None and spec is not None and spec.center is None:
        out.append(f"--eps: player {player}'s beliefs are credal, not eps_contamination")

    bindings = data.get("bindings") or {}
    if not isinstance(bindings, dict):
        out.append("bindings: must map parameter names to exact rationals")
        bindings = {}
    bindings = {name: read_rational(v, f"bindings.{name}", out) for name, v in bindings.items()}

    analysis = data.get("analysis", [])
    if not isinstance(analysis, list):
        out.append("analysis: must be a list")
        analysis = []
    for i, a in enumerate(analysis):
        if a not in ANALYSES:
            out.append(f"analysis[{i}]: unknown analysis {a!r}")
    default_analyses = tuple(analysis) or ("validate", "maxmin", "check-dc")

    search = data.get("payoff_search", {})
    if not isinstance(search, dict):
        out.append("payoff_search: must be an object with grid and slots")
        search = {}
    grid = search.get("grid", [])
    if not isinstance(grid, list):
        out.append("payoff_search.grid: must be a list of exact rationals")
        grid = []
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
        flags.grid or grid,
        flags.slots or tuple(slots),
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


class Report:
    def __init__(self, scenario_hash: str, version: str, scenario: str, player: str):
        self.scenario_hash = scenario_hash
        self.version = version
        self.scenario = scenario
        self.player = player
        self.results: list[dict] = []

    def to_json(self) -> dict:
        return {
            "scenario_hash": self.scenario_hash,
            "version": self.version,
            "scenario": self.scenario,
            "player": self.player,
            "results": self.results,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2)


class _Prepared:
    def __init__(
        self,
        base_beliefs: CredalSet,
        induced: CredalSet | None,  # base beliefs pushed through the n_interval
        problem: PlayerProblem,  # on the induced beliefs if any, hulled by --rectangularize
        cells: list[tuple[str, ...]],  # the update cells: --event, else the acting cells
    ):
        self.base_beliefs = base_beliefs
        self.induced = induced
        self.problem = problem
        self.cells = cells


def _prepare(scenario: Scenario, flags: RunFlags) -> _Prepared:
    player = scenario.player
    spec = scenario.players[player]
    base = spec.beliefs()
    induced = induce_downstream(base, spec.n_interval) if spec.n_interval else None
    problem = build_player_problem(scenario.game, player, induced or base, scenario.bindings)
    if flags.rectangularize:
        # the hull lives on the same states and gets its own posteriors
        hull = rectangular_hull(problem.exante.beliefs, problem.filtration)
        problem = problem.replace(posterior=Posteriors(hull))
    event, states = flags.event or (), problem.space.labels
    if len(set(event)) != len(event) or not set(event) <= set(states):
        raise ScenarioSchemaError(
            [f"--event: {','.join(event)} is not a set of player {player}'s states "
             f"{','.join(states)}"]
        )
    cells = [event] if event else [s.cell for s in problem.conditionals]
    return _Prepared(base, induced, problem, cells)


def _solution_json(sol: MaxminSolution, labels: tuple[str, ...]) -> dict:
    return {
        "value": str(sol.value),
        "value_approx": approx_decimal(sol.value),
        "strategy": dict(zip(labels, sol.strategy.to_json())),
        "optimal_face": [v.to_json() for v in sol.optimal_face.vertices],
        "binding_vertices": [v.to_json() for v in sol.binding_vertices],
    }


def _run_analysis(name: str, prep: _Prepared, scenario: Scenario) -> dict:
    pp = prep.problem
    if name == "validate":
        return {
            "analysis": name,
            "schema": "ok",
            # constant: build_player_problem has already rejected imperfect recall
            "perfect_recall": True,
            "players": list(scenario.game.players),
            "states": list(pp.space.labels),
            "filtration": [list(map(list, stage)) for stage in pp.filtration.stages],
        }
    if name == "maxmin":
        sol = maxmin_solve(pp.exante)
        return {"analysis": name, **_solution_json(sol, pp.strategy_labels)}
    if name == "update":
        out = []
        for cell in prep.cells:
            try:
                post = pp.posterior(cell)
                out.append(
                    {
                        "cell": list(cell),
                        "status": "updated",
                        "states": list(post.space.labels),
                        "vertices": [v.to_json() for v in post.vertices],
                    }
                )
            except ZeroProbabilityReachError as exc:
                out.append(
                    {
                        "cell": list(cell),
                        "status": "unreachable",
                        "zero_vertex": exc.vertex.to_json(),
                    }
                )
        return {"analysis": name, "cells": out}
    if name == "rect-hull":
        hull = rectangular_hull(pp.exante.beliefs, pp.filtration)
        return {
            "analysis": name,
            "states": list(hull.space.labels),
            "vertices": [v.to_json() for v in hull.vertices],
            "was_rectangular": hull.equals(pp.exante.beliefs),
        }
    if name == "check-rect":
        check = is_rectangular(pp.exante.beliefs, pp.filtration)
        return {
            "analysis": name,
            "rectangular": check.rectangular,
            "witness": None if check.witness is None else check.witness.to_json(),
        }
    if name == "check-dc":
        report = check_dynamic_consistency(pp)
        result = {"analysis": name, **report.to_json()}
        result["exante"]["strategy"] = dict(
            zip(pp.strategy_labels, report.exante_solution.strategy.to_json())
        )
        judged = [c for c in report.cells if c.conditional_face is not None]
        if judged:
            face = judged[0].conditional_face
            result["conditional_strategy"] = face.vertices[0].to_json()
        return result
    if name == "induce":
        if prep.induced is None:
            raise AnalysisError("induce needs an n_interval (scenario or --interval)")
        return {
            "analysis": name,
            "interval": [str(x) for x in scenario.players[scenario.player].n_interval],
            "states": list(prep.induced.space.labels),
            "vertices": [v.to_json() for v in prep.induced.vertices],
        }
    if name == "find-payoffs":
        if not scenario.grid or not scenario.slots:
            raise AnalysisError("find-payoffs needs --grid and --slots")
        found = find_dc_violation_payoffs(pp, scenario.grid, scenario.slots)
        if found is None:
            return {"analysis": name, "found": False}
        return {
            "analysis": name,
            "found": True,
            "payoffs": {k: str(v) for k, v in found.payoffs.items()},
            "report": found.report.to_json(),
        }
    raise AnalysisError(f"unknown analysis {name!r}")


def run(scenario: str | dict, flags: RunFlags = RunFlags()) -> Report:
    """Execute the scenario's analyses (or the flags' override) in order."""
    data = load_scenario(scenario) if isinstance(scenario, str) else scenario
    parsed = validate_scenario(data, flags)
    prep = _prepare(parsed, flags)
    name = scenario if isinstance(scenario, str) else "(inline)"
    report = Report(scenario_hash(data), __version__, name, parsed.player)
    for analysis in parsed.analyses:
        try:
            report.results.append(_run_analysis(analysis, prep, parsed))
        except (
            ZeroProbabilityReachError,
            StateSpaceError,
            UnboundParameterError,
        ) as exc:
            raise AnalysisError(f"{analysis}: {exc}") from exc
    if flags.svg_out is not None:
        report.results.append(_render(prep, parsed.player, flags))
    return report


def _render(prep: _Prepared, player: str, flags: RunFlags) -> dict:
    panels: list[TrianglePanel] = []
    layers: list[TriangleLayer] = []
    pp = prep.problem
    for kind in flags.layers:
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
                # pad each posterior vertex with zeros off the cell: the
                # padded vertices stay extreme and sorted
                at = {s: i for i, s in enumerate(post.space.labels)}
                padded = [
                    Vector(v[at[s]] if s in at else 0 for s in pp.space.labels)
                    for v in post.vertices
                ]
                layers.append(
                    TriangleLayer(
                        CredalSet(pp.space, Polytope.from_vertices(padded)),
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
        panels.insert(0, TrianglePanel(tuple(layers), player))
    doc = render_triangle(panels, flags.svg_out)
    return {
        "analysis": "render",
        "path": flags.svg_out,
        "bytes": len(doc.encode("utf-8")),
        "sha256": hashlib.sha256(doc.encode("utf-8")).hexdigest()[:16],
    }


# -- the contamination sweep --------------------------------------------------


class SweepResult(Record):
    __slots__ = ("entries", "threshold", "first_inconsistent")

    def __init__(
        self, entries: tuple[tuple[Fraction, str], ...], threshold: Fraction | None,
        first_inconsistent: Fraction | None,
    ):
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "threshold", threshold)
        object.__setattr__(self, "first_inconsistent", first_inconsistent)

    def to_json(self) -> dict:
        return {
            "entries": [[str(e), v] for e, v in self.entries],
            "threshold": None if self.threshold is None else str(self.threshold),
            "first_inconsistent": (
                None if self.first_inconsistent is None else str(self.first_inconsistent)
            ),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2)


def sweep_eps(
    eps_list=None, bisect: tuple[Fraction, Fraction] | None = None
) -> SweepResult:
    """Verdict per contamination weight; optionally locate the threshold.

    Bisection runs on the integer grid over the bounds' common denominator,
    so when the true boundary lies on that grid it is returned exactly.
    """
    fig1 = validate_scenario(BUILTIN_SCENARIOS["fig1"])
    spec = fig1.players[fig1.player]
    problem = build_player_problem(fig1.game, fig1.player, spec.beliefs(), fig1.bindings)

    def verdict(eps: Fraction) -> str:
        at_eps = problem.replace(posterior=Posteriors(spec.replace(eps=eps).beliefs()))
        return "consistent" if check_dynamic_consistency(at_eps).overall else "inconsistent"

    entries = [(e, verdict(e)) for e in sorted(rat(e) for e in eps_list or ())]
    threshold = None
    first_bad = None
    if bisect is not None:
        lo, hi = (rat(x) for x in bisect)
        if not 0 < lo < hi < 1:
            raise AnalysisError("bisection bounds need 0 < low < high < 1")
        den = lcm(lo.denominator, hi.denominator)
        p0, p1 = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
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
        threshold = Fraction(p0, den)
        first_bad = Fraction(p1, den)
    else:
        kinds = {v for _, v in entries}
        if kinds == {"consistent", "inconsistent"}:
            threshold = max(e for e, v in entries if v == "consistent")
            first_bad = min(e for e, v in entries if v == "inconsistent")
    entries.sort(key=lambda t: t[0])
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

# each subcommand: its help, whether it takes SCENARIO_OPTIONS, its own flags
COMMANDS: dict[str, tuple[str, bool, dict]] = {
    "validate": ("check the scenario schema and perfect recall", True, {}),
    "analyze": ("run the scenario's own analysis list", True, {}),
    "maxmin": ("solve the strategic-form worst-case problem", True, {}),
    "rect-hull": ("smallest rectangular belief set for the filtration", True, {}),
    "check-rect": ("test the beliefs for rectangularity", True, {}),
    "update": ("full Bayesian updating per reached cell", True, {
        "--event": {"help": "comma-separated states to condition on"},
    }),
    "check-dc": ("decide dynamic consistency", True, {
        "--rectangularize": {
            "action": "store_true", "help": "replace beliefs by their rectangular hull first"
        },
    }),
    "induce": ("push beliefs through the second mover", True, {
        "--interval": {"metavar": "a:b", "help": "second-mover chance interval"},
    }),
    "find-payoffs": ("search for inconsistency payoffs", True, {
        "--grid": {"help": "comma-separated payoff grid values"},
        "--slots": {"help": "comma-separated free payoff parameters"},
    }),
    "sweep": ("verdict per contamination weight", False, {
        "--eps-list": {"help": "comma-separated exact rationals"},
        "--bisect": {"metavar": "lo:hi", "help": "bisect for the threshold"},
        "--json": {"action": "store_true"},
        "--out": {},
    }),
    "render": ("draw belief sets as an SVG triangle", True, {
        "--layers": {"default": "beliefs,update", "help": "comma list of " + ",".join(LAYERS)},
        "--interval": {"metavar": "a:b"},
    }),
}


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
    for name, (help_text, scenario, own) in COMMANDS.items():
        if command in (None, name):
            sub = subs.add_parser(name, help=help_text)
            for flag, options in ({**SCENARIO_OPTIONS, **own} if scenario else own).items():
                sub.add_argument(flag, **options)
    return parser


def _rational_pair(text: str, where: str, out: list[str]) -> tuple:
    """Read a "low:high" flag value as two exact rationals."""
    lo, _, hi = text.partition(":")
    return (read_rational(lo, where, out), read_rational(hi, where, out))


def _flags_from_args(args: argparse.Namespace) -> RunFlags:
    out: list[str] = []
    flags = RunFlags()
    if getattr(args, "player", None):
        flags = flags.replace(player=args.player)
    if getattr(args, "eps", None):
        flags = flags.replace(eps=_weight(args.eps, "--eps", out))
    bindings = {}
    for item in getattr(args, "bind", []):
        name, sep, value = item.partition("=")
        if sep:
            bindings[name] = read_rational(value, f"--bind {name}", out)
        else:
            out.append(f"--bind: expected NAME=p/q, got {item!r}")
    if bindings:
        flags = flags.replace(bindings=bindings)
    if getattr(args, "event", None):
        flags = flags.replace(event=tuple(args.event.split(",")))
    if getattr(args, "interval", None):
        pair = _rational_pair(args.interval, "--interval", out)
        flags = flags.replace(interval=_chance_interval(pair, "--interval", out))
    if getattr(args, "grid", None):
        flags = flags.replace(grid=tuple(read_rational(g, "--grid", out) for g in args.grid.split(",")))
    if getattr(args, "slots", None):
        flags = flags.replace(slots=tuple(args.slots.split(",")))
    if getattr(args, "rectangularize", False):
        flags = flags.replace(rectangularize=True)
    if getattr(args, "layers", None):
        layers = tuple(args.layers.split(","))
        out.extend(f"--layers: unknown layer {k!r}" for k in layers if k not in LAYERS)
        if len(set(layers)) < len(layers):
            out.append("--layers: repeats an earlier layer")
        flags = flags.replace(layers=layers)
    if out:
        raise ScenarioSchemaError(out)
    return flags


def _points(vertices) -> str:
    return "; ".join("(" + ", ".join(v) + ")" for v in vertices)


def format_report(report: Report) -> str:
    lines = [
        f"scenario {report.scenario}  player {report.player}  "
        f"hash {report.scenario_hash}  credalgames {report.version}"
    ]
    for result in report.results:
        kind = result["analysis"]
        if kind == "validate":
            lines.append(
                f"[validate] schema ok; perfect recall: {result['perfect_recall']}; "
                f"states {', '.join(result['states'])}"
            )
        elif kind == "maxmin":
            strategy = ", ".join(f"{k}={v}" for k, v in result["strategy"].items())
            lines.append(
                f"[maxmin] value = {result['value']} "
                f"(~{result['value_approx']}, approx); strategy {strategy}"
            )
        elif kind == "update":
            for cell in result["cells"]:
                if cell["status"] == "updated":
                    lines.append(
                        f"[update] cell {{{','.join(cell['cell'])}}}: {_points(cell['vertices'])}"
                    )
                else:
                    lines.append(
                        f"[update] cell {{{','.join(cell['cell'])}}}: unreachable"
                    )
        elif kind == "rect-hull":
            lines.append(f"[rect-hull] vertices {_points(result['vertices'])}")
        elif kind == "check-rect":
            if result["rectangular"]:
                lines.append("[check-rect] rectangular: yes")
            else:
                witness = "(" + ", ".join(result["witness"]) + ")"
                lines.append(f"[check-rect] rectangular: no; witness {witness}")
        elif kind == "check-dc":
            overall = "CONSISTENT" if result["overall"] else "INCONSISTENT"
            strategy = ", ".join(
                f"{k}={v}" for k, v in result["exante"]["strategy"].items()
            )
            lines.append(f"[check-dc] overall {overall}; ex-ante strategy {strategy}")
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
                lines.append(
                    f"[check-dc]   cell {{{','.join(cell['cell'])}}}: {tag}{extra}"
                )
        elif kind == "induce":
            lines.append(
                f"[induce] n in [{result['interval'][0]}, {result['interval'][1]}] "
                f"over {', '.join(result['states'])}: {_points(result['vertices'])}"
            )
        elif kind == "find-payoffs":
            if result["found"]:
                pays = ", ".join(f"{k}={v}" for k, v in result["payoffs"].items())
                lines.append(f"[find-payoffs] inconsistent at {pays}")
            else:
                lines.append("[find-payoffs] no grid assignment breaks consistency")
        elif kind == "render":
            lines.append(
                f"[render] wrote {result['path']} ({result['bytes']} bytes, "
                f"sha256 {result['sha256']})"
            )
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
            eps_list = None
            if args.eps_list:
                eps_list = [_weight(e, "--eps-list", bad) for e in args.eps_list.split(",")]
            bisect = _rational_pair(args.bisect, "--bisect", bad) if args.bisect else None
            if bisect and None not in bisect and not 0 < bisect[0] < bisect[1] < 1:
                bad.append("--bisect: need 0 < low < high < 1")
            if not eps_list and not bisect:
                bad.append("sweep: provide --eps-list or --bisect")
            if bad:
                raise ScenarioSchemaError(bad)
            result, describe = sweep_eps(eps_list, bisect), format_sweep
        else:
            flags = _flags_from_args(args)
            if args.command == "render":
                out = args.out or "triangle.svg"
                flags = flags.replace(analyses=(), svg_out=out)
            elif args.command in ANALYSES:
                flags = flags.replace(analyses=(args.command,))
            result, describe = run(args.scenario, flags), format_report
        json_out = None if args.command == "render" else args.out
        if args.json or json_out:
            payload = result.dumps()
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
    except (
        AnalysisError,
        ZeroProbabilityReachError,
        StateSpaceError,
        UnboundParameterError,
        MalformedGameError,
        ValueError,
    ) as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
