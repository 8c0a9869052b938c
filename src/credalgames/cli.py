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
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import lcm

from . import __version__
from .beliefs import (
    CredalSet,
    StateSpace,
    ZeroProbabilityReachError,
    eps_contamination,
    full_bayes_update,
    is_rectangular,
    rectangular_hull,
)
from .dynamics import (
    PlayerProblem,
    StateSpaceError,
    build_player_problem,
    check_dynamic_consistency,
    find_dc_violation_payoffs,
    induce_downstream,
)
from .exactmath import Vector, approx_decimal, rat
from .gametree import (
    BUILTIN_GAMES,
    GameTree,
    MalformedGameError,
    UnboundParameterError,
    builtin_game,
    game_from_json,
    validate_perfect_recall,
)
from .maxmin import MaxminSolution, maxmin_solve
from .render import TriangleLayer, TrianglePanel, render_triangle

RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")

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


class ScenarioSchemaError(ValueError):
    """Scenario input rejected; carries one message per offending path."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class AnalysisError(ValueError):
    """An analysis could not be carried out on valid input."""


def parse_cli_rational(text: str, where: str) -> Fraction:
    if not RATIONAL_RE.match(text.strip()):
        raise ScenarioSchemaError(
            [f"{where}: {text!r} is not an exact rational like 1/102"]
        )
    return rat(text.strip())


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


def _check_rational(value, path: str, out: list[str]) -> Fraction | None:
    if isinstance(value, str) and RATIONAL_RE.match(value.strip()):
        return rat(value.strip())
    if isinstance(value, int):
        return Fraction(value)
    out.append(f"{path}: {value!r} is not an exact rational string")
    return None


def _check_beliefs(spec, path: str, out: list[str]) -> None:
    if not isinstance(spec, dict):
        out.append(f"{path}: beliefs must be an object")
        return
    kind = spec.get("type")
    if kind == "eps_contamination":
        center = spec.get("center")
        if not isinstance(center, list) or not center:
            out.append(f"{path}.center: a probability vector is required")
        else:
            entries = [_check_rational(c, f"{path}.center[{i}]", out) for i, c in enumerate(center)]
            if None not in entries:
                if any(e < 0 for e in entries) or sum(entries) != 1:
                    out.append(f"{path}.center: entries must be nonnegative and sum to 1")
        if "eps" not in spec:
            out.append(f"{path}.eps: required")
        else:
            eps = _check_rational(spec["eps"], f"{path}.eps", out)
            if eps is not None and not 0 <= eps <= 1:
                out.append(f"{path}.eps: {eps} outside [0, 1]")
    elif kind == "credal":
        states = spec.get("states")
        if not isinstance(states, list) or not states or len(set(states)) != len(states):
            out.append(f"{path}.states: state labels must be a nonempty unique list")
            return
        vertices = spec.get("vertices")
        if not isinstance(vertices, list) or not vertices:
            out.append(f"{path}.vertices: at least one vertex is required")
            return
        for i, vert in enumerate(vertices):
            if not isinstance(vert, list) or len(vert) != len(states):
                out.append(f"{path}.vertices[{i}]: expected {len(states)} entries")
                continue
            entries = [
                _check_rational(x, f"{path}.vertices[{i}][{j}]", out)
                for j, x in enumerate(vert)
            ]
            if None in entries:
                continue
            if any(e < 0 for e in entries):
                out.append(f"{path}.vertices[{i}]: negative probability")
            elif sum(entries) != 1:
                out.append(
                    f"{path}.vertices[{i}]: entries sum to {sum(entries)}, not 1"
                )
    else:
        out.append(f"{path}.type: expected 'eps_contamination' or 'credal'")


def validate_scenario(data) -> list[str]:
    """Every schema violation in the scenario, as 'path: problem' strings."""
    out: list[str] = []
    if not isinstance(data, dict):
        return ["scenario: must be a JSON object"]
    game = data.get("game")
    if isinstance(game, str):
        if game not in BUILTIN_GAMES:
            out.append(f"game: no built-in game named {game!r}")
    elif isinstance(game, dict):
        try:
            tree = game_from_json(game)
            check = validate_perfect_recall(tree)
            if not check.ok:
                out.append(
                    f"game: player {check.player!r} lacks perfect recall at {check.witness}"
                )
        except (MalformedGameError, UnboundParameterError, KeyError, TypeError) as exc:
            out.append(f"game: {exc}")
    else:
        out.append("game: a built-in name or an inline game object is required")

    players = data.get("players", {})
    if not isinstance(players, dict):
        out.append("players: must map player ids to belief entries")
        players = {}
    for pid, entry in players.items():
        path = f"players.{pid}"
        if not isinstance(entry, dict):
            out.append(f"{path}: must be an object")
            continue
        if "beliefs" in entry:
            _check_beliefs(entry["beliefs"], f"{path}.beliefs", out)
        else:
            out.append(f"{path}.beliefs: required")
        if "n_interval" in entry:
            iv = entry["n_interval"]
            if not isinstance(iv, list) or len(iv) != 2:
                out.append(f"{path}.n_interval: expected [low, high]")
            else:
                lo = _check_rational(iv[0], f"{path}.n_interval[0]", out)
                hi = _check_rational(iv[1], f"{path}.n_interval[1]", out)
                if lo is not None and hi is not None and not 0 <= lo <= hi <= 1:
                    out.append(f"{path}.n_interval: need 0 <= low <= high <= 1")

    player = data.get("player")
    if player is not None and str(player) not in players:
        out.append(f"player: {player!r} has no entry under players")

    for name, value in (data.get("bindings") or {}).items():
        _check_rational(value, f"bindings.{name}", out)

    analysis = data.get("analysis", [])
    if not isinstance(analysis, list):
        out.append("analysis: must be a list")
    else:
        for i, a in enumerate(analysis):
            if a not in ANALYSES:
                out.append(f"analysis[{i}]: unknown analysis {a!r}")
    return out


def load_scenario(name_or_path: str) -> dict:
    if name_or_path in BUILTIN_SCENARIOS:
        return json.loads(json.dumps(BUILTIN_SCENARIOS[name_or_path]))
    with open(name_or_path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def scenario_hash(data: dict) -> str:
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# -- running analyses --------------------------------------------------------


@dataclass(frozen=True)
class RunFlags:
    player: str | None = None
    eps: Fraction | None = None
    rectangularize: bool = False
    analyses: tuple[str, ...] | None = None
    event: tuple[str, ...] | None = None
    interval: tuple[Fraction, Fraction] | None = None
    grid: tuple[Fraction, ...] | None = None
    slots: tuple[str, ...] | None = None
    bindings: dict | None = None
    layers: tuple[str, ...] = ("beliefs", "update")
    svg_out: str | None = None


@dataclass
class Report:
    scenario_hash: str
    version: str
    scenario: str
    player: str
    results: list[dict] = field(default_factory=list)

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

    @classmethod
    def from_json(cls, data: dict) -> "Report":
        return cls(
            data["scenario_hash"],
            data["version"],
            data["scenario"],
            data["player"],
            list(data["results"]),
        )


def _beliefs_from_spec(spec: dict, eps_override: Fraction | None) -> CredalSet:
    space = StateSpace(tuple(spec["states"]))
    if spec["type"] == "eps_contamination":
        eps = eps_override if eps_override is not None else rat(spec["eps"])
        return eps_contamination(Vector(spec["center"]), eps, space)
    return CredalSet.from_vertices(space, [Vector(v) for v in spec["vertices"]])


@dataclass
class _Prepared:
    game: GameTree
    player: str
    base_beliefs: CredalSet
    decision_beliefs: CredalSet
    problem: PlayerProblem
    interval: tuple[Fraction, Fraction] | None
    bindings: dict
    strategy_labels: tuple[str, ...]


def _prepare(data: dict, flags: RunFlags) -> _Prepared:
    game = (
        builtin_game(data["game"]) if isinstance(data["game"], str) else game_from_json(data["game"])
    )
    player = str(flags.player or data.get("player") or "")
    entry = data.get("players", {}).get(player)
    if entry is None:
        raise AnalysisError(f"scenario has no belief entry for player {player!r}")
    base = _beliefs_from_spec(entry["beliefs"], flags.eps)
    interval = flags.interval
    if interval is None and "n_interval" in entry:
        interval = (rat(entry["n_interval"][0]), rat(entry["n_interval"][1]))
    decision = induce_downstream(base, interval) if interval else base
    bindings = dict(data.get("bindings") or {})
    bindings.update(flags.bindings or {})
    problem = build_player_problem(game, player, decision, bindings)
    if flags.rectangularize:
        decision = rectangular_hull(decision, problem.filtration)
        problem = build_player_problem(game, player, decision, bindings)
    sets = game.information_sets_for(player)
    labels = tuple(
        "".join(sets[i].actions[a] for i, a in enumerate(pure)) or "(none)"
        for pure in game.pure_strategies(player)
    )
    return _Prepared(game, player, base, decision, problem, interval, bindings, labels)


def _solution_json(sol: MaxminSolution, labels: tuple[str, ...]) -> dict:
    return {
        "value": str(sol.value),
        "value_approx": approx_decimal(sol.value),
        "strategy": dict(zip(labels, sol.strategy.to_json())),
        "optimal_face": [v.to_json() for v in sol.optimal_face.vertices],
        "binding_vertices": [v.to_json() for v in sol.binding_vertices],
    }


def _run_analysis(name: str, prep: _Prepared, data: dict, flags: RunFlags) -> dict:
    pp = prep.problem
    if name == "validate":
        check = validate_perfect_recall(prep.game)
        return {
            "analysis": name,
            "schema": "ok",
            "perfect_recall": check.ok,
            "players": list(prep.game.players),
            "states": list(pp.space.labels),
            "filtration": [list(map(list, stage)) for stage in pp.filtration.stages],
        }
    if name == "maxmin":
        sol = maxmin_solve(pp.exante)
        return {"analysis": name, **_solution_json(sol, prep.strategy_labels)}
    if name == "update":
        cells = [tuple(flags.event)] if flags.event else [s.cell for s in pp.conditionals]
        out = []
        for cell in cells:
            try:
                post = full_bayes_update(pp.exante.beliefs, cell)
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
            zip(prep.strategy_labels, report.exante_solution.strategy.to_json())
        )
        judged = [c for c in report.cells if c.conditional_face is not None]
        if judged:
            face = judged[0].conditional_face
            result["conditional_strategy"] = face.vertices[0].to_json()
        return result
    if name == "induce":
        if prep.interval is None:
            raise AnalysisError("induce needs an n_interval (scenario or --interval)")
        induced = induce_downstream(prep.base_beliefs, prep.interval)
        return {
            "analysis": name,
            "interval": [str(prep.interval[0]), str(prep.interval[1])],
            "states": list(induced.space.labels),
            "vertices": [v.to_json() for v in induced.vertices],
        }
    if name == "find-payoffs":
        search = data.get("payoff_search", {})
        grid = flags.grid or tuple(rat(g) for g in search.get("grid", ()))
        slots = flags.slots or tuple(search.get("slots", ()))
        if not grid or not slots:
            raise AnalysisError("find-payoffs needs --grid and --slots")
        found = find_dc_violation_payoffs(
            prep.game, prep.player, prep.decision_beliefs, grid, slots, prep.bindings
        )
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
    violations = validate_scenario(data)
    if violations:
        raise ScenarioSchemaError(violations)
    prep = _prepare(data, flags)
    analyses = flags.analyses
    if analyses is None:
        analyses = tuple(data.get("analysis") or ("validate", "maxmin", "check-dc"))
    name = scenario if isinstance(scenario, str) else "(inline)"
    report = Report(scenario_hash(data), __version__, name, prep.player)
    for analysis in analyses:
        try:
            report.results.append(_run_analysis(analysis, prep, data, flags))
        except (
            ZeroProbabilityReachError,
            StateSpaceError,
            UnboundParameterError,
        ) as exc:
            raise AnalysisError(f"{analysis}: {exc}") from exc
    if flags.svg_out is not None:
        report.results.append(_render(prep, flags))
    return report


def _render(prep: _Prepared, flags: RunFlags) -> dict:
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
                post = full_bayes_update(pp.exante.beliefs, slot.cell)
                space = pp.space
                embedded = []
                for v in post.vertices:
                    entries = [Fraction(0)] * len(space)
                    for lab, x in zip(post.space.labels, v):
                        entries[space.index(lab)] = x
                    embedded.append(Vector(entries))
                layers.append(
                    TriangleLayer(
                        CredalSet.from_vertices(space, embedded),
                        label="conditional",
                        stroke="#000000",
                    )
                )
        elif kind == "induced":
            if prep.interval is None:
                raise AnalysisError("the induced layer needs an n_interval")
            induced = induce_downstream(prep.base_beliefs, prep.interval)
            panels.append(
                TrianglePanel((TriangleLayer(induced, label="induced"),), "induced")
            )
        else:
            raise AnalysisError(f"unknown render layer {kind!r}")
    if layers:
        panels.insert(0, TrianglePanel(tuple(layers), prep.player))
    doc = render_triangle(panels, flags.svg_out)
    return {
        "analysis": "render",
        "path": flags.svg_out,
        "bytes": len(doc.encode("utf-8")),
        "sha256": hashlib.sha256(doc.encode("utf-8")).hexdigest()[:16],
    }


# -- the contamination sweep --------------------------------------------------


@dataclass(frozen=True)
class SweepResult:
    entries: tuple[tuple[Fraction, str], ...]
    threshold: Fraction | None
    first_inconsistent: Fraction | None

    def to_json(self) -> dict:
        return {
            "entries": [[str(e), v] for e, v in self.entries],
            "threshold": None if self.threshold is None else str(self.threshold),
            "first_inconsistent": (
                None if self.first_inconsistent is None else str(self.first_inconsistent)
            ),
        }


def _verdict_for_eps(eps: Fraction) -> str:
    data = json.loads(json.dumps(BUILTIN_SCENARIOS["fig1"]))
    prep = _prepare(data, RunFlags(eps=eps))
    report = check_dynamic_consistency(prep.problem)
    return "consistent" if report.overall else "inconsistent"


def _worker_count() -> int:
    raw = os.environ.get("CREDALGAMES_WORKERS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return min(4, os.cpu_count() or 1)


def sweep_eps(
    eps_list=None, bisect: tuple[Fraction, Fraction] | None = None
) -> SweepResult:
    """Verdict per contamination weight; optionally locate the threshold.

    Bisection runs on the integer grid over the bounds' common denominator,
    so when the true boundary lies on that grid it is returned exactly.
    """
    entries: list[tuple[Fraction, str]] = []
    if eps_list:
        values = sorted(rat(e) for e in eps_list)
        workers = _worker_count()
        if workers > 1 and len(values) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                verdicts = list(pool.map(_verdict_for_eps, values))
        else:
            verdicts = [_verdict_for_eps(e) for e in values]
        entries = list(zip(values, verdicts))
    threshold = None
    first_bad = None
    if bisect is not None:
        lo, hi = (rat(x) for x in bisect)
        if not 0 < lo < hi < 1:
            raise AnalysisError("bisection bounds need 0 < low < high < 1")
        den = lcm(lo.denominator, hi.denominator)
        p0, p1 = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
        v_lo, v_hi = _verdict_for_eps(lo), _verdict_for_eps(hi)
        entries.extend([(lo, v_lo), (hi, v_hi)])
        if v_lo != "consistent" or v_hi != "inconsistent":
            raise AnalysisError(
                f"bisection needs a consistent low bound and an inconsistent high "
                f"bound; got {v_lo} at {lo} and {v_hi} at {hi}"
            )
        while p1 - p0 > 1:
            mid = (p0 + p1) // 2
            eps = Fraction(mid, den)
            verdict = _verdict_for_eps(eps)
            entries.append((eps, verdict))
            if verdict == "consistent":
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are schema errors: exit 1
        self.print_usage(sys.stderr)
        raise ScenarioSchemaError([f"arguments: {message}"])


def _add_common(sub: argparse.ArgumentParser, scenario: bool = True) -> None:
    if scenario:
        sub.add_argument("scenario", help="built-in name (fig1, fig4) or JSON path")
    sub.add_argument("--player", help="analyze this player instead of the default")
    sub.add_argument("--eps", help="contamination weight, as an exact rational")
    sub.add_argument(
        "--bind",
        action="append",
        default=[],
        metavar="NAME=p/q",
        help="bind a payoff parameter (repeatable)",
    )
    sub.add_argument("--json", action="store_true", help="print the JSON report")
    sub.add_argument("--out", help="write the JSON report (or SVG for render) here")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="credalgames", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("validate", "check the scenario schema and perfect recall"),
        ("analyze", "run the scenario's own analysis list"),
        ("maxmin", "solve the strategic-form worst-case problem"),
        ("rect-hull", "smallest rectangular belief set for the filtration"),
        ("check-rect", "test the beliefs for rectangularity"),
    ):
        sub = subs.add_parser(name, help=help_text)
        _add_common(sub)

    sub = subs.add_parser("update", help="full Bayesian updating per reached cell")
    _add_common(sub)
    sub.add_argument("--event", help="comma-separated states to condition on")

    sub = subs.add_parser("check-dc", help="decide dynamic consistency")
    _add_common(sub)
    sub.add_argument(
        "--rectangularize",
        action="store_true",
        help="replace beliefs by their rectangular hull first",
    )

    sub = subs.add_parser("induce", help="push beliefs through the second mover")
    _add_common(sub)
    sub.add_argument("--interval", metavar="a:b", help="second-mover chance interval")

    sub = subs.add_parser("find-payoffs", help="search for inconsistency payoffs")
    _add_common(sub)
    sub.add_argument("--grid", help="comma-separated payoff grid values")
    sub.add_argument("--slots", help="comma-separated free payoff parameters")

    sub = subs.add_parser("sweep", help="verdict per contamination weight")
    sub.add_argument("--eps-list", help="comma-separated exact rationals")
    sub.add_argument("--bisect", metavar="lo:hi", help="bisect for the threshold")
    sub.add_argument("--json", action="store_true")
    sub.add_argument("--out")

    sub = subs.add_parser("render", help="draw belief sets as an SVG triangle")
    _add_common(sub)
    sub.add_argument(
        "--layers",
        default="beliefs,update",
        help="comma list of beliefs,update,hull,induced",
    )
    sub.add_argument("--interval", metavar="a:b")
    return parser


def _flags_from_args(args: argparse.Namespace) -> RunFlags:
    flags = RunFlags()
    if getattr(args, "player", None):
        flags = replace(flags, player=args.player)
    if getattr(args, "eps", None):
        flags = replace(flags, eps=parse_cli_rational(args.eps, "--eps"))
    bindings = {}
    for item in getattr(args, "bind", []):
        if "=" not in item:
            raise ScenarioSchemaError([f"--bind: expected NAME=p/q, got {item!r}"])
        name, value = item.split("=", 1)
        bindings[name] = parse_cli_rational(value, f"--bind {name}")
    if bindings:
        flags = replace(flags, bindings=bindings)
    if getattr(args, "event", None):
        flags = replace(flags, event=tuple(args.event.split(",")))
    if getattr(args, "interval", None):
        lo, _, hi = args.interval.partition(":")
        flags = replace(
            flags,
            interval=(
                parse_cli_rational(lo, "--interval"),
                parse_cli_rational(hi, "--interval"),
            ),
        )
    if getattr(args, "grid", None):
        flags = replace(
            flags,
            grid=tuple(parse_cli_rational(g, "--grid") for g in args.grid.split(",")),
        )
    if getattr(args, "slots", None):
        flags = replace(flags, slots=tuple(args.slots.split(",")))
    if getattr(args, "rectangularize", False):
        flags = replace(flags, rectangularize=True)
    return flags


_COMMAND_ANALYSES = {
    "validate": ("validate",),
    "maxmin": ("maxmin",),
    "update": ("update",),
    "rect-hull": ("rect-hull",),
    "check-rect": ("check-rect",),
    "check-dc": ("check-dc",),
    "induce": ("induce",),
    "find-payoffs": ("find-payoffs",),
}


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
                    verts = "; ".join(
                        "(" + ", ".join(v) + ")" for v in cell["vertices"]
                    )
                    lines.append(
                        f"[update] cell {{{','.join(cell['cell'])}}}: {verts}"
                    )
                else:
                    lines.append(
                        f"[update] cell {{{','.join(cell['cell'])}}}: unreachable"
                    )
        elif kind == "rect-hull":
            verts = "; ".join("(" + ", ".join(v) + ")" for v in result["vertices"])
            lines.append(f"[rect-hull] vertices {verts}")
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
                    pts = "; ".join(
                        "(" + ", ".join(v) + ")" for v in cell["common_face"]["vertices"]
                    )
                    extra = f"; common optimum {pts}"
                lines.append(
                    f"[check-dc]   cell {{{','.join(cell['cell'])}}}: {tag}{extra}"
                )
        elif kind == "induce":
            verts = "; ".join("(" + ", ".join(v) + ")" for v in result["vertices"])
            lines.append(
                f"[induce] n in [{result['interval'][0]}, {result['interval'][1]}] "
                f"over {', '.join(result['states'])}: {verts}"
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "sweep":
            eps_list = None
            if args.eps_list:
                eps_list = [
                    parse_cli_rational(e, "--eps-list") for e in args.eps_list.split(",")
                ]
            bisect = None
            if args.bisect:
                lo, _, hi = args.bisect.partition(":")
                bisect = (
                    parse_cli_rational(lo, "--bisect"),
                    parse_cli_rational(hi, "--bisect"),
                )
            if not eps_list and not bisect:
                raise ScenarioSchemaError(["sweep: provide --eps-list or --bisect"])
            result = sweep_eps(eps_list, bisect)
            payload = json.dumps(result.to_json(), sort_keys=True, indent=2)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as handle:
                    handle.write(payload + "\n")
            if args.json:
                print(payload)
            else:
                for eps, verdict in result.entries:
                    print(f"eps = {eps}: {verdict}")
                if result.threshold is not None:
                    print(
                        f"threshold: consistent through {result.threshold}, "
                        f"inconsistent from {result.first_inconsistent}"
                    )
            return 0

        flags = _flags_from_args(args)
        if args.command == "render":
            layer_names = tuple(args.layers.split(","))
            out = args.out or "triangle.svg"
            flags = replace(flags, analyses=(), layers=layer_names, svg_out=out)
        elif args.command in _COMMAND_ANALYSES:
            flags = replace(flags, analyses=_COMMAND_ANALYSES[args.command])
        report = run(args.scenario, flags)
        if getattr(args, "json", False):
            print(report.dumps())
        else:
            print(format_report(report))
        if args.command != "render" and getattr(args, "out", None):
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(report.dumps() + "\n")
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
