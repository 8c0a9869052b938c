"""Finite extensive-form games with imperfect information.

Trees are immutable: decision nodes carry an acting player and ordered
actions, terminal nodes carry one payoff entry per player (an exact rational
or the name of a declared payoff parameter).  Information sets partition each
player's decision nodes; unlisted nodes form implicit singletons.  On top of
the structure this module implements perfect-recall validation, behavioral
and mixed strategies, outcome distributions, and the outcome-preserving
translations between the two strategy kinds.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

from .exactmath import Record, Vector, rat, read_rational, unit_vector

Path = tuple[str, ...]
PayoffEntry = Fraction | str


class MalformedGameError(ValueError):
    """The tree or its information sets violate a structural invariant."""


class GameJsonError(MalformedGameError):
    """A game object read from JSON lacks a field or has one of the wrong kind.

    The message starts with the entry's path, such as
    ``game.root.actions[0].child``.
    """


class MissingStrategyError(KeyError):
    """A strategy profile does not cover some player or information set."""


class PerfectRecallViolationError(ValueError):
    """Raised by operations whose construction needs perfect recall."""


class UnboundParameterError(KeyError):
    """A payoff parameter is referenced but never declared or bound."""


class TerminalNode(Record):
    __slots__ = ("payoffs",)

    def __init__(self, payoffs: tuple[PayoffEntry, ...]):
        object.__setattr__(self, "payoffs", payoffs)


class DecisionNode(Record):
    __slots__ = ("player", "actions", "children")

    def __init__(self, player: str, actions: tuple[str, ...], children: tuple[Node, ...]):
        object.__setattr__(self, "player", player)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "children", children)


Node = DecisionNode | TerminalNode


def terminal(payoffs) -> TerminalNode:
    return TerminalNode(tuple(p if isinstance(p, str) else rat(p) for p in payoffs))


def decision(player: str, moves) -> DecisionNode:
    """Build a decision node from (action_label, child) pairs."""
    labels = tuple(label for label, _ in moves)
    children = tuple(child for _, child in moves)
    return DecisionNode(player, labels, children)


class InformationSet(Record):
    __slots__ = ("player", "index", "paths", "actions")

    def __init__(self, player: str, index: int, paths: tuple[Path, ...], actions: tuple[str, ...]):
        object.__setattr__(self, "player", player)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "actions", actions)


class GameTree:
    """An extensive-form game plus the derived indexes the operations need."""

    def __init__(
        self,
        players,
        root: Node,
        information_sets=(),
        parameters: dict[str, Fraction | int | str] | None = None,
    ):
        self.players: tuple[str, ...] = tuple(players)
        if len(set(self.players)) != len(self.players) or not self.players:
            raise MalformedGameError("players must be unique and nonempty")
        self.root = root
        self.parameters: dict[str, Fraction] = {
            name: rat(v) for name, v in (parameters or {}).items()
        }

        self._decision_nodes: dict[Path, DecisionNode] = {}
        self._terminals: list[tuple[Path, TerminalNode]] = []
        self._walk((), root)

        self._information_sets = self._build_information_sets(information_sets)
        self._infoset_of_path: dict[Path, tuple[str, int]] = {}
        for player, sets in self._information_sets.items():
            for iset in sets:
                for path in iset.paths:
                    self._infoset_of_path[path] = (player, iset.index)

    def _walk(self, path: Path, node: Node) -> None:
        if isinstance(node, TerminalNode):
            if len(node.payoffs) != len(self.players):
                raise MalformedGameError(
                    f"terminal {path} has {len(node.payoffs)} payoffs for "
                    f"{len(self.players)} players"
                )
            for entry in node.payoffs:
                if isinstance(entry, str) and entry not in self.parameters:
                    raise UnboundParameterError(
                        f"payoff parameter {entry!r} at {path} is not declared"
                    )
            self._terminals.append((path, node))
            return
        if not isinstance(node, DecisionNode):
            raise MalformedGameError(f"unknown node type at {path}")
        if node.player not in self.players:
            raise MalformedGameError(f"unknown player {node.player!r} at {path}")
        if not node.actions or len(node.actions) != len(node.children):
            raise MalformedGameError(f"node {path} needs one child per action")
        if len(set(node.actions)) != len(node.actions):
            raise MalformedGameError(f"duplicate action label at {path}")
        self._decision_nodes[path] = node
        for label, child in zip(node.actions, node.children):
            self._walk(path + (label,), child)

    def _build_information_sets(self, specs) -> dict[str, tuple[InformationSet, ...]]:
        dfs_index = {path: i for i, path in enumerate(self._decision_nodes)}
        assigned: dict[Path, int] = {}
        groups: list[tuple[str, tuple[Path, ...], tuple[str, ...]]] = []
        for spec in specs:
            paths = tuple(tuple(p) for p in spec)
            if not paths:
                raise MalformedGameError("empty information set")
            nodes = []
            for p in paths:
                if p not in self._decision_nodes:
                    raise MalformedGameError(f"information set names unknown node {p}")
                if p in assigned:
                    raise MalformedGameError(f"node {p} listed in two information sets")
                assigned[p] = len(groups)
                nodes.append(self._decision_nodes[p])
            player = nodes[0].player
            actions = nodes[0].actions
            for p, n in zip(paths, nodes):
                if n.player != player:
                    raise MalformedGameError(
                        f"information set mixes players {player!r} and {n.player!r}"
                    )
                if n.actions != actions:
                    raise MalformedGameError(
                        f"information set mixes action lists at {p}"
                    )
            groups.append((player, paths, actions))
        for path, node in self._decision_nodes.items():
            if path not in assigned:
                groups.append((node.player, (path,), node.actions))

        by_player: dict[str, list[tuple[str, tuple[Path, ...], tuple[str, ...]]]] = {
            p: [] for p in self.players
        }
        for group in groups:
            by_player[group[0]].append(group)
        result: dict[str, tuple[InformationSet, ...]] = {}
        for player in self.players:
            ordered = sorted(
                by_player[player], key=lambda g: min(dfs_index[p] for p in g[1])
            )
            result[player] = tuple(
                InformationSet(player, i, paths, actions)
                for i, (_, paths, actions) in enumerate(ordered)
            )
        return result

    # -- structure access -------------------------------------------------

    def information_sets_for(self, player: str) -> tuple[InformationSet, ...]:
        return self._information_sets[player]

    def infoset_at(self, path: Path) -> tuple[str, int]:
        """(player, information-set index) of the decision node at path."""
        return self._infoset_of_path[path]

    def terminals(self) -> tuple[tuple[Path, TerminalNode], ...]:
        return tuple(self._terminals)

    def terminal_labels(self) -> tuple[str, ...]:
        return tuple("".join(path) or "(root)" for path, _ in self._terminals)

    def pure_strategies(self, player: str) -> list[tuple[int, ...]]:
        """All pure strategies, lexicographic in (information set, action) indexes."""
        sets = self._information_sets[player]
        return list(itertools.product(*[range(len(s.actions)) for s in sets]))

    def own_history(self, player: str, path: Path) -> tuple[tuple[int, int], ...]:
        """The player's (information set, action index) pairs along a path."""
        history = []
        node: Node = self.root
        for depth, label in enumerate(path):
            assert isinstance(node, DecisionNode)
            if node.player == player:
                _, iset = self._infoset_of_path[path[:depth]]
                history.append((iset, node.actions.index(label)))
            node = node.children[node.actions.index(label)]
        return tuple(history)

    def resolve_parameters(self, bindings: dict | None = None) -> dict[str, Fraction]:
        values = dict(self.parameters)
        for name, v in (bindings or {}).items():
            if name not in values:
                raise UnboundParameterError(f"binding for undeclared parameter {name!r}")
            values[name] = rat(v)
        return values


# -- strategies -----------------------------------------------------------


class BehavioralStrategy(Record):
    """One exact local distribution per information set, in canonical order."""

    __slots__ = ("player", "choices")

    def __init__(self, player: str, choices: tuple[Vector, ...]):
        object.__setattr__(self, "player", player)
        object.__setattr__(self, "choices", choices)

    def validate(self, game: GameTree) -> None:
        sets = game.information_sets_for(self.player)
        if len(self.choices) != len(sets):
            raise MissingStrategyError(
                f"{self.player}: {len(self.choices)} local choices for {len(sets)} sets"
            )
        for iset, local in zip(sets, self.choices):
            if local.dimension != len(iset.actions):
                raise MissingStrategyError(
                    f"{self.player}: wrong arity at information set {iset.index}"
                )
            if not local.is_probability():
                raise ValueError(
                    f"{self.player}: local choice at set {iset.index} is not a distribution"
                )


class MixedStrategy(Record):
    """A distribution over pure strategies in lexicographic order."""

    __slots__ = ("player", "weights")

    def __init__(self, player: str, weights: Vector):
        object.__setattr__(self, "player", player)
        object.__setattr__(self, "weights", weights)

    def validate(self, game: GameTree) -> None:
        count = len(game.pure_strategies(self.player))
        if self.weights.dimension != count:
            raise MissingStrategyError(
                f"{self.player}: {self.weights.dimension} weights for {count} pure strategies"
            )
        if not self.weights.is_probability():
            raise ValueError(f"{self.player}: mixed weights are not a distribution")


Strategy = BehavioralStrategy | MixedStrategy


class OutcomeDistribution(Record):
    __slots__ = ("terminals", "probabilities")

    def __init__(self, terminals: tuple[str, ...], probabilities: Vector):
        object.__setattr__(self, "terminals", terminals)
        object.__setattr__(self, "probabilities", probabilities)


def pure_behavioral(game: GameTree, player: str, pure: tuple[int, ...]) -> BehavioralStrategy:
    sets = game.information_sets_for(player)
    return BehavioralStrategy(
        player,
        tuple(unit_vector(len(iset.actions), action) for iset, action in zip(sets, pure)),
    )


# -- operations -----------------------------------------------------------


class RecallCheck(Record):
    __slots__ = ("ok", "player", "witness")

    def __init__(
        self, ok: bool, player: str | None = None, witness: tuple[Path, Path] | None = None
    ):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "player", player)
        object.__setattr__(self, "witness", witness)


def validate_perfect_recall(game: GameTree) -> RecallCheck:
    """Every node of an information set must share its owner's past moves."""
    for player in game.players:
        for iset in game.information_sets_for(player):
            histories = [game.own_history(player, p) for p in iset.paths]
            for p, h in zip(iset.paths[1:], histories[1:]):
                if h != histories[0]:
                    return RecallCheck(False, player, (iset.paths[0], p))
    return RecallCheck(True)


def outcome_distribution(game: GameTree, profile: dict[str, BehavioralStrategy]) -> OutcomeDistribution:
    """Terminal probabilities: the product of local choices along each path."""
    for player in game.players:
        if player not in profile:
            raise MissingStrategyError(f"profile misses player {player!r}")
        profile[player].validate(game)
    return _distribution(game, profile)


def _distribution(game: GameTree, profile: dict[str, BehavioralStrategy]) -> OutcomeDistribution:
    """outcome_distribution of a profile that is already validated."""
    probs: dict[Path, Fraction] = {}

    def walk(path: Path, node: Node, weight: Fraction) -> None:
        if isinstance(node, TerminalNode):
            probs[path] = probs.get(path, Fraction(0)) + weight
            return
        _, iset = game.infoset_at(path)
        local = profile[node.player].choices[iset]
        for i, label in enumerate(node.actions):
            p = local[i]
            if p != 0:
                walk(path + (label,), node.children[i], weight * p)

    walk((), game.root, Fraction(1))
    return OutcomeDistribution(
        game.terminal_labels(),
        Vector(probs.get(path, Fraction(0)) for path, _ in game.terminals()),
    )


def _consistent(pure: tuple[int, ...], history: tuple[tuple[int, int], ...]) -> bool:
    return all(pure[iset] == action for iset, action in history)


def mixed_to_behavioral(game: GameTree, mixed: MixedStrategy) -> BehavioralStrategy:
    """Kuhn's construction: local probability = conditional reach probability.

    At information sets the mixed strategy can never reach, the local choice
    is uniform (any choice there leaves outcomes untouched).
    """
    mixed.validate(game)
    check = validate_perfect_recall(game)
    if not check.ok and check.player == mixed.player:
        raise PerfectRecallViolationError(
            f"player {mixed.player!r} lacks perfect recall: {check.witness}"
        )
    pures = game.pure_strategies(mixed.player)
    sets = game.information_sets_for(mixed.player)
    choices = []
    for iset in sets:
        history = game.own_history(mixed.player, iset.paths[0])
        reach = Fraction(0)
        mass = [Fraction(0)] * len(iset.actions)
        for pure, w in zip(pures, mixed.weights):
            if w != 0 and _consistent(pure, history):
                reach += w
                mass[pure[iset.index]] += w
        if reach == 0:
            uniform = Fraction(1, len(iset.actions))
            choices.append(Vector([uniform] * len(iset.actions)))
        else:
            choices.append(Vector(m / reach for m in mass))
    return BehavioralStrategy(mixed.player, tuple(choices))


def behavioral_to_mixed(game: GameTree, beh: BehavioralStrategy) -> MixedStrategy:
    """Product of local probabilities over the player's information sets."""
    beh.validate(game)
    pures = game.pure_strategies(beh.player)
    weights = []
    for pure in pures:
        w = Fraction(1)
        for iset_index, action in enumerate(pure):
            w *= beh.choices[iset_index][action]
        weights.append(w)
    return MixedStrategy(beh.player, Vector(weights))


def outcome_equivalent(game: GameTree, player: str, s1: Strategy, s2: Strategy) -> bool:
    """Exact outcome equality against every profile of opponent pure strategies.

    A behavioral strategy's distribution is its outcome_distribution.  A mixed
    strategy's is the weighted sum of its pure strategies' distributions, not
    that of its Kuhn image, so comparing a mixed strategy with its image tests
    Kuhn's theorem rather than assuming it.  Both strategies are validated
    once here; the opponents' pure strategies are valid by construction.
    """
    for s in (s1, s2):
        s.validate(game)
        if s.player != player:
            raise ValueError(f"strategy belongs to {s.player!r}, not {player!r}")
    opponents = tuple(q for q in game.players if q != player)

    def against(strategy: Strategy, profile: dict[str, BehavioralStrategy]) -> Vector:
        if isinstance(strategy, BehavioralStrategy):
            return _distribution(game, {**profile, player: strategy}).probabilities
        total = [Fraction(0)] * len(game.terminals())
        for pure, w in zip(game.pure_strategies(player), strategy.weights):
            if w != 0:
                for i, p in enumerate(against(pure_behavioral(game, player, pure), profile)):
                    total[i] += w * p
        return Vector(total)

    for opp_pures in itertools.product(*[game.pure_strategies(q) for q in opponents]):
        profile = {q: pure_behavioral(game, q, p) for q, p in zip(opponents, opp_pures)}
        if against(s1, profile) != against(s2, profile):
            return False
    return True


# -- JSON format and embedded games ---------------------------------------


def _field(data: dict, key: str, path: str, kind: type = object):
    """``data[key]``, which must be present and an instance of ``kind``."""
    if key not in data:
        raise GameJsonError(f"{path}.{key}: required")
    if not isinstance(data[key], kind):
        raise GameJsonError(f"{path}.{key}: must be a {kind.__name__}")
    return data[key]


def _node_from_json(data, parameters: dict, path: str) -> Node:
    if not isinstance(data, dict):
        raise GameJsonError(f"{path}: must be an object")
    if "payoffs" in data:
        entries = []
        for j, raw in enumerate(_field(data, "payoffs", path, list)):
            if isinstance(raw, str) and raw in parameters:
                entries.append(raw)
            elif (value := read_rational(raw, "", [])) is not None:
                entries.append(value)
            else:
                raise GameJsonError(
                    f"{path}.payoffs[{j}]: {raw!r} is neither an exact rational "
                    "nor a declared parameter"
                )
        return TerminalNode(tuple(entries))
    player = _field(data, "player", path, str)
    moves = []
    for i, action in enumerate(_field(data, "actions", path, list)):
        where = f"{path}.actions[{i}]"
        if not isinstance(action, dict):
            raise GameJsonError(f"{where}: must be an object")
        child = _field(action, "child", where)
        label = _field(action, "label", where, str)
        moves.append((label, _node_from_json(child, parameters, f"{where}.child")))
    return decision(player, moves)


def game_from_json(data: dict) -> GameTree:
    """Build a game from its JSON object (``BUILTIN_GAMES`` holds two examples).

    A missing or mistyped field raises GameJsonError naming its path, which
    starts at ``game``; structural faults raise MalformedGameError.  Payoffs
    and parameter values are read by ``read_rational``: integers or "p/q"
    strings, never decimals.
    """
    if not isinstance(data, dict):
        raise GameJsonError("game: must be an object")
    players = _field(data, "players", "game", list)
    if not all(isinstance(p, str) for p in players):
        raise GameJsonError("game.players: must be a list of player names")
    parameters = data.get("parameters", {})
    if not isinstance(parameters, dict):
        raise GameJsonError("game.parameters: must be an object")
    bad: list[str] = []
    values = {k: read_rational(v, f"game.parameters.{k}", bad) for k, v in parameters.items()}
    if bad:
        raise GameJsonError(bad[0])
    isets = data.get("information_sets", [])
    if not isinstance(isets, list):
        raise GameJsonError("game.information_sets: must be a list")
    for i, spec in enumerate(isets):
        if not isinstance(spec, list) or not all(
            isinstance(p, list) and all(isinstance(a, str) for a in p) for p in spec
        ):
            raise GameJsonError(
                f"game.information_sets[{i}]: must be a list of paths, each a list of labels"
            )
    root = _node_from_json(_field(data, "root", "game"), parameters, "game.root")
    return GameTree(players, root, isets, values)


_FIG1 = {
    "players": ["1", "2"],
    "root": {
        "player": "1",
        "actions": [
            {
                "label": "L",
                "child": {
                    "player": "2",
                    "actions": [
                        {"label": "M", "child": {"payoffs": ["x", "0"]}},
                        {"label": "N", "child": {"payoffs": ["x", "101"]}},
                    ],
                },
            },
            {
                "label": "R",
                "child": {
                    "player": "2",
                    "actions": [
                        {"label": "M", "child": {"payoffs": ["x", "101"]}},
                        {"label": "N", "child": {"payoffs": ["x", "100"]}},
                    ],
                },
            },
            {"label": "O", "child": {"payoffs": ["x", "-1"]}},
        ],
    },
    "information_sets": [[["L"], ["R"]]],
    "parameters": {"x": "0"},
}

_FIG4 = {
    "players": ["1", "2", "3"],
    "root": {
        "player": "1",
        "actions": [
            {
                "label": "L",
                "child": {
                    "player": "2",
                    "actions": [
                        {"label": "M", "child": {"payoffs": ["x", "0", "y"]}},
                        {"label": "N", "child": {"payoffs": ["x", "101", "y"]}},
                    ],
                },
            },
            {
                "label": "R",
                "child": {
                    "player": "2",
                    "actions": [
                        {"label": "M", "child": {"payoffs": ["x", "101", "y"]}},
                        {
                            "label": "N",
                            "child": {
                                "player": "3",
                                "actions": [
                                    {"label": "S", "child": {"payoffs": ["x", "100", "uRNS"]}},
                                    {"label": "T", "child": {"payoffs": ["x", "100", "uRNT"]}},
                                ],
                            },
                        },
                    ],
                },
            },
            {
                "label": "O",
                "child": {
                    "player": "3",
                    "actions": [
                        {"label": "S", "child": {"payoffs": ["x", "-1", "uOS"]}},
                        {"label": "T", "child": {"payoffs": ["x", "-1", "uOT"]}},
                    ],
                },
            },
        ],
    },
    "information_sets": [[["L"], ["R"]], [["R", "N"], ["O"]]],
    "parameters": {
        "x": "0",
        "y": "0",
        "uRNS": "0",
        "uRNT": "0",
        "uOS": "0",
        "uOT": "0",
    },
}

BUILTIN_GAMES = {"fig1": _FIG1, "fig4": _FIG4}


def builtin_game(name: str) -> GameTree:
    """The embedded two-player ("fig1") and three-player ("fig4") examples."""
    try:
        spec = BUILTIN_GAMES[name]
    except KeyError:
        raise KeyError(f"no built-in game named {name!r}")
    return game_from_json(json.loads(json.dumps(spec)))
