"""From games to dynamic decision problems, and dynamic-consistency checks.

A player's decision problem treats opponent behavior as an uncertain state:
states are the opponent action paths up to the player's first move (or a
terminal), the filtration's intermediate stage groups states by which of the
player's information sets is reached, and beliefs are a credal set over the
states.  Consistency compares the strategic-form optimum with the optimum
recomputed at each reached information set after full Bayesian updating.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import attrgetter

from .beliefs import (
    CredalSet,
    Filtration,
    StateSpace,
    ZeroProbabilityReachError,
    full_bayes_update,
)
from .exactmath import Polytope, Record, Vector, polytope_minimize, rat
from .gametree import (
    GameTree,
    Node,
    PayoffEntry,
    TerminalNode,
    UnboundParameterError,
    validate_perfect_recall,
)
from .maxmin import DecisionProblem, MaxminSolution, constrained_maxmin, maxmin_solve

CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"
UNREACHABLE = "unreachable"


class StateSpaceError(ValueError):
    """Opponent-path states cannot be wired to the given beliefs/payoffs."""


class ConditionalSlot(Record):
    """One stage-1 cell where the player acts.

    ``projection`` maps each strategy coordinate s to the index of the joint
    action pure strategy s takes at the player's information sets reachable
    inside the cell (joint actions numbered in ``itertools.product`` order,
    every index taken).  Summing a mixed strategy's weights per index
    marginalizes it onto the cell's joint actions (Kuhn's construction).
    Payoffs on the cell's states depend only on those actions, so the cell
    matrix is derived from the strategic one, never stored.
    """

    __slots__ = ("cell", "projection")

    def __init__(self, cell: tuple[str, ...], projection: tuple[int, ...]):
        object.__setattr__(self, "cell", cell)
        object.__setattr__(self, "projection", projection)


class Posteriors:
    """One credal set's full Bayes updates, each cell's made on first read.

    A problem rebound to other payoffs keeps its instance, so a cell's
    posterior is computed once however many grid points and analyses read
    it.  A cell some prior rules out raises the same
    ZeroProbabilityReachError on every read.
    """

    def __init__(self, beliefs: CredalSet):
        self.beliefs = beliefs
        self._by_cell: dict[tuple[str, ...], CredalSet | ZeroProbabilityReachError] = {}

    def __call__(self, cell) -> CredalSet:
        cell = tuple(cell)
        if cell not in self._by_cell:
            try:
                self._by_cell[cell] = full_bayes_update(self.beliefs, cell)
            except ZeroProbabilityReachError as exc:
                self._by_cell[cell] = exc
        found = self._by_cell[cell]
        if isinstance(found, ZeroProbabilityReachError):
            raise found.with_traceback(None)
        return found

    def __repr__(self):
        return f"Posteriors({self.beliefs!r})"


class PlayerProblem(Record):
    """A player's strategic problem and the stage-1 cells where it acts.

    ``rows`` is the strategic matrix over the filtration's states, each
    entry an exact value or a parameter name that ``values`` resolves;
    ``posterior`` holds the beliefs.  The ex-ante problem is derived from
    the three, so a search or a sweep derives a problem once and rebinds it
    with ``replace``: new ``values`` for other payoffs, a new ``posterior``
    for other beliefs.  Equality ignores ``posterior``, and the hash leaves
    out ``values`` (a dict; ``exante`` hashes the resolved rows).
    """

    __slots__ = ("player", "filtration", "conditionals", "strategy_labels", "rows", "values",
                 "posterior", "exante")

    def __init__(
        self, player: str, filtration: Filtration, conditionals: tuple[ConditionalSlot, ...],
        strategy_labels: tuple[str, ...], rows: tuple[tuple[PayoffEntry, ...], ...],
        values: dict[str, Fraction], posterior: Posteriors,
    ):
        resolved = [[values[e] if isinstance(e, str) else e for e in row] for row in rows]
        exante = DecisionProblem.build(resolved, filtration.space, posterior.beliefs)
        object.__setattr__(self, "player", player)
        object.__setattr__(self, "filtration", filtration)
        object.__setattr__(self, "conditionals", conditionals)
        object.__setattr__(self, "strategy_labels", strategy_labels)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "posterior", posterior)
        object.__setattr__(self, "exante", exante)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.values == other.values and _hashed(self) == _hashed(other)

    def __hash__(self):
        return hash(_hashed(self))

    @property
    def space(self) -> StateSpace:
        return self.exante.space


_hashed = attrgetter("player", "filtration", "conditionals", "strategy_labels", "rows", "exante")


# -- deriving the state structure from a game -------------------------------


class _State(Record):
    # infoset is the player's information set reached, if any
    __slots__ = ("label", "path", "node", "infoset")

    def __init__(self, label: str, path: tuple[str, ...], node: Node, infoset: int | None):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "node", node)
        object.__setattr__(self, "infoset", infoset)


def _derive_structure(game: GameTree, player: str):
    """States, stage-1 cells as state indices, each acting cell's projection
    (keyed by cell index), the symbolic strategic rows and the pure
    strategies' labels."""
    if player not in game.players:
        raise StateSpaceError(f"unknown player {player!r}")
    recall = validate_perfect_recall(game)
    if not recall.ok:
        raise StateSpaceError(
            f"player {recall.player!r} lacks perfect recall: {recall.witness}"
        )
    pidx = game.players.index(player)

    states: list[_State] = []

    def scan(path, node: Node) -> None:
        name = "".join(path) or "start"
        if isinstance(node, TerminalNode):
            states.append(_State(name, path, node, None))
            return
        if node.player == player:
            states.append(_State(name, path, node, game.infoset_at(path)[1]))
            return
        for label, child in zip(node.actions, node.children):
            scan(path + (label,), child)

    scan((), game.root)
    labels = [s.label for s in states]
    if len(set(labels)) != len(labels):
        raise StateSpaceError(f"ambiguous opponent-path labels: {labels}")

    # group states by the information set reached (None = the player never acts)
    grouped: dict[int | None, list[int]] = {}
    for i, s in enumerate(states):
        grouped.setdefault(s.infoset, []).append(i)

    # an acting cell's projection keeps the joint action at the player's own
    # sets at or below its states
    full_pures = game.pure_strategies(player)
    own_sets = game.information_sets_for(player)
    projections: dict[int, list[int]] = {}
    for ci, (key, members) in enumerate(grouped.items()):
        if key is None:
            continue
        below = [states[i].path for i in members]
        sets = [
            iset
            for iset in own_sets
            if any(p[: len(b)] == b for p in iset.paths for b in below)
        ]
        joint = itertools.product(*(range(len(iset.actions)) for iset in sets))
        index = {cp: j for j, cp in enumerate(joint)}
        projections[ci] = [index[tuple(p[s.index] for s in sets)] for p in full_pures]

    def follow(path, node: Node, assignment: dict[int, int]) -> PayoffEntry:
        """The player's payoff at ``node`` (reached by ``path``) given their own choices.

        Opponent nodes below are explored on all branches; their choices
        must not matter, else the states do not determine payoffs.
        """
        if isinstance(node, TerminalNode):
            return node.payoffs[pidx]
        if node.player == player:
            action = assignment[game.infoset_at(path)[1]]
            return follow(path + (node.actions[action],), node.children[action], assignment)
        seen = [
            follow(path + (label,), child, assignment)
            for label, child in zip(node.actions, node.children)
        ]
        first = seen[0]
        if any(entry != first for entry in seen[1:]):
            raise StateSpaceError(
                f"payoff below {path} depends on an opponent move the state "
                "space does not resolve"
            )
        return first

    sym_rows: list[list[PayoffEntry]] = []
    for pure in full_pures:
        assignment = dict(enumerate(pure))
        sym_rows.append([follow(s.path, s.node, assignment) for s in states])

    strategy_labels = tuple(
        "".join(own_sets[i].actions[a] for i, a in enumerate(pure)) or "(none)"
        for pure in full_pures
    )
    return states, list(grouped.values()), projections, sym_rows, strategy_labels


def _layout(space: StateSpace, stage, acting):
    """The filtration of the stage-1 cells and a slot per acting cell.

    ``stage`` lists the stage-1 cells; ``acting`` pairs each cell where the
    player acts with its projection.
    """
    filtration = Filtration.build(space, [stage])
    slots = []
    for cell, projection in acting:
        cell = tuple(sorted(cell, key=space.index))
        if cell not in filtration.stages[0]:
            raise StateSpaceError(f"acting cell {cell} is not a stage-1 cell")
        slots.append(ConditionalSlot(cell, tuple(projection)))
    return filtration, tuple(slots)


def build_player_problem(
    game: GameTree,
    player: str,
    opponent_beliefs: CredalSet,
    bindings: dict | None = None,
) -> PlayerProblem:
    """Wire a player's strategic and conditional problems from the game.

    The beliefs' states may be either the raw opponent-path states or their
    aggregation, inside each stage-1 cell, of states with identical payoff
    columns (the merged states adopt the beliefs' labels, as with a combined
    state named Z).
    """
    states, cells, projections, sym_rows, labels = _derive_structure(game, player)
    space = opponent_beliefs.space
    want = space.labels

    if tuple(s.label for s in states) == want:  # the all-singleton grouping
        per_cell = [[[i] for i in m] for m in cells]
    else:
        per_cell = []
        for members in cells:
            by_column: dict[tuple, list[int]] = {}
            for i in members:
                by_column.setdefault(tuple(row[i] for row in sym_rows), []).append(i)
            per_cell.append(list(by_column.values()))
    groups = sorted((g for cell in per_cell for g in cell), key=lambda g: g[0])
    if len(groups) != len(want):
        raise StateSpaceError(
            f"{len(groups)} aggregated states cannot match beliefs over {want}"
        )
    label_of: dict[int, str] = {}  # a group's first state -> its belief label
    for label, group in zip(want, groups):
        name = states[group[0]].label
        if len(group) == 1 and name != label:
            raise StateSpaceError(f"state {name!r} does not match belief state {label!r}")
        label_of[group[0]] = label

    rows = tuple(tuple(row[g[0]] for g in groups) for row in sym_rows)
    stage = [[label_of[g[0]] for g in cell] for cell in per_cell]
    # merging keeps the cell list intact, so each projection carries over
    acting = [(stage[ci], projection) for ci, projection in projections.items()]
    filtration, slots = _layout(space, stage, acting)
    values = game.resolve_parameters(bindings)
    return PlayerProblem(
        player, filtration, slots, labels, rows, values, Posteriors(opponent_beliefs)
    )


def player_problem_from_matrix(
    player: str,
    payoff_rows,
    space: StateSpace,
    beliefs: CredalSet,
    stage,
    acting_cells,
) -> PlayerProblem:
    """Directly assemble a one-information-set player problem.

    The strategy coordinates double as the cell coordinates, so every
    conditional slot carries an identity projection.
    """
    rows = tuple(tuple(rat(x) for x in row) for row in payoff_rows)
    identity = range(len(rows))
    filtration, slots = _layout(space, stage, [(cell, identity) for cell in acting_cells])
    labels = tuple(str(i) for i in range(len(rows)))
    return PlayerProblem(player, filtration, slots, labels, rows, {}, Posteriors(beliefs))


def induce_downstream(p1_beliefs: CredalSet, n_interval) -> CredalSet:
    """Push first-mover beliefs through an independent second move.

    A prior (l, r, o) combined with a second-mover chance n of continuing
    yields (z, rn, o) = (l + r(1-n), rn, o).  The map is affine in n for a
    fixed prior and affine in the prior for fixed n, so the hull of the
    endpoint images contains every intermediate image.
    """
    if len(p1_beliefs.space) != 3:
        raise StateSpaceError("downstream induction expects a three-state prior")
    a, b = (rat(x) for x in n_interval)
    if not (0 <= a <= b <= 1):
        raise ValueError(f"malformed interval [{a}, {b}]")
    out_space = StateSpace.of("Z", "RN", "O")
    images = []
    for v in p1_beliefs.vertices:
        l, r, o = v
        for n in {a, b}:
            images.append(Vector([l + r * (1 - n), r * n, o]))
    return CredalSet.from_vertices(out_space, images)


# -- dynamic consistency ----------------------------------------------------


class CellVerdict(Record):
    __slots__ = ("cell", "status", "conditional_value", "restricted_value", "exante_face",
                 "conditional_face", "common_face")

    def __init__(
        self, cell: tuple[str, ...], status: str,
        conditional_value: Fraction | None = None,  # optimum after updating
        restricted_value: Fraction | None = None,  # best ex-ante optimizer does
        exante_face: Polytope | None = None,  # projected to the cell's coordinates
        conditional_face: Polytope | None = None,
        common_face: Polytope | None = None,  # ex-ante optimizers that stay optimal
    ):
        object.__setattr__(self, "cell", cell)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "conditional_value", conditional_value)
        object.__setattr__(self, "restricted_value", restricted_value)
        object.__setattr__(self, "exante_face", exante_face)
        object.__setattr__(self, "conditional_face", conditional_face)
        object.__setattr__(self, "common_face", common_face)

    @property
    def value_gap(self) -> Fraction | None:
        """How far an inconsistent cell's conditional optimum exceeds what
        the ex-ante optimizers reach there; None for other cells."""
        if self.status != INCONSISTENT:
            return None
        return self.conditional_value - self.restricted_value

    def to_json(self) -> dict:
        out: dict = {"cell": list(self.cell), "status": self.status}
        if self.conditional_value is not None:
            out["conditional_value"] = str(self.conditional_value)
        if self.restricted_value is not None:
            out["restricted_value"] = str(self.restricted_value)
        if self.value_gap is not None:
            out["value_gap"] = str(self.value_gap)
        for name in ("exante_face", "conditional_face", "common_face"):
            face = getattr(self, name)
            if face is not None:
                out[name] = face.to_json()
        return out


class ConsistencyReport(Record):
    __slots__ = ("player", "exante_solution", "cells")

    def __init__(self, player: str, exante_solution: MaxminSolution, cells: tuple[CellVerdict, ...]):
        object.__setattr__(self, "player", player)
        object.__setattr__(self, "exante_solution", exante_solution)
        object.__setattr__(self, "cells", cells)

    @property
    def overall(self) -> bool:
        return all(c.status != INCONSISTENT for c in self.cells)

    def to_json(self) -> dict:
        return {
            "player": self.player,
            "overall": self.overall,
            "exante": self.exante_solution.to_json(),
            "cells": [c.to_json() for c in self.cells],
        }


def check_dynamic_consistency(pp: PlayerProblem) -> ConsistencyReport:
    """Compare the strategic-form optimum with each reached-cell optimum.

    A cell is consistent when some ex-ante optimizer attains the updated
    problem's full optimum there; cells some prior deems unreachable are
    reported, not judged.  Row j of a cell's matrix is the strategic row of
    the first pure strategy mapped to joint action j, restricted to the
    cell's states: payoffs inside a cell depend only on the actions the
    projection keeps.  The ex-ante face projects by summing each vertex's
    weights per joint action.
    """
    exante = maxmin_solve(pp.exante)
    rows = pp.exante.payoff
    verdicts = []
    for slot in pp.conditionals:
        try:
            conditional_beliefs = pp.posterior(slot.cell)
        except ZeroProbabilityReachError:
            verdicts.append(CellVerdict(slot.cell, UNREACHABLE))
            continue
        width = max(slot.projection) + 1
        columns = [pp.space.index(s) for s in conditional_beliefs.space.labels]
        payoff = [[rows[slot.projection.index(j)][i] for i in columns] for j in range(width)]
        problem = DecisionProblem.build(
            payoff, conditional_beliefs.space, conditional_beliefs
        )
        conditional = maxmin_solve(problem)
        images = []
        for v in exante.optimal_face.vertices:
            image = [Fraction(0)] * width
            for j, weight in zip(slot.projection, v):
                image[j] += weight
            images.append(Vector(image))
        projected = polytope_minimize(Polytope.from_vertices(images))
        restricted = constrained_maxmin(problem, projected)
        consistent = restricted.value == conditional.value
        verdicts.append(
            CellVerdict(
                slot.cell,
                CONSISTENT if consistent else INCONSISTENT,
                conditional_value=conditional.value,
                restricted_value=restricted.value,
                exante_face=projected,
                conditional_face=conditional.optimal_face,
                common_face=restricted.optimal_face if consistent else None,
            )
        )
    return ConsistencyReport(pp.player, exante, tuple(verdicts))


class PayoffSearchResult(Record):
    __slots__ = ("payoffs", "report")

    def __init__(self, payoffs: dict[str, Fraction], report: ConsistencyReport):
        object.__setattr__(self, "payoffs", payoffs)
        object.__setattr__(self, "report", report)


def find_dc_violation_payoffs(pp: PlayerProblem, payoff_grid, slots) -> PayoffSearchResult | None:
    """Scan grid assignments of the free payoff slots, lexicographically.

    Returns the first assignment whose consistency report shows a violation,
    or None when the grid is exhausted.  Every point rebinds ``pp``'s
    values, so the structure and each cell's posterior are derived once.
    """
    grid = [rat(g) for g in payoff_grid]
    slots = list(slots)
    for name in slots:
        if name not in pp.values:
            raise UnboundParameterError(f"binding for undeclared parameter {name!r}")
    for assignment in itertools.product(grid, repeat=len(slots)):
        payoffs = dict(zip(slots, assignment))
        report = check_dynamic_consistency(pp.replace(values={**pp.values, **payoffs}))
        if not report.overall:
            return PayoffSearchResult(payoffs, report)
    return None
