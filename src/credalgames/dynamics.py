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
from dataclasses import dataclass, field
from fractions import Fraction

from .beliefs import (
    CredalSet,
    Filtration,
    StateSpace,
    ZeroProbabilityReachError,
    cell_label,
    full_bayes_update,
)
from .exactmath import Polytope, Vector, affine_image, rat, unit_vector
from .gametree import (
    GameTree,
    Node,
    PayoffEntry,
    TerminalNode,
    validate_perfect_recall,
)
from .maxmin import DecisionProblem, MaxminSolution, constrained_maxmin, maxmin_solve

CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"
UNREACHABLE = "unreachable"


class StateSpaceError(ValueError):
    """Opponent-path states cannot be wired to the given beliefs/payoffs."""


@dataclass(frozen=True)
class ConditionalSlot:
    """One stage-1 cell where the player acts.

    ``projection`` has one row per joint action at the player's information
    sets reachable inside the cell and one column per strategy coordinate;
    each column holds exactly one 1, at the joint action that pure strategy
    takes inside the cell.  It marginalizes full mixed strategies onto the
    cell's joint actions (Kuhn's construction).  Payoffs on the cell's
    states depend only on those actions, so the cell matrix is derived from
    the strategic one, never stored.
    """

    cell: tuple[str, ...]
    projection: tuple[tuple[Fraction, ...], ...]


class Posteriors:
    """One credal set's full Bayes updates, each cell's made on first read.

    Problems bound to the same beliefs share one instance, so a cell's
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


@dataclass(frozen=True)
class PlayerProblem:
    player: str
    exante: DecisionProblem
    filtration: Filtration
    conditionals: tuple[ConditionalSlot, ...]
    posterior: Posteriors = field(compare=False, repr=False)  # of exante.beliefs

    def __post_init__(self):
        # swapping in other beliefs must not keep the old beliefs' posteriors
        if self.posterior.beliefs is not self.exante.beliefs:
            raise ValueError("the posteriors belong to other beliefs than the problem's")

    @property
    def space(self) -> StateSpace:
        return self.exante.space


# -- deriving the state structure from a game -------------------------------


@dataclass(frozen=True)
class _State:
    label: str
    path: tuple[str, ...]
    infoset: int | None  # the player's information set reached, if any


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
            states.append(_State(name, path, None))
            return
        if node.player == player:
            states.append(_State(name, path, game.infoset_at(path)[1]))
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
    projections: dict[int, list[list[Fraction]]] = {}
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
        projections[ci] = [
            [Fraction(int(all(p[s.index] == a for s, a in zip(sets, cp)))) for p in full_pures]
            for cp in joint
        ]

    def follow(path, assignment: dict[int, int]) -> PayoffEntry:
        """The player's payoff below ``path`` given his own choices.

        Opponent nodes below are explored on all branches; their choices
        must not matter, else the states do not determine payoffs.
        """
        node = game.node_at(path)
        if isinstance(node, TerminalNode):
            return node.payoffs[pidx]
        if node.player == player:
            action = assignment[game.infoset_at(path)[1]]
            return follow(path + (node.actions[action],), assignment)
        seen: list[PayoffEntry] = []
        for label in node.actions:
            seen.append(follow(path + (label,), assignment))
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
        sym_rows.append([follow(s.path, assignment) for s in states])

    strategy_labels = tuple(
        "".join(own_sets[i].actions[a] for i, a in enumerate(pure)) or "(none)"
        for pure in full_pures
    )
    return states, list(grouped.values()), projections, sym_rows, strategy_labels


def _identical_column_groups(cells, rows):
    """Group state indices with identical payoff columns inside each cell.

    ``cells`` lists each stage-1 cell's state indices; ``rows`` may hold
    symbolic payoff entries or Fractions.  Returns every group ordered by
    first index, and per cell its groups in order of first appearance.
    """
    per_cell: list[list[list[int]]] = []
    for members in cells:
        by_column: dict[tuple, list[int]] = {}
        for i in members:
            by_column.setdefault(tuple(row[i] for row in rows), []).append(i)
        per_cell.append(list(by_column.values()))
    groups = sorted((g for cell in per_cell for g in cell), key=lambda g: g[0])
    return groups, per_cell


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
        slots.append(ConditionalSlot(cell, tuple(tuple(row) for row in projection)))
    return filtration, tuple(slots)


def _player_problem(
    player: str, rows, posteriors: Posteriors, filtration: Filtration, slots
) -> PlayerProblem:
    """Assemble a player problem from its strategic matrix and its layout."""
    exante = DecisionProblem.build(rows, filtration.space, posteriors.beliefs)
    return PlayerProblem(player, exante, filtration, slots, posteriors)


@dataclass(frozen=True)
class PlayerStructure:
    """The part of a player problem that no payoff value or belief changes.

    ``rows`` is the strategic matrix over the filtration's states, each
    entry an exact value or a parameter name.  A search or a sweep derives
    the structure once and binds it per point; binding only rebuilds the
    ex-ante matrix.
    """

    game: GameTree
    player: str
    filtration: Filtration
    conditionals: tuple[ConditionalSlot, ...]
    rows: tuple[tuple[PayoffEntry, ...], ...]
    strategy_labels: tuple[str, ...]

    def bind(self, posteriors: Posteriors, bindings: dict | None = None) -> PlayerProblem:
        """The player problem under these beliefs and parameter bindings."""
        values = self.game.resolve_parameters(bindings)
        rows = [[self.game.payoff_value(e, values) for e in row] for row in self.rows]
        return _player_problem(
            self.player, rows, posteriors, self.filtration, self.conditionals
        )


def player_structure(game: GameTree, player: str, space: StateSpace) -> PlayerStructure:
    """Derive a player's payoff-free structure over the beliefs' states.

    ``space`` may be either the raw opponent-path states or their
    payoff-identical aggregation (in which case the merged states adopt the
    space's labels, as with a combined state named Z).
    """
    states, cells, projections, sym_rows, labels = _derive_structure(game, player)
    want = space.labels

    if tuple(s.label for s in states) == want:  # the all-singleton grouping
        groups = [[i] for i in range(len(states))]
        per_cell = [[[i] for i in m] for m in cells]
    else:
        groups, per_cell = _identical_column_groups(cells, sym_rows)
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
    return PlayerStructure(game, player, filtration, slots, rows, labels)


def build_player_problem(
    game: GameTree,
    player: str,
    opponent_beliefs: CredalSet,
    bindings: dict | None = None,
) -> PlayerProblem:
    """Wire a player's strategic and conditional problems from the game."""
    structure = player_structure(game, player, opponent_beliefs.space)
    return structure.bind(Posteriors(opponent_beliefs), bindings)


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
    identity = [unit_vector(len(payoff_rows), i) for i in range(len(payoff_rows))]
    filtration, slots = _layout(space, stage, [(cell, identity) for cell in acting_cells])
    return _player_problem(player, payoff_rows, Posteriors(beliefs), filtration, slots)


def aggregate_identical_payoff_states(
    pp: PlayerProblem, merged_labels: dict[frozenset, str] | None = None
) -> PlayerProblem:
    """Merge states with identical payoff columns inside one stage-1 cell.

    Beliefs are pushed forward by the coordinate-summing map; states in
    different cells never merge (that would coarsen the filtration).
    Merged states are labelled {A,B,...} unless ``merged_labels`` names them.
    Projections carry over unchanged, since merging touches no strategy.
    """
    space = pp.space
    rows = pp.exante.payoff
    renames = {frozenset(k): v for k, v in (merged_labels or {}).items()}

    groups, per_cell = _identical_column_groups(
        [[space.index(s) for s in cell] for cell in pp.filtration.stages[0]], rows
    )

    label_of_old: dict[int, str] = {}
    for group in groups:
        olds = tuple(space.labels[i] for i in group)
        if len(group) == 1:
            label = olds[0]
        else:
            label = renames.get(frozenset(olds), cell_label(olds))
        label_of_old.update(dict.fromkeys(group, label))
    new_space = StateSpace(tuple(label_of_old[g[0]] for g in groups))

    summing = [
        [Fraction(1) if old in group else Fraction(0) for old in range(len(space))]
        for group in groups
    ]
    new_set = affine_image(pp.exante.beliefs.set, summing)
    new_beliefs = CredalSet(new_space, new_set)

    new_rows = [[row[group[0]] for group in groups] for row in rows]
    new_stage = [[label_of_old[g[0]] for g in cell] for cell in per_cell]
    acting = [
        ({label_of_old[space.index(s)] for s in slot.cell}, slot.projection)
        for slot in pp.conditionals
    ]
    filtration, slots = _layout(new_space, new_stage, acting)
    return _player_problem(pp.player, new_rows, Posteriors(new_beliefs), filtration, slots)


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
        l, r, o = v.entries
        for n in {a, b}:
            images.append(Vector([l + r * (1 - n), r * n, o]))
    return CredalSet.from_vertices(out_space, images)


# -- dynamic consistency ----------------------------------------------------


@dataclass(frozen=True)
class CellVerdict:
    cell: tuple[str, ...]
    status: str
    conditional_value: Fraction | None = None  # optimum after updating
    restricted_value: Fraction | None = None  # best ex-ante optimizer does
    value_gap: Fraction | None = None
    exante_face: Polytope | None = None  # projected to the cell's coordinates
    conditional_face: Polytope | None = None
    common_face: Polytope | None = None  # ex-ante optimizers that stay optimal

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


@dataclass(frozen=True)
class ConsistencyReport:
    player: str
    exante_solution: MaxminSolution
    cells: tuple[CellVerdict, ...]

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
    a pure strategy that projects onto joint action j (a column holding a 1
    in projection row j), restricted to the cell's states.  Payoffs inside a
    cell depend only on the actions the projection keeps, so every such pure
    strategy gives the same row.
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
        columns = [pp.space.index(s) for s in conditional_beliefs.space.labels]
        payoff = [[rows[p.index(1)][i] for i in columns] for p in slot.projection]
        problem = DecisionProblem.build(
            payoff, conditional_beliefs.space, conditional_beliefs
        )
        conditional = maxmin_solve(problem)
        projected = affine_image(exante.optimal_face, slot.projection)
        restricted = constrained_maxmin(problem, projected)
        consistent = restricted.value == conditional.value
        verdicts.append(
            CellVerdict(
                slot.cell,
                CONSISTENT if consistent else INCONSISTENT,
                conditional_value=conditional.value,
                restricted_value=restricted.value,
                value_gap=None if consistent else conditional.value - restricted.value,
                exante_face=projected,
                conditional_face=conditional.optimal_face,
                common_face=restricted.optimal_face if consistent else None,
            )
        )
    return ConsistencyReport(pp.player, exante, tuple(verdicts))


@dataclass(frozen=True)
class PayoffSearchResult:
    payoffs: dict[str, Fraction]
    report: ConsistencyReport


def find_dc_violation_payoffs(
    game: GameTree,
    player: str,
    beliefs: CredalSet,
    payoff_grid,
    slots,
    bindings: dict | None = None,
) -> PayoffSearchResult | None:
    """Scan grid assignments of the free payoff slots, lexicographically.

    Returns the first assignment whose consistency report shows a violation,
    or None when the grid is exhausted.  The structure and each cell's
    posterior are derived once; every point only rebinds the payoffs.
    """
    grid = [rat(g) for g in payoff_grid]
    slots = list(slots)
    base = dict(bindings or {})
    structure = player_structure(game, player, beliefs.space)
    posteriors = Posteriors(beliefs)
    for assignment in itertools.product(grid, repeat=len(slots)):
        full = dict(base)
        full.update(zip(slots, assignment))
        report = check_dynamic_consistency(structure.bind(posteriors, full))
        if not report.overall:
            return PayoffSearchResult(dict(zip(slots, assignment)), report)
    return None
