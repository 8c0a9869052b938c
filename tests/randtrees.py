"""Random perfect-recall game generator shared by the test modules, and
the leaf builder for hand-built trees.

Trees are grown first, then information sets are assigned level by level:
nodes may share a set only when their owner's past (set, action) sequence
matches, so every generated partition has perfect recall by construction.
"""

from __future__ import annotations

import random
from fractions import Fraction

from credalgames.gametree import (
    BehavioralStrategy,
    DecisionNode,
    GameTree,
    MixedStrategy,
    TerminalNode,
)
from credalgames.exactmath import Vector

ACTION_NAMES = ("a", "b", "c")


def terminal(payoffs) -> TerminalNode:
    """A leaf whose entries are parameter names or exact rationals."""
    return TerminalNode(tuple(p if isinstance(p, str) else Fraction(p) for p in payoffs))


def _grow(rng: random.Random, players, budget: list[int], depth: int):
    leaf_chance = 0.25 + 0.22 * depth
    if budget[0] <= 1 or depth >= 4 or (depth > 0 and rng.random() < leaf_chance):
        budget[0] -= 1
        payoffs = tuple(Fraction(rng.randint(-4, 8), rng.choice([1, 1, 2])) for _ in players)
        return TerminalNode(payoffs)
    arity = rng.choice([2, 2, 3])
    arity = min(arity, budget[0])
    if arity < 2:
        budget[0] -= 1
        payoffs = tuple(Fraction(rng.randint(-4, 8)) for _ in players)
        return TerminalNode(payoffs)
    budget[0] -= arity - 1
    player = rng.choice(players)
    children = []
    for _ in range(arity):
        budget[0] += 1
        children.append(_grow(rng, players, budget, depth + 1))
    return DecisionNode(player, ACTION_NAMES[:arity], tuple(children))


def random_perfect_recall_game(rng: random.Random, max_players: int = 3, max_terminals: int = 8) -> GameTree:
    players = [str(i + 1) for i in range(rng.randint(1, max_players))]
    budget = [rng.randint(3, max_terminals)]
    root = _grow(rng, players, budget, 0)
    while not isinstance(root, DecisionNode):
        budget = [rng.randint(3, max_terminals)]
        root = _grow(rng, players, budget, 0)

    # breadth-first walk; group nodes whose owner's own history matches
    levels: list[list[tuple[tuple[str, ...], DecisionNode]]] = [[((), root)]]
    while levels[-1]:
        nxt = []
        for path, node in levels[-1]:
            for label, child in zip(node.actions, node.children):
                if isinstance(child, DecisionNode):
                    nxt.append((path + (label,), child))
        levels.append(nxt)

    set_of_path: dict[tuple[str, ...], int] = {}
    members: list[list[tuple[str, ...]]] = []

    def own_history(player: str, path: tuple[str, ...]):
        node = root
        out = []
        for depth, label in enumerate(path):
            if node.player == player:
                out.append((set_of_path[path[:depth]], node.actions.index(label)))
            node = node.children[node.actions.index(label)]
        return tuple(out)

    for level in levels:
        open_groups: dict[tuple, list[int]] = {}
        for path, node in level:
            key = (node.player, node.actions, own_history(node.player, path))
            candidates = open_groups.setdefault(key, [])
            if candidates and rng.random() < 0.6:
                idx = rng.choice(candidates)
            else:
                idx = len(members)
                members.append([])
                candidates.append(idx)
            set_of_path[path] = idx
            members[idx].append(path)

    specs = [[list(p) for p in group] for group in members if len(group) > 1]
    return GameTree(players, root, specs)


def random_mixed(rng: random.Random, game: GameTree, player: str) -> MixedStrategy:
    pures = game.pure_strategies(player)
    weights = [Fraction(rng.randint(0, 6)) for _ in pures]
    if sum(weights) == 0:
        weights[rng.randrange(len(weights))] = Fraction(1)
    total = sum(weights)
    return MixedStrategy(player, Vector(w / total for w in weights))


def random_behavioral(rng: random.Random, game: GameTree, player: str) -> BehavioralStrategy:
    choices = []
    for iset in game.information_sets_for(player):
        raw = [Fraction(rng.randint(0, 5)) for _ in iset.actions]
        if sum(raw) == 0:
            raw[rng.randrange(len(raw))] = Fraction(1)
        total = sum(raw)
        choices.append(Vector(w / total for w in raw))
    return BehavioralStrategy(player, tuple(choices))
