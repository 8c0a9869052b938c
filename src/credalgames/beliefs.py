"""Credal sets over finite state spaces, filtrations, and rectangularity.

A credal set is a convex polytope of probability vectors, stored by its
extreme points.  Conditioning, one-step-ahead marginals, and rectangular
hulls all work vertex-wise.  Conditioning and marginals carry extreme points
onto a superset of the image's extreme points, so their mapped vertices are
minimized.  Composing a rectangular hull and contaminating a prior need no
minimizing: every product of an extreme marginal with extreme conditionals,
and every eps-mixed unit vector, is already extreme.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .exactmath import (
    Polytope,
    Record,
    Vector,
    dot,
    polytope_contains,
    polytope_minimize,
    rat,
    unit_vector,
)

Cell = tuple[str, ...]
Partition = tuple[Cell, ...]


class ZeroProbabilityReachError(ValueError):
    """Conditioning on an event that some prior in the set rules out."""

    def __init__(self, event, vertex: Vector):
        self.event = tuple(event)
        self.vertex = vertex
        super().__init__(
            f"event {self.event} has probability 0 under vertex {vertex}"
        )


class StateSpace(Record):
    __slots__ = ("labels",)

    def __init__(self, labels: tuple[str, ...]):
        if not labels or len(set(labels)) != len(labels):
            raise ValueError("state labels must be unique and nonempty")
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    @classmethod
    def of(cls, *labels: str) -> "StateSpace":
        return cls(tuple(labels))


def cell_label(cell: Cell) -> str:
    return cell[0] if len(cell) == 1 else "{" + ",".join(cell) + "}"


class CredalSet(Record):
    """A minimized polytope of probability vectors over a state space.

    Invariant: ``set.vertices`` are exactly the extreme points, without
    repeats, in sorted order, so ``equals`` compares them directly.
    ``from_vertices`` establishes it by minimizing; code that builds the
    polytope directly must already know every point is extreme (as
    ``compose`` does).
    """

    __slots__ = ("space", "set")

    def __init__(self, space: StateSpace, set: Polytope):
        if set.ambient_dimension != len(space):
            raise ValueError("polytope dimension must match the state count")
        for v in set.vertices:
            if not v.is_probability():
                raise ValueError(f"vertex {v} is not a probability vector")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "set", set)

    @classmethod
    def from_vertices(cls, space: StateSpace, vertices) -> "CredalSet":
        verts = [v if isinstance(v, Vector) else Vector(v) for v in vertices]
        poly = polytope_minimize(Polytope(tuple(verts)))
        return cls(space, poly)

    @classmethod
    def singleton(cls, space: StateSpace, point) -> "CredalSet":
        return cls.from_vertices(space, [point])

    @property
    def vertices(self) -> tuple[Vector, ...]:
        return self.set.vertices

    def contains(self, point: Vector) -> bool:
        return polytope_contains(self.set, point)

    def equals(self, other: "CredalSet") -> bool:
        """Hull equality: the sorted extreme points coincide exactly when the
        hulls do."""
        return self.space == other.space and self.vertices == other.vertices

    def event_mass(self, vertex: Vector, event: Cell) -> Fraction:
        return dot((vertex[self.space.index(s)] for s in event), itertools.repeat(1))


class Filtration(Record):
    """Intermediate stages of information, each strictly refining the last.

    The trivial coarsest stage and the final singleton stage are implicit;
    ``stages`` lists only what lies between them (the games here need one).
    """

    __slots__ = ("space", "stages")

    def __init__(self, space: StateSpace, stages: tuple[Partition, ...]):
        previous: Partition = (tuple(space.labels),)
        for stage in stages:
            seen: list[str] = []
            for cell in stage:
                if not cell:
                    raise ValueError("empty cell in filtration stage")
                if not any(set(cell) <= set(prev) for prev in previous):
                    raise ValueError(f"cell {cell} does not refine the previous stage")
                seen.extend(cell)
            if sorted(seen) != sorted(space.labels):
                raise ValueError("stage cells must partition the state space")
            previous = stage
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "stages", stages)

    @classmethod
    def build(cls, space: StateSpace, stages) -> "Filtration":
        def order(cell):
            return tuple(sorted(cell, key=space.index))

        norm = tuple(
            tuple(sorted((order(c) for c in stage), key=lambda c: space.index(c[0])))
            for stage in stages
        )
        return cls(space, norm)


# -- operations -----------------------------------------------------------


def eps_contamination(center: Vector, eps: Fraction | int | str, space: StateSpace) -> CredalSet:
    """Mix a reference prior with every point mass at weight eps.

    The hull of the mixed unit vectors equals the full eps-blend of the
    simplex around the center.  Every mixed point is extreme: for eps > 0
    they are the unit vectors' images under the injective affine map
    x -> (1 - eps) center + eps x, and for eps = 0 they are all the center.
    So the points are deduplicated and sorted, not minimized.
    """
    e = rat(eps)
    if not 0 <= e <= 1:
        raise ValueError(f"contamination weight {e} outside [0, 1]")
    if not center.is_probability():
        raise ValueError("center must be a probability vector")
    points = {
        center.scale(1 - e) + unit_vector(center.dimension, s).scale(e)
        for s in range(center.dimension)
    }
    return CredalSet(space, Polytope(tuple(sorted(points))))


def full_bayes_update(c: CredalSet, event) -> CredalSet:
    """Condition every prior in the set on the event and collect posteriors.

    Raises ZeroProbabilityReachError when some extreme prior gives the event
    probability zero; silently taking closures would decide unstated theory.
    """
    event = tuple(event)
    if not event or len(set(event)) != len(event) or not set(event) <= set(c.space.labels):
        raise ValueError(f"event {event} is not a set of the states {c.space.labels}")
    cell = tuple(sorted(event, key=c.space.index))
    for v in c.vertices:
        if c.event_mass(v, cell) == 0:
            raise ZeroProbabilityReachError(cell, v)
    sub = StateSpace(cell)
    indices = [c.space.index(s) for s in cell]
    posts = []
    for v in c.vertices:
        mass = c.event_mass(v, cell)
        posts.append(Vector(v[i] / mass for i in indices))
    return CredalSet.from_vertices(sub, posts)


def one_step_ahead(c: CredalSet, stage: Partition) -> CredalSet:
    """Marginal of every prior on the cells of one filtration stage."""
    cells = tuple(tuple(sorted(cell, key=c.space.index)) for cell in stage)
    space = StateSpace(tuple(cell_label(cell) for cell in cells))
    margs = [
        Vector(c.event_mass(v, cell) for cell in cells) for v in c.vertices
    ]
    return CredalSet.from_vertices(space, margs)


def compose(
    space: StateSpace,
    stage: Partition,
    marginal: CredalSet,
    conditionals: dict[Cell, CredalSet],
) -> CredalSet:
    """All products of an extreme marginal with extreme per-cell conditionals.

    Cells missing from ``conditionals`` must carry zero marginal mass at
    every extreme point; their states get probability zero.

    Precondition: ``marginal`` and every conditional are minimized, so their
    vertices are extreme (every CredalSet built by this module is).  Then
    each product ``p = m x q`` is extreme in the hull, so the products are
    deduplicated and sorted, not minimized.  Proof: if ``p`` is the midpoint
    of two hull points, both have marginal ``m``, since the cell masses are
    linear and ``m`` is extreme; on each cell with ``m_c > 0`` both have
    conditional ``q_c``, since ``q_c`` is extreme; cells with ``m_c = 0``
    hold zeros.  So both points equal ``p``.
    """
    cells = tuple(tuple(sorted(cell, key=space.index)) for cell in stage)
    active = [cell for cell in cells if cell in conditionals]
    for cell in cells:
        if cell in conditionals:
            continue
        i = cells.index(cell)
        for m in marginal.vertices:
            if m[i] != 0:
                raise ValueError(
                    f"cell {cell} has marginal mass but no conditional"
                )
    # each cell's (state index, mass x conditional entry) products are made
    # once per marginal vertex and conditional vertex, and the hull vertices
    # that reuse them share the Fractions, as they share one zero
    positions = {cell: [space.index(s) for s in cell] for cell in active}
    zero = Fraction(0)
    zeros = [zero] * len(space)
    points = set()
    for m in marginal.vertices:
        pools = []
        for cell in active:
            mass = m[cells.index(cell)]
            pools.append(
                [
                    list(zip(positions[cell], (mass * x or zero for x in q)))
                    for q in conditionals[cell].vertices
                ]
            )
        for combo in itertools.product(*pools):
            entries = zeros.copy()
            for part in combo:
                for i, x in part:
                    entries[i] = x
            points.add(Vector(entries))
    return CredalSet(space, Polytope(tuple(sorted(points))))


def _hull_over_stages(c: CredalSet, stages: tuple[Partition, ...]) -> CredalSet:
    if not stages:
        return c
    stage = tuple(tuple(sorted(cell, key=c.space.index)) for cell in stages[0])
    marginal = one_step_ahead(c, stage)
    conditionals: dict[Cell, CredalSet] = {}
    for cell in stage:
        masses = [c.event_mass(v, cell) for v in c.vertices]
        if all(m == 0 for m in masses):
            continue  # dead cell: no conditional needed, contributes zero
        if len(cell) == 1:
            # a one-state cell forces the point mass; no conditioning needed
            conditionals[cell] = CredalSet.singleton(StateSpace(cell), [1])
            continue
        cond = full_bayes_update(c, cell)  # raises on mixed zero/positive
        rest = []
        for later in stages[1:]:
            restricted = tuple(
                tuple(s for s in other if s in cell)
                for other in later
                if any(s in cell for s in other)
            )
            rest.append(restricted)
        conditionals[cell] = _hull_over_stages(cond, tuple(rest))
    return compose(c.space, stage, marginal, conditionals)


def rectangular_hull(c: CredalSet, f: Filtration) -> CredalSet:
    """Smallest rectangular credal set containing c for the filtration.

    Built by recombining every extreme one-step-ahead marginal with every
    choice of extreme per-cell conditionals, recursing backward through the
    stages when there is more than one.
    """
    if f.space != c.space:
        raise ValueError("filtration and credal set use different state spaces")
    return _hull_over_stages(c, f.stages)


class RectangularityCheck(Record):
    __slots__ = ("witness",)

    def __init__(self, witness: Vector | None = None):  # a hull vertex outside the set
        object.__setattr__(self, "witness", witness)

    @property
    def rectangular(self) -> bool:
        return self.witness is None

    def __bool__(self) -> bool:
        return self.rectangular


def is_rectangular(c: CredalSet, f: Filtration) -> RectangularityCheck:
    """True when recombining marginals and conditionals never leaves the set.

    On failure the witness is the first vertex of the hull, in its canonical
    order, that lies outside c.  No membership test is needed: the hull
    contains c, so a hull vertex lying in c is extreme in c and is one of
    ``c.vertices``, and when every hull vertex is, the hull equals c.
    """
    hull = rectangular_hull(c, f)
    own = set(c.vertices)
    return RectangularityCheck(next((v for v in hull.vertices if v not in own), None))
