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
    affine_image,
    cleared,
    polytope_contains,
    polytope_minimize,
    rat,
)

Cell = tuple[str, ...]
Partition = tuple[Cell, ...]


class ZeroProbabilityReachError(ValueError):
    """Conditioning on an event that some prior in the set rules out."""

    def __init__(self, event, vertex: Vector):
        self.event = tuple(event)
        self.vertex = vertex
        super().__init__(
            f"event {{{','.join(self.event)}}} has probability 0 under vertex "
            f"({', '.join(vertex.to_json())})"
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
    repeats, in sorted order, so ``==`` compares the hulls.
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
        return cls(space, polytope_minimize(Polytope.from_vertices(vertices)))

    @classmethod
    def singleton(cls, space: StateSpace, point) -> "CredalSet":
        return cls.from_vertices(space, [point])

    @property
    def vertices(self) -> tuple[Vector, ...]:
        return self.set.vertices

    def contains(self, point: Vector) -> bool:
        return polytope_contains(self.set, point)


class Filtration(Record):
    """Intermediate stages of information, each strictly refining the last.

    The trivial coarsest stage and the final singleton stage are implicit;
    ``stages`` lists only what lies between them (the games here need one).
    The constructor stores every stage in state order: each cell's states,
    and the cells by their first state.
    """

    __slots__ = ("space", "stages")

    def __init__(self, space: StateSpace, stages: tuple[Partition, ...]):
        ordered = []
        previous: Partition = (tuple(space.labels),)
        for stage in stages:
            # raises unless the stage partitions the space
            stage = tuple(sorted(_ordered_cells(space, stage), key=lambda c: space.index(c[0])))
            for cell in stage:
                if not any(set(cell) <= set(prev) for prev in previous):
                    raise ValueError(f"cell {cell} does not refine the previous stage")
            ordered.append(stage)
            previous = stage
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "stages", tuple(ordered))

    @classmethod
    def build(cls, space: StateSpace, stages) -> "Filtration":
        return cls(space, stages)


def _ordered_cells(space: StateSpace, stage) -> Partition:
    """The stage's cells, each in the space's state order.

    The stage is checked first to partition the space, so that no state
    outside it reaches ``space.index`` and no gap or overlap reaches a
    marginal: the ValueError names the first empty cell, the first cell
    holding an unknown state or one an earlier cell holds, or the states
    no cell holds.
    """
    covered: set[str] = set()
    for cell in stage:
        if not cell:
            raise ValueError(f"empty cell in stage {tuple(map(tuple, stage))}")
        for s in cell:
            if s not in space.labels:
                raise ValueError(
                    f"cell {tuple(cell)} holds {s!r}, not one of the states {space.labels}"
                )
            if s in covered:
                raise ValueError(f"cell {tuple(cell)} holds {s!r}, which an earlier cell holds")
            covered.add(s)
    missing = tuple(s for s in space.labels if s not in covered)
    if missing:
        shown = tuple(map(tuple, stage))
        raise ValueError(f"stage {shown} does not partition the states: no cell holds {missing}")
    return tuple(tuple(sorted(cell, key=space.index)) for cell in stage)


# -- operations -----------------------------------------------------------


def eps_contamination(center: Vector, eps: Fraction | int | str, space: StateSpace) -> CredalSet:
    """Mix a reference prior with every point mass at weight eps.

    The hull of the mixed unit vectors equals the full eps-blend of the
    simplex around the center.  Every mixed point is extreme: for eps > 0
    they are the unit vectors' images under the injective affine map
    x -> (1 - eps) center + eps x, and for eps = 0 they are all the center,
    kept once.  So the points are sorted, not deduplicated or minimized.
    """
    e = rat(eps)
    if not 0 <= e <= 1:
        raise ValueError(f"contamination weight {e} outside [0, 1]")
    if not center.is_probability():
        raise ValueError("center must be a probability vector")
    # With eps = p/q and the center as integers C over the lcm D of its
    # denominators (D is their sum, the center summing to 1), vertex s is
    # ((q - p) C + p D e_s) / (q D): it shares every entry but the s-th
    # with the others.
    p, q = e.numerator, e.denominator
    ints = cleared(center)
    scale = sum(ints)
    den = q * scale
    shared = [Fraction((q - p) * x, den) for x in ints]
    points = []
    for s, x in enumerate(ints if p else ints[:1]):
        entries = shared.copy()
        entries[s] = Fraction((q - p) * x + p * scale, den)
        points.append(Vector(entries))
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
    indices = [c.space.index(s) for s in cell]
    posts = []
    for v in c.vertices:
        # the cell's entries as integers over their lcm, whose sum is the
        # event's mass over the same lcm, so each posterior entry is the
        # ratio of two integers
        ints = cleared([v[i] for i in indices])
        mass = sum(ints)
        if mass == 0:
            raise ZeroProbabilityReachError(cell, v)
        posts.append(Vector(Fraction(x, mass) for x in ints))
    return CredalSet.from_vertices(StateSpace(cell), posts)


def one_step_ahead(c: CredalSet, stage: Partition) -> CredalSet:
    """Marginal of every prior on the cells of one filtration stage, which
    must partition the set's states."""
    cells = _ordered_cells(c.space, stage)
    space = StateSpace(tuple(cell_label(cell) for cell in cells))
    matrix = [[int(s in cell) for s in c.space.labels] for cell in cells]
    return CredalSet(space, affine_image(c.set, matrix))


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
    sorted, not minimized.  Proof: if ``p`` is the midpoint of two hull
    points, both have marginal ``m``, since the cell masses are linear and
    ``m`` is extreme; on each cell with ``m_c > 0`` both have conditional
    ``q_c``, since ``q_c`` is extreme; cells with ``m_c = 0`` hold zeros,
    made once, so no two products are equal.
    """
    # each active cell's marginal index, state positions and conditional
    active = []
    for i, cell in enumerate(stage):
        cell = tuple(sorted(cell, key=space.index))
        if cell in conditionals:
            active.append((i, [space.index(s) for s in cell], conditionals[cell].vertices))
        elif any(m[i] != 0 for m in marginal.vertices):
            raise ValueError(f"cell {cell} has marginal mass but no conditional")
    # each cell's (state index, mass x conditional entry) products are made
    # once per marginal vertex and conditional vertex, and the hull vertices
    # that reuse them share the Fractions, as they share one zero
    zero = Fraction(0)
    zeros = [zero] * len(space)
    points = []
    for m in marginal.vertices:
        pools = [
            [list(zip(pos, (m[i] * x or zero for x in q))) for q in verts] if m[i] else [()]
            for i, pos, verts in active
        ]
        for combo in itertools.product(*pools):
            entries = zeros.copy()
            for part in combo:
                for i, x in part:
                    entries[i] = x
            points.append(Vector(entries))
    return CredalSet(space, Polytope(tuple(sorted(points))))


def _hull_over_stages(c: CredalSet, stages: tuple[Partition, ...]) -> CredalSet:
    if not stages:
        return c
    # in state order: the Filtration stores its stages so, and restricting
    # them to a cell below keeps the order
    stage = stages[0]
    marginal = one_step_ahead(c, stage)
    conditionals: dict[Cell, CredalSet] = {}
    for i, cell in enumerate(stage):
        if all(m[i] == 0 for m in marginal.vertices):
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


class RectangularityCheck(Record, defaults={"witness": None}):
    """``witness`` is a hull vertex outside the set, None when there is none."""

    __slots__ = ("witness",)

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
    return RectangularityCheck(next((v for v in hull.vertices if v not in c.vertices), None))
