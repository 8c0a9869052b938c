"""The three benchmark workloads: seeded inputs, the op each input drives, and
the exact oracle each op's output must pass.

Inputs come in cycles.  A cycle holds every size class of its workload once
(only the contents are drawn from the seed), so runs on different seeds and
on hosts of different speed measure the same mix as long as they stop on a
cycle boundary.  ``build`` makes a pool of cycles; the run walks the pool
round-robin.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
from fractions import Fraction

THRESHOLD = Fraction(1, 102)


def _rational(rng) -> Fraction:
    return Fraction(rng.randint(-9, 12), rng.choice((1, 2)))


class Workload:
    pool_cycles = 8

    def __init__(self, scratch: str):
        self.scratch = scratch  # a directory the ops may write into

    def deferred_check(self, cg, op, out) -> str | None:
        """An oracle run after the timed loop and the peak-RSS reading."""
        return None


# -- paper-scenarios ----------------------------------------------------------

# fig1 at its built-in eps = 1/4: the four-vertex rectangular hull
FIG1_HULL = {("0", "3/4", "1/4"), ("0", "1", "0"), ("3/16", "9/16", "1/4"), ("1/4", "3/4", "0")}
# fig4: player 1's quadrilateral pushed through n in [1/3, 1/2]
FIG4_INDUCED = {
    ("35/64", "21/64", "1/8"),
    ("35/48", "7/48", "1/8"),
    ("5/12", "1/12", "1/2"),
    ("5/16", "3/16", "1/2"),
}


class PaperScenarios(Workload):
    """The paper's CLI commands, run in-process through ``cli.main``."""

    def __init__(self, scratch: str):
        super().__init__(scratch)
        self.svg_path = os.path.join(scratch, "fig1.svg")
        self.svg_sha = None

    def _eps_near_threshold(self, rng) -> Fraction:
        # straddles 1/102 ~ 0.0098: about half the draws are consistent
        return Fraction(rng.randint(1, 200), 10000)

    def build(self, cg, rng) -> list[list[tuple]]:
        cycles = []
        for _ in range(self.pool_cycles):
            cycle = [
                ("analyze-fig1", ["analyze", "fig1"]),
                ("analyze-fig1", ["analyze", "fig1"]),
                ("analyze-fig4", ["analyze", "fig4"]),
                ("sweep-bisect", ["sweep", "--bisect", "1/2040000:1/51"]),
                ("check-rect", ["check-rect", "fig4"]),
                ("check-rect", ["check-rect", "fig4"]),
                ("rect-hull", ["rect-hull", "fig1"]),
                ("rect-hull", ["rect-hull", "fig1"]),
                (
                    "render",
                    ["render", "fig1", "--layers", "hull,beliefs,update", "--out", self.svg_path],
                ),
            ]
            # 15 ops: the top tenth is fig4 and half the bisections, so p90
            # falls in the middle of the bisection samples
            for _ in range(3):
                eps = self._eps_near_threshold(rng)
                cycle.append(("check-dc", ["check-dc", "fig1", "--eps", str(eps)]))
            for _ in range(2):
                eps = Fraction(rng.randint(1, 990), 1000)
                cycle.append(
                    ("check-dc-rect", ["check-dc", "fig1", "--eps", str(eps), "--rectangularize"])
                )
            eps_list = ",".join(str(self._eps_near_threshold(rng)) for _ in range(8))
            cycle.append(("sweep-list", ["sweep", "--eps-list", eps_list]))
            rng.shuffle(cycle)
            cycles.append([(kind, argv + ["--json"]) for kind, argv in cycle])
        return cycles

    def run(self, cg, op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cg.cli.main(op[1])
        return code, buf.getvalue()

    def check(self, cg, op, out) -> str | None:
        kind, argv = op
        code, text = out
        if code != 0:
            return f"exit code {code}"
        data = json.loads(text)
        if kind == "sweep-bisect":
            if data["threshold"] != "1/102":
                return f"bisection threshold {data['threshold']}"
            return None
        if kind == "sweep-list":
            eps = [Fraction(e) for e, _ in data["entries"]]
            if eps != sorted(Fraction(x) for x in argv[2].split(",")):
                return "sweep entries are not the sorted eps list"
            for e, verdict in data["entries"]:
                want = "consistent" if Fraction(e) <= THRESHOLD else "inconsistent"
                if verdict != want:
                    return f"sweep verdict {verdict} at eps {e}"
            return None
        results = {r["analysis"]: r for r in data["results"]}
        if kind == "analyze-fig1":
            dc = results["check-dc"]
            gaps = [c.get("value_gap") for c in dc["cells"]]
            if dc["overall"] or "4949/204" not in gaps:
                return f"fig1 at eps 1/4: overall {dc['overall']}, gaps {gaps}"
            if not results["validate"]["perfect_recall"]:
                return "fig1 lacks perfect recall"
            return None
        if kind == "analyze-fig4":
            if {tuple(v) for v in results["induce"]["vertices"]} != FIG4_INDUCED:
                return "fig4 induced set differs from the quadrilateral"
            if results["check-rect"]["rectangular"]:
                return "fig4 induced set reported rectangular"
            search = results["find-payoffs"]
            if not search["found"] or search["report"]["overall"]:
                return "find-payoffs found no violation"
            return None
        if kind == "check-rect":
            return "fig4 reported rectangular" if results["check-rect"]["rectangular"] else None
        if kind == "rect-hull":
            hull = results["rect-hull"]
            if {tuple(v) for v in hull["vertices"]} != FIG1_HULL or hull["was_rectangular"]:
                return "fig1 hull differs from the four-vertex hull"
            return None
        if kind == "check-dc":
            eps = Fraction(argv[argv.index("--eps") + 1])
            overall = results["check-dc"]["overall"]
            if overall != (eps <= THRESHOLD):
                return f"check-dc at eps {eps}: overall {overall}"
            return None
        if kind == "check-dc-rect":
            return None if results["check-dc"]["overall"] else "hulled fig1 inconsistent"
        if kind == "render":
            with open(self.svg_path, "rb") as handle:
                doc = handle.read()
            os.remove(self.svg_path)
            sha = hashlib.sha256(doc).hexdigest()[:16]
            if sha != results["render"]["sha256"] or not doc.startswith(b"<?xml"):
                return "render wrote a different document than it reported"
            if self.svg_sha is None:
                self.svg_sha = sha
            return None if sha == self.svg_sha else "render output is not byte-identical"
        return f"unknown op kind {kind}"


# -- wide-maxmin ----------------------------------------------------------------

SIZES = (3, 4, 5, 6)
# (actions k, belief vertices v) of the 20 problems in a cycle.  Sorted by
# cost, 8 problems lie below the (4, 5) class and 8 above it.  (4, 5) appears
# four times and (6, 5) twice, so p50 falls in the middle of the (4, 5) block
# and p90 in the middle of the (6, 5) block, not at the edge between two size
# classes, and each percentile rests on several samples per cycle.
CLASSES = tuple((k, v) for k in SIZES for v in SIZES) + ((4, 5),) * 3 + ((6, 5),)
FLOAT_TOLERANCE = 1e-7  # relative, on the float (HiGHS) side only


class WideMaxmin(Workload):
    """maxmin_solve (and constrained_maxmin for a fifth) on wide problems.

    A cycle holds one problem per class in CLASSES (actions k and belief
    vertices v in 3..6) over n = v states.  The belief vertices are v
    distinct permutations of one probability vector with distinct entries,
    which are always extreme, so every problem has exactly v vertices.  The
    problems with v = 3 go through constrained_maxmin, restricted to the
    hull of three seeded strategies.
    """

    def build(self, cg, rng) -> list[list[tuple]]:
        cycles = []
        for _ in range(self.pool_cycles):
            cycle = []
            for k, v in CLASSES:
                n = v
                weights = rng.sample(range(1, 13), n)
                total = sum(weights)
                perms = rng.sample(list(itertools.permutations(weights)), v)
                space = cg.beliefs.StateSpace(tuple(f"s{i}" for i in range(n)))
                beliefs = cg.beliefs.CredalSet.from_vertices(
                    space, [[Fraction(w, total) for w in p] for p in perms]
                )
                if len(beliefs.vertices) != v:
                    raise RuntimeError("permutohedron vertices must all be extreme")
                rows = [[_rational(rng) for _ in range(n)] for _ in range(k)]
                problem = cg.maxmin.DecisionProblem.build(rows, space, beliefs)
                restriction = None
                if v == 3:
                    points = []
                    for _ in range(3):
                        w = [rng.randint(0, 5) for _ in range(k)]
                        w[rng.randrange(k)] += 1
                        points.append([Fraction(x, sum(w)) for x in w])
                    restriction = cg.exactmath.Polytope.from_vertices(points)
                cycle.append((problem, restriction))
            rng.shuffle(cycle)
            cycles.append(cycle)
        return cycles

    def run(self, cg, op):
        problem, restriction = op
        if restriction is None:
            return cg.maxmin.maxmin_solve(problem)
        return cg.maxmin.constrained_maxmin(problem, restriction)

    def check(self, cg, op, sol) -> str | None:
        problem, restriction = op
        value_of = cg.maxmin.maxmin_value_of
        if value_of(sol.strategy, problem) != sol.value:
            return "strategy does not attain the value"
        if sol.strategy != sol.optimal_face.vertices[0]:
            return "strategy is not the smallest face vertex"
        for vertex in sol.optimal_face.vertices:
            if value_of(vertex, problem) != sol.value:
                return f"face vertex {vertex} misses the value"
        if restriction is not None and not cg.exactmath.polytope_contains(
            restriction, sol.strategy
        ):
            return "strategy leaves the restriction"
        if not sol.binding_vertices or any(
            sol.strategy.dot(problem.action_values(b)) != sol.value
            for b in sol.binding_vertices
        ):
            return "binding priors do not bind"
        return None

    def deferred_check(self, cg, op, sol) -> str | None:
        """Compare the exact value with scipy HiGHS (float side tolerance)."""
        from scipy.optimize import linprog

        problem, restriction = op
        gains = [
            [float(x) for x in problem.action_values(b)] for b in problem.beliefs.vertices
        ]
        if restriction is not None:
            corners = [[float(x) for x in r] for r in restriction.vertices]
            gains = [[sum(a * b for a, b in zip(r, g)) for r in corners] for g in gains]
        m = len(gains[0])
        result = linprog(
            [0.0] * m + [-1.0],
            A_ub=[[-x for x in g] + [1.0] for g in gains],
            b_ub=[0.0] * len(gains),
            A_eq=[[1.0] * m + [0.0]],
            b_eq=[1.0],
            bounds=[(0, None)] * m + [(None, None)],
            method="highs",
        )
        exact = float(sol.value)
        if result.status != 0 or abs(-result.fun - exact) > FLOAT_TOLERANCE * max(1.0, abs(exact)):
            return f"HiGHS value {-result.fun} vs exact {sol.value}"
        return None


# -- rect-hull ------------------------------------------------------------------

# (cell sizes of the intermediate stage, belief vertices, dead cell, cell split
# again by a second stage, actions).  Cells run over the states in order.
# The hulls have 16 vertices for the last two shapes and 4 to 9 for the rest.
# With 15 shapes the top tenth of a run is the (4, 2, 1) ops and half the
# (2, 2, 2) ones, so p90 falls in the middle of a shape's samples.
SHAPES = (
    ((2, 2), 2, None, None, 2),
    ((2, 2), 3, None, None, 3),
    ((2, 1, 1), 3, None, None, 3),
    ((3, 1), 2, None, 0, 2),
    ((3, 2), 2, None, None, 3),
    ((2, 2, 1), 2, 2, None, 3),
    ((3, 1, 1), 3, None, None, 2),
    ((4, 1), 2, None, 0, 3),
    ((2, 2, 2), 2, 0, None, 3),
    ((3, 3), 2, None, None, 2),
    ((2, 3, 2), 2, 2, None, 2),
    ((3, 3, 1), 2, 1, None, 3),
    ((5, 2), 2, None, None, 2),
    ((2, 2, 2), 2, None, None, 2),
    ((4, 2, 1), 2, None, 0, 3),
)


def _normalised(vertex, states) -> tuple:
    mass = sum(vertex[s] for s in states)
    return tuple(vertex[s] / mass for s in states)


def _distinct(verts, group, v) -> bool:
    """The v priors differ in their normalised cell masses over the group
    and in their conditionals on each of its cells of two or more states."""
    masses = [[sum(vx[s] for s in cell) for cell in group] for vx in verts]
    if len({_normalised(m, range(len(group))) for m in masses}) != v:
        return False
    return all(
        len({_normalised(vx, cell) for vx in verts}) == v for cell in group if len(cell) > 1
    )


def _priors(rng, n: int, zero, groups, v: int) -> list[list[Fraction]]:
    """v priors over n states, zero on the dead states and positive elsewhere,
    drawn until they are distinct (see _distinct) in every group of cells."""
    while True:
        verts = []
        for _ in range(v):
            w = [0 if s in zero else rng.randint(1, 9) for s in range(n)]
            verts.append([Fraction(x, sum(w)) for x in w])
        if all(_distinct(verts, group, v) for group in groups):
            return verts


class RectHull(Workload):
    """rectangular_hull, is_rectangular and a consistency check per op.

    A cycle holds one credal set per shape in SHAPES (4-7 states, 2-3 cells,
    three two-stage filtrations, four dead cells).  Vertices are drawn until
    every live cell's conditionals and the marginals are pairwise distinct,
    so hull sizes depend on the shape, not the seed.  The consistency check
    runs on a one-cell player problem over the hulled beliefs, with payoffs
    constant across actions outside the acting cell.
    """

    def build(self, cg, rng) -> list[list[tuple]]:
        cycles = []
        for _ in range(self.pool_cycles):
            cycle = []
            for sizes, v, dead, split, actions in SHAPES:
                n = sum(sizes)
                cuts = list(itertools.accumulate(sizes))
                cells = [tuple(range(a, b)) for a, b in zip([0] + cuts, cuts)]
                live = [c for i, c in enumerate(cells) if i != dead]
                groups = [live]
                stages = [cells]
                if split is not None:
                    cell = cells[split]
                    parts = [cell[:1], cell[1:]]
                    groups.append(parts)
                    stages.append(cells[:split] + parts + cells[split + 1 :])
                zero = () if dead is None else cells[dead]
                verts = _priors(rng, n, zero, groups, v)
                labels = tuple(f"s{i}" for i in range(n))
                space = cg.beliefs.StateSpace(labels)
                beliefs = cg.beliefs.CredalSet.from_vertices(space, verts)
                named = [[tuple(labels[s] for s in c) for c in stage] for stage in stages]
                filtration = cg.beliefs.Filtration.build(space, named)
                acting = rng.choice([c for c in live if len(c) > 1])
                outside = [_rational(rng) for _ in range(n)]
                rows = [
                    [_rational(rng) if s in acting else outside[s] for s in range(n)]
                    for _ in range(actions)
                ]
                cycle.append(
                    (beliefs, filtration, rows, named[0], tuple(labels[s] for s in acting))
                )
            rng.shuffle(cycle)
            cycles.append(cycle)
        return cycles

    def run(self, cg, op):
        beliefs, filtration, rows, stage, acting = op
        hull = cg.beliefs.rectangular_hull(beliefs, filtration)
        rect = cg.beliefs.is_rectangular(beliefs, filtration)
        problem = cg.dynamics.player_problem_from_matrix(
            "2", rows, beliefs.space, hull, stage, [acting]
        )
        return hull, rect, cg.dynamics.check_dynamic_consistency(problem)

    def check(self, cg, op, out) -> str | None:
        beliefs = op[0]
        hull, rect, report = out
        for vertex in beliefs.vertices:
            if not cg.exactmath.polytope_contains(hull.set, vertex):
                return f"original vertex {vertex} is outside the hull"
        if rect.rectangular and hull.vertices != beliefs.vertices:
            return "set reported rectangular but differs from its hull"
        if not rect.rectangular and (
            rect.witness not in hull.vertices or beliefs.contains(rect.witness)
        ):
            return "non-rectangularity witness does not check out"
        if not report.overall:
            return "hulled beliefs tested inconsistent"
        return None


WORKLOADS = {
    "paper-scenarios": PaperScenarios,
    "wide-maxmin": WideMaxmin,
    "rect-hull": RectHull,
}
