import itertools
import random
from fractions import Fraction

import pytest

import credalgames.beliefs
from credalgames.beliefs import (
    CredalSet,
    Filtration,
    StateSpace,
    ZeroProbabilityReachError,
    cell_label,
    compose,
    eps_contamination,
    full_bayes_update,
    is_rectangular,
    one_step_ahead,
    rectangular_hull,
)
from credalgames.exactmath import Polytope, Vector, dot, polytope_minimize
from polytope_oracle import lp_minimize, membership_witness

F = Fraction

LRO = StateSpace.of("L", "R", "O")
STAGE = (("L", "R"), ("O",))
FILTRATION = Filtration.build(LRO, [STAGE])


def contamination(eps):
    return eps_contamination(Vector([0, 1, 0]), eps, LRO)


# the rectangular quadrilateral spanned by marginal mass of O in [1/8, 1/2]
# and conditional chance of R in [1/2, 3/4]
QUAD = CredalSet.from_vertices(
    LRO,
    [
        [F(7, 32), F(21, 32), F(1, 8)],
        [F(7, 16), F(7, 16), F(1, 8)],
        [F(1, 4), F(1, 4), F(1, 2)],
        [F(1, 8), F(3, 8), F(1, 2)],
    ],
)


def test_contamination_is_minimized_mix_without_lp_solves(monkeypatch):
    # every eps-mixed unit vector is extreme (one point at eps = 0), so the
    # direct vertex set must equal what the LP oracle keeps of the mixed points
    import credalgames.exactmath.linprog as linprog

    rng = random.Random(14)
    real = linprog.lp_solve
    solves = []

    def counting(lp):
        solves.append(lp)
        return real(lp)

    for trial in range(60):
        n = rng.randint(1, 5)
        weights = [rng.randint(0, 6) for _ in range(n)]
        weights[rng.randrange(n)] += 1
        center = Vector([F(w, sum(weights)) for w in weights])
        eps = rng.choice([F(0), F(1), F(rng.randint(1, 9), 10)])
        space = StateSpace(tuple(f"s{i}" for i in range(n)))
        monkeypatch.setattr(linprog, "lp_solve", counting)
        built = eps_contamination(center, eps, space)
        monkeypatch.setattr(linprog, "lp_solve", real)
        mixed = [
            Vector([(1 - eps) * c + (eps if i == j else 0) for i, c in enumerate(center)])
            for j in range(n)
        ]
        assert built.set == lp_minimize(Polytope(tuple(mixed))), trial
    assert solves == []


def test_contamination_matches_the_fraction_formula():
    # the integer construction must give exactly the points (1 - eps) c + eps e_s,
    # here over centers and weights with large coprime denominators
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def case(draw):
        n = draw(st.integers(1, 5))
        weight = st.integers(0, 3) | st.integers(0, 10**6)
        weights = draw(st.lists(weight, min_size=n, max_size=n).filter(any))
        q = draw(st.integers(1, 10**6))
        return Vector(F(w, sum(weights)) for w in weights), F(draw(st.integers(0, q)), q)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(case())
    def check(drawn):
        center, eps = drawn
        space = StateSpace(tuple(f"s{i}" for i in range(center.dimension)))
        mixed = {
            Vector((1 - eps) * c + eps * (i == s) for i, c in enumerate(center))
            for s in range(center.dimension)
        }
        assert eps_contamination(center, eps, space).vertices == tuple(sorted(mixed))

    check()


def test_contamination_zero_is_singleton():
    c = contamination(0)
    assert c.vertices == (Vector([0, 1, 0]),)


def test_contamination_one_is_full_simplex():
    c = contamination(1)
    assert set(c.vertices) == {
        Vector([1, 0, 0]), Vector([0, 1, 0]), Vector([0, 0, 1])
    }


def test_contamination_quarter_vertices():
    c = contamination("1/4")
    assert set(c.vertices) == {
        Vector([F(1, 4), F(3, 4), 0]),
        Vector([0, 1, 0]),
        Vector([0, F(3, 4), F(1, 4)]),
    }


def test_contamination_rejects_bad_eps():
    with pytest.raises(ValueError):
        contamination("3/2")


def test_update_singleton_is_ordinary_bayes():
    c = CredalSet.singleton(LRO, [0, F(3, 4), F(1, 4)])
    post = full_bayes_update(c, ("L", "R"))
    assert post.space.labels == ("L", "R")
    assert post.vertices == (Vector([0, 1]),)


def test_update_contamination_gives_segment():
    post = full_bayes_update(contamination("1/4"), ("L", "R"))
    assert set(post.vertices) == {Vector([0, 1]), Vector([F(1, 4), F(3, 4)])}


def test_update_quadrilateral():
    post = full_bayes_update(QUAD, ("L", "R"))
    assert set(post.vertices) == {
        Vector([F(1, 4), F(3, 4)]),
        Vector([F(1, 2), F(1, 2)]),
    }


def test_update_zero_probability_raises():
    c = CredalSet.from_vertices(LRO, [[1, 0, 0], [0, 0, 1]])
    with pytest.raises(ZeroProbabilityReachError) as info:
        full_bayes_update(c, ("L", "R"))
    assert info.value.vertex == Vector([0, 0, 1])


def test_update_matches_per_vertex_bayes():
    # each posterior is v[i] / mass for the cell's states i, and the first
    # vertex, in the set's order, that gives the cell mass 0 is the one raised
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    labels = ("a", "b", "c", "d")
    space = StateSpace(labels)

    @st.composite
    def case(draw):
        weight = st.integers(0, 2) | st.integers(0, 10**6)
        prior = st.lists(weight, min_size=4, max_size=4).filter(any)
        priors = draw(st.lists(prior, min_size=1, max_size=6))
        event = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=4, unique=True))
        # kept as drawn, so later vertices may repeat or lie inside the hull
        vertices = tuple(Vector(F(w, sum(ws)) for w in ws) for ws in priors)
        return CredalSet(space, Polytope(vertices)), tuple(event)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(case())
    def check(drawn):
        c, event = drawn
        cell = tuple(s for s in labels if s in event)
        indices = [labels.index(s) for s in cell]
        zero = next((v for v in c.vertices if sum(v[i] for i in indices) == 0), None)
        if zero is not None:
            with pytest.raises(ZeroProbabilityReachError) as info:
                full_bayes_update(c, event)
            assert info.value.vertex == zero and info.value.event == cell
            return
        posts = []
        for v in c.vertices:
            mass = sum(v[i] for i in indices)
            posts.append(Vector(v[i] / mass for i in indices))
        post = full_bayes_update(c, event)
        assert post.space.labels == cell
        assert post.set == lp_minimize(Polytope(tuple(posts)))

    check()


@pytest.mark.parametrize(
    "event", [("L", "L"), ("X",), ("O", "X"), ()], ids=["repeated", "unknown", "one-unknown", "empty"]
)
def test_update_rejects_events_that_are_not_sets_of_states(event):
    # checked before sorting: an unknown label is not left to tuple.index,
    # and a repeated one is not summed twice
    with pytest.raises(ValueError, match="is not a set of the states"):
        full_bayes_update(contamination("1/4"), event)


def test_one_step_ahead_contamination():
    marg = one_step_ahead(contamination("1/4"), STAGE)
    assert marg.space.labels == ("{L,R}", "O")
    assert set(marg.vertices) == {Vector([1, 0]), Vector([F(3, 4), F(1, 4)])}


def test_one_step_ahead_singleton():
    marg = one_step_ahead(CredalSet.singleton(LRO, [0, F(3, 4), F(1, 4)]), STAGE)
    assert marg.vertices == (Vector([F(3, 4), F(1, 4)]),)


def test_one_step_ahead_full_simplex():
    simplex = CredalSet.from_vertices(LRO, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    marg = one_step_ahead(simplex, (("L",), ("R", "O")))
    assert set(marg.vertices) == {Vector([1, 0]), Vector([0, 1])}


def _per_cell_sums(c, stage):
    """The marginal as one_step_ahead built it before it took affine_image:
    each vertex's sums over each cell, minimized."""
    cells = [tuple(sorted(cell, key=c.space.index)) for cell in stage]
    space = StateSpace(tuple(cell_label(cell) for cell in cells))
    positions = [[c.space.index(s) for s in cell] for cell in cells]
    margs = [
        Vector(dot((v[i] for i in pos), itertools.repeat(1)) for pos in positions)
        for v in c.vertices
    ]
    return CredalSet.from_vertices(space, margs)


def test_one_step_ahead_matches_the_per_cell_sums():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def case(draw):
        n = draw(st.integers(1, 6))
        labels = draw(st.permutations([f"s{i}" for i in range(n)]))
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
        stage = tuple(tuple(labels[a:b]) for a, b in zip([0, *cuts], [*cuts, n]))
        weight = st.integers(0, 3) | st.integers(0, 10**6)
        prior = st.lists(weight, min_size=n, max_size=n).filter(any)
        priors = draw(st.lists(prior, min_size=1, max_size=6))
        # kept as drawn, so later vertices may repeat or lie inside the hull
        vertices = tuple(Vector(F(w, sum(ws)) for w in ws) for ws in priors)
        space = StateSpace(tuple(f"s{i}" for i in range(n)))
        return CredalSet(space, Polytope(vertices)), stage

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(case())
    def check(drawn):
        c, stage = drawn
        assert one_step_ahead(c, stage) == _per_cell_sums(c, stage)

    check()


@pytest.mark.parametrize(
    "stage, message",
    [
        ((("L",), ("O",)), r"does not partition the states: no cell holds \('R',\)"),
        ((("L", "R"), ("R", "O")), r"cell \('R', 'O'\) holds 'R', which an earlier cell holds"),
        ((("L", "R"), ("O", "X")), r"cell \('O', 'X'\) holds 'X', not one of the states"),
    ],
    ids=["gap", "overlap", "unknown"],
)
def test_one_step_ahead_rejects_a_stage_that_does_not_partition(stage, message):
    # checked before any marginal is formed, which would otherwise fail as
    # a vertex that is not a probability vector
    with pytest.raises(ValueError, match=message):
        one_step_ahead(contamination("1/4"), stage)


@pytest.mark.parametrize(
    "vertices, message",
    [
        ([[F(-1, 4), F(5, 4), 0]], "vertex Vector(-1/4, 5/4, 0) is not a probability vector"),
        ([[F(1, 2), F(1, 3), F(1, 7)]], "vertex Vector(1/2, 1/3, 1/7) is not a probability vector"),
        (
            [[1, 0, 0], [F(1, 2), F(1, 2), F(1, 2)]],
            "vertex Vector(1/2, 1/2, 1/2) is not a probability vector",
        ),
    ],
    ids=["negative-entry", "sum-below-one", "sum-above-one"],
)
def test_credal_set_rejects_a_vertex_that_is_not_a_probability_vector(vertices, message):
    with pytest.raises(ValueError) as caught:
        CredalSet.from_vertices(LRO, vertices)
    assert str(caught.value) == message
    with pytest.raises(ValueError) as caught:
        CredalSet(LRO, Polytope.from_vertices(vertices))
    assert str(caught.value) == message


HULL_QUARTER = {
    Vector([0, 1, 0]),
    Vector([F(1, 4), F(3, 4), 0]),
    Vector([0, F(3, 4), F(1, 4)]),
    Vector([F(3, 16), F(9, 16), F(1, 4)]),
}


def test_rectangular_hull_of_contamination():
    hull = rectangular_hull(contamination("1/4"), FILTRATION)
    assert set(hull.vertices) == HULL_QUARTER


def test_rectangular_hull_singleton_fixed():
    single = CredalSet.singleton(LRO, [F(1, 8), F(5, 8), F(1, 4)])
    assert rectangular_hull(single, FILTRATION) == single


def test_compose_from_scratch_builds_quadrilateral():
    marg_space = StateSpace.of("{L,R}", "O")
    marginal = CredalSet.from_vertices(
        marg_space, [[F(7, 8), F(1, 8)], [F(1, 2), F(1, 2)]]
    )
    conditionals = {
        ("L", "R"): CredalSet.from_vertices(
            StateSpace.of("L", "R"), [[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]]
        ),
        ("O",): CredalSet.singleton(StateSpace.of("O"), [1]),
    }
    built = compose(LRO, STAGE, marginal, conditionals)
    assert built == QUAD
    assert set(built.vertices) == set(QUAD.vertices)


def _products_by_set(space, stage, marginal, conditionals):
    """compose's vertices as once built: every product of a marginal vertex
    with one vertex per conditional, deduplicated through a set."""
    cells = [(i, tuple(sorted(cell, key=space.index))) for i, cell in enumerate(stage)]
    active = [(i, cell) for i, cell in cells if cell in conditionals]
    points = set()
    for m in marginal.vertices:
        for qs in itertools.product(*(conditionals[cell].vertices for _, cell in active)):
            entries = [F(0)] * len(space)
            for (i, cell), q in zip(active, qs):
                for state, x in zip(cell, q):
                    entries[space.index(state)] = m[i] * x
            points.add(Vector(entries))
    return tuple(sorted(points))


def test_compose_and_contamination_keep_the_set_based_vertices():
    # products repeat only where a marginal vertex gives an active cell no
    # mass, or where eps = 0 makes every contaminated point the center
    rng = random.Random(29)
    seen = set()
    for _ in range(60):
        n_cells = rng.randint(2, 3)
        sizes = [rng.randint(1, 3) for _ in range(n_cells)]
        labels = [f"s{i}" for i in range(sum(sizes))]
        space = StateSpace(tuple(labels))
        stage, start = [], 0
        for size in sizes:
            stage.append(tuple(labels[start : start + size]))
            start += size
        dead = rng.randrange(n_cells) if rng.random() < 0.3 else None
        margs = []
        for _ in range(rng.randint(1, 4)):
            w = [0 if i == dead else rng.randint(0, 3) for i in range(n_cells)]
            if not any(w):
                w[1 if dead == 0 else 0] = 1
            margs.append([F(x, sum(w)) for x in w])
        marginal = CredalSet.from_vertices(StateSpace(tuple(map(str, range(n_cells)))), margs)
        conditionals = {}
        for i, cell in enumerate(stage):
            if all(m[i] == 0 for m in marginal.vertices):
                continue
            verts = []
            for _ in range(rng.randint(1, 3)):
                w = [rng.randint(1, 3) for _ in cell]
                verts.append([F(x, sum(w)) for x in w])
            conditionals[cell] = CredalSet.from_vertices(StateSpace(cell), verts)
        built = compose(space, tuple(stage), marginal, conditionals).vertices
        assert built == _products_by_set(space, stage, marginal, conditionals)
        for i, cell in enumerate(stage):
            if cell not in conditionals:
                seen.add("a dead cell")
            elif len(conditionals[cell].vertices) > 1 and not all(m[i] for m in marginal.vertices):
                seen.add("a vertex without mass on a cell of several conditionals")
    assert seen == {"a dead cell", "a vertex without mass on a cell of several conditionals"}

    for center in ([0, 1, 0], [F(1, 3), F(1, 6), F(1, 2)], [F(2, 7), F(5, 7), 0]):
        center = Vector(center)
        for eps in (0, F(1, 102), 1):
            mixed = {
                Vector((1 - eps) * c + eps * (i == s) for i, c in enumerate(center))
                for s in range(3)
            }
            assert eps_contamination(center, eps, LRO).vertices == tuple(sorted(mixed))
    assert eps_contamination(Vector([F(1, 3), F(1, 6), F(1, 2)]), 0, LRO).vertices == (
        Vector([F(1, 3), F(1, 6), F(1, 2)]),
    )


def test_hull_idempotent():
    hull = rectangular_hull(contamination("1/4"), FILTRATION)
    again = rectangular_hull(hull, FILTRATION)
    assert again == hull
    assert set(again.vertices) == set(hull.vertices)


def test_is_rectangular_contamination_fails_with_witness():
    check = is_rectangular(contamination("1/4"), FILTRATION)
    assert not check
    assert check.witness == Vector([F(3, 16), F(9, 16), F(1, 4)])
    assert not contamination("1/4").contains(check.witness)


def test_is_rectangular_of_hull_and_singleton():
    hull = rectangular_hull(contamination("1/4"), FILTRATION)
    assert is_rectangular(hull, FILTRATION)
    single = CredalSet.singleton(LRO, [F(1, 3), F(1, 3), F(1, 3)])
    assert is_rectangular(single, FILTRATION)


def test_quadrilateral_is_rectangular():
    assert is_rectangular(QUAD, FILTRATION)


def test_rectangularity_and_equality_make_no_membership_test(monkeypatch):
    # both read the canonical sorted vertices: given the hull, neither asks
    # whether a point lies in a polytope
    import credalgames.exactmath.polytope as polytope_module

    c = contamination("1/4")
    hulls = {c: rectangular_hull(c, FILTRATION), QUAD: rectangular_hull(QUAD, FILTRATION)}
    midpoint = Vector((a + b) / 2 for a, b in zip(*QUAD.vertices[:2]))
    shuffled = CredalSet.from_vertices(LRO, [*reversed(QUAD.vertices), midpoint])
    real = polytope_module.polytope_contains
    calls = []

    def counting(p, x):
        calls.append(x)
        return real(p, x)

    monkeypatch.setattr(polytope_module, "polytope_contains", counting)
    monkeypatch.setattr(credalgames.beliefs, "polytope_contains", counting)
    monkeypatch.setattr(credalgames.beliefs, "rectangular_hull", lambda c, f: hulls[c])
    assert is_rectangular(c, FILTRATION).witness == Vector([F(3, 16), F(9, 16), F(1, 4)])
    assert is_rectangular(QUAD, FILTRATION).rectangular
    assert hulls[c] != c and hulls[QUAD] == QUAD and shuffled == QUAD
    assert QUAD != CredalSet(StateSpace.of("A", "B", "C"), QUAD.set)
    assert calls == []


def _rectangularity_cases(st):
    """Credal sets over 3-6 states from 1-5 priors, zero entries allowed,
    under a one-stage filtration or a two-stage one splitting a cell."""

    @st.composite
    def case(draw):
        n = draw(st.integers(3, 6))
        labels = draw(st.permutations([f"s{i}" for i in range(n)]))
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=n - 2)))
        cells = [tuple(labels[a:b]) for a, b in zip([0, *cuts], [*cuts, n])]
        stages = [cells]
        wide = [cell for cell in cells if len(cell) > 1]
        if draw(st.booleans()):
            split = draw(st.sampled_from(wide))
            cut = draw(st.integers(1, len(split) - 1))
            i = cells.index(split)
            stages.append(cells[:i] + [split[:cut], split[cut:]] + cells[i + 1 :])
        priors = []
        for _ in range(draw(st.integers(1, 5))):
            w = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
            priors.append([F(x, sum(w)) for x in w])
        space = StateSpace(tuple(f"s{i}" for i in range(n)))
        return CredalSet.from_vertices(space, priors), Filtration.build(space, stages)

    return case()


def test_rectangularity_witness_matches_membership_loop():
    hypothesis = pytest.importorskip("hypothesis")
    verdicts = set()

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
    @hypothesis.given(_rectangularity_cases(hypothesis.strategies))
    def check(case):
        c, f = case
        try:
            expected = membership_witness(c, f)
        except ZeroProbabilityReachError:  # a prior rules out a cell others reach
            with pytest.raises(ZeroProbabilityReachError):
                is_rectangular(c, f)
            return
        result = is_rectangular(c, f)
        assert result.witness == expected
        verdicts.add(result.rectangular)

    check()
    assert verdicts == {True, False}


def test_hull_extensive_and_preserves_margins_and_conditionals():
    rng = random.Random(17)
    for _ in range(15):
        verts = []
        for _ in range(rng.randint(1, 4)):
            raw = [F(rng.randint(1, 6)) for _ in range(3)]
            total = sum(raw)
            verts.append([x / total for x in raw])
        c = CredalSet.from_vertices(LRO, verts)
        hull = rectangular_hull(c, FILTRATION)
        for v in c.vertices:
            assert hull.contains(v)
        assert one_step_ahead(hull, STAGE) == one_step_ahead(c, STAGE)
        assert full_bayes_update(hull, ("L", "R")) == full_bayes_update(c, ("L", "R"))
        again = rectangular_hull(hull, FILTRATION)
        assert again == hull


def test_sampled_recombination_stays_inside_hull():
    rng = random.Random(23)
    for _ in range(10):
        verts = []
        for _ in range(rng.randint(2, 4)):
            raw = [F(rng.randint(1, 5)) for _ in range(4)]
            total = sum(raw)
            verts.append([x / total for x in raw])
        space = StateSpace.of("a", "b", "c", "d")
        stage = (("a", "b"), ("c", "d"))
        c = CredalSet.from_vertices(space, verts)
        hull = rectangular_hull(c, Filtration.build(space, [stage]))
        margs = one_step_ahead(hull, stage)
        cond_ab = full_bayes_update(hull, ("a", "b"))
        cond_cd = full_bayes_update(hull, ("c", "d"))

        def sample(credal):
            ws = [F(rng.randint(0, 3)) for _ in credal.vertices]
            if sum(ws) == 0:
                ws[0] = F(1)
            t = sum(ws)
            dim = len(credal.space)
            return Vector(
                sum((w * v[i] for w, v in zip(ws, credal.vertices)), F(0)) / t
                for i in range(dim)
            )

        m, qa, qc = sample(margs), sample(cond_ab), sample(cond_cd)
        recombined = Vector(
            [m[0] * qa[0], m[0] * qa[1], m[1] * qc[0], m[1] * qc[1]]
        )
        assert hull.contains(recombined)


def test_update_matches_direct_formula_on_singletons():
    rng = random.Random(31)
    for _ in range(10):
        raw = [F(rng.randint(1, 9)) for _ in range(3)]
        total = sum(raw)
        p = [x / total for x in raw]
        c = CredalSet.singleton(LRO, p)
        post = full_bayes_update(c, ("L", "R"))
        denom = p[0] + p[1]
        assert post.vertices == (Vector([p[0] / denom, p[1] / denom]),)


def test_multi_stage_hull_recursion():
    space = StateSpace.of("a", "b", "c", "d")
    f = Filtration.build(
        space, [(("a", "b", "c"), ("d",)), (("a", "b"), ("c",), ("d",))]
    )
    rng = random.Random(41)
    for _ in range(8):
        verts = []
        for _ in range(rng.randint(1, 3)):
            raw = [F(rng.randint(1, 5)) for _ in range(4)]
            total = sum(raw)
            verts.append([x / total for x in raw])
        c = CredalSet.from_vertices(space, verts)
        hull = rectangular_hull(c, f)
        for v in c.vertices:
            assert hull.contains(v)
        assert rectangular_hull(hull, f) == hull


def test_filtration_validation():
    with pytest.raises(ValueError):
        Filtration.build(LRO, [(("L",), ("R",))])  # misses O
    with pytest.raises(ValueError):
        Filtration.build(
            LRO, [(("L", "R"), ("O",)), (("L", "O"), ("R",))]
        )  # second stage does not refine the first


def test_filtration_build_names_a_state_outside_the_space():
    # rejected before the cells are sorted by the space's state order, so
    # the label is named instead of tuple.index failing
    with pytest.raises(ValueError, match=r"cell \('L', 'X'\) holds 'X', not one of the states"):
        Filtration.build(LRO, [(("L", "X"), ("R", "O"))])


def test_filtration_holds_its_stages_in_state_order_however_built():
    # each cell's states in the space's order, and the cells by their first
    unordered = ((("O",), ("R", "L")),)
    built = Filtration.build(LRO, unordered)
    c = contamination(F(1, 4))
    for f in (Filtration(LRO, unordered), built.replace(stages=unordered), built):
        assert f.stages == ((("L", "R"), ("O",)),)
        assert rectangular_hull(c, f) == rectangular_hull(c, FILTRATION)
    space = StateSpace.of("a", "b", "c", "d")
    f = Filtration(space, ((("d",), ("c", "a", "b")), (("d",), ("c",), ("b", "a"))))
    assert f.stages == ((("a", "b", "c"), ("d",)), (("a", "b"), ("c",), ("d",)))


def _products(space, stage, marginal, conditionals):
    """Every product compose recombines, built here as the oracle's input."""
    cells = [tuple(sorted(cell, key=space.index)) for cell in stage]
    live = [i for i, cell in enumerate(cells) if cell in conditionals]
    points = []
    for m in marginal.vertices:
        for combo in itertools.product(*(conditionals[cells[i]].vertices for i in live)):
            entries = [F(0)] * len(space)
            for i, q in zip(live, combo):
                for s, x in zip(cells[i], q):
                    entries[space.index(s)] = m[i] * x
            points.append(Vector(entries))
    return points


def _hull_cases(st):
    """Credal sets over 3-7 states in 2-3 cells, with one-state cells, a dead
    (zero-mass) cell or a second stage splitting one cell in some draws."""

    @st.composite
    def case(draw):
        sizes = draw(
            st.lists(st.integers(1, 3), min_size=2, max_size=3).filter(
                lambda s: 3 <= sum(s) <= 7
            )
        )
        labels = tuple(f"s{i}" for i in range(sum(sizes)))
        cuts = list(itertools.accumulate(sizes))
        cells = [labels[a:b] for a, b in zip([0] + cuts, cuts)]
        dead = draw(st.sampled_from([None, None, None, *range(len(cells))]))
        stages = [cells]
        # every prior gives each live part positive mass, where a part is a
        # cell or, when the second stage splits that cell, one of its halves
        parts = [cell for i, cell in enumerate(cells) if i != dead]
        wide = [cell for cell in parts if len(cell) > 1]
        if wide and draw(st.booleans()):
            split = draw(st.sampled_from(wide))
            cut = draw(st.integers(1, len(split) - 1))
            i = cells.index(split)
            stages.append(cells[:i] + [split[:cut], split[cut:]] + cells[i + 1 :])
            parts[parts.index(split) : parts.index(split) + 1] = [split[:cut], split[cut:]]
        priors = []
        for _ in range(draw(st.integers(1, 4))):
            w = dict.fromkeys(labels, 0)
            for part in parts:
                # zeros inside a part put priors on the faces of its simplex
                draws = st.lists(st.integers(0, 3), min_size=len(part), max_size=len(part))
                w.update(zip(part, draw(draws.filter(any))))
            priors.append([F(w[s], sum(w.values())) for s in labels])
        space = StateSpace(labels)
        return CredalSet.from_vertices(space, priors), Filtration.build(space, stages)

    return case()


def test_hull_products_match_polytope_minimize(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    calls = []

    def recording(space, stage, marginal, conditionals):
        built = compose(space, stage, marginal, conditionals)
        calls.append((built, _products(space, stage, marginal, conditionals)))
        return built

    monkeypatch.setattr(credalgames.beliefs, "compose", recording)

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(_hull_cases(hypothesis.strategies))
    def check(case):
        c, f = case
        calls.clear()
        hull = rectangular_hull(c, f)
        assert calls[-1][0] is hull  # the outermost stage composes last
        for built, candidates in calls:
            oracle = polytope_minimize(Polytope(tuple(candidates)))
            assert built.vertices == oracle.vertices

    check()


def test_nine_state_hull_makes_no_minimize_call_in_compose(monkeypatch):
    rng = random.Random(9)
    space = StateSpace(tuple(f"s{i}" for i in range(9)))
    f = Filtration.build(space, [(space.labels[:3], space.labels[3:6], space.labels[6:])])
    priors = []
    for _ in range(3):
        w = [rng.randint(1, 9) for _ in range(9)]
        priors.append([F(x, sum(w)) for x in w])
    c = CredalSet.from_vertices(space, priors)

    inside = []
    minimized = []

    def tracked(*args):
        inside.append(True)
        try:
            return compose(*args)
        finally:
            inside.pop()

    def counting(p):
        if inside:
            minimized.append(len(p.vertices))
        return polytope_minimize(p)

    monkeypatch.setattr(credalgames.beliefs, "compose", tracked)
    monkeypatch.setattr(credalgames.beliefs, "polytope_minimize", counting)
    hull = rectangular_hull(c, f)
    assert minimized == []
    assert len(hull.vertices) == 3**4  # every marginal times every conditional choice
    check = is_rectangular(c, f)
    assert not check and check.witness in hull.vertices and not c.contains(check.witness)
