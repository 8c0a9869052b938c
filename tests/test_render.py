import itertools
from fractions import Fraction

import pytest

from credalgames.beliefs import CredalSet, StateSpace
from credalgames.exactmath import Vector
from credalgames.render import TriangleLayer, TrianglePanel, _angular_order, render_triangle

F = Fraction

LRO = StateSpace.of("L", "R", "O")

QUAD = CredalSet.from_vertices(
    LRO,
    [
        ["7/32", "21/32", "1/8"],
        ["7/16", "7/16", "1/8"],
        ["1/4", "1/4", "1/2"],
        ["1/8", "3/8", "1/2"],
    ],
)

SEGMENT = CredalSet.from_vertices(LRO, [[0, 1, 0], ["1/4", "3/4", 0]])
DOT = CredalSet.singleton(LRO, ["1/3", "1/3", "1/3"])


def panel(*layers):
    return [TrianglePanel(layers)]


def test_byte_identical_across_runs(tmp_path):
    panels = panel(TriangleLayer(QUAD, label="P"), TriangleLayer(SEGMENT, label="cond"))
    first = render_triangle(panels)
    second = render_triangle(panels)
    assert first == second
    out = tmp_path / "triangle.svg"
    render_triangle(panels, str(out))
    assert out.read_text() == first


def test_document_structure():
    doc = render_triangle(panel(TriangleLayer(QUAD)))
    assert doc.startswith('<?xml version="1.0"')
    assert 'viewBox="0 0 512 512"' in doc
    assert doc.count("<polygon") == 1
    assert "(7/32,21/32)" in doc  # exact rational vertex labels
    assert "{O}" in doc and ">L<" in doc and ">R<" in doc


def test_segment_drawn_as_thick_line():
    doc = render_triangle(panel(TriangleLayer(SEGMENT)))
    assert 'stroke-width="4"' in doc
    assert "<polygon" not in doc


def test_singleton_drawn_as_labeled_dot():
    doc = render_triangle(panel(TriangleLayer(DOT, label="point")))
    assert '<circle' in doc and 'r="4"' in doc
    assert ">point<" in doc
    assert "(1/3,1/3)" in doc


def test_two_panels_side_by_side():
    induced = CredalSet.from_vertices(
        StateSpace.of("Z", "RN", "O"),
        [
            ["35/64", "21/64", "1/8"],
            ["35/48", "7/48", "1/8"],
            ["5/12", "1/12", "1/2"],
            ["5/16", "3/16", "1/2"],
        ],
    )
    panels = [
        TrianglePanel((TriangleLayer(QUAD, label="P"),), "initial"),
        TrianglePanel((TriangleLayer(induced, label="ind"),), "induced"),
    ]
    doc = render_triangle(panels)
    assert doc.count("<polygon") == 2
    assert ">Z<" in doc and ">L<" in doc
    assert "(35/64,21/64)" in doc and "(7/32,21/32)" in doc
    with pytest.raises(ValueError, match="one or two panels"):
        render_triangle(panels + panels[:1])


def test_rejects_bad_projection():
    lone = CredalSet.singleton(StateSpace.of("A"), [1])
    with pytest.raises(ValueError, match="at least two states"):
        render_triangle(panel(TriangleLayer(lone)))


def test_vertex_order_is_a_simple_polygon():
    # the polygon path must trace the hull boundary, never crossing itself:
    # for the quadrilateral the four corners appear in circular order
    doc = render_triangle(panel(TriangleLayer(QUAD)))
    start = doc.index("<polygon")
    points = doc[start:].split('points="')[1].split('"')[0].split()
    assert len(points) == 4

    def px(pair):
        return tuple(float(x) for x in pair.split(","))

    pts = [px(p) for p in points]
    # consecutive cross products share a sign for a convex traversal
    crosses = []
    for i in range(4):
        ax, ay = pts[i]
        bx, by = pts[(i + 1) % 4]
        cx, cy = pts[(i + 2) % 4]
        crosses.append((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
    assert all(c > 0 for c in crosses) or all(c < 0 for c in crosses)


def test_angular_order_starts_on_the_rightward_ray_from_any_input_order():
    # two vertices lie level with the centroid (1/4, 1/4), one on each side
    corners = [Vector([0, F(1, 4)]), Vector([F(1, 2), F(1, 4)]), Vector([F(1, 4), 0]),
               Vector([F(1, 4), F(1, 2)])]
    expected = [corners[1], corners[3], corners[0], corners[2]]
    for order in itertools.permutations(corners):
        assert _angular_order(list(order)) == expected


def _pseudo_angle(dx: Fraction, dy: Fraction) -> Fraction:
    """An exact stand-in for the angle from the rightward ray, in [0, 4):
    monotone in the angle, 1 per quarter turn."""
    if dy >= 0:
        return dy / (dx + dy) if dx >= 0 else 1 + -dx / (-dx + dy)
    return 2 + -dy / (-dx - dy) if dx < 0 else 3 + dx / (dx - dy)


def test_angular_order_turns_counterclockwise_from_the_least_angle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def credal(draw):
        weights = st.lists(st.integers(0, 20), min_size=3, max_size=3).filter(any)
        points = draw(st.lists(weights, min_size=3, max_size=7))
        vertices = [[F(w, sum(ws)) for w in ws] for ws in points]
        return CredalSet.from_vertices(LRO, vertices), draw(st.randoms())

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(credal())
    def check(case):
        c, rng = case
        pts = [Vector(v[:2]) for v in c.vertices]
        hypothesis.assume(len(pts) >= 3)
        rng.shuffle(pts)
        ordered = _angular_order(list(pts))
        assert sorted(ordered) == sorted(pts)
        cx, cy = sum(p[0] for p in pts) / len(pts), sum(p[1] for p in pts) / len(pts)
        angles = [_pseudo_angle(p[0] - cx, p[1] - cy) for p in ordered]
        assert angles == sorted(angles) and len(set(angles)) == len(angles)

    check()
