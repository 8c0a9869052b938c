"""Deterministic SVG drawings of credal sets on probability triangles.

Each panel is a right triangle with its legs on the axes: the horizontal
and vertical coordinates are the first two state probabilities and the
origin carries the remaining state.  Output is assembled purely from exact
arithmetic and fixed formatting, so identical input yields identical bytes.
"""

from __future__ import annotations

from fractions import Fraction

from .exactmath import Record, Vector, fixed

VIEW = 512
PALETTE = ("#9e9e9e", "#c7c7c7", "#7d9fc4", "#caa8a8", "#a8caa8")


class TriangleLayer(Record, defaults={"label": "", "fill": None, "stroke": "#404040"}):
    __slots__ = ("credal", "label", "fill", "stroke")


class TrianglePanel(Record, defaults={"title": ""}):
    __slots__ = ("layers", "title")


def _angular_order(points: list[Vector]) -> list[Vector]:
    """Order 2-d hull vertices counterclockwise around their centroid."""
    n = Fraction(len(points))
    cx = sum((p[0] for p in points), Fraction(0)) / n
    cy = sum((p[1] for p in points), Fraction(0)) / n

    def key(p: Vector) -> tuple:
        # the upper half-plane and rightward ray before the lower half-plane
        # and leftward ray; within a half, the ray first, then by the angle,
        # whose cotangent falls as it grows, then by the point itself
        dx, dy = p[0] - cx, p[1] - cy
        return (dy < 0 or (dy == 0 and dx <= 0), dy != 0, -dx / dy if dy else 0, p)

    return sorted(points, key=key)


class _Panel:
    def __init__(self, ox: Fraction, oy: Fraction, size: Fraction):
        margin = size * Fraction(12, 100)
        self.side = size - 2 * margin
        self.x0 = ox + margin
        self.y0 = oy + size - margin

    def point(self, u: Fraction, v: Fraction) -> str:
        return ",".join(self.xy(u, v))

    def xy(self, u: Fraction, v: Fraction) -> tuple[str, str]:
        px = self.x0 + u * self.side
        py = self.y0 - v * self.side
        return fixed(px, 2), fixed(py, 2)


def _panel_svg(panel: TrianglePanel, geom: _Panel) -> list[str]:
    zero, one = Fraction(0), Fraction(1)
    parts = [f'<g stroke="#202020" stroke-width="1" fill="none">']
    parts.append(f'<polyline points="{geom.point(zero, one)} {geom.point(zero, zero)} {geom.point(one, zero)}" />')
    parts.append(f'<line x1="{geom.xy(one, zero)[0]}" y1="{geom.xy(one, zero)[1]}" x2="{geom.xy(zero, one)[0]}" y2="{geom.xy(zero, one)[1]}" stroke-dasharray="4 3" />')
    parts.append("</g>")

    if panel.layers:
        x_axis, y_axis, *others = panel.layers[0].credal.space.labels
        origin = ",".join(others)
        ax, ay = geom.xy(one + Fraction(3, 100), zero)
        parts.append(f'<text x="{ax}" y="{ay}" font-size="12" dx="4">{x_axis}</text>')
        ax, ay = geom.xy(zero, one + Fraction(5, 100))
        parts.append(f'<text x="{ax}" y="{ay}" font-size="12">{y_axis}</text>')
        if origin:
            ax, ay = geom.xy(zero, zero)
            parts.append(
                f'<text x="{ax}" y="{ay}" font-size="10" dx="-6" dy="14">{{{origin}}}</text>'
            )

    for i, layer in enumerate(panel.layers):
        fill = layer.fill or PALETTE[i % len(PALETTE)]
        pts = [Vector(v[:2]) for v in layer.credal.vertices]
        if len(pts) == 1:
            x, y = geom.xy(pts[0][0], pts[0][1])
            parts.append(f'<circle cx="{x}" cy="{y}" r="4" fill="{layer.stroke}" />')
        elif len(pts) == 2:
            (x1, y1), (x2, y2) = geom.xy(*pts[0]), geom.xy(*pts[1])
            parts.append(
                f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{layer.stroke}" stroke-width="4" />'
            )
        else:
            ordered = _angular_order(pts)
            path = " ".join(geom.point(p[0], p[1]) for p in ordered)
            parts.append(
                f'<polygon points="{path}" fill="{fill}" fill-opacity="0.65" stroke="{layer.stroke}" stroke-width="1" />'
            )
        if layer.label:
            x, y = geom.xy(pts[0][0], pts[0][1])
            parts.append(
                f'<text x="{x}" y="{y}" font-size="11" dx="6" dy="-8" font-weight="bold">{layer.label}</text>'
            )
        for p in sorted(pts):
            x, y = geom.xy(p[0], p[1])
            label = f"({p[0]},{p[1]})"
            parts.append(
                f'<circle cx="{x}" cy="{y}" r="2" fill="{layer.stroke}" />'
                f'<text x="{x}" y="{y}" font-size="8" dx="3" dy="-3">{label}</text>'
            )
    if panel.title:
        x, y = geom.xy(Fraction(1, 2), one + Fraction(12, 100))
        parts.append(
            f'<text x="{x}" y="{y}" font-size="13" text-anchor="middle">{panel.title}</text>'
        )
    return parts


def render_triangle(panels: list[TrianglePanel], output_path: str | None = None) -> str:
    """Render one or two panels into a fixed 512x512 SVG document.

    Two panels sit side by side.
    """
    if not 1 <= len(panels) <= 2:
        raise ValueError("render_triangle draws one or two panels")
    for panel in panels:
        for layer in panel.layers:
            if len(layer.credal.space) < 2:
                raise ValueError("a triangle needs a space of at least two states")

    whole = Fraction(VIEW)
    if len(panels) == 1:
        geoms = [_Panel(Fraction(0), Fraction(0), whole)]
    else:
        half = whole / 2
        offset = (whole - half) / 2
        geoms = [_Panel(Fraction(0), offset, half), _Panel(half, offset, half)]

    body: list[str] = []
    for panel, geom in zip(panels, geoms):
        body.extend(_panel_svg(panel, geom))
    doc = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="0 0 {VIEW} {VIEW}" '
        f'width="{VIEW}" height="{VIEW}" font-family="Helvetica, Arial, sans-serif">\n'
        '<rect width="100%" height="100%" fill="white" />\n'
        + "\n".join(body)
        + "\n</svg>\n"
    )
    if output_path is not None:
        with open(output_path, "w", encoding="utf-8") as handle:
            handle.write(doc)
    return doc
