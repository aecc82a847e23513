"""Static SVG rendering of rank-2 polytope classes.

The canonical translation representative is drawn on an integer grid.
A genuine class renders as one closed polygon path (or a single marker
for a point class); a properly virtual class renders its positive part
solid and its negative part dashed. Output is byte-stable for a fixed
input: all coordinates are integers and the element order is fixed.
"""

from __future__ import annotations

from .lattice import GeometryError, IntegralPolytope, ccw_order
from .vpolytope import TranslationClass, is_polytope

SCALE = 40
MARGIN = 1


def _path(p: IntegralPolytope, to_px) -> str:
    coords = [to_px(v) for v in ccw_order(p.vertices)]
    body = " L ".join(f"{x} {y}" for x, y in coords)
    return f"M {body} Z"


def render_svg(cls: TranslationClass) -> str:
    """SVG document for a rank-2 class, canonical translation applied."""
    if cls.rank != 2:
        raise GeometryError("SVG rendering requires rank 2")
    genuine = is_polytope(cls.vp)
    if genuine is not None:
        origin = genuine.lexmin()
        shapes = [("solid", genuine.translate(tuple(-c for c in origin)))]
    else:
        shapes = [("solid", cls.vp.pos), ("dashed", cls.vp.neg)]
    all_pts = [v for _, p in shapes for v in p.vertices]
    xmin = min(v[0] for v in all_pts) - MARGIN
    xmax = max(v[0] for v in all_pts) + MARGIN
    ymin = min(v[1] for v in all_pts) - MARGIN
    ymax = max(v[1] for v in all_pts) + MARGIN
    width = (xmax - xmin) * SCALE
    height = (ymax - ymin) * SCALE

    def to_px(v):
        return ((v[0] - xmin) * SCALE, (ymax - v[1]) * SCALE)

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
               f'height="{height}" viewBox="0 0 {width} {height}">')
    # integer grid ticks
    for gx in range(xmin, xmax + 1):
        x, _ = to_px((gx, 0))
        out.append(f'<line x1="{x}" y1="0" x2="{x}" y2="{height}" '
                   'stroke="#dddddd" stroke-width="1"/>')
    for gy in range(ymin, ymax + 1):
        _, y = to_px((0, gy))
        out.append(f'<line x1="0" y1="{y}" x2="{width}" y2="{y}" '
                   'stroke="#dddddd" stroke-width="1"/>')
    for style, p in shapes:
        dash = ' stroke-dasharray="6 4"' if style == "dashed" else ""
        if p.is_point:
            x, y = to_px(p.vertices[0])
            out.append(f'<circle cx="{x}" cy="{y}" r="4" fill="#1f3d7a"/>')
        else:
            out.append(f'<path d="{_path(p, to_px)}" fill="#1f3d7a" '
                       f'fill-opacity="0.25" stroke="#1f3d7a" '
                       f'stroke-width="2"{dash}/>')
        for v in p.vertices:
            x, y = to_px(v)
            out.append(f'<circle cx="{x}" cy="{y}" r="3" fill="#1f3d7a"/>')
    out.append('</svg>')
    return "\n".join(out) + "\n"
