"""Static SVG rendering of traced curves and face shading.

Auxiliary output only; certificates never read it back.
"""

from __future__ import annotations

import numpy as np

from . import geometry

_CURVE_COLORS = ["#1f3a66", "#7a1f1f", "#1f6637", "#663a1f", "#4a1f66", "#1f5e66"]
_FACE_COLORS = ["#aec7e8", "#ffbb78", "#98df8a", "#ff9896", "#c5b0d5", "#c49c94", "#f7b6d2"]
WIDTH = 720  # pixels
PADDING = 0.06  # margin around the curves, relative to their larger extent


def _path(points: np.ndarray, tx, ty) -> str:
    coords = " ".join(f"{tx(p.real):.2f},{ty(p.imag):.2f}" for p in points)
    return f"M {coords}"


def render_svg(components, graphs=None) -> str:
    """SVG for a list of LevelCurveComponents, optionally shading graph faces."""
    all_pts = [c.points for c in components]
    x0, y0, x1, y1 = geometry.bounding_box(all_pts)
    span = max(x1 - x0, y1 - y0, 1e-9)
    pad = PADDING * span
    x0, y0, x1, y1 = x0 - pad, y0 - pad, x1 + pad, y1 + pad
    scale = WIDTH / (x1 - x0)
    height = int((y1 - y0) * scale)

    def tx(x):
        return (x - x0) * scale

    def ty(y):
        return height - (y - y0) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{height}" '
        f'viewBox="0 0 {WIDTH} {height}">',
        f'<rect width="{WIDTH}" height="{height}" fill="white"/>',
    ]

    if graphs:
        k = 0
        for g in graphs:
            for face in g.faces:
                if not face.bounded:
                    continue
                color = _FACE_COLORS[k % len(_FACE_COLORS)]
                k += 1
                parts.append(
                    f'<path d="{_path(face.polygon, tx, ty)} Z" fill="{color}" '
                    f'fill-opacity="0.45" stroke="none"/>'
                )

    for ci, comp in enumerate(components):
        color = _CURVE_COLORS[ci % len(_CURVE_COLORS)]
        for arc in comp.arcs:
            parts.append(
                f'<path d="{_path(arc.points, tx, ty)}" fill="none" '
                f'stroke="{color}" stroke-width="1.4"/>'
            )
        for v, m in comp.vertices:
            parts.append(
                f'<circle cx="{tx(v.real):.2f}" cy="{ty(v.imag):.2f}" r="3.2" '
                f'fill="#111" />'
            )

    parts.append("</svg>")
    return "\n".join(parts)
