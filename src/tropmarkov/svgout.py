"""Deterministic SVG 1.1 emitters for the plane projection of the skeleton,
the per-cell orbit triangles, and the ideal-triangle tessellation of the disk."""

from __future__ import annotations

import math
from fractions import Fraction

from .surface import CellId, Params, lift_from_plane, cells_of, plane_grid
from .classifier import table_orbit_triangles
from .hyperbolic import _tessellation_triangles, boundary_angle

_CELL_COLORS = {
    CellId.X1SQ: "#c6dbef",
    CellId.X2SQ: "#9ecae1",
    CellId.X3SQ: "#6baed6",
    CellId.AX1: "#fdd0a2",
    CellId.BX2: "#fdae6b",
    CellId.CX3: "#fd8d3c",
    CellId.D: "#e6550d",
}
_MIXED_COLOR = "#31a354"


def _fmt(value: float) -> str:
    return f"{value:.4f}"


def _document(width: float, height: float, body: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def skeleton_svg(params: Params, grid: int, span) -> str:
    """Shaded plane projection: one square per grid node, coloured by cell."""
    values = plane_grid(grid, span)
    span = Fraction(span)
    size = 480.0
    cell_px = size / grid
    body = [f'<rect width="{_fmt(size)}" height="{_fmt(size)}" fill="#ffffff"/>']
    for v2 in values:
        for v1 in values:
            x = lift_from_plane(params, 0, (v1, v2, -v1 - v2))
            cells = cells_of(params, x)
            color = _CELL_COLORS[next(iter(cells))] if len(cells) == 1 else _MIXED_COLOR
            # Exact ratios: a span of any size maps onto the picture.
            px = float((v1 + span) / (2 * span)) * (size - cell_px)
            py = float((span - v2) / (2 * span)) * (size - cell_px)
            body.append(
                f'<rect x="{_fmt(px)}" y="{_fmt(py)}" width="{_fmt(cell_px)}" '
                f'height="{_fmt(cell_px)}" fill="{color}"/>'
            )
    return _document(size, size, body)


def farey_svg(d, depth: int) -> str:
    """Three u-coordinate panels with the orbit triangles of the D cell."""
    triangles = table_orbit_triangles(d, depth)
    panel = 260.0
    margin = 30.0
    # The largest vertex coordinate, exact, so huge and tiny d scale without
    # overflow; each coordinate is drawn at its exact ratio to it.
    umax = max((c for per_cell in triangles.values() for _, verts in per_cell
                for v in verts for c in v), default=Fraction(1))
    umax = max(umax, Fraction(1, 10**9))
    inner = panel - 2 * margin
    body = [f'<rect width="{_fmt(3 * panel)}" height="{_fmt(panel)}" fill="#ffffff"/>']
    for cell in (1, 2, 3):
        ox = (cell - 1) * panel + margin
        oy = panel - margin
        body.append(
            f'<line x1="{_fmt(ox)}" y1="{_fmt(oy)}" x2="{_fmt(ox + panel - 2 * margin)}" '
            f'y2="{_fmt(oy)}" stroke="#000000" stroke-width="1"/>'
        )
        body.append(
            f'<line x1="{_fmt(ox)}" y1="{_fmt(oy)}" x2="{_fmt(ox)}" '
            f'y2="{_fmt(margin)}" stroke="#000000" stroke-width="1"/>'
        )
        body.append(
            f'<text x="{_fmt(ox)}" y="{_fmt(margin - 8)}" font-size="12">cell {cell}</text>'
        )
        for word, verts in triangles[cell]:
            pts = " ".join(
                f"{_fmt(ox + float(v[0] / umax) * inner)},{_fmt(oy - float(v[1] / umax) * inner)}"
                for v in verts
            )
            body.append(
                f'<polygon points="{pts}" fill="none" stroke="#08519c" '
                f'stroke-width="1"><title>{word}</title></polygon>'
            )
    return _document(3 * panel, panel, body)


def _disk_xy(theta: float, radius: float, center: float) -> tuple[float, float]:
    return (center + radius * math.cos(theta), center - radius * math.sin(theta))


def _geodesic_points(th1: float, th2: float, radius: float,
                     center: float) -> list[tuple[float, float]]:
    segments = 24  # polyline pieces per circular arc
    gap = math.remainder(th2 - th1, 2 * math.pi)
    if abs(abs(gap) - math.pi) < 1e-12:
        return [_disk_xy(th1, radius, center), _disk_xy(th2, radius, center)]
    mid = th1 + gap / 2
    half = abs(gap) / 2
    dist = 1.0 / math.cos(half)
    cx, cy = dist * math.cos(mid), dist * math.sin(mid)
    arc_r = abs(math.tan(half))
    p1 = (math.cos(th1), math.sin(th1))
    p2 = (math.cos(th2), math.sin(th2))
    a1 = math.atan2(p1[1] - cy, p1[0] - cx)
    a2 = math.atan2(p2[1] - cy, p2[0] - cx)
    sweep = math.remainder(a2 - a1, 2 * math.pi)
    out = []
    for k in range(segments + 1):
        a = a1 + sweep * k / segments
        x, y = cx + arc_r * math.cos(a), cy + arc_r * math.sin(a)
        out.append((center + radius * x, center - radius * y))
    return out


def tessellation_svg(depth: int) -> str:
    """Orbit of the ideal triangle with vertices 0, 1, infinity, drawn in the
    unit disk via the inverse stereographic chart."""
    size = 480.0
    center = size / 2
    radius = size / 2 - 10
    body = [
        f'<rect width="{_fmt(size)}" height="{_fmt(size)}" fill="#ffffff"/>',
        f'<circle cx="{_fmt(center)}" cy="{_fmt(center)}" r="{_fmt(radius)}" '
        'fill="none" stroke="#000000" stroke-width="1"/>',
    ]
    for tri in sorted(tuple(sorted(t)) for t in _tessellation_triangles(depth)):
        angles = [boundary_angle(v) for v in tri]
        for k in range(3):
            pts = _geodesic_points(angles[k], angles[(k + 1) % 3], radius, center)
            path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
            body.append(
                f'<polyline points="{path}" fill="none" stroke="#08519c" stroke-width="0.8"/>'
            )
    return _document(size, size, body)
