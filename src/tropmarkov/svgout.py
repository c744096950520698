"""Deterministic SVG 1.1 emitters for the plane projection of the skeleton,
the per-cell orbit triangles, and the ideal-triangle tessellation of the disk,
each checking its arguments first and returning the document as text chunks."""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import islice

from .surface import CellId, Params, _grid_lifts
from .classifier import _punctured_half
from .hyperbolic import _boundary_angles, _check_depth, _farey_listing, _orbit_half, _triangles

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


def _svg_chunks(width: float, height: float, body: Iterable[str]) -> Iterator[str]:
    """The document: head, the body's elements one to a line (1024 to a chunk), end."""
    yield ('<?xml version="1.0" encoding="UTF-8"?>\n'
           f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           f'width="{_fmt(width)}" height="{_fmt(height)}" '
           f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n')
    body = iter(body)
    while chunk := "\n".join(islice(body, 1024)):
        yield chunk + "\n"
    yield "</svg>\n"


def skeleton_svg(params: Params, grid: int, span) -> Iterator[str]:
    """Shaded plane projection: one square per grid node, coloured by cell."""
    _, _, lifts = _grid_lifts(params, grid, span)  # checks grid before size / grid
    size = 480.0
    cell_px = size / grid

    def squares() -> Iterator[str]:
        yield f'<rect width="{_fmt(size)}" height="{_fmt(size)}" fill="#ffffff"/>'
        for k, (_, cells) in enumerate(lifts):
            color = _CELL_COLORS[cells[0]] if len(cells) == 1 else _MIXED_COLOR
            # Node (k1, k2) sits at the exact ratios k1 / (grid - 1) across and k2 / (grid - 1)
            # up, one correctly rounded int division each: any span maps onto the picture.
            k2, k1 = divmod(k, grid)
            px = k1 / (grid - 1) * (size - cell_px)
            py = (grid - 1 - k2) / (grid - 1) * (size - cell_px)
            yield (f'<rect x="{_fmt(px)}" y="{_fmt(py)}" width="{_fmt(cell_px)}" '
                   f'height="{_fmt(cell_px)}" fill="{color}"/>')
    return _svg_chunks(size, size, squares())


def farey_svg(d, depth: int) -> Iterator[str]:
    """Three u-coordinate panels, one after another, with the orbit triangles of
    the D cell: the triples of `farey_enumerate(depth - 1)` in its order."""
    _check_depth(depth)  # before d, as the farey listing checks them
    scale = _punctured_half(d)
    panel = 260.0
    margin = 30.0
    # Vertex |d|/2 (a, b) is drawn at its exact ratio a * (|d|/2) / umax to the largest
    # coordinate umax, one correctly rounded int division, so any d scales.  Every
    # numerator of the line is in a triple, and its denominators are them reversed.
    amax = max(_orbit_half(depth - 1)) if depth else 1
    num, den = (scale / max(scale * amax, Fraction(1, 10**9))).as_integer_ratio()
    inner = panel - 2 * margin
    oy = panel - margin

    def panels() -> Iterator[str]:
        yield f'<rect width="{_fmt(3 * panel)}" height="{_fmt(panel)}" fill="#ffffff"/>'
        for cell in (1, 2, 3):
            ox = (cell - 1) * panel + margin
            yield (f'<line x1="{_fmt(ox)}" y1="{_fmt(oy)}" x2="{_fmt(ox + panel - 2 * margin)}" '
                   f'y2="{_fmt(oy)}" stroke="#000000" stroke-width="1"/>')
            yield (f'<line x1="{_fmt(ox)}" y1="{_fmt(oy)}" x2="{_fmt(ox)}" '
                   f'y2="{_fmt(margin)}" stroke="#000000" stroke-width="1"/>')
            yield f'<text x="{_fmt(ox)}" y="{_fmt(margin - 8)}" font-size="12">cell {cell}</text>'
            listing = _farey_listing(depth - 1, cell)[1] if depth else ()
            for numerators, denominators, word in listing:
                pts = " ".join(
                    f"{_fmt(ox + a * num / den * inner)},{_fmt(oy - b * num / den * inner)}"
                    for a, b in zip(numerators, denominators)
                )
                yield (f'<polygon points="{pts}" fill="none" stroke="#08519c" '
                       f'stroke-width="1"><title>{word}</title></polygon>')
    return _svg_chunks(3 * panel, panel, panels())


def tessellation_svg(depth: int) -> Iterator[str]:
    """Orbit of the ideal triangle with vertices 0, 1, infinity, drawn in the
    unit disk via the inverse stereographic chart.

    The edges are those of the `_triangles` of the depth-n orbit cycle: the
    root's three, then level by level each new point joined to its two older
    neighbours, 3 * 2^(n+1) - 3 edges, each drawn once.  An edge is the exact
    SVG arc of the geodesic (the circle through both ends orthogonal to the
    boundary), or a line for a diameter.
    """
    size = 480.0
    center = size / 2
    radius = size / 2 - 10
    angles = _boundary_angles(depth)
    angles.append(angles[0])  # close the cycle
    ends = [f"{_fmt(center + radius * math.cos(t))},{_fmt(center - radius * math.sin(t))}"
            for t in angles]

    def edge(a: int, b: int) -> str:
        gap = math.remainder(angles[b] - angles[a], 2 * math.pi)
        if abs(abs(gap) - math.pi) < 1e-12:
            path = f"M {ends[a]} L {ends[b]}"
        else:
            # The arc bows inwards: clockwise (sweep 1) when b is counterclockwise
            # of a.  A short arc's middle moves 1/sin(gap/2) times as far as r.
            r = f"{radius * abs(math.tan(gap / 2)):.6f}"
            path = f"M {ends[a]} A {r},{r} 0 0,{1 if gap > 0 else 0} {ends[b]}"
        return f'<path d="{path}" fill="none" stroke="#08519c" stroke-width="0.8"/>'

    def edges() -> Iterator[str]:
        yield f'<rect width="{_fmt(size)}" height="{_fmt(size)}" fill="#ffffff"/>'
        yield (f'<circle cx="{_fmt(center)}" cy="{_fmt(center)}" r="{_fmt(radius)}" '
               'fill="none" stroke="#000000" stroke-width="1"/>')
        triangles = _triangles(range(len(angles)), depth)
        a, b, c = next(triangles)
        yield from (edge(a, b), edge(b, c), edge(c, a))
        for a, b, c in triangles:
            yield edge(a, b)
            yield edge(b, c)
    return _svg_chunks(size, size, edges())
