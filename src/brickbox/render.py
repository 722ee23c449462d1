"""Deterministic SVG rendering of 2-d tilings.

One rectangle per placement, colored by brick type. Coordinates are scaled
exactly from the rational geometry; the y axis is flipped so the origin
sits at the bottom-left, matching the mathematical orientation.
"""

from __future__ import annotations

from fractions import Fraction

from .geometry import Tiling

PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#59a14f",
    "#e15759",
    "#b07aa1",
    "#76b7b2",
    "#edc948",
    "#9c755f",
)


def _num(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return repr(float(x))


def tiling_to_svg(t: Tiling, scale: int = 100) -> str:
    """Render a 2-d tiling as an SVG document string (byte-deterministic)."""
    if t.box.dim != 2:
        raise ValueError("only 2-d tilings can be rendered")
    if scale < 1:
        raise ValueError(f"scale must be at least 1: {scale}")
    width = t.box.dims[0] * scale
    height = t.box.dims[1] * scale
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_num(width)} {_num(height)}">',
        f'<rect x="0" y="0" width="{_num(width)}" height="{_num(height)}" '
        'fill="#ffffff" stroke="#000000" stroke-width="2"/>',
    ]
    for p in t.placements:
        dims = t.bricks[p.brick_index].dims
        x = p.offset[0] * scale
        y = (t.box.dims[1] - p.offset[1] - dims[1]) * scale  # flip: origin bottom-left
        w = dims[0] * scale
        h = dims[1] * scale
        color = PALETTE[p.brick_index % len(PALETTE)]
        lines.append(
            f'<rect x="{_num(x)}" y="{_num(y)}" width="{_num(w)}" height="{_num(h)}" '
            f'fill="{color}" stroke="#000000" stroke-width="1"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
