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
    # A tiling repeats few offsets per axis: format each brick's size, each
    # x offset and each (brick, y offset) pair once. The caches are keyed by
    # numerator and denominator, since hashing a Fraction costs a modular
    # inverse.
    sizes = [
        f'width="{_num(w * scale)}" height="{_num(h * scale)}" '
        f'fill="{PALETTE[k % len(PALETTE)]}"'
        for k, (w, h) in enumerate(b.dims for b in t.bricks)
    ]
    xs: dict[tuple[int, int], str] = {}
    ys: dict[tuple[int, int, int], str] = {}
    box_height = t.box.dims[1]
    for p in t.placements:
        k = p.brick_index
        x, y = p.offset
        x_key = x.numerator, x.denominator
        x_text = xs.get(x_key)
        if x_text is None:
            x_text = xs[x_key] = _num(x * scale)
        y_key = k, y.numerator, y.denominator
        y_text = ys.get(y_key)
        if y_text is None:
            # flip: origin bottom-left
            y_text = ys[y_key] = _num((box_height - y - t.bricks[k].dims[1]) * scale)
        lines.append(
            f'<rect x="{x_text}" y="{y_text}" {sizes[k]} stroke="#000000" stroke-width="1"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
