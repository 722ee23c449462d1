"""Deterministic SVG rendering of 2-d tilings.

One rectangle per placement, colored by brick type. Coordinates come from
the tiling's integer frame (see `geometry`): an integer where the scaled
value is one, else the repr of its nearest double. They are read off the
frame's (brick type, distinct offset) pairs, so each pair's x, and its y
flipped from its high end, is formatted once. The y axis is flipped so the
origin sits at the bottom-left, matching the mathematical orientation.
"""

from __future__ import annotations

import numpy as np

from .geometry import Tiling, _integer_frame

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


def tiling_to_svg(t: Tiling, scale: int = 100) -> str:
    """Render a 2-d tiling as an SVG document string (byte-deterministic).

    Raises GridTooLarge for offsets too fine for the tiling's integer
    frame, as `verify_tiling_geometric` does.
    """
    if t.box.dim != 2:
        raise ValueError("only 2-d tilings can be rendered")
    if scale < 1:
        raise ValueError(f"scale must be at least 1: {scale}")
    (dx, dy), (width, height), bricks, ((_, xs, _, col), (_, _, tops, row)) = _integer_frame(t)

    def num(v: int, unit: int) -> str:
        # v * scale / unit, as an integer or as the nearest double's repr
        v *= scale
        return str(v // unit) if v % unit == 0 else repr(v / unit)

    w, h = num(width, dx), num(height, dy)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}">',
        f'<rect x="0" y="0" width="{w}" height="{h}" '
        'fill="#ffffff" stroke="#000000" stroke-width="2"/>',
    ]
    # Each (brick type, distinct offset) pair that occurs formats its x, or
    # its y flipped from its high end, once; a placement's line joins three
    # pieces.
    heads = np.array([f'<rect x="{num(x, dx)}" y="' for x in xs], dtype=object)
    flipped = np.array([num(height - y, dy) for y in tops], dtype=object)
    tails = np.array(
        [
            f'" width="{num(a, dx)}" height="{num(b, dy)}" fill="{PALETTE[k % len(PALETTE)]}" '
            'stroke="#000000" stroke-width="1"/>'
            for k, (a, b) in enumerate(bricks)
        ],
        dtype=object,
    )
    lines += (heads[col] + flipped[row] + tails[t.placements.kinds]).tolist()
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
