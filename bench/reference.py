"""Independent checks of brickbox outputs, in exact `Fraction` arithmetic.

Nothing here imports brickbox. The checks read plain extents, offsets and
the JSON objects the library emits, so a defect in the code under test
cannot also hide in its reference.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

Dims = Sequence[Fraction]


class Wrong(Exception):
    """A verdict, certificate or tiling contradicts its reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise Wrong(message)


def _integral(x: Fraction) -> bool:
    return x.denominator == 1


def check_certificate(box: Dims, a: Dims, b: Dims, cert: dict) -> None:
    """A split certificate in its JSON form (1-based axis, "p/q" cut)."""
    axis, m, n = cert["axis"] - 1, cert["m"], cert["n"]
    cut = Fraction(cert["cut"])
    require(0 <= axis < len(box) and m >= 0 and n >= 0, f"malformed certificate {cert}")
    require(m * a[axis] + n * b[axis] == box[axis], f"layers do not fill axis: {cert}")
    require(cut == m * a[axis], f"cut is not m * a_axis: {cert}")
    for i in range(len(box)):
        if i != axis:
            require(m == 0 or _integral(box[i] / a[i]), f"brick a misfits axis {i}: {cert}")
            require(n == 0 or _integral(box[i] / b[i]), f"brick b misfits axis {i}: {cert}")


def check_obstruction(box: Dims, a: Dims, b: Dims, obs: dict) -> None:
    """A pairwise-integrality violation and its witness point, in JSON form."""
    i, j = obs["i"] - 1, obs["j"] - 1
    require(i != j, f"obstruction axes coincide: {obs}")
    ra, rb = box[i] / a[i], box[j] / b[j]
    require(not _integral(ra) and not _integral(rb), f"obstruction ratios integral: {obs}")
    point = [Fraction(0)] * len(box)
    point[i], point[j] = ra, rb
    require([Fraction(p) for p in obs["point"]] == point, f"witness point wrong: {obs}")


def is_tiling(box: Dims, bricks: Sequence[Dims], placements) -> bool:
    """True iff the placements (brick index, offset) tile the box exactly.

    Counts coverage on the arrangement of every placement boundary: each
    arrangement cell lies wholly inside or outside each placement, so the
    placements tile the box iff every cell is covered exactly once.
    """
    d = len(box)
    coords = [{Fraction(0), box[ax]} for ax in range(d)]
    for k, offset in placements:
        for ax in range(d):
            if offset[ax] < 0 or offset[ax] + bricks[k][ax] > box[ax]:
                return False
            coords[ax].add(offset[ax])
            coords[ax].add(offset[ax] + bricks[k][ax])
    index = [{v: n for n, v in enumerate(sorted(c))} for c in coords]
    counts = np.zeros([len(c) - 1 for c in coords], dtype=np.int32)
    for k, offset in placements:
        counts[
            tuple(
                slice(index[ax][offset[ax]], index[ax][offset[ax] + bricks[k][ax]])
                for ax in range(d)
            )
        ] += 1
    return bool((counts == 1).all())


def tiling_placements(t) -> list[tuple[int, tuple[Fraction, ...]]]:
    """(brick index, offset) pairs of a tiling object's placements."""
    return [(p.brick_index, p.offset) for p in t.placements]
