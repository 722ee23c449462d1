"""Exact rational bricks, boxes, placements, and geometric tiling verification.

Every length in this module is a `fractions.Fraction`; all tests are exact
(no floating point, no tolerances). Boxes and bricks are axis-aligned and
origin-anchored: a box spans [0, L_1] x ... x [0, L_d] and a placement
positions a brick by its lowest corner. Bricks are used under translation
only, never rotated.

`frac` is the one reader of rational strings, for the JSON and CLI formats
too: optional surrounding whitespace, an optional sign, ASCII digits, and
optionally "/" and ASCII digits not all zero ("3", "-3/4", "+6/08"). Decimal
points, exponents, underscores, other digits and signed denominators are
rejected; Fraction would spend seconds expanding "1e10000000".

On each axis, `_integer_frame` writes every length of a tiling as an int in
units of 1/D, for D the least common denominator of the lengths there. The
verifier compares boundaries and volumes as these ints, exact at any size;
the oracle's grid and the SVG writer read the same lattice.

All types are immutable values; all functions are pure and safe to call
concurrently.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

RationalLike = Union[Fraction, int, str]

#: Most arrangement cells `verify_tiling_geometric` allocates (40 MB of int32).
ARRANGEMENT_CAP = 10**7

# Most bits by which a tiling's offsets may refine, on one axis, the integer
# frame that its box and bricks need (see `_integer_frame`).
_FRAME_SLACK_BITS = 64


class GridTooLarge(Exception):
    """Raised when a grid or arrangement would exceed its cell cap."""


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?")


def _is_int(value: object) -> bool:
    # bool is an int subclass, but True is not the number 1 here.
    return isinstance(value, int) and not isinstance(value, bool)


def frac(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction (returned as is), or "p/q" string to a Fraction.

    Strings follow the grammar in the module docstring. Every other type
    raises TypeError: bools, floats, Decimals and numpy scalars must be
    converted by the caller deliberately.
    """
    if isinstance(value, Fraction):
        return value
    if not isinstance(value, str):
        if not _is_int(value):
            raise TypeError(f"{type(value).__name__} is not a Fraction, int or 'p/q' string")
        return Fraction(value)
    match = _RATIONAL.fullmatch(text := value.strip())
    if match is None:
        raise ValueError(f"not a rational number: {text!r}")
    try:
        return Fraction(int(match[1]), int(match[2] or 1))
    except ValueError as exc:  # more digits than int() converts
        raise ValueError(f"not a rational number: {text!r}") from exc


def _rationals(values: Sequence[RationalLike], name: str) -> tuple[Fraction, ...]:
    # A list or tuple only: a set or a dict iterates in an order its caller
    # never wrote, and a string is one rational, never a list of them.
    if isinstance(values, str):
        raise TypeError(f"{name} must be a sequence of rationals, not a string: {values!r}")
    if not isinstance(values, (list, tuple)):
        raise TypeError(f"{name} must be a list or tuple of rationals: {values!r}")
    return tuple(map(frac, values))


@dataclass(frozen=True)
class _Extents:
    # The body `Brick` and `BoxSpec` share: strictly positive extents, d >= 1.

    dims: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        dims = _rationals(self.dims, "extents")
        if not dims:
            raise ValueError("dimension must be at least 1")
        if any(v <= 0 for v in dims):
            raise ValueError("all extents must be strictly positive")
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return len(self.dims)


class Brick(_Extents):
    """An axis-aligned d-dimensional rectangle given by its extents."""


class BoxSpec(_Extents):
    """The target box [0, L_1] x ... x [0, L_d]."""


@dataclass(frozen=True)
class Placement:
    """One placed brick: a type index and the position of its lowest corner."""

    brick_index: int
    offset: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not _is_int(self.brick_index):
            raise TypeError(f"brick_index must be an int: {self.brick_index!r}")
        if self.brick_index < 0:
            raise ValueError("brick_index must be nonnegative")
        object.__setattr__(self, "offset", _rationals(self.offset, "offset"))


@dataclass(frozen=True)
class Tiling:
    """A set of placements of the given brick types inside a box.

    Construction validates structure only (dimensions agree, indices are in
    range, every placed brick lies inside the box). Whether the placements
    actually tile the box is decided by `verify_tiling_geometric`.
    """

    bricks: tuple[Brick, ...]
    placements: tuple[Placement, ...]
    box: BoxSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "bricks", tuple(self.bricks))
        object.__setattr__(self, "placements", tuple(self.placements))
        d = self.box.dim
        for k, b in enumerate(self.bricks):
            if b.dim != d:
                raise ValueError(f"brick {k} has dimension {b.dim}, box has {d}")
        # A brick at offset o fits on an axis iff 0 <= o <= L - c there.
        rooms = [tuple(L - c for L, c in zip(self.box.dims, b.dims)) for b in self.bricks]
        for k, p in enumerate(self.placements):
            if len(p.offset) != d:
                raise ValueError(f"placement {k} has {len(p.offset)} coordinates, box has {d}")
            if p.brick_index >= len(self.bricks):
                raise ValueError(f"placement {k} references unknown brick type {p.brick_index}")
            for ax, (o, room) in enumerate(zip(p.offset, rooms[p.brick_index])):
                if o < 0 or o > room:
                    raise ValueError(f"placement {k} extends outside the box on axis {ax}")


@dataclass(frozen=True)
class VerifyOutcome:
    """Result of geometric verification.

    status is one of "ok", "overlap", "volume-mismatch". The witness is the
    lexicographically first pair (i, j), i < j, of 0-based placement indices
    whose interiors meet for an overlap, and (placed volume, box volume) for
    a volume mismatch. Disjoint interiors inside the box with equal volume
    leave no gap, so no third failure exists.
    """

    status: str
    witness: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def volume(shape: Brick | BoxSpec) -> Fraction:
    """Exact product of the extents."""
    if not isinstance(shape, _Extents):
        raise TypeError("volume expects a Brick or BoxSpec")
    return math.prod(shape.dims, start=Fraction(1))


def _common_denominator(
    values: Sequence[Fraction], cap: float = math.inf, refusal: str = ""
) -> tuple[int, list[int]]:
    # The least common denominator D of `values`, and each value times D as
    # an int. Raises GridTooLarge(refusal), before any value is scaled, when
    # D > cap.
    ratios = [v.as_integer_ratio() for v in values]
    dens = {q for _, q in ratios}
    lcd = 1
    for q in dens:
        lcd = math.lcm(lcd, q)
        if lcd > cap:
            raise GridTooLarge(refusal)
    per = {q: lcd // q for q in dens}
    return lcd, [n * per[q] for n, q in ratios]


def _integer_frame(
    t: Tiling,
) -> tuple[tuple[int, ...], tuple[int, ...], list[tuple[int, ...]], list[list[int]]]:
    # Per axis, `_common_denominator` of the box extent, the brick extents
    # and the offsets there: (D per axis, box extents, each brick's extents,
    # and per axis every offset), as ints in units of 1/D. A tiling's offsets
    # are integer combinations of brick extents, so they never refine the
    # frame of the box and bricks; offsets that refine it by more than
    # 2**_FRAME_SLACK_BITS raise GridTooLarge before any offset is scaled.
    scale, columns = [], []
    for ax, length in enumerate(t.box.dims):
        fixed = [length, *(b.dims[ax] for b in t.bricks)]
        unit, ints = _common_denominator(
            fixed + [p.offset[ax] for p in t.placements],
            math.lcm(*(v.denominator for v in fixed)) << _FRAME_SLACK_BITS,
            f"offsets refine the integer frame on axis {ax} by more than 2**{_FRAME_SLACK_BITS}",
        )
        scale.append(unit)
        columns.append(ints)
    n = len(t.bricks) + 1
    bricks = list(zip(*(c[1:n] for c in columns)))
    return tuple(scale), tuple(c[0] for c in columns), bricks, [c[n:] for c in columns]


def _arrangement_counts(
    box: Sequence[int], spans: Sequence[tuple[list[int], list[int]]]
) -> tuple[np.ndarray, list[tuple[slice, ...]]]:
    # Cover count of each cell of the arrangement of all boundary coordinates
    # per axis, and each placement's window of cells; `spans` holds the
    # integer-frame low and high ends of every placement on each axis. Two
    # open placements meet iff their windows share a cell.
    index = [
        {v: k for k, v in enumerate(sorted({0, length, *lo, *hi}))}
        for length, (lo, hi) in zip(box, spans)
    ]
    shape = [len(ix) - 1 for ix in index]
    total = math.prod(shape)
    if total > ARRANGEMENT_CAP:
        raise GridTooLarge(f"arrangement needs {total} cells, cap is {ARRANGEMENT_CAP}")
    counts = np.zeros(shape, dtype=np.int32)
    per_axis = [
        [slice(ix[a], ix[b]) for a, b in zip(lo, hi)] for ix, (lo, hi) in zip(index, spans)
    ]
    windows = list(zip(*per_axis))
    for window in windows:
        counts[window] += 1
    return counts, windows


def verify_tiling_geometric(t: Tiling) -> VerifyOutcome:
    """Check that the placements tile the box exactly.

    One pass counts how many placements cover each cell of the arrangement
    of all placement boundaries. A cell covered twice is an overlap,
    reported as the lexicographically first pair i < j of placements whose
    interiors meet. Otherwise the interiors are disjoint and the placements
    lie inside the box, so they tile it iff the placed volume equals the box
    volume. Boundaries and volumes are compared as exact integers in the
    tiling's per-axis integer frame. Raises GridTooLarge when the
    arrangement has more than ARRANGEMENT_CAP cells, or when the offsets'
    denominators make the frame on an axis more than 2**64 times finer than
    the box and bricks need (no tiling does: its offsets are integer
    combinations of brick extents).
    """
    _, box, bricks, offsets = _integer_frame(t)
    types = [p.brick_index for p in t.placements]
    spans = [
        (lo, [o + bricks[i][ax] for o, i in zip(lo, types)]) for ax, lo in enumerate(offsets)
    ]
    counts, windows = _arrangement_counts(box, spans)
    if counts.max() > 1:
        # The first placement with a shared cell meets only later placements:
        # an earlier one it met would have been found first.
        i = next(k for k, window in enumerate(windows) if counts[window].max() > 1)
        for j in range(i + 1, len(windows)):
            if all(max(p.start, q.start) < min(p.stop, q.stop) for p, q in zip(windows[i], windows[j])):
                return VerifyOutcome("overlap", (i, j))
    uses = Counter(types)
    if sum(n * math.prod(bricks[k]) for k, n in uses.items()) != math.prod(box):
        placed = sum((n * volume(t.bricks[k]) for k, n in uses.items()), Fraction(0))
        return VerifyOutcome("volume-mismatch", (placed, volume(t.box)))
    return VerifyOutcome("ok")
