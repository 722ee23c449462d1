"""Exact rational bricks, boxes, placements, and geometric tiling verification.

Every length in this module is a `fractions.Fraction`; all tests are exact
(no floating point, no tolerances). Boxes and bricks are axis-aligned and
origin-anchored: a box spans [0, L_1] x ... x [0, L_d] and a placement
positions a brick by its lowest corner. Bricks are used under translation
only, never rotated.

All types are immutable values; all functions are pure and safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

RationalLike = Union[Fraction, int, str]


def frac(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact Fraction.

    Floats are rejected: they are not exact and must be converted by the
    caller deliberately.
    """
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass a Fraction, int, or 'p/q' string")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {value!r}") from exc


def _positive_dims(dims: Sequence[RationalLike]) -> tuple[Fraction, ...]:
    out = tuple(frac(v) for v in dims)
    if not out:
        raise ValueError("dimension must be at least 1")
    if any(v <= 0 for v in out):
        raise ValueError("all extents must be strictly positive")
    return out


@dataclass(frozen=True)
class Brick:
    """An axis-aligned d-dimensional rectangle given by its extents."""

    dims: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", _positive_dims(self.dims))

    @property
    def dim(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class BoxSpec:
    """The target box [0, L_1] x ... x [0, L_d]."""

    dims: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", _positive_dims(self.dims))

    @property
    def dim(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class Placement:
    """One placed brick: a type index and the position of its lowest corner."""

    brick_index: int
    offset: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.brick_index < 0:
            raise ValueError("brick_index must be nonnegative")
        object.__setattr__(self, "offset", tuple(frac(v) for v in self.offset))


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
        for k, p in enumerate(self.placements):
            if len(p.offset) != d:
                raise ValueError(f"placement {k} has {len(p.offset)} coordinates, box has {d}")
            if p.brick_index >= len(self.bricks):
                raise ValueError(f"placement {k} references unknown brick type {p.brick_index}")
            dims = self.bricks[p.brick_index].dims
            for ax in range(d):
                if p.offset[ax] < 0 or p.offset[ax] + dims[ax] > self.box.dims[ax]:
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
    if not isinstance(shape, (Brick, BoxSpec)):
        raise TypeError("volume expects a Brick or BoxSpec")
    return math.prod(shape.dims, start=Fraction(1))


def interiors_disjoint(p: Placement, q: Placement, bricks: Sequence[Brick]) -> bool:
    """True iff the open boxes of the two placements do not intersect.

    Two open intervals are disjoint iff one ends at or before the other
    starts; the boxes are disjoint iff that happens on at least one axis.
    The test is exact and symmetric in its arguments.
    """
    bp = bricks[p.brick_index]
    bq = bricks[q.brick_index]
    if len(p.offset) != len(q.offset):
        raise ValueError("placements have different dimensions")
    for ax in range(len(p.offset)):
        lo = max(p.offset[ax], q.offset[ax])
        hi = min(p.offset[ax] + bp.dims[ax], q.offset[ax] + bq.dims[ax])
        if lo >= hi:
            return True
    return False


def rational_gcd(x: RationalLike, y: RationalLike) -> Fraction:
    """Largest rational g such that x/g and y/g are both integers.

    For x = p/q and y = r/s in lowest terms this is gcd(p*s, r*q) / (q*s).
    """
    xf, yf = frac(x), frac(y)
    if xf <= 0 or yf <= 0:
        raise ValueError("rational_gcd requires strictly positive arguments")
    return Fraction(
        math.gcd(xf.numerator * yf.denominator, yf.numerator * xf.denominator),
        xf.denominator * yf.denominator,
    )


def _arrangement_counts(t: Tiling) -> tuple[np.ndarray, list[tuple[slice, ...]]]:
    # Cover count of each cell of the arrangement of all boundary coordinates
    # per axis, and each placement's window of cells. Exact for any rational
    # offsets. Two open placements meet iff their windows share a cell.
    d = t.box.dim
    spans = []
    for p in t.placements:
        dims = t.bricks[p.brick_index].dims
        spans.append((p.offset, tuple(o + c for o, c in zip(p.offset, dims))))
    index: list[dict[Fraction, int]] = []
    for ax in range(d):
        vals = {Fraction(0), t.box.dims[ax]}
        for lo, hi in spans:
            vals.add(lo[ax])
            vals.add(hi[ax])
        index.append({v: k for k, v in enumerate(sorted(vals))})
    counts = np.zeros([len(ix) - 1 for ix in index], dtype=np.int32)
    windows = [
        tuple(slice(index[ax][lo[ax]], index[ax][hi[ax]]) for ax in range(d))
        for lo, hi in spans
    ]
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
    volume. All comparisons are exact rational arithmetic.
    """
    counts, windows = _arrangement_counts(t)
    if counts.max() > 1:
        # The first placement with a shared cell meets only later placements:
        # an earlier one it met would have been found first.
        i = next(k for k, window in enumerate(windows) if counts[window].max() > 1)
        for j in range(i + 1, len(t.placements)):
            if not interiors_disjoint(t.placements[i], t.placements[j], t.bricks):
                return VerifyOutcome("overlap", (i, j))
    placed = sum((volume(t.bricks[p.brick_index]) for p in t.placements), Fraction(0))
    box_vol = volume(t.box)
    if placed != box_vol:
        return VerifyOutcome("volume-mismatch", (placed, box_vol))
    return VerifyOutcome("ok")
