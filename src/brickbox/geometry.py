"""Exact rational bricks, boxes, placements, and geometric tiling verification.

Every length a caller passes in or reads back is a `fractions.Fraction`
(or an int or "p/q" string on the way in); all tests are exact (no floating
point, no tolerances). Boxes and bricks are axis-aligned and
origin-anchored: a box spans [0, L_1] x ... x [0, L_d] and a placement
positions a brick by its lowest corner. Bricks are used under translation
only, never rotated.

A `Tiling` holds its placements as columns, a `Placements` view: a
brick-index column and, per axis, the sorted distinct offsets, each stored
once as a Fraction, with an index column into them. The `Placements`
constructor is the one place that makes this form: every builder hands it
offsets in any order, repeated or unused, and it sorts and merges them.
`Tiling` checks bounds once per brick type and axis, and readers work from
the columns; a `Placement` is built only when a caller reads one. The first
bad placement is named by a plain scan of the rows, run only when the
column check fails.

`frac` is the one reader of rational strings, for the JSON and CLI formats
too: optional surrounding whitespace, an optional sign, ASCII digits, and
optionally "/" and ASCII digits not all zero ("3", "-3/4", "+6/08"). Decimal
points, exponents, underscores, other digits and signed denominators are
rejected; Fraction would spend seconds expanding "1e10000000".

On each axis, `_integer_frame` writes the box and brick extents and the
placements' ends as ints in units of 1/D, for D the least common
denominator of those lengths there: the low end o and high end o + c of
each (brick type, distinct offset) pair that occurs. The verifier builds
its arrangement from these ints, exact at any size; the SVG writer and the
spectral sampler read the same pairs, and the oracle's grid the same lattice.

All types are immutable values; all functions are pure and safe to call
concurrently.
"""

from __future__ import annotations

import math
import operator
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Union

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

    @classmethod
    def _unchecked(cls, brick_index: int, offset: tuple[Fraction, ...]) -> Placement:
        # A placement whose fields are already what __post_init__ makes of
        # them (an int index and a tuple of Fractions), as a view's columns
        # hold them: set directly, without checking them again.
        self = object.__new__(cls)
        object.__setattr__(self, "brick_index", brick_index)
        object.__setattr__(self, "offset", offset)
        return self


class Placements(Sequence):
    """The placements of a `Tiling`, in order, held as columns.

    `kinds` holds each placement's brick index. `axes` holds, per axis, the
    sorted distinct offsets there, each stored once, and each placement's
    index into them; all are read-only. `len` is O(1), and a `Placement` is
    built only when one is read by index or iteration. Equality, hash and
    repr read the columns: a view equals only a view of the same columns,
    never a tuple, and prints as the constructor call that rebuilds it.

    The constructor takes `kinds` and, per axis, a pair (values, index):
    placement k sits at values[index[k]] on that axis. The values may come
    in any order, repeat or go unused; they are brought to the sorted
    distinct form, so equal placements give equal columns. The columns must
    be flat and hold ints: floats, bools (also among ints) and other
    objects raise TypeError.
    """

    __slots__ = ("kinds", "axes")

    def __init__(
        self,
        kinds: Sequence[int],
        axes: Sequence[tuple[Sequence[RationalLike], Sequence[int]]],
    ) -> None:
        self.kinds = _read_only(kinds, "brick indices")
        if len(self.kinds) and self.kinds.min() < 0:
            raise ValueError("brick indices must be nonnegative")
        self.axes = tuple(_distinct(_rationals(values, "offsets"), index) for values, index in axes)
        for _, index in self.axes:
            if len(index) != len(self.kinds):
                raise ValueError("every column must have one entry per placement")

    def __reduce__(self):
        # Unpickled numpy arrays are writable; rebuild them read-only.
        return type(self), (self.kinds, self.axes)

    def __len__(self) -> int:
        return len(self.kinds)

    def _rows(self, rows: slice) -> Iterator[Placement]:
        kinds = self.kinds[rows].tolist()
        columns = [[values[i] for i in index[rows].tolist()] for values, index in self.axes]
        # A view of no axes still has a row, of no coordinates, per placement.
        return map(Placement._unchecked, kinds, zip(*columns) if columns else [()] * len(kinds))

    def __iter__(self) -> Iterator[Placement]:
        return self._rows(slice(None))

    def __getitem__(self, k):
        k = range(len(self))[operator.index(k)]
        return next(self._rows(slice(k, k + 1)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Placements):
            return (
                np.array_equal(self.kinds, other.kinds)
                and len(self.axes) == len(other.axes)
                and all(
                    p == q and np.array_equal(i, j)
                    for (p, i), (q, j) in zip(self.axes, other.axes)
                )
            )
        return NotImplemented

    def __hash__(self) -> int:
        # The constructor's canonical form (intp columns, sorted distinct
        # values) makes equal views hash alike.
        return hash((self.kinds.tobytes(), tuple((p, i.tobytes()) for p, i in self.axes)))

    def __repr__(self) -> str:
        axes = [(values, index.tolist()) for values, index in self.axes]
        return f"{type(self).__name__}({self.kinds.tolist()!r}, {axes!r})"


def _read_only(values: Sequence[int], name: str) -> np.ndarray:
    # An int column as a read-only intp array. Floats, bools and objects
    # (strings, ints past 64 bits) raise TypeError rather than truncate, and
    # so does anything but one flat column; an empty column has no entries
    # to check. numpy reads a bool among ints as an int, so a column that
    # is not already an array is also checked for bools entry by entry.
    column = np.asarray(values)
    if column.ndim != 1:
        raise TypeError(f"{name} must be ints in one flat column, not {column.ndim}-d")
    if column.size and column.dtype.kind not in "iu":
        raise TypeError(f"{name} must be ints, not {column.dtype}")
    if (
        column.size
        and not isinstance(values, np.ndarray)
        and not {bool, np.bool_}.isdisjoint(map(type, values))
    ):
        raise TypeError(f"{name} must be ints, not bool")
    column = column.astype(np.intp, copy=False)
    column.flags.writeable = False
    return column


def _distinct(
    values: tuple[Fraction, ...], index: Sequence[int]
) -> tuple[tuple[Fraction, ...], np.ndarray]:
    # The sorted distinct values that `index` uses, and the index into them.
    index = _read_only(index, "offset indices")
    try:
        used = np.bincount(index, minlength=len(values))
    except ValueError:  # np.bincount refuses a negative index
        used = None
    if used is None or len(used) > len(values):
        raise ValueError("offset index out of range")
    # Rounding to a double keeps order (a < b gives float(a) <= float(b)),
    # so (double, value) keys order exactly, comparing Fractions only
    # between values that round alike; past the double range all do.
    try:
        doubles = [n / q for n, q in map(Fraction.as_integer_ratio, values)]
    except OverflowError:
        doubles = [0.0] * len(values)
    # Most builders hand in the form already: every value used, and
    # strictly increasing doubles, so strictly increasing values.
    if used.all() and all(map(float.__lt__, doubles, doubles[1:])):
        return values, index
    rows = np.flatnonzero(used).tolist()
    keys = list(zip(doubles, values))
    order = sorted(rows, key=keys.__getitem__)
    distinct: list[Fraction] = []
    remap = [0] * len(values)
    last = None
    for i in order:
        if last is None or keys[i] != keys[last]:
            distinct.append(values[i])
        remap[i] = len(distinct) - 1
        last = i
    if len(distinct) != len(values) or order != rows:
        index = np.array(remap, dtype=np.intp)[index]
        index.flags.writeable = False
    return tuple(distinct), index


def _members(values: Iterable, cls: type, name: str) -> tuple:
    try:
        values = tuple(values)
    except TypeError:
        raise TypeError(f"{name} must be a sequence of {cls.__name__}: {values!r}") from None
    for k, v in enumerate(values):
        if not isinstance(v, cls):
            raise TypeError(f"{name}[{k}] must be a {cls.__name__}: {v!r}")
    return values


def _placement_columns(placements: tuple[Placement, ...], d: int) -> Placements:
    # The columns of placements that each have d coordinates and a known
    # brick type. Each offset object is compared once however many
    # placements share it. Brick indices and offset indices are ints, never
    # bools, so the columns go in as arrays, unscanned for bools.
    n = len(placements)
    offsets = [p.offset for p in placements]
    axes = []
    for ax in range(d):
        column = [o[ax] for o in offsets]
        ids = list(map(id, column))
        first = dict(zip(ids, column))
        at = {key: k for k, key in enumerate(first)}
        axes.append((tuple(first.values()), np.fromiter(map(at.__getitem__, ids), np.intp, n)))
    return Placements(np.fromiter((p.brick_index for p in placements), np.intp, n), axes)


def _fits(view: Placements, bricks: tuple[Brick, ...], box: BoxSpec) -> bool:
    # Whether every placement of a non-empty view names a brick type and
    # lies inside the box: on each axis the least offset is at least 0 and,
    # per brick type, the greatest offset it sits at is at most L - c. It
    # does not say which placement fails; `_first_error` does.
    if view.kinds.max() >= len(bricks):
        return False
    top = np.empty(len(bricks), dtype=np.intp)
    for ax, (values, index) in enumerate(view.axes):
        top.fill(-1)
        np.maximum.at(top, view.kinds, index)
        if values[0] < 0 or any(
            values[i] > box.dims[ax] - b.dims[ax] for i, b in zip(top.tolist(), bricks) if i >= 0
        ):
            return False
    return True


def _first_error(rows: Iterable[Placement], bricks: tuple[Brick, ...], box: BoxSpec) -> str:
    # The error of the first placement, in order, with the wrong number of
    # coordinates, an unknown brick type or an offset outside
    # 0 <= o <= L - c (on the first such axis). Called only once a column
    # check has failed, so some placement is bad.
    d = box.dim
    rooms = [[length - c for length, c in zip(box.dims, b.dims)] for b in bricks]
    for k, p in enumerate(rows):
        if len(p.offset) != d:
            return f"placement {k} has {len(p.offset)} coordinates, box has {d}"
        if p.brick_index >= len(bricks):
            return f"placement {k} references unknown brick type {p.brick_index}"
        for ax, (o, room) in enumerate(zip(p.offset, rooms[p.brick_index])):
            if not 0 <= o <= room:
                return f"placement {k} extends outside the box on axis {ax}"


@dataclass(frozen=True)
class Tiling:
    """A set of placements of the given brick types inside a box.

    `placements` may be given as any sequence of `Placement` or as a
    `Placements` view; it is held as a `Placements` view. Construction
    validates types (TypeError naming the field) and structure (dimensions
    agree, indices are in range, every placed brick lies inside the box;
    ValueError naming the first bad placement). Bounds are checked on the
    columns; only when that check fails are the rows scanned, in order, for
    the first bad placement. Whether the placements actually tile the box
    is decided by `verify_tiling_geometric`. Two tilings are equal when
    their bricks, boxes and placement sequences are.
    """

    bricks: tuple[Brick, ...]
    placements: Placements
    box: BoxSpec

    def __post_init__(self) -> None:
        bricks = _members(self.bricks, Brick, "bricks")
        if not isinstance(self.box, BoxSpec):
            raise TypeError(f"box must be a BoxSpec: {self.box!r}")
        placements = self.placements
        if not isinstance(placements, Placements):
            placements = _members(placements, Placement, "placements")
        d = self.box.dim
        for k, b in enumerate(bricks):
            if b.dim != d:
                raise ValueError(f"brick {k} has dimension {b.dim}, box has {d}")
        view = placements
        if isinstance(placements, tuple):
            malformed = any(len(p.offset) != d or p.brick_index >= len(bricks) for p in placements)
            view = None if malformed else _placement_columns(placements, d)
        elif not len(placements):
            view = Placements((), [((), ())] * d)
        if view is None or len(view.axes) != d or (len(view) and not _fits(view, bricks, self.box)):
            raise ValueError(_first_error(placements, bricks, self.box))
        object.__setattr__(self, "bricks", bricks)
        object.__setattr__(self, "placements", view)


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
) -> tuple[tuple[int, ...], tuple[int, ...], list[tuple[int, ...]], tuple[tuple, ...]]:
    # Per axis, `_common_denominator` of the box extent, the brick extents
    # and the distinct offsets there, as ints in units of 1/D: (D per axis,
    # box extents, each brick's extents, and per axis the ends of the
    # (brick type k, distinct offset i) pairs that occur, numbered
    # k * (number of distinct offsets) + i: the pair numbers in increasing
    # order, each pair's low end o and high end o + c, and each placement's
    # rank among the pairs). A tiling's offsets are integer combinations of
    # brick extents, so they never refine the frame of the box and bricks;
    # offsets that refine it by more than 2**_FRAME_SLACK_BITS raise
    # GridTooLarge before any offset is scaled.
    n = len(t.bricks) + 1
    axes = []
    for ax, (length, (values, index)) in enumerate(zip(t.box.dims, t.placements.axes)):
        fixed = [length, *(b.dims[ax] for b in t.bricks)]
        unit, ints = _common_denominator(
            fixed + list(values),
            math.lcm(*(v.denominator for v in fixed)) << _FRAME_SLACK_BITS,
            f"offsets refine the integer frame on axis {ax} by more than 2**{_FRAME_SLACK_BITS}",
        )
        extents, offsets = ints[1:n], ints[n:]
        pair = t.placements.kinds * len(offsets) + index
        used = np.bincount(pair).nonzero()[0]
        pairs = used.tolist()
        lows = [offsets[p % len(offsets)] for p in pairs]
        highs = [o + extents[p // len(offsets)] for o, p in zip(lows, pairs)]
        axes.append((unit, ints[0], extents, (pairs, lows, highs, used.searchsorted(pair))))
    scale, box, columns, ends = zip(*axes)
    return scale, box, list(zip(*columns)), ends


def _corners(lo: Sequence, hi: Sequence) -> Iterator[tuple[int, tuple]]:
    # The 2**d corners of boxes [lo, hi), each with the sign (-1)**(number of
    # high ends): a box's indicator is the signed sum of the orthants at its
    # corners, and a box sum of a prefix-sum table the signed sum of its
    # corner entries (times (-1)**d).
    for pick in product((False, True), repeat=len(lo)):
        yield (-1) ** sum(pick), tuple(h if up else low for up, low, h in zip(pick, lo, hi))


def verify_tiling_geometric(t: Tiling) -> VerifyOutcome:
    """Check that the placements tile the box exactly.

    One pass counts how many placements cover each cell of the arrangement
    of all placement boundaries. A cell covered twice is an overlap,
    reported as the lexicographically first pair i < j of placements whose
    interiors meet. Otherwise the interiors are disjoint and the placements
    lie inside the box, so they tile it iff the placed volume equals the box
    volume. Boundaries and volumes are compared as exact integers in the
    tiling's per-axis integer frame: the low and high ends of each (brick
    type, distinct offset) pair that occurs, read for every placement by
    its rank among the pairs; the counts are taken at once, over the axes
    where the arrangement has more than one cell (every placement spans
    the others). Raises GridTooLarge when the arrangement has more than
    ARRANGEMENT_CAP cells, or when the offsets' denominators make the frame
    on an axis more than 2**64 times finer than the box and bricks need (no
    tiling does: its offsets are integer combinations of brick extents).
    """
    _, box, bricks, ends = _integer_frame(t)
    lo, hi, shape = [], [], []
    for length, (_, lows, highs, rank) in zip(box, ends):
        at = {v: c for c, v in enumerate(sorted({0, length, *lows, *highs}))}
        lo.append(np.array([at[v] for v in lows], dtype=np.intp)[rank])
        hi.append(np.array([at[v] for v in highs], dtype=np.intp)[rank])
        shape.append(len(at) - 1)
    total = math.prod(shape)
    if total > ARRANGEMENT_CAP:
        raise GridTooLarge(f"arrangement needs {total} cells, cap is {ARRANGEMENT_CAP}")
    # Every placement spans an axis of one cell, which separates none of
    # them: count cover over the other axes (at least one), with 2**(their
    # number) corners per placement rather than 2**d.
    keep = [ax for ax, s in enumerate(shape) if s > 1] or [0]
    lo, hi, shape = ([c[ax] for ax in keep] for c in (lo, hi, shape))
    # Cover counts: signed corners of every placement's window of cells,
    # summed along each axis.
    counts = np.zeros([s + 1 for s in shape], dtype=np.int32)
    for sign, corner in _corners(lo, hi):
        np.add.at(counts, corner, sign)
    for ax in range(len(shape)):
        np.add.accumulate(counts, axis=ax, out=counts)
    if counts.max() > 1:
        # The first placement with a shared cell meets only later placements:
        # an earlier one it met would have been found first. Its window
        # holds a cell covered twice iff its box sum of `shared` is nonzero.
        shared = np.zeros_like(counts)
        shared[(slice(1, None),) * len(shape)] = counts[(slice(None, -1),) * len(shape)] > 1
        for ax in range(len(shape)):
            np.add.accumulate(shared, axis=ax, out=shared)
        hits = sum(sign * shared[corner] for sign, corner in _corners(lo, hi))
        i = int(np.flatnonzero(hits)[0])
        meets = np.logical_and.reduce(
            [np.maximum(a[i], a[i + 1 :]) < np.minimum(b[i], b[i + 1 :]) for a, b in zip(lo, hi)]
        )
        return VerifyOutcome("overlap", (i, i + 1 + int(np.flatnonzero(meets)[0])))
    uses = np.bincount(t.placements.kinds, minlength=len(bricks)).tolist()
    if sum(n * math.prod(b) for n, b in zip(uses, bricks)) != math.prod(box):
        placed = sum((n * volume(b) for n, b in zip(uses, t.bricks)), Fraction(0))
        return VerifyOutcome("volume-mismatch", (placed, volume(t.box)))
    return VerifyOutcome("ok")
