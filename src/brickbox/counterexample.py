"""The three-brick family where no hyperplane cut separates the brick types.

For an integer R >= 4 the box (R+1) x (R+1) is tiled by a pinwheel of five
pieces drawn from the types 1 x R, R x 1 and (R-1) x (R-1), yet no
axis-aligned cut splits the box into two sub-boxes each tileable by a
proper subset of the three types. The split search is exhaustive: because
all brick extents here are integers, any sub-box tiling slices each axis
into integer segments, so only integer cut positions can work; generically
the cut candidates are the interior grid-unit multiples.

Each side of a cut is decided exactly, with no search and no budget. A
proper subset of three types has one or two types: one type tiles a box iff
it divides every extent, and two types tile a box iff the two-brick split
theorem finds a cut into two one-type slabs (`theorem.find_split`).

R = 2 and R = 3 are excluded on purpose: brute force finds proper-subset
splits for them (for R = 3, each 2 x 4 half is filled by the 2 x 2 square
alone), so they are not members of the family this module certifies.

Instances lift to any dimension d > 2 by giving every extent trailing
lengths of 1, which preserves both the tiling and the no-split property.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations

from .exactcover import DEFAULT_GRID_CAP, build_grid
from .geometry import BoxSpec, Brick, Placement, Tiling
from .theorem import find_split, one_brick_tileable

CUT_JUSTIFICATION = (
    "cut positions are enumerated at interior grid-unit multiples; with "
    "integer brick extents a 1-d slice of any sub-box tiling partitions its "
    "width into integer segments, so no other cut can admit tilings"
)


# Nothing raises this now; bench/pipelines.py still names it in NO_VERDICT.
class BudgetExhausted(Exception):
    """A sub-decision hit the solver budget; no verdict was produced."""


@dataclass(frozen=True)
class ThreeBrickInstance:
    """Box (R+1) x (R+1) with brick types 1 x R, R x 1, (R-1) x (R-1)."""

    R: int

    @property
    def box(self) -> BoxSpec:
        return BoxSpec((self.R + 1, self.R + 1))

    @property
    def bricks(self) -> tuple[Brick, Brick, Brick]:
        R = self.R
        return Brick((1, R)), Brick((R, 1)), Brick((R - 1, R - 1))


@dataclass(frozen=True)
class SplitEntry:
    """One (axis, cut, subset pair) case with the tileability of each side."""

    axis: int
    alpha: Fraction
    left_subset: tuple[int, ...]
    right_subset: tuple[int, ...]
    left_sat: bool
    right_sat: bool

    @property
    def both_sat(self) -> bool:
        return self.left_sat and self.right_sat


@dataclass(frozen=True)
class NoSplitReport:
    """Full enumeration of hyperplane cuts against subset pairs.

    The verdict `no_split` holds iff no entry has both sides tileable.
    Every entry is decided exactly, by the divisibility test or the
    two-brick split theorem, with no search budget.
    """

    box: BoxSpec
    bricks: tuple[Brick, ...]
    entries: tuple[SplitEntry, ...]

    @property
    def split_found(self) -> SplitEntry | None:
        for entry in self.entries:
            if entry.both_sat:
                return entry
        return None

    @property
    def no_split(self) -> bool:
        return self.split_found is None


def make_instance(R: int) -> ThreeBrickInstance:
    """Family member for an integer R >= 4; smaller R are rejected."""
    if not isinstance(R, int) or isinstance(R, bool):
        raise ValueError("R must be an integer")
    if R < 4:
        raise ValueError(f"R must be at least 4; R={R} admits a proper-subset split")
    return ThreeBrickInstance(R)


def pinwheel_tiling(inst: ThreeBrickInstance) -> Tiling:
    """The five-piece pinwheel: central square with four strips around it."""
    R = inst.R
    placements = (
        Placement(2, (1, 1)),  # central square
        Placement(1, (0, 0)),  # bottom strip
        Placement(0, (R, 0)),  # right strip
        Placement(1, (1, R)),  # top strip
        Placement(0, (0, 1)),  # left strip
    )
    return Tiling(bricks=inst.bricks, placements=placements, box=inst.box)


def proper_split_report(
    box: BoxSpec, bricks: tuple[Brick, ...], grid_cap: int = DEFAULT_GRID_CAP
) -> NoSplitReport:
    """Decide every (axis, cut, subset-pair) combination for the given box.

    The pairs are all ordered pairs of nonempty proper subsets of the brick
    types, ordered by size then lexicographically. With at most three types
    each side has one or two, so it is decided exactly: one type by the
    divisibility test, two by the two-brick split theorem. Raises
    ValueError for more than three types, and GridTooLarge when the box's
    grid has more than `grid_cap` cells.
    """
    bricks = tuple(bricks)
    n = len(bricks)
    if n > 3:
        raise ValueError(f"the split report takes at most three brick types, not {n}")
    subsets = [s for size in range(1, n) for s in combinations(range(n), size)]
    pairs = [(s, t) for s in subsets for t in subsets]
    grid = build_grid(box, bricks, cap=grid_cap)

    @cache
    def side_tileable(dims: tuple[Fraction, ...], subset: tuple[int, ...]) -> bool:
        side = BoxSpec(dims)
        if len(subset) == 1:
            return one_brick_tileable(side, bricks[subset[0]])
        i, j = subset
        return find_split(side, bricks[i], bricks[j]) is not None

    entries: list[SplitEntry] = []
    for axis in range(box.dim):
        unit = grid.unit[axis]
        for k in range(1, grid.cells[axis]):
            alpha = k * unit
            left = tuple(
                alpha if ax == axis else box.dims[ax] for ax in range(box.dim)
            )
            right = tuple(
                box.dims[ax] - alpha if ax == axis else box.dims[ax]
                for ax in range(box.dim)
            )
            for s, t in pairs:
                entries.append(
                    SplitEntry(
                        axis=axis,
                        alpha=alpha,
                        left_subset=s,
                        right_subset=t,
                        left_sat=side_tileable(left, s),
                        right_sat=side_tileable(right, t),
                    )
                )
    return NoSplitReport(box=box, bricks=bricks, entries=tuple(entries))


def lift_to_dimension(t: Tiling, d: int) -> Tiling:
    """Embed a 2-d tiling in d > 2 dimensions with trailing extents of 1.

    Dropping the trailing coordinates again recovers the original tiling.
    """
    if t.box.dim != 2:
        raise ValueError("only 2-d tilings can be lifted")
    if d <= 2:
        raise ValueError("target dimension must exceed 2")
    ones = (Fraction(1),) * (d - 2)
    zeros = (Fraction(0),) * (d - 2)
    return Tiling(
        bricks=tuple(Brick(b.dims + ones) for b in t.bricks),
        placements=tuple(Placement(p.brick_index, p.offset + zeros) for p in t.placements),
        box=BoxSpec(t.box.dims + ones),
    )
