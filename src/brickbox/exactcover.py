"""Brute-force tileability oracle via grid discretization and exact cover.

Independent of the split-certificate machinery: a rational box and brick
list are snapped to the coarsest per-axis grid on which every extent is an
integer cell count, every in-bounds (brick type, integer offset) placement
becomes a row covering its footprint cells, and tileability becomes exact
cover (select rows partitioning all cells).

Before any row is built, and before the grid cell cap is applied, two
necessary conditions are checked on the grid's counts alone; either one
failing is a proof of UNSAT with no search (a count above the cap gets the
gcd test alone, so the check stays bounded):

* slice: a line through cell centres parallel to axis k meets the tiles it
  crosses in whole footprints, so the box's cell count on every axis is a
  nonnegative integer combination of the brick footprints on that axis;
* volume: the box's cell count is a nonnegative integer combination of the
  brick cell volumes.

The rows come from one numpy stencil per brick type: the footprint's cell
ids broadcast over the base cell of every in-bounds offset. A cover problem
is its grid and a tuple of rows, each row the tuple of its cell ids. The
rows run by brick type, then by offset in row-major order, so a row id
alone names its placement: `rows_to_tiling` reads the brick type and the
offset back from the grid as integer columns, and makes each distinct
offset's Fraction once, from ints.

The search is Knuth's Algorithm X with the header ring of Dancing Links
(Knuth, arXiv cs/0011047): the uncovered columns form a doubly linked ring
in id order. Each column keeps a fixed list of its row ids in increasing
order, and the search keeps one live flag per row, one live-row count per
column and one log of killed rows. Selecting a row unlinks each of its
columns from the ring and kills every still-live row in those columns'
lists exactly once: it clears the row's flag, logs it and decrements the
count of each of the row's columns. Each search frame keeps the log's
length when it was made; backtracking revives the rows logged since then
and relinks the columns in reverse. The column lists are never changed,
and a covered column's count is not read until the column is uncovered,
by which time its rows are live again.
The search always branches on the column with the fewest candidate rows,
found by walking the ring from its root and taking the first minimum (the
lowest cell id); an empty column ends the walk at once, since nothing can
cover it. Rows are tried in increasing id order. That makes results
deterministic and kills adversarial unsatisfiable instances quickly. The
search is iterative, counts every row trial as a node, and reports hitting
the node budget as a distinct "timeout" outcome carrying the number of
trials made; a budget hit is never converted into UNSAT.

`exact_cover_tileable` runs that search first under a short budget of
SHORT_SEARCH_BUDGET (200) row trials. On the benchmark's seeds 11, 17 and
20240917, every instance of the `crosscheck` corpus settles within 148
trials and every light instance of the `search` corpus within 48, so they
never go further. An instance the short search leaves open goes to a
frontier automaton, the transfer-matrix method (Klarner and Pollack,
"Domino tilings of rectangles with fixed width", Discrete Math. 1980),
which reads only the `GridModel`:

* one axis is the long one, of N cells; H is the longest footprint along
  it among the brick types that fit the grid;
* at a column boundary the state is the occupancy of the next H-1 columns,
  held as one int with one bit per cell;
* a state's successors fill its first column, each step putting a brick
  with its corner at the column's lowest empty cell (in any tiling that
  cell is a brick's lowest corner). The fillings of a column depend only on
  the column's own filled cells and on the columns left, so they are kept
  per such pair and combined with each state's later columns;
* the grid is tileable iff the empty state comes back after exactly N
  columns.

Axes are tried by fewest state bits first. The automaton gives up on an
axis once one column holds more than FRONTIER_CAP (4096) states or makes
more than FRONTIER_CAP partial fillings. 14x14 {1x4, 4x1} peaks at 2932
states in a column, so it is refuted. A cap of 50 000 over the whole run
rather than per column let the automaton spend 61 ms before giving up on
14x14 {5x1, 3x3, 1x4, 6x6} (tileable), against 9 to 11 ms with the cap
per column.

A refutation by the automaton is returned as "unsat" with `pruned_by`
"frontier axis <k>" and the short search's trials as `nodes`. When the
automaton finds the box tileable or gives up on every axis, the search
runs again from the start under the caller's budget. So every tiling,
every tileable instance's node count and every timeout is the search's
own, and a timeout means the automaton did not refute the box.

A solver run owns its mutable search state and must stay on one thread;
inputs and outcomes are immutable values, and independent runs do not
interfere.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import accumulate
from operator import le
from typing import ClassVar

import numpy as np

from .geometry import BoxSpec, Brick, GridTooLarge, Placements, Tiling, _common_denominator

DEFAULT_GRID_CAP = 10**6
DEFAULT_NODE_BUDGET = 10**7

#: Row trials of the search that runs before the frontier automaton.
SHORT_SEARCH_BUDGET = 200
#: Most states in one column of the frontier automaton, and most partial
#: column fillings it makes for one column, before it gives up on an axis.
FRONTIER_CAP = 4096

SAT = "sat"
UNSAT = "unsat"
TIMEOUT = "timeout"


# ---------------------------------------------------------------------------
# Grid discretization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridModel:
    """Per-axis grid units, cell counts, and integer brick footprints."""

    unit: tuple[Fraction, ...]
    cells: tuple[int, ...]
    brick_footprints: tuple[tuple[int, ...], ...]

    @property
    def cell_count(self) -> int:
        return math.prod(self.cells)


def _spans(grid: GridModel) -> list[list[int]]:
    # Per brick type, its number of in-bounds offsets on each axis; a type
    # with a span below 1 does not fit the grid and has no rows.
    return [[c - f + 1 for c, f in zip(grid.cells, fp)] for fp in grid.brick_footprints]


@dataclass(frozen=True)
class CoverProblem:
    """Exact-cover instance: one column per grid cell, one row per placement.

    `rows` holds each row's cell ids. Hand-built rows are checked to cover
    distinct cells of the grid, and `rows_to_tiling` checks that each row it
    maps covers the placement its id names; `build_cover_problem`'s rows
    skip both checks.
    """

    grid: GridModel
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(map(tuple, self.rows))
        n = self.grid.cell_count
        for rid, cells in enumerate(rows):
            for c in cells:
                if not 0 <= c < n:
                    raise ValueError(f"cover row {rid} has cell {c} outside the grid")
            if len(set(cells)) != len(cells):
                raise ValueError(f"cover row {rid} covers a cell twice")
        object.__setattr__(self, "rows", rows)

    # Whether the rows are `build_cover_problem`'s, so that a row id names
    # its placement without a check.
    _built: ClassVar[bool] = False

    @classmethod
    def _unchecked(cls, grid: GridModel, rows: tuple[tuple[int, ...], ...]) -> CoverProblem:
        # Rows built from the grid itself: set directly, without the checks.
        self = object.__new__(cls)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_built", True)
        return self

    @property
    def n_columns(self) -> int:
        return self.grid.cell_count


@dataclass(frozen=True)
class CoverOutcome:
    """Search result: status, solutions found (row id sets), nodes used."""

    status: str
    solutions: tuple[tuple[int, ...], ...] = ()
    nodes: int = 0


@dataclass(frozen=True)
class TileOutcome:
    """Tileability result: status plus the reconstructed tiling when sat.

    `pruned_by` names what refuted the instance other than the search: a
    necessary condition checked before any search ("slice axis <k>" or
    "volume", with 0 nodes), or the frontier automaton with axis k as its
    long axis ("frontier axis <k>", with the short search's trials as
    `nodes`); else None.
    """

    status: str
    tiling: Tiling | None = None
    nodes: int = 0
    pruned_by: str | None = None


def build_grid(
    box: BoxSpec, bricks: Sequence[Brick], cap: float = DEFAULT_GRID_CAP
) -> GridModel:
    """Coarsest per-axis grid on which box and all brick extents are integral.

    The unit on each axis is g/D: D is the least common denominator of the
    box and brick extents there, and g the gcd of those extents as ints in
    units of 1/D. Raises GridTooLarge when the total cell count exceeds
    `cap` (`math.inf` builds the grid uncapped).
    """
    if not bricks:
        raise ValueError("need at least one brick type")
    d = box.dim
    for b in bricks:
        if b.dim != d:
            raise ValueError("box and brick dimensions differ")
    unit, columns = [], []
    for ax in range(d):
        lcd, ints = _common_denominator([box.dims[ax], *(b.dims[ax] for b in bricks)])
        g = math.gcd(*ints)
        unit.append(Fraction(g, lcd))
        columns.append([v // g for v in ints])
    cells = tuple(column[0] for column in columns)
    footprints = tuple(zip(*(column[1:] for column in columns)))
    grid = GridModel(unit=tuple(unit), cells=cells, brick_footprints=footprints)
    _require_cap(grid, cap)
    return grid


def _require_cap(grid: GridModel, cap: float) -> None:
    if grid.cell_count > cap:
        raise GridTooLarge(f"grid needs {grid.cell_count} cells, cap is {cap}")


def build_cover_problem(grid: GridModel) -> CoverProblem:
    """Enumerate all in-bounds placements as cover rows, in deterministic order.

    Rows are ordered by brick type, then by offset row-major; cell ids are
    row-major over the grid. Bricks too large for the grid simply produce
    no rows.
    """
    ids = np.arange(grid.cell_count, dtype=np.int64).reshape(grid.cells)
    rows: list[tuple[int, ...]] = []
    for spans, footprint in zip(_spans(grid), grid.brick_footprints):
        if min(spans) < 1:
            continue
        # Row-major ids are linear: the cell at offset + rel has id(offset) + id(rel).
        base = ids[tuple(map(slice, spans))].reshape(-1, 1)
        covered = base + ids[tuple(map(slice, footprint))].reshape(1, -1)
        rows += map(tuple, covered.tolist())
    return CoverProblem._unchecked(grid, tuple(rows))


def _combination_of(n: int, parts: Sequence[int], cap: int) -> bool:
    """Whether n may be a nonnegative integer combination of the positive `parts`.

    A gcd test, then, for n <= cap, reachability over 0..n held as the bits
    of one int: or-ing in shifts by p, 2p, 4p, ... closes the reachable set
    under adding p, so each part costs O(log n) big-int operations. Above
    `cap` the mask would outgrow the grid cap, so only the gcd test runs and
    True means no more than "not refuted".
    """
    if n % math.gcd(*parts):
        return False
    if n > cap:
        return True
    mask = (1 << (n + 1)) - 1
    reach = 1
    for p in parts:
        while p <= n:
            reach |= (reach << p) & mask
            p *= 2
    return bool(reach >> n & 1)


def _prefilter(grid: GridModel, cap: int) -> str | None:
    """Name the first failed necessary condition for tileability, or None.

    Checks the slice condition on each axis in order, then the volume
    condition (see the module docstring); counts above `cap` get the gcd
    test alone.
    """
    for ax, n in enumerate(grid.cells):
        if not _combination_of(n, [f[ax] for f in grid.brick_footprints], cap):
            return f"slice axis {ax}"
    if not _combination_of(grid.cell_count, [math.prod(f) for f in grid.brick_footprints], cap):
        return "volume"
    return None


def cover_matrix_text(problem: CoverProblem) -> str:
    """Sparse text form of the cover matrix: per line, row id then cell ids."""
    lines = [" ".join(map(str, (rid, *cells))) for rid, cells in enumerate(problem.rows)]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Algorithm X
# ---------------------------------------------------------------------------


def solve_exact_cover(
    problem: CoverProblem,
    limit: int | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> CoverOutcome:
    """Find row sets partitioning all columns, up to `limit` of them.

    Status "unsat" means the search space was exhausted with no solution;
    "timeout" means the node budget ran out first, after exactly
    `node_budget` row trials (any solutions already found are included).
    With limit=1 the first solution is returned as soon as it is found.
    The problem has at least one column, as every `build_grid` model does.
    The column row lists stay fixed; a search moves only the column ring,
    each row's live flag, each column's live-row count and the kill log.
    """
    n = problem.n_columns
    Y = problem.rows
    X: list[list[int]] = [[] for _ in range(n)]
    for rid, cells in enumerate(Y):
        for c in cells:
            X[c].append(rid)
    size = list(map(len, X))
    live = [True] * len(Y)
    killed: list[int] = []
    # Uncovered columns as a ring in id order: L/R hold each column's
    # neighbours, and index n is the root.
    L = list(range(-1, n))
    L[0] = n
    R = list(range(1, n + 2))
    R[n] = 0

    def select(rid: int) -> None:
        for j in Y[rid]:
            left, right = L[j], R[j]
            R[left], L[right] = right, left
            for i in X[j]:
                if live[i]:
                    live[i] = False
                    killed.append(i)
                    for k in Y[i]:
                        size[k] -= 1

    def frame() -> list:
        # The live rows of the column with the fewest (lowest id on ties; an
        # empty one ends the walk), the next index to try, the log's mark.
        best, fewest = n, len(Y) + 1
        c = R[n]
        while c != n:
            if size[c] < fewest:
                best, fewest = c, size[c]
                if not fewest:
                    break
            c = R[c]
        return [[i for i in X[best] if live[i]], 0, len(killed)]

    solutions: list[tuple[int, ...]] = []
    nodes = 0
    hit_budget = False
    frames: list[list] = [frame()]
    sel_rows: list[int] = []

    while frames:
        cands, idx, mark = frames[-1]
        if len(sel_rows) == len(frames):
            # Backtrack: revive the rows killed since the mark, then relink.
            for i in killed[mark:]:
                live[i] = True
                for k in Y[i]:
                    size[k] += 1
            del killed[mark:]
            for j in reversed(Y[sel_rows.pop()]):
                R[L[j]] = L[R[j]] = j
        if idx >= len(cands):
            frames.pop()
            continue
        frames[-1][1] = idx + 1
        rid = cands[idx]
        if nodes >= node_budget:
            hit_budget = True
            break
        nodes += 1
        sel_rows.append(rid)
        select(rid)
        if R[n] == n:
            solutions.append(tuple(sel_rows))
            if limit is not None and len(solutions) >= limit:
                break
            continue
        frames.append(frame())

    status = TIMEOUT if hit_budget else SAT if solutions else UNSAT
    return CoverOutcome(status, tuple(solutions), nodes)


# ---------------------------------------------------------------------------
# Frontier automaton
# ---------------------------------------------------------------------------


def _column_fillings(
    col: int, moves: list, cross: Sequence[int], strides: Sequence[int], budget: int
) -> tuple[tuple[int, ...] | None, int]:
    """Every way to fill one column whose filled cells are the bits of `col`.

    Returns the distinct sets of cells the placed bricks fill in the next
    columns, as ints with bit 0 the next column's first cell, and the number
    of partial fillings made; None in place of the sets once that number
    passes `budget`. Each step puts a brick of `moves` ((corner limits, cell
    mask) pairs) with its corner at the column's lowest empty cell x. A
    partial filling is held shifted so that bit 0 is cell x, and partials
    at the same x are merged.
    """
    width = math.prod(cross)
    done: set[int] = set()
    todo: dict[int, set[int]] = {}
    pending: list[int] = []

    def put(x: int, q: int) -> None:
        t = min((~q & (q + 1)).bit_length() - 1, width - x)
        x, q = x + t, q >> t
        if x == width:
            done.add(q)
        elif x in todo:
            todo[x].add(q)
        else:
            todo[x] = {q}
            heappush(pending, x)

    put(0, col)
    made = 0
    while pending:
        x = heappop(pending)
        partials = todo.pop(x)
        made += len(partials)
        if made > budget:
            return None, made
        at = [x // s % c for s, c in zip(strides, cross)]
        fit = [mask for lim, mask in moves if all(map(le, at, lim))]
        for q in partials:
            for mask in fit:
                if not q & mask:
                    put(x, q | mask)
    return tuple(done), made


def _frontier_axis(cells: Sequence[int], fits: list, ax: int) -> bool | None:
    """Whether the grid is tileable, by columns across axis `ax`; None past the cap.

    The state at a column boundary is the occupancy of the next H-1 columns
    (H the longest fitting footprint on `ax`), one bit per cell, column by
    column, each in row-major order. A state's successors come from filling
    its first column (`_column_fillings`, kept per (first column, columns
    left)). A brick that fills a cell of a later column also fills the cell
    of each column between on the same line along `ax`, so the bricks put in
    a column's empty cells never meet the state's later columns, and each
    filling joins them by a plain or. The grid is tileable iff the empty
    state comes back after exactly cells[ax] columns. A column gives up once it holds more than
    FRONTIER_CAP states or makes more than FRONTIER_CAP partial fillings.
    """
    cross = cells[:ax] + cells[ax + 1:]
    width = math.prod(cross)
    strides = [math.prod(cross[j + 1:]) for j in range(len(cross))]
    bricks = []
    ids = np.arange(width).reshape(cross)
    for fp in fits:
        side = fp[:ax] + fp[ax + 1:]
        layer = sum(1 << i for i in ids[tuple(map(slice, side))].ravel().tolist())
        mask = sum(layer << (k * width) for k in range(fp[ax]))
        bricks.append((fp[ax], tuple(c - n for c, n in zip(cross, side)), mask))
    depth = max((h for h, _, _ in bricks), default=1)
    column = (1 << width) - 1
    fillings: dict[tuple[int, int], tuple[int, ...]] = {}
    frontier = {0}
    for i in range(cells[ax]):
        left = min(cells[ax] - i, depth)
        moves = [(lim, mask) for h, lim, mask in bricks if h <= left]
        after: set[int] = set()
        made = 0
        for state in frontier:
            key = (state & column, left)
            ahead = fillings.get(key)
            if ahead is None:
                ahead, used = _column_fillings(key[0], moves, cross, strides, FRONTIER_CAP - made)
                if ahead is None:
                    return None
                fillings[key] = ahead
                made += used
            rest = state >> width
            after.update(rest | a for a in ahead)
            if len(after) > FRONTIER_CAP:
                return None
        if not after:
            return False
        frontier = after
    return 0 in frontier


def _frontier_tileable(grid: GridModel) -> tuple[bool, int] | None:
    """(tileable, long axis) from the first axis whose automaton decides, or None.

    Axes are tried by fewest state bits first (cross-section cells times
    the longest fitting footprint on the axis less one), then in order.
    """
    fits = [fp for fp in grid.brick_footprints if all(map(le, fp, grid.cells))]

    def state_bits(ax: int) -> int:
        depth = max((fp[ax] for fp in fits), default=1)
        return grid.cell_count // grid.cells[ax] * (depth - 1)

    for ax in sorted(range(len(grid.cells)), key=state_bits):
        tileable = _frontier_axis(grid.cells, fits, ax)
        if tileable is not None:
            return tileable, ax
    return None


def rows_to_tiling(
    box: BoxSpec, bricks: Sequence[Brick], problem: CoverProblem, row_ids: Sequence[int]
) -> Tiling:
    """Map selected cover rows back to exact rational placements.

    Row ids are read in `build_cover_problem`'s order: brick type k has one
    row per in-bounds offset, in row-major order, after those of types
    below k. A hand-built row that does not cover the placement its id
    names raises ValueError.
    """
    grid = problem.grid
    spans = _spans(grid)
    first = list(accumulate((math.prod(s) if min(s) >= 1 else 0 for s in spans), initial=0))
    if not problem._built:
        row_ids = list(row_ids)
        for rid in row_ids:
            if not 0 <= rid < min(first[-1], len(problem.rows)):
                raise ValueError(f"cover row {rid} names no placement")
    kinds, offsets = [], []
    for rid in row_ids:
        k = bisect_right(first, rid) - 1
        rest, offset = rid - first[k], []
        for span in reversed(spans[k]):
            rest, o = divmod(rest, span)
            offset.append(o)
        kinds.append(k)
        offsets.append(offset[::-1])
    if not problem._built:
        ids = np.arange(grid.cell_count).reshape(grid.cells)
        for rid, k, offset in zip(row_ids, kinds, offsets):
            at = tuple(slice(o, o + f) for o, f in zip(offset, grid.brick_footprints[k]))
            if sorted(problem.rows[rid]) != ids[at].ravel().tolist():
                raise ValueError(f"cover row {rid} does not cover brick {k} at offset {tuple(offset)}")
    axes = []
    for ax, unit in enumerate(grid.unit):
        # Merged as ints, so each distinct offset becomes one Fraction, made
        # from ints with no Fraction arithmetic.
        column = [offset[ax] for offset in offsets]
        cells = sorted(set(column))
        at = {c: k for k, c in enumerate(cells)}
        n, q = unit.as_integer_ratio()
        index = np.fromiter(map(at.__getitem__, column), np.intp, len(column))
        axes.append(([Fraction(c * n, q) for c in cells], index))
    placements = Placements(np.array(kinds, dtype=np.intp), axes)
    return Tiling(bricks=tuple(bricks), placements=placements, box=box)


def exact_cover_tileable(
    box: BoxSpec,
    bricks: Sequence[Brick],
    grid_cap: int = DEFAULT_GRID_CAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> TileOutcome:
    """Decide tileability by translates of the given brick types.

    Returns a tiling (which passes geometric verification) when satisfiable,
    "unsat" when a prefilter (named in `pruned_by`, with 0 nodes), the
    frontier automaton (named in `pruned_by`, with the short search's
    trials as nodes) or the exhaustive search rules a tiling out, and
    "timeout" when the node budget was exhausted first and the automaton
    did not refute the box. Raises GridTooLarge when no prefilter refutes
    an instance that does not fit the grid cap.
    """
    grid = build_grid(box, bricks, cap=math.inf)
    pruned_by = _prefilter(grid, grid_cap)
    if pruned_by is not None:
        return TileOutcome(UNSAT, pruned_by=pruned_by)
    _require_cap(grid, grid_cap)
    problem = build_cover_problem(grid)
    outcome = solve_exact_cover(problem, limit=1, node_budget=min(node_budget, SHORT_SEARCH_BUDGET))
    if outcome.status == TIMEOUT:
        verdict = _frontier_tileable(grid)
        if verdict is not None and not verdict[0]:
            return TileOutcome(UNSAT, nodes=outcome.nodes, pruned_by=f"frontier axis {verdict[1]}")
        if node_budget > SHORT_SEARCH_BUDGET:
            outcome = solve_exact_cover(problem, limit=1, node_budget=node_budget)
    if outcome.status == SAT:
        tiling = rows_to_tiling(box, bricks, problem, outcome.solutions[0])
        return TileOutcome(SAT, tiling=tiling, nodes=outcome.nodes)
    return TileOutcome(outcome.status, nodes=outcome.nodes)
