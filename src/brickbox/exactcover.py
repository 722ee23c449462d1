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
offset back from the grid.

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
from itertools import accumulate

import numpy as np

from .geometry import BoxSpec, Brick, GridTooLarge, Placements, Tiling, _common_denominator

DEFAULT_GRID_CAP = 10**6
DEFAULT_NODE_BUDGET = 10**7

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
    distinct cells of the grid; `build_cover_problem`'s are not.
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

    @classmethod
    def _unchecked(cls, grid: GridModel, rows: tuple[tuple[int, ...], ...]) -> CoverProblem:
        # Rows built from the grid itself: set directly, without the checks.
        self = object.__new__(cls)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "rows", rows)
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

    `pruned_by` names the necessary condition that refuted the instance
    before any search ("slice axis <k>" or "volume"), else None.
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


def rows_to_tiling(
    box: BoxSpec, bricks: Sequence[Brick], problem: CoverProblem, row_ids: Sequence[int]
) -> Tiling:
    """Map selected cover rows back to exact rational placements.

    Row ids are read in `build_cover_problem`'s order: brick type k has one
    row per in-bounds offset, in row-major order, after those of types
    below k.
    """
    spans = _spans(problem.grid)
    first = list(accumulate((math.prod(s) if min(s) >= 1 else 0 for s in spans), initial=0))
    kinds, offsets = [], []
    for rid in row_ids:
        k = bisect_right(first, rid) - 1
        rest, offset = rid - first[k], []
        for span in reversed(spans[k]):
            rest, o = divmod(rest, span)
            offset.append(o)
        kinds.append(k)
        offsets.append(offset[::-1])
    axes = []
    for ax, unit in enumerate(problem.grid.unit):
        # Merged as ints, so each distinct offset becomes one Fraction.
        column = [offset[ax] for offset in offsets]
        cells = sorted(set(column))
        at = {c: k for k, c in enumerate(cells)}
        axes.append(([c * unit for c in cells], [at[c] for c in column]))
    return Tiling(bricks=tuple(bricks), placements=Placements(kinds, axes), box=box)


def exact_cover_tileable(
    box: BoxSpec,
    bricks: Sequence[Brick],
    grid_cap: int = DEFAULT_GRID_CAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> TileOutcome:
    """Decide tileability by translates of the given brick types.

    Returns a tiling (which passes geometric verification) when satisfiable,
    "unsat" when a prefilter (named in `pruned_by`, with 0 nodes) or the
    exhaustive search rules a tiling out, and "timeout" when the node budget
    was exhausted first. Raises GridTooLarge when no prefilter refutes an
    instance that does not fit the grid cap.
    """
    grid = build_grid(box, bricks, cap=math.inf)
    pruned_by = _prefilter(grid, grid_cap)
    if pruned_by is not None:
        return TileOutcome(UNSAT, pruned_by=pruned_by)
    _require_cap(grid, grid_cap)
    problem = build_cover_problem(grid)
    outcome = solve_exact_cover(problem, limit=1, node_budget=node_budget)
    if outcome.status == SAT:
        tiling = rows_to_tiling(box, bricks, problem, outcome.solutions[0])
        return TileOutcome(SAT, tiling=tiling, nodes=outcome.nodes)
    return TileOutcome(outcome.status, nodes=outcome.nodes)
