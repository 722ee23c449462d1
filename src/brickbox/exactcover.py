"""Brute-force tileability oracle via grid discretization and exact cover.

Independent of the split-certificate machinery: a rational box and brick
list are snapped to the coarsest per-axis grid on which every extent is an
integer cell count, every in-bounds (brick type, integer offset) placement
becomes a row covering its footprint cells, and tileability becomes exact
cover (select rows partitioning all cells).

Before any row is built, two necessary conditions are checked on the grid
alone; either one failing is a proof of UNSAT with no search:

* slice: a line through cell centres parallel to axis k meets the tiles it
  crosses in whole footprints, so the box's cell count on every axis is a
  nonnegative integer combination of the brick footprints on that axis;
* volume: the box's cell count is a nonnegative integer combination of the
  brick cell volumes.

The rows come from one numpy stencil per brick type: the footprint's cell
ids broadcast over the base cell of every in-bounds offset.

The search is Knuth-style Algorithm X over a dict-of-sets sparse matrix:
always branch on the column with the fewest candidate rows (ties broken by
lowest cell index), try rows in increasing id order. That makes results
deterministic and kills adversarial unsatisfiable instances quickly. The
search is iterative, counts every row trial as a node, and reports hitting
the node budget as a distinct "timeout" outcome carrying the number of
trials made; a budget hit is never converted into UNSAT.

A solver run owns its mutable matrix and must stay on one thread; inputs
and outcomes are immutable values, and independent runs do not interfere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, product, repeat
from typing import Sequence

import numpy as np

from .geometry import BoxSpec, Brick, GridTooLarge, Placement, Tiling, rational_gcd

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


@dataclass(frozen=True)
class CoverRow:
    """One candidate placement: brick type, grid offset, covered cell ids."""

    brick: int
    offset: tuple[int, ...]
    cells: tuple[int, ...]


@dataclass(frozen=True)
class CoverProblem:
    """Exact-cover instance: one column per grid cell, one row per placement."""

    grid: GridModel
    rows: tuple[CoverRow, ...]

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
    box: BoxSpec, bricks: Sequence[Brick], cap: int = DEFAULT_GRID_CAP
) -> GridModel:
    """Coarsest per-axis grid on which box and all brick extents are integral.

    The unit on each axis is the rational gcd of the box extent and every
    brick extent there. Raises GridTooLarge when the total cell count
    exceeds `cap`.
    """
    if not bricks:
        raise ValueError("need at least one brick type")
    d = box.dim
    for b in bricks:
        if b.dim != d:
            raise ValueError("box and brick dimensions differ")
    unit = []
    for ax in range(d):
        g = box.dims[ax]
        for b in bricks:
            g = rational_gcd(g, b.dims[ax])
        unit.append(g)
    cells = tuple(int(box.dims[ax] / unit[ax]) for ax in range(d))
    total = math.prod(cells)
    if total > cap:
        raise GridTooLarge(f"grid needs {total} cells, cap is {cap}")
    footprints = tuple(
        tuple(int(b.dims[ax] / unit[ax]) for ax in range(d)) for b in bricks
    )
    return GridModel(unit=tuple(unit), cells=cells, brick_footprints=footprints)


def _strides(cells: tuple[int, ...]) -> tuple[int, ...]:
    # Row-major: the last axis varies fastest.
    out = [1] * len(cells)
    for ax in range(len(cells) - 2, -1, -1):
        out[ax] = out[ax + 1] * cells[ax + 1]
    return tuple(out)


def _row_major_ids(shape: Sequence[int], strides: np.ndarray) -> np.ndarray:
    # Cell ids of every point of a box of `shape` at the origin, in the
    # order of nested loops over the axes (the last axis varies fastest).
    return np.indices(shape, dtype=np.int64).reshape(len(shape), -1).T @ strides


def build_cover_problem(grid: GridModel) -> CoverProblem:
    """Enumerate all in-bounds placements as cover rows, in deterministic order.

    Rows are ordered by brick type, then by offset row-major; cell ids are
    row-major over the grid. Bricks too large for the grid simply produce
    no rows.
    """
    strides = np.array(_strides(grid.cells), dtype=np.int64)
    rows: list[CoverRow] = []
    for brick_idx, footprint in enumerate(grid.brick_footprints):
        spans = [c - f + 1 for c, f in zip(grid.cells, footprint)]
        if min(spans) < 1:
            continue
        covered = _row_major_ids(spans, strides)[:, None] + _row_major_ids(footprint, strides)
        rows.extend(map(
            CoverRow,
            repeat(brick_idx),
            product(*map(range, spans)),
            map(tuple, covered.tolist()),
        ))
    return CoverProblem(grid=grid, rows=tuple(rows))


def _combination_of(n: int, parts: Sequence[int]) -> bool:
    """Whether n is a nonnegative integer combination of the positive `parts`.

    A gcd test, then reachability over 0..n held as the bits of one int:
    or-ing in shifts by p, 2p, 4p, ... closes the reachable set under adding
    p, so each part costs O(log n) big-int operations.
    """
    if n % math.gcd(*parts):
        return False
    mask = (1 << (n + 1)) - 1
    reach = 1
    for p in parts:
        while p <= n:
            reach |= (reach << p) & mask
            p *= 2
    return bool(reach >> n & 1)


def _prefilter(grid: GridModel) -> str | None:
    """Name the first failed necessary condition for tileability, or None.

    Checks the slice condition on each axis in order, then the volume
    condition (see the module docstring).
    """
    for ax, n in enumerate(grid.cells):
        if not _combination_of(n, [f[ax] for f in grid.brick_footprints]):
            return f"slice axis {ax}"
    if not _combination_of(grid.cell_count, [math.prod(f) for f in grid.brick_footprints]):
        return "volume"
    return None


def cover_matrix_text(problem: CoverProblem) -> str:
    """Sparse text form of the cover matrix: per line, row id then cell ids."""
    lines = [
        f"{rid} {' '.join(str(c) for c in row.cells)}" for rid, row in enumerate(problem.rows)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Algorithm X
# ---------------------------------------------------------------------------


def _select(X: dict, Y: dict, rid: int) -> list:
    removed = []
    for j in Y[rid]:
        for i in X[j]:
            for k in Y[i]:
                if k != j:
                    X[k].remove(i)
        removed.append(X.pop(j))
    return removed


def _deselect(X: dict, Y: dict, rid: int, removed: list) -> None:
    for j in reversed(Y[rid]):
        X[j] = removed.pop()
        for i in X[j]:
            for k in Y[i]:
                if k != j:
                    X[k].add(i)


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
    """
    X: dict[int, set[int]] = {c: set() for c in range(problem.n_columns)}
    Y: dict[int, tuple[int, ...]] = {}
    for rid, row in enumerate(problem.rows):
        Y[rid] = row.cells
        for c in row.cells:
            X[c].add(rid)

    if not X:
        return CoverOutcome(SAT, ((),), 0)

    solutions: list[tuple[int, ...]] = []
    nodes = 0
    hit_budget = False

    def candidates() -> list[int]:
        # Fewest candidates first, lowest column id on ties; the dict's
        # order is not id order once columns have been popped and restored.
        sizes = list(map(len, X.values()))
        fewest = min(sizes)
        if not fewest:
            return []
        return sorted(X[min(compress(X, map(fewest.__eq__, sizes)))])

    frames: list[list] = [[candidates(), 0]]
    sel_rows: list[int] = []
    sel_removed: list[list] = []

    while frames:
        cands, idx = frames[-1]
        if len(sel_rows) == len(frames):
            _deselect(X, Y, sel_rows[-1], sel_removed[-1])
            sel_rows.pop()
            sel_removed.pop()
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
        sel_removed.append(_select(X, Y, rid))
        if not X:
            solutions.append(tuple(sel_rows))
            if limit is not None and len(solutions) >= limit:
                break
            continue
        frames.append([candidates(), 0])

    if hit_budget:
        status = TIMEOUT
    elif solutions:
        status = SAT
    else:
        status = UNSAT
    return CoverOutcome(status, tuple(solutions), nodes)


def rows_to_tiling(
    box: BoxSpec, bricks: Sequence[Brick], problem: CoverProblem, row_ids: Sequence[int]
) -> Tiling:
    """Map selected cover rows back to exact rational placements."""
    unit = problem.grid.unit
    placements = tuple(
        Placement(
            problem.rows[rid].brick,
            tuple(o * u for o, u in zip(problem.rows[rid].offset, unit)),
        )
        for rid in row_ids
    )
    return Tiling(bricks=tuple(bricks), placements=placements, box=box)


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
    was exhausted first. Raises GridTooLarge when the instance does not fit
    the grid cap.
    """
    grid = build_grid(box, bricks, cap=grid_cap)
    pruned_by = _prefilter(grid)
    if pruned_by is not None:
        return TileOutcome(UNSAT, pruned_by=pruned_by)
    problem = build_cover_problem(grid)
    outcome = solve_exact_cover(problem, limit=1, node_budget=node_budget)
    if outcome.status == SAT:
        tiling = rows_to_tiling(box, bricks, problem, outcome.solutions[0])
        return TileOutcome(SAT, tiling=tiling, nodes=outcome.nodes)
    return TileOutcome(outcome.status, nodes=outcome.nodes)
