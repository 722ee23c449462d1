"""Grid discretization and the exact-cover search."""

import math
import random
from collections import Counter
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brickbox import (
    BoxSpec,
    Brick,
    GridModel,
    GridTooLarge,
    Placement,
    build_cover_problem,
    build_grid,
    cover_matrix_text,
    exact_cover_tileable,
    one_brick_tileable,
    rows_to_tiling,
    solve_exact_cover,
    verify_tiling_geometric,
)
from brickbox import exactcover
from references import rational_gcd

# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------


def test_build_grid_mixed_fractions():
    grid = build_grid(BoxSpec((1, 1)), [Brick((F(1, 4), F(1, 2))), Brick((F(1, 2), F(1, 2)))])
    assert grid.unit == (F(1, 4), F(1, 2))
    assert grid.cells == (4, 2)
    assert grid.brick_footprints == ((1, 1), (2, 1))


def test_build_grid_integer_dims():
    grid = build_grid(BoxSpec((5, 5)), [Brick((1, 4)), Brick((4, 1)), Brick((3, 3))])
    assert grid.unit == (F(1), F(1))
    assert grid.cells == (5, 5)


def test_build_grid_fifths_and_halves():
    grid = build_grid(BoxSpec((1, 1)), [Brick((F(2, 5), F(1, 2))), Brick((F(1, 2), F(2, 5)))])
    assert grid.unit == (F(1, 10), F(1, 10))
    assert grid.cells == (10, 10)


def test_build_grid_cap_is_enforced():
    with pytest.raises(GridTooLarge):
        build_grid(BoxSpec((1, 1)), [Brick((F(2, 5), F(1, 2))), Brick((F(1, 2), F(2, 5)))], cap=50)


def test_build_grid_needs_bricks_and_matching_dims():
    with pytest.raises(ValueError):
        build_grid(BoxSpec((1, 1)), [])
    with pytest.raises(ValueError):
        build_grid(BoxSpec((1, 1)), [Brick((1,))])


def reference_build_grid(box, bricks):
    """Each axis unit as a fold of rational_gcd; counts by Fraction division."""
    unit = []
    for ax in range(box.dim):
        g = box.dims[ax]
        for b in bricks:
            g = rational_gcd(g, b.dims[ax])
        unit.append(g)
    return GridModel(
        unit=tuple(unit),
        cells=tuple(int(L / u) for L, u in zip(box.dims, unit)),
        brick_footprints=tuple(tuple(int(c / u) for c, u in zip(b.dims, unit)) for b in bricks),
    )


def _random_extents(rng, d, units):
    if units:
        return [u * rng.randint(1, 10**3) for u in units]
    return [F(rng.randint(1, 10**6), rng.randint(1, 10**6)) for _ in range(d)]


def test_build_grid_matches_rational_gcd_fold_on_seeded_corpus():
    rng = random.Random(20261019)
    for case in range(3000):
        d, n = 1 + case % 3, rng.randint(1, 3)
        # Odd cases draw every extent on its own; even cases draw integer
        # multiples of one random unit per axis, so the gcd is not trivial.
        units = None if case % 2 else _random_extents(rng, d, None)
        box = BoxSpec(_random_extents(rng, d, units))
        bricks = [Brick(_random_extents(rng, d, units)) for _ in range(n)]
        grid = build_grid(box, bricks, cap=math.inf)
        assert grid == reference_build_grid(box, bricks), (box, bricks)
        assert all(type(v) is int for v in grid.cells + sum(grid.brick_footprints, ()))


# ---------------------------------------------------------------------------
# Solver on hand-built problems
# ---------------------------------------------------------------------------


def test_solver_two_vertical_dominoes():
    # One 1x2 type in a 2x2 grid: translates only, so the two columns must
    # each take a vertical domino; exactly one solution with 2 rows.
    grid = build_grid(BoxSpec((2, 2)), [Brick((1, 2))])
    problem = build_cover_problem(grid)
    out = solve_exact_cover(problem)
    assert out.status == "sat"
    assert len(out.solutions) == 1
    assert len(out.solutions[0]) == 2


def test_solver_classic_matrix():
    # Known instance with a unique cover {rows 0, 3, 4}.
    from brickbox.exactcover import CoverProblem, GridModel

    rows = (
        (2, 4, 5),
        (0, 3, 6),
        (1, 2, 5),
        (0, 3),
        (1, 6),
        (3, 4, 6),
    )
    grid = GridModel(unit=(F(1),), cells=(7,), brick_footprints=((1,),))
    problem = CoverProblem(grid=grid, rows=rows)
    out = solve_exact_cover(problem)
    assert out.status == "sat"
    assert sorted(out.solutions[0]) == [0, 3, 4]


def test_solver_unsat_area_parity():
    grid = build_grid(BoxSpec((5, 5)), [Brick((1, 4)), Brick((4, 1))])
    out = solve_exact_cover(build_cover_problem(grid))
    assert out.status == "unsat"
    assert out.solutions == ()


def test_solver_finds_the_pinwheel():
    grid = build_grid(BoxSpec((5, 5)), [Brick((1, 4)), Brick((4, 1)), Brick((3, 3))])
    out = solve_exact_cover(build_cover_problem(grid), limit=1)
    assert out.status == "sat"
    # every tiling of this instance uses the square plus four strips
    assert len(out.solutions[0]) == 5


def test_solver_is_deterministic():
    grid = build_grid(BoxSpec((5, 5)), [Brick((1, 4)), Brick((4, 1)), Brick((3, 3))])
    problem = build_cover_problem(grid)
    first = solve_exact_cover(problem, limit=1)
    second = solve_exact_cover(problem, limit=1)
    assert first.solutions == second.solutions
    assert first.nodes == second.nodes


def test_solver_timeout_is_distinct_from_unsat():
    grid = build_grid(BoxSpec((1, 1)), [Brick((F(2, 5), F(1, 2))), Brick((F(1, 2), F(2, 5)))])
    out = solve_exact_cover(build_cover_problem(grid), node_budget=2)
    assert out.status == "timeout"
    assert out.nodes == 2  # the two trials made; the third would exceed the budget


def test_solution_limit_bounds_enumeration():
    grid = build_grid(BoxSpec((2, 2)), [Brick((1, 1))])
    problem = build_cover_problem(grid)
    assert len(solve_exact_cover(problem, limit=1).solutions) == 1
    assert len(solve_exact_cover(problem).solutions) == 1  # unique anyway


# ---------------------------------------------------------------------------
# Tileability wrapper
# ---------------------------------------------------------------------------


def test_tileable_small_mixed_instance():
    out = exact_cover_tileable(BoxSpec((1, 1)), [Brick((F(1, 4), F(1, 2))), Brick((F(1, 2), F(1, 2)))])
    assert out.status == "sat"
    assert verify_tiling_geometric(out.tiling).ok
    # deterministic first solution: row order tries the first brick type
    # first, and an all-a grid covers the box (8 * 1/8 = 1)
    assert len(out.tiling.placements) == 8
    assert all(p.brick_index == 0 for p in out.tiling.placements)


def test_tileable_unsat_for_blocked_pair():
    out = exact_cover_tileable(BoxSpec((1, 1)), [Brick((F(2, 5), F(1, 2))), Brick((F(1, 2), F(2, 5)))])
    assert out.status == "unsat"
    assert out.tiling is None


def test_tileable_unsat_single_square():
    out = exact_cover_tileable(BoxSpec((5, 5)), [Brick((3, 3))])
    assert out.status == "unsat"


def test_prefilters_name_the_failed_condition():
    bars = [Brick((1, 4)), Brick((4, 1))]
    # every axis and the volume admit the bars: a genuine search refutes it
    out = exact_cover_tileable(BoxSpec((10, 10)), bars)
    assert (out.status, out.nodes, out.pruned_by) == ("unsat", 3485, None)
    # 169 cells are no sum of 4s, though 13 is a sum of 1s and 4s on each axis
    out = exact_cover_tileable(BoxSpec((13, 13)), bars)
    assert (out.status, out.nodes, out.pruned_by) == ("unsat", 0, "volume")
    # 7 is no sum of 2s and 4s
    out = exact_cover_tileable(BoxSpec((7, 4)), [Brick((2, 2)), Brick((4, 2))])
    assert (out.status, out.nodes, out.pruned_by) == ("unsat", 0, "slice axis 0")
    out = exact_cover_tileable(BoxSpec((4, 7)), [Brick((2, 2)), Brick((2, 4))])
    assert (out.status, out.nodes, out.pruned_by) == ("unsat", 0, "slice axis 1")
    # no prefilter fires on a tileable box
    out = exact_cover_tileable(BoxSpec((5, 5)), [Brick((1, 4)), Brick((4, 1)), Brick((3, 3))])
    assert (out.status, out.pruned_by) == ("sat", None)


def test_prefilters_run_before_the_grid_cap():
    bars = [Brick((1, 4)), Brick((4, 1))]
    # 1001**2 cells exceed the default cap, but an odd count is no sum of 4s
    out = exact_cover_tileable(BoxSpec((1001, 1001)), bars)
    assert (out.status, out.nodes, out.pruned_by) == ("unsat", 0, "volume")
    out = exact_cover_tileable(BoxSpec((13, 13)), bars, grid_cap=100)
    assert (out.status, out.nodes, out.pruned_by) == ("unsat", 0, "volume")
    # an axis far beyond the cap still gets the gcd test: 2 does not divide it
    out = exact_cover_tileable(BoxSpec((10**9 + 1, 2)), [Brick((2, 2)), Brick((4, 2))])
    assert (out.status, out.nodes, out.pruned_by) == ("unsat", 0, "slice axis 0")
    # what no filter refutes still fails on the cap
    for n in (1002, 10**9):
        with pytest.raises(GridTooLarge, match=f"grid needs {n * n} cells, cap is 1000000$"):
            exact_cover_tileable(BoxSpec((n, n)), bars)


def test_solver_pins_the_costliest_search_instances():
    # deep searches no prefilter cuts short, pinned by node count: UNSAT
    # only by search, or past the node budget
    cases = [
        ((18, 18), [(3, 4), (4, 3)], 10**7, "unsat", 1211),
        ((10, 8), [(4, 5), (1, 6), (3, 1)], 10**7, "unsat", 1122),
        ((14, 14), [(1, 4), (4, 1)], 10_000, "timeout", 10_000),
    ]
    for box, bricks, budget, status, nodes in cases:
        out = exact_cover_tileable(BoxSpec(box), [Brick(b) for b in bricks], node_budget=budget)
        assert (out.status, out.nodes, out.pruned_by) == (status, nodes, None)


def test_tileable_runs_the_traced_stages_and_checks_no_built_row(monkeypatch):
    # The bench's traced run spans the two stages by their module
    # attributes, so the tileable path must call them through those names;
    # and the rows it builds from the grid skip the hand-built rows' checks.
    calls = Counter()
    build, solve = exactcover.build_cover_problem, exactcover.solve_exact_cover

    def spy_build(grid):
        calls["build"] += 1
        problem = build(grid)
        calls["rows"] += len(problem.rows)
        return problem

    def spy_solve(problem, *args, **kwargs):
        calls["solve"] += 1
        return solve(problem, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("the built rows were checked")

    monkeypatch.setattr(exactcover, "build_cover_problem", spy_build)
    monkeypatch.setattr(exactcover, "solve_exact_cover", spy_solve)
    monkeypatch.setattr(exactcover.CoverProblem, "__post_init__", refuse)
    out = exact_cover_tileable(BoxSpec((5, 5)), [Brick((1, 4)), Brick((4, 1)), Brick((3, 3))])
    assert out.status == "sat" and verify_tiling_geometric(out.tiling).ok
    assert calls == {"build": 1, "rows": 29, "solve": 1}


def test_hand_built_rows_land_in_the_same_columns():
    from brickbox.exactcover import CoverProblem

    # the middle brick type is too tall for the box, so it has no rows
    box, bricks = BoxSpec((3, 2)), [Brick((2, 1)), Brick((1, 3)), Brick((1, 2))]
    grid = build_grid(box, bricks)
    problem = build_cover_problem(grid)
    assert problem.rows == ((0, 2), (1, 3), (2, 4), (3, 5), (0, 1), (2, 3), (4, 5))
    # a row id names its brick type and offset: four rows of type 0, then three of type 2
    tiling = rows_to_tiling(box, bricks, problem, range(len(problem.rows)))
    assert [(p.brick_index, p.offset) for p in tiling.placements] == [
        (0, (0, 0)), (0, (0, 1)), (0, (1, 0)), (0, (1, 1)), (2, (0, 0)), (2, (1, 0)), (2, (2, 0)),
    ]
    by_hand = CoverProblem(grid, rows=[list(cells) for cells in problem.rows])
    assert by_hand == problem and hash(by_hand) == hash(problem)
    assert by_hand.rows == problem.rows and type(by_hand.rows[0]) is tuple
    tiling = rows_to_tiling(box, bricks, by_hand, (4, 5, 6))
    assert list(tiling.placements) == [Placement(2, (F(x), F(0))) for x in range(3)]


def test_hand_built_rows_cover_distinct_cells_of_the_grid():
    from brickbox.exactcover import CoverProblem

    grid = GridModel((F(1),), (2,), ((1,),))
    # a cell id past the grid, or a negative one, which would wrap round
    # onto the column ring, is refused before any search
    for cell in (2, 5, -1):
        with pytest.raises(ValueError, match=f"cover row 1 has cell {cell} outside the grid"):
            CoverProblem(grid, rows=((1,), (cell,)))
    # a cell listed twice would be counted twice in its column's size
    with pytest.raises(ValueError, match="cover row 0 covers a cell twice"):
        CoverProblem(grid, rows=((0, 0), (1,)))
    out = solve_exact_cover(CoverProblem(grid, rows=((0,), (1,))), limit=None)
    assert (out.status, out.solutions, out.nodes) == ("sat", ((0, 1),), 2)


def test_rows_to_tiling_preserves_exactness():
    box = BoxSpec((1, 1))
    bricks = [Brick((F(1, 2), F(1, 2)))]
    grid = build_grid(box, bricks)
    problem = build_cover_problem(grid)
    out = solve_exact_cover(problem, limit=1)
    tiling = rows_to_tiling(box, bricks, problem, out.solutions[0])
    assert all(isinstance(c, F) for p in tiling.placements for c in p.offset)
    assert verify_tiling_geometric(tiling).ok


def test_cover_matrix_text_format():
    # both orientations force a unit grid: 2x2 cells, row-major ids
    grid = build_grid(BoxSpec((2, 2)), [Brick((1, 2)), Brick((2, 1))])
    problem = build_cover_problem(grid)
    text = cover_matrix_text(problem)
    lines = text.strip().splitlines()
    assert len(lines) == len(problem.rows) == 4
    # row id followed by the covered cell ids
    assert lines[0] == "0 0 1"
    assert lines[2] == "2 0 2"


# ---------------------------------------------------------------------------
# Solver vs naive enumeration on arbitrary matrices
# ---------------------------------------------------------------------------


def naive_all_covers(n_columns, rows):
    """Reference enumerator: try every subset of rows."""
    from itertools import combinations

    everything = frozenset(range(n_columns))
    found = []
    for size in range(len(rows) + 1):
        for chosen in combinations(range(len(rows)), size):
            covered = []
            for rid in chosen:
                covered.extend(rows[rid])
            if len(covered) == len(set(covered)) and set(covered) == everything:
                found.append(frozenset(chosen))
    return set(found)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_solver_matches_naive_enumeration(data):
    from brickbox.exactcover import CoverProblem, GridModel

    n_columns = data.draw(st.integers(min_value=1, max_value=6))
    n_rows = data.draw(st.integers(min_value=0, max_value=8))
    rows = [
        tuple(sorted(data.draw(
            st.sets(st.integers(min_value=0, max_value=n_columns - 1), min_size=1, max_size=n_columns)
        )))
        for _ in range(n_rows)
    ]
    grid = GridModel(unit=(F(1),), cells=(n_columns,), brick_footprints=((1,),))
    problem = CoverProblem(grid=grid, rows=tuple(rows))
    out = solve_exact_cover(problem)
    expected = naive_all_covers(n_columns, rows)
    assert out.status == ("sat" if expected else "unsat")
    assert {frozenset(s) for s in out.solutions} == expected


# ---------------------------------------------------------------------------
# Oracle agreement properties
# ---------------------------------------------------------------------------

box_dim = st.sampled_from([F(1), F(3, 2), F(2)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_single_brick_oracle_agreement(data):
    box = BoxSpec((data.draw(box_dim), data.draw(box_dim)))
    sides = [
        st.fractions(min_value=F(1, 4), max_value=L, max_denominator=4) for L in box.dims
    ]
    brick = Brick((data.draw(sides[0]), data.draw(sides[1])))
    out = exact_cover_tileable(box, [brick])
    assert out.status in ("sat", "unsat")
    assert (out.status == "sat") == one_brick_tileable(box, brick)
    if out.tiling is not None:
        assert verify_tiling_geometric(out.tiling).ok


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_solutions_round_trip_to_verified_tilings(data):
    box = BoxSpec((data.draw(box_dim), data.draw(box_dim)))
    sides = [
        st.fractions(min_value=F(1, 4), max_value=L, max_denominator=4) for L in box.dims
    ]
    bricks = [
        Brick((data.draw(sides[0]), data.draw(sides[1]))),
        Brick((data.draw(sides[0]), data.draw(sides[1]))),
    ]
    out = exact_cover_tileable(box, bricks)
    if out.status == "sat":
        assert verify_tiling_geometric(out.tiling).ok


# ---------------------------------------------------------------------------
# Differential checks against the loop row builder and the min-key solver
# ---------------------------------------------------------------------------

DIFF_SEED = 41


def reference_build_cover_problem(grid):
    """Rows by nested loops over offsets and footprint cells: the rows' cell
    ids, and each row's (brick type, offset)."""
    strides = [math.prod(grid.cells[ax + 1:]) for ax in range(len(grid.cells))]
    rows, placements = [], []
    for brick_idx, footprint in enumerate(grid.brick_footprints):
        spans = [grid.cells[ax] - footprint[ax] for ax in range(len(grid.cells))]
        if any(s < 0 for s in spans):
            continue
        for offset in product(*(range(s + 1) for s in spans)):
            covered = tuple(
                sum((offset[ax] + rel[ax]) * strides[ax] for ax in range(len(offset)))
                for rel in product(*(range(f) for f in footprint))
            )
            rows.append(covered)
            placements.append((brick_idx, offset))
    return tuple(rows), placements


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


def reference_solve_exact_cover(problem, limit=None, node_budget=10**7):
    """Dict-of-sets Algorithm X picking its column by `min` over (size, id) keys.

    Counts the trial that trips the budget, so a timeout reports one node
    more than the trials made.
    """
    from brickbox.exactcover import CoverOutcome

    X = {c: set() for c in range(problem.n_columns)}
    Y = {}
    for rid, cells in enumerate(problem.rows):
        Y[rid] = cells
        for c in cells:
            X[c].add(rid)
    if not X:
        return CoverOutcome("sat", ((),), 0)
    solutions = []
    nodes = 0
    hit_budget = False

    def candidates():
        col = min(X, key=lambda c: (len(X[c]), c))
        return sorted(X[col])

    frames = [[candidates(), 0]]
    sel_rows = []
    sel_removed = []
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
        nodes += 1
        if nodes > node_budget:
            hit_budget = True
            break
        sel_rows.append(rid)
        sel_removed.append(_select(X, Y, rid))
        if not X:
            solutions.append(tuple(sel_rows))
            if limit is not None and len(solutions) >= limit:
                break
            continue
        frames.append([candidates(), 0])
    status = "timeout" if hit_budget else ("sat" if solutions else "unsat")
    return CoverOutcome(status, tuple(solutions), nodes)


def random_grid(rng):
    from brickbox.exactcover import GridModel

    d = rng.randint(1, 3)
    cells = tuple(rng.randint(1, {1: 16, 2: 7, 3: 4}[d]) for _ in range(d))
    # a footprint may exceed the grid on an axis, giving that brick no rows
    footprints = tuple(
        tuple(rng.randint(1, c + 1) for c in cells) for _ in range(rng.randint(1, 3))
    )
    return GridModel(unit=(F(1),) * d, cells=cells, brick_footprints=footprints)


def random_matrix(rng):
    from brickbox.exactcover import CoverProblem, GridModel

    n_columns = rng.randint(1, 12)
    rows = tuple(
        tuple(sorted(rng.sample(range(n_columns), rng.randint(1, min(4, n_columns)))))
        for _ in range(rng.randint(0, 30))
    )
    grid = GridModel(unit=(F(1),), cells=(n_columns,), brick_footprints=((1,),))
    return CoverProblem(grid=grid, rows=rows)


def solve_like_reference(problem, limit, budget):
    out = solve_exact_cover(problem, limit=limit, node_budget=budget)
    ref = reference_solve_exact_cover(problem, limit=limit, node_budget=budget)
    assert (out.status, out.solutions) == (ref.status, ref.solutions)
    # a timeout reports the trials made, not the one that tripped
    assert out.nodes == ref.nodes - (ref.status == "timeout")
    return out


def test_stencil_rows_and_solver_match_references_on_seeded_corpus():
    from brickbox.exactcover import GridModel

    rng = random.Random(DIFF_SEED)
    statuses = Counter()
    for _ in range(2000):
        if rng.random() < 0.6:
            grid = random_grid(rng)
            problem = build_cover_problem(grid)
            rows, placements = reference_build_cover_problem(grid)
            assert problem.rows == rows
            # every row id maps back to the brick type and offset it was built from
            bricks = [Brick(f) for f in grid.brick_footprints]
            tiling = rows_to_tiling(BoxSpec(grid.cells), bricks, problem, range(len(rows)))
            assert [(p.brick_index, p.offset) for p in tiling.placements] == placements
        else:
            problem = random_matrix(rng)
        out = solve_like_reference(problem, rng.choice([1, None]), rng.choice([1, 2, 7, 100, 2000]))
        statuses[out.status] += 1
    assert min(statuses[s] for s in ("sat", "unsat", "timeout")) >= 50, statuses
    # a deeper slice pins the search order well past 2000 nodes: every
    # solution of 2-d grids up to 6x6, under budgets up to 10**5
    deep = Counter()
    for _ in range(100):
        cells = (rng.randint(3, 6), rng.randint(3, 6))
        footprints = tuple(
            tuple(rng.randint(1, min(c, 3)) for c in cells) for _ in range(rng.randint(2, 3))
        )
        grid = GridModel(unit=(F(1), F(1)), cells=cells, brick_footprints=footprints)
        out = solve_like_reference(
            build_cover_problem(grid), None, rng.choice([5_000, 20_000, 100_000])
        )
        deep[out.status, out.nodes > 2000] += 1
    assert deep["sat", True] >= 5 and deep["timeout", True] >= 5, deep


def test_solver_matches_the_reference_on_deep_three_dimensional_searches():
    # every solution of 3-d grids of 2 to 3 cells per axis with 3 or 4
    # brick types, under budgets up to 10**5: status, solutions and nodes
    from brickbox.exactcover import GridModel

    rng = random.Random(DIFF_SEED + 2)
    deep = Counter()
    for _ in range(120):
        cells = tuple(rng.randint(2, 3) for _ in range(3))
        footprints = tuple(
            tuple(rng.randint(1, 2) for _ in cells) for _ in range(rng.randint(3, 4))
        )
        grid = GridModel(unit=(F(1),) * 3, cells=cells, brick_footprints=footprints)
        out = solve_like_reference(
            build_cover_problem(grid), None, rng.choice([5_000, 20_000, 100_000])
        )
        deep[out.status, out.nodes > 2000] += 1
    assert deep["sat", True] >= 5 and deep["timeout", True] >= 5, deep


def test_combination_helper_matches_dynamic_programming():
    from brickbox.exactcover import _combination_of

    rng = random.Random(DIFF_SEED)
    for _ in range(300):
        parts = [rng.randint(1, 30) for _ in range(rng.randint(1, 3))]
        reachable = {0}
        for n in range(1, 121):
            if any(n - p in reachable for p in parts):
                reachable.add(n)
        assert all(_combination_of(n, parts, 120) == (n in reachable) for n in range(121))
        # above the cap only the gcd test runs, so nothing unproved is refuted
        g = math.gcd(*parts)
        assert all(_combination_of(n, parts, n - 1) == (n % g == 0) for n in range(1, 121))


def test_prefilters_are_sound_on_seeded_corpus():
    # wherever the unfiltered search reaches a verdict, a prefilter only
    # ever fires on instances the search refutes
    rng = random.Random(DIFF_SEED + 1)
    fired = Counter()
    for _ in range(1500):
        grid = random_grid(rng)
        box = BoxSpec(grid.cells)
        bricks = [Brick(f) for f in grid.brick_footprints]
        out = exact_cover_tileable(box, bricks, node_budget=3000)
        full = solve_exact_cover(
            build_cover_problem(build_grid(box, bricks)), limit=1, node_budget=3000
        )
        if full.status == "timeout":
            continue
        if out.pruned_by is None:
            assert (out.status, out.nodes) == (full.status, full.nodes)
        else:
            assert (out.status, out.nodes, full.status) == ("unsat", 0, "unsat")
            fired[out.pruned_by.split()[0]] += 1
    assert fired["slice"] >= 50 and fired["volume"] >= 20, fired
