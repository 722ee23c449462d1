"""Three-brick family: pinwheel, exhaustive no-split search, lifting."""

from collections import Counter
from fractions import Fraction as F
from itertools import combinations

import pytest

from brickbox import (
    BoxSpec,
    Brick,
    build_grid,
    counterexample,
    exact_cover_tileable,
    lift_to_dimension,
    make_instance,
    pinwheel_tiling,
    proper_split_report,
    random_frequencies,
    residual_sample,
    verify_tiling_geometric,
    volume,
)
from brickbox.counterexample import SplitEntry, ThreeBrickInstance


def oracle_split_entries(box, bricks):
    """The split report with every side decided by the exact-cover search.

    Same cuts (interior multiples of the box grid's unit) and same entry
    order as `proper_split_report`; the search must reach a verdict on
    every side.
    """
    n = len(bricks)
    subsets = [s for size in range(1, n) for s in combinations(range(n), size)]
    grid = build_grid(box, bricks)
    decided = {}

    def side_tileable(dims, subset):
        if (dims, subset) not in decided:
            outcome = exact_cover_tileable(BoxSpec(dims), [bricks[i] for i in subset])
            assert outcome.status in ("sat", "unsat"), (dims, subset, outcome.status)
            decided[dims, subset] = outcome.status == "sat"
        return decided[dims, subset]

    entries = []
    for axis, L in enumerate(box.dims):
        for k in range(1, grid.cells[axis]):
            alpha = k * grid.unit[axis]
            left = box.dims[:axis] + (alpha,) + box.dims[axis + 1:]
            right = box.dims[:axis] + (L - alpha,) + box.dims[axis + 1:]
            entries += [
                SplitEntry(axis, alpha, s, t, side_tileable(left, s), side_tileable(right, t))
                for s in subsets
                for t in subsets
            ]
    return tuple(entries)


def test_make_instance_members():
    inst = make_instance(4)
    assert inst.box.dims == (F(5), F(5))
    assert tuple(b.dims for b in inst.bricks) == ((1, 4), (4, 1), (3, 3))
    inst5 = make_instance(5)
    assert inst5.box.dims == (F(6), F(6))
    assert tuple(b.dims for b in inst5.bricks) == ((1, 5), (5, 1), (4, 4))
    with pytest.raises(TypeError):
        ThreeBrickInstance(R=4, box=inst.box, bricks=inst.bricks)
    assert ThreeBrickInstance(4) == inst


def test_make_instance_rejects_small_R():
    # Only R = 2, 3 are instances, and they split; below 2 a brick has no extent.
    for R in (-4, -3, 0, 1, 2, 3):
        reason = f"; R={R} admits a proper-subset split" if R >= 2 else ""
        with pytest.raises(ValueError, match=f"^R must be at least 4{reason}$"):
            make_instance(R)
    with pytest.raises(ValueError):
        make_instance("4")


def test_area_identity_holds_for_all_R():
    # box area equals the pinwheel total: four strips plus the square
    for R in range(4, 13):
        inst = make_instance(R)
        strips = 2 * R + 2 * R
        square = (R - 1) ** 2
        assert volume(inst.box) == strips + square


def test_pinwheel_shape_and_verification():
    for R in (4, 10):
        t = pinwheel_tiling(make_instance(R))
        assert len(t.placements) == 5
        assert verify_tiling_geometric(t).ok


def test_pinwheel_geometric_and_spectral_for_family_prefix():
    for R in range(4, 11):
        t = pinwheel_tiling(make_instance(R))
        assert verify_tiling_geometric(t).ok
        report = residual_sample(t, random_frequencies(2, 1000, seed=200 + R))
        assert report.max_abs_residual < 1e-9


def test_no_proper_split_R4_full_enumeration():
    inst = make_instance(4)
    report = proper_split_report(inst.box, inst.bricks)
    assert report.no_split
    # 2 axes x 4 interior integer cuts x (6 proper subsets)^2 ordered pairs
    assert len(report.entries) == 288
    assert all(not e.both_sat for e in report.entries)
    alphas = {(e.axis, e.alpha) for e in report.entries}
    assert alphas == {(ax, F(k)) for ax in (0, 1) for k in (1, 2, 3, 4)}
    # a 1x5 slab is tileable by no proper subset
    thin = [e for e in report.entries if e.axis == 0 and e.alpha == 1]
    assert len(thin) == 36
    assert all(not e.left_sat for e in thin)
    # a 2x5 slab fails as well (areas 4 and 9 cannot reach 10 and 3x3 cannot fit)
    two_wide = [e for e in report.entries if e.axis == 0 and e.alpha == 2]
    assert all(not e.left_sat for e in two_wide)


def test_no_proper_split_R5():
    inst = make_instance(5)
    report = proper_split_report(inst.box, inst.bricks)
    assert report.no_split
    assert len(report.entries) == 2 * 5 * 36


def test_splitter_inversion_finds_two_brick_cut():
    # The same machinery, pointed at a splittable two-brick instance, finds
    # the cut among the (first type | second type) entries.
    box = BoxSpec((1, 1))
    bricks = (Brick((F(1, 4), F(1, 2))), Brick((F(1, 2), F(1, 2))))
    report = proper_split_report(box, bricks)
    found = next(
        e for e in report.entries
        if e.both_sat and (e.left_subset, e.right_subset) == ((0,), (1,))
    )
    assert (found.axis, found.alpha) == (0, F(1, 2))


def _family_member(R, scale=1, d=2):
    tiling = pinwheel_tiling(ThreeBrickInstance(R))
    if d > 2:
        tiling = lift_to_dimension(tiling, d)
    box = BoxSpec(tuple(scale * v for v in tiling.box.dims))
    return box, tuple(Brick(tuple(scale * v for v in b.dims)) for b in tiling.bricks)


@pytest.mark.parametrize(
    "box, bricks",
    [_family_member(R) for R in range(3, 41)]
    + [_family_member(R, d=3) for R in range(3, 9)]
    + [
        (BoxSpec((1, 1)), (Brick((F(1, 4), F(1, 2))), Brick((F(1, 2), F(1, 2))))),
        _family_member(5, scale=F(2, 3)),
    ],
    ids=[f"R{R}" for R in range(3, 41)]
    + [f"R{R}-d3" for R in range(3, 9)]
    + ["two-types", "R5-scaled-2/3"],
)
def test_report_matches_the_exact_cover_oracle(box, bricks):
    # The split theorem decides each side; the search must agree entry for entry.
    assert proper_split_report(box, bricks).entries == oracle_split_entries(box, bricks)


def test_each_side_is_decided_once(monkeypatch):
    calls = Counter()
    for name in ("one_brick_tileable", "find_split"):

        def counted(side, *bricks, decide=getattr(counterexample, name)):
            calls[side.dims, tuple(b.dims for b in bricks)] += 1
            return decide(side, *bricks)

        monkeypatch.setattr(counterexample, name, counted)
    inst = make_instance(4)
    report = proper_split_report(inst.box, inst.bricks)
    # 2 * 288 side lookups, over 8 distinct side boxes x 6 subsets
    assert 2 * len(report.entries) == 576
    assert len(calls) == 48
    assert set(calls.values()) == {1}


def test_report_rejects_more_than_three_types():
    bricks = (Brick((1, 1)), Brick((1, 2)), Brick((2, 1)), Brick((2, 2)))
    with pytest.raises(ValueError, match="at most three brick types"):
        proper_split_report(BoxSpec((2, 2)), bricks)


def test_removing_the_square_makes_the_box_untileable():
    inst = make_instance(4)
    out = exact_cover_tileable(inst.box, list(inst.bricks[:2]))
    assert out.status == "unsat"


def test_lift_to_three_dimensions():
    t = pinwheel_tiling(make_instance(4))
    lifted = lift_to_dimension(t, 3)
    assert lifted.box.dims == (5, 5, 1)
    assert len(lifted.placements) == 5
    assert verify_tiling_geometric(lifted).ok


def test_lift_then_project_is_identity():
    t = pinwheel_tiling(make_instance(4))
    lifted = lift_to_dimension(t, 4)
    from brickbox import Placement, Tiling

    projected = Tiling(
        bricks=tuple(Brick(b.dims[:2]) for b in lifted.bricks),
        placements=tuple(Placement(p.brick_index, p.offset[:2]) for p in lifted.placements),
        box=BoxSpec(lifted.box.dims[:2]),
    )
    assert projected == t


def test_lift_dims_and_validation():
    t = pinwheel_tiling(make_instance(4))
    assert lift_to_dimension(t, 5).box.dims == (5, 5, 1, 1, 1)
    with pytest.raises(ValueError):
        lift_to_dimension(t, 2)
    with pytest.raises(ValueError):
        lift_to_dimension(lift_to_dimension(t, 3), 4)
