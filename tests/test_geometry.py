"""Exact geometry: scalars, shapes, and the geometric verifier."""

import math
import pickle
import random
import time
import tracemalloc
from collections import Counter
from decimal import Decimal
from fractions import Fraction as F
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from brickbox import (
    BoxSpec,
    Brick,
    GridTooLarge,
    Placement,
    Placements,
    Tiling,
    VerifyOutcome,
    build_cover_problem,
    build_grid,
    certificate_to_tiling,
    decide_two_brick,
    exact_cover_tileable,
    frac,
    lift_to_dimension,
    make_instance,
    pinwheel_tiling,
    random_frequencies,
    residual_sample,
    rows_to_tiling,
    solve_exact_cover,
    tiling_to_svg,
    verify_tiling_geometric,
    volume,
)
from brickbox import geometry
from brickbox import serialization as ser
from brickbox.serialization import parse_rational
from references import interiors_disjoint, rational_gcd

# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def oracle_boxes_disjoint(p, q, bricks):
    """Interval-arithmetic oracle: open boxes meet iff they meet on every axis."""
    bp, bq = bricks[p.brick_index], bricks[q.brick_index]
    meets_everywhere = all(
        max(p.offset[ax], q.offset[ax]) < min(p.offset[ax] + bp.dims[ax], q.offset[ax] + bq.dims[ax])
        for ax in range(len(p.offset))
    )
    return not meets_everywhere


def oracle_rational_gcd(x, y):
    """Brute force: largest x/k that also divides y.

    Any common unit g has x/g = k a positive integer with k = p*s/d for
    x = p/q, y = r/s and some divisor d, so k <= p*s bounds the search.
    """
    best = None
    for k in range(1, x.numerator * y.denominator + 1):
        g = x / k
        if (y / g).denominator == 1:
            if best is None or g > best:
                best = g
    return best


def oracle_verify(t):
    """The pairwise verifier: the first overlapping pair, then exact volume."""
    for (i, p), (j, q) in combinations(enumerate(t.placements), 2):
        if not oracle_boxes_disjoint(p, q, t.bricks):
            return "overlap", (i, j)
    placed = sum((volume(t.bricks[p.brick_index]) for p in t.placements), F(0))
    if placed != volume(t.box):
        return "volume-mismatch", (placed, volume(t.box))
    return "ok", None


def fraction_tiling_error(bricks, placements, box):
    """Reference for `Tiling` validation, in Fraction arithmetic: the first
    error message in placement order, or None."""
    d = box.dim
    for k, b in enumerate(bricks):
        if b.dim != d:
            return f"brick {k} has dimension {b.dim}, box has {d}"
    for k, p in enumerate(placements):
        if len(p.offset) != d:
            return f"placement {k} has {len(p.offset)} coordinates, box has {d}"
        if p.brick_index >= len(bricks):
            return f"placement {k} references unknown brick type {p.brick_index}"
        dims = bricks[p.brick_index].dims
        for ax in range(d):
            if p.offset[ax] < 0 or p.offset[ax] + dims[ax] > box.dims[ax]:
                return f"placement {k} extends outside the box on axis {ax}"
    return None


def fraction_verify(t):
    """Reference for `verify_tiling_geometric`: the same arrangement pass,
    with boundaries indexed and volumes summed as Fractions."""
    d = t.box.dim
    spans = []
    for p in t.placements:
        dims = t.bricks[p.brick_index].dims
        spans.append((p.offset, tuple(o + c for o, c in zip(p.offset, dims))))
    index = []
    for ax in range(d):
        vals = {F(0), t.box.dims[ax]}
        for lo, hi in spans:
            vals.add(lo[ax])
            vals.add(hi[ax])
        index.append({v: k for k, v in enumerate(sorted(vals))})
    counts = np.zeros([len(ix) - 1 for ix in index], dtype=np.int32)
    windows = [
        tuple(slice(index[ax][lo[ax]], index[ax][hi[ax]]) for ax in range(d)) for lo, hi in spans
    ]
    for window in windows:
        counts[window] += 1
    if counts.max() > 1:
        i = next(k for k, window in enumerate(windows) if counts[window].max() > 1)
        for j in range(i + 1, len(t.placements)):
            if not interiors_disjoint(t.placements[i], t.placements[j], t.bricks):
                return VerifyOutcome("overlap", (i, j))
    placed = sum((volume(t.bricks[p.brick_index]) for p in t.placements), F(0))
    if placed != volume(t.box):
        return VerifyOutcome("volume-mismatch", (placed, volume(t.box)))
    return VerifyOutcome("ok")


positive_rationals = st.fractions(min_value=F(1, 8), max_value=F(8), max_denominator=8)
small_offsets = st.fractions(min_value=F(0), max_value=F(4), max_denominator=8)


# ---------------------------------------------------------------------------
# frac / construction
# ---------------------------------------------------------------------------


def test_frac_accepts_int_str_fraction():
    assert frac(3) == F(3)
    assert frac("3/4") == F(3, 4)
    assert frac(F(2, 4)) == F(1, 2)


def test_frac_rejects_floats_and_junk():
    with pytest.raises(TypeError):
        frac(0.5)
    with pytest.raises(ValueError):
        frac("1/0")
    with pytest.raises(ValueError):
        frac("spam")


RATIONAL_STRINGS = {
    "3/4": F(3, 4), "7": F(7), " -6/08\n": F(-3, 4), "+0/5": F(0),
    **dict.fromkeys((
        "1/0", "1/00", "x", "", "+", "/2", "1/", "1 / 2", "1.5", "1e3", "1E3", "1e10000000",
        "1_000", " 1_000 ", "\u0661\u0662", "\uff11", "1/-2", "1/+2", "0x10", "inf", "nan",
        "9" * 5000,
    )),
}


@pytest.mark.parametrize("value", [True, False, Decimal("1.5"), np.int64(3), None], ids=repr)
def test_only_fractions_ints_and_strings_are_rationals(value):
    # frac is the one type gate: bools, Decimals and numpy scalars are not
    # coerced, and the JSON reader turns its TypeError into a ValueError.
    for build in (
        frac,
        lambda v: Brick((v, 1)),
        lambda v: BoxSpec((1, v)),
        lambda v: Placement(0, (v,)),
        lambda v: Placement(v, (0,)),
    ):
        with pytest.raises(TypeError):
            build(value)
    with pytest.raises(ValueError, match="not a rational literal"):
        parse_rational(value)


@pytest.mark.parametrize("text", ["12", "05", "3/2"], ids=repr)
def test_a_string_is_one_rational_never_an_extent_list(text):
    # Iterating a string would read "12" as the extents (1, 2).
    for build in (Brick, BoxSpec, lambda s: Placement(0, s)):
        with pytest.raises(TypeError, match="not a string"):
            build(text)
    assert Brick((text,)).dims == BoxSpec((text,)).dims == (frac(text),)
    assert Placement(0, (text,)).offset == (frac(text),)


@pytest.mark.parametrize(
    "values",
    [lambda: {3, 1}, lambda: {3: 0, 1: 0}, lambda: (v for v in (3, 1))],
    ids=["set", "dict", "generator"],
)
def test_extent_lists_must_be_ordered(values):
    # {3, 1} iterates as 1, 3; only a list or tuple is an extent list.
    for build in (Brick, BoxSpec, lambda s: Placement(0, s)):
        with pytest.raises(TypeError, match="must be a list or tuple of rationals"):
            build(values())
    assert Brick([3, 1]).dims == BoxSpec((3, 1)).dims == Placement(0, [3, 1]).offset == (3, 1)


@pytest.mark.parametrize("text", RATIONAL_STRINGS, ids=range(len(RATIONAL_STRINGS)))
def test_every_string_reader_shares_one_grammar(text):
    value = RATIONAL_STRINGS[text]
    readers = {
        "frac": frac,
        "parse_rational": parse_rational,
        "Placement": lambda s: Placement(0, (s,)).offset[0],
        "Brick": lambda s: Brick((s,)).dims[0],
        "BoxSpec": lambda s: BoxSpec((s,)).dims[0],
    }
    for name, read in readers.items():
        if value is None:
            with pytest.raises(ValueError, match="not a rational number"):
                read(text)
        elif value <= 0 and name in ("Brick", "BoxSpec"):
            with pytest.raises(ValueError, match="strictly positive"):
                read(text)
        else:
            assert read(text) == value, name


def test_frac_returns_fractions_unchanged_and_refuses_exponents_fast():
    x = F(3, 4)
    assert frac(x) is x
    start = time.perf_counter()
    with pytest.raises(ValueError, match="not a rational number: '1e2000000'"):
        Brick(("1e2000000", 1))
    assert time.perf_counter() - start < 0.1  # Fraction() spends 0.6 s expanding it


def test_shapes_normalize_and_validate():
    b = Brick(("2/4", 1))
    assert b.dims == (F(1, 2), F(1))
    with pytest.raises(ValueError):
        Brick(())
    with pytest.raises(ValueError):
        BoxSpec((1, 0))
    with pytest.raises(ValueError):
        Brick((-1, 1))


@given(st.lists(positive_rationals, min_size=1, max_size=4))
def test_dims_always_canonical(dims):
    for v in Brick(tuple(dims)).dims:
        assert v.denominator > 0
        import math

        assert math.gcd(abs(v.numerator), v.denominator) == 1


# ---------------------------------------------------------------------------
# volume
# ---------------------------------------------------------------------------


def test_volume_examples():
    assert volume(BoxSpec((1, 1))) == 1
    assert volume(Brick((F(1, 2), F(1, 3)))) == F(1, 6)
    assert volume(Brick((3, 3))) == 9


def test_volume_rejects_other_types():
    with pytest.raises(TypeError):
        volume((1, 2))


# ---------------------------------------------------------------------------
# interiors_disjoint
# ---------------------------------------------------------------------------


def test_interiors_disjoint_shared_face_only():
    bricks = [Brick((1, 1))]
    p = Placement(0, (0, 0))
    q = Placement(0, (1, 0))
    assert interiors_disjoint(p, q, bricks) is True


def test_interiors_disjoint_overlapping():
    bricks = [Brick((1, 1))]
    p = Placement(0, (0, 0))
    q = Placement(0, (F(1, 2), 0))
    assert interiors_disjoint(p, q, bricks) is False


def test_interiors_disjoint_strips():
    # 1x4 spans x in (0,1), y in (0,4); 4x1 at (1,0) spans x in (1,5), y in (0,1):
    # the x intervals only touch, so the interiors are disjoint.
    bricks = [Brick((1, 4)), Brick((4, 1))]
    p = Placement(0, (0, 0))
    q = Placement(1, (1, 0))
    assert oracle_boxes_disjoint(p, q, bricks) is True
    assert interiors_disjoint(p, q, bricks) is True


@given(
    st.tuples(small_offsets, small_offsets),
    st.tuples(small_offsets, small_offsets),
    st.tuples(positive_rationals, positive_rationals),
    st.tuples(positive_rationals, positive_rationals),
)
def test_interiors_disjoint_matches_oracle_and_is_symmetric(off1, off2, d1, d2):
    bricks = [Brick(d1), Brick(d2)]
    p, q = Placement(0, off1), Placement(1, off2)
    got = interiors_disjoint(p, q, bricks)
    assert got == oracle_boxes_disjoint(p, q, bricks)
    assert got == interiors_disjoint(q, p, bricks)


# ---------------------------------------------------------------------------
# rational_gcd
# ---------------------------------------------------------------------------


def test_rational_gcd_examples():
    assert rational_gcd(F(1, 2), F(1, 3)) == F(1, 6)
    assert rational_gcd(4, 6) == 2
    # 2/5 = 4 * (1/10) and 1/2 = 5 * (1/10); the brute-force search agrees
    # that no coarser unit divides both.
    assert oracle_rational_gcd(F(2, 5), F(1, 2)) == F(1, 10)
    assert rational_gcd(F(2, 5), F(1, 2)) == F(1, 10)


def test_rational_gcd_rejects_nonpositive():
    with pytest.raises(ValueError):
        rational_gcd(0, 1)
    with pytest.raises(ValueError):
        rational_gcd(F(1, 2), F(-1, 3))


@given(positive_rationals, positive_rationals)
def test_rational_gcd_divides_and_is_maximal(x, y):
    g = rational_gcd(x, y)
    assert (x / g).denominator == 1
    assert (y / g).denominator == 1
    assert g == oracle_rational_gcd(x, y)


# ---------------------------------------------------------------------------
# Tiling construction and verification
# ---------------------------------------------------------------------------


def half_columns():
    brick = Brick((F(1, 2), 1))
    return Tiling(
        bricks=(brick,),
        placements=(Placement(0, (0, 0)), Placement(0, (F(1, 2), 0))),
        box=BoxSpec((1, 1)),
    )


def test_verify_half_columns_ok():
    assert verify_tiling_geometric(half_columns()).ok


def test_verify_detects_overlap():
    brick = Brick((F(1, 2), 1))
    t = Tiling(
        bricks=(brick,),
        placements=(Placement(0, (0, 0)), Placement(0, (F(1, 4), 0))),
        box=BoxSpec((1, 1)),
    )
    out = verify_tiling_geometric(t)
    assert out.status == "overlap"
    assert out.witness == (0, 1)


def test_verify_detects_volume_mismatch():
    brick = Brick((F(1, 2), 1))
    t = Tiling(bricks=(brick,), placements=(Placement(0, (0, 0)),), box=BoxSpec((1, 1)))
    out = verify_tiling_geometric(t)
    assert out.status == "volume-mismatch"
    assert out.witness == (F(1, 2), F(1))


def test_verify_handles_unaligned_offsets():
    # Offsets that share no grid unit with the box or the bricks still get
    # an exact answer from the arrangement.
    bricks = (Brick((F(1, 3),)), Brick((F(2, 3),)))

    def verify(*placements):
        t = Tiling(bricks=bricks, placements=placements, box=BoxSpec((1,)))
        return verify_tiling_geometric(t)

    assert verify(Placement(1, (0,)), Placement(0, (F(2, 3),))).ok
    assert verify(Placement(0, (F(1, 4),))).witness == (F(1, 3), F(1))
    # [1/4, 7/12] and [1/3, 1] meet on (1/3, 7/12).
    assert verify(Placement(0, (F(1, 4),)), Placement(1, (F(1, 3),))).witness == (0, 1)
    assert verify(Placement(0, (F(1, 4),)), Placement(0, (F(7, 12),))).status == "volume-mismatch"


def test_verify_refuses_an_arrangement_above_the_cap():
    # 300 placements at unaligned offsets give about 601 boundaries per axis,
    # a 2e8-cell arrangement (870 MB of int32) in 3-d: refused before any
    # allocation.
    rng = random.Random(3)
    placements = tuple(
        Placement(0, tuple(F(rng.randrange(500_001), 10**6) for _ in range(3)))
        for _ in range(300)
    )
    t = Tiling(bricks=(Brick((F(1, 2),) * 3),), placements=placements, box=BoxSpec((1, 1, 1)))
    with pytest.raises(GridTooLarge, match="arrangement needs"):
        verify_tiling_geometric(t)


def test_tiling_construction_validates():
    brick = Brick((F(1, 2), 1))
    box = BoxSpec((1, 1))
    with pytest.raises(ValueError):
        Tiling(bricks=(brick,), placements=(Placement(0, (F(3, 4), 0)),), box=box)
    with pytest.raises(ValueError):
        Tiling(bricks=(brick,), placements=(Placement(1, (0, 0)),), box=box)
    with pytest.raises(ValueError):
        Tiling(bricks=(brick,), placements=(Placement(0, (0, 0, 0)),), box=box)
    with pytest.raises(ValueError):
        Tiling(bricks=(Brick((1, 1, 1)),), placements=(), box=box)
    # A view may name a brick type past the list; the rows name the first.
    view = Placements([0, 1], [((0,), [0, 0]), ((0,), [0, 0])])
    with pytest.raises(ValueError, match="^placement 1 references unknown brick type 1$"):
        Tiling(bricks=(brick,), placements=view, box=box)
    view = Placements([1], [((0,), [0]), ((0,), [0])])
    with pytest.raises(ValueError, match="^placement 0 references unknown brick type 1$"):
        Tiling(bricks=(brick,), placements=view, box=box)
    # A view of no axes has a row of no coordinates per placement.
    view = Placements([0, 0], [])
    assert tuple(view) == (Placement(0, ()),) * 2
    with pytest.raises(ValueError, match="^placement 0 has 0 coordinates, box has 2$"):
        Tiling(bricks=(brick,), placements=view, box=box)


def test_verify_pinwheel():
    from brickbox import make_instance, pinwheel_tiling

    assert verify_tiling_geometric(pinwheel_tiling(make_instance(4))).ok


def test_verify_counts_cover_only_over_axes_of_more_than_one_cell(monkeypatch):
    # Every placement of a lifted tiling spans the added axes, so its
    # arrangement has the 2-d pinwheel's 3 x 3 cells and 4 corners per
    # placement to count, however many axes are added (not 2**d).
    visited = []

    def counted(lo, hi, corners=geometry._corners):
        for corner in corners(lo, hi):
            visited.append(corner)
            yield corner

    monkeypatch.setattr(geometry, "_corners", counted)
    t = pinwheel_tiling(make_instance(4))
    for d in (3, 12):
        visited.clear()
        assert verify_tiling_geometric(lift_to_dimension(t, d)).ok
        assert len(visited) == 4, d
    assert verify_tiling_geometric(lift_to_dimension(t, 40)).ok
    # A duplicated placement gives the 2-d witness in any dimension.
    dup = Tiling(bricks=t.bricks, placements=tuple(t.placements) + (t.placements[2],), box=t.box)
    want = verify_tiling_geometric(dup)
    assert want == VerifyOutcome("overlap", (2, 5))
    for d in (3, 40):
        assert verify_tiling_geometric(lift_to_dimension(dup, d)) == want, d


# ---------------------------------------------------------------------------
# Differential corpus: the arrangement pass against the pairwise oracle
# ---------------------------------------------------------------------------

VERIFY_SEED = 20260418
MAX_PLACEMENTS = 150


def _rational_in(rng, top):
    """A rational in [0, top] with a small denominator, often off any grid."""
    q = rng.choice((1, 2, 3, 4, 6))
    return top * F(rng.randint(0, q), q)


def _sat_tiling(rng):
    """A certificate tiling of a planted two-brick SAT box, d = 1..3."""
    while True:
        d = rng.randint(1, 3)
        a = [F(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(d)]
        b = [x * rng.choice((1, 2, F(1, 2), F(2, 3))) for x in a]
        axis = rng.randrange(d)
        box = [x * y / rational_gcd(x, y) for x, y in zip(a, b)]  # lcm: both bricks divide it
        box[axis] = rng.randint(0, 3) * a[axis] + rng.randint(1, 3) * b[axis]
        box, a, b = BoxSpec(box), Brick(a), Brick(b)
        outcome = decide_two_brick(box, a, b)
        assert outcome.tileable
        t = certificate_to_tiling(outcome.certificate, box, a, b)
        if len(t.placements) <= MAX_PLACEMENTS - 2:
            return t


def _mutate(rng, t):
    """Drop, duplicate, shift inside the box, or swap the type of one placement."""
    placements = list(t.placements)
    if not placements:
        return t
    k = rng.randrange(len(placements))
    p = placements[k]
    kind = rng.choice(("drop", "duplicate", "shift", "swap"))
    if kind == "drop":
        del placements[k]
    elif kind == "duplicate":
        placements.insert(rng.randint(0, len(placements)), p)
    else:
        index = p.brick_index
        if kind == "swap":
            fits = [i for i, b in enumerate(t.bricks) if all(map(F.__le__, b.dims, t.box.dims))]
            index = rng.choice(fits)
        dims = t.bricks[index].dims
        offset = [min(o, L - c) for o, L, c in zip(p.offset, t.box.dims, dims)]
        if kind == "shift":
            ax = rng.randrange(len(offset))
            offset[ax] = _rational_in(rng, t.box.dims[ax] - dims[ax])
        placements[k] = Placement(index, tuple(offset))
    return Tiling(bricks=t.bricks, placements=tuple(placements), box=t.box)


def _random_parts(rng):
    """Random placements of one to three brick types inside a random box:
    (bricks, placements, box)."""
    d = rng.randint(1, 3)
    box = [F(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(d)]
    bricks = [Brick([_rational_in(rng, L) or L for L in box]) for _ in range(rng.randint(1, 3))]
    placements = []
    for _ in range(rng.randint(0, 12)):
        k = rng.randrange(len(bricks))
        offset = [_rational_in(rng, L - c) for L, c in zip(box, bricks[k].dims)]
        placements.append(Placement(k, tuple(offset)))
    return tuple(bricks), tuple(placements), BoxSpec(box)


def _random_tiling(rng):
    bricks, placements, box = _random_parts(rng)
    return Tiling(bricks=bricks, placements=placements, box=box)


def test_verify_matches_pairwise_oracle_on_seeded_corpus():
    rng = random.Random(VERIFY_SEED)
    statuses = Counter()
    for case in range(2100):
        if case % 3 == 2:
            t = _random_tiling(rng)
        else:
            t = _sat_tiling(rng)
            for _ in range(rng.choice((0, 1, 1, 1, 2))):
                t = _mutate(rng, t)
        assert len(t.placements) <= MAX_PLACEMENTS
        out = verify_tiling_geometric(t)
        assert (out.status, out.witness) == oracle_verify(t), case
        statuses[out.status] += 1
    assert set(statuses) == {"ok", "overlap", "volume-mismatch"}
    assert min(statuses.values()) >= 200, statuses


# ---------------------------------------------------------------------------
# Differential corpus: the integer frame against the Fraction reference
# ---------------------------------------------------------------------------

# Seeds the verify and frame-ends corpora; the tiling-error corpus takes
# the next seed.
FRAME_SEED = 20261020


def _overlapping_or_gapped(rng):
    """Random placements on a coarse and a fine grid: many overlap, many leave gaps."""
    t = _random_tiling(rng)
    extra = [
        Placement(p.brick_index, tuple(o / 2 for o in p.offset))
        for p in rng.sample(t.placements, min(len(t.placements), rng.randint(0, 3)))
    ]
    return Tiling(bricks=t.bricks, placements=tuple(t.placements) + tuple(extra), box=t.box)


def test_verify_matches_fraction_reference_on_seeded_corpus():
    rng = random.Random(FRAME_SEED)
    statuses = Counter()
    for case in range(1500):
        if case % 3 == 2:
            t = _overlapping_or_gapped(rng)
        else:
            t = _sat_tiling(rng)
            for _ in range(rng.choice((0, 1, 1, 2))):
                t = _mutate(rng, t)
        out = verify_tiling_geometric(t)
        assert out == fraction_verify(t), case
        statuses[out.status] += 1
    assert min(statuses.values()) >= 150, statuses


def _raw_placement(rng, bricks, box):
    """A placement that may lie partly outside the box, name an unknown
    brick type, or have the wrong number of coordinates."""
    d = box.dim
    index = rng.randrange(len(bricks) + (rng.random() < 0.1))
    dims = d + rng.choice((0,) * 12 + (-1, 1))
    offset = []
    for ax in range(max(dims, 1)):
        top = box.dims[ax % d] - bricks[index % len(bricks)].dims[ax % d]
        offset.append(_rational_in(rng, top) if rng.random() < 0.93 else rng.choice((-top / 3 - 1, top + F(1, 5))))
    return Placement(index, tuple(offset))


def _tiling_error(bricks, placements, box):
    try:
        Tiling(bricks=bricks, placements=placements, box=box)
    except ValueError as exc:
        return str(exc)
    return None


def test_tiling_errors_match_fraction_reference():
    rng = random.Random(FRAME_SEED + 1)
    messages = Counter()
    for case in range(3000):
        d = rng.randint(1, 3)
        box = BoxSpec([F(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(d)])
        bricks = tuple(
            Brick([_rational_in(rng, L) or L for L in box.dims]) for _ in range(rng.randint(1, 3))
        )
        if rng.random() < 0.02:
            bricks += (Brick((1,) * (d + 1)),)
        placements = tuple(_raw_placement(rng, bricks, box) for _ in range(rng.randint(0, 8)))
        got = _tiling_error(bricks, placements, box)
        assert got == fraction_tiling_error(bricks, placements, box), case
        messages[got and " ".join(got.split()[0:3:2])] += 1
    kinds = {None, "brick has", "placement has", "placement references", "placement extends"}
    assert set(messages) == kinds, messages


def test_out_of_box_placement_is_reported_before_a_later_malformed_one():
    box, bricks = BoxSpec((1, 1)), (Brick((F(1, 2), 1)),)
    outside, fine = Placement(0, (F(3, 4), 0)), Placement(0, (0, 0))
    # A brick index past any column dtype is named, not converted.
    for malformed in (
        Placement(1, (0, 0)), Placement(0, (0, 0, 0)), Placement(0, (0,)), Placement(10**30, (0, 0))
    ):
        for placements in ((fine, outside, malformed), (fine, malformed, outside)):
            expected = fraction_tiling_error(bricks, placements, box)
            assert _tiling_error(bricks, placements, box) == expected
        assert expected.startswith("placement 1 ")
    with pytest.raises(ValueError, match="placement 1 extends outside the box on axis 0"):
        Tiling(bricks=bricks, placements=(fine, outside, Placement(1, (0, 0))), box=box)


VIEW_ERROR_SEED = 20261031


def _raw_view(rng, bricks, box):
    """Rows of one coordinate count (now and then one axis too many or too
    few) and their view: a seeded share of the offsets lies outside the box,
    by a little or a lot, and a few rows name an unknown brick type."""
    d = box.dim
    width = d if rng.random() < 0.95 else rng.choice((d - 1, d + 1))
    outside = rng.random() ** 3 / d
    rows = []
    for _ in range(rng.randint(1, 40)):
        k = rng.randrange(len(bricks) + (rng.random() < 0.02))
        offset = []
        for ax in range(width):
            top = box.dims[ax % d] - bricks[k % len(bricks)].dims[ax % d]
            near = rng.choice((-top / 3 - 1, F(-1, 1000), top + F(1, 1000), top + F(1, 5)))
            offset.append(near if rng.random() < outside else _rational_in(rng, top))
        rows.append(Placement(k, tuple(offset)))
    columns = [([p.offset[ax] for p in rows], range(len(rows))) for ax in range(width)]
    return rows, Placements([p.brick_index for p in rows], columns)


def test_view_errors_match_the_row_scan():
    # A view is checked, and a failing one named, on its columns alone; the
    # message is the first error of the row scan, in its precedence.
    rng = random.Random(VIEW_ERROR_SEED)
    messages = Counter()
    for case in range(1500):
        d = rng.randint(1, 3)
        box = BoxSpec([F(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(d)])
        bricks = tuple(
            Brick([_rational_in(rng, L) or L for L in box.dims]) for _ in range(rng.randint(1, 3))
        )
        rows, view = _raw_view(rng, bricks, box)
        got = _tiling_error(bricks, view, box)
        assert got == fraction_tiling_error(bricks, rows, box), case
        messages[got and " ".join(got.split()[0:3:2])] += 1
    kinds = {None, "placement has", "placement references", "placement extends"}
    assert set(messages) == kinds, messages
    assert min(messages.values()) >= 50, messages


def test_a_bad_view_is_named_without_building_a_row(monkeypatch):
    # The last placement of a 200 x 200 certificate tiling moved out of the
    # box: the error comes from the columns, with no Placement built.
    box, small, large = BoxSpec((200, 200)), Brick((1, 1)), Brick((2, 2))
    t = certificate_to_tiling(decide_two_brick(box, small, large).certificate, box, small, large)
    kinds, axes = t.placements.kinds, t.placements.axes
    (values, index), other = axes
    moved = index.copy()
    moved[-1] = len(values)
    view = Placements(kinds, [((*values, F(200)), moved), other])

    def no_rows(*args):
        raise AssertionError("a Placement was built")

    monkeypatch.setattr(Placement, "_unchecked", no_rows)
    last = len(kinds) - 1
    with pytest.raises(ValueError, match=f"^placement {last} extends outside the box on axis 0$"):
        Tiling(bricks=t.bricks, placements=view, box=box)


def _pair_in_line(bits):
    """Two unit bricks in [0, 2], the second at 1 - 2**-bits: an offset
    `bits` bits finer than the box and brick need."""
    return Tiling(
        bricks=(Brick((1,)),),
        placements=(Placement(0, (0,)), Placement(0, (1 - F(1, 2**bits),))),
        box=BoxSpec((2,)),
    )


def test_frame_slack_is_counted_from_the_box_and_bricks():
    # 158-bit denominators in the box and bricks are not slack: the tiling
    # verifies. Offsets up to 2**64 finer than they need are still verified.
    tiny = F(1, 3**100)
    t = Tiling(
        bricks=(Brick((tiny,)),),
        placements=(Placement(0, (0,)), Placement(0, (tiny,))),
        box=BoxSpec((2 * tiny,)),
    )
    assert verify_tiling_geometric(t).ok
    assert verify_tiling_geometric(_pair_in_line(64)) == VerifyOutcome("overlap", (0, 1))
    with pytest.raises(GridTooLarge, match=r"on axis 0 by more than 2\*\*64"):
        verify_tiling_geometric(_pair_in_line(65))


def test_verify_sample_and_render_build_the_frame_once(monkeypatch):
    # Verifying, sampling and drawing one tiling build its integer frame
    # once; a second tiling builds its own.
    built = []

    def counted(t, run=geometry._integer_frame):
        built.append(t)
        return run(t)

    monkeypatch.setattr(geometry, "_integer_frame", counted)
    t = pinwheel_tiling(make_instance(5))
    assert verify_tiling_geometric(t).ok
    assert residual_sample(t, random_frequencies(2, 50, seed=0)).max_abs_residual < 1e-9
    assert tiling_to_svg(t).count("<rect") == len(t.placements) + 1
    assert verify_tiling_geometric(t).ok
    assert built == [t]
    other = pinwheel_tiling(make_instance(4))
    verify_tiling_geometric(other)
    assert len(built) == 2 and built[1] is other


def test_a_built_frame_leaves_the_tiling_value_alone():
    # Equality, hash, repr and the pickled form read the fields alone, and
    # an unpickled tiling builds its frame again on first use.
    t = pinwheel_tiling(make_instance(4))
    fresh = pickle.loads(pickle.dumps(t))
    before = (hash(t), repr(t), pickle.dumps(t))
    assert verify_tiling_geometric(t).ok and "_frame" in vars(t)
    assert (hash(t), repr(t), pickle.dumps(t)) == before
    assert t == fresh and fresh == t and hash(fresh) == hash(t)
    again = pickle.loads(pickle.dumps(t))
    assert again == t and "_frame" not in vars(again)
    assert verify_tiling_geometric(again).ok and again._frame[1] == t._frame[1]


def test_frame_refusal_comes_from_each_reader_and_is_not_kept():
    # A tiling whose offsets are too fine for its frame is built without
    # complaint; every reader of the frame raises, every time it is called.
    t = Tiling(
        bricks=(Brick((F(1, 2), 1)),),
        placements=(Placement(0, (F(1, 3**50), 0)),),
        box=BoxSpec((1, 1)),
    )
    for _ in range(2):
        for read in (
            verify_tiling_geometric,
            tiling_to_svg,
            lambda t: residual_sample(t, [(0.0, 0.0)]),
        ):
            with pytest.raises(GridTooLarge, match="refine the integer frame on axis 0"):
                read(t)
    assert "_frame" not in vars(t)


def test_many_coprime_offset_denominators_are_refused_before_scaling():
    # 20 000 offsets 1/q, q = 10**6 + k: the lcm of the q has about 150 000
    # bits, and scaling every offset by it would take gigabytes.
    t = Tiling(
        bricks=(Brick((F(1, 2),)),),
        placements=tuple(Placement(0, (F(1, 10**6 + k),)) for k in range(20_000)),
        box=BoxSpec((1,)),
    )
    tracemalloc.start()
    try:
        with pytest.raises(GridTooLarge, match="refine the integer frame on axis 0"):
            verify_tiling_geometric(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


# ---------------------------------------------------------------------------
# Columnar placements against the Placement tuples they stand for
# ---------------------------------------------------------------------------


def test_tiling_member_types_raise_type_error_naming_the_field():
    box, brick, p = BoxSpec((1, 1)), Brick((1, 1)), Placement(0, (0, 0))
    cases = [
        ("bricks", dict(bricks=((1, 1),), placements=(p,), box=box)),
        ("box", dict(bricks=(brick,), placements=(p,), box=(1, 1))),
        ("placements", dict(bricks=(brick,), placements=((0, (0, 0)),), box=box)),
        ("bricks", dict(bricks=Brick((1, 1)), placements=(p,), box=box)),
    ]
    for field, kwargs in cases:
        with pytest.raises(TypeError, match=rf"^{field}\b"):
            Tiling(**kwargs)


def reference_certificate_placements(cert, box, a, b):
    """A certificate tiling's placements built one at a time in Fraction
    arithmetic: the slab of brick a, then that of brick b, each a grid in
    row-major order (the last axis varies fastest)."""
    placements, base = [], F(0)
    for k, (brick, layers) in enumerate(((a, cert.m), (b, cert.n))):
        if not layers:
            continue
        counts = [int(L / c) for L, c in zip(box.dims, brick.dims)]
        counts[cert.axis] = layers
        grids = [
            [(base if i == cert.axis else 0) + j * c for j in range(n)]
            for i, (c, n) in enumerate(zip(brick.dims, counts))
        ]
        placements += [Placement(k, offset) for offset in product(*grids)]
        base += layers * brick.dims[cert.axis]
    return tuple(placements)


def _certificate_case(rng):
    while True:
        d = rng.randint(1, 3)
        a = [F(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(d)]
        b = [x * rng.choice((1, 2, 3, F(1, 2), F(2, 3))) for x in a]
        box = [x * y / rational_gcd(x, y) * rng.randint(1, 2) for x, y in zip(a, b)]
        axis = rng.randrange(d)
        box[axis] = rng.randint(0, 3) * a[axis] + rng.randint(1, 3) * b[axis]
        box, a, b = BoxSpec(box), Brick(a), Brick(b)
        cert = decide_two_brick(box, a, b).certificate
        ref = reference_certificate_placements(cert, box, a, b)
        if len(ref) <= 120:
            return certificate_to_tiling(cert, box, a, b), ref


def _oracle_case(rng):
    """An exact-cover tiling of a small box by one to three brick types."""
    while True:
        d = rng.randint(1, 2)
        bricks = [Brick([F(rng.randint(1, 2), rng.choice((1, 2))) for _ in range(d)])]
        bricks.append(Brick([c * rng.randint(1, 2) for c in bricks[0].dims]))
        box = BoxSpec([c * rng.randint(1, 4) for c in bricks[1].dims])
        grid = build_grid(box, bricks)
        problem = build_cover_problem(grid)
        solutions = solve_exact_cover(problem, limit=1).solutions
        if solutions:
            # Each row id's placement: by brick type, then offset in row-major order.
            placements = [
                Placement(k, tuple(o * u for o, u in zip(offset, grid.unit)))
                for k, footprint in enumerate(grid.brick_footprints)
                for offset in product(*(range(c - f + 1) for c, f in zip(grid.cells, footprint)))
            ]
            ref = tuple(placements[r] for r in solutions[0])
            return rows_to_tiling(box, bricks, problem, solutions[0]), ref


def _pinwheel_case(rng):
    R = rng.randint(4, 9)
    ref = (
        Placement(2, (1, 1)),
        Placement(1, (0, 0)),
        Placement(0, (R, 0)),
        Placement(1, (1, R)),
        Placement(0, (0, 1)),
    )
    return pinwheel_tiling(make_instance(R)), ref


def _lifted_case(rng):
    t, ref = _pinwheel_case(rng) if rng.random() < 0.5 else _certificate_case(rng)
    while t.box.dim != 2:
        t, ref = _certificate_case(rng)
    d = rng.randint(3, 4)
    zeros = (F(0),) * (d - 2)
    return lift_to_dimension(t, d), tuple(Placement(p.brick_index, p.offset + zeros) for p in ref)


def _hand_built_case(rng):
    bricks, placements, box = _random_parts(rng)
    return Tiling(bricks=bricks, placements=placements, box=box), placements


def _mutant_cases(rng, t, ref):
    """Drop, duplicate and shift one placement, built from Placement tuples."""
    if not ref:
        return []
    k = rng.randrange(len(ref))
    p = ref[k]
    dims = t.bricks[p.brick_index].dims
    ax = rng.randrange(t.box.dim)
    offset = list(p.offset)
    offset[ax] = (t.box.dims[ax] - dims[ax]) * F(rng.randint(0, 4), 4)
    shifted = Placement(p.brick_index, tuple(offset))
    refs = (ref[:k] + ref[k + 1 :], ref[:k] + (p,) + ref[k:], ref[:k] + (shifted,) + ref[k + 1 :])
    return [(Tiling(bricks=t.bricks, placements=r, box=t.box), r) for r in refs]


def _respelled(view):
    """The view rebuilt from its own columns, each axis's values reversed
    and the first one repeated for one placement."""
    axes = []
    for values, index in view.axes:
        index = len(values) - 1 - index
        if len(index):
            index[np.argmax(index == 0)] = len(values)
            values = (*values[::-1], values[-1])
        axes.append((values, index))
    return Placements(view.kinds, axes)


COLUMNS_SEED = 20261019


def test_columnar_tilings_match_their_placement_tuples_on_seeded_corpus():
    rng = random.Random(COLUMNS_SEED)
    builders = (_certificate_case, _oracle_case, _pinwheel_case, _lifted_case, _hand_built_case)
    by_key, seen = {}, Counter()
    extra = Placement(0, (F(0),))
    for case in range(500):
        build = builders[case % len(builders)]
        t, ref = build(rng)
        for u, r in [(t, ref)] + _mutant_cases(rng, t, ref):
            view = u.placements
            assert isinstance(view, Placements) and len(view) == len(r), case
            got = tuple(view)
            assert all(p == q for p, q in zip(got, r, strict=True)), case
            assert all(type(c) is F for p in got for c in p.offset), case
            same = Tiling(bricks=u.bricks, placements=r, box=u.box)
            assert same == u and hash(same) == hash(u), case
            assert Tiling(bricks=u.bricks, placements=view, box=u.box) == u, case
            rebuilt = _respelled(view)
            again = Tiling(bricks=u.bricks, placements=rebuilt, box=u.box)
            assert rebuilt == view and hash(rebuilt) == hash(view), case
            assert again == u and hash(again) == hash(u), case
            assert "".join(ser.tiling_to_json(again)) == "".join(ser.tiling_to_json(u)), case
            assert ser.tiling_from_obj(ser.tiling_to_obj(u)) == u, case
            # A view reads like a sequence, but equals only a view.
            assert view != r and tuple(view) == r, case
            if r:
                assert view[-1] == r[-1] and view[len(r) // 2] == r[len(r) // 2], case
            with pytest.raises(TypeError):
                view + (extra,)
            with pytest.raises(TypeError):
                (extra,) + view
            with pytest.raises(TypeError):
                view[:3]
            key = (u.bricks, u.box, r)
            if key in by_key:
                assert by_key[key] == u and hash(by_key[key]) == hash(u), case
            by_key.setdefault(key, u)
            seen[build.__name__] += 1
    # Equal exactly when bricks, box and placement tuples are.
    tilings = list(by_key.values())
    assert len(set(tilings)) == len(tilings)
    assert all(a != b for a, b in zip(tilings, tilings[1:]))
    assert min(seen.values()) >= 300, seen


def test_placements_view_columns_are_canonical_and_read_only():
    # Values in any order, repeated or unused, give the sorted distinct form.
    view = Placements([1, 0, 1], [((3, F(1, 2), 3, 7), [2, 1, 0])])
    assert view.axes[0][0] == (F(1, 2), 3)
    assert view.axes[0][1].tolist() == [1, 0, 1]
    assert view == Placements([1, 0, 1], [((F(1, 2), 3), [1, 0, 1])])
    assert hash(view) == hash(Placements([1, 0, 1], [((F(1, 2), 3), [1, 0, 1])]))
    # repr is the constructor call on the columns, and rebuilds the view.
    assert repr(view) == "Placements([1, 0, 1], [((Fraction(1, 2), Fraction(3, 1)), [1, 0, 1])])"
    assert eval(repr(view), {"Placements": Placements, "Fraction": F}) == view
    assert tuple(view) == (Placement(1, (3,)), Placement(0, (F(1, 2),)), Placement(1, (3,)))
    # Sorted values, one unused or one repeated, are brought to it too.
    unused = Placements([0, 0], [((1, 2, 3), [2, 0])])
    assert unused.axes[0][0] == (1, 3) and unused.axes[0][1].tolist() == [1, 0]
    repeated = Placements([0, 0, 0], [((1, 1, 2), [0, 1, 2])])
    assert repeated.axes[0][0] == (1, 2) and repeated.axes[0][1].tolist() == [0, 0, 1]
    # Values past double range all round alike, and are ordered as Fractions.
    huge = 10**400
    bricks, box = (Brick((huge,)), Brick((2 * huge,))), BoxSpec((4 * huge,))
    shuffled = Placements([0, 0, 1], [((3 * huge, 0, huge), [0, 1, 2])])
    ordered = Placements([0, 0, 1], [((0, huge, 3 * huge), [2, 0, 1])])
    assert shuffled == ordered and shuffled.axes[0][0] == (0, huge, 3 * huge)
    tilings = [Tiling(bricks=bricks, placements=v, box=box) for v in (shuffled, ordered)]
    assert tilings[0] == tilings[1] and verify_tiling_geometric(tilings[0]).ok
    assert verify_tiling_geometric(tilings[1]).ok
    with pytest.raises(ValueError):
        view.kinds[0] = 0
    with pytest.raises(ValueError):
        view.axes[0][1][0] = 0
    copy = pickle.loads(pickle.dumps(view))
    assert copy == view and not copy.kinds.flags.writeable
    assert not any(index.flags.writeable for _, index in copy.axes)
    for index in ([1], [-1]):
        with pytest.raises(ValueError, match="offset index out of range"):
            Placements([0], [((1,), index)])
    with pytest.raises(ValueError, match="brick indices must be nonnegative"):
        Placements([-1], [((1,), [0])])
    with pytest.raises(ValueError, match="one entry per placement"):
        Placements([0, 0], [((1,), [0])])
    with pytest.raises(IndexError):
        view[3]
    # Columns hold ints: floats and bools are refused, never truncated, and
    # so are objects; an empty column has nothing to refuse.
    for kinds, index in (
        ([0.7, True], [0.9, 1.2]),
        ([0, 1], [0.9, 1]),
        ([True, False], [0, 1]),
        ([0, 1], [False, True]),
        (["0", "1"], [0, 1]),
        ([10**30, 0], [0, 1]),
        # numpy reads a bool among ints as an int: [1, True] would be two
        # placements of brick 1.
        ([1, True], [0, 1]),
        ([0, 1], [0, True]),
        ((0, np.True_), (0, 1)),
        ([0, 1], (np.False_, 1)),
        ([[1, True]], [[0, 1]]),
        (1, 0),
    ):
        with pytest.raises(TypeError, match="must be ints"):
            Placements(kinds, [((0, 1), index)])
    empty = Placements([], [((), [])])
    assert empty == Placements((), [((), ())]) and tuple(empty) == () != empty


def reference_frame_ends(t):
    """Per axis, in Fraction arithmetic over `tuple(t.placements)`: the
    common denominator D of the box extent, the brick extents and the
    offsets; the (brick type k, distinct offset i) pairs that occur,
    numbered k * (number of distinct offsets) + i and sorted; each pair's
    low end o * D and high end (o + c) * D; and each placement's pair."""
    placements = tuple(t.placements)
    axes = []
    for ax, length in enumerate(t.box.dims):
        values = sorted({p.offset[ax] for p in placements})
        at = {v: i for i, v in enumerate(values)}
        extents = [b.dims[ax] for b in t.bricks]
        unit = math.lcm(*(v.denominator for v in (length, *extents, *values)))
        pair = [p.brick_index * len(values) + at[p.offset[ax]] for p in placements]
        used = sorted(set(pair))
        lows = [values[q % len(values)] * unit for q in used]
        highs = [(values[q % len(values)] + extents[q // len(values)]) * unit for q in used]
        axes.append((unit, length * unit, [c * unit for c in extents], used, lows, highs, pair))
    return axes


def _three_type_oracle_case(rng):
    """An exact-cover tiling of a small 2-d box that uses three brick types."""
    while True:
        bricks = [
            Brick([F(rng.randint(1, 3), rng.choice((1, 2))) for _ in range(2)]) for _ in range(3)
        ]
        box = BoxSpec([F(rng.randint(2, 6), rng.choice((1, 2))) for _ in range(2)])
        outcome = exact_cover_tileable(box, bricks, node_budget=20_000)
        if outcome.tiling is not None and len(set(outcome.tiling.placements.kinds.tolist())) == 3:
            return outcome.tiling, tuple(outcome.tiling.placements)


def test_frame_ends_match_fraction_reference_on_seeded_corpus():
    rng = random.Random(FRAME_SEED)
    builders = (_certificate_case, _oracle_case, _three_type_oracle_case, _lifted_case)
    cases = []
    for case in range(160):
        t, ref = builders[case % len(builders)](rng)
        cases += [t] + [u for u, _ in _mutant_cases(rng, t, ref)]
    pinwheel = pinwheel_tiling(make_instance(4))
    cases += [
        lift_to_dimension(pinwheel, 40),
        # brick type 1 is never placed
        Tiling(
            bricks=(Brick((F(1, 2), 1)), Brick((F(1, 3), 1))),
            placements=(Placement(0, (0, 0)), Placement(0, (F(1, 2), 0))),
            box=BoxSpec((1, 1)),
        ),
        # two types at one offset with different extents on both axes
        Tiling(
            bricks=(Brick((F(1, 3), F(1, 2))), Brick((F(2, 3), F(1, 4)))),
            placements=(
                Placement(1, (0, F(1, 2))),
                Placement(0, (0, 0)),
                Placement(1, (F(1, 3), 0)),
                Placement(0, (F(2, 3), F(1, 2))),
            ),
            box=BoxSpec((1, 1)),
        ),
        Tiling(bricks=(Brick((1, 2)),), placements=(), box=BoxSpec((3, 2))),
    ]
    for case, t in enumerate(cases):
        scale, box, bricks, ends = geometry._integer_frame(t)
        assert len(ends) == t.box.dim, case
        for ax, (ref, unit, length, (pairs, lows, highs, rank)) in enumerate(
            zip(reference_frame_ends(t), scale, box, ends)
        ):
            assert (unit, length, [b[ax] for b in bricks]) == ref[:3], (case, ax)
            assert (pairs, lows, highs) == tuple(ref[3:6]), (case, ax)
            assert all(type(v) is int for v in (*pairs, *lows, *highs)), (case, ax)
            assert [pairs[r] for r in rank.tolist()] == ref[6], (case, ax)
