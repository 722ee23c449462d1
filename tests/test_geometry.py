"""Exact geometry: scalars, shapes, and the geometric verifier."""

import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brickbox import (
    BoxSpec,
    Brick,
    GridTooLarge,
    Placement,
    Tiling,
    certificate_to_tiling,
    decide_two_brick,
    frac,
    interiors_disjoint,
    rational_gcd,
    verify_tiling_geometric,
    volume,
)

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


def test_verify_pinwheel():
    from brickbox import make_instance, pinwheel_tiling

    assert verify_tiling_geometric(pinwheel_tiling(make_instance(4))).ok


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


def _random_tiling(rng):
    """Random placements of one to three brick types inside a random box."""
    d = rng.randint(1, 3)
    box = [F(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(d)]
    bricks = [Brick([_rational_in(rng, L) or L for L in box]) for _ in range(rng.randint(1, 3))]
    placements = []
    for _ in range(rng.randint(0, 12)):
        k = rng.randrange(len(bricks))
        offset = [_rational_in(rng, L - c) for L, c in zip(box, bricks[k].dims)]
        placements.append(Placement(k, tuple(offset)))
    return Tiling(bricks=tuple(bricks), placements=tuple(placements), box=BoxSpec(box))


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
