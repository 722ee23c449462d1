"""Frequency-side verification: transforms, residuals, zero sets, witnesses."""

import cmath
import itertools
import json
import math
import pickle
import random
import struct
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from brickbox import (
    BoxSpec,
    Brick,
    GridTooLarge,
    Placement,
    Tiling,
    certificate_to_tiling,
    decide_two_brick,
    exact_cover_tileable,
    frac,
    in_zero_set_Z,
    key_observation_holds,
    key_observation_witness,
    lift_to_dimension,
    make_instance,
    one_brick_tiling,
    pinwheel_tiling,
    random_frequencies,
    residual_sample,
    volume,
)
from brickbox import spectral
from brickbox.serialization import spectral_report_to_obj
from brickbox.spectral import SpectralReport, _bank, _bank_plan, _phase_table, _table_plan
from references import box_transform, box_transform_batch, interiors_disjoint, rational_gcd

# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def oracle_transform_1d(c, xi, steps=20001):
    """Composite Simpson quadrature of the defining integral over [-c/2, c/2].

    The imaginary part cancels by symmetry, so integrate cos(2*pi*xi*x).
    """
    a, b = -c / 2, c / 2
    h = (b - a) / (steps - 1)
    total = 0.0
    for k in range(steps):
        x = a + k * h
        w = 1 if k in (0, steps - 1) else (4 if k % 2 == 1 else 2)
        total += w * math.cos(2 * math.pi * xi * x)
    return total * h / 3


def oracle_phase_sum(offsets, xi):
    return sum(
        cmath.exp(2j * math.pi * sum(float(l) * float(x) for l, x in zip(lam, xi)))
        for lam in offsets
    )


def translate_phase_sum(offsets, xi):
    """Exact-phase reference: sum of exp(2*pi*i * lambda.xi) over the offsets.

    When both the offsets and xi are exact rationals the dot product is
    reduced modulo 1 exactly before exponentiating.
    """
    total = 0j
    exact_xi = all(not isinstance(x, float) for x in xi)
    for lam in offsets:
        if len(lam) != len(xi):
            raise ValueError("offset and frequency have different lengths")
        if exact_xi and all(not isinstance(v, float) for v in lam):
            dot = sum((frac(v) * frac(x) for v, x in zip(lam, xi)), F(0))
            phase = float(dot % 1)
        else:
            phase = math.fsum(float(v) * float(x) for v, x in zip(lam, xi))
        total += cmath.exp(2j * math.pi * phase)
    return total


def dense_residual(t, points):
    """Reference for `residual_sample`: one complex exp per point and
    placement, exp(2*pi*i * pts @ centers.T), summed per brick type.
    Returns (max_abs_residual, witness)."""
    pts = np.asarray(points, dtype=float)
    half = tuple(length / 2 for length in t.box.dims)
    total = np.zeros(pts.shape[0], dtype=complex)
    for k, brick in enumerate(t.bricks):
        centers = [
            [float(p.offset[ax] + brick.dims[ax] / 2 - half[ax]) for ax in range(t.box.dim)]
            for p in t.placements
            if p.brick_index == k
        ]
        if centers:
            lam = np.array(centers, dtype=float)
            phases = np.exp(2j * np.pi * (pts @ lam.T)).sum(axis=1)
            total += phases * box_transform_batch(brick.dims, pts)
    resid = np.abs(total - box_transform_batch(t.box.dims, pts))
    peak = int(np.argmax(resid))
    return float(resid[peak]), tuple(points[peak])


def half_columns():
    brick = Brick((F(1, 2), 1))
    return Tiling(
        bricks=(brick,),
        placements=(Placement(0, (0, 0)), Placement(0, (F(1, 2), 0))),
        box=BoxSpec((1, 1)),
    )


# ---------------------------------------------------------------------------
# box_transform
# ---------------------------------------------------------------------------


def test_transform_at_origin_is_volume():
    assert box_transform((1, 1, 1), (0, 0, 0)) == pytest.approx(1.0, rel=1e-12)
    dims = (F(3, 2), F(2, 3))
    assert box_transform(dims, (0.0, 0.0)) == pytest.approx(float(volume(Brick(dims))), rel=1e-12)


def test_transform_vanishes_on_zero_set():
    # any coordinate at a nonzero integer multiple of 1/c_j kills the product
    dims = (F(2, 3), F(5, 4))
    for k in (1, -1, 7, -50, 100):
        assert abs(box_transform(dims, (F(3, 2) * k, 0.37))) < 1e-12
        assert abs(box_transform(dims, (0.11, F(4, 5) * k))) < 1e-12


def test_transform_against_quadrature():
    expected = oracle_transform_1d(2.0, 0.25)
    assert expected == pytest.approx(4 / math.pi, abs=1e-9)
    assert box_transform((2,), (0.25,)) == pytest.approx(4 / math.pi, rel=1e-12)
    for xi in (0.1, 0.33, 1.8, -2.4):
        assert box_transform((F(3, 2),), (xi,)) == pytest.approx(
            oracle_transform_1d(1.5, xi), abs=1e-8
        )


def test_transform_input_validation():
    with pytest.raises(ValueError):
        box_transform((1, 1), (0.0,))


# ---------------------------------------------------------------------------
# translate_phase_sum (the test-side exact-phase reference)
# ---------------------------------------------------------------------------


def test_phase_sum_trivia():
    assert translate_phase_sum([], (1.0,)) == 0
    assert translate_phase_sum([(0,)], (0.5,)) == pytest.approx(1.0)


def test_phase_sum_cancellation():
    expected = oracle_phase_sum([(0,), (F(1, 2),)], (1,))
    assert abs(expected) < 1e-12
    assert abs(translate_phase_sum([(0,), (F(1, 2),)], (1,))) < 1e-12


def test_phase_sum_matches_direct_complex_arithmetic():
    offsets = [(F(1, 3), F(1, 7)), (F(2, 5), F(0))]
    for xi in [(0.3, -1.2), (2.0, 5.0)]:
        assert translate_phase_sum(offsets, xi) == pytest.approx(oracle_phase_sum(offsets, xi))


# ---------------------------------------------------------------------------
# residual_sample
# ---------------------------------------------------------------------------


def test_residual_noise_for_valid_tiling():
    points = random_frequencies(2, 100, seed=11, bound=5.0)
    report = residual_sample(half_columns(), points)
    assert report.samples == 100
    assert report.max_abs_residual <= 1e-9


def test_residual_at_origin_reads_missing_volume():
    t = half_columns()
    broken = Tiling(bricks=t.bricks, placements=tuple(t.placements)[:1], box=t.box)
    report = residual_sample(broken, [(0.0, 0.0)])
    assert report.max_abs_residual == pytest.approx(0.5, abs=1e-12)


def test_removing_any_placement_is_detected_at_origin():
    t = pinwheel_tiling(make_instance(4))
    placements = tuple(t.placements)
    for drop, p in enumerate(placements):
        kept = placements[:drop] + placements[drop + 1 :]
        broken = Tiling(bricks=t.bricks, placements=kept, box=t.box)
        removed = volume(t.bricks[p.brick_index])
        report = residual_sample(broken, [(0.0, 0.0)])
        assert report.max_abs_residual == pytest.approx(float(removed), abs=1e-12)


def test_residual_pinwheel_thousand_samples():
    t = pinwheel_tiling(make_instance(4))
    report = residual_sample(t, random_frequencies(2, 1000, seed=23))
    assert report.max_abs_residual <= 1e-9


def test_complex_identity_holds_pointwise():
    # the full complex identity, not just the magnitude: phase sums times
    # brick transforms reproduce the box transform for a real tiling
    t = half_columns()
    rng = random.Random(5)
    half = [d / 2 for d in t.box.dims]
    for _ in range(25):
        xi = (rng.uniform(-8, 8), rng.uniform(-8, 8))
        centers = [
            tuple(p.offset[ax] + t.bricks[0].dims[ax] / 2 - half[ax] for ax in range(2))
            for p in t.placements
        ]
        lhs = translate_phase_sum(centers, xi) * box_transform(t.bricks[0].dims, xi)
        rhs = box_transform(t.box.dims, xi)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_residual_records_seed_and_witness():
    t = half_columns()
    points = [(1.0, 0.3), (0.2, 0.4)]
    report = residual_sample(t, points, seed=99)
    assert report.seed == 99
    assert report.witness in points


def test_witness_is_the_evaluated_point_as_floats():
    # Whatever number type the caller passes, the witness is the point as
    # evaluated, in Python floats, so the report serializes.
    t = half_columns()
    cases = (
        ([(F(1, 3), F(1, 7))], (1 / 3, 1 / 7)),
        ([(np.float32(0.1), np.float32(0.25))], (float(np.float32(0.1)), 0.25)),
        (np.array([[0.1, 0.25]], dtype=np.float32), (float(np.float32(0.1)), 0.25)),
        (np.array([[1, 2]]), (1.0, 2.0)),
    )
    for points, witness in cases:
        report = residual_sample(t, points)
        assert report.witness == witness
        assert all(type(x) is float for x in report.witness)
        obj = json.loads(json.dumps(spectral_report_to_obj(report)))
        assert obj["witness"] == list(witness)


def test_residual_sample_input_validation():
    with pytest.raises(ValueError):
        residual_sample(half_columns(), [])
    with pytest.raises(ValueError):
        residual_sample(half_columns(), [(0.0,)])
    with pytest.raises(ValueError, match="sample points and box have different dimensions"):
        residual_sample(half_columns(), [iter((0.0, 0.0))])
    # Arrays are read without a pass per point, and checked alike.
    with pytest.raises(ValueError, match="need at least one sample point"):
        residual_sample(half_columns(), np.empty((0, 2)))
    for wrong in (np.zeros((3, 1)), np.zeros((3, 3)), np.zeros(2)):
        with pytest.raises(ValueError, match="sample points and box have different dimensions"):
            residual_sample(half_columns(), wrong)
    with pytest.raises(ValueError, match="sample points must be finite"):
        residual_sample(half_columns(), np.array([[0.0, np.inf]]))
    with pytest.raises(ValueError):
        SpectralReport(samples=0, max_abs_residual=0.0)
    # Half-empty boxes whose float volume, and so whose residual, reads 0.0:
    # one extent below double range, or two representable ones whose product
    # is; or whose float volume overflows, so the residual at 0 reads NaN.
    for box_dims, message in (
        ((F(1, 10**400), F(1)), "below double range"),
        ((F(1, 10**200), F(1, 10**200)), "below double range"),
        ((F(10**200), F(10**200)), "above double range"),
        ((F(10**400), F(1)), "above double range"),
    ):
        half_empty = Tiling(
            bricks=(Brick((box_dims[0] / 2, box_dims[1])),),
            placements=(Placement(0, (F(0), F(0))),),
            box=BoxSpec(box_dims),
        )
        with pytest.raises(ValueError, match=message):
            residual_sample(half_empty, [(0.0, 0.0)])


def test_residual_sample_refuses_values_that_are_not_finite():
    # Frequencies near 1e300 overflow the transforms of a box 10**10 long, and
    # bound 1.7e308 draws infinite points, since its interval is wider than
    # any double. Neither may yield a NaN report (which passes any tolerance)
    # or a numpy warning.
    wide = one_brick_tiling(BoxSpec((10**10, 1)), Brick((5 * 10**9, 1)))
    with pytest.raises(ValueError, match="a residual is not finite"):
        residual_sample(wide, random_frequencies(2, 1000, 0, 1e300))
    with pytest.raises(ValueError, match="sample points must be finite"):
        residual_sample(wide, random_frequencies(2, 3, 0, 1.7e308))
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="sample points must be finite"):
            residual_sample(wide, [(0.0, bad)])
    assert residual_sample(wide, [(0.0, 0.0)]).max_abs_residual == 0.0


def test_residual_sample_shares_the_verifier_frame_cap():
    # Offsets 2**65 times finer than the box and brick need are refused as in
    # the geometric verifier; fine box and brick extents themselves are not.
    bricks, box = (Brick((1,)),), BoxSpec((2,))
    for bits, ok in ((64, True), (65, False)):
        t = Tiling(bricks=bricks, placements=(Placement(0, (1 - F(1, 2**bits),)),), box=box)
        if ok:
            assert residual_sample(t, [(0.0,)]).max_abs_residual == pytest.approx(1.0)
        else:
            with pytest.raises(GridTooLarge, match="refine the integer frame"):
                residual_sample(t, [(0.0,)])
    tiny = F(1, 3**100)
    t = Tiling(
        bricks=(Brick((tiny,)),),
        placements=(Placement(0, (0,)), Placement(0, (tiny,))),
        box=BoxSpec((2 * tiny,)),
    )
    assert residual_sample(t, random_frequencies(1, 100, seed=0)).max_abs_residual < TOLERANCE


# ---------------------------------------------------------------------------
# residual_sample against the dense reference
# ---------------------------------------------------------------------------

RESIDUAL_SEED = 20261018
TOLERANCE = 1e-9


def _certificate_tiling(rng, dims=(2, 3)):
    """A certificate tiling of a planted two-brick SAT box, d one of `dims`,
    with rational extents."""
    while True:
        d = rng.choice(dims)
        a = [F(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(d)]
        b = [x * rng.choice((1, 2, 3, F(1, 2), F(2, 3))) for x in a]
        box = [x * y / rational_gcd(x, y) * rng.randint(1, 3) for x, y in zip(a, b)]
        axis = rng.randrange(d)
        box[axis] = rng.randint(0, 5) * a[axis] + rng.randint(1, 5) * b[axis]
        box, a, b = BoxSpec(box), Brick(a), Brick(b)
        outcome = decide_two_brick(box, a, b)
        if outcome.tileable:
            t = certificate_to_tiling(outcome.certificate, box, a, b)
            if 2 <= len(t.placements) <= 200:
                return t


def _mutant(rng, t):
    """One placement dropped, duplicated, or shifted by a rational step inside the box."""
    placements = list(t.placements)
    k = rng.randrange(len(placements))
    p = placements[k]
    kind = rng.choice(("drop", "duplicate", "shift"))
    if kind == "drop":
        del placements[k]
    elif kind == "duplicate":
        placements.insert(rng.randint(0, len(placements)), p)
    else:
        dims = t.bricks[p.brick_index].dims
        ax = rng.randrange(len(dims))
        room = t.box.dims[ax] - dims[ax]
        offset = list(p.offset)
        offset[ax] = room * F(rng.randint(0, 6), 6)
        placements[k] = Placement(p.brick_index, tuple(offset))
    return Tiling(bricks=t.bricks, placements=tuple(placements), box=t.box)


def _matches_dense_reference(t, case, zeros=False):
    """`residual_sample` at 1000 points seeded by `case` against
    `dense_residual`: the same verdict, |delta| <= 1e-12 and, on rejection,
    the same witness. With `zeros`, every third point has a coordinate 0
    and every seventh another one (so some points are 0 on every axis for
    d <= 2). Returns the verdict."""
    points = random_frequencies(t.box.dim, 1000, seed=case)
    if zeros:
        points = points.copy()
        points[::3, case % t.box.dim] = 0.0
        points[::7, (case + 1) % t.box.dim] = 0.0
    report = residual_sample(t, points)
    dense, witness = dense_residual(t, points)
    accepted = report.max_abs_residual < TOLERANCE
    assert accepted == (dense < TOLERANCE), case
    assert abs(report.max_abs_residual - dense) <= 1e-12, case
    if not accepted:
        assert report.witness == witness, case
    return accepted


def test_residual_matches_dense_reference_on_seeded_corpus():
    rng = random.Random(RESIDUAL_SEED)
    verdicts = {True: 0, False: 0}
    for case in range(260):
        t = _certificate_tiling(rng)
        if case % 2:
            t = _mutant(rng, t)
        verdicts[_matches_dense_reference(t, case)] += 1
    assert min(verdicts.values()) >= 100, verdicts


def _bank_case(rng, case):
    """A tiling whose banks take one of the derivations or fallbacks:
    certificate tilings in d = 4, whose second brick type starts past 0 on
    its split axis; 1-d strips, whose second type starts past 0 and, past
    64 pieces, has more than 32 centers; oracle tilings by bars and
    pinwheels, whose gaps are not twice a brick extent; one-brick and
    lifted tilings, with brick extents equal to the box's; and grids with
    more than 32 rows of unit squares on one axis."""
    kind = case % 6
    if kind == 0:
        return _certificate_tiling(rng, dims=(4,))
    if kind == 1:
        return _strip(rng.randint(2, 90), kinds=rng.choice((1, 2)))
    if kind == 2:
        k = rng.randint(2, 4)
        sides = [k * rng.randint(1, 12 // k), rng.randint(k, 12)]
        rng.shuffle(sides)
        unit = F(1, rng.randint(1, 4))
        bars = [Brick((unit, k * unit)), Brick((k * unit, unit))]
        return exact_cover_tileable(BoxSpec([x * unit for x in sides]), bars).tiling
    if kind == 3:
        t = pinwheel_tiling(make_instance(rng.randint(4, 7)))
        return lift_to_dimension(t, 4) if rng.random() < 0.5 else t
    if kind == 4:
        # One brick as long as the box on one axis, a count-th of it on the other.
        side, count = F(rng.randint(1, 9), rng.randint(1, 4)), rng.randint(1, 40)
        other = count * F(1, rng.randint(1, 3))
        box, brick = [side, other], [side, other / count]
        if rng.random() < 0.5:
            box.reverse()
            brick.reverse()
        return one_brick_tiling(BoxSpec(box), Brick(brick))
    rows, cols = rng.randint(33, 70), rng.randint(1, 3)
    return Tiling(
        bricks=(Brick((1, 1)),),
        placements=tuple(Placement(0, (F(i), F(j))) for i in range(rows) for j in range(cols)),
        box=BoxSpec((rows, cols)),
    )


def test_every_bank_derivation_and_fallback_matches_dense_reference(monkeypatch):
    # Rows n = 2c (h_c * h_c) and n = c - L (h_c * conj(h_L)) are derived;
    # block heads past the first, first centers past offset 0 and gaps that
    # are not twice an extent are direct exponentials; brick extents equal
    # to the box's, points with coordinates 0, d = 1 and d = 4, and more
    # than 32 centers on an axis all occur. Each case runs with its mutant.
    seen = {"square": 0, "conjugate": 0, "direct": 0, "equal extent": 0, "long axis": 0}

    def spy(scale, extents, needs, run=spectral._bank_plan):
        plan, row = run(scale, extents, needs)
        _, coefficients, boxes, pairs = plan
        conjugates = range(len(coefficients), len(coefficients) + len(boxes))
        seen["square"] += int((pairs[:, 0] == pairs[:, 1]).sum())
        seen["conjugate"] += int(np.isin(pairs[:, 1], conjugates).sum())
        seen["direct"] += len(coefficients) - sum(map(len, extents))
        return plan, row

    monkeypatch.setattr(spectral, "_bank_plan", spy)
    rng = random.Random(RESIDUAL_SEED + 3)
    verdicts = {True: 0, False: 0}
    dims = set()
    for case in range(180):
        t = _bank_case(rng, case)
        dims.add(t.box.dim)
        if any(b.dims[ax] == t.box.dims[ax] for b in t.bricks for ax in range(t.box.dim)):
            seen["equal extent"] += 1
        if max(len(values) for values, _ in t.placements.axes) > 32:
            seen["long axis"] += 1
        for tiling in (t, _mutant(rng, t)):
            verdicts[_matches_dense_reference(tiling, case, zeros=case % 2 == 0)] += 1
    assert dims == {1, 2, 4} and min(verdicts.values()) >= 150, (dims, verdicts)
    assert min(seen.values()) >= 20, seen


def _strip(count, kinds):
    """A 1-d tiling by `count` pieces of widths 1/250 and 1/100 in turn (only
    the first if `kinds` is 1): every center is distinct."""
    bricks = (Brick((F(1, 250),)), Brick((F(1, 100),)))[:kinds]
    placements, edge = [], F(0)
    for k in range(count):
        placements.append(Placement(k % kinds, (edge,)))
        edge += bricks[k % kinds].dims[0]
    return Tiling(bricks=bricks, placements=tuple(placements), box=BoxSpec((edge,)))


def test_residual_with_all_centers_distinct_matches_dense_reference():
    # 1100 distinct centers, in 35 blocks of 32 table rows: the 1000 points
    # go in 18 chunks of at most 58, each with its own 1120 x 58 phase table.
    t = _strip(1100, kinds=1)
    points = random_frequencies(1, 1000, seed=7)
    placements = tuple(t.placements)
    broken = (
        Tiling(bricks=t.bricks, placements=placements[:-1], box=t.box),
        Tiling(bricks=t.bricks, placements=placements + placements[700:701], box=t.box),
        Tiling(bricks=t.bricks, placements=placements[1:] + (Placement(0, (F(1, 500),)),), box=t.box),
    )
    for tiling in (t, *broken):
        report = residual_sample(tiling, points)
        dense, witness = dense_residual(tiling, points)
        assert abs(report.max_abs_residual - dense) <= 1e-12
        assert (report.max_abs_residual < TOLERANCE) == (tiling is t)
        if tiling is not t:
            assert report.witness == witness


def _diagonal_split(t):
    """`t` with each placement whose offset is the same on every axis moved
    to a copy of its brick type: the copies' centers lie on a diagonal, so
    they fill little of their lattice."""
    bricks, copies, placements = list(t.bricks), {}, []
    for p in t.placements:
        k = p.brick_index
        if len(set(p.offset)) == 1:
            if k not in copies:
                copies[k] = len(bricks)
                bricks.append(t.bricks[k])
            k = copies[k]
        placements.append(Placement(k, p.offset))
    return Tiling(bricks=tuple(bricks), placements=tuple(placements), box=t.box)


def _sparse_lattice_tiling(rng):
    """Unit squares or cubes, or an oracle tiling of a box by 1 x k and
    k x 1 bars, with the placements on the diagonal split off into a copy
    of their brick type; the edge is a seeded rational unit."""
    unit = F(1, rng.randint(1, 4))
    if rng.random() < 0.5:
        d = rng.choice((2, 2, 3))
        side = rng.randint(3, 12 if d == 2 else 5)
        ints = [F(i) * unit for i in range(side)]
        t = Tiling(
            bricks=(Brick((unit,) * d),),
            placements=tuple(Placement(0, o) for o in itertools.product(ints, repeat=d)),
            box=BoxSpec((side * unit,) * d),
        )
    else:
        k = rng.randint(2, 4)
        sides = [k * rng.randint(1, 12 // k), rng.randint(k, 12)]
        rng.shuffle(sides)
        bars = [Brick((unit, k * unit)), Brick((k * unit, unit))]
        rng.shuffle(bars)
        t = exact_cover_tileable(BoxSpec([x * unit for x in sides]), bars).tiling
    return _diagonal_split(t)


def test_both_phase_sum_paths_match_dense_reference_on_sparse_lattices(monkeypatch):
    # A brick type whose centers fill at least half of their lattice, such
    # as each original type here less its diagonal, sums the whole lattice
    # at base 1 and gathers the points that differ from it (the diagonal's,
    # weight -1; a duplicate's, +1); the diagonal copies fill less and have
    # base 0, gathering every placement. Ten more cases put one placement
    # three times over, a weight of +2.
    bases = {"1 with exceptions": 0, "0": 0}
    weights = set()

    def spy(where, shape, run=spectral._summation):
        base, rows, weight = summation = run(where, shape)
        if base == 0:
            bases["0"] += 1
        elif len(rows[0]):
            bases["1 with exceptions"] += 1
            weights.update(weight.tolist())
        return summation

    monkeypatch.setattr(spectral, "_summation", spy)
    rng = random.Random(RESIDUAL_SEED + 1)
    verdicts = {True: 0, False: 0}
    for case in range(200):
        t = _sparse_lattice_tiling(rng)
        if case % 2:
            t = _mutant(rng, t)
        verdicts[_matches_dense_reference(t, case)] += 1
    assert min(bases.values()) >= 50 and min(verdicts.values()) >= 50, (bases, verdicts)
    assert min(weights) < 0 < max(weights), weights
    for case in range(200, 210):
        t = _sparse_lattice_tiling(rng)
        tripled = tuple(t.placements) + (t.placements[rng.randrange(len(t.placements))],) * 2
        t = Tiling(bricks=t.bricks, placements=tripled, box=t.box)
        assert not _matches_dense_reference(t, case)
    assert max(weights) > 1, weights


def test_array_and_tuple_points_give_bit_identical_reports():
    # The same points as a float array and as a list of tuples: the array is
    # read as is, the tuples in one pass, and both give the same bits.
    rng = random.Random(RESIDUAL_SEED + 2)
    for case in range(120):
        t = (_certificate_tiling if case % 4 < 2 else _sparse_lattice_tiling)(rng)
        if case % 2:
            t = _mutant(rng, t)
        points = random_frequencies(t.box.dim, 1000, seed=case)
        from_array = residual_sample(t, points)
        from_tuples = residual_sample(t, [tuple(p) for p in points.tolist()])
        assert struct.pack("<d", from_array.max_abs_residual) == struct.pack(
            "<d", from_tuples.max_abs_residual
        ), case
        assert from_array.witness == from_tuples.witness, case


def _center_sets(rng):
    """(gap pattern, numerators, unit): sorted distinct centers numerators / unit.

    n = 1, 2, 31, 32, 33, 65 and 1100 centers with equal odd, equal even, two
    alternating and seeded irregular gaps, on a small unit and on one 2**64
    times finer than its box needs (the frame slack), where neighbouring
    centers round to one double.
    """
    for n in (1, 2, 31, 32, 33, 65, 1100):
        for unit in (2 * 12, 2 * 3 * 2**64):
            patterns = {
                "equal": [1] * (n - 1),
                "even": [2] * (n - 1),
                "alternating": [1, 3] * (n // 2),
                "irregular": [rng.randint(1, 10**6) for _ in range(n - 1)],
            }
            for name, gaps in patterns.items():
                nums = [-unit // 2 + rng.randint(0, 5)]
                for gap in gaps[: n - 1]:
                    nums.append(nums[-1] + gap)
                yield name, nums, unit


def test_phase_table_matches_direct_exponentials():
    # Each row of a chained table is its block's first row times at most
    # _CHAIN - 1 gap factors, and a derived bank row is the product of two
    # direct ones (h_c * h_c, or h_c * conj(h_L)), so every row stays within
    # 32 ulps * (1 + |theta|) of a direct exponential of its center, theta
    # the largest angle of the row, of its block's first row and of the box
    # extent's row. Direct bank rows are bit for bit np.exp.
    rng = random.Random(RESIDUAL_SEED)
    xi = np.array(random_frequencies(1, 1000, seed=RESIDUAL_SEED)).ravel()
    eps = np.finfo(float).eps
    chained = merged = derived = 0
    for name, nums, unit in _center_sets(rng):
        n = len(nums)
        ints, source = _table_plan(nums)
        blocks, chain = source.shape
        # A box extent L that the first center falls short of by a brick
        # extent, and brick extents that are half of some even gaps: the
        # bank derives the rows of those ints.
        length = unit
        halves = sorted({g // 2 for g in ints[blocks:] if g % 2 == 0})[:3]
        plan, row = _bank_plan([unit // 2], [[length, nums[0] + length, *halves]], [ints])
        direct = len(plan[1])
        bank = _bank(xi[None, :], *plan)
        table = _phase_table(bank, np.array([row[0, m] for m in ints])[source])
        assert table.shape == (source.size, len(xi)) and n <= source.size < n + blocks
        assert row[0, nums[0]] >= direct and all(row[0, 2 * h] >= direct for h in halves)
        centers = np.array([x / unit for x in nums])
        merged += len(set(centers.tolist())) < n
        exact = np.exp(2j * np.pi * np.multiply.outer(centers, xi))
        theta = 2 * np.pi * np.abs(np.multiply.outer(centers, xi))
        theta = np.maximum(theta, theta[np.arange(n) // chain * chain])
        theta = np.maximum(theta, 2 * np.pi * np.abs(length / unit * xi))
        error = np.abs(table[:n] - exact)
        assert (error <= 32 * eps * (1 + theta)).all(), (name, n, unit)
        if chain == 1:
            assert len(ints) == n
            assert (error[[row[0, m] < direct for m in nums]] == 0).all()
        else:
            chained += 1
            derived += bool(halves)
        if name == "equal" and n >= 2:
            assert len(ints) == -(-n // 32) + 1, (n, unit)
    assert chained >= 20 and merged >= 10 and derived >= 10, (chained, merged, derived)


def _unit_squares(side):
    ints = [F(k) for k in range(side)]
    return Tiling(
        bricks=(Brick((1, 1)),),
        placements=tuple(Placement(0, (x, y)) for x in ints for y in ints),
        box=BoxSpec((side, side)),
    )


def _diagonal(side, d):
    """`side` unit hypercubes at (i, ..., i) in a box of edge `side`: not a
    tiling, and its lattice of centers has side**d points."""
    return Tiling(
        bricks=(Brick((1,) * d),),
        placements=tuple(Placement(0, (i,) * d) for i in range(side)),
        box=BoxSpec((side,) * d),
    )


def _dropped_and_duplicated(t):
    """`t` less its placement 1234, plus a second copy of placement 4321."""
    placements = tuple(t.placements)
    kept = placements[:1234] + placements[1235:] + placements[4321:4322]
    return Tiling(bricks=t.bricks, placements=kept, box=t.box)


@pytest.mark.parametrize(
    "build, tiles",
    [
        (lambda: _unit_squares(200), True),
        (lambda: _dropped_and_duplicated(_unit_squares(200)), False),
        (lambda: _strip(10_000, kinds=2), True),
        (lambda: _diagonal(100, 4), False),
    ],
    ids=["grid", "grid with exceptions", "strip", "diagonal"],
)
def test_residual_memory_does_not_grow_with_the_tiling(build, tiles):
    # 40 000 unit squares (200 distinct centers per axis) and 10 000 strip
    # pieces (all centers distinct), at 1000 points: the dense form holds a
    # 1000 x n complex array, 640 MB and 160 MB; chunks and blocks keep the
    # peak small. The grid less one square and with another doubled sums
    # its whole lattice and gathers those two points. The 100 diagonal
    # hypercubes' lattice has 10**8 points, so counting placements over it
    # would take 800 MB alone.
    t = build()
    points = random_frequencies(t.box.dim, 1000, seed=0)
    tracemalloc.start()
    try:
        report = residual_sample(t, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak
    if tiles:
        assert report.max_abs_residual < TOLERANCE
    else:
        assert 0.1 < report.max_abs_residual < math.inf


def test_gathered_blocks_count_in_the_chunk_budget():
    # 500 unit squares on the diagonal: a lattice of 250 000 centers, so all
    # 500 placements are gathered, in blocks as long as the exceptions, next
    # to tables of 2 x 512 rows. Leaving the two blocks out of the chunk
    # budget doubles the chunk and the peak (about 2 MB against 1 MB).
    t = _diagonal(500, 2)
    points = random_frequencies(2, 1000, seed=0)
    spectral.phase_terms(t)  # builds the tiling's integer frame outside the trace
    tracemalloc.start()
    try:
        residual_sample(t, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    budget = spectral._BLOCK_ENTRIES * np.dtype(complex).itemsize
    assert peak < 1.25 * budget, (peak, budget)


def test_phase_terms_and_the_sampler_share_one_plan(monkeypatch):
    # `spectral` counts the terms, then samples: each brick type's centers
    # and summation are planned once per tiling, and a pickle leaves the
    # plan out, so an unpickled tiling plans again and samples the same.
    planned = []

    def counted(where, shape, run=spectral._summation):
        planned.append(shape)
        return run(where, shape)

    monkeypatch.setattr(spectral, "_summation", counted)
    t = pinwheel_tiling(make_instance(5))
    points = random_frequencies(2, 50, seed=0)
    terms = spectral.phase_terms(t)
    report = residual_sample(t, points)
    assert len(planned) == len(t.bricks) == 3
    assert spectral.phase_terms(t) == terms and residual_sample(t, points) == report
    assert len(planned) == 3
    again = pickle.loads(pickle.dumps(t))
    assert again == t and not any(name.startswith("_") for name in vars(again))
    assert residual_sample(again, points) == report and len(planned) == 6


# ---------------------------------------------------------------------------
# random_frequencies
# ---------------------------------------------------------------------------


def _bit_patterns(points):
    # Bit patterns, so that inf and nan draws compare too.
    return [[struct.pack("<d", v) for v in p] for p in points]


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_random_frequencies_match_uniform_draws(dim):
    # At 1.7e308, 2 * bound overflows to inf, so draws read inf (or nan for
    # a zero draw) in Random.uniform as well; they must match bit for bit.
    for seed in (0, 1, 23, 20240917, -5, -(2**40), 2**32 + 3, 2**70):
        for bound in (10.0, 5.0, 0.5, 1e-3, 7, 1e-300, 1e300, 1.7e308):
            for count in (0, 1, 50):
                rng = random.Random(seed)
                expected = [
                    tuple(rng.uniform(-bound, bound) for _ in range(dim)) for _ in range(count)
                ]
                got = random_frequencies(dim, count, seed, bound)
                assert isinstance(got, np.ndarray) and got.dtype == np.float64
                assert got.shape == (count, dim) and not got.flags.writeable
                assert _bit_patterns(got.tolist()) == _bit_patterns(expected)


def test_random_frequencies_read_the_stream_in_blocks():
    # The stream is read 2**16 coordinates at a time, 64 random bits each.
    # Within and across blocks, and for no draw at all, the coordinates are
    # bit for bit those of Random.uniform, in stream order.
    for seed in (0, 1, -7, 2**32, 10**30):
        for dim, count in ((2, 0), (1, 1), (3, 2000), (3, 21846), (1, 2**16 + 1)):
            rng = random.Random(seed)
            expected = [rng.uniform(-2.5, 2.5) for _ in range(dim * count)]
            got = random_frequencies(dim, count, seed, 2.5)
            assert got.shape == (count, dim)
            assert _bit_patterns([got.ravel().tolist()]) == _bit_patterns([expected]), (seed, count)


def test_random_frequencies_need_a_dimension():
    for dim in (0, -1):
        with pytest.raises(ValueError, match="dimension"):
            random_frequencies(dim, 10, 0)
    # and a count of at least 0, checked before any draw
    for count in (-1, -5):
        with pytest.raises(ValueError, match="count must be nonnegative"):
            random_frequencies(2, count, 0)


# ---------------------------------------------------------------------------
# in_zero_set_Z
# ---------------------------------------------------------------------------


def test_zero_set_membership_unit_box():
    unit = BoxSpec((1, 1))
    assert in_zero_set_Z((1, F(3, 10)), unit) is True
    assert in_zero_set_Z((0, 0), unit) is False
    assert in_zero_set_Z((F(5, 2), F(5, 2)), unit) is False


def test_zero_set_exact_vs_tolerant_paths():
    unit = BoxSpec((1, 1))
    assert in_zero_set_Z((F(3), F(1, 3)), unit) is True
    # The test is exact only: float coordinates are rejected, not rounded.
    with pytest.raises(TypeError):
        in_zero_set_Z((1.0 + 1e-15, 0.2), unit)
    with pytest.raises(TypeError):
        in_zero_set_Z((1.0 + 1e-6, 0.2), unit)


def test_zero_set_scales_with_box():
    box = BoxSpec((2, F(1, 3)))
    assert in_zero_set_Z((F(1, 2), F(1, 10)), box) is True  # (1/2) * 2 = 1
    assert in_zero_set_Z((F(1, 3), F(1, 10)), box) is False
    assert in_zero_set_Z((F(1, 20), F(3)), box) is True  # 3 * (1/3) = 1


def test_zero_set_remainders_match_fraction_products():
    # Signed coordinates near multiples of 1/L_j, with extents up to
    # 10**400 and down to 10**-400, ints and "p/q" strings among them: the
    # remainder test agrees with x * L_j computed as a Fraction.
    rng = random.Random(20261031)
    scales = (1, F(1, 7), F(10**9 + 7, 3), 10**400, F(1, 10**400))
    answers = set()
    for _ in range(2000):
        d = rng.randint(1, 4)
        box = BoxSpec(tuple(
            rng.choice(scales) * F(rng.randint(1, 12), rng.randint(1, 6)) for _ in range(d)
        ))
        xi = [F(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) / L for L in box.dims]
        want = any(x * L != 0 and (x * L).denominator == 1 for x, L in zip(xi, box.dims))
        given = [rng.choice((x, f"{x.numerator}/{x.denominator}")) for x in xi]
        given = [int(x) if isinstance(x, F) and x.denominator == 1 else x for x in given]
        assert in_zero_set_Z(given, box) is want, (xi, box)
        answers.add(want)
    assert answers == {True, False}


# ---------------------------------------------------------------------------
# key_observation_witness
# ---------------------------------------------------------------------------


def test_witness_for_fifths_pair():
    box = BoxSpec((1, 1))
    a, b = Brick((F(2, 5), F(1, 2))), Brick((F(1, 2), F(2, 5)))
    w = key_observation_witness(box, a, b, 0, 1)
    assert w.point == (F(5, 2), F(5, 2))
    na = tuple(a.dims[k] / box.dims[k] for k in range(2))
    nb = tuple(b.dims[k] / box.dims[k] for k in range(2))
    assert abs(box_transform(na, w.point)) < 1e-12
    assert abs(box_transform(nb, w.point)) < 1e-12
    assert abs(box_transform((1, 1), w.point)) > 0


def test_witness_for_thirds_pair():
    w = key_observation_witness(
        BoxSpec((1, 1)), Brick((F(2, 3), 1)), Brick((1, F(2, 3))), 0, 1
    )
    assert w.point == (F(3, 2), F(3, 2))


def test_witness_requires_a_genuine_violation():
    box = BoxSpec((1, 1))
    with pytest.raises(ValueError):
        key_observation_witness(box, Brick((F(1, 2), F(1, 3))), Brick((F(1, 2), F(2, 5))), 0, 1)
    with pytest.raises(ValueError):
        key_observation_witness(box, Brick((F(2, 5), 1)), Brick((1, F(2, 5))), 1, 1)


def test_witness_on_general_box_uses_normalized_extents():
    # box (5,5) with strips: the violating pair (1,0) gives 5/4 coordinates
    box = BoxSpec((5, 5))
    a, b = Brick((1, 4)), Brick((4, 1))
    w = key_observation_witness(box, a, b, 1, 0)
    assert w.point == (F(5, 4), F(5, 4))


def test_witness_is_exact_on_seeded_corpus():
    # Genuine violations in d = 2..4, with extents far beyond double range
    # on some axes. The witness check is exact, so it never raises; where
    # floats can hold the extents, both float brick transforms still vanish.
    rng = random.Random(6)
    scales = (1, 1, F(1, 7), 10**200, 10**400, F(1, 10**400))
    witnesses = floated = 0
    while witnesses < 400:
        d = rng.randint(2, 4)
        box = BoxSpec(tuple(
            rng.choice(scales) * F(rng.randint(1, 40), rng.randint(1, 6)) for _ in range(d)
        ))
        a, b = (Brick(tuple(F(rng.randint(1, 12), rng.randint(1, 6)) for _ in range(d)))
                for _ in range(2))
        violation = key_observation_holds(box, a, b)
        if violation is None:
            continue
        w = key_observation_witness(box, a, b, violation.i, violation.j)
        witnesses += 1
        assert w.pair == (violation.i, violation.j)
        norm_a = tuple(a.dims[k] / box.dims[k] for k in range(d))
        norm_b = tuple(b.dims[k] / box.dims[k] for k in range(d))
        try:
            fa, fb = box_transform(norm_a, w.point), box_transform(norm_b, w.point)
        except OverflowError:
            continue
        assert abs(fa) < 1e-12 and abs(fb) < 1e-12
        floated += 1
    assert 100 < floated < witnesses


# ---------------------------------------------------------------------------
# Input checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: interiors_disjoint(
                Placement(0, (0, 0)), Placement(0, (0,)), [Brick((1, 1))]
            ),
            "placements have different dimensions",
        ),
        (
            lambda: SpectralReport(samples=1, max_abs_residual=-0.5),
            "residual magnitudes are nonnegative",
        ),
        (
            lambda: in_zero_set_Z((F(1),), BoxSpec((1, 1))),
            "frequency and box have different dimensions",
        ),
        (
            lambda: key_observation_witness(
                BoxSpec((1, 1)), Brick((F(2, 5), F(1, 2))), Brick((F(1, 2),)), 0, 1
            ),
            "brick and box dimensions differ",
        ),
    ],
    ids=["interiors_disjoint", "SpectralReport", "in_zero_set_Z", "key_observation_witness"],
)
def test_input_checks_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
