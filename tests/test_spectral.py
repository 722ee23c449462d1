"""Frequency-side verification: transforms, residuals, zero sets, witnesses."""

import cmath
import math
import random
from fractions import Fraction as F

import pytest

from brickbox import (
    BoxSpec,
    Brick,
    Placement,
    Tiling,
    box_transform,
    frac,
    in_zero_set_Z,
    key_observation_holds,
    key_observation_witness,
    make_instance,
    pinwheel_tiling,
    random_frequencies,
    residual_sample,
    volume,
)
from brickbox.spectral import SpectralReport

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
    broken = Tiling(bricks=t.bricks, placements=t.placements[:1], box=t.box)
    report = residual_sample(broken, [(0.0, 0.0)])
    assert report.max_abs_residual == pytest.approx(0.5, abs=1e-12)


def test_removing_any_placement_is_detected_at_origin():
    t = pinwheel_tiling(make_instance(4))
    for drop in range(len(t.placements)):
        kept = t.placements[:drop] + t.placements[drop + 1 :]
        broken = Tiling(bricks=t.bricks, placements=kept, box=t.box)
        removed = volume(t.bricks[t.placements[drop].brick_index])
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


def test_residual_sample_input_validation():
    with pytest.raises(ValueError):
        residual_sample(half_columns(), [])
    with pytest.raises(ValueError):
        residual_sample(half_columns(), [(0.0,)])
    with pytest.raises(ValueError):
        SpectralReport(samples=0, max_abs_residual=0.0)
    # Half-empty boxes whose float volume, and so whose residual, reads 0.0:
    # one extent below double range, or two representable ones whose product
    # is; or whose float volume overflows, so the residual at 0 reads NaN.
    for box_dims, message in (
        ((F(1, 10**400), F(1)), "below double range"),
        ((F(1, 10**200), F(1, 10**200)), "below double range"),
        ((F(10**200), F(10**200)), "above double range"),
    ):
        half_empty = Tiling(
            bricks=(Brick((box_dims[0] / 2, box_dims[1])),),
            placements=(Placement(0, (F(0), F(0))),),
            box=BoxSpec(box_dims),
        )
        with pytest.raises(ValueError, match=message):
            residual_sample(half_empty, [(0.0, 0.0)])


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
