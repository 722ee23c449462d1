"""Acceptance gate: every criterion at its stated tolerance.

Each test prints a single pass/fail line (visible with `pytest -s` or in the
captured output of a failing run). Randomized instances use fixed seeds so
the suite is reproducible.
"""

import random
import time
from fractions import Fraction as F

import pytest

from brickbox import (
    BoxSpec,
    Brick,
    build_grid,
    certificate_to_tiling,
    decide_two_brick,
    exact_cover_tileable,
    in_zero_set_Z,
    key_observation_holds,
    lift_to_dimension,
    make_instance,
    pinwheel_tiling,
    proper_split_report,
    random_frequencies,
    residual_sample,
    verify_tiling_geometric,
)
from references import box_transform

INSTANCE_SEED = 20240917
BOX_SIDES = [F(1), F(3, 2), F(2)]


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _random_instances(count: int = 500):
    """d = 2 boxes with sides from {1, 3/2, 2}; brick extents are rationals
    with denominator <= 4, positive, and at most the box side."""
    rng = random.Random(INSTANCE_SEED)
    instances = []
    while len(instances) < count:
        box = BoxSpec((rng.choice(BOX_SIDES), rng.choice(BOX_SIDES)))

        def side(L):
            q = rng.randint(1, 4)
            return F(rng.randint(1, int(L * q)), q)

        a = Brick((side(box.dims[0]), side(box.dims[1])))
        b = Brick((side(box.dims[0]), side(box.dims[1])))
        if any(c > 24 for c in build_grid(box, [a, b]).cells):
            continue  # stay inside the 24x24 grid cap (never triggers here)
        instances.append((box, a, b))
    return instances


@pytest.fixture(scope="module")
def instances():
    return _random_instances(500)


@pytest.fixture(scope="module")
def decisions(instances):
    return [decide_two_brick(box, a, b) for box, a, b in instances]


def test_criterion_1_theorem_oracle_equivalence(instances):
    start = time.perf_counter()
    timeouts = 0
    disagreements = 0
    sat = 0
    for box, a, b in instances:
        decision = decide_two_brick(box, a, b)
        oracle = exact_cover_tileable(box, [a, b])
        if oracle.status == "timeout":
            timeouts += 1
            continue
        sat += decision.tileable
        if decision.tileable != (oracle.status == "sat"):
            disagreements += 1
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1: split decision == exact-cover oracle on 500 instances",
        disagreements == 0 and timeouts == 0 and elapsed < 60.0,
        f"{sat} tileable, {500 - sat} not, {timeouts} timeouts, {elapsed:.1f}s",
    )


def test_criterion_2_certificate_soundness(instances, decisions):
    points = random_frequencies(2, 1000, seed=INSTANCE_SEED)
    worst = 0.0
    checked = 0
    geometric_ok = True
    for (box, a, b), decision in zip(instances, decisions):
        if not decision.tileable:
            continue
        tiling = certificate_to_tiling(decision.certificate, box, a, b)
        geometric_ok &= verify_tiling_geometric(tiling).ok
        worst = max(worst, residual_sample(tiling, points).max_abs_residual)
        checked += 1
    _report(
        "criterion 2: every certificate yields a verified tiling, residual < 1e-9",
        geometric_ok and worst < 1e-9 and checked > 0,
        f"{checked} tilings, worst residual {worst:.2e}",
    )


def test_criterion_3_obstruction_witnesses(instances, decisions):
    unit = BoxSpec((1, 1))
    checked = 0
    sound = True
    for (box, a, b), decision in zip(instances, decisions):
        if decision.tileable:
            continue
        if key_observation_holds(box, a, b) is None:
            continue
        witness = decision.witness
        norm_a = tuple(a.dims[k] / box.dims[k] for k in range(2))
        norm_b = tuple(b.dims[k] / box.dims[k] for k in range(2))
        sound &= abs(box_transform(norm_a, witness.point)) < 1e-12
        sound &= abs(box_transform(norm_b, witness.point)) < 1e-12
        sound &= not in_zero_set_Z(witness.point, unit)
        sound &= abs(box_transform(unit.dims, witness.point)) > 0
        checked += 1
    _report(
        "criterion 3: obstruction witnesses kill both brick transforms off the zero set",
        sound and checked > 0,
        f"{checked} witnesses",
    )


def test_criterion_4_counterexample_R4():
    start = time.perf_counter()
    inst = make_instance(4)
    tiling = pinwheel_tiling(inst)
    geometric = verify_tiling_geometric(tiling).ok
    residual = residual_sample(tiling, random_frequencies(2, 1000, seed=41)).max_abs_residual
    report = proper_split_report(inst.box, inst.bricks)
    elapsed = time.perf_counter() - start
    _report(
        "criterion 4: R=4 pinwheel verified; no cut admits proper-subset tilings",
        geometric
        and residual < 1e-9
        and report.no_split
        and len(report.entries) == 288
        and elapsed < 10.0,
        f"residual {residual:.2e}, {len(report.entries)} cases, {elapsed:.1f}s",
    )


def test_criterion_5_R3_is_not_a_counterexample():
    start = time.perf_counter()
    with pytest.raises(ValueError):
        make_instance(3)
    box = BoxSpec((4, 4))
    bricks = (Brick((1, 3)), Brick((3, 1)), Brick((2, 2)))
    report = proper_split_report(box, bricks)
    found = report.split_found
    elapsed = time.perf_counter() - start
    ok = (
        found is not None
        and found.axis == 0
        and found.alpha == 2
        and found.left_subset == (2,)
        and found.right_subset == (2,)
        and elapsed < 5.0
    )
    _report(
        "criterion 5: R=3 splits at x=2 into 2x4 halves tiled by the square alone",
        ok,
        f"first split {found}, {elapsed:.1f}s",
    )


def test_criterion_6_lifting():
    tiling = pinwheel_tiling(make_instance(4))
    ok = True
    detail = []
    for d in (3, 5):
        lifted = lift_to_dimension(tiling, d)
        ok &= verify_tiling_geometric(lifted).ok
        residual = residual_sample(
            lifted, random_frequencies(d, 1000, seed=600 + d)
        ).max_abs_residual
        ok &= residual < 1e-9
        detail.append(f"d={d} residual {residual:.2e}")
    _report("criterion 6: lifted pinwheel verifies in d=3 and d=5", ok, ", ".join(detail))


def test_criterion_7_spectral_calibration():
    unit = (1, 1)
    at_origin = box_transform(unit, (0.0, 0.0))
    ok = abs(at_origin - 1.0) < 1e-12
    rng = random.Random(7)
    worst = 0.0
    for _ in range(100):
        k = rng.choice([v for v in range(-100, 101) if v != 0])
        other = rng.uniform(-10.0, 10.0)
        point = (float(k), other) if rng.random() < 0.5 else (other, float(k))
        worst = max(worst, abs(box_transform(unit, point)))
    ok &= worst < 1e-12
    _report(
        "criterion 7: unit-box transform is 1 at the origin and 0 on the zero set",
        ok,
        f"origin {at_origin!r}, worst zero {worst:.2e}",
    )
