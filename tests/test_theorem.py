"""Split certificates: decision, search order, and tiling construction."""

import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brickbox import (
    BoxSpec,
    Brick,
    DecisionOutcome,
    KeyObservationViolation,
    Placement,
    SplitCertificate,
    certificate_to_tiling,
    decide_two_brick,
    exact_cover_tileable,
    find_split,
    key_observation_holds,
    key_observation_witness,
    one_brick_tileable,
    solve_axis_combination,
    validate_certificate,
    verify_tiling_geometric,
)

# ---------------------------------------------------------------------------
# Independent oracle
# ---------------------------------------------------------------------------


def oracle_axis_pairs(L, a, b):
    """Naive double loop over both counts."""
    out = []
    m = 0
    while m * a <= L:
        n = 0
        while m * a + n * b <= L:
            if m * a + n * b == L:
                out.append((m, n))
            n += 1
        m += 1
    return out


brick_dim = st.fractions(min_value=F(1, 4), max_value=F(2), max_denominator=4)


def brick_pairs_for(box):
    sides = [st.fractions(min_value=F(1, 4), max_value=L, max_denominator=4) for L in box.dims]
    one = st.tuples(*sides).map(Brick)
    return st.tuples(one, one)


# ---------------------------------------------------------------------------
# one_brick_tileable
# ---------------------------------------------------------------------------


def test_one_brick_examples():
    assert one_brick_tileable(BoxSpec((1, 1)), Brick((F(1, 2), F(1, 3)))) is True
    assert one_brick_tileable(BoxSpec((1, 1)), Brick((F(2, 5), F(1, 2)))) is False
    assert one_brick_tileable(BoxSpec((5, 5)), Brick((3, 3))) is False


def test_one_brick_dimension_mismatch():
    with pytest.raises(ValueError):
        one_brick_tileable(BoxSpec((1, 1)), Brick((1,)))


# ---------------------------------------------------------------------------
# key_observation_holds
# ---------------------------------------------------------------------------


def test_key_observation_violation_symmetric_pair():
    out = key_observation_holds(BoxSpec((1, 1)), Brick((F(2, 5), F(1, 2))), Brick((F(1, 2), F(2, 5))))
    assert out == KeyObservationViolation(i=0, j=1)


def test_key_observation_holds_ok():
    out = key_observation_holds(BoxSpec((1, 1)), Brick((F(1, 4), F(1, 2))), Brick((F(1, 2), F(1, 2))))
    assert out is None


def test_key_observation_picks_smallest_violating_pair():
    # 5/a_1 = 5 is an integer so (0,1) is fine; (1,0) violates: 5/4 twice.
    out = key_observation_holds(BoxSpec((5, 5)), Brick((1, 4)), Brick((4, 1)))
    assert out == KeyObservationViolation(i=1, j=0)


def test_key_observation_vacuous_in_one_dimension():
    assert key_observation_holds(BoxSpec((1,)), Brick((F(2, 5),)), Brick((F(3, 7),))) is None


# ---------------------------------------------------------------------------
# solve_axis_combination
# ---------------------------------------------------------------------------


def test_axis_combination_examples():
    assert oracle_axis_pairs(F(1), F(1, 4), F(1, 2)) == [(0, 2), (2, 1), (4, 0)]
    assert solve_axis_combination(1, F(1, 4), F(1, 2)) == (0, 2)
    assert oracle_axis_pairs(F(7), F(3), F(5)) == []
    assert solve_axis_combination(7, 3, 5) is None
    assert oracle_axis_pairs(F(8), F(3), F(5)) == [(1, 1)]
    assert solve_axis_combination(8, 3, 5) == (1, 1)


def test_axis_combination_rejects_nonpositive():
    with pytest.raises(ValueError):
        solve_axis_combination(0, 1, 1)


@given(
    st.fractions(min_value=F(1), max_value=F(6), max_denominator=4),
    brick_dim,
    brick_dim,
)
def test_axis_combination_matches_naive_enumeration(L, a, b):
    pairs = oracle_axis_pairs(L, a, b)
    assert solve_axis_combination(L, a, b) == (pairs[0] if pairs else None)


# ---------------------------------------------------------------------------
# find_split
# ---------------------------------------------------------------------------


def test_find_split_prefers_degenerate_certificate():
    # Both bricks tile the unit square alone; the first brick wins the tie,
    # giving the degenerate all-a certificate rather than a mixed cut.
    cert = find_split(BoxSpec((1, 1)), Brick((F(1, 4), F(1, 2))), Brick((F(1, 2), F(1, 2))))
    assert cert == SplitCertificate(axis=0, m=4, n=0, cut=F(1))


def test_find_split_none_for_blocked_pair():
    assert find_split(BoxSpec((1, 1)), Brick((F(2, 5), F(1, 2))), Brick((F(1, 2), F(2, 5)))) is None


def test_find_split_degenerate_when_other_brick_is_huge():
    cert = find_split(BoxSpec((1, 1)), Brick((F(1, 2), F(1, 3))), Brick((7, 7)))
    assert cert == SplitCertificate(axis=0, m=2, n=0, cut=F(1))


def test_find_split_proper_cut():
    # Neither brick tiles alone (1/(2/5) and 1/(3/5) are not integers), so
    # the search must produce a real cut: 1*(2/5) + 1*(3/5) = 1 on axis 0,
    # both bricks dividing axis 1 evenly.
    box = BoxSpec((1, 1))
    a, b = Brick((F(2, 5), F(1, 2))), Brick((F(3, 5), F(1, 2)))
    cert = find_split(box, a, b)
    assert cert == SplitCertificate(axis=0, m=1, n=1, cut=F(2, 5))
    t = certificate_to_tiling(cert, box, a, b)
    assert len(t.placements) == 4
    assert verify_tiling_geometric(t).ok


# ---------------------------------------------------------------------------
# certificate_to_tiling
# ---------------------------------------------------------------------------


def test_certificate_to_tiling_mixed_cut():
    # An explicitly built proper certificate: 2*(1/4) + 1*(1/2) = 1, cut 1/2.
    # Left slab holds 2x2 copies of a, right slab 1x2 copies of b: 6 pieces,
    # forced by volumes 4*(1/8) + 2*(1/4) = 1.
    box = BoxSpec((1, 1))
    a, b = Brick((F(1, 4), F(1, 2))), Brick((F(1, 2), F(1, 2)))
    cert = SplitCertificate(axis=0, m=2, n=1, cut=F(1, 2))
    t = certificate_to_tiling(cert, box, a, b)
    assert len(t.placements) == 6
    assert sum(p.brick_index == 0 for p in t.placements) == 4
    assert sum(p.brick_index == 1 for p in t.placements) == 2
    assert verify_tiling_geometric(t).ok


def test_certificate_to_tiling_degenerate_uses_one_type():
    box = BoxSpec((1, 1))
    a, b = Brick((F(1, 3), F(1, 2))), Brick((F(1, 2), F(1, 2)))
    cert = SplitCertificate(axis=0, m=0, n=2, cut=F(0))
    t = certificate_to_tiling(cert, box, a, b)
    assert all(p.brick_index == 1 for p in t.placements)
    assert len(t.placements) == 4
    assert verify_tiling_geometric(t).ok


def test_certificate_to_tiling_skips_the_unused_brick_grid():
    # Brick b is unused and has 10**9 copies across axis 1: no offsets for it.
    cert = SplitCertificate(axis=0, m=1, n=0, cut=F(1))
    t = certificate_to_tiling(cert, BoxSpec((1, 1)), Brick((1, 1)), Brick((1, F(1, 10**9))))
    assert t.placements == (Placement(0, (F(0), F(0))),)


def test_certificate_to_tiling_three_dimensional_stack():
    box = BoxSpec((1, 1, 1))
    a, b = Brick((F(1, 2), 1, 1)), Brick((F(1, 4), 1, 1))
    cert = SplitCertificate(axis=0, m=1, n=2, cut=F(1, 2))
    t = certificate_to_tiling(cert, box, a, b)
    assert len(t.placements) == 3
    assert verify_tiling_geometric(t).ok


def test_validate_certificate_rejects_bad_data():
    box = BoxSpec((1, 1))
    a, b = Brick((F(1, 4), F(1, 2))), Brick((F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        validate_certificate(SplitCertificate(axis=0, m=1, n=1, cut=F(1, 4)), box, a, b)
    with pytest.raises(ValueError):
        validate_certificate(SplitCertificate(axis=0, m=2, n=1, cut=F(1, 4)), box, a, b)
    with pytest.raises(ValueError):
        validate_certificate(SplitCertificate(axis=5, m=2, n=1, cut=F(1, 2)), box, a, b)
    # cross-axis divisibility must hold for a brick that is actually used
    with pytest.raises(ValueError):
        validate_certificate(
            SplitCertificate(axis=0, m=2, n=1, cut=F(1, 2)),
            box,
            Brick((F(1, 4), F(2, 5))),
            b,
        )


# ---------------------------------------------------------------------------
# decide_two_brick
# ---------------------------------------------------------------------------


def test_decide_tileable_carries_certificate():
    out = decide_two_brick(BoxSpec((1, 1)), Brick((F(1, 4), F(1, 2))), Brick((F(1, 2), F(1, 2))))
    assert out.tileable and out.certificate is not None
    assert out.obstruction is None


def test_decide_untileable_carries_obstruction_witness():
    # The 10^200 and 10^400 boxes are beyond what a float witness check
    # survives (underflow, overflow); the exact check holds at any size.
    cases = [(BoxSpec((1, 1)), Brick((F(2, 5), F(1, 2))), Brick((F(1, 2), F(2, 5))), F(5, 2))]
    cases += [(BoxSpec((L, L)), Brick((3, 1)), Brick((1, 3)), F(L, 3)) for L in (10**200, 10**400)]
    for box, a, b, x in cases:
        out = decide_two_brick(box, a, b)
        assert not out.tileable
        assert out.obstruction == KeyObservationViolation(i=0, j=1)
        assert out.witness is not None
        assert out.witness.point == (x, x)


def test_decide_untileable_strips():
    out = decide_two_brick(BoxSpec((5, 5)), Brick((1, 4)), Brick((4, 1)))
    assert not out.tileable
    assert out.obstruction == KeyObservationViolation(i=1, j=0)


def test_decide_untileable_without_violation_reports_exhaustion():
    # Pairwise integrality holds (both bricks are only bad on axis 0) but no
    # cut exists: 2(m + n)/5 = 1 has no integer solutions.
    out = decide_two_brick(BoxSpec((1, 1)), Brick((F(2, 5), F(1, 2))), Brick((F(2, 5), F(1, 2))))
    assert not out.tileable
    assert out.obstruction is None
    assert out.reason is not None


def test_decide_one_dimension():
    # a single axis reduces to the nonnegative combination search
    box = BoxSpec((1,))
    a, b = Brick((F(3, 8),)), Brick((F(5, 8),))  # neither divides 1 alone
    out = decide_two_brick(box, a, b)
    assert out.tileable
    assert (out.certificate.m, out.certificate.n) == (1, 1)
    t = certificate_to_tiling(out.certificate, box, a, b)
    assert verify_tiling_geometric(t).ok
    oracle = exact_cover_tileable(box, [a, b])
    assert oracle.status == "sat"
    none = decide_two_brick(box, Brick((F(2, 5),)), Brick((F(2, 5),)))
    assert not none.tileable
    assert exact_cover_tileable(box, [Brick((F(2, 5),))]).status == "unsat"


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_decide_order_invariance_and_oracle_agreement(data):
    dims = st.sampled_from([F(1), F(3, 2), F(2)])
    box = BoxSpec((data.draw(dims), data.draw(dims)))
    a, b = data.draw(brick_pairs_for(box))
    forward = decide_two_brick(box, a, b)
    backward = decide_two_brick(box, b, a)
    assert forward.tileable == backward.tileable
    oracle = exact_cover_tileable(box, [a, b])
    assert oracle.status in ("sat", "unsat")
    assert forward.tileable == (oracle.status == "sat")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_certificates_are_sound(data):
    dims = st.sampled_from([F(1), F(3, 2), F(2)])
    box = BoxSpec((data.draw(dims), data.draw(dims)))
    a, b = data.draw(brick_pairs_for(box))
    cert = find_split(box, a, b)
    if cert is None:
        return
    t = certificate_to_tiling(cert, box, a, b)
    assert verify_tiling_geometric(t).ok


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_violation_implies_untileable(data):
    dims = st.sampled_from([F(1), F(3, 2), F(2)])
    box = BoxSpec((data.draw(dims), data.draw(dims)))
    a, b = data.draw(brick_pairs_for(box))
    if key_observation_holds(box, a, b) is not None:
        assert decide_two_brick(box, a, b).tileable is False


# ---------------------------------------------------------------------------
# Differential corpus against the axis-scan reference
# ---------------------------------------------------------------------------


def _divides(box, brick, i):
    return (box.dims[i] / brick.dims[i]).denominator == 1


def reference_find_split(box, a, b):
    """Axis scan: degenerate certificates first, then the first axis whose
    cross-sections both bricks divide and whose extent has a combination."""
    d = box.dim
    if all(_divides(box, a, i) for i in range(d)):
        return SplitCertificate(axis=0, m=int(box.dims[0] / a.dims[0]), n=0, cut=box.dims[0])
    if all(_divides(box, b, i) for i in range(d)):
        return SplitCertificate(axis=0, m=0, n=int(box.dims[0] / b.dims[0]), cut=F(0))
    for axis in range(d):
        if not all(_divides(box, a, i) and _divides(box, b, i) for i in range(d) if i != axis):
            continue
        pairs = oracle_axis_pairs(box.dims[axis], a.dims[axis], b.dims[axis])
        if pairs:
            m, n = pairs[0]
            return SplitCertificate(axis=axis, m=m, n=n, cut=m * a.dims[axis])
    return None


def reference_key_observation(box, a, b):
    d = box.dim
    pairs = sorted(
        (i, j)
        for i in range(d)
        for j in range(d)
        if i != j and not _divides(box, a, i) and not _divides(box, b, j)
    )
    return KeyObservationViolation(*pairs[0]) if pairs else None


def reference_decision(box, a, b):
    cert = reference_find_split(box, a, b)
    if cert is not None:
        return DecisionOutcome(tileable=True, certificate=cert)
    violation = reference_key_observation(box, a, b)
    if violation is not None:
        return DecisionOutcome(
            tileable=False,
            obstruction=violation,
            witness=key_observation_witness(box, a, b, violation.i, violation.j),
            reason="pairwise integrality condition violated",
        )
    return DecisionOutcome(tileable=False, reason="no axis admits a hyperplane split")


def reference_certificate_error(cert, box, a, b):
    """The first check a certificate fails, in a fixed order, or None."""
    d = box.dim
    if not 0 <= cert.axis < d:
        return "certificate axis out of range"
    if cert.m < 0 or cert.n < 0:
        return "layer counts must be nonnegative"
    axis = cert.axis
    if cert.m * a.dims[axis] + cert.n * b.dims[axis] != box.dims[axis]:
        return "layer counts do not fill the split axis"
    if cert.cut != cert.m * a.dims[axis]:
        return "cut position does not match m * a_axis"
    for i in range(d):
        if i == axis:
            continue
        if cert.m > 0 and not _divides(box, a, i):
            return f"brick a does not divide the box on cross axis {i}"
        if cert.n > 0 and not _divides(box, b, i):
            return f"brick b does not divide the box on cross axis {i}"
    return None


DIFF_SEED = 31
DIFF_CASES = 5000
DIFF_BOX_SIDES = (F(1), F(3, 2), F(2), F(5, 3), F(3))


def _extent(rng, L, divides):
    # L/k when the brick divides this axis, else L*p/q with q/p not an integer
    if divides:
        return L / rng.randint(1, 6)
    while True:
        u = F(rng.randint(1, 9), rng.randint(1, 7))
        if (1 / u).denominator != 1:
            return L * u


def _diff_case(rng):
    d = rng.randint(1, 4)
    box = BoxSpec(tuple(rng.choice(DIFF_BOX_SIDES) for _ in range(d)))
    k = rng.randrange(d)
    shape = rng.choice(["degenerate", "single-axis", "planted", "random"])
    if shape == "degenerate":
        bad_a, bad_b = set(), {i for i in range(d) if rng.random() < 0.5}
    elif shape == "random":
        bad_a = {i for i in range(d) if rng.random() < 0.5}
        bad_b = {i for i in range(d) if rng.random() < 0.5}
    else:
        bad_a = bad_b = {k}
    a = [_extent(rng, L, i not in bad_a) for i, L in enumerate(box.dims)]
    b = [_extent(rng, L, i not in bad_b) for i, L in enumerate(box.dims)]
    while shape == "planted":
        # m*a_k + n*b_k = L_k with m, n >= 1 and neither brick dividing L_k
        m, n = rng.randint(1, 2), rng.randint(1, 2)
        q = rng.randint(2, 6)
        u = F(rng.randint(1, q - 1), q * m)
        v = (1 - m * u) / n
        if (1 / u).denominator != 1 and (1 / v).denominator != 1:
            a[k], b[k] = box.dims[k] * u, box.dims[k] * v
            break
    if rng.random() < 0.5:
        a, b = b, a
    return box, Brick(tuple(a)), Brick(tuple(b))


def _random_certificate(rng, box, a, b):
    d = box.dim
    if rng.random() < 0.6:
        # fills its axis with the right cut: only the cross-axis checks can fail
        axis = rng.randrange(d)
        pairs = oracle_axis_pairs(box.dims[axis], a.dims[axis], b.dims[axis])
        if pairs:
            m, n = rng.choice(pairs)
            return SplitCertificate(axis=axis, m=m, n=n, cut=m * a.dims[axis])
    axis = rng.randint(-1, d)
    m, n = rng.randint(-1, 4), rng.randint(-1, 4)
    cut = F(rng.randint(0, 6), rng.randint(1, 4))
    return SplitCertificate(axis=axis, m=m, n=n, cut=cut)


def _category(outcome):
    if outcome.tileable:
        proper = outcome.certificate.m > 0 and outcome.certificate.n > 0
        return "proper" if proper else "degenerate"
    return "obstruction" if outcome.obstruction is not None else "exhausted"


def test_decider_matches_axis_scan_reference_on_seeded_corpus():
    rng = random.Random(DIFF_SEED)
    seen = Counter()
    errors = Counter()
    for _ in range(DIFF_CASES):
        box, a, b = _diff_case(rng)
        expected = reference_decision(box, a, b)
        assert decide_two_brick(box, a, b) == expected, (box, a, b)
        assert find_split(box, a, b) == expected.certificate, (box, a, b)
        assert key_observation_holds(box, a, b) == reference_key_observation(box, a, b)
        seen[box.dim, _category(expected)] += 1

        cert = _random_certificate(rng, box, a, b)
        want = reference_certificate_error(cert, box, a, b)
        try:
            validate_certificate(cert, box, a, b)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == want, (cert, box, a, b)
        errors[want.split(" on ")[0] if want else None] += 1
    for d in range(1, 5):
        for category in ("degenerate", "proper", "exhausted"):
            assert seen[d, category] >= 20, (d, category, seen)
        if d >= 2:
            assert seen[d, "obstruction"] >= 20, (d, seen)
    assert errors["brick a does not divide the box"] >= 50, errors
    assert errors["brick b does not divide the box"] >= 50, errors
    assert errors[None] >= 50, errors
