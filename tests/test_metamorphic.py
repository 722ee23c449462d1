"""Metamorphic relations of the two-brick decision and of the oracle.

Each relation maps an instance to another whose `decide_two_brick` output
is known exactly from the first one's. They run on the planted corpus of
the `decide` digest class (`tests/digests.py`: a proper cut, a single
brick, an obstruction and an exhausted split search, d = 1 to 4):

* permuting the axes keeps the verdict and the reason; a proper cut moves
  to the permuted axis, a single brick still fills the box, and the
  witness is the one on the least violating pair of the permuted axes;
* scaling every extent by p/q scales the cut by p/q and leaves the rest of
  `decision_to_obj` unchanged, the unit-box witness point included;
* swapping the two bricks keeps the verdict and the reason.

Non-integral ratios are found here with Fraction division, not with the
decider's integer remainders.

Two more relate `exact_cover_tileable` runs on the corpus of the `oracle`
digest class (the `search` catalogue, the oracle cases of
`tests/test_geometry.py` and random instances of 2 to 4 bricks, d = 1 to 3):

* scaling every extent by p/q leaves the grid's cell counts alone, so it
  keeps the status, `nodes` and `pruned_by`, and the tiling's placements
  in order, each offset scaled by p/q;
* permuting the axes keeps the verdict wherever neither run times out.
"""

import random
from collections import Counter
from fractions import Fraction as F
from functools import cache
from itertools import permutations

from brickbox import (
    BoxSpec,
    Brick,
    SplitCertificate,
    decide_two_brick,
    exact_cover_tileable,
    verify_tiling_geometric,
)
from brickbox.serialization import decision_to_obj, format_rational, parse_rational

import digests

SEED = 20261031
FACTORS = (3, 7, 1000003, 10**9 + 7, 10**400 + 1)
CASES = list(digests.decide_cases())
ORACLE_CASES = list(digests.oracle_cases())


@cache
def _decisions():
    # Each corpus case's decision, taken once for every relation.
    return [decide_two_brick(box, a, b) for _, box, a, b in CASES]


def _bad(box, brick):
    return [i for i, (L, c) in enumerate(zip(box.dims, brick.dims)) if (L / c).denominator != 1]


def _permuted(dims, perm):
    # Axis x of the result is axis perm[x] of `dims`.
    return tuple(dims[p] for p in perm)


def _check_permuted(box, a, b, out, perm, label="") -> str:
    # The decision on the axes in the order `perm`, against `out`, the
    # decision in the given order; returns which kind of outcome it was.
    d = box.dim
    at = {old: new for new, old in enumerate(perm)}
    pbox, pa, pb = (type(s)(_permuted(s.dims, perm)) for s in (box, a, b))
    new = decide_two_brick(pbox, pa, pb)
    assert (new.tileable, new.reason) == (out.tileable, out.reason), (label, perm)
    if out.tileable:
        c = out.certificate
        if c.m and c.n:
            want = SplitCertificate(at[c.axis], c.m, c.n, c.cut)
        elif c.m:  # brick a fills the box, named on axis 0
            want = SplitCertificate(0, int(pbox.dims[0] / pa.dims[0]), 0, pbox.dims[0])
        else:
            want = SplitCertificate(0, 0, int(pbox.dims[0] / pb.dims[0]), F(0))
        assert new.certificate == want, (label, perm)
        return "proper cut" if c.m and c.n else "single brick"
    if out.witness is None:
        return "exhausted"
    # The witness sits on the least violating pair of the permuted axes.
    pairs = [(i, j) for i in _bad(box, a) for j in _bad(box, b) if i != j]
    assert new.witness.pair == min((at[i], at[j]) for i, j in pairs), (label, perm)
    i, j = (perm[x] for x in new.witness.pair)
    point = [F(0)] * d
    point[i], point[j] = box.dims[i] / a.dims[i], box.dims[j] / b.dims[j]
    assert new.witness.point == _permuted(point, perm), (label, perm)
    if (i, j) != out.witness.pair:
        return "other pair"
    assert new.witness.point == _permuted(out.witness.point, perm), (label, perm)
    return "same pair"


def test_permuting_the_axes_permutes_the_decision():
    # One seeded order per corpus case, other than the given one for d > 1.
    rng = random.Random(SEED)
    seen = Counter()
    for (label, box, a, b), out in zip(CASES, _decisions()):
        d = box.dim
        perm = tuple(range(d))
        while d > 1 and perm == tuple(range(d)):
            perm = tuple(rng.sample(range(d), d))
        seen[_check_permuted(box, a, b, out, perm, label)] += 1
    assert set(seen) == {"proper cut", "single brick", "same pair", "exhausted"}, seen


def test_every_axis_order_of_a_four_dimensional_obstruction():
    # Brick a fails to divide the box on axes 0, 1 and 2, brick b on axes 1,
    # 2 and 3: seven violating pairs, and the least one moves with the order.
    box, a, b = BoxSpec((6, 6, 6, 6)), Brick((4, 4, 4, 3)), Brick((3, 4, 4, 4))
    out = decide_two_brick(box, a, b)
    seen = Counter(_check_permuted(box, a, b, out, perm) for perm in permutations(range(4)))
    assert seen == {"same pair": 2, "other pair": 22}, seen


def test_scaling_every_extent_scales_the_cut_alone():
    rng = random.Random(SEED + 1)
    for (label, box, a, b), out in zip(CASES, _decisions()):
        s = F(rng.choice(FACTORS), rng.choice(FACTORS))
        want = decision_to_obj(out)
        if want["certificate"] is not None:
            cut = want["certificate"]["cut"]
            want["certificate"]["cut"] = format_rational(s * parse_rational(cut))
        scaled = (type(x)([s * v for v in x.dims]) for x in (box, a, b))
        assert decision_to_obj(decide_two_brick(*scaled)) == want, (label, s)


def test_swapping_the_bricks_keeps_the_verdict():
    for (label, box, a, b), out in zip(CASES, _decisions()):
        new = decide_two_brick(box, b, a)
        assert (new.tileable, new.reason) == (out.tileable, out.reason), label


@cache
def _oracle_outcomes():
    # Each oracle corpus case's outcome, taken once for both relations.
    return [exact_cover_tileable(box, bricks, node_budget=n) for _, box, bricks, n in ORACLE_CASES]


def test_scaling_every_extent_scales_the_oracle_tiling():
    rng = random.Random(SEED + 2)
    seen = Counter()
    for (label, box, bricks, budget), out in zip(ORACLE_CASES, _oracle_outcomes()):
        s = F(rng.choice(FACTORS), rng.choice(FACTORS))
        new = exact_cover_tileable(
            BoxSpec([s * v for v in box.dims]),
            [Brick([s * v for v in b.dims]) for b in bricks],
            node_budget=budget,
        )
        assert (new.status, new.nodes, new.pruned_by) == (out.status, out.nodes, out.pruned_by), (
            label, s
        )
        assert (new.tiling is None) == (out.tiling is None), (label, s)
        if out.tiling is not None:
            want = [(p.brick_index, tuple(s * o for o in p.offset)) for p in out.tiling.placements]
            got = [(p.brick_index, p.offset) for p in new.tiling.placements]
            assert got == want, (label, s)
        seen[out.status if out.pruned_by is None else "pruned"] += 1
    assert min(seen[k] for k in ("sat", "unsat", "pruned")) >= 5 and seen["timeout"], seen


def test_permuting_the_axes_keeps_the_oracle_verdict():
    # One seeded order per corpus case of d > 1, other than the given one.
    rng = random.Random(SEED + 3)
    seen = Counter()
    for (label, box, bricks, budget), out in zip(ORACLE_CASES, _oracle_outcomes()):
        d = box.dim
        if d == 1:
            continue
        perm = tuple(range(d))
        while perm == tuple(range(d)):
            perm = tuple(rng.sample(range(d), d))
        new = exact_cover_tileable(
            BoxSpec(_permuted(box.dims, perm)),
            [Brick(_permuted(b.dims, perm)) for b in bricks],
            node_budget=budget,
        )
        if "timeout" in (out.status, new.status):
            seen["timeout"] += 1
            continue
        assert new.status == out.status, (label, perm)
        if new.tiling is not None:
            assert verify_tiling_geometric(new.tiling).ok, (label, perm)
        seen[out.status, new.nodes == out.nodes] += 1
    # Both verdicts, each reached with the same and with a different node count.
    assert min(seen[v, same] for v in ("sat", "unsat") for same in (True, False)) >= 5, seen
