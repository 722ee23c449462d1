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
`tests/test_geometry.py` and random instances of 2 to 4 bricks, d = 1 to 3),
plus one box that the oracle's budget alone stops:

* scaling every extent by p/q leaves the grid's cell counts alone, so it
  keeps the status, `nodes` and `pruned_by`, and the tiling's placements
  in order, each offset scaled by p/q;
* permuting the axes keeps the verdict wherever neither run times out.

Three relate `verify_tiling_geometric` runs on the tilings of the `verify`
digest class (certificate, oracle, pinwheel and lifted tilings, each with
its three mutants):

* permuting the axes keeps the status and the witness;
* scaling every extent and offset by p/q keeps the status and the overlap
  pair, and scales both volumes of a volume mismatch by (p/q)**d;
* reflecting one axis (x -> L - x - c) keeps the status and the witness:
  the pairs of placements that meet, and the volumes, do not change.
"""

import random
from collections import Counter
from fractions import Fraction as F
from functools import cache
from itertools import permutations

from brickbox import (
    BoxSpec,
    Brick,
    Placements,
    SplitCertificate,
    Tiling,
    VerifyOutcome,
    decide_two_brick,
    exact_cover_tileable,
    verify_tiling_geometric,
)
from brickbox.serialization import decision_to_obj, format_rational, parse_rational

import digests

SEED = 20261031
FACTORS = (3, 7, 1000003, 10**9 + 7, 10**400 + 1)
CASES = list(digests.decide_cases())
# The oracle corpus, and one box that neither the short search nor the
# frontier automaton settles, so that a timeout is related too.
ORACLE_CASES = [
    *digests.oracle_cases(),
    ("open 13x13", BoxSpec((13, 13)), [Brick((4, 2)), Brick((3, 1)), Brick((1, 4))], 10_000),
]
VERIFY_CASES = list(digests.verify_cases())


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


@cache
def _verify_outcomes():
    # Each verify corpus tiling's outcome, taken once for every relation.
    return [verify_tiling_geometric(t) for _, t in VERIFY_CASES]


def _rebuilt(t, box, bricks, axes):
    # `t`'s placements, in order and of the same types, on new extents and
    # offset columns.
    return Tiling(
        bricks=tuple(map(Brick, bricks)),
        placements=Placements(t.placements.kinds, axes),
        box=BoxSpec(box),
    )


def _verify_relation(seed, transform):
    # Each corpus tiling's outcome after `transform(rng, tiling)`, which
    # returns the new tiling and the outcome it must have given the old one.
    rng = random.Random(seed)
    seen = Counter()
    for (label, t), out in zip(VERIFY_CASES, _verify_outcomes()):
        new, want = transform(rng, t, out)
        assert verify_tiling_geometric(new) == want, label
        seen[out.status] += 1
    assert min(seen[s] for s in ("ok", "overlap", "volume-mismatch")) >= 50, seen


def test_permuting_the_axes_keeps_the_verify_outcome():
    # One seeded order per tiling, other than the given one for d > 1.
    def permute(rng, t, out):
        d = t.box.dim
        perm = tuple(range(d))
        while d > 1 and perm == tuple(range(d)):
            perm = tuple(rng.sample(range(d), d))
        bricks = [_permuted(b.dims, perm) for b in t.bricks]
        axes = _permuted(t.placements.axes, perm)
        return _rebuilt(t, _permuted(t.box.dims, perm), bricks, axes), out

    _verify_relation(SEED + 4, permute)


def test_scaling_every_extent_scales_the_volume_witness_alone():
    def scale(rng, t, out):
        s = F(rng.choice(FACTORS), rng.choice(FACTORS))
        axes = [([s * v for v in values], index) for values, index in t.placements.axes]
        bricks = [[s * c for c in b.dims] for b in t.bricks]
        new = _rebuilt(t, [s * L for L in t.box.dims], bricks, axes)
        if out.status == "volume-mismatch":
            out = VerifyOutcome(out.status, tuple(v * s**t.box.dim for v in out.witness))
        return new, out

    _verify_relation(SEED + 5, scale)


def test_reflecting_an_axis_keeps_the_verify_outcome():
    # One seeded axis per tiling; each placement's offset o there becomes
    # L - o - c, given per placement and merged by the constructor.
    def reflect(rng, t, out):
        ax = rng.randrange(t.box.dim)
        axes = list(t.placements.axes)
        values, index = axes[ax]
        L = t.box.dims[ax]
        kinds = t.placements.kinds.tolist()
        ends = [L - values[i] - t.bricks[k].dims[ax] for k, i in zip(kinds, index.tolist())]
        axes[ax] = (ends, range(len(ends)))
        return _rebuilt(t, t.box.dims, [b.dims for b in t.bricks], axes), out

    _verify_relation(SEED + 6, reflect)
