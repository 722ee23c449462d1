"""Seeded workload corpora with planted answers.

Everything here is plain Python over `fractions.Fraction`; nothing imports
brickbox, so the expected answers do not come from the code under test.

An instance is an `Item`: a box and brick extents, the planted answer
(`expect`: True tileable, False not, None when the workload cross-checks two
deciders against each other), the construction it came from (`kind`) and a
cost proxy used only to order the corpus (`size`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

# Shared by every `search` instance; a budget hit is "no verdict", never wrong.
SEARCH_NODE_BUDGET = 10_000

# The acceptance generator's default seed (tests/test_acceptance.py).
INSTANCE_SEED = 20240917
ACCEPTANCE_SIDES = (Fraction(1), Fraction(3, 2), Fraction(2))

DECIDE_MAX_RATIO = 10_000
CERTIFY_PLACEMENTS = (20, 200)
MUTATED_SHARE = 0.3
MUTATIONS = ("drop", "duplicate", "shift")
SPLIT_REPORT_R = range(3, 9)

Dims = tuple[Fraction, ...]


@dataclass
class Item:
    box: Dims
    bricks: tuple[Dims, ...]
    expect: bool | None
    kind: str
    size: float = 0.0
    extra: dict = field(default_factory=dict)


def _unit(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def _coprime(rng: random.Random, lo: int, hi: int) -> tuple[int, int]:
    while True:
        a, b = rng.randint(lo, hi), rng.randint(lo, hi)
        if a != b and math.gcd(a, b) == 1:
            return a, b


def _log_strata(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One log-uniform draw per equal stratum, so every corpus has the same
    spread of sizes and heavy tails do not swing with the seed."""
    return [lo * (hi / lo) ** ((k + rng.random()) / count) for k in range(count)]


def _shared_cross(rng: random.Random, counts_a, counts_b):
    # Cross-axis extents that both bricks divide: L = ka * a_i = kb * b_i.
    box, a, b = [], [], []
    for ka, kb in zip(counts_a, counts_b):
        length = _unit(rng) * rng.randint(1, 4)
        box.append(length)
        a.append(length / ka)
        b.append(length / kb)
    return box, a, b


def _assemble(axis: int, split: tuple, cross: tuple) -> tuple[Dims, Dims, Dims]:
    """Insert the split-axis extents (L, a, b) at `axis` among the cross axes."""
    out = []
    for along, others in zip(split, cross):
        dims = list(others)
        dims.insert(axis, along)
        out.append(tuple(dims))
    return out[0], out[1], out[2]


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------


def _decide_sat(rng: random.Random, ratio: float) -> Item:
    # L = m*a + n*b on the split axis with a = A*u, b = B*u coprime and
    # A ∤ n, B ∤ m, so neither brick fills the box alone.
    d = rng.choice((2, 3))
    axis = rng.randrange(d)
    A, B = _coprime(rng, 2, 9)
    u = _unit(rng)
    n = rng.randint(1, A - 1)
    m = max(1, round(ratio - n * B / A))
    if m % B == 0:
        m += 1
    cross = _shared_cross(
        rng, [rng.randint(1, 6) for _ in range(d - 1)], [rng.randint(1, 6) for _ in range(d - 1)]
    )
    box, a, b = _assemble(axis, ((m * A + n * B) * u, A * u, B * u), cross)
    return Item(box, (a, b), True, "sat", ratio)


def _decide_exhausted(rng: random.Random, ratio: float) -> Item:
    # Split axis in a gap of m*a + n*b = L: either a common factor g of A and
    # B that does not divide L/u, or Sylvester's largest gap A*B - A - B.
    # Both bricks divide every cross axis, so pairwise integrality holds.
    d = rng.choice((2, 3))
    axis = rng.randrange(d)
    if rng.random() < 0.5:
        g = rng.choice((2, 3, 5))
        A1, B1 = _coprime(rng, 1, 4)
        A, B = g * A1, g * B1
        K = max(1, round(ratio * A))
        if K % g == 0:
            K += 1
    else:
        A = rng.randint(2, 5)
        B = max(A + 1, round((ratio + 1) * A / (A - 1)))
        while math.gcd(A, B) != 1:
            B += 1
        K = A * B - A - B
    u = _unit(rng)
    counts = [rng.randint(1, 6) for _ in range(d - 1)]
    cross = _shared_cross(rng, counts, [rng.randint(1, 6) for _ in range(d - 1)])
    box, a, b = _assemble(axis, (K * u, A * u, B * u), cross)
    return Item(box, (a, b), False, "exhausted", ratio)


def _non_integral(rng: random.Random, ratio: float) -> Fraction:
    q = rng.randint(2, 7)
    p = max(q + 1, round(ratio * q))
    if p % q == 0:
        p += 1
    return Fraction(p, q)


def _decide_obstruction(rng: random.Random, ratio: float) -> Item:
    # Axes i != j with L_i/a_i and L_j/b_j both non-integral.
    d = rng.choice((2, 3))
    i, j = rng.sample(range(d), 2)
    box = [_unit(rng) * rng.randint(1, 4) for _ in range(d)]
    a = [box[k] / rng.randint(1, 6) for k in range(d)]
    b = [box[k] / rng.randint(1, 6) for k in range(d)]
    a[i] = box[i] / _non_integral(rng, ratio)
    b[j] = box[j] / _non_integral(rng, rng.uniform(1.0, 6.0))
    return Item(tuple(box), (tuple(a), tuple(b)), False, "obstruction", ratio)


def decide_corpus(seed: int, count: int) -> list[Item]:
    rng = random.Random(seed)
    per = max(1, count // 3)
    items = []
    for make in (_decide_sat, _decide_obstruction, _decide_exhausted):
        items += [make(rng, r) for r in _log_strata(rng, per, 2.0, DECIDE_MAX_RATIO)]
    return items


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _certify_sat(rng: random.Random, target: float, d: int, axis: int, layers: int) -> Item:
    # m + n = layers along the split axis, with m < B and n < A: (m, n) is
    # then the smallest-m split, so the certificate tiling has
    # m*prod(counts_a) + n*prod(counts_b) placements, within n*side of target.
    m = rng.randint(1, layers - 1)
    n = layers - m
    while True:
        A, B = rng.randint(n + 1, n + 6), rng.randint(m + 1, m + 6)
        if A != B and math.gcd(A, B) == 1:
            break
    side = max(1, round((target / layers) ** (1 / (d - 1))))
    counts_a = [side] * (d - 1)
    rest = math.prod(counts_a[1:])
    counts_b = counts_a[:-1] + [max(1, round((target - m * side ** (d - 1)) / (n * rest)))]
    u = _unit(rng)
    cross = _shared_cross(rng, counts_a, counts_b)
    box, a, b = _assemble(axis, ((m * A + n * B) * u, A * u, B * u), cross)
    placements = m * math.prod(counts_a) + n * math.prod(counts_b)
    return Item(box, (a, b), True, "sat", placements, {"mutation": None})


def certify_corpus(seed: int, count: int) -> list[Item]:
    # The verifier's cost grows with placements squared and with how the
    # grid is laid out, and the largest instances dominate the run. So the
    # layout (dimension, split axis, layers) and the mutated copies follow
    # the size ranking in an even, fixed pattern: every corpus gets the same
    # mix among its largest instances, and only the extents vary.
    rng = random.Random(seed)
    offset = rng.random()
    items = []
    for k, target in enumerate(_log_strata(rng, count, *CERTIFY_PLACEMENTS)):
        d = 3 if k % 3 == 1 else 2
        item = _certify_sat(rng, target, d, (k // 3) % d, 2 + (k // 3) % 4)
        j = math.floor(k * MUTATED_SHARE + 0.5)
        if math.floor((k + 1) * MUTATED_SHARE + 0.5) > j:
            # Low-discrepancy positions: which placement is mutated, spread evenly.
            where = (offset + j * 0.6180339887) % 1.0
            item.extra["mutation"] = (MUTATIONS[j % len(MUTATIONS)], where, j % d)
        items.append(item)
    return items


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

# An n x n square is tiled by {p x q, q x p} (gcd(p, q) = 1) iff p | n and
# q | n (de Bruijn 1969, Klarner 1969); when p*q does not divide n*n the
# area alone rules it out.
BAR_SQUARES = (
    # tileable
    (8, 1, 4), (12, 1, 4), (9, 1, 3), (12, 1, 3), (10, 1, 5), (6, 2, 3),
    (12, 2, 3), (10, 2, 5), (12, 3, 4),
    # area divisible, yet not tileable: only the search says so
    (6, 1, 4), (10, 1, 4), (14, 1, 4), (6, 3, 4), (18, 3, 4), (12, 1, 8), (12, 1, 9),
    # area not divisible
    (5, 1, 2), (7, 1, 2), (9, 1, 4), (10, 2, 3), (14, 3, 4), (13, 1, 4), (7, 2, 3), (11, 1, 3),
)
PINWHEEL_R = range(4, 9)


def _bar_square(n: int, p: int, q: int) -> Item:
    if (n * n) % (p * q):
        kind = "area"
    else:
        kind = "sat" if n % p == 0 and n % q == 0 else "search"
    box = (Fraction(n), Fraction(n))
    bricks = ((Fraction(p), Fraction(q)), (Fraction(q), Fraction(p)))
    return Item(box, bricks, kind == "sat", kind, float(n * n))


def _pinwheel(R: int, d: int) -> Item:
    # The (R+1) x (R+1) pinwheel of 1 x R, R x 1, (R-1) x (R-1): tileable by
    # construction, lifted to d = 3 with a trailing extent of 1.
    tail = (Fraction(1),) * (d - 2)
    box = (Fraction(R + 1), Fraction(R + 1)) + tail
    bricks = tuple(
        (Fraction(x), Fraction(y)) + tail for x, y in ((1, R), (R, 1), (R - 1, R - 1))
    )
    return Item(box, bricks, True, f"pinwheel-d{d}", float((R + 1) ** 2))


SEARCH_BASE = [_bar_square(*c) for c in BAR_SQUARES] + [
    _pinwheel(R, d) for d in (2, 3) for R in PINWHEEL_R
]


def search_corpus(seed: int, count: int) -> list[Item]:
    """Copies of the fixed catalogue, each instance scaled by its own seeded
    rational factor; scaling changes every extent but not the search."""
    rng = random.Random(seed)
    items = []
    while len(items) < count:
        for base in SEARCH_BASE[: count - len(items)]:
            c = Fraction(rng.randint(1, 12), rng.randint(1, 12))
            items.append(
                Item(
                    tuple(x * c for x in base.box),
                    tuple(tuple(x * c for x in b) for b in base.bricks),
                    base.expect,
                    base.kind,
                    base.size,
                )
            )
    return items


# ---------------------------------------------------------------------------
# crosscheck
# ---------------------------------------------------------------------------


def _rational_gcd(x: Fraction, y: Fraction) -> Fraction:
    return Fraction(
        math.gcd(x.numerator * y.denominator, y.numerator * x.denominator),
        x.denominator * y.denominator,
    )


def acceptance_instances(seed: int, count: int) -> list[Item]:
    """The acceptance suite's generator: d = 2 boxes with sides in
    {1, 3/2, 2}, brick extents with denominator <= 4, grid at most 24 cells
    per axis. Same draws in the same order, so seed INSTANCE_SEED gives the
    acceptance corpus."""
    rng = random.Random(seed)
    items = []
    while len(items) < count:
        box = (rng.choice(ACCEPTANCE_SIDES), rng.choice(ACCEPTANCE_SIDES))

        def side(length: Fraction) -> Fraction:
            q = rng.randint(1, 4)
            return Fraction(rng.randint(1, int(length * q)), q)

        a = (side(box[0]), side(box[1]))
        b = (side(box[0]), side(box[1]))
        cells = [
            box[ax] / _rational_gcd(_rational_gcd(box[ax], a[ax]), b[ax]) for ax in range(2)
        ]
        if any(c > 24 for c in cells):
            continue
        items.append(Item(box, (a, b), None, "pair", float(cells[0] * cells[1])))
    return items


def split_report_item(R: int) -> Item:
    # R = 3 splits (each 4 x 2 half is tiled by the square); R >= 4 is the
    # pinwheel family, where no cut admits proper-subset tilings.
    box = (Fraction(R + 1), Fraction(R + 1))
    bricks = tuple((Fraction(x), Fraction(y)) for x, y in ((1, R), (R, 1), (R - 1, R - 1)))
    return Item(box, bricks, R < 4, "split-report", float(R), {"R": R})


def crosscheck_corpus(seed: int, count: int) -> list[Item]:
    # The split reports are spread evenly through the pass.
    items = acceptance_instances(seed, count)
    stride = max(1, len(items) // len(SPLIT_REPORT_R))
    for k in reversed(range(len(SPLIT_REPORT_R))):
        items.insert(min(len(items), k * stride + stride // 2), split_report_item(SPLIT_REPORT_R[k]))
    return items


# ---------------------------------------------------------------------------


def balanced_order(items: list[Item]) -> list[Item]:
    """Visit items so that every prefix spans the whole size range.

    Items are ranked by size and visited in bit-reversed rank order, so a
    run cut off part-way through a pass still sees small and large
    instances in proportion.
    """
    ranked = sorted(items, key=lambda it: it.size)
    bits = max(1, (len(ranked) - 1).bit_length())

    def reversed_bits(k: int) -> int:
        return int(format(k, f"0{bits}b")[::-1], 2)

    return [ranked[k] for k in sorted(range(len(ranked)), key=reversed_bits)]


CORPORA = {
    "decide": (decide_corpus, 300),
    "certify": (certify_corpus, 200),
    "search": (search_corpus, 3 * len(SEARCH_BASE)),
    "crosscheck": (crosscheck_corpus, 1500),
}


def make_corpus(workload: str, seed: int, count: int | None = None) -> list[Item]:
    make, default = CORPORA[workload]
    items = make(seed, count or default)
    return items if workload == "crosscheck" else balanced_order(items)
