"""Frequency-side verification of box tilings.

A tiling identity (indicator functions of the placed bricks summing to the
indicator of the box) transforms into an identity of functions of a
frequency vector xi: for each brick type, the sum of translation phases
times the brick transform, totalled over types, equals the box transform.
Sampling the residual of that identity gives an independent numeric check
of any tiling.

Conventions used throughout:

* Transforms use the kernel exp(-2*pi*i * xi.x). Under it the transform of
  the indicator of a box centered at the origin with extents c is
  prod_j sin(pi * c_j * xi_j) / (pi * xi_j), where the xi_j = 0 factor is
  c_j (removable singularity).
* Phase sums use exp(+2*pi*i * lambda.xi). The box transforms are real and
  even, so the residual magnitude is identical under either sign choice;
  this was checked against known-valid tilings when the convention was
  frozen, and a test asserts the full complex identity vanishes.
* Origin-anchored placements are converted internally: the phase offset of
  a placement is its center minus half the box extents, so the box sits
  centered at the origin.

Floats (double precision) are used only to evaluate transforms and
sampled residuals; residual checks use 1e-9. Zero-set membership is an
exact integrality test on rational frequencies, one integer remainder of
numerators by denominators with no Fraction built, so the key-observation
witness is checked exactly and holds for extents of any size.

`residual_sample` reads each brick type's distinct centers off the
tiling's per-axis integer frame (see `geometry`), as exact ints n in units
of 1/(2D): the type's (brick type, distinct offset) pairs run together
there by increasing offset, and each gives one center minus half the box,
low + high - L. A placement's row is its rank among the pairs less that of
the type's first pair. Every value the sampler needs on axis j is then a
power h_n = exp(i*n*theta) of one angle theta = pi*xi_j/D at each point:
the phase of a center n, and the transform factor of an extent c,
sin(pi*c*xi_j/D)/(pi*xi_j), which is the imaginary part of h_c over
pi*xi_j (c/D itself at xi_j = 0). So per chunk of points it builds one
bank of such rows, a row per axis and int, with a single np.exp: on each
axis the box extent L, each used brick extent c, and each table head and
gap below that no other row gives. A row n = 2c is h_c**2 (a certificate
tiling's gap between bricks of extent c), and a row n = c - L is h_c *
conj(h_L) (the first center of a type whose least offset is 0); every
other row is a direct exponential. Each transform factor is computed once
per distinct extent.

Per brick type, it factors every phase into one factor per axis, read
from a table over that axis's distinct centers, a row per center and a
column per point. The rows go in blocks of at most 32: a block's first row
is its center's bank row and each later row is the row before it times
the bank row of the gap between their centers. So n centers in a
progression read ceil(n/32) + 1 bank rows per point, not n; when the gaps
are too varied to pay, every row is its center's own bank row. Each entry
is a product of at most two exponentials times at most 31 gap factors, so
its angle error is of the order of a direct exponential's.

A brick type whose placements have R_j distinct centers on axis j has its
centers on a lattice of prod_j R_j points. Its phase sum is a base count
times the whole lattice's sum, which is the product over axes of each
table's sum over its R_j rows, plus its exceptions: the lattice points
whose count of placements differs from the base, each the product of one
gathered table factor per axis times that difference. The base is 1 when
the lattice has at most twice as many points as the type has placements,
n, and fewer than n of them differ from a count of 1 (a certificate or
1-d tiling has no exceptions; a dropped or duplicated placement is one,
of weight -1 or +1). Else it is 0 and the exceptions are the n
placements, so time and memory grow with n, not with the lattice (n
centers on a diagonal span n**d points). No sum calls BLAS, so the output
does not depend on the BLAS thread count. The points go in chunks so that
the arrays alive at once (the bank and the transform factors, plus the
tables, padded rows included, of the one type being summed, and two
blocks of its exceptions, each at most as many rows as the tables) hold
at most 2**16 entries, or one point's worth when that is more: memory
stays bounded however many placements the tiling has. The products and sums
round differently from a single exp(2*pi*i * xi.lambda) per placement, so
a residual's noise digits (around 1e-14 on small tilings), and so which
point witnesses a noise-level maximum, may differ from that formula.

`random_frequencies` draws the coordinates of all points as one stream,
point by point and axis by axis, and returns them as one read-only float
array of shape (count, dim), a row per point, which `residual_sample`
reads as is. The stream is read in blocks of 2**16 coordinates, 64 random
bits each, so memory stays bounded at any count. Each coordinate is bit
for bit what `random.Random(seed).uniform(-bound, bound)` returns at that
position of the stream.
"""

from __future__ import annotations

import math
import operator
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from typing import Iterable, Sequence

import numpy as np

from .geometry import BoxSpec, Brick, Tiling, frac

#: A frequency vector of float coordinates.
Frequency = Sequence[float]

# Most entries (1 MB of complex128) of the arrays that residual_sample holds
# at once, banks and padded phase-table rows included.
_BLOCK_ENTRIES = 2**16

# Coordinates that `random_frequencies` draws at once, 64 random bits each.
_DRAW_BLOCK = 2**16

# Most rows of a phase-table block: its head's bank row, then running
# products of gap rows (see `_phase_table`).
_CHAIN = 32


@dataclass(frozen=True)
class SpectralReport:
    """Summary of sampled residuals of the tiling identity.

    witness is the sample point attaining the maximum residual; seed records
    how random samples were drawn (None for caller-supplied points).
    """

    samples: int
    max_abs_residual: float
    witness: tuple | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.samples <= 0:
            raise ValueError("a report needs at least one sample")
        if self.max_abs_residual < 0:
            raise ValueError("residual magnitudes are nonnegative")


@dataclass(frozen=True)
class KeyObservationWitness:
    """A frequency point exhibiting why a pair of axes blocks any tiling.

    At `point` both brick transforms vanish while the box transform does
    not, so no translation phases can make the two sides agree there. The
    pair is 0-based (i indexes the first brick's bad axis, j the second's);
    coordinates are exact rationals in the unit-box normalization.
    """

    pair: tuple[int, int]
    point: tuple[Fraction, ...]


def in_zero_set_Z(xi: Sequence, box: BoxSpec) -> bool:
    """Membership in the zero set of the box transform.

    True iff some coordinate xi_j is a nonzero integer multiple of 1/L_j,
    one integer remainder each. The test is exact, so coordinates must be
    rationals; a float reached in the scan raises TypeError.
    """
    if len(xi) != box.dim:
        raise ValueError("frequency and box have different dimensions")
    return _hits_zero_set(map(frac, xi), box.dims, repeat(1))


def _hits_zero_set(xi: Iterable[Fraction], extents: Iterable, scales: Iterable) -> bool:
    # Some x * c/s is a nonzero integer, c/s being x's axis's extent over its scale.
    for x, c, s in zip(xi, extents, scales):
        p = x.numerator * c.numerator * s.denominator
        if p and p % (x.denominator * c.denominator * s.numerator) == 0:
            return True
    return False


def random_frequencies(dim: int, count: int, seed: int, bound: float = 10.0) -> np.ndarray:
    """`count` frequency vectors drawn uniformly from [-bound, bound]^dim.

    Returns a read-only float64 array of shape (count, dim), a row per
    vector. The bound must be finite and positive: bound 0 samples only the
    origin, where the residual checks volume alone. The dimension must be
    at least 1 and the count at least 0.
    """
    if not (math.isfinite(bound) and bound > 0):
        raise ValueError(f"frequency bound must be finite and positive: {bound}")
    if dim < 1:
        raise ValueError(f"frequency dimension must be at least 1: {dim}")
    if count < 0:
        raise ValueError(f"frequency count must be nonnegative: {count}")
    # Random.random() is (a * 2**26 + b) / 2**53, for a and b the top 27
    # and 26 bits of the generator's next two 32-bit words, and
    # getrandbits(64 * n) packs its next 2n words, the first lowest: so
    # each block reads n draws of the same stream at once.
    rng = random.Random(seed)
    flat = np.empty(dim * count)
    for first in range(0, len(flat), _DRAW_BLOCK):
        n = min(_DRAW_BLOCK, len(flat) - first)
        bits = rng.getrandbits(64 * n).to_bytes(8 * n, "little")
        words = np.frombuffer(bits, dtype="<u4").astype(np.uint64)
        flat[first : first + n] = words[0::2] >> 5 << 26 | words[1::2] >> 6
    flat *= 2.0**-53
    # Random.uniform(a, b) is a + (b - a) * random(): the same two IEEE
    # operations over the whole stream give the same values. A bound near
    # the double maximum makes b - a infinite, so a draw reads inf (or nan
    # for a zero draw) in both, without a warning.
    lo, width = float(-bound), float(2 * bound)  # b - a, exactly
    with np.errstate(over="ignore", invalid="ignore"):
        points = (lo + width * flat).reshape(count, dim)
    points.flags.writeable = False
    return points


def _points_array(points: Sequence[Frequency] | np.ndarray, d: int) -> np.ndarray:
    # The points as rows of doubles. A real (n, d) array is read as is; any
    # other sequence in one pass once every point is known to have d
    # coordinates (np.asarray would probe each one's shape).
    if isinstance(points, np.ndarray) and points.ndim == 2 and points.dtype.kind in "fiu":
        if points.shape[1] != d:
            raise ValueError("sample points and box have different dimensions")
        return points.astype(float, copy=False)
    try:
        widths = set(map(len, points))
    except TypeError:
        widths = set()
    if widths != {d}:
        raise ValueError("sample points and box have different dimensions")
    return np.fromiter(chain.from_iterable(points), float, len(points) * d).reshape(-1, d)


def _table_plan(nums: list[int]) -> tuple[list[int], np.ndarray]:
    # How `_phase_table` builds the table over the sorted distinct center
    # numerators `nums`: the ints whose bank rows it reads (each block's
    # first center, then each distinct gap between neighbours inside a
    # block), and the one each table row starts from, as blocks by rows of
    # indices into those ints. Blocks hold at most _CHAIN rows, as evenly as
    # they can, so that the rows padded onto the last block number fewer
    # than the blocks; row j is center j. When the gaps are too varied to
    # pay, blocks of one row read every center's own bank row.
    n = len(nums)
    blocks = -(-n // _CHAIN)
    chain = -(-n // blocks)
    gaps = list(map(operator.sub, nums[1:], nums))
    del gaps[chain - 1 :: chain]  # the gaps into a block's first row
    distinct = dict.fromkeys(gaps)
    if blocks + len(distinct) >= n:
        return nums, np.arange(n).reshape(n, 1)
    at = {g: blocks + i for i, g in enumerate(distinct)}
    width = chain - 1
    # The rows padded onto the last block read the first head's row.
    steps = [at[g] for g in gaps] + [0] * (blocks * width - len(gaps))
    source = [[b, *steps[b * width : (b + 1) * width]] for b in range(blocks)]
    return nums[::chain] + list(distinct), np.array(source, dtype=np.intp)


def _bank_plan(
    scale: Sequence[int], extents: list[list[int]], needs: list[list[int]]
) -> tuple[tuple[np.ndarray, ...], dict[tuple[int, int], int]]:
    # The bank's rows, one per axis ax and int n on it: h_n at ax's angle.
    # First each axis's `extents` (its box extent L first, then its brick
    # types'), then each int of its `needs` that no rule derives, all
    # direct exponentials; then conj(h_L) per axis; then the derived rows:
    # a need that is twice an extent c is h_c * h_c, and one that is an
    # extent c less L is h_c * conj(h_L). Returns the plan that `_bank`
    # reads (each direct row's axis and n/2D, each axis's row of L, and the
    # pairs of rows whose products give the derived rows), and each (axis,
    # int)'s row.
    direct = {(ax, n): None for ax, given in enumerate(extents) for n in given}
    derived = {}
    for ax, (given, ints) in enumerate(zip(extents, needs)):
        length = given[0]
        for n in ints:
            if (ax, n) in direct or (ax, n) in derived:
                continue
            if n % 2 == 0 and n // 2 in given:
                derived[ax, n] = (ax, n // 2), (ax, n // 2)
            elif n + length in given:
                derived[ax, n] = (ax, n + length), (ax, -length)
            else:
                direct[ax, n] = None
    boxes = [(ax, given[0]) for ax, given in enumerate(extents)]
    keys = [*direct, *((ax, -length) for ax, length in boxes), *derived]
    row = {key: i for i, key in enumerate(keys)}
    plan = (
        np.array([ax for ax, _ in direct], dtype=np.intp),
        np.array([n / (2 * scale[ax]) for ax, n in direct]),
        np.array([row[key] for key in boxes], dtype=np.intp),
        np.array([(row[a], row[b]) for a, b in derived.values()], dtype=np.intp).reshape(-1, 2),
    )
    return plan, row


def _bank(
    x: np.ndarray, axis: np.ndarray, coefficients: np.ndarray, boxes: np.ndarray, pairs: np.ndarray
) -> np.ndarray:
    # The rows of a `_bank_plan` at a chunk of points whose coordinates on
    # axis ax are x[ax], a row per (axis, int) and a column per point:
    # exp(2j*pi * x[ax] * n/2D) for the direct rows, in one np.exp; then the
    # conjugate of each axis's row of L; then each product of a pair of
    # rows before it.
    direct = len(coefficients)
    bank = np.zeros((direct + len(boxes) + len(pairs), x.shape[1]), dtype=complex)
    angles = bank[:direct].imag
    np.multiply(coefficients[:, None], x[axis], out=angles)
    angles *= 2 * np.pi
    np.exp(bank[:direct], out=bank[:direct])
    np.conjugate(bank[boxes], out=bank[direct : direct + len(boxes)])
    np.multiply(bank[pairs[:, 0]], bank[pairs[:, 1]], out=bank[direct + len(boxes) :])
    return bank


def _phase_table(bank: np.ndarray, source: np.ndarray) -> np.ndarray:
    # exp(2j*pi * xi * c) for each center c of a `_table_plan`, a row per
    # center (padded to whole blocks) and a column per point, where
    # `source` holds the plan's bank rows: each block's first row is its
    # head's bank row, and every later row is the row before it times a
    # gap's bank row. The running products go one row position at a time
    # over all blocks: np.multiply.accumulate along the rows reads them
    # with a whole row's stride and took 4-10 times longer.
    table = bank[source]
    for k in range(1, source.shape[1]):
        table[:, k] *= table[:, k - 1]
    return table.reshape(-1, bank.shape[1])


def _summation(where: list[np.ndarray], shape: list[int]) -> tuple:
    # A brick type's base count and exceptions (see the module docstring),
    # placement k sitting on row where[ax][k] of the shape[ax] rows of axis
    # ax: the base, the exceptions' rows per axis, and their weights (count
    # less base), None at base 0, where every weight is 1.
    placements = len(where[0])
    size = math.prod(shape)
    if size <= 2 * placements:
        counts = np.bincount(np.ravel_multi_index(where, shape), minlength=size)
        odd = np.flatnonzero(counts != 1)
        if len(odd) < placements:
            return 1, np.unravel_index(odd, shape), (counts[odd] - 1).astype(float)
    return 0, where, None


def _phase_sum(
    tables: list, shape: Sequence[int], base: int, rows: Sequence, weights
) -> np.ndarray:
    # The phase sum of a `_summation` over a chunk's tables, one per axis:
    # at base 1, the product over axes of each table's sum over its centers'
    # rows; plus each exception's product of one gathered factor per axis,
    # times its weight. The exceptions go in blocks of as many rows as the
    # tables hold, two alive at once (the running product and one gathered
    # factor).
    total = 0
    if base:
        total = np.multiply.reduce([table[:n].sum(axis=0) for table, n in zip(tables, shape)])
    block = sum(map(len, tables))
    for first in range(0, len(rows[0]), block):
        picked = slice(first, first + block)
        term = tables[0][rows[0][picked]]
        for table, at in zip(tables[1:], rows[1:]):
            term *= table[at[picked]]
        if weights is not None:
            term *= weights[picked, None]
        total = total + term.sum(axis=0)
    return total


def _types(t: Tiling) -> list[tuple[int, list[list[int]], list[int], tuple]]:
    # Per brick type with placements: its index, its sorted distinct center
    # numerators per axis, their counts (its shape) and its `_summation`.
    # Built once per tiling, on first use by `phase_terms` or
    # `residual_sample`, and kept on it as its frame is.
    if "_spectral_types" in t.__dict__:
        return t.__dict__["_spectral_types"]
    _, box, _, ends = t._frame
    kinds = t.placements.kinds
    types = []
    for k in np.flatnonzero(np.bincount(kinds)).tolist():
        mine = kinds == k
        nums, where = [], []
        for (pairs, lows, highs, rank), length, (values, _) in zip(ends, box, t.placements.axes):
            # The type's pairs run together: their numbers k * len(values) + i
            # come before the next type's. A center minus half the box is
            # (o + (o + c) - L) / 2D: int numerators that grow with the
            # offsets, so they are distinct.
            first = bisect_left(pairs, k * len(values))
            last = bisect_left(pairs, (k + 1) * len(values), first)
            nums.append([lo + hi - length for lo, hi in zip(lows[first:last], highs[first:last])])
            where.append(rank[mine] - first)
        shape = list(map(len, nums))
        types.append((k, nums, shape, _summation(where, shape)))
    t.__dict__["_spectral_types"] = types
    return types


def phase_terms(t: Tiling) -> int:
    """Terms `residual_sample` sums per sample point.

    Per brick type: one per row of its per-axis phase tables, a row per
    distinct center on each axis, and one per factor it gathers, one per
    axis and exception (see the module docstring). Raises GridTooLarge as
    `residual_sample` does. The per-type plan it reads is built once per
    tiling and kept for `residual_sample`.
    """
    return sum(sum(shape) + len(shape) * len(rows[0]) for _, _, shape, (_, rows, _) in _types(t))


# Overflow shows as a non-finite residual, which raises, not as a warning.
@np.errstate(over="ignore", invalid="ignore")
def residual_sample(
    t: Tiling, points: Sequence[Frequency] | np.ndarray, seed: int | None = None
) -> SpectralReport:
    """Sample |sum over types of phase_sum * brick_transform - box_transform|.

    For a tiling accepted by the geometric verifier the residual is noise at
    every frequency; for a non-tiling it is generically large (at xi = 0 it
    reads off the missing or excess volume exactly).

    `points` is an (n, d) real array, read without a pass per point, or
    any sequence of n points of d coordinates each. The witness is the
    point as evaluated, a tuple of Python floats, whatever number type the
    points came in.

    Phases and transforms come from one bank of exponentials per chunk of
    points, the phases through per-axis tables, summed per brick type as a
    base count times the product of its tables' row sums plus a gather, in
    blocks, of the lattice points that differ from that base (see the
    module docstring), so working memory does not grow with points times
    placements. The tiling's integer frame is built once per tiling, on
    first use, and shared with the verifier and the SVG writer; so is its
    per-type plan (centers and summation), shared with `phase_terms`.
    Raises GridTooLarge when the tiling's offsets are too fine for that
    frame, as `verify_tiling_geometric` does, and ValueError when a sample
    point or a residual is not finite (frequencies too large for the box
    overflow its transforms), so no report ever holds NaN.
    """
    if len(points) == 0:
        raise ValueError("need at least one sample point")
    pts = _points_array(points, t.box.dim)
    if not np.isfinite(pts).all():
        raise ValueError("sample points must be finite")
    try:
        box_volume = math.prod(float(length) for length in t.box.dims)
    except OverflowError:  # an extent above double range
        box_volume = math.inf
    if box_volume == 0.0:
        raise ValueError("box volume below double range")
    if math.isinf(box_volume):
        raise ValueError("box volume above double range")
    scale, box, bricks, _ = t._frame
    types, needs = [], [[] for _ in box]
    for k, nums, shape, summation in _types(t):
        plans = list(map(_table_plan, nums))
        for need, (ints, _) in zip(needs, plans):
            need += ints
        types.append((k, plans, shape, summation))
    extents = [
        list(dict.fromkeys([length, *(bricks[k][ax] for k, *_ in types)]))
        for ax, length in enumerate(box)
    ]
    plan, row = _bank_plan(scale, extents, needs)
    axis, _, boxes, _ = plan
    # The transform factors' rows are the extents' (the bank's first rows):
    # their values at xi = 0, and their axes.
    floats = np.array([n / scale[ax] for ax, given in enumerate(extents) for n in given])
    ext_axis = axis[: len(floats)]
    # Per type: its tables' bank rows, its brick extents' rows, and its
    # summation. It holds its tables and two blocks of gathered rows.
    sums, work = [], 0
    for k, plans, shape, summation in types:
        sources = [
            np.array([row[ax, n] for n in ints])[source]
            for ax, (ints, source) in enumerate(plans)
        ]
        extent_rows = [row[ax, c] for ax, c in enumerate(bricks[k])]
        sums.append((sources, extent_rows, shape, summation))
        held = sum(s.size for s in sources)
        work = max(work, held + 2 * min(len(summation[1][0]), held))
    chunk = max(1, _BLOCK_ENTRIES // (len(row) + len(floats) + work))
    resid = np.empty(len(pts))
    for lo in range(0, len(pts), chunk):
        x = pts[lo : lo + chunk].T
        bank = _bank(x, *plan)
        factor = bank[: len(floats)].imag / (np.pi * x[ext_axis])
        if not x.all():  # where 0/0 read nan
            np.copyto(factor, floats[:, None], where=x[ext_axis] == 0.0)
        total = 0
        for sources, extent_rows, shape, summation in sums:
            phases = _phase_sum([_phase_table(bank, s) for s in sources], shape, *summation)
            total = total + phases * np.multiply.reduce(factor[extent_rows])
        resid[lo : lo + chunk] = np.abs(total - np.multiply.reduce(factor[boxes]))
    if not np.isfinite(resid).all():
        raise ValueError("sample frequencies too large for the box: a residual is not finite")
    peak = int(resid.argmax())
    return SpectralReport(
        samples=len(points),
        max_abs_residual=float(resid[peak]),
        witness=tuple(pts[peak].tolist()),
        seed=seed,
    )


def key_observation_witness(
    box: BoxSpec, a: Brick, b: Brick, i: int, j: int
) -> KeyObservationWitness:
    """Concrete contradiction point for a violating axis pair (0-based).

    Requires that neither L_i/a_i nor L_j/b_j is an integer. In the
    unit-box normalization (brick extents divided by box extents) the point
    has xi_i = L_i/a_i, xi_j = L_j/b_j and zeros elsewhere: both normalized
    brick transforms vanish there, yet the point misses the zero set of the
    unit box, where the right-hand side is nonzero. The three zero-set tests
    are `in_zero_set_Z`'s integer remainders on the extents' parts, so no
    normalized box is built, no float evaluated and no extent is too large.
    """
    d = box.dim
    if not (0 <= i < d and 0 <= j < d) or i == j:
        raise ValueError("need two distinct axes")
    if a.dim != d or b.dim != d:
        raise ValueError("brick and box dimensions differ")
    ratio_a, ratio_b = box.dims[i] / a.dims[i], box.dims[j] / b.dims[j]
    if ratio_a.denominator == 1 or ratio_b.denominator == 1:
        raise ValueError("pair is not a violation: one of the ratios is an integer")
    point = tuple(ratio_a if ax == i else ratio_b if ax == j else Fraction(0) for ax in range(d))
    vanish = [_hits_zero_set(point, brick.dims, box.dims) for brick in (a, b)]
    if _hits_zero_set(point, repeat(1), repeat(1)) or not all(vanish):
        raise RuntimeError("witness consistency check failed for a genuine violation")
    return KeyObservationWitness(pair=(i, j), point=point)
