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
exact integrality test on rational frequencies, so the key-observation
witness is checked in exact rational arithmetic and holds for extents of
any size.

`residual_sample` reads each brick type's distinct centers off the
tiling's per-axis integer frame (see `geometry`), as exact ints in units
of 1/(2D): the type's (brick type, distinct offset) pairs run together
there by increasing offset, and each gives one center minus half the box,
low + high - L. A placement's row is its rank among the pairs less that of
the type's first pair. Per brick type, it factors every phase
into one factor per axis, read from a table over that axis's distinct
centers, a row per center and a column per point. The rows go in blocks of
at most 32: a block's first row is a direct exponential of its center and
each later row is the row before it times the exponential of the gap
between their centers, computed once per distinct gap. So n centers in
a progression cost ceil(n/32) + 1 exponentials per point, not n; when the
gaps are too varied to pay, every row is a direct exponential. Each entry is an exponential times at most 31
gap factors, so its angle error is of the order of a direct exponential's.

A brick type whose placements have R_j distinct centers on axis j has its
centers on a lattice of prod_j R_j points. When the lattice has at most
twice as many points as the type has placements, n (so for every
certificate tiling, whose types fill their lattice exactly, and for every
1-d tiling), the type is summed by contraction: its placements are counted
per lattice point, the counts are multiplied by the table of the longest
axis (their rows are the lattice lines along it), and each other axis is
then summed out by a multiply-and-sum with its table. Its work per point
grows with the lattice, and beyond the tables it holds the counts (at most
2n entries) and, per point, one value per lattice line. Any other type is
summed by gathering one table factor per axis and placement, in blocks of
placements: its lattice can be far larger than n (n centers on a diagonal
span n**d points), while the gather's time and memory grow only with n.
The contraction runs in np.einsum without optimize and in elementwise
numpy, never in BLAS, so its sums round the same way whatever the BLAS
thread count. The points go in chunks so that no working array holds more
than 2**16 entries, padded table rows included (or one point's table, for
an axis with more distinct centers than that, or one point's lattice
lines, for a lattice with more lines than that): memory stays bounded
however many placements the tiling has. The products and sums round
differently from a single exp(2*pi*i * xi.lambda) per placement, so a
residual's noise digits (around 1e-14 on small tilings), and so which
point witnesses a noise-level maximum, may differ from that formula.

`random_frequencies` draws the coordinates of all points as one stream,
point by point and axis by axis, and returns them as one read-only float
array of shape (count, dim), a row per point, which `residual_sample`
reads as is. Each coordinate is bit for bit what
`random.Random(seed).uniform(-bound, bound)` returns at that position of
the stream.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, repeat, starmap
from typing import Sequence

import numpy as np

from .geometry import BoxSpec, Brick, Tiling, _integer_frame, frac

#: A frequency vector of float coordinates.
Frequency = Sequence[float]

# Most entries of a working array (1 MB of complex128) in residual_sample,
# padded phase-table rows included.
_BLOCK_ENTRIES = 2**16

# Most rows of a phase-table block: one direct exponential, then running
# products of gap factors (see `_phase_table`).
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


@np.errstate(invalid="ignore")
def _box_transform_batch(dims: Sequence[Fraction], pts: np.ndarray) -> np.ndarray:
    # The real transform of the centered box with extents `dims` at each row
    # of `pts`: its volume at 0, and 0 where some xi_j is a nonzero multiple
    # of 1/c_j. Each axis runs the formula over all points, where 0/0 reads
    # nan at xi_j = 0, then sets c_j there if any xi_j is 0.
    out = np.ones(pts.shape[0])
    for c, x in zip(dims, pts.T):
        cf = float(c)
        factor = np.sin(np.pi * cf * x) / (np.pi * x)
        if np.count_nonzero(x) < len(x):
            factor[x == 0.0] = cf
        out *= factor
    return out


def in_zero_set_Z(xi: Sequence, box: BoxSpec) -> bool:
    """Membership in the zero set of the box transform.

    True iff some coordinate xi_j is a nonzero integer multiple of 1/L_j.
    The test is exact, so coordinates must be rationals; a float reached
    in the scan raises TypeError.
    """
    if len(xi) != box.dim:
        raise ValueError("frequency and box have different dimensions")
    for x, length in zip(xi, box.dims):
        y = frac(x) * length
        if y != 0 and y.denominator == 1:
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
    # Random.uniform(a, b) is a + (b - a) * random(): the same two IEEE
    # operations over the whole stream give the same values. A bound near
    # the double maximum makes b - a infinite, so a draw reads inf (or nan
    # for a zero draw) in both, without a warning.
    draw = random.Random(seed).random
    flat = np.fromiter(starmap(draw, repeat((), dim * count)), float, dim * count)
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


def _table_plan(nums: list[int], unit: int) -> tuple[list[float], np.ndarray]:
    # How `_phase_table` builds the table over the sorted distinct centers
    # nums[j] / unit: the coefficients to exponentiate (each block's first
    # center, then each distinct gap between neighbours inside a block, as
    # doubles), and the coefficient each table row starts from, as blocks
    # by rows. Blocks hold at most _CHAIN rows, as evenly as they can, so
    # that the rows padded onto the last block number fewer than the
    # blocks; row j is center j. When the gaps are too varied to pay,
    # blocks of one row make every row a direct exponential.
    n = len(nums)
    blocks = -(-n // _CHAIN)
    chain = -(-n // blocks)
    gaps = list(map(operator.sub, nums[1:], nums))
    del gaps[chain - 1 :: chain]  # the gaps into a block's first row
    distinct = dict.fromkeys(gaps)
    if blocks + len(distinct) >= n:
        return [x / unit for x in nums], np.arange(n).reshape(n, 1)
    at = {g: blocks + i for i, g in enumerate(distinct)}
    source = np.zeros((blocks, chain), dtype=np.intp)
    source[:, 0] = np.arange(blocks)
    source[:, 1:].flat[: len(gaps)] = [at[g] for g in gaps]
    return [x / unit for x in nums[::chain]] + [g / unit for g in distinct], source


def _phase_table(xi: np.ndarray, coefficients: list[float], source: np.ndarray) -> np.ndarray:
    # exp(2j*pi * (xi * c)) for each center c of a `_table_plan`, a row per
    # center (padded to whole blocks) and a column per point. One direct
    # exponential per coefficient and point; every other row is the row
    # before it times one gap factor, so it is its block's first row times
    # at most _CHAIN - 1 gap factors, and its angle error stays of the
    # order of a direct exponential's. The running products go one row
    # position at a time over all blocks: np.multiply.accumulate along the
    # rows reads them with a whole row's stride and took 4-10 times longer.
    steps = np.multiply.outer(coefficients, xi)
    steps *= 2 * np.pi
    steps = np.exp(steps * 1j)
    chain = source.shape[1]
    if chain == 1:
        return steps
    table = steps[source]
    for k in range(1, chain):
        table[:, k] *= table[:, k - 1]
    return table.reshape(-1, len(xi))


def _phase_sum(
    pts: np.ndarray, plans: Sequence[tuple], where: Sequence[np.ndarray], shape: Sequence[int]
) -> np.ndarray:
    # Sum over placements k of exp(2*pi*i * xi.lambda_k) at every point xi,
    # where lambda_k is, on each axis, the center of row where[ax][k] of
    # that axis's `_table_plan`, whose shape[ax] centers are its first
    # rows. Placements that fill at least half of their lattice of centers
    # are summed over it (`_lattice_sum`), others one by one
    # (`_gathered_sum`); see the module docstring. Points go in chunks so
    # that tables (padded rows included) and working arrays hold at most
    # _BLOCK_ENTRIES entries each (or one point's column of the tallest
    # table, or of the lattice lines, when that has more entries).
    tallest = max(source.size for _, source in plans)
    size = math.prod(shape)
    axes = range(len(shape))
    if size <= 2 * len(where[0]):
        # The longest axis goes last, so the contraction's first step leaves
        # the fewest lattice lines.
        axes = sorted(axes, key=shape.__getitem__)
        shape = tuple(shape[ax] for ax in axes)
        point = np.ravel_multi_index([where[ax] for ax in axes], shape)
        counts = np.bincount(point, minlength=size).reshape(-1, shape[-1]).astype(float)
        chunk = max(1, _BLOCK_ENTRIES // max(tallest, len(counts)))
        summed = partial(_lattice_sum, counts, shape)
    else:
        chunk = max(1, _BLOCK_ENTRIES // tallest)
        summed = partial(_gathered_sum, where, max(1, _BLOCK_ENTRIES // chunk))
    columns = [(pts[:, ax], plans[ax]) for ax in axes]
    total = np.empty(pts.shape[0], dtype=complex)
    for lo in range(0, pts.shape[0], chunk):
        tables = [_phase_table(xi[lo : lo + chunk], *plan) for xi, plan in columns]
        total[lo : lo + chunk] = summed(tables)
    return total


def _lattice_sum(counts: np.ndarray, shape: Sequence[int], tables: list) -> np.ndarray:
    # Sum over the lattice of centers of each point's count times phase:
    # the counts, one row per lattice line along the last axis, times that
    # axis's table (as float pairs, since the counts are real); then, axis
    # by axis from the last but one, a multiply-and-sum with the axis's
    # table. np.einsum without optimize calls no BLAS, whose matmul rounds
    # differently with the BLAS thread count.
    points = tables[0].shape[1]
    last = tables[-1][: shape[-1]].view(float)
    term = np.einsum("ij,jk->ik", counts, last, optimize=False).view(complex)
    for table, rows in zip(tables[-2::-1], shape[-2::-1]):
        if rows == 1:  # so is every axis left (the axes go by length)
            term *= table[0]
        else:
            term = (term.reshape(-1, rows, points) * table[:rows]).sum(axis=1)
    return term[0]


def _gathered_sum(where: Sequence[np.ndarray], block: int, tables: list) -> np.ndarray:
    # The phase sum as one product of gathered factors per placement, in
    # blocks of `block` placements.
    total = 0
    for first in range(0, len(where[0]), block):
        term = None
        for table, rows in zip(tables, where):
            factor = table[rows[first : first + block]]
            if term is None:
                term = factor
            else:
                term *= factor
        total = total + term.sum(axis=0)
    return total


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

    Phases come from per-axis tables, summed over chunks of points, by
    contraction over each brick type's lattice of centers or, when its
    placements fill less than half of it, over blocks of placements (see
    the module docstring), so working memory does not grow with points
    times placements. Raises GridTooLarge when the tiling's offsets are
    too fine for its integer frame, as `verify_tiling_geometric` does, and
    ValueError when a sample point or a residual is not finite (frequencies
    too large for the box overflow its transforms), so no report ever
    holds NaN.
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
    scale, box, _, ends = _integer_frame(t)
    kinds = t.placements.kinds
    total = np.zeros(pts.shape[0], dtype=complex)
    for k, brick in enumerate(t.bricks):
        mine = kinds == k
        if not mine.any():
            continue
        plans, where, shape = [], [], []
        for (_, lows, highs, rank), length, unit in zip(ends, box, scale):
            # The type's pairs run together, from its least rank to its
            # greatest. A center minus half the box is (o + (o + c) - L) / 2D:
            # int numerators that grow with the offsets, so they are distinct.
            rows = rank[mine]
            first, last = int(rows.min()), int(rows.max()) + 1
            nums = [lo + hi - length for lo, hi in zip(lows[first:last], highs[first:last])]
            plans.append(_table_plan(nums, 2 * unit))
            where.append(rows - first)
            shape.append(last - first)
        total += _phase_sum(pts, plans, where, shape) * _box_transform_batch(brick.dims, pts)
    resid = np.abs(total - _box_transform_batch(t.box.dims, pts))
    if not np.isfinite(resid).all():
        raise ValueError("sample frequencies too large for the box: a residual is not finite")
    peak = int(np.argmax(resid))
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
    unit box, where the right-hand side is nonzero. All three zero-set
    tests are exact, so no float is evaluated and no extent is too large.
    """
    d = box.dim
    if not (0 <= i < d and 0 <= j < d) or i == j:
        raise ValueError("need two distinct axes")
    if a.dim != d or b.dim != d:
        raise ValueError("brick and box dimensions differ")
    ratio_a = box.dims[i] / a.dims[i]
    ratio_b = box.dims[j] / b.dims[j]
    if ratio_a.denominator == 1 or ratio_b.denominator == 1:
        raise ValueError("pair is not a violation: one of the ratios is an integer")
    point = [Fraction(0)] * d
    point[i] = ratio_a
    point[j] = ratio_b
    point_t = tuple(point)
    norm_a = BoxSpec(tuple(a.dims[ax] / box.dims[ax] for ax in range(d)))
    norm_b = BoxSpec(tuple(b.dims[ax] / box.dims[ax] for ax in range(d)))
    member = in_zero_set_Z(point_t, BoxSpec((1,) * d))
    if member or not in_zero_set_Z(point_t, norm_a) or not in_zero_set_Z(point_t, norm_b):
        raise RuntimeError("witness consistency check failed for a genuine violation")
    return KeyObservationWitness(pair=(i, j), point=point_t)
