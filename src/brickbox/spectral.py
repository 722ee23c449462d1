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
tiling's placement columns in its per-axis integer frame (see `geometry`),
so each distinct center is rounded to a double once. Per brick type, it
factors every phase into one factor per axis, gathered from a table over
that axis's distinct centers, and works through the
points in chunks and the placements in blocks so that no working array
holds more than 2**16 entries (or one table row, for an axis with more
distinct centers than that): memory stays bounded however many placements
the tiling has. The products round differently from a single
exp(2*pi*i * xi.lambda), so a residual's noise digits (around 1e-14), and
so which point witnesses a noise-level maximum, may differ from that
formula.

`random_frequencies` draws the coordinates of all points as one stream,
point by point and axis by axis. Each coordinate is bit for bit what
`random.Random(seed).uniform(-bound, bound)` returns at that position of
the stream.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Sequence

import numpy as np

from .geometry import BoxSpec, Brick, Tiling, _integer_frame, frac

#: A frequency vector of float coordinates.
Frequency = Sequence[float]

# Most entries of a working array (1 MB of complex128) in residual_sample.
_BLOCK_ENTRIES = 2**16


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


def _box_transform_batch(dims: Sequence[Fraction], pts: np.ndarray) -> np.ndarray:
    # The real transform of the centered box with extents `dims` at each row
    # of `pts`: its volume at 0, and 0 where some xi_j is a nonzero multiple
    # of 1/c_j.
    out = np.ones(pts.shape[0])
    for ax, c in enumerate(dims):
        cf = float(c)
        x = pts[:, ax]
        factor = np.full(x.shape, cf)
        nz = x != 0.0
        xnz = x[nz]
        factor[nz] = np.sin(np.pi * cf * xnz) / (np.pi * xnz)
        out = out * factor
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


def random_frequencies(
    dim: int, count: int, seed: int, bound: float = 10.0
) -> list[tuple[float, ...]]:
    """`count` frequency vectors drawn uniformly from [-bound, bound]^dim.

    The bound must be finite and positive: bound 0 samples only the origin,
    where the residual checks volume alone. The dimension must be at least 1.
    """
    if not (math.isfinite(bound) and bound > 0):
        raise ValueError(f"frequency bound must be finite and positive: {bound}")
    if dim < 1:
        raise ValueError(f"frequency dimension must be at least 1: {dim}")
    # Random.uniform(a, b) is a + (b - a) * random(); drawing flat with the
    # bound method gives the same values without a Python call per draw.
    draw = random.Random(seed).random
    lo, width = -bound, 2 * bound  # b - a, exactly
    flat = [lo + width * draw() for _ in range(dim * count)]
    return list(zip(*[iter(flat)] * dim))


def _points_array(points: Sequence[Frequency], d: int) -> np.ndarray:
    # The points as rows of doubles, read in one pass once every point is
    # known to have d coordinates (np.asarray would probe each one's shape).
    try:
        widths = set(map(len, points))
    except TypeError:
        widths = set()
    if widths != {d}:
        raise ValueError("sample points and box have different dimensions")
    return np.fromiter(chain.from_iterable(points), float, len(points) * d).reshape(-1, d)


def _phase_sum(
    pts: np.ndarray, distinct: Sequence[np.ndarray], where: Sequence[np.ndarray]
) -> np.ndarray:
    # Sum over placements k of exp(2*pi*i * xi.lambda_k) at every point xi,
    # where lambda_k is distinct[ax][where[ax][k]] on each axis. Each phase is
    # a product of one factor per axis, gathered from a table
    # exp(2j*pi * (xi_j * c)) over that axis's distinct centers c. Points go
    # in chunks and placements in blocks, so that tables, factors and
    # products hold at most _BLOCK_ENTRIES entries each (or one row of the
    # widest table, when an axis has more distinct centers than that).
    chunk = max(1, _BLOCK_ENTRIES // max(map(len, distinct)))
    block = max(1, _BLOCK_ENTRIES // chunk)
    total = np.zeros(pts.shape[0], dtype=complex)
    for lo in range(0, pts.shape[0], chunk):
        tables = []
        for xi, values in zip(pts[lo : lo + chunk].T, distinct):
            table = np.multiply.outer(xi.astype(complex), values)
            table *= 2j * np.pi
            tables.append(np.exp(table, out=table))
        for first in range(0, len(where[0]), block):
            term = None
            for table, cols in zip(tables, where):
                factor = table[:, cols[first : first + block]]
                if term is None:
                    term = factor
                else:
                    term *= factor
            total[lo : lo + chunk] += term.sum(axis=1)
    return total


def _centers(
    mine: np.ndarray, index: np.ndarray, offsets: list[int], c: int, length: int, unit: int
) -> tuple[np.ndarray, np.ndarray]:
    # The sorted distinct centers of one brick type's placements on one
    # axis, as doubles, and each placement's index into them (what
    # np.unique(return_inverse=True) gives). A center minus half the box is
    # (2o + c - L) / 2D in the frame: an int ratio rounds once, to the same
    # double as float(Fraction). Centers grow with the offsets, and two
    # offsets may round to one double.
    index = index[mine]
    rows = np.flatnonzero(np.bincount(index, minlength=len(offsets)))
    centers = np.array([(2 * offsets[i] + c - length) / (2 * unit) for i in rows.tolist()])
    new = np.ones(len(centers), dtype=bool)
    np.not_equal(centers[1:], centers[:-1], out=new[1:])
    rank = np.zeros(len(offsets), dtype=np.intp)
    rank[rows] = np.cumsum(new) - 1
    return centers[new], rank[index]


# Overflow shows as a non-finite residual, which raises, not as a warning.
@np.errstate(over="ignore", invalid="ignore")
def residual_sample(
    t: Tiling, points: Sequence[Frequency], seed: int | None = None
) -> SpectralReport:
    """Sample |sum over types of phase_sum * brick_transform - box_transform|.

    For a tiling accepted by the geometric verifier the residual is noise at
    every frequency; for a non-tiling it is generically large (at xi = 0 it
    reads off the missing or excess volume exactly).

    Phases come from per-axis tables, summed over chunks of points and
    blocks of placements (see the module docstring), so working memory does
    not grow with points times placements. Raises GridTooLarge when the
    tiling's offsets are too fine for its integer frame, as
    `verify_tiling_geometric` does, and ValueError when a sample point or
    a residual is not finite (frequencies too large for the box overflow
    its transforms), so no report ever holds NaN.
    """
    if not points:
        raise ValueError("need at least one sample point")
    pts = _points_array(points, t.box.dim)
    if not np.isfinite(pts).all():
        raise ValueError("sample points must be finite")
    box_volume = math.prod(float(length) for length in t.box.dims)
    if box_volume == 0.0:
        raise ValueError("box volume below double range")
    if math.isinf(box_volume):
        raise ValueError("box volume above double range")
    scale, box, bricks, offsets = _integer_frame(t)
    kinds, axes = t.placements.kinds, t.placements.axes
    total = np.zeros(pts.shape[0], dtype=complex)
    for k, (brick, extents) in enumerate(zip(t.bricks, bricks)):
        mine = kinds == k
        if not mine.any():
            continue
        distinct, where = zip(
            *(
                _centers(mine, index, column, c, length, unit)
                for (_, index), column, c, length, unit in zip(axes, offsets, extents, box, scale)
            )
        )
        total += _phase_sum(pts, distinct, where) * _box_transform_batch(brick.dims, pts)
    resid = np.abs(total - _box_transform_batch(t.box.dims, pts))
    if not np.isfinite(resid).all():
        raise ValueError("sample frequencies too large for the box: a residual is not finite")
    peak = int(np.argmax(resid))
    return SpectralReport(
        samples=len(points),
        max_abs_residual=float(resid[peak]),
        witness=tuple(points[peak]),
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
