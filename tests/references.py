"""Helpers shared by the test files.

`interiors_disjoint`, `rational_gcd` and `box_transform_batch` are plain
references that the library does not use; the tests check the verifier,
the grid and the spectral sampler against them. `box_transform` evaluates
`box_transform_batch` at one frequency.
"""

import math
from fractions import Fraction

import numpy as np

from brickbox import frac


def interiors_disjoint(p, q, bricks) -> bool:
    """True iff the open boxes of the two placements do not intersect.

    Two open intervals are disjoint iff one ends at or before the other
    starts; the boxes are disjoint iff that happens on at least one axis.
    """
    bp = bricks[p.brick_index]
    bq = bricks[q.brick_index]
    if len(p.offset) != len(q.offset):
        raise ValueError("placements have different dimensions")
    for ax in range(len(p.offset)):
        lo = max(p.offset[ax], q.offset[ax])
        hi = min(p.offset[ax] + bp.dims[ax], q.offset[ax] + bq.dims[ax])
        if lo >= hi:
            return True
    return False


def rational_gcd(x, y) -> Fraction:
    """Largest rational g such that x/g and y/g are both integers.

    For x = p/q and y = r/s in lowest terms this is gcd(p*s, r*q) / (q*s).
    """
    xf, yf = frac(x), frac(y)
    if xf <= 0 or yf <= 0:
        raise ValueError("rational_gcd requires strictly positive arguments")
    return Fraction(
        math.gcd(xf.numerator * yf.denominator, yf.numerator * xf.denominator),
        xf.denominator * yf.denominator,
    )


@np.errstate(invalid="ignore")
def box_transform_batch(dims, pts: np.ndarray) -> np.ndarray:
    """Transform of the centered box with extents `dims` at each row of `pts`.

    prod_j sin(pi * c_j * xi_j) / (pi * xi_j), one np.sin per axis, with
    c_j where xi_j = 0 (where the formula reads 0/0).
    """
    out = np.ones(pts.shape[0])
    for c, x in zip(dims, pts.T):
        cf = float(c)
        factor = np.sin(np.pi * cf * x) / (np.pi * x)
        factor[x == 0.0] = cf
        out *= factor
    return out


def box_transform(dims, xi) -> float:
    """Transform of the centered box with extents `dims` at frequency xi.

    One row of `box_transform_batch`; a float too large for a double raises
    OverflowError.
    """
    if len(dims) != len(xi):
        raise ValueError("dims and frequency have different lengths")
    return float(box_transform_batch(dims, np.array([[float(x) for x in xi]]))[0])
