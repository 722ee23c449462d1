"""Helpers shared by the test files.

`interiors_disjoint` and `rational_gcd` are plain references that the
library does not use; the tests check the verifier and the grid against
them. `box_transform` evaluates the library's own transform formula at one
frequency.
"""

import math
from fractions import Fraction

import numpy as np

from brickbox import frac
from brickbox.spectral import _box_transform_batch


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


def box_transform(dims, xi) -> float:
    """Transform of the centered box with extents `dims` at frequency xi.

    One row of `spectral._box_transform_batch`, the formula `residual_sample`
    evaluates; a float too large for a double raises OverflowError.
    """
    if len(dims) != len(xi):
        raise ValueError("dims and frequency have different lengths")
    return float(_box_transform_batch(dims, np.array([[float(x) for x in xi]]))[0])
