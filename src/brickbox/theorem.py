"""Structural decision of two-brick tileability via hyperplane splits.

A box admits a tiling by translates of two brick types exactly when it can
be cut by an axis-aligned hyperplane into two slabs, one filled by a grid
of the first brick and the other by a grid of the second. This module
decides that condition, produces the split as an explicit certificate, and
realizes any certificate as a concrete tiling.

One slab-grid builder makes every tiling here, of one brick or two: it
counts the placements and raises GridTooLarge over the cap before it builds
any.

The necessary condition checked first ("key observation"): for every
ordered pair of distinct axes i != j, at least one of L_i/a_i and L_j/b_j
must be an integer. A violating pair yields a frequency-domain witness
point where both brick transforms vanish but the box transform does not.
Each test of L/c for integrality is the remainder of L.numerator *
c.denominator by L.denominator * c.numerator: no Fraction is divided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import BoxSpec, Brick, GridTooLarge, Placements, Tiling, frac
from .spectral import KeyObservationWitness, key_observation_witness


@dataclass(frozen=True)
class SplitCertificate:
    """A hyperplane split witnessing tileability.

    The cut plane is x_axis = cut with cut = m * a_axis; the left slab holds
    m layers of the first brick, the right slab n layers of the second, and
    on every other axis the used bricks divide the box extent evenly.
    Degenerate certificates (m = 0 or n = 0) mean one brick tiles the whole
    box alone. Axes are 0-based here; JSON uses 1-based.
    """

    axis: int
    m: int
    n: int
    cut: Fraction


@dataclass(frozen=True)
class KeyObservationViolation:
    """Ordered axis pair (0-based) with L_i/a_i and L_j/b_j both non-integral."""

    i: int
    j: int


@dataclass(frozen=True)
class DecisionOutcome:
    """Answer of `decide_two_brick`: its evidence, and what is read off it.

    A tileable instance holds its split certificate. An untileable one holds
    the frequency witness of a violated pairwise-integrality condition when
    one exists, and nothing when the split search is exhausted.
    """

    certificate: SplitCertificate | None = None
    witness: KeyObservationWitness | None = None

    @property
    def tileable(self) -> bool:
        return self.certificate is not None

    @property
    def obstruction(self) -> KeyObservationViolation | None:
        return KeyObservationViolation(*self.witness.pair) if self.witness is not None else None

    @property
    def reason(self) -> str | None:
        if self.tileable:
            return None
        if self.witness is not None:
            return "pairwise integrality condition violated"
        return "no axis admits a hyperplane split"


def _require_same_dim(box: BoxSpec, *bricks: Brick) -> None:
    for b in bricks:
        if b.dim != box.dim:
            raise ValueError("box and brick dimensions differ")


def _divides(ext: Fraction, length: Fraction) -> bool:
    # length/ext is an integer, as one remainder of products of their parts.
    return length.numerator * ext.denominator % (length.denominator * ext.numerator) == 0


def _bad_axes(box: BoxSpec, brick: Brick) -> list[int]:
    # Axes i, in increasing order, on which L_i/c_i is not an integer.
    _require_same_dim(box, brick)
    return [i for i, (L, c) in enumerate(zip(box.dims, brick.dims)) if not _divides(c, L)]


def one_brick_tileable(box: BoxSpec, brick: Brick) -> bool:
    """True iff a grid of the brick fills the box: every L_j/a_j is an integer."""
    return not _bad_axes(box, brick)


def key_observation_holds(
    box: BoxSpec, a: Brick, b: Brick
) -> KeyObservationViolation | None:
    """Check the pairwise integrality condition necessary for any tiling.

    Returns None when for every ordered pair i != j at least one of L_i/a_i
    and L_j/b_j is an integer; otherwise the lexicographically smallest
    violating pair. For d < 2 no pair i != j exists, so None is returned.
    """
    bad_a, bad_b = _bad_axes(box, a), _bad_axes(box, b)
    pair = next(((i, j) for i in bad_a for j in bad_b if i != j), None)
    return KeyObservationViolation(*pair) if pair else None


def solve_axis_combination(L, a, b) -> tuple[int, int] | None:
    """The nonnegative integer pair (m, n) with m*a + n*b = L and least m, or None."""
    Lf, af, bf = frac(L), frac(a), frac(b)
    if Lf <= 0 or af <= 0 or bf <= 0:
        raise ValueError("lengths must be strictly positive")
    m = 0
    while m * af <= Lf:
        n = (Lf - m * af) / bf
        if n.denominator == 1:
            return m, int(n)
        m += 1
    return None


def find_split(box: BoxSpec, a: Brick, b: Brick) -> SplitCertificate | None:
    """Search for a split certificate; None when no hyperplane cut works.

    Deterministic selection: a degenerate single-brick certificate is
    preferred (brick a checked before brick b). Otherwise only one axis can
    carry a cut: both bricks must divide the box on every axis but the cut
    axis, so each fails to divide it on exactly that axis and no other. On
    that axis the pair with smallest m is taken.
    """
    return _split(box, a, b, _bad_axes(box, a), _bad_axes(box, b))


def _split(box: BoxSpec, a: Brick, b: Brick, bad_a: list, bad_b: list) -> SplitCertificate | None:
    # `find_split` given each brick's non-dividing axes.
    if not bad_a:
        return SplitCertificate(axis=0, m=box.dims[0] // a.dims[0], n=0, cut=box.dims[0])
    if not bad_b:
        return SplitCertificate(axis=0, m=0, n=box.dims[0] // b.dims[0], cut=Fraction(0))
    # A cut on axis k needs both bricks to divide every other axis.
    if len(bad_a) != 1 or bad_a != bad_b:
        return None
    (k,) = bad_a
    pair = solve_axis_combination(box.dims[k], a.dims[k], b.dims[k])
    return SplitCertificate(k, *pair, cut=pair[0] * a.dims[k]) if pair else None


def decide_two_brick(box: BoxSpec, a: Brick, b: Brick) -> DecisionOutcome:
    """Decide whether translates of the two bricks tile the box.

    Split existence is equivalent to tileability, so the result is exact,
    not a heuristic. Untileable instances carry the frequency witness of the
    violated pairwise-integrality condition when one exists, and no evidence
    when the split search is exhausted.
    """
    bad_a, bad_b = _bad_axes(box, a), _bad_axes(box, b)
    cert = _split(box, a, b, bad_a, bad_b)
    if cert is not None:
        return DecisionOutcome(certificate=cert)
    pair = next(((i, j) for i in bad_a for j in bad_b if i != j), None)
    return DecisionOutcome(witness=key_observation_witness(box, a, b, *pair) if pair else None)


def validate_certificate(
    cert: SplitCertificate, box: BoxSpec, a: Brick, b: Brick
) -> None:
    """Raise ValueError unless the certificate is valid for (box, a, b)."""
    _require_same_dim(box, a, b)
    d = box.dim
    if not 0 <= cert.axis < d:
        raise ValueError("certificate axis out of range")
    if cert.m < 0 or cert.n < 0:
        raise ValueError("layer counts must be nonnegative")
    axis = cert.axis
    if cert.m * a.dims[axis] + cert.n * b.dims[axis] != box.dims[axis]:
        raise ValueError("layer counts do not fill the split axis")
    if cert.cut != cert.m * a.dims[axis]:
        raise ValueError("cut position does not match m * a_axis")
    # First failing cross axis; on the same axis brick a is reported first.
    for i, length in enumerate(box.dims):
        for name, brick, layers in (("a", a, cert.m), ("b", b, cert.n)):
            if i != axis and layers and not _divides(brick.dims[i], length):
                raise ValueError(f"brick {name} does not divide the box on cross axis {i}")


def _slab_placements(
    box: BoxSpec, axis: int, slabs: list[tuple[Brick, int]], cap: float
) -> Placements:
    # Slab k is a grid of brick k: `layers` copies along `axis`, after slabs
    # 0..k-1, and L_i/c_i copies on every other axis, in row-major order
    # (the last axis varies fastest). An unused brick may not divide the
    # cross axes, so it is neither counted nor built. Offsets are ints in
    # units of 1/D on each axis, D the lcm of the used bricks' denominators
    # there. Placement p of a grid sits at grid coordinate
    # (p // later) % count on each axis, `later` the number of cells of the
    # later axes. Each axis gets the grids' runs of offsets one after the
    # other, as they are; `Placements` sorts and merges them.
    grids = []
    for k, (brick, layers) in enumerate(slabs):
        if layers:
            counts = [length // ext for length, ext in zip(box.dims, brick.dims)]
            counts[axis] = layers
            grids.append((k, brick, counts))
    total = sum(math.prod(counts) for _, _, counts in grids)
    if total > cap:
        raise GridTooLarge(f"tiling needs {total} placements, cap is {cap}")
    units = [math.lcm(*(b.dims[i].denominator for _, b, _ in grids)) for i in range(box.dim)]
    kinds, axes = [], [([], []) for _ in units]
    base = 0
    for k, brick, counts in grids:
        size = math.prod(counts)
        kinds.append(np.full(size, k, dtype=np.intp))
        cell, later = np.arange(size), size
        steps = [ext.numerator * unit // ext.denominator for ext, unit in zip(brick.dims, units)]
        for i, (step, count, unit) in enumerate(zip(steps, counts, units)):
            later //= count
            start = base if i == axis else 0
            values, index = axes[i]
            index.append(len(values) + cell // later % count)
            values.extend(Fraction(start + j * step, unit) for j in range(count))
        base += counts[axis] * steps[axis]
    return Placements(np.concatenate(kinds), [(v, np.concatenate(j)) for v, j in axes])


def one_brick_tiling(box: BoxSpec, brick: Brick, cap: float = math.inf) -> Tiling | None:
    """The row-major grid of the brick that fills the box, or None.

    None when some L_j/a_j is not an integer. Over `cap` placements it
    raises GridTooLarge before building any, as `certificate_to_tiling` does.
    """
    if not one_brick_tileable(box, brick):
        return None
    placements = _slab_placements(box, 0, [(brick, box.dims[0] // brick.dims[0])], cap)
    return Tiling(bricks=(brick,), placements=placements, box=box)


def certificate_to_tiling(
    cert: SplitCertificate, box: BoxSpec, a: Brick, b: Brick, cap: float = math.inf
) -> Tiling:
    """Materialize a certificate as an explicit tiling of the box.

    The left slab [0, cut] gets m layers of brick a, the right slab the
    n layers of brick b, each layer a full grid across the other axes. The
    result always passes geometric verification. Over `cap` placements (as
    `tile --grid-cap` sets) it raises GridTooLarge before building any.
    """
    validate_certificate(cert, box, a, b)
    placements = _slab_placements(box, cert.axis, [(a, cert.m), (b, cert.n)], cap)
    return Tiling(bricks=(a, b), placements=placements, box=box)
