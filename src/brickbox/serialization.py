"""Shared JSON schema for all core types.

Rationals travel as canonical "p/q" strings ("3/1" for 3); integer literals
are accepted on input. Axis indices are 1-based in JSON and 0-based in the
API. Parsers validate shape and raise ValueError on malformed input.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Sequence

from .counterexample import NoSplitReport, ThreeBrickInstance
from .geometry import BoxSpec, Brick, Placement, Tiling, VerifyOutcome, frac
from .spectral import KeyObservationWitness, SpectralReport
from .theorem import DecisionOutcome, KeyObservationViolation, SplitCertificate


def format_rational(x: Fraction | int) -> str:
    f = frac(x)
    return f"{f.numerator}/{f.denominator}"


def parse_rational(value: Any) -> Fraction:
    """Parse a "p/q" string or integer literal into an exact Fraction."""
    if isinstance(value, bool) or isinstance(value, float):
        raise ValueError(f"not a rational literal: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return frac(value.strip())
    raise ValueError(f"not a rational literal: {value!r}")


def parse_dims(text: str) -> tuple[Fraction, ...]:
    """Parse comma-separated extents, e.g. "1,1" or "3/2,2"."""
    parts = [p.strip() for p in text.split(",")]
    if not parts or any(not p for p in parts):
        raise ValueError(f"malformed extent list: {text!r}")
    return tuple(parse_rational(p) for p in parts)


def _rational_list(values: Sequence[Fraction | int]) -> list[str]:
    return [format_rational(v) for v in values]


def _parse_rational_list(obj: Any, what: str) -> tuple[Fraction, ...]:
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"{what} must be a nonempty list of rationals")
    return tuple(parse_rational(v) for v in obj)


# ---------------------------------------------------------------------------
# Bricks, boxes, tilings
# ---------------------------------------------------------------------------


def brick_to_obj(b: Brick) -> dict:
    return {"dims": _rational_list(b.dims)}


def brick_from_obj(obj: Any) -> Brick:
    if not isinstance(obj, dict) or "dims" not in obj:
        raise ValueError("brick must be an object with a 'dims' list")
    return Brick(_parse_rational_list(obj["dims"], "brick dims"))


def box_to_obj(box: BoxSpec) -> dict:
    return {"dims": _rational_list(box.dims)}


def box_from_obj(obj: Any) -> BoxSpec:
    if not isinstance(obj, dict) or "dims" not in obj:
        raise ValueError("box must be an object with a 'dims' list")
    return BoxSpec(_parse_rational_list(obj["dims"], "box dims"))


def placement_to_obj(p: Placement) -> dict:
    return {"brick": p.brick_index, "offset": _rational_list(p.offset)}


def placement_from_obj(obj: Any) -> Placement:
    if not isinstance(obj, dict) or "brick" not in obj or "offset" not in obj:
        raise ValueError("placement must be an object with 'brick' and 'offset'")
    if not isinstance(obj["brick"], int) or isinstance(obj["brick"], bool):
        raise ValueError("placement brick index must be an integer")
    return Placement(obj["brick"], _parse_rational_list(obj["offset"], "offset"))


def tiling_to_obj(t: Tiling) -> dict:
    return {
        "box": box_to_obj(t.box),
        "bricks": [brick_to_obj(b) for b in t.bricks],
        "placements": [placement_to_obj(p) for p in t.placements],
    }


def tiling_from_obj(obj: Any) -> Tiling:
    if not isinstance(obj, dict):
        raise ValueError("tiling must be an object")
    for key in ("box", "bricks", "placements"):
        if key not in obj:
            raise ValueError(f"tiling is missing '{key}'")
    if not isinstance(obj["bricks"], list) or not isinstance(obj["placements"], list):
        raise ValueError("tiling 'bricks' and 'placements' must be lists")
    return Tiling(
        bricks=tuple(brick_from_obj(b) for b in obj["bricks"]),
        placements=tuple(placement_from_obj(p) for p in obj["placements"]),
        box=box_from_obj(obj["box"]),
    )


# ---------------------------------------------------------------------------
# Certificates and decisions
# ---------------------------------------------------------------------------


def certificate_to_obj(cert: SplitCertificate) -> dict:
    return {
        "axis": cert.axis + 1,
        "m": cert.m,
        "n": cert.n,
        "cut": format_rational(cert.cut),
        "left_brick": 0,
        "right_brick": 1,
    }


def certificate_from_obj(obj: Any) -> SplitCertificate:
    if not isinstance(obj, dict):
        raise ValueError("certificate must be an object")
    try:
        axis = obj["axis"]
        m, n = obj["m"], obj["n"]
        cut = parse_rational(obj["cut"])
        left, right = obj["left_brick"], obj["right_brick"]
    except KeyError as exc:
        raise ValueError(f"certificate is missing {exc}") from exc
    if not isinstance(axis, int) or axis < 1:
        raise ValueError("certificate axis must be a 1-based integer")
    for v in (m, n, left, right):
        if not isinstance(v, int) or v < 0:
            raise ValueError("certificate counts and indices must be nonnegative integers")
    if (left, right) != (0, 1):
        raise ValueError("certificate must put brick 0 left of the cut and brick 1 right")
    return SplitCertificate(axis=axis - 1, m=m, n=n, cut=cut)


def witness_to_obj(v: KeyObservationViolation, w: KeyObservationWitness) -> dict:
    # A witness point never lies in the unit box's zero set Z
    # (key_observation_witness raises otherwise), so "in_Z" is always false.
    return {"i": v.i + 1, "j": v.j + 1, "point": _rational_list(w.point), "in_Z": False}


def decision_to_obj(outcome: DecisionOutcome) -> dict:
    return {
        "tileable": outcome.tileable,
        "certificate": (
            certificate_to_obj(outcome.certificate) if outcome.certificate else None
        ),
        "obstruction": (
            witness_to_obj(outcome.obstruction, outcome.witness)
            if outcome.obstruction
            else None
        ),
        "reason": outcome.reason,
    }


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def verify_outcome_to_obj(outcome: VerifyOutcome) -> dict:
    obj: dict = {"status": outcome.status}
    if outcome.witness is not None:
        if outcome.status == "overlap":
            obj["witness"] = list(outcome.witness)
        else:
            obj["witness"] = _rational_list(outcome.witness)
    return obj


def spectral_report_to_obj(report: SpectralReport) -> dict:
    return {
        "samples": report.samples,
        "max_abs_residual": report.max_abs_residual,
        "seed": report.seed,
        "witness": list(report.witness) if report.witness is not None else None,
    }


def nosplit_report_to_obj(report: NoSplitReport) -> list[dict]:
    return [
        {
            "axis": e.axis + 1,
            "alpha": format_rational(e.alpha),
            "left_subset": list(e.left_subset),
            "right_subset": list(e.right_subset),
            "left": "SAT" if e.left_sat else "UNSAT",
            "right": "SAT" if e.right_sat else "UNSAT",
        }
        for e in report.entries
    ]


def instance_to_obj(inst: ThreeBrickInstance) -> dict:
    return {
        "R": inst.R,
        "box": box_to_obj(inst.box),
        "bricks": [brick_to_obj(b) for b in inst.bricks],
    }
