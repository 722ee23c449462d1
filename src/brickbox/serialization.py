"""Shared JSON schema for all core types.

Rationals travel as canonical "p/q" strings ("3/1" for 3); integer literals
are accepted on input. A rational string follows the one grammar of
`geometry.frac` ("3", "-3/4", "+6/08"; no decimal points or exponents).
Axis indices are 1-based in JSON and 0-based in the API. Parsers validate
shape and raise ValueError on malformed input.

A tiling travels as columns both ways (see `geometry.Placements`): each
distinct offset literal is parsed once, and each distinct offset formatted
once, with no `Placement` built per placement.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Sequence
from fractions import Fraction
from typing import Any

import numpy as np

from .counterexample import NoSplitReport, ThreeBrickInstance
from .geometry import BoxSpec, Brick, Placement, Placements, Tiling, VerifyOutcome, _is_int, frac
from .spectral import KeyObservationWitness, SpectralReport
from .theorem import DecisionOutcome, KeyObservationViolation, SplitCertificate


def format_rational(x: Fraction | int) -> str:
    f = frac(x)
    return f"{f.numerator}/{f.denominator}"


def parse_rational(value: Any) -> Fraction:
    """Parse a "p/q" string or an int literal (never a bool) into a Fraction."""
    try:
        return frac(value)
    except TypeError as exc:
        raise ValueError(f"not a rational literal: {value!r}") from exc


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
    return tuple(map(parse_rational, obj))


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


def placement_from_obj(obj: Any) -> Placement:
    if not isinstance(obj, dict) or "brick" not in obj or "offset" not in obj:
        raise ValueError("placement must be an object with 'brick' and 'offset'")
    if not _is_int(obj["brick"]):
        raise ValueError("placement brick index must be an integer")
    return Placement(obj["brick"], _parse_rational_list(obj["offset"], "offset"))


def _offset_texts(t: Tiling, suffixes: Sequence[str] | None = None) -> list[np.ndarray]:
    # Per axis, each distinct offset formatted once (and its suffix appended).
    suffixes = suffixes or [""] * t.box.dim
    return [
        np.array([format_rational(v) + suffix for v in values], dtype=object)
        for (values, _), suffix in zip(t.placements.axes, suffixes)
    ]


def tiling_to_obj(t: Tiling) -> dict:
    kinds, axes = t.placements.kinds, t.placements.axes
    offsets = zip(*(text[index].tolist() for text, (_, index) in zip(_offset_texts(t), axes)))
    return {
        "box": box_to_obj(t.box),
        "bricks": [brick_to_obj(b) for b in t.bricks],
        "placements": [
            {"brick": k, "offset": list(offset)} for k, offset in zip(kinds.tolist(), offsets)
        ],
    }


# Most placements `tiling_to_json` formats into one piece of text.
_CHUNK = 2**16


def tiling_to_json(t: Tiling) -> Iterator[str]:
    """The text of `json.dumps(tiling_to_obj(t), indent=2)` and a newline.

    It comes in pieces of at most _CHUNK placements, so a large tiling is
    written without building its objects or all of its text at once.
    """
    head = json.dumps(
        {"box": box_to_obj(t.box), "bricks": [brick_to_obj(b) for b in t.bricks], "placements": []},
        indent=2,
    )
    kinds, axes = t.placements.kinds, t.placements.axes
    if not len(kinds):
        yield head + "\n"
        return
    yield head[: -len("[]\n}")] + "[\n"
    # A placement reads: its brick's opening lines, then each offset with
    # the separator that follows it, all at json.dumps's indentation.
    openings = np.array(
        [f'    {{\n      "brick": {k},\n      "offset": [\n        "' for k in range(len(t.bricks))],
        dtype=object,
    )
    texts = _offset_texts(t, ['",\n        "'] * (len(axes) - 1) + ['"\n      ]\n    }'])
    for first in range(0, len(kinds), _CHUNK):
        rows = slice(first, first + _CHUNK)
        items = openings[kinds[rows]]
        for text, (_, index) in zip(texts, axes):
            items = items + text[index[rows]]
        yield (",\n" if first else "") + ",\n".join(items.tolist())
    yield "\n  ]\n}\n"


def _json_columns(placements: list, types: int) -> Placements | None:
    # The columns of well-formed placements, each distinct literal parsed
    # once; None when some placement is malformed, names an unknown brick
    # type or has another length, or some literal fails to parse, so that
    # the per-placement parse reports the first error in order. Only str
    # and exact int literals are keys: True and 1.0 hash and compare equal
    # to 1, and must still reach parse_rational and fail.
    try:
        kinds = [p["brick"] for p in placements]
        offsets = [p["offset"] for p in placements]
    except (TypeError, KeyError):
        return None
    if set(map(type, kinds)) != {int} or min(kinds) < 0 or max(kinds) >= types:
        return None
    widths = set(map(len, offsets)) if set(map(type, offsets)) == {list} else set()
    if len(widths) != 1:
        return None
    axes = []
    for ax in range(widths.pop()):
        column = [o[ax] for o in offsets]
        if not set(map(type, column)) <= {str, int}:
            return None
        at = {literal: k for k, literal in enumerate(dict.fromkeys(column))}
        try:
            values = [parse_rational(literal) for literal in at]
        except ValueError:
            return None
        axes.append((values, np.fromiter(map(at.__getitem__, column), np.intp, len(column))))
    # The kinds are known ints, so they go in as an array, unscanned for bools.
    return Placements(np.array(kinds, dtype=np.intp), axes) if axes else None


def tiling_from_obj(obj: Any) -> Tiling:
    if not isinstance(obj, dict):
        raise ValueError("tiling must be an object")
    for key in ("box", "bricks", "placements"):
        if key not in obj:
            raise ValueError(f"tiling is missing '{key}'")
    if not isinstance(obj["bricks"], list) or not isinstance(obj["placements"], list):
        raise ValueError("tiling 'bricks' and 'placements' must be lists")
    bricks = tuple(brick_from_obj(b) for b in obj["bricks"])
    placements = _json_columns(obj["placements"], len(bricks))
    if placements is None:
        placements = tuple(placement_from_obj(p) for p in obj["placements"])
    return Tiling(bricks=bricks, placements=placements, box=box_from_obj(obj["box"]))


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
    if not _is_int(axis) or axis < 1:
        raise ValueError("certificate axis must be a 1-based integer")
    for v in (m, n, left, right):
        if not _is_int(v) or v < 0:
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
