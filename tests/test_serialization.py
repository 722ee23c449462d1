"""JSON schema round-trips and format validation."""

import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brickbox import (
    BoxSpec,
    Brick,
    GridTooLarge,
    Placement,
    SplitCertificate,
    Tiling,
    certificate_to_tiling,
    decide_two_brick,
    frac,
    make_instance,
    pinwheel_tiling,
    proper_split_report,
    tiling_to_svg,
)
from brickbox import serialization as ser
from brickbox.cli import main
from brickbox.render import PALETTE
from references import rational_gcd


def test_rational_formatting_is_canonical():
    assert ser.format_rational(F(3)) == "3/1"
    assert ser.format_rational(F(2, 4)) == "1/2"
    assert ser.format_rational(F(-1, 2)) == "-1/2"


def test_rational_parsing_accepts_strings_and_ints():
    assert ser.parse_rational("3/4") == F(3, 4)
    assert ser.parse_rational("7") == F(7)
    assert ser.parse_rational(7) == F(7)
    assert ser.parse_rational(" -6/08\n") == F(-3, 4)
    assert ser.parse_rational("+0/5") == 0
    # Only sign, ASCII digits and "/" with a nonzero denominator: decimal
    # and exponent forms (which Fraction would expand, "1e10000000" for
    # seconds), underscores, other digits and signed denominators fail.
    for bad in (
        "1/0", "1/00", "x", 1.5, True, None, [1], "", "+", "/2", "1/", "1 / 2",
        "1.5", "1e3", "1E3", "1e10000000", "1_000", "\u0661\u0662", "\uff11", "1/-2",
        "1/+2", "0x10", "inf", "nan",
    ):
        with pytest.raises(ValueError):
            ser.parse_rational(bad)
    with pytest.raises(ValueError, match="not a rational number"):
        ser.parse_rational("9" * 5000)  # more digits than int() converts


def test_parse_dims():
    assert ser.parse_dims("1,1") == (F(1), F(1))
    assert ser.parse_dims("3/2, 2") == (F(3, 2), F(2))
    with pytest.raises(ValueError):
        ser.parse_dims("1,,2")


rationals = st.fractions(min_value=F(1, 9), max_value=F(9), max_denominator=9)


@given(rationals)
def test_rational_round_trip(x):
    assert ser.parse_rational(ser.format_rational(x)) == x


@given(st.lists(rationals, min_size=1, max_size=3))
def test_brick_and_box_round_trip(dims):
    brick = Brick(tuple(dims))
    assert ser.brick_from_obj(json.loads(json.dumps(ser.brick_to_obj(brick)))) == brick
    box = BoxSpec(tuple(dims))
    assert ser.box_from_obj(json.loads(json.dumps(ser.box_to_obj(box)))) == box


def test_tiling_round_trip():
    t = pinwheel_tiling(make_instance(4))
    obj = json.loads(json.dumps(ser.tiling_to_obj(t)))
    assert ser.tiling_from_obj(obj) == t


def test_tiling_schema_shape():
    t = pinwheel_tiling(make_instance(4))
    obj = ser.tiling_to_obj(t)
    assert set(obj) == {"box", "bricks", "placements"}
    assert obj["placements"][0] == {"brick": 2, "offset": ["1/1", "1/1"]}
    assert obj["bricks"][0] == {"dims": ["1/1", "4/1"]}


def test_certificate_round_trip_and_axis_base():
    cert = SplitCertificate(axis=1, m=2, n=3, cut=F(5, 7))
    obj = ser.certificate_to_obj(cert)
    assert obj["axis"] == 2  # JSON is 1-based
    assert obj["cut"] == "5/7"
    assert ser.certificate_from_obj(json.loads(json.dumps(obj))) == cert
    with pytest.raises(ValueError):
        ser.certificate_from_obj({"axis": 0, "m": 1, "n": 1, "cut": "1/2", "left_brick": 0, "right_brick": 1})
    with pytest.raises(ValueError):
        ser.certificate_from_obj({"m": 1})
    for obj in (None, [1, 1, 1, "1/2", 0, 1], "1/2"):
        with pytest.raises(ValueError, match="^certificate must be an object$"):
            ser.certificate_from_obj(obj)


def test_certificate_brick_indices_are_fixed():
    # The first brick always fills the slab left of the cut, so the JSON
    # indices are always 0 and 1; any other pair is rejected on input.
    obj = ser.certificate_to_obj(SplitCertificate(axis=0, m=1, n=1, cut=F(1, 4)))
    assert (obj["left_brick"], obj["right_brick"]) == (0, 1)
    for left, right in ((1, 0), (7, 7)):
        with pytest.raises(ValueError, match="brick 0 left of the cut"):
            ser.certificate_from_obj({**obj, "left_brick": left, "right_brick": right})


def test_certificate_rejects_json_booleans():
    obj = {"axis": True, "m": True, "n": False, "cut": "1/2", "left_brick": 0, "right_brick": 1}
    with pytest.raises(ValueError):
        ser.certificate_from_obj(json.loads(json.dumps(obj)))
    valid = ser.certificate_to_obj(SplitCertificate(axis=0, m=1, n=1, cut=F(1, 4)))
    for key in ("axis", "m", "n", "left_brick", "right_brick"):
        for flag in (True, False):
            with pytest.raises(ValueError):
                ser.certificate_from_obj({**valid, key: flag})


def test_decision_serialization():
    box = BoxSpec((1, 1))
    sat = decide_two_brick(box, Brick((F(1, 4), F(1, 2))), Brick((F(1, 2), F(1, 2))))
    obj = ser.decision_to_obj(sat)
    assert obj["tileable"] is True
    assert obj["obstruction"] is None
    unsat = decide_two_brick(box, Brick((F(2, 5), F(1, 2))), Brick((F(1, 2), F(2, 5))))
    obj = ser.decision_to_obj(unsat)
    assert obj["tileable"] is False
    assert obj["obstruction"] == {"i": 1, "j": 2, "point": ["5/2", "5/2"], "in_Z": False}


def test_nosplit_entries_schema():
    inst = make_instance(4)
    report = proper_split_report(inst.box, inst.bricks)
    entries = ser.nosplit_report_to_obj(report)
    assert len(entries) == 288
    first = entries[0]
    assert set(first) == {"axis", "alpha", "left_subset", "right_subset", "left", "right"}
    assert first["axis"] in (1, 2)
    assert first["left"] in ("SAT", "UNSAT")
    assert json.dumps(entries)  # JSON-serializable as-is


def test_malformed_inputs_are_rejected():
    with pytest.raises(ValueError):
        ser.tiling_from_obj({"box": {"dims": ["1/1"]}})
    with pytest.raises(ValueError):
        ser.tiling_from_obj([1, 2])
    with pytest.raises(ValueError):
        ser.brick_from_obj({"dims": []})
    with pytest.raises(ValueError):
        ser.placement_from_obj({"brick": "0", "offset": ["1/2"]})


# ---------------------------------------------------------------------------
# Differential check of the tiling I/O paths against per-item references
# ---------------------------------------------------------------------------
#
# The references format every rational and parse every literal on its own.
# The library parses each distinct offset literal once per tiling and formats
# each distinct SVG coordinate once per drawing; it must give the same bytes,
# the same Tiling and the same first error.


def reference_format_rational(x):
    f = frac(x)
    return f"{f.numerator}/{f.denominator}"


def reference_tiling_to_obj(t):
    def rationals(values):
        return [reference_format_rational(v) for v in values]

    return {
        "box": {"dims": rationals(t.box.dims)},
        "bricks": [{"dims": rationals(b.dims)} for b in t.bricks],
        "placements": [{"brick": p.brick_index, "offset": rationals(p.offset)} for p in t.placements],
    }


def reference_parse_rational(value):
    if isinstance(value, bool) or isinstance(value, float):
        raise ValueError(f"not a rational literal: {value!r}")
    if isinstance(value, int):
        return F(value)
    if isinstance(value, str):
        return frac(value.strip())
    raise ValueError(f"not a rational literal: {value!r}")


def reference_tiling_from_obj(obj):
    def rationals(values, what):
        if not isinstance(values, list) or not values:
            raise ValueError(f"{what} must be a nonempty list of rationals")
        return tuple(reference_parse_rational(v) for v in values)

    def shape(o, name, cls):
        if not isinstance(o, dict) or "dims" not in o:
            raise ValueError(f"{name} must be an object with a 'dims' list")
        return cls(rationals(o["dims"], f"{name} dims"))

    def placement(o):
        if not isinstance(o, dict) or "brick" not in o or "offset" not in o:
            raise ValueError("placement must be an object with 'brick' and 'offset'")
        if not isinstance(o["brick"], int) or isinstance(o["brick"], bool):
            raise ValueError("placement brick index must be an integer")
        return Placement(o["brick"], rationals(o["offset"], "offset"))

    if not isinstance(obj, dict):
        raise ValueError("tiling must be an object")
    for key in ("box", "bricks", "placements"):
        if key not in obj:
            raise ValueError(f"tiling is missing '{key}'")
    if not isinstance(obj["bricks"], list) or not isinstance(obj["placements"], list):
        raise ValueError("tiling 'bricks' and 'placements' must be lists")
    return Tiling(
        bricks=tuple(shape(b, "brick", Brick) for b in obj["bricks"]),
        placements=tuple(placement(p) for p in obj["placements"]),
        box=shape(obj["box"], "box", BoxSpec),
    )


def _reference_num(x):
    if x.denominator == 1:
        return str(x.numerator)
    return repr(float(x))


def reference_tiling_to_svg(t, scale=100):
    if t.box.dim != 2:
        raise ValueError("only 2-d tilings can be rendered")
    width = t.box.dims[0] * scale
    height = t.box.dims[1] * scale
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_reference_num(width)} {_reference_num(height)}">',
        f'<rect x="0" y="0" width="{_reference_num(width)}" height="{_reference_num(height)}" '
        'fill="#ffffff" stroke="#000000" stroke-width="2"/>',
    ]
    for p in t.placements:
        dims = t.bricks[p.brick_index].dims
        x = p.offset[0] * scale
        y = (t.box.dims[1] - p.offset[1] - dims[1]) * scale
        w = dims[0] * scale
        h = dims[1] * scale
        color = PALETTE[p.brick_index % len(PALETTE)]
        lines.append(
            f'<rect x="{_reference_num(x)}" y="{_reference_num(y)}" width="{_reference_num(w)}" '
            f'height="{_reference_num(h)}" fill="{color}" stroke="#000000" stroke-width="1"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


IO_SEED = 20261018


def _certificate_tiling(rng, d):
    """The certificate tiling of a planted two-brick SAT box with rational extents."""
    a = [F(rng.randint(1, 7), rng.randint(1, 5)) for _ in range(d)]
    b = [x * rng.choice((1, 2, 3, F(1, 2), F(2, 3))) for x in a]
    axis = rng.randrange(d)
    # A multiple of the lcm: both bricks divide it.
    box = [x * y / rational_gcd(x, y) * rng.randint(1, 3) for x, y in zip(a, b)]
    box[axis] = rng.randint(0, 4) * a[axis] + rng.randint(1, 4) * b[axis]
    box, a, b = BoxSpec(box), Brick(a), Brick(b)
    return certificate_to_tiling(decide_two_brick(box, a, b).certificate, box, a, b)


def _mutants(rng, t):
    """The tiling with one placement dropped, duplicated, or shifted inside the box."""
    ps = list(t.placements)
    k = rng.randrange(len(ps))
    p = ps[k]
    ax = rng.randrange(t.box.dim)
    offset = list(p.offset)
    offset[ax] = (t.box.dims[ax] - t.bricks[p.brick_index].dims[ax]) * F(rng.randint(0, 6), 6)
    shifted = Placement(p.brick_index, tuple(offset))
    return [
        Tiling(bricks=t.bricks, placements=tuple(q), box=t.box)
        for q in (ps[:k] + ps[k + 1 :], ps[:k] + [p] + ps[k:], ps[:k] + [shifted] + ps[k + 1 :])
    ]


def _forms(value, malformed):
    """Ways to write one rational in JSON, valid ones first."""
    n, d = value.numerator, value.denominator
    forms = [f"{n}/{d}", f"{2 * n}/{2 * d}", f" {n}/{d}\n", f"{n}/{d:03d}"]
    if d == 1:
        forms += [n, str(n)]
    if malformed:
        forms += [float(value), True, False, None, [f"{n}/{d}"], "x", f"{n}/0"]
        if d == 1:
            forms += [float(n), n == 1]
    return forms


def _rewritten(rng, obj):
    """The tiling JSON with one literal, or one placement, written another way."""
    obj = json.loads(json.dumps(obj))
    placements = obj["placements"]
    roll = rng.random()
    if roll < 0.15 and placements:
        k = rng.randrange(len(placements))
        placements[k] = rng.choice((
            {"brick": True, "offset": placements[k]["offset"]},
            {"brick": "0", "offset": placements[k]["offset"]},
            {"brick": -1, "offset": placements[k]["offset"]},
            {"brick": 9, "offset": placements[k]["offset"]},
            {"brick": 0, "offset": []},
            {"brick": 0, "offset": "1/2"},
            {"brick": 0, "offset": placements[k]["offset"][:-1]},
            {"brick": 0},
            7,
        ))
        return obj
    # Every slot holding one value gets a form drawn afresh, so one file
    # writes that value in several forms ("1/2", "2/4", 0.5, ...).
    slots = [obj["box"]["dims"]] + [b["dims"] for b in obj["bricks"]]
    slots += [p["offset"] for p in placements]
    target = rng.choice([v for slot in slots for v in slot])
    forms = _forms(ser.parse_rational(target), malformed=roll < 0.6)
    for slot in slots:
        for i, v in enumerate(slot):
            if v == target:
                slot[i] = rng.choice(forms)
    return obj


def _parsed(parse, obj):
    try:
        return parse(obj)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_tiling_io_matches_per_item_references_on_seeded_corpus(tmp_path, capsys):
    rng = random.Random(IO_SEED)
    checked = {"svg": 0, "json": 0, "parse": 0, "errors": 0}
    for case in range(120):
        t = _certificate_tiling(rng, 2 + case % 2)
        for u in [t] + _mutants(rng, t):
            text = json.dumps(ser.tiling_to_obj(u))
            assert text == json.dumps(reference_tiling_to_obj(u))
            assert ser.tiling_from_obj(json.loads(text)) == u
            checked["json"] += 1
            if u.box.dim == 2:
                for scale in (rng.choice((1, 7, 100)), 10**6):
                    assert tiling_to_svg(u, scale) == reference_tiling_to_svg(u, scale)
                    checked["svg"] += 1
            for _ in range(3):
                obj = _rewritten(rng, json.loads(text))
                got = _parsed(ser.tiling_from_obj, obj)
                assert got == _parsed(reference_tiling_from_obj, obj), obj
                checked["errors" if isinstance(got, str) else "parse"] += 1
    for x in (3, -4, F(2, 4), "6/8", " 5 "):
        assert ser.format_rational(x) == reference_format_rational(x)
    with pytest.raises(TypeError):  # frac's type gate: a bool is not a rational
        ser.format_rational(True)
    # Every kind of case is exercised many times.
    assert min(checked.values()) >= 150, checked
    # Coordinates past 2**53 are rounded once, from the exact ratio, as
    # float(Fraction) rounds them.
    for _ in range(20):
        t = _certificate_tiling(rng, 2)
        f = F(rng.randint(10**17, 10**18), rng.randint(1, 10**6))
        big = Tiling(
            bricks=tuple(Brick(tuple(c * f for c in b.dims)) for b in t.bricks),
            placements=tuple(
                Placement(p.brick_index, tuple(o * f for o in p.offset)) for p in t.placements
            ),
            box=BoxSpec(tuple(length * f for length in t.box.dims)),
        )
        for scale in (1, 7, 100, 10**6):
            assert tiling_to_svg(big, scale) == reference_tiling_to_svg(big, scale)
    # Offsets far finer than the box and bricks need, which no tiling has,
    # are refused as verify and spectral refuse them (the reference draws).
    fine = Tiling(
        bricks=(Brick((F(1, 2), 1)),),
        placements=(Placement(0, (F(1, 3**50), 0)),),
        box=BoxSpec((1, 1)),
    )
    assert "e-22" in reference_tiling_to_svg(fine)
    with pytest.raises(GridTooLarge, match="refine the integer frame on axis 0"):
        tiling_to_svg(fine)
    path = tmp_path / "fine.json"
    path.write_text(json.dumps(ser.tiling_to_obj(fine)))
    assert main(["render", "--input", str(path)]) == 3
    assert capsys.readouterr() == ("", "budget exhausted: offsets refine the integer frame on axis 0 by more than 2**64\n")
