"""JSON schema round-trips and format validation."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brickbox import (
    BoxSpec,
    Brick,
    SplitCertificate,
    decide_two_brick,
    make_instance,
    pinwheel_tiling,
    proper_split_report,
)
from brickbox import serialization as ser


def test_rational_formatting_is_canonical():
    assert ser.format_rational(F(3)) == "3/1"
    assert ser.format_rational(F(2, 4)) == "1/2"
    assert ser.format_rational(F(-1, 2)) == "-1/2"


def test_rational_parsing_accepts_strings_and_ints():
    assert ser.parse_rational("3/4") == F(3, 4)
    assert ser.parse_rational("7") == F(7)
    assert ser.parse_rational(7) == F(7)
    for bad in ("1/0", "x", 1.5, True, None, [1]):
        with pytest.raises(ValueError):
            ser.parse_rational(bad)


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
