"""Command-line interface: subcommands, exit codes, emitted artifacts."""

import json
import time
from fractions import Fraction

import pytest

from brickbox import (
    ThreeBrickInstance,
    cli,
    geometry,
    make_instance,
    pinwheel_tiling,
    random_frequencies,
)
from brickbox.cli import main
from brickbox.serialization import tiling_to_obj


# A box that no prefilter refutes and on which the frontier automaton gives
# up on both axes: the oracle's budget is the only thing that stops it.
OPEN_BOX = ("tile", "--oracle", "--box", "13,13", "--brick", "4,2", "--brick", "3,1", "--brick", "1,4")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_tileable_exits_zero(capsys):
    code, out, _ = run(capsys, "decide", "--box", "1,1", "--brick", "1/4,1/2", "--brick", "1/2,1/2")
    assert code == 0
    payload = json.loads(out)
    assert payload["tileable"] is True
    assert payload["certificate"]["axis"] == 1


def test_decide_untileable_exits_one_with_witness(capsys):
    code, out, _ = run(capsys, "decide", "--box", "1,1", "--brick", "2/5,1/2", "--brick", "1/2,2/5")
    assert code == 1
    payload = json.loads(out)
    assert payload["tileable"] is False
    assert payload["obstruction"]["point"] == ["5/2", "5/2"]
    # boxes beyond double range still get their exact witness, not a traceback
    for L in (10**200, 10**400):
        code, out, err = run(capsys, "decide", "--box", f"{L},{L}", "--brick", "3,1", "--brick", "1,3")
        assert (code, err) == (1, "")
        assert json.loads(out)["obstruction"]["point"] == [f"{L}/3"] * 2


def test_split_none_exits_one(capsys):
    code, out, _ = run(capsys, "split", "--box", "1,1", "--brick", "2/5,1/2", "--brick", "1/2,2/5")
    assert code == 1
    assert json.loads(out) is None


def test_tile_three_bricks_uses_exact_cover(tmp_path, capsys):
    target = tmp_path / "t.json"
    code, _, _ = run(
        capsys,
        "tile", "--box", "5,5",
        "--brick", "1,4", "--brick", "4,1", "--brick", "3,3",
        "--output", str(target),
    )
    assert code == 0
    tiling = json.loads(target.read_text())
    assert len(tiling["placements"]) == 5

    code, out, _ = run(capsys, "verify", "--input", str(target))
    assert code == 0
    assert json.loads(out)["status"] == "ok"

    code, out, _ = run(capsys, "spectral", "--input", str(target), "--samples", "200",
                       "--seed", "5", "--tolerance", "1e-9")
    assert code == 0
    assert json.loads(out)["max_abs_residual"] < 1e-9


def test_tile_two_bricks_theorem_path(capsys):
    code, out, _ = run(capsys, "tile", "--box", "1,1", "--brick", "1/4,1/2", "--brick", "1/2,1/2")
    assert code == 0
    assert len(json.loads(out)["placements"]) == 8


def test_tile_single_brick(capsys):
    # A single brick tiles as one row-major grid of brick type 0.
    code, out, _ = run(capsys, "tile", "--box", "1,1", "--brick", "1/2,1/2")
    assert code == 0
    tiling = json.loads(out)
    assert tiling["bricks"] == [{"dims": ["1/2", "1/2"]}]
    assert [p["brick"] for p in tiling["placements"]] == [0] * 4
    assert [p["offset"] for p in tiling["placements"]] == [
        ["0/1", "0/1"], ["0/1", "1/2"], ["1/2", "0/1"], ["1/2", "1/2"],
    ]
    code, out, _ = run(capsys, "tile", "--box", "1,3/2,1", "--brick", "1/2,1/2,1/2")
    assert code == 0
    tiling = json.loads(out)
    assert len(tiling["bricks"]) == 1
    assert [p["offset"] for p in tiling["placements"]] == [
        [x, y, z]
        for x in ("0/1", "1/2")
        for y in ("0/1", "1/2", "1/1")
        for z in ("0/1", "1/2")
    ]
    code, _, _ = run(capsys, "tile", "--box", "1,1", "--brick", "2/5,1/2")
    assert code == 1


def test_tile_unsat_exits_one(capsys):
    code, out, _ = run(capsys, "tile", "--box", "1,1", "--brick", "2/5,1/2", "--brick", "1/2,2/5")
    assert code == 1
    assert json.loads(out)["status"] == "unsat"


def test_verify_failing_tiling_exits_one(tmp_path, capsys):
    bad = {
        "box": {"dims": ["1/1", "1/1"]},
        "bricks": [{"dims": ["1/2", "1/1"]}],
        "placements": [{"brick": 0, "offset": ["0/1", "0/1"]}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "verify", "--input", str(path))
    assert code == 1
    assert json.loads(out)["status"] == "volume-mismatch"

    bad["placements"].append({"brick": 0, "offset": ["1/4", "0/1"]})
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "verify", "--input", str(path))
    assert code == 1
    assert json.loads(out) == {"status": "overlap", "witness": [0, 1]}


def test_invalid_input_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, "decide", "--box", "1,1", "--brick", "1/0,1")
    assert code == 2
    assert "invalid input" in err
    code, _, _ = run(capsys, "decide", "--box", "1,1", "--brick", "1/2,1/2")
    assert code == 2  # decide needs exactly two brick types
    code, _, _ = run(capsys, "verify", "--input", "/nonexistent/t.json")
    assert code == 2
    # extents beyond double range cannot be sampled spectrally
    huge = tmp_path / "huge.json"
    code, _, _ = run(capsys, "tile", "--box", f"{10**400},1", "--brick", f"{10**400},1",
                     "--output", str(huge))
    assert code == 0
    code, out, err = run(capsys, "spectral", "--input", str(huge), "--samples", "3")
    assert (code, out) == (2, "")
    assert err == "invalid input: box volume above double range\n"
    # offsets of 3 coordinates in a 2-d box, all alike, reach `Tiling` as columns
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({
        "box": {"dims": ["1", "1"]},
        "bricks": [{"dims": ["1/2", "1"]}],
        "placements": [{"brick": 0, "offset": [o, "0", "0"]} for o in ("0", "1/2")],
    }))
    code, out, err = run(capsys, "verify", "--input", str(wide))
    assert (code, out) == (2, "")
    assert err == "invalid input: placement 0 has 3 coordinates, box has 2\n"
    # so can volumes outside it: these boxes are half empty, but as floats
    # the volume and the residual would read 0.0 (below) or NaN (above)
    half_empty = tmp_path / "half_empty.json"
    for box_dims in (
        (Fraction(1, 10**400), 1),
        (Fraction(1, 10**200), Fraction(1, 10**200)),
        (10**200, 10**200),
    ):
        half_empty.write_text(json.dumps(tiling_to_obj(geometry.Tiling(
            bricks=(geometry.Brick((Fraction(box_dims[0]) / 2, box_dims[1])),),
            placements=(geometry.Placement(0, (0, 0)),),
            box=geometry.BoxSpec(box_dims),
        ))))
        code, out, _ = run(capsys, "verify", "--input", str(half_empty))
        assert (code, json.loads(out)["status"]) == (1, "volume-mismatch")
        code, out, err = run(capsys, "spectral", "--input", str(half_empty), "--tolerance", "1e-9")
        assert (code, out) == (2, "")
        assert err.startswith("invalid input:")


def test_exponent_extents_exit_two_at_once(capsys, tmp_path):
    # Fraction("1e100000000") would build a 10**100000000 numerator; the
    # rational grammar has no exponent form, so the input is refused at once.
    tiling = tmp_path / "exponent.json"
    tiling.write_text(
        '{"box": {"dims": ["1e100000000", "1"]}, "bricks": [{"dims": ["1", "1"]}], '
        '"placements": []}'
    )
    for argv in (
        ("decide", "--box", "1e100000000,1", "--brick", "1,1", "--brick", "1,1"),
        ("verify", "--input", str(tiling)),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert "not a rational number: '1e100000000'" in err


def _half_covered_unit_box(tmp_path):
    path = tmp_path / "half.json"
    path.write_text(json.dumps(tiling_to_obj(geometry.Tiling(
        bricks=(geometry.Brick((Fraction(1, 2), 1)),),
        placements=(geometry.Placement(0, (0, 0)),),
        box=geometry.BoxSpec((1, 1)),
    ))))
    return str(path)


def test_spectral_bound_must_be_finite_and_positive(capsys, tmp_path):
    # An infinite or NaN bound makes every residual NaN, which passes any
    # tolerance, and so does 1.7e308, whose interval is wider than any double;
    # bound 0 samples only the origin, which checks volume alone.
    half = _half_covered_unit_box(tmp_path)
    for bound in ("inf", "nan", "0", "-1", "1.7e308"):
        code, out, err = run(capsys, "spectral", "--input", half, "--bound", bound,
                             "--tolerance", "1e-9")
        assert (code, out) == (2, "")
        assert err.startswith("invalid input:")


def test_spectral_needs_a_positive_sample_count(capsys, tmp_path):
    # A negative count is refused before any draw, and a count of 0 leaves
    # no point to check.
    half = _half_covered_unit_box(tmp_path)
    for samples, message in (("-1", "count must be nonnegative"), ("0", "at least one sample")):
        code, out, err = run(capsys, "spectral", "--input", half, "--samples", samples)
        assert (code, out) == (2, "")
        assert err.startswith("invalid input:") and message in err


def test_spectral_samples_are_capped_before_any_point_is_drawn(capsys, tmp_path, monkeypatch):
    # Each sample costs about 90 bytes; a count over the cap exits 3 before
    # random_frequencies could allocate anything.
    def no_draw(*args):
        raise AssertionError("points drawn above the sample cap")

    monkeypatch.setattr(cli, "random_frequencies", no_draw)
    code, out, err = run(capsys, "spectral", "--input", _half_covered_unit_box(tmp_path),
                         "--samples", str(cli.SAMPLE_CAP + 1))
    assert (code, out) == (3, "")
    assert err == "budget exhausted: 1000001 samples, cap is 1000000\n"


def test_spectral_work_is_capped_before_any_point_is_drawn(capsys, tmp_path, monkeypatch):
    # 1000 unit squares on the diagonal of a 1000 x 1000 box fill a
    # thousandth of their lattice, so each is gathered: 1000 table rows per
    # axis plus 2 factors per square, 4000 terms per sample. Samples times
    # terms over the cap exit 3 once the tiling is read, before
    # random_frequencies could draw anything; at the cap the run goes ahead
    # and keeps its verdict (not a tiling).
    diagonal = tmp_path / "diagonal.json"
    diagonal.write_text(json.dumps(tiling_to_obj(geometry.Tiling(
        bricks=(geometry.Brick((1, 1)),),
        placements=tuple(geometry.Placement(0, (i, i)) for i in range(1000)),
        box=geometry.BoxSpec((1000, 1000)),
    ))))
    diagonal = str(diagonal)
    drawn = []

    def counted(*args):
        drawn.append(args)
        return random_frequencies(*args)

    monkeypatch.setattr(cli, "random_frequencies", counted)
    started = time.perf_counter()
    code, out, err = run(capsys, "spectral", "--input", diagonal, "--samples", "1000000")
    assert time.perf_counter() - started < 2
    assert (code, out, drawn) == (3, "", [])
    assert err == "budget exhausted: 1000000 samples × 4000 terms, cap is 1000000000\n"
    monkeypatch.setattr(cli, "WORK_CAP", 40000)
    code, out, err = run(capsys, "spectral", "--input", diagonal, "--samples", "11")
    assert (code, out, drawn) == (3, "", [])
    assert err == "budget exhausted: 11 samples × 4000 terms, cap is 40000\n"
    code, out, _ = run(capsys, "spectral", "--input", diagonal, "--samples", "10",
                       "--tolerance", "1e-9")
    assert code == 1 and json.loads(out)["samples"] == 10 and len(drawn) == 1


def test_spectral_tolerance_must_be_finite_and_nonnegative(capsys, tmp_path):
    half = _half_covered_unit_box(tmp_path)
    for tolerance in ("nan", "inf", "-1e-9"):
        code, out, err = run(capsys, "spectral", "--input", half, f"--tolerance={tolerance}")
        assert (code, out) == (2, "")
        assert err.startswith("invalid input:")
    code, out, _ = run(capsys, "spectral", "--input", half, "--tolerance", "1e-9")
    assert code == 1 and json.loads(out)["max_abs_residual"] > 1e-9


def test_render_scale_must_be_at_least_one(capsys, tmp_path):
    half = _half_covered_unit_box(tmp_path)
    for scale in ("-5", "0"):
        code, out, err = run(capsys, "render", "--input", half, "--scale", scale)
        assert (code, out) == (2, "")
        assert err.startswith("invalid input:")
    code, out, _ = run(capsys, "render", "--input", half, "--scale", "1")
    assert code == 0 and 'viewBox="0 0 1 1"' in out


def test_tile_theorem_path_placements_obey_the_grid_cap(capsys):
    # 4x4 by unit squares needs 16 placements on both theorem paths.
    for bricks in (["--brick", "1,1", "--brick", "2,2"], ["--brick", "1,1"]):
        code, out, err = run(capsys, "tile", "--box", "4,4", *bricks, "--grid-cap", "15")
        assert (code, out) == (3, "")
        assert err == "budget exhausted: tiling needs 16 placements, cap is 15\n"
        code, out, _ = run(capsys, "tile", "--box", "4,4", *bricks, "--grid-cap", "16")
        assert code == 0 and len(json.loads(out)["placements"]) == 16


def test_budget_exhaustion_exits_three(capsys, monkeypatch, tmp_path):
    code, out, _ = run(capsys, *OPEN_BOX, "--node-budget", "2")
    assert code == 3
    assert json.loads(out)["status"] == "timeout"
    code, _, err = run(
        capsys,
        "tile", "--box", "1,1", "--brick", "2/5,1/2", "--brick", "1/2,2/5",
        "--oracle", "--grid-cap", "50",
    )
    assert code == 3
    assert "budget exhausted" in err
    # verify refuses an arrangement above its cell cap
    tiling = tmp_path / "t.json"
    run(capsys, "tile", "--box", "1,1", "--brick", "1/2,1", "--output", str(tiling))
    monkeypatch.setattr(geometry, "ARRANGEMENT_CAP", 1)
    code, out, err = run(capsys, "verify", "--input", str(tiling))
    assert (code, out) == (3, "")
    assert err.startswith("budget exhausted: arrangement needs 2 cells, cap is 1")
    # verify and spectral refuse offsets far finer than the box and bricks
    refined = tmp_path / "refined.json"
    refined.write_text(json.dumps(tiling_to_obj(geometry.Tiling(
        bricks=(geometry.Brick((1,)),),
        placements=(geometry.Placement(0, (1 - Fraction(1, 2**65),)),),
        box=geometry.BoxSpec((2,)),
    ))))
    for argv in (("verify",), ("spectral", "--samples", "3")):
        code, out, err = run(capsys, *argv, "--input", str(refined))
        assert (code, out) == (3, "")
        assert err == "budget exhausted: offsets refine the integer frame on axis 0 by more than 2**64\n"


def test_oracle_timeout_reports_trials_made(capsys):
    # neither a prefilter nor the frontier automaton settles this box, so
    # the search spends the whole budget
    for budget in (1, 2, 10_000):
        code, out, _ = run(capsys, *OPEN_BOX, "--node-budget", str(budget))
        assert code == 3
        assert json.loads(out) == {"status": "timeout", "nodes": budget}
    # the automaton refutes this one, whatever the budget
    unsat = ["tile", "--box", "1,1", "--brick", "2/5,1/2", "--brick", "1/2,2/5", "--oracle"]
    for budget in (1, 2):
        code, out, _ = run(capsys, *unsat, "--node-budget", str(budget))
        assert (code, json.loads(out)) == (1, {"status": "unsat"})


def test_oracle_refutes_the_search_heavy_tail(capsys):
    # the search takes about 20 s on the first and spends 10 000 trials on
    # the second; the frontier automaton refutes both
    for argv in (
        ["--box", "13,13", "--brick", "6,2", "--brick", "3,5", "--brick", "1,5", "--brick", "1,6"],
        ["--box", "14,14", "--brick", "1,4", "--brick", "4,1", "--node-budget", "10000"],
    ):
        code, out, _ = run(capsys, "tile", "--oracle", *argv)
        assert (code, json.loads(out)) == (1, {"status": "unsat"})


def test_tile_oracle_area_unsat_is_a_verdict(capsys):
    # 169 cells cannot be covered by bars of 4: refuted before any search
    code, out, _ = run(capsys, "tile", "--oracle", "--box", "13,13", "--brick", "1,4", "--brick", "4,1")
    assert code == 1
    assert json.loads(out) == {"status": "unsat"}


def test_tile_oracle_prefilters_run_before_the_grid_cap(capsys):
    bars = ["--brick", "1,4", "--brick", "4,1"]
    # 1001**2 cells exceed the cap, but an odd count is no sum of 4s
    code, out, err = run(capsys, "tile", "--oracle", "--box", "1001,1001", *bars)
    assert (code, json.loads(out), err) == (1, {"status": "unsat"}, "")
    # 1002**2 is a sum of 4s, so the cap decides
    code, out, err = run(capsys, "tile", "--oracle", "--box", "1002,1002", *bars)
    assert (code, out) == (3, "")
    assert err.startswith("budget exhausted: grid needs 1004004 cells, cap is 1000000")


def test_budgets_below_one_exit_two(capsys, tmp_path):
    unsat = ["tile", "--box", "1,1", "--brick", "2/5,1/2", "--brick", "1/2,2/5", "--oracle"]
    code, out, err = run(capsys, *unsat, "--grid-cap", "-1")
    assert (code, out) == (2, "")
    assert err.startswith("invalid input: --grid-cap must be at least 1")
    code, out, err = run(capsys, *unsat, "--node-budget", "-5")
    assert (code, out) == (2, "")
    assert err.startswith("invalid input: --node-budget must be at least 1")
    # the theorem path rejects a bad budget too, though it never spends one
    code, _, _ = run(capsys, "tile", "--box", "1,1", "--brick", "1,1", "--brick", "1,1",
                     "--node-budget", "0")
    assert code == 2
    # a budget of 1 is valid: the search spends it and reports a timeout
    code, out, _ = run(capsys, *OPEN_BOX, "--node-budget", "1")
    assert code == 3
    assert json.loads(out)["status"] == "timeout"
    # counterexample honours --grid-cap: below 1 is invalid, 3 < 25 cells is a budget
    for cap, expected in (("-5", 2), ("3", 3)):
        code, out, _ = run(capsys, "counterexample", "--R", "4", "--output-dir",
                           str(tmp_path / cap), "--grid-cap", cap)
        assert (code, out) == (expected, "")
        assert not (tmp_path / cap).exists()


def test_counterexample_emits_artifacts(tmp_path, capsys):
    code, out, _ = run(capsys, "counterexample", "--R", "4", "--output-dir", str(tmp_path))
    assert code == 0
    for name in ("instance.json", "tiling.json", "tiling.svg", "nosplit.json"):
        assert (tmp_path / name).exists()
    instance = json.loads((tmp_path / "instance.json").read_text())
    assert instance["R"] == 4
    entries = json.loads((tmp_path / "nosplit.json").read_text())
    assert len(entries) == 288
    assert "verdict: no hyperplane cut" in out

    code, _, _ = run(capsys, "counterexample", "--R", "3", "--output-dir", str(tmp_path))
    assert code == 2  # not a family member


def test_counterexample_whose_check_finds_a_split_exits_one(tmp_path, capsys, monkeypatch):
    # R = 3 is outside the family: each 2 x 4 half is filled by the 2 x 2 square.
    monkeypatch.setattr(cli, "make_instance", lambda R: ThreeBrickInstance(3))
    code, out, _ = run(capsys, "counterexample", "--R", "4", "--output-dir", str(tmp_path))
    assert code == 1
    for name in ("instance.json", "tiling.json", "tiling.svg", "nosplit.json"):
        assert (tmp_path / name).stat().st_size > 0
    assert "verdict: split found at axis 1, cut 2\n" in out


def test_render_is_deterministic(tmp_path, capsys):
    target = tmp_path / "t.json"
    run(capsys, "tile", "--box", "5,5", "--brick", "1,4", "--brick", "4,1", "--brick", "3,3",
        "--output", str(target))
    svg1 = tmp_path / "a.svg"
    svg2 = tmp_path / "b.svg"
    assert run(capsys, "render", "--input", str(target), "--output", str(svg1))[0] == 0
    assert run(capsys, "render", "--input", str(target), "--output", str(svg2))[0] == 0
    assert svg1.read_bytes() == svg2.read_bytes()
    body = svg1.read_text()
    assert body.count("<rect") == 6  # box outline + five placements
    assert body.startswith("<svg xmlns=")


def test_tile_emit_matrix(tmp_path, capsys):
    matrix = tmp_path / "matrix.txt"
    code, _, _ = run(
        capsys,
        "tile", "--box", "2,2", "--brick", "1,2", "--brick", "2,1",
        "--oracle", "--emit-matrix", str(matrix),
    )
    assert code == 0
    lines = matrix.read_text().strip().splitlines()
    assert lines[0] == "0 0 1"
    assert len(lines) == 4


def test_exit_codes_conform_on_random_instances(capsys):
    # seeded random instances: decide must exit 0 exactly when tileable,
    # and the oracle-backed tile command must agree
    import random
    from fractions import Fraction as F

    rng = random.Random(77)
    for _ in range(20):
        box = [rng.choice(["1", "3/2", "2"]) for _ in range(2)]
        bricks = []
        for _ in range(2):
            dims = []
            for side in box:
                q = rng.randint(1, 4)
                pmax = int(F(side) * q)
                dims.append(f"{rng.randint(1, pmax)}/{q}")
            bricks.append(",".join(dims))
        argv = ["decide", "--box", ",".join(box), "--brick", bricks[0], "--brick", bricks[1]]
        code, out, _ = run(capsys, *argv)
        tileable = json.loads(out)["tileable"]
        assert code == (0 if tileable else 1)
        argv_tile = ["tile", "--box", ",".join(box), "--brick", bricks[0],
                     "--brick", bricks[1], "--oracle"]
        tile_code, _, _ = run(capsys, *argv_tile)
        assert tile_code == (0 if tileable else 1)


def test_instance_file_input(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "box": {"dims": ["1/1", "1/1"]},
        "bricks": [{"dims": ["1/4", "1/2"]}, {"dims": ["1/2", "1/2"]}],
    }))
    code, out, _ = run(capsys, "decide", "--input", str(path))
    assert code == 0
    assert json.loads(out)["tileable"] is True


def test_instance_file_and_instance_flags_are_refused_together(tmp_path, capsys):
    # Two instances given at once: neither is read, and nothing is answered.
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "box": {"dims": ["1", "1"]},
        "bricks": [{"dims": ["1/4", "1/2"]}, {"dims": ["1/2", "1/2"]}],
    }))
    flags = (["--box", "1,1"], ["--brick", "1,1"], ["--box", "1,1", "--brick", "1,1"])
    for command in ("decide", "split", "tile"):
        assert run(capsys, command, "--input", str(path))[0] == 0
        for extra in flags:
            assert run(capsys, command, "--input", str(path), *extra) == (
                2, "", "invalid input: provide --box and --brick, or --input FILE, not both\n")


def test_grid_cap_help_names_what_each_command_caps(capsys):
    for command, text in (
        ("tile", "theorem-path tiling placements"),
        ("counterexample", "the cuts it checks"),
    ):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert text in help_text
        assert ("theorem-path" in help_text) == (command == "tile")


def test_instance_file_bricks_must_be_a_list(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"box": {"dims": [1, 1]}, "bricks": 5}))
    code, out, err = run(capsys, "decide", "--input", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("invalid input:")
    path.write_text(json.dumps({"box": {"dims": ["1", "1"]}, "bricks": []}))
    for command in ("decide", "tile"):
        code, out, err = run(capsys, command, "--input", str(path))
        assert (code, out, err) == (2, "", "invalid input: 'bricks' must be a nonempty list\n")


_UNIT_SQUARE = {"dims": ["1", "1"]}
_UNIT_CUBE = {"dims": ["1", "1", "1"]}
INVALID_FILES = {
    "instance without box": (
        "tile", {"bricks": [_UNIT_SQUARE]}, "instance file needs 'box' and 'bricks'"),
    "no instance": ("tile", None, "provide --box and --brick, or --input FILE"),
    "brick not an object": (
        "decide", {"box": _UNIT_SQUARE, "bricks": [_UNIT_SQUARE, ["1", "1"]]},
        "brick must be an object with a 'dims' list"),
    "box without dims": (
        "tile", {"box": {"extents": ["1", "1"]}, "bricks": [_UNIT_SQUARE]},
        "box must be an object with a 'dims' list"),
    "tiling bricks not a list": (
        "verify", {"box": _UNIT_SQUARE, "bricks": _UNIT_SQUARE, "placements": []},
        "tiling 'bricks' and 'placements' must be lists"),
    "tiling placements not a list": (
        "spectral", {"box": _UNIT_SQUARE, "bricks": [_UNIT_SQUARE], "placements": {}},
        "tiling 'bricks' and 'placements' must be lists"),
    "3-d render": (
        "render",
        {"box": _UNIT_CUBE, "bricks": [_UNIT_CUBE],
         "placements": [{"brick": 0, "offset": ["0", "0", "0"]}]},
        "only 2-d tilings can be rendered"),
}


@pytest.mark.parametrize("case", INVALID_FILES)
def test_malformed_input_files_exit_two(case, tmp_path, capsys):
    command, obj, message = INVALID_FILES[case]
    argv = [command]
    if obj is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(obj))
        argv += ["--input", str(path)]
    assert run(capsys, *argv) == (2, "", f"invalid input: {message}\n")


@pytest.mark.parametrize("command", ["decide", "split", "tile", "verify", "spectral", "render"])
def test_nested_json_is_invalid_input(command, tmp_path, capsys):
    # Nesting deeper than the JSON parser recurses is refused, not a crash.
    path = tmp_path / "deep.json"
    path.write_text("[" * 5000 + "]" * 5000)
    assert run(capsys, command, "--input", str(path)) == (
        2, "", f"invalid input: JSON nested too deeply: {path}\n")


WRITERS = {
    "decide": ["decide", "--box", "1,1", "--brick", "2/5,1/2", "--brick", "1/2,2/5"],
    "split": ["split", "--box", "1,1", "--brick", "2/5,1/2", "--brick", "3/5,1/2"],
    "tile": ["tile", "--box", "1,1", "--brick", "1/4,1/2", "--brick", "1/2,1/2"],
    "tile --oracle": ["tile", "--box", "2,2", "--brick", "1,2", "--brick", "2,1", "--oracle"],
    "verify": ["verify", "--input", "{tiling}"],
    "spectral": ["spectral", "--input", "{tiling}", "--samples", "20"],
    "render": ["render", "--input", "{tiling}"],
}


@pytest.mark.parametrize("case", WRITERS)
def test_output_file_holds_the_stdout_bytes(case, tmp_path, capsys):
    tiling = tmp_path / "tiling.json"
    tiling.write_text(json.dumps(tiling_to_obj(pinwheel_tiling(make_instance(4)))))
    argv = [arg.format(tiling=tiling) for arg in WRITERS[case]]
    code, out, err = run(capsys, *argv)
    target = tmp_path / "out"
    assert run(capsys, *argv, "--output", str(target)) == (code, "", err)
    assert target.read_bytes() == out.encode()
