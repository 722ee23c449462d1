"""Command-line interface: subcommands, exit codes, emitted artifacts."""

import json
from fractions import Fraction

from brickbox import geometry
from brickbox.cli import main
from brickbox.serialization import tiling_to_obj


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
    assert err.startswith("invalid input:")
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
    # tolerance; bound 0 samples only the origin, which checks volume alone.
    half = _half_covered_unit_box(tmp_path)
    for bound in ("inf", "nan", "0", "-1"):
        code, out, err = run(capsys, "spectral", "--input", half, "--bound", bound,
                             "--tolerance", "1e-9")
        assert (code, out) == (2, "")
        assert err.startswith("invalid input:")


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
    code, out, _ = run(
        capsys,
        "tile", "--box", "1,1", "--brick", "2/5,1/2", "--brick", "1/2,2/5",
        "--oracle", "--node-budget", "2",
    )
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


def test_oracle_timeout_reports_trials_made(capsys):
    # no prefilter fires on this box, so the search spends the whole budget
    unsat = ["tile", "--box", "1,1", "--brick", "2/5,1/2", "--brick", "1/2,2/5", "--oracle"]
    for budget in (1, 2):
        code, out, _ = run(capsys, *unsat, "--node-budget", str(budget))
        assert code == 3
        assert json.loads(out) == {"status": "timeout", "nodes": budget}


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


def test_budgets_below_one_exit_two(capsys, monkeypatch, tmp_path):
    unsat = ["tile", "--box", "1,1", "--brick", "2/5,1/2", "--brick", "1/2,2/5", "--oracle"]
    code, out, err = run(capsys, *unsat, "--grid-cap", "-1")
    assert (code, out) == (2, "")
    assert err.startswith("invalid input: --grid-cap must be at least 1")
    code, out, err = run(capsys, *unsat, "--node-budget", "-5")
    assert (code, out) == (2, "")
    assert err.startswith("invalid input: --node-budget must be at least 1")
    monkeypatch.setenv("BRICKBOX_NODE_BUDGET", "-5")
    code, out, err = run(capsys, *unsat)
    assert (code, out) == (2, "")
    assert err.startswith("invalid input: BRICKBOX_NODE_BUDGET must be at least 1")
    # the theorem path rejects a bad budget too, though it never spends one
    code, _, _ = run(capsys, "tile", "--box", "1,1", "--brick", "1,1", "--brick", "1,1",
                     "--node-budget", "0")
    assert code == 2
    # a budget of 1 is valid: the search spends it and reports a timeout
    monkeypatch.delenv("BRICKBOX_NODE_BUDGET")
    code, out, _ = run(capsys, *unsat, "--node-budget", "1")
    assert code == 3
    assert json.loads(out)["status"] == "timeout"
    # counterexample honours --grid-cap: below 1 is invalid, 3 < 25 cells is a budget
    for cap, expected in (("-5", 2), ("3", 3)):
        code, out, _ = run(capsys, "counterexample", "--R", "4", "--output-dir",
                           str(tmp_path / cap), "--grid-cap", cap)
        assert (code, out) == (expected, "")
        assert not (tmp_path / cap).exists()


def test_node_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("BRICKBOX_NODE_BUDGET", "2")
    code, out, _ = run(
        capsys, "tile", "--box", "1,1", "--brick", "2/5,1/2", "--brick", "1/2,2/5", "--oracle"
    )
    assert code == 3
    assert json.loads(out)["status"] == "timeout"
    monkeypatch.setenv("BRICKBOX_NODE_BUDGET", "not-a-number")
    code, _, err = run(
        capsys, "tile", "--box", "1,1", "--brick", "2/5,1/2", "--brick", "1/2,2/5", "--oracle"
    )
    assert code == 2


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


def test_instance_file_bricks_must_be_a_list(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"box": {"dims": [1, 1]}, "bricks": 5}))
    code, out, err = run(capsys, "decide", "--input", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("invalid input:")
