"""Command-line front end.

Subcommands: decide, split, tile, verify, spectral, counterexample, render.
Exit codes: 0 success, 1 negative answer (UNSAT / no certificate / failed
verification, with a JSON body; a counterexample whose check finds a
split), 2 invalid input, 3 budget exhaustion.
Input files are JSON (see docs/formats.md); one that does not parse, or
nests too deeply to parse, is invalid input. Every output goes to the
--output path when one is given, else to stdout. `tile`'s node budget and
the grid cap are set by --node-budget and --grid-cap alone.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Iterable
from pathlib import Path

from . import serialization as ser
from .counterexample import CUT_JUSTIFICATION, make_instance, pinwheel_tiling, proper_split_report
from .exactcover import (
    DEFAULT_GRID_CAP,
    DEFAULT_NODE_BUDGET,
    TIMEOUT,
    GridTooLarge,
    build_cover_problem,
    build_grid,
    cover_matrix_text,
    exact_cover_tileable,
)
from .geometry import BoxSpec, Brick, Tiling, verify_tiling_geometric
from .render import tiling_to_svg
from .spectral import phase_terms, random_frequencies, residual_sample
from .theorem import certificate_to_tiling, decide_two_brick, find_split, one_brick_tiling

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3

#: Most `spectral --samples`; a sample costs about 90 bytes while it is checked.
SAMPLE_CAP = 10**6

#: Most `spectral` samples times the tiling's phase terms per sample
#: (`phase_terms`): 10**9 terms took 6 to 10 seconds on a 2-vCPU host.
WORK_CAP = 10**9


def _positive(value: int, source: str) -> int:
    if value < 1:
        raise ValueError(f"{source} must be at least 1: {value}")
    return value


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except RecursionError as exc:
        raise ValueError(f"JSON nested too deeply: {path}") from exc


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _write(path: str | Path | None, text: str | Iterable[str]) -> None:
    pieces = [text] if isinstance(text, str) else text
    if path:
        with open(path, "w") as out:
            out.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _load_instance(args: argparse.Namespace) -> tuple[BoxSpec, list[Brick]]:
    if args.input and (args.box is not None or args.brick):
        raise ValueError("provide --box and --brick, or --input FILE, not both")
    if args.input:
        obj = _read_json(args.input)
        if not isinstance(obj, dict) or "box" not in obj or "bricks" not in obj:
            raise ValueError("instance file needs 'box' and 'bricks'")
        if not isinstance(obj["bricks"], list):
            raise ValueError("'bricks' must be a list")
        if not obj["bricks"]:
            raise ValueError("'bricks' must be a nonempty list")
        return ser.box_from_obj(obj["box"]), [ser.brick_from_obj(b) for b in obj["bricks"]]
    if not args.box or not args.brick:
        raise ValueError("provide --box and --brick, or --input FILE")
    box = BoxSpec(ser.parse_dims(args.box))
    bricks = [Brick(ser.parse_dims(text)) for text in args.brick]
    return box, bricks


def _load_tiling(args: argparse.Namespace) -> Tiling:
    return ser.tiling_from_obj(_read_json(args.input))


def _emit(args: argparse.Namespace, payload) -> None:
    _write(args.output, _json(payload))


def _require_two(bricks: list[Brick]) -> tuple[Brick, Brick]:
    if len(bricks) != 2:
        raise ValueError("this command needs exactly two --brick arguments")
    return bricks[0], bricks[1]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_decide(args: argparse.Namespace) -> int:
    box, bricks = _load_instance(args)
    a, b = _require_two(bricks)
    outcome = decide_two_brick(box, a, b)
    _emit(args, ser.decision_to_obj(outcome))
    return EXIT_OK if outcome.tileable else EXIT_NEGATIVE


def _cmd_split(args: argparse.Namespace) -> int:
    box, bricks = _load_instance(args)
    a, b = _require_two(bricks)
    cert = find_split(box, a, b)
    _emit(args, ser.certificate_to_obj(cert) if cert else None)
    return EXIT_OK if cert else EXIT_NEGATIVE


def _cmd_tile(args: argparse.Namespace) -> int:
    box, bricks = _load_instance(args)
    grid_cap = _positive(args.grid_cap, "--grid-cap")
    node_budget = _positive(args.node_budget, "--node-budget")
    if args.emit_matrix:
        grid = build_grid(box, bricks, cap=grid_cap)
        _write(args.emit_matrix, cover_matrix_text(build_cover_problem(grid)))
    if args.oracle or len(bricks) >= 3:
        outcome = exact_cover_tileable(box, bricks, grid_cap=grid_cap, node_budget=node_budget)
        if outcome.status == TIMEOUT:
            _emit(args, {"status": "timeout", "nodes": outcome.nodes})
            return EXIT_BUDGET
        tiling = outcome.tiling  # None unless SAT
    elif len(bricks) == 1:
        tiling = one_brick_tiling(box, bricks[0], cap=grid_cap)
    else:
        a, b = bricks
        outcome = decide_two_brick(box, a, b)
        if not outcome.tileable:
            _emit(args, {"status": "unsat", "decision": ser.decision_to_obj(outcome)})
            return EXIT_NEGATIVE
        tiling = certificate_to_tiling(outcome.certificate, box, a, b, cap=grid_cap)
    if tiling is None:
        _emit(args, {"status": "unsat"})
        return EXIT_NEGATIVE
    _write(args.output, ser.tiling_to_json(tiling))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    tiling = _load_tiling(args)
    outcome = verify_tiling_geometric(tiling)
    _emit(args, ser.verify_outcome_to_obj(outcome))
    return EXIT_OK if outcome.ok else EXIT_NEGATIVE


def _cmd_spectral(args: argparse.Namespace) -> int:
    tol = args.tolerance
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"--tolerance must be finite and nonnegative: {tol}")
    if args.samples > SAMPLE_CAP:
        raise GridTooLarge(f"{args.samples} samples, cap is {SAMPLE_CAP}")
    tiling = _load_tiling(args)
    terms = phase_terms(tiling)
    if args.samples * terms > WORK_CAP:
        raise GridTooLarge(f"{args.samples} samples × {terms} terms, cap is {WORK_CAP}")
    points = random_frequencies(tiling.box.dim, args.samples, args.seed, args.bound)
    report = residual_sample(tiling, points, seed=args.seed)
    _emit(args, ser.spectral_report_to_obj(report))
    if tol is not None and report.max_abs_residual > tol:
        return EXIT_NEGATIVE
    return EXIT_OK


def _cmd_counterexample(args: argparse.Namespace) -> int:
    inst = make_instance(args.R)
    tiling = pinwheel_tiling(inst)
    grid_cap = _positive(args.grid_cap, "--grid-cap")
    report = proper_split_report(inst.box, inst.bricks, grid_cap=grid_cap)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write(outdir / "instance.json", _json(ser.instance_to_obj(inst)))
    _write(outdir / "tiling.json", ser.tiling_to_json(tiling))
    _write(outdir / "tiling.svg", tiling_to_svg(tiling))
    _write(outdir / "nosplit.json", _json(ser.nosplit_report_to_obj(report)))
    _print_nosplit_summary(inst, report)
    return EXIT_OK if report.no_split else EXIT_NEGATIVE


def _print_nosplit_summary(inst, report) -> None:
    print(f"three-brick family R={inst.R}: box {inst.R + 1}x{inst.R + 1}")
    print(f"cases decided: {len(report.entries)} (axis x cut x ordered subset pair)")
    print(f"{'axis':>4} {'cut':>5} {'both-SAT':>9} {'left-SAT':>9} {'right-SAT':>10}")
    seen: dict[tuple[int, object], list[int]] = {}
    for e in report.entries:
        key = (e.axis, e.alpha)
        row = seen.setdefault(key, [0, 0, 0])
        row[0] += e.both_sat
        row[1] += e.left_sat
        row[2] += e.right_sat
    for (axis, alpha), (both, left, right) in seen.items():
        print(f"{axis + 1:>4} {str(alpha):>5} {both:>9} {left:>9} {right:>10}")
    if report.no_split:
        print("verdict: no hyperplane cut admits proper-subset tilings on both sides")
    else:
        e = report.split_found
        print(f"verdict: split found at axis {e.axis + 1}, cut {e.alpha}")
    print(f"note: {CUT_JUSTIFICATION}")


def _cmd_render(args: argparse.Namespace) -> int:
    _write(args.output, tiling_to_svg(_load_tiling(args), scale=args.scale))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_instance_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--box", help="box extents, comma-separated rationals (e.g. 1,1 or 3/2,2)")
    p.add_argument(
        "--brick",
        action="append",
        default=[],
        help="brick extents, comma-separated rationals; repeat once per type",
    )
    p.add_argument("--input", help="instance JSON file with 'box' and 'bricks'")


def _add_grid_cap_option(p: argparse.ArgumentParser, text: str) -> None:
    p.add_argument(
        "--grid-cap", type=int, default=DEFAULT_GRID_CAP, help=f"{text} (default %(default)s)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brickbox",
        description="Decide, construct, and verify tilings of rational boxes by translated bricks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide two-brick tileability, with evidence")
    _add_instance_options(p)
    p.add_argument("--output", help="write the JSON result here instead of stdout")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("split", help="print a split certificate, or null")
    _add_instance_options(p)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("tile", help="construct an explicit tiling")
    _add_instance_options(p)
    _add_grid_cap_option(p, "max grid cells, or theorem-path tiling placements")
    p.add_argument(
        "--node-budget",
        type=int,
        default=DEFAULT_NODE_BUDGET,
        help="max search nodes (default %(default)s)",
    )
    p.add_argument("--oracle", action="store_true", help="force the exact-cover search")
    p.add_argument("--emit-matrix", help="also write the sparse cover matrix to this path")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_tile)

    p = sub.add_parser("verify", help="geometric verification of a tiling file")
    p.add_argument("--input", required=True, help="tiling JSON file")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("spectral", help="sampled frequency-identity residuals of a tiling file")
    p.add_argument("--input", required=True, help="tiling JSON file")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=float, default=10.0, help="sample from [-bound, bound]^d")
    p.add_argument("--tolerance", type=float, help="exit 1 when the max residual exceeds this")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_spectral)

    p = sub.add_parser("counterexample", help="emit and check a three-brick no-split instance")
    p.add_argument("--R", type=int, required=True, help="family parameter, an integer >= 4")
    p.add_argument("--output-dir", default=".", help="directory for the emitted files")
    _add_grid_cap_option(
        p, "max cells of the box's grid, whose unit multiples are the cuts it checks"
    )
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("render", help="render a 2-d tiling file as SVG")
    p.add_argument("--input", required=True, help="tiling JSON file")
    p.add_argument("--output", help="SVG path (stdout when omitted)")
    p.add_argument("--scale", type=int, default=100, help="SVG units per length unit")
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GridTooLarge as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OverflowError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
