"""What one instance of each workload runs, and how its output is checked.

`prepare` turns the corpus into the workload's inputs (setup time);
`run` takes one input through every step of the workload (timed);
`check` compares the output with the planted answer or an independent
reference, raising `Wrong` on a contradiction. It returns True for a
verdict and False for none (node budget hit, grid too large).

All library calls go through module attributes, so the tracer's wrappers
are seen when they are installed.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from brickbox import counterexample, exactcover, geometry, render, spectral, theorem
from brickbox import serialization as ser

from corpus import INSTANCE_SEED, SEARCH_NODE_BUDGET, Item
from reference import (
    check_certificate,
    check_obstruction,
    is_tiling,
    require,
    tiling_placements,
)

SAMPLES = 1000
RESIDUAL_TOL = 1e-9
NO_VERDICT = (exactcover.GridTooLarge, counterexample.BudgetExhausted)


# Serialization steps, kept as functions so the tracer can span them.


def parse_instance(text: str):
    obj = json.loads(text)
    return ser.box_from_obj(obj["box"]), [ser.brick_from_obj(b) for b in obj["bricks"]]


def emit_decision(outcome) -> str:
    return json.dumps(ser.decision_to_obj(outcome))


def emit_tiling(t) -> str:
    return json.dumps(ser.tiling_to_obj(t))


def parse_tiling(text: str):
    return ser.tiling_from_obj(json.loads(text))


def _objects(item: Item):
    return geometry.BoxSpec(item.box), [geometry.Brick(b) for b in item.bricks]


# ---------------------------------------------------------------------------
# decide: parse -> decide_two_brick -> decision_to_obj -> json.dumps
# ---------------------------------------------------------------------------


def decide_prepare(items: list[Item]) -> list[str]:
    return [
        json.dumps(
            {
                "box": {"dims": [str(x) for x in item.box]},
                "bricks": [{"dims": [str(x) for x in b]} for b in item.bricks],
            }
        )
        for item in items
    ]


def decide_run(text: str):
    box, bricks = parse_instance(text)
    return emit_decision(theorem.decide_two_brick(box, *bricks))


def decide_check(item: Item, out: str) -> bool:
    obj = json.loads(out)
    box, (a, b) = item.box, item.bricks
    require(obj["tileable"] == item.expect, f"decide: {item.kind} instance answered {obj}")
    if obj["tileable"]:
        check_certificate(box, a, b, obj["certificate"])
    elif item.kind == "obstruction":
        require(obj["obstruction"] is not None, f"decide: obstruction not reported: {obj}")
        check_obstruction(box, a, b, obj["obstruction"])
    else:
        require(obj["obstruction"] is None, f"decide: spurious obstruction: {obj}")
    return True


# ---------------------------------------------------------------------------
# certify: decide -> certificate_to_tiling -> JSON round trip -> verify
#          geometrically and spectrally -> SVG (d = 2); mutated copies rejected
# ---------------------------------------------------------------------------


def mutate(t, spec):
    """One placement dropped, duplicated or shifted inside the box."""
    kind, where, start_axis = spec
    placements = list(t.placements)
    k = int(where * len(placements))
    if kind == "drop":
        del placements[k]
    elif kind == "duplicate":
        placements.append(placements[k])
    else:
        p = placements[k]
        dims = t.bricks[p.brick_index].dims
        d = len(dims)
        # Some axis has room: the tiling has more than one placement.
        axes = [(start_axis + s) % d for s in range(d)]
        ax = next(ax for ax in axes if dims[ax] < t.box.dims[ax])
        room_up = t.box.dims[ax] - p.offset[ax] - dims[ax]
        step = min(dims[ax] / 2, max(room_up, p.offset[ax]))
        if room_up < step:
            step = -step
        offset = list(p.offset)
        offset[ax] += step
        placements[k] = geometry.Placement(p.brick_index, tuple(offset))
    return geometry.Tiling(bricks=t.bricks, placements=tuple(placements), box=t.box)


def certify_prepare(items: list[Item]):
    return [(*_objects(item), item.extra["mutation"]) for item in items]


def certify_run(inp):
    box, (a, b), spec = inp
    cert = theorem.decide_two_brick(box, a, b).certificate
    built = theorem.certificate_to_tiling(cert, box, a, b)
    t = parse_tiling(emit_tiling(built))
    points = spectral.random_frequencies(box.dim, SAMPLES, seed=len(t.placements))
    out = {
        "cert": cert,
        "built": built,
        "tiling": t,
        "geometric": geometry.verify_tiling_geometric(t),
        "residual": spectral.residual_sample(t, points).max_abs_residual,
    }
    if box.dim == 2:
        out["svg"] = render.tiling_to_svg(t)
    if spec is not None:
        broken = mutate(t, spec)
        out["broken"] = broken
        out["broken_geometric"] = geometry.verify_tiling_geometric(broken)
        out["broken_residual"] = spectral.residual_sample(broken, points).max_abs_residual
    return out


def certify_check(item: Item, out: dict) -> bool:
    box, (a, b) = item.box, item.bricks
    require(item.expect, "certify: planted answer flipped")
    require(out["cert"] is not None, "certify: tileable instance got no certificate")
    check_certificate(box, a, b, ser.certificate_to_obj(out["cert"]))
    t = out["tiling"]
    require(t == out["built"], "certify: tiling changed in the JSON round trip")
    require(is_tiling(box, item.bricks, tiling_placements(t)), "certify: not a tiling")
    require(out["geometric"].ok, f"certify: geometric verifier rejected a tiling: {out['geometric']}")
    require(out["residual"] < RESIDUAL_TOL, f"certify: residual {out['residual']:.3e}")
    if "svg" in out:
        svg = out["svg"]
        require(
            svg.startswith("<svg") and svg.count("<rect") == len(t.placements) + 1,
            "certify: SVG does not draw every placement",
        )
    if "broken" in out:
        broken = tiling_placements(out["broken"])
        require(not is_tiling(box, item.bricks, broken), "certify: mutation left a tiling")
        require(not out["broken_geometric"].ok, f"certify: geometric verifier accepted {item.extra}")
        require(
            out["broken_residual"] >= RESIDUAL_TOL,
            f"certify: spectral verifier accepted {item.extra}: {out['broken_residual']:.3e}",
        )
    return True


# ---------------------------------------------------------------------------
# search: exact_cover_tileable under one node budget
# ---------------------------------------------------------------------------


def search_prepare(items: list[Item]):
    return [_objects(item) for item in items]


def search_run(inp):
    box, bricks = inp
    return exactcover.exact_cover_tileable(box, bricks, node_budget=SEARCH_NODE_BUDGET)


def search_check(item: Item, out) -> bool:
    if out.status == exactcover.TIMEOUT:
        return False
    sat = out.status == exactcover.SAT
    require(sat == item.expect, f"search: {item.kind} instance {item.box} answered {out.status}")
    if sat:
        placements = tiling_placements(out.tiling)
        require(is_tiling(item.box, item.bricks, placements), "search: oracle tiling is wrong")
    return True


# ---------------------------------------------------------------------------
# crosscheck: theorem vs oracle on the acceptance generator, every SAT
# certificate verified; proper_split_report for the three-brick family
# ---------------------------------------------------------------------------


def crosscheck_prepare(items: list[Item]):
    # One frequency sample shared by every certificate, as in the acceptance suite.
    points = spectral.random_frequencies(2, SAMPLES, seed=INSTANCE_SEED)
    return [(item.kind, *_objects(item), points) for item in items]


def crosscheck_run(inp):
    kind, box, bricks, points = inp
    bricks = tuple(bricks)
    if kind == "split-report":
        return counterexample.proper_split_report(box, bricks)
    decision = theorem.decide_two_brick(box, *bricks)
    oracle = exactcover.exact_cover_tileable(box, bricks)
    out = {"decision": decision, "oracle": oracle}
    if decision.tileable:
        t = theorem.certificate_to_tiling(decision.certificate, box, *bricks)
        out["tiling"] = t
        out["geometric"] = geometry.verify_tiling_geometric(t)
        out["residual"] = spectral.residual_sample(t, points).max_abs_residual
    return out


def memo_hits(report) -> tuple[int, int]:
    """(repeated side keys, side decisions) of a split report, from outside."""
    keys = [
        key
        for e in report.entries
        for key in (
            (_side(report.box, e.axis, e.alpha, True), e.left_subset),
            (_side(report.box, e.axis, e.alpha, False), e.right_subset),
        )
    ]
    return len(keys) - len(set(keys)), len(keys)


def _side(box, axis: int, alpha: Fraction, left: bool):
    return tuple(
        (alpha if left else box.dims[ax] - alpha) if ax == axis else box.dims[ax]
        for ax in range(box.dim)
    )


def crosscheck_check(item: Item, out) -> bool:
    box, bricks = item.box, item.bricks
    if item.kind == "split-report":
        R = item.extra["R"]
        require(len(out.entries) == 2 * R * 36, f"split report R={R}: {len(out.entries)} cases")
        require(
            (out.split_found is not None) == item.expect,
            f"split report R={R}: split found = {out.split_found}",
        )
        return True
    decision, oracle = out["decision"], out["oracle"]
    if oracle.status == exactcover.TIMEOUT:
        return False
    require(
        decision.tileable == (oracle.status == exactcover.SAT),
        f"crosscheck: theorem says {decision.tileable}, oracle {oracle.status} on {box} {bricks}",
    )
    if decision.tileable:
        check_certificate(box, *bricks, ser.certificate_to_obj(decision.certificate))
        require(is_tiling(box, bricks, tiling_placements(oracle.tiling)), "crosscheck: oracle tiling")
        require(is_tiling(box, bricks, tiling_placements(out["tiling"])), "crosscheck: certificate tiling")
        require(out["geometric"].ok, "crosscheck: geometric verifier rejected a tiling")
        require(out["residual"] < RESIDUAL_TOL, f"crosscheck: residual {out['residual']:.3e}")
    elif decision.obstruction is not None:
        check_obstruction(box, *bricks, ser.witness_to_obj(decision.obstruction, decision.witness))
    return True


# ---------------------------------------------------------------------------
# Spans recorded by a traced run: (module, attribute, span name, note).
# ---------------------------------------------------------------------------


def _path(args, out):
    return "sat" if out.tileable else ("obstruction" if out.obstruction else "exhausted")


def traced_targets():
    here = sys.modules[__name__]
    return [
        (theorem, "decide_two_brick", "theorem.decide_two_brick", _path),
        (theorem, "find_split", "theorem.find_split", None),
        (theorem, "certificate_to_tiling", "theorem.certificate_to_tiling",
         lambda args, out: len(out.placements)),
        (spectral, "residual_sample", "spectral.residual_sample",
         lambda args, out: len(args[1]) * len(args[0].placements)),
        (spectral, "random_frequencies", "spectral.random_frequencies", None),
        (spectral, "key_observation_witness", "spectral.key_observation_witness", None),
        (geometry, "Tiling", "geometry.Tiling", None),
        (geometry, "verify_tiling_geometric", "geometry.verify_tiling_geometric",
         lambda args, out: (len(args[0].placements), out.ok)),
        (exactcover, "build_grid", "exactcover.build_grid", lambda args, out: out.cell_count),
        (exactcover, "build_cover_problem", "exactcover.build_cover_problem",
         lambda args, out: len(out.rows)),
        (exactcover, "solve_exact_cover", "exactcover.solve_exact_cover",
         lambda args, out: (out.nodes, out.status == exactcover.TIMEOUT)),
        (exactcover, "exact_cover_tileable", "exactcover.exact_cover_tileable", None),
        (counterexample, "proper_split_report", "counterexample.proper_split_report",
         lambda args, out: memo_hits(out)),
        (render, "tiling_to_svg", "render.tiling_to_svg", None),
        (here, "parse_instance", "serialization.parse", lambda args, out: len(args[0])),
        (here, "parse_tiling", "serialization.parse", lambda args, out: len(args[0])),
        (here, "emit_decision", "serialization.emit", lambda args, out: len(out)),
        (here, "emit_tiling", "serialization.emit", lambda args, out: len(out)),
    ]


WORKLOADS = {
    "decide": (decide_prepare, decide_run, decide_check),
    "certify": (certify_prepare, certify_run, certify_check),
    "search": (search_prepare, search_run, search_check),
    "crosscheck": (crosscheck_prepare, crosscheck_run, crosscheck_check),
}
