"""Run one workload in this fresh interpreter and print raw measurements.

Started by run.py, once per measurement, so that set-up time and peak
memory belong to this workload alone. The last stdout line is one JSON
object. A wrong answer exits 1 with the contradiction on stderr.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

WARMUP = 3
MIN_SAMPLES = 100  # p90 then has at least ten samples beyond it
# The host's vCPUs switch between a fast and a slow state, about 1.5x apart,
# for seconds to minutes at a time, which no run length averages out. So each
# timed figure is scaled by REF_NS over the current time of a fixed reference
# kernel (exact-Fraction arithmetic, as in the library), measured untimed
# between instances at least every CALIBRATE_EVERY_S. REF_NS is the kernel's
# time on a 2.1 GHz Intel Xeon vCPU under CPython 3.11, so the scaled figures
# read as milliseconds on that host.
REF_NS = 250_000
CALIBRATE_EVERY_S = 0.02
LAYERS = ("theorem", "spectral", "geometry", "exactcover", "counterexample",
          "serialization", "render", "bench")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help="set up, report set-up time, exit")
    p.add_argument("--inject-wrong", action="store_true")
    p.add_argument("--spans", type=Path, default=None)
    return p.parse_args(argv)


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _reference_kernel():
    x = Fraction(0)
    seen = {}
    for i in range(1, 60):
        x += Fraction(i, i + 1)
        seen[i % 7] = x < 3
    return x


def host_scale(tries=3) -> float:
    """REF_NS over the best of `tries` runs of the reference kernel."""
    best = None
    for _ in range(tries):
        t = time.perf_counter_ns()
        _reference_kernel()
        ns = time.perf_counter_ns() - t
        best = ns if best is None else min(best, ns)
    return REF_NS / best


def timed(run, inp, tracer, no_verdict):
    """(output or None, exception or None, nanoseconds) of one instance."""
    out = err = None
    t = time.perf_counter_ns()
    try:
        if tracer is None:
            out = run(inp)
        else:
            with tracer.root("bench.instance"):
                out = run(inp)
    except no_verdict:
        pass
    except Exception as exc:  # counted as a failed, undecided instance
        err = exc
    return out, err, time.perf_counter_ns() - t


def run_loop(items, inputs, run, check, seconds, tracer, no_verdict):
    """Closed loop, one caller: each instance starts when the last one ended.

    With a tracer, each visit also runs the instance untraced, right before
    or right after (alternately), so the tracing overhead is measured on the
    same instances at the same moment. Only the traced run is recorded.
    """
    latencies, scales, visited, plain = [], [], [], []
    undecided = failed = 0
    start = time.perf_counter()
    calibrated = -CALIBRATE_EVERY_S
    k = 0
    while True:
        i = k % len(inputs)
        k += 1
        if time.perf_counter() - calibrated >= CALIBRATE_EVERY_S:
            scale = host_scale()
            calibrated = time.perf_counter()
        for traced in [None] if tracer is None else [k % 2 == 0, k % 2 == 1]:
            if traced is not None:
                (tracer.enable if traced else tracer.disable)()
            out, err, ns = timed(run, inputs[i], tracer if traced else None, no_verdict)
            if traced is False:
                plain.append(ns)
                continue
            latencies.append(ns)
            scales.append(scale)
            visited.append(i)
            if err is not None:
                failed += 1
                if failed <= 3:
                    print(f"instance {i} raised {err!r}", file=sys.stderr)
            if out is None or not check(items[i], out):
                undecided += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and k >= MIN_SAMPLES) or elapsed >= 3 * seconds:
            return latencies, scales, visited, undecided, failed, plain


def end_to_end(latencies, scales, visited, undecided):
    """Throughput and latency percentiles over every timed instance run, each
    scaled to the reference host speed; the unscaled figures ride along.

    The percentiles pool all repeats, as the throughput does; the balanced
    visit order keeps every instance's weight nearly equal."""
    s = sorted(ns * c for ns, c in zip(latencies, scales))
    wall = sorted(latencies)
    p90 = percentile(s, 0.9)
    return {
        "throughput_ips": len(s) / (sum(s) / 1e9),
        "latency_p50_ms": percentile(s, 0.5) / 1e6,
        "latency_p90_ms": p90 / 1e6,
        "wall": {
            "throughput_ips": len(wall) / (sum(wall) / 1e9),
            "latency_p50_ms": percentile(wall, 0.5) / 1e6,
            "latency_p90_ms": percentile(wall, 0.9) / 1e6,
            "host_scale": statistics.median(scales),
        },
        "decided_frac": (len(latencies) - undecided) / len(latencies),
        "samples": len(s),
        "distinct": len(set(visited)),
        "beyond_p90": sum(1 for x in s if x > p90),
    }


def layer_metrics(spans):
    from tracing import by_name, self_times

    g = by_name(spans)

    def calls(name):
        return g.get(name, [])

    def mean_ms(name):
        xs = calls(name)
        return sum(d for d, _ in xs) / len(xs) / 1e6 if xs else 0.0

    def per(name, unit_ns, weight):
        xs = calls(name)
        total = sum(weight(note) for _, note in xs)
        return sum(d for d, _ in xs) / total / unit_ns if total else 0.0

    def mean_note(name, field=lambda note: note):
        xs = calls(name)
        return sum(field(note) for _, note in xs) / len(xs) if xs else 0.0

    m = {"theorem.decide_two_brick_ms": mean_ms("theorem.decide_two_brick")}
    for path in ("sat", "obstruction", "exhausted"):
        ds = [d for d, note in calls("theorem.decide_two_brick") if note == path]
        m[f"theorem.decide_{path}_p50_us"] = statistics.median(ds) / 1e3 if ds else 0.0
    solves = calls("exactcover.solve_exact_cover")
    nodes = sum(n for _, (n, _) in solves)
    reports = calls("counterexample.proper_split_report")
    instances = len(calls("bench.instance"))
    m.update({
        "theorem.find_split_ms": mean_ms("theorem.find_split"),
        "theorem.certificate_to_tiling_ms": mean_ms("theorem.certificate_to_tiling"),
        "theorem.placements": mean_note("theorem.certificate_to_tiling"),
        "geometry.tiling_ms": mean_ms("geometry.Tiling"),
        "geometry.verify_tiling_geometric_ms": mean_ms("geometry.verify_tiling_geometric"),
        "geometry.us_per_placement": per("geometry.verify_tiling_geometric", 1e3, lambda n: n[0]),
        "geometry.rejects": sum(1 for _, (_, ok) in calls("geometry.verify_tiling_geometric") if not ok),
        "spectral.residual_sample_ms": mean_ms("spectral.residual_sample"),
        "spectral.ns_per_point_placement": per("spectral.residual_sample", 1, lambda n: n),
        "spectral.random_frequencies_ms": mean_ms("spectral.random_frequencies"),
        "spectral.key_observation_witness_ms": mean_ms("spectral.key_observation_witness"),
        "exactcover.exact_cover_tileable_ms": mean_ms("exactcover.exact_cover_tileable"),
        "exactcover.solve_exact_cover_ms": mean_ms("exactcover.solve_exact_cover"),
        "exactcover.nodes": nodes / len(solves) if solves else 0.0,
        "exactcover.us_per_node": per("exactcover.solve_exact_cover", 1e3, lambda n: n[0]),
        "exactcover.timeouts": sum(1 for _, (_, hit) in solves if hit),
        "exactcover.wasted_node_frac": (
            sum(n for _, (n, hit) in solves if hit) / nodes if nodes else 0.0
        ),
        "exactcover.build_grid_ms": mean_ms("exactcover.build_grid"),
        "exactcover.cells": mean_note("exactcover.build_grid"),
        "exactcover.build_cover_problem_ms": mean_ms("exactcover.build_cover_problem"),
        "exactcover.rows": mean_note("exactcover.build_cover_problem"),
        "counterexample.proper_split_report_ms": mean_ms("counterexample.proper_split_report"),
        "counterexample.cases": mean_note("counterexample.proper_split_report", lambda n: n[1] / 2),
        "counterexample.memo_hit_frac": (
            sum(n[0] for _, n in reports) / sum(n[1] for _, n in reports) if reports else 0.0
        ),
        "serialization.parse_ms": mean_ms("serialization.parse"),
        "serialization.emit_ms": mean_ms("serialization.emit"),
        "serialization.bytes": (
            sum(n for name in ("serialization.parse", "serialization.emit") for _, n in calls(name))
            / instances
        ),
        "render.tiling_to_svg_ms": mean_ms("render.tiling_to_svg"),
    })
    self_ns = self_times(spans)
    total = sum(d for d, _ in calls("bench.instance"))
    for layer in LAYERS:
        m[f"{layer}.self_frac"] = self_ns.get(layer, 0) / total
    return m


def environment():
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = (Path.cwd() / "src").resolve()
    t = time.perf_counter()
    import brickbox.cli

    brickbox.cli.build_parser()
    import_ms = (time.perf_counter() - t) * 1e3
    if Path(brickbox.__file__).resolve().parent.parent != src:
        print(f"brickbox imported from {brickbox.__file__}, not {src}", file=sys.stderr)
        return 2

    import corpus
    import pipelines
    from reference import Wrong

    items = corpus.make_corpus(args.workload, args.seed, args.count)
    if args.inject_wrong:
        planted = next(item for item in items if item.expect is not None)
        planted.expect = not planted.expect
    prepare, run, check = pipelines.WORKLOADS[args.workload]
    inputs = prepare(items)
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s * host_scale(5), "import_ms": import_ms}
    if args.probe:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(("brickbox", "pipelines"))
        tracer.install(pipelines.traced_targets())
    try:
        for i in range(min(WARMUP, len(inputs))):
            try:
                out = run(inputs[i])
            except pipelines.NO_VERDICT:
                continue
            check(items[i], out)
        if tracer is not None:
            tracer.spans.clear()
        latencies, scales, visited, undecided, failed, plain = run_loop(
            items, inputs, run, check, args.seconds, tracer, pipelines.NO_VERDICT
        )
    except Wrong as exc:
        print(f"WRONG: {exc}", file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
            tracer.disable()

    result.update(end_to_end(latencies, scales, visited, undecided))
    result.update({
        "attempted": len(latencies),
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "corpus": len(items),
        "env": environment(),
    })
    if tracer is not None:
        layers = layer_metrics(tracer.spans)
        mutated = sum(1 for i in visited if items[i].extra.get("mutation"))
        if layers["geometry.rejects"] != mutated:
            print(f"WRONG: {layers['geometry.rejects']} rejects for {mutated} mutated copies",
                  file=sys.stderr)
            return 1
        layers["trace.overhead_frac"] = sum(latencies) / sum(plain) - 1
        result["layers"] = layers
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
