"""brickbox benchmark: one seeded, closed-loop workload per invocation.

    python3 bench/run.py --workload decide --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ./src.
Each measurement runs in a fresh interpreter (bench/worker.py) with BLAS
pinned to one thread. `--trace 0` prints the end-to-end metrics, `--trace 1`
the per-layer metrics of a traced run next to an untraced one. The last
stdout line is {"correct", "attempted", "failed", "metrics"}; a wrong answer
exits nonzero without it. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
SETUP_PROBES = 6
DEADLINE_S = 170
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS",
)
OUT_DIR = Path(".bench_out")


class WorkerFailed(Exception):
    def __init__(self, code: int):
        self.code = code


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"  # before numpy loads: residual_sample's matmul stays single-threaded
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(args, env, deadline, seconds, *extra) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), *extra,
    ]
    if args.count:
        cmd += ["--count", str(args.count)]
    if args.inject_wrong:
        cmd.append("--inject-wrong")
    proc = subprocess.run(
        cmd, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise WorkerFailed(proc.returncode or 1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parse_args(argv, spec):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    p.add_argument("--seed", type=int, default=20240917)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--count", type=int, default=None, help="corpus size (default per workload)")
    p.add_argument("--inject-wrong", action="store_true",
                   help="flip one planted answer; the run must then fail (self-test)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    args = parse_args(argv, spec)
    root = Path.cwd()
    if not (root / "src" / "brickbox" / "__init__.py").is_file():
        print("bench: run from a checkout root holding src/brickbox", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = child_env(root)
    try:
        # Probes before and after the measurement, so that their median
        # spans the machine's slow and fast spells.
        probes = [worker(args, env, deadline, 0, "--probe") for _ in range(SETUP_PROBES // 2)]
        extra = []
        if args.trace:
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            extra = ["--trace", "1", "--spans", str(spans)]
        main_run = worker(args, env, deadline, args.seconds, *extra)
        probes += [worker(args, env, deadline, 0, "--probe") for _ in range(SETUP_PROBES // 2)]
    except WorkerFailed as exc:
        return exc.code
    except subprocess.TimeoutExpired:
        print("bench: worker ran past the deadline", file=sys.stderr)
        return 3

    if args.trace:
        computed = dict(main_run["layers"])
        computed["cli.import_ms"] = statistics.median(p["import_ms"] for p in probes)
        declared = spec["per_layer"]
    else:
        computed = dict(main_run)
        computed["setup_s"] = statistics.median(
            [p["setup_s"] for p in probes] + [main_run["setup_s"]]
        )
        declared = spec["end_to_end"]
    metrics = {m["name"]: computed[m["name"]] for m in declared}
    units = {m["name"]: m["unit"] for m in declared}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"corpus {main_run['corpus']}  runs {main_run['attempted']}  "
          f"instances timed {main_run['samples']} ({main_run['distinct']} distinct)  "
          f"beyond p90 {main_run['beyond_p90']}")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    if not args.trace:
        print("unscaled wall time: " + "  ".join(f"{k} {v:.6g}" for k, v in main_run["wall"].items()))
    if args.trace:
        layers = {k: v for k, v in metrics.items() if k.endswith(".self_frac")}
        print(f"  largest self time: {max(layers, key=layers.get).split('.')[0]}")
    env_record = main_run["env"]
    print("env " + json.dumps(env_record))
    result = {
        "correct": True,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, env=env_record)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
