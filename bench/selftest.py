"""Self-test of the benchmark; run from the checkout root:

    python3 bench/selftest.py

For every workload, on a tiny corpus:
  * `--trace 0` and `--trace 1` exit 0 and end with the result line, naming
    every end-to-end or per-layer metric of BENCHMARK.json with its unit;
  * an injected wrong planted answer makes the run exit nonzero with no
    result line.
Finally, a directory holding only BENCHMARK.json and bench/ (no library)
must make the run fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY = {"decide": 9, "certify": 4, "search": 6, "crosscheck": 12}


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    try:
        obj = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return obj if isinstance(obj, dict) and "metrics" in obj else None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for w in spec["workloads"]:
        name = w["name"]
        base = ["--workload", name, "--seed", "7", "--seconds", "0.2", "--count", str(TINY[name])]
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            proc = run(*base, "--trace", trace)
            res = result_line(proc)
            expected = {m["name"]: m["unit"] for m in declared}
            got = {k: v.get("unit") for k, v in res["metrics"].items()} if res else None
            ok = (
                proc.returncode == 0
                and res is not None
                and set(res) == {"correct", "attempted", "failed", "metrics"}
                and res["correct"] is True
                and res["attempted"] >= 1
                and got == expected
                and all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
            )
            print(f"[{'PASS' if ok else 'FAIL'}] {name} --trace {trace}: every metric with its unit")
            if not ok:
                failures.append(f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr[-1500:]}")
        proc = run(*base, "--trace", "0", "--inject-wrong")
        ok = proc.returncode != 0 and result_line(proc) is None and "WRONG" in proc.stderr
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: injected wrong answer exits {proc.returncode}")
        if not ok:
            failures.append(f"{name} inject: exit {proc.returncode}")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "decide", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    ok = proc.returncode != 0 and result_line(proc) is None
    print(f"[{'PASS' if ok else 'FAIL'}] without the library the run exits {proc.returncode}")
    if not ok:
        failures.append("bare directory run did not fail")
    shutil.rmtree(bare)

    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
