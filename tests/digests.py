"""Seeded output digests: exact outputs over fixed corpora, one class each.

Each class is a fixed, seeded list of cases. A case's hash covers exact
outputs only, so a change that claims identical outputs must leave every
hash alone, and one that means to change an output rewrites the file and
names the class. `digests.json` keeps, per class, one digest over its case
hashes plus the per-case list, so a failure names the first case that
changed (`tests/test_digests.py`).

Classes:

* oracle: `exact_cover_tileable` on the `search` catalogue of
  `bench/corpus.py` at scale 1 (under its node budget of 10 000), on the
  instances of `_oracle_case` and `_three_type_oracle_case` in
  `tests/test_geometry.py`, and on random instances of 2 to 4 bricks in
  d = 1 to 3. It hashes the status, nodes, `pruned_by`, the tiling's JSON
  text and `cover_matrix_text` of the instance's full cover problem.
* decide: `decide_two_brick` on planted instances of every outcome in
  d = 1 to 4: a proper cut, a single brick, a pairwise-integrality
  obstruction (d >= 2, as it needs two axes) and an exhausted split search
  with L/a log-uniform up to 10**4. It hashes the `decision_to_obj` JSON
  and, for a tileable instance, the JSON text of its certificate's tiling
  (at most 768 placements).
* split report: `brickbox counterexample --R R` for R = 4 to 8, run through
  `cli.main` into a fresh directory. It hashes the exit code, the printed
  summary and the bytes of the four written files (`instance.json`,
  `tiling.json`, `tiling.svg` and `nosplit.json`, the last being the
  `nosplit_report_to_obj` JSON).
* verify: `verify_tiling_geometric` on the tilings of `_certificate_case`,
  `_oracle_case`, `_pinwheel_case` and `_lifted_case` in
  `tests/test_geometry.py`, each followed by its three mutants from
  `_mutant_cases` (one placement dropped, duplicated or shifted). It hashes
  the tiling's JSON text, the `verify_outcome_to_obj` JSON and, for a 2-d
  tiling, the `tiling_to_svg` bytes.
* cli: the CLI smoke inputs of `.github/workflows/tests.yml`, run in order
  through `cli.main` in one fresh directory, with the input files the
  workflow writes. It hashes the exit code, stdout and stderr; for
  `spectral`, whose residual digits depend on the platform, only the exit
  code (the verdict at its tolerance) and stderr. The 600x600 runs and
  `counterexample --R 400` are left out for time: they take seconds
  in-process.

Rewrite the file after a deliberate output change with

    PYTHONPATH=src python tests/digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shlex
import tempfile
from fractions import Fraction as F
from pathlib import Path

from brickbox import (
    BoxSpec,
    Brick,
    build_cover_problem,
    build_grid,
    certificate_to_tiling,
    cover_matrix_text,
    decide_two_brick,
    exact_cover_tileable,
    lift_to_dimension,
    make_instance,
    pinwheel_tiling,
    tiling_to_svg,
    verify_tiling_geometric,
)
from brickbox.cli import main as cli_main
from brickbox.serialization import (
    decision_to_obj,
    format_rational,
    tiling_to_json,
    verify_outcome_to_obj,
)
from test_geometry import (
    _certificate_case,
    _lifted_case,
    _mutant_cases,
    _oracle_case,
    _pinwheel_case,
    _three_type_oracle_case,
)

PATH = Path(__file__).with_name("digests.json")

ORACLE_SEED = 20261021
SEARCH_NODE_BUDGET = 10_000
RANDOM_NODE_BUDGET = 2_000

DECIDE_SEED = 20261029
DECIDE_KINDS = ("proper cut", "single brick", "obstruction", "exhausted")
DECIDE_CASES_PER_KIND = 16
DECIDE_MAX_RATIO = 10**4

# The `search` catalogue of bench/corpus.py, copied so that a change to the
# benchmark does not move this digest: n x n boxes by {p x q, q x p}, then
# the (R+1) x (R+1) pinwheels of 1 x R, R x 1, (R-1) x (R-1) for R = 4..8,
# in d = 2 and lifted to d = 3 by a trailing extent of 1.
BAR_SQUARES = (
    (8, 1, 4), (12, 1, 4), (9, 1, 3), (12, 1, 3), (10, 1, 5), (6, 2, 3),
    (12, 2, 3), (10, 2, 5), (12, 3, 4),
    (6, 1, 4), (10, 1, 4), (14, 1, 4), (6, 3, 4), (18, 3, 4), (12, 1, 8), (12, 1, 9),
    (5, 1, 2), (7, 1, 2), (9, 1, 4), (10, 2, 3), (14, 3, 4), (13, 1, 4), (7, 2, 3), (11, 1, 3),
)
PINWHEEL_R = range(4, 9)

SPLIT_REPORT_R = range(4, 9)
SPLIT_REPORT_FILES = ("instance.json", "tiling.json", "tiling.svg", "nosplit.json")

VERIFY_SEED = 20261032
VERIFY_BUILDERS = (_certificate_case, _oracle_case, _pinwheel_case, _lifted_case)
VERIFY_CASES_PER_BUILDER = 40


def _search_catalogue():
    for n, p, q in BAR_SQUARES:
        yield BoxSpec((n, n)), [Brick((p, q)), Brick((q, p))], SEARCH_NODE_BUDGET
    for d in (2, 3):
        tail = (1,) * (d - 2)
        for R in PINWHEEL_R:
            bricks = [Brick((x, y) + tail) for x, y in ((1, R), (R, 1), (R - 1, R - 1))]
            yield BoxSpec((R + 1, R + 1) + tail), bricks, SEARCH_NODE_BUDGET


def _random_instance(rng: random.Random):
    # A box of a few cells per axis in a seeded rational unit; a brick may
    # be too large for the box on some axis, so that type has no rows.
    d = rng.randint(1, 3)
    unit = [F(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(d)]
    cells = [rng.randint(1, {1: 16, 2: 7, 3: 4}[d]) for _ in range(d)]
    bricks = [
        Brick([u * rng.randint(1, c + 1) for u, c in zip(unit, cells)])
        for _ in range(rng.randint(2, 4))
    ]
    return BoxSpec([u * c for u, c in zip(unit, cells)]), bricks


def oracle_cases():
    """(label, box, bricks, node budget) for every case of the oracle class."""
    for k, (box, bricks, budget) in enumerate(_search_catalogue()):
        yield f"search {k}", box, bricks, budget
    rng = random.Random(ORACLE_SEED)
    for k in range(60):
        t, _ = _oracle_case(rng)
        yield f"oracle_case {k}", t.box, list(t.bricks), RANDOM_NODE_BUDGET
    for k in range(20):
        t, _ = _three_type_oracle_case(rng)
        yield f"three_type_oracle_case {k}", t.box, list(t.bricks), RANDOM_NODE_BUDGET
    for k in range(400):
        yield f"random {k}", *_random_instance(rng), RANDOM_NODE_BUDGET


def _dims(dims) -> str:
    return "x".join(map(format_rational, dims))


def oracle_hash(box: BoxSpec, bricks: list, budget: int) -> str:
    out = exact_cover_tileable(box, bricks, node_budget=budget)
    tiling = "".join(tiling_to_json(out.tiling)) if out.tiling is not None else ""
    matrix = cover_matrix_text(build_cover_problem(build_grid(box, bricks)))
    text = "\n".join([
        f"box {_dims(box.dims)} bricks {' '.join(_dims(b.dims) for b in bricks)}",
        f"{out.status} {out.nodes} {out.pruned_by}",
        tiling,
        matrix,
    ])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _coprime_pair(rng: random.Random, lo: int, hi: int) -> tuple[int, int]:
    while True:
        A, B = rng.randint(lo, hi), rng.randint(lo, hi)
        if A != B and math.gcd(A, B) == 1:
            return A, B


def _decide_instance(rng: random.Random, kind: str, d: int):
    # Box extents are seeded rational units times small counts. Off the
    # planted axis both bricks divide the box (4 or fewer per axis), so a
    # tiling has at most 4**3 placements per layer of the planted axis.
    box = [F(rng.randint(1, 9), rng.randint(1, 7)) * rng.randint(1, 4) for _ in range(d)]
    a = [L / rng.randint(1, 4) for L in box]
    b = [L / rng.randint(1, 4) for L in box]
    k = rng.randrange(d)
    u = box[k] / rng.randint(1, 4)
    if kind == "proper cut":
        # m*A + n*B with 0 < m < B and 0 < n < A: neither brick divides it
        A, B = _coprime_pair(rng, 2, 7)
        m, n = rng.randint(1, B - 1), rng.randint(1, A - 1)
        box[k], a[k], b[k] = (m * A + n * B) * u, A * u, B * u
    elif kind == "single brick":
        # one brick divides the box, the other is any brick that fits
        other = [L * F(rng.randint(1, 5), 5) for L in box]
        a, b = (a, other) if rng.random() < 0.5 else (other, a)
    elif kind == "obstruction":
        # L_i/a_i and L_j/b_j both non-integral on two distinct axes
        i, j = rng.sample(range(d), 2)
        q = rng.randint(2, 7)
        a[i] = box[i] * q / (q * rng.randint(1, 5) + rng.randint(1, q - 1))
        b[j] = box[j] * q / (q * rng.randint(1, 5) + rng.randint(1, q - 1))
    else:
        # a gap of m*A + n*B on axis k: Sylvester's A*B - A - B, or a count
        # that the common factor g of A and B does not divide
        ratio = 2 * (DECIDE_MAX_RATIO / 2) ** rng.random()
        if rng.random() < 0.5:
            A = rng.randint(2, 5)
            B = max(A + 1, round((ratio + 1) * A / (A - 1)))
            while math.gcd(A, B) != 1:
                B += 1
            K = A * B - A - B
        else:
            g = rng.choice((2, 3, 5))
            A1, B1 = _coprime_pair(rng, 1, 4)
            A, B = g * A1, g * B1
            K = max(1, round(ratio * A))
            if K % g == 0:
                K += 1
        box[k], a[k], b[k] = K * u, A * u, B * u
    return BoxSpec(box), Brick(a), Brick(b)


def decide_cases():
    """(label, box, brick a, brick b) for every case of the decide class."""
    rng = random.Random(DECIDE_SEED)
    for d in range(1, 5):
        for kind in DECIDE_KINDS:
            if kind == "obstruction" and d == 1:
                continue
            for k in range(DECIDE_CASES_PER_KIND):
                yield f"{kind} d{d} {k}", *_decide_instance(rng, kind, d)


def decide_hash(box: BoxSpec, a: Brick, b: Brick) -> str:
    out = decide_two_brick(box, a, b)
    tiling = ""
    if out.tileable:
        tiling = "".join(tiling_to_json(certificate_to_tiling(out.certificate, box, a, b)))
    text = "\n".join([
        f"box {_dims(box.dims)} bricks {_dims(a.dims)} {_dims(b.dims)}",
        json.dumps(decision_to_obj(out), indent=2),
        tiling,
    ])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def split_report_cases():
    """(label, R) for every case of the split report class."""
    for R in SPLIT_REPORT_R:
        yield f"R {R}", R


def split_report_hash(R: int) -> str:
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as outdir, contextlib.redirect_stdout(stdout):
        code = cli_main(["counterexample", "--R", str(R), "--output-dir", outdir])
        files = [f"{name}\n{(Path(outdir) / name).read_text()}" for name in SPLIT_REPORT_FILES]
    text = "\n".join([f"exit {code}", stdout.getvalue(), *files])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def verify_cases():
    """(label, tiling) for every case of the verify class."""
    rng = random.Random(VERIFY_SEED)
    for k in range(VERIFY_CASES_PER_BUILDER):
        for build in VERIFY_BUILDERS:
            t, ref = build(rng)
            name = build.__name__.lstrip("_")
            yield f"{name} {k}", t
            for j, (u, _) in enumerate(_mutant_cases(rng, t, ref)):
                yield f"{name} {k} mutant {j}", u


def verify_hash(t) -> str:
    out = verify_tiling_geometric(t)
    svg = tiling_to_svg(t) if t.box.dim == 2 else ""
    text = "\n".join([
        "".join(tiling_to_json(t)),
        json.dumps(verify_outcome_to_obj(out)),
        svg,
    ])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cli_files() -> dict[str, str]:
    # The input files the workflow writes with `python -c` before using them.
    u, v = 10**399 + 1, 10**400 - 3
    box400 = [f"{11*u}/{v}", f"{6*v}/{u}", str(4 * u), str(10 * v)]
    sat400 = [[f"{3*u}/{v}", f"{3*v}/{u}", str(2 * u), str(5 * v)],
              [f"{5*u}/{v}", f"{2*v}/{u}", str(4 * u), str(2 * v)]]
    obs400 = [[f"{3*u}/{v}", f"{4*v}/{u}", str(2 * u), str(5 * v)],
              [f"{5*u}/{v}", f"{2*v}/{u}", str(3 * u), str(2 * v)]]
    half = [{"dims": ["1/2", "1"]}]
    # A 3 x 2 tiling whose last placement sits exactly at L - c on axis 0,
    # and the same with that offset 1/v past it.
    edge = [[f"{i*u}/{v}", f"{j*v}/{u}"] for i in range(3) for j in range(2)]
    past = [*edge[:5], [f"{2*u + 1}/{v}", edge[5][1]]]
    box3x2 = {"dims": [f"{3*u}/{v}", f"{2*v}/{u}"]}
    unit = [{"dims": [f"{u}/{v}", f"{v}/{u}"]}]
    objs = {
        "fine.json": {"box": {"dims": ["1", "1"]}, "bricks": half,
                      "placements": [{"brick": 0, "offset": [f"1/{3**50}", "0"]}]},
        "diag4.json": {"box": {"dims": ["100"] * 4}, "bricks": [{"dims": ["1"] * 4}],
                       "placements": [{"brick": 0, "offset": [str(i)] * 4} for i in range(100)]},
        "sat400.json": {"box": {"dims": box400}, "bricks": [{"dims": d} for d in sat400]},
        "obs400.json": {"box": {"dims": box400}, "bricks": [{"dims": d} for d in obs400]},
        "respelled.json": {
            "box": {"dims": ["1", "1"]}, "bricks": [{"dims": ["1/2", "1/2"]}],
            "placements": [{"brick": 0, "offset": o} for o in (
                ["0", "0"], ["2/4", "0/3"], ["0/3", "1/2"], ["1/2", "2/4"])]},
        "outside.json": {"box": {"dims": ["1", "1"]}, "bricks": half,
                         "placements": [{"brick": 0, "offset": o} for o in (
                             ["0", "0"], ["3/4", "0"], ["0", "0", "0"])]},
        "edge400.json": {"box": box3x2, "bricks": unit,
                         "placements": [{"brick": 0, "offset": o} for o in edge]},
        "past400.json": {"box": box3x2, "bricks": unit,
                         "placements": [{"brick": 0, "offset": o} for o in past]},
        "wide.json": {"box": {"dims": ["1", "1"]}, "bricks": half,
                      "placements": [{"brick": 0, "offset": [o, "0", "0"]} for o in ("0", "1/2")]},
        "inst.json": {"box": {"dims": ["1", "1"]},
                      "bricks": [{"dims": ["1/4", "1/2"]}, {"dims": ["1/2", "1/2"]}]},
    }
    files = {name: json.dumps(obj) for name, obj in objs.items()}
    files["deep.json"] = "[" * 5000 + "]" * 5000
    lift = lift_to_dimension(pinwheel_tiling(make_instance(4)), 40)
    files["lift40.json"] = "".join(tiling_to_json(lift))
    return files


CLI_SMOKE = """
decide --box 1,1 --brick 1/4,1/2 --brick 1/2,1/2
decide --box 1,1 --brick 2/5,1/2 --brick 1/2,2/5
decide --box 7,1 --brick 2,1 --brick 4,1
split --box 1,1 --brick 2/5,1/2 --brick 1/2,2/5
tile --box 1,1 --brick 2/5,1/2 --brick 1/2,2/5
tile --box 5,5 --brick 1,4 --brick 4,1 --oracle
tile --box 10,10 --brick 1,4 --brick 4,1 --oracle
tile --box 14,14 --brick 1,4 --brick 4,1 --oracle --node-budget 10000
tile --box 13,13 --brick 4,2 --brick 3,1 --brick 1,4 --oracle --node-budget 10000
tile --oracle --box 13,13 --brick 6,2 --brick 3,5 --brick 1,5 --brick 1,6
split --box 1,1 --brick 2/5,1/2 --brick 3/5,1/2
tile --box 5,5 --brick 1,4 --brick 4,1 --brick 3,3 --output tiling.json
tile --box 5,5 --brick 1,4 --brick 4,1 --brick 3,3 --emit-matrix m.txt --output t3.json
tile --box 2,3,5 --brick 1,3,2 --brick 3,1,1 --brick 2,1,1 --brick 1,1,3 --oracle --emit-matrix m3.txt --output t3d.json
verify --input t3d.json
verify --input tiling.json
spectral --input tiling.json --samples 1000 --seed 0 --tolerance 1e-9
render --input tiling.json --output tiling.svg
spectral --input tiling.json --samples 1000001
render --input fine.json
verify --input deep.json
spectral --input tiling.json --samples 3 --bound 1.7e308 --tolerance 1e-9
tile --box 200,200 --brick 1,1 --brick 2,2 --output big.json
verify --input big.json
spectral --input big.json --samples 1000 --seed 0 --tolerance 1e-9
render --input big.json --output big.svg
spectral --input diag4.json --tolerance 1e-9
decide --box 1e100000000,1 --brick 1,1 --brick 1,1
decide --input sat400.json
split --input sat400.json
decide --input obs400.json
split --input obs400.json
tile --box 3/2,1 --brick 1/2,1/2
tile --box 4,4 --brick 1,1 --grid-cap 15
tile --box 4,4 --brick 1,1 --brick 2,2 --grid-cap 15
counterexample --R 4 --output-dir out
verify --input lift40.json
verify --input respelled.json
verify --input outside.json
verify --input edge400.json
verify --input past400.json
verify --input wide.json
spectral --input tiling.json --samples -1
spectral --input tiling.json --samples 0
spectral --input tiling.json --samples 1000000 --seed 0 --tolerance 1e-9
decide --input inst.json --box 1,1
"""


def cli_cases():
    """(label, directory, argv) for every case of the cli class, in run order.

    Later cases read files that earlier ones write, so the cases share one
    directory and must run in order.
    """
    with tempfile.TemporaryDirectory() as workdir:
        for name, text in _cli_files().items():
            (Path(workdir) / name).write_text(text)
        for line in CLI_SMOKE.strip().splitlines():
            yield line, workdir, shlex.split(line)


def cli_hash(workdir: str, argv: list[str]) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    here = os.getcwd()
    try:
        os.chdir(workdir)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_main(argv)
    finally:
        os.chdir(here)
    out = "" if argv[0] == "spectral" else stdout.getvalue()
    text = "\n".join([f"exit {code}", out, stderr.getvalue()])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


CLASSES = {
    "oracle": (oracle_cases, oracle_hash),
    "decide": (decide_cases, decide_hash),
    "split report": (split_report_cases, split_report_hash),
    "verify": (verify_cases, verify_hash),
    "cli": (cli_cases, cli_hash),
}


def case_hashes(name: str) -> dict[str, str]:
    """Each case's label and hash for class `name`, in corpus order."""
    cases, digest = CLASSES[name]
    return {label: digest(*case) for label, *case in cases()}


def class_digest(hashes: dict[str, str]) -> str:
    return hashlib.sha256("\n".join(hashes.values()).encode()).hexdigest()


def main() -> None:
    record = {}
    for name in CLASSES:
        hashes = case_hashes(name)
        record[name] = {"digest": class_digest(hashes), "cases": hashes}
    PATH.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
