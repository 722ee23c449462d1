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

Rewrite the file after a deliberate output change with

    PYTHONPATH=src python tests/digests.py
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction as F
from pathlib import Path

from brickbox import (
    BoxSpec,
    Brick,
    build_cover_problem,
    build_grid,
    cover_matrix_text,
    exact_cover_tileable,
)
from brickbox.serialization import format_rational, tiling_to_json
from test_geometry import _oracle_case, _three_type_oracle_case

PATH = Path(__file__).with_name("digests.json")

ORACLE_SEED = 20261021
SEARCH_NODE_BUDGET = 10_000
RANDOM_NODE_BUDGET = 2_000

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


CLASSES = {"oracle": (oracle_cases, oracle_hash)}


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
