#!/usr/bin/env python3
"""Per-call cost of the small-code algebra, one JSON line per field.

Times rref, rank, nullspace, gram, codeword_tables and
min_weight_exhaustive on seeded full-rank generator matrices of every
size in the benchmark's algebra grid (4 <= n <= 12, 1 <= k <= min(6, n - 1)),
and prints the median over rounds of the microseconds per call, taken
over all sizes.  Takes no options:

    python3 scripts/bench_linalg.py
"""

import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lcdkit import enumeration, gf, linalg  # noqa: E402

SEED = 2022
ROUNDS = 7
REPEATS = 20  # passes over every matrix per round


def matrices(field: gf.FieldSpec, rng: np.random.Generator) -> list[np.ndarray]:
    out = []
    for n in range(4, 13):
        for k in range(1, min(6, n - 1) + 1):
            while True:
                G = rng.integers(0, field.order, size=(k, n), dtype=np.uint8)
                if linalg.rank(G, field) == k:
                    out.append(G)
                    break
    return out


def us_per_call(fn, args: list) -> float:
    rounds = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        for _ in range(REPEATS):
            for a in args:
                fn(a)
        rounds.append((time.perf_counter() - t0) / (REPEATS * len(args)))
    return round(statistics.median(rounds) * 1e6, 2)


def main() -> None:
    rng = np.random.default_rng(SEED)
    for name in ("gf2", "gf3", "gf4h"):
        field = gf.field_by_name(name)
        mats = matrices(field, rng)
        grams = [linalg.gram(G, field) for G in mats]
        line = {
            "field": name,
            "matrices": len(mats),
            "rref_us": us_per_call(lambda M: linalg.rref(M, field), mats),
            "rank_us": us_per_call(lambda M: linalg.rank(M, field), grams),
            "nullspace_us": us_per_call(lambda M: linalg.nullspace(M, field), mats),
            "gram_us": us_per_call(lambda M: linalg.gram(M, field), mats),
            "codeword_tables_us": us_per_call(lambda M: enumeration.codeword_tables(field, M), mats),
            "min_weight_exhaustive_us": us_per_call(lambda M: enumeration.min_weight_exhaustive(field, M), mats),
        }
        print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
