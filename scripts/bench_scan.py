#!/usr/bin/env python3
"""Codewords per second of the exhaustive scans, one JSON line per field,
then the minimum distance past the codeword cap, one JSON line per code.

Times min_weight_exhaustive and weight_distribution_exhaustive, on one
worker, on seeded full-rank generator matrices: per field one code that
is scanned directly (binary [48,23], ternary [30,14], Hermitian
quaternary [30,11]) and one high-rate code scanned through its dual
(binary [40,23], ternary [24,14], Hermitian quaternary [20,12]); the
ternary [30,14], the quaternary [30,11] and the binary [40,23] are the
sizes of the benchmark's distance workload.  Each line gives the scan's
route (enumeration.scan_plan), the q^k codewords it decides, the
codewords it actually weighs, and the codewords decided divided by the
median over rounds of each function's time.

Then times codes.min_weight, default strategy and cap, on seeded codes
with more codewords than the cap (binary [40,30] and [36,28], ternary
[30,18], Hermitian quaternary [30,15]), which Brouwer-Zimmermann decides,
and prints the median milliseconds per call with the answer: d and
whether it is exact, or the best upper bound when the budget ran out.

Last, Brouwer-Zimmermann's work per level, one JSON line per field, on
seeded codes of the benchmark's distance sizes (binary [80,40], ternary
[48,16], Hermitian quaternary [40,12]): d, the deficits of the
information-set chain, the words weighed at each level (every chain
matrix's, one per projective class) and the words weighed per second of
enumeration.min_weight_bz.  The last level weighed is the first whose
words, with those before it, let min_weight_bz finish under that cap.

Last of all, one JSON line for a cap that lands inside a level too large
to hold, which min_weight_bz walks in listing order up to codeword cap +
1: the random binary [120,60] code of default_rng(4023) at cap 2^22,
which crosses inside the first chain matrix's level 5 (C(60,5) =
5,461,512 words), with the best weight seen, the codewords weighed and
the median milliseconds per call.
Takes no options:

    python3 scripts/bench_scan.py
"""

import json
import statistics
import sys
import time
from math import comb
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lcdkit import codes, enumeration, gf, linalg  # noqa: E402

SEED = 2022
ROUNDS = 7
SIZES = [("gf2", 48, 23), ("gf3", 30, 14), ("gf4h", 30, 11), ("gf2", 40, 23), ("gf3", 24, 14), ("gf4h", 20, 12)]
PAST_CAP_SEED = 5
PAST_CAP = [("gf2", 40, 30), ("gf2", 36, 28), ("gf3", 30, 18), ("gf4h", 30, 15)]
BZ_SEED = 37
BZ_SIZES = [("gf2", 80, 40), ("gf3", 48, 16), ("gf4h", 40, 12)]
CROSSING_SEED = 4023
CROSSING = ("gf2", 120, 60, 2**22)  # field, n, k, cap


def generator(field: gf.FieldSpec, n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        G = rng.integers(0, field.order, size=(k, n), dtype=np.uint8)
        if linalg.rank(G, field) == k:
            return G


def median_s(fn) -> float:
    rounds = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        fn()
        rounds.append(time.perf_counter() - t0)
    return statistics.median(rounds)


def codewords_per_s(fn, codewords: int) -> float:
    return round(codewords / median_s(fn))


def distance(C: codes.LinearCode) -> tuple[int | None, bool]:
    try:
        return codes.min_weight(C, threads=1), True
    except codes.BudgetExceeded as exc:
        return exc.best_upper, False


def bz_levels(field: gf.FieldSpec, G: np.ndarray) -> tuple[int, list[int], list[int]]:
    """(d, the chain's deficits, the words weighed at each level) of min_weight_bz on G."""
    q, k = field.order, G.shape[0]
    deficits = [deficit for _mat, _pivots, deficit in enumeration._information_set_chain(field, G)]
    words = []
    for w in range(1, k + 1):
        words.append(len(deficits) * comb(k, w) * (q - 1) ** (w - 1))
        try:
            return enumeration.min_weight_bz(field, G, cap=sum(words)), deficits, words
        except enumeration.BudgetExceeded:
            pass
    raise AssertionError("min_weight_bz did not finish with every level listed")


def budget_exit(field: gf.FieldSpec, G: np.ndarray, cap: int) -> tuple[int | None, int]:
    """(best_upper, steps) of min_weight_bz on G when it stops at ``cap``."""
    try:
        enumeration.min_weight_bz(field, G, cap=cap)
    except enumeration.BudgetExceeded as exc:
        return exc.best_upper, exc.steps
    raise AssertionError(f"min_weight_bz finished within cap {cap}")


def main() -> None:
    rng = np.random.default_rng(SEED)
    for name, n, k in SIZES:
        field = gf.field_by_name(name)
        G = generator(field, n, k, rng)
        codewords = field.order**k
        route, weighed = enumeration.scan_plan(field.order, n, k)
        line = {
            "field": name,
            "n": n,
            "k": k,
            "route": route,
            "codewords": codewords,
            "weighed": weighed,
            "min_weight_codewords_per_s": codewords_per_s(lambda: enumeration.min_weight_exhaustive(field, G), codewords),
            "weight_distribution_codewords_per_s": codewords_per_s(
                lambda: enumeration.weight_distribution_exhaustive(field, G), codewords
            ),
        }
        print(json.dumps(line), flush=True)
    rng = np.random.default_rng(PAST_CAP_SEED)
    for name, n, k in PAST_CAP:
        field = gf.field_by_name(name)
        C = codes.new_code(field, generator(field, n, k, rng))
        d, exact = distance(C)
        line = {
            "field": name,
            "n": n,
            "k": k,
            "codewords": field.order**k,
            "cap": enumeration.DEFAULT_CAPS[field.order],
            "min_weight_ms": round(1e3 * median_s(lambda: distance(C)), 2),
            "d": d,
            "exact": exact,
        }
        print(json.dumps(line), flush=True)
    rng = np.random.default_rng(BZ_SEED)
    for name, n, k in BZ_SIZES:
        field = gf.field_by_name(name)
        G = generator(field, n, k, rng)
        d, deficits, words = bz_levels(field, G)
        line = {
            "field": name,
            "n": n,
            "k": k,
            "d": d,
            "deficits": deficits,
            "words_per_level": words,
            "words_per_s": round(sum(words) / median_s(lambda: enumeration.min_weight_bz(field, G))),
        }
        print(json.dumps(line), flush=True)
    name, n, k, cap = CROSSING
    field = gf.field_by_name(name)
    G = np.random.default_rng(CROSSING_SEED).integers(0, field.order, (k, n)).astype(np.uint8)
    best_upper, steps = budget_exit(field, G, cap)
    line = {
        "field": name,
        "n": n,
        "k": k,
        "cap": cap,
        "best_upper": best_upper,
        "steps": steps,
        "min_weight_bz_ms": round(1e3 * median_s(lambda: budget_exit(field, G, cap)), 2),
    }
    print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
