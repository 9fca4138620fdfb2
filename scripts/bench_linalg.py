#!/usr/bin/env python3
"""Per-call cost of the small-code algebra, one JSON line per field.

Times rref (of the matrix, and of its column-reversed copy, taken as the
Brouwer-Zimmermann chain takes its column-permuted copies), rank, nullspace,
gram, matmul of the Gram shape (k x n times n x k), codeword_tables and
min_weight_exhaustive on seeded full-rank generator matrices of every size in
the benchmark's algebra grid (4 <= n <= 12, 1 <= k <= min(6, n - 1)), and the
queries on the codes they generate: is_lcd and hull on every code, shorten on
the hull pivot set of the codes with 0 < hull dimension < k, project_split
of a seeded vector on the LCD codes, extend by method 1 and by method 2 on
the LCD codes with a seeded nonzero dual vector that passes the method's
weight test, and, on the binary line only, decompose_m1 on the odd-like LCD
codes of dimension at least 2.  It prints the median over rounds of the
microseconds per call, taken over all sizes, and how many codes each
hull-side query ran on.

    python3 scripts/bench_linalg.py
    python3 scripts/bench_linalg.py --trees A B [--rounds 5]

With --trees, each round runs the bench_linalg.py of every tree (say a
parent and a changed checkout) in a fresh process, one per tree, with the
order alternating from round to round (interleave.py), and prints one line
per tree and field: the medians over rounds of the tree's ``*_us`` times
and its code counts.
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]

import interleave  # noqa: E402
from lcdkit import codes, construct, enumeration, gf, linalg  # noqa: E402

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


def extensions(code_list: list, method: str, rng: np.random.Generator) -> list:
    """(C, x) for each LCD code with a nonzero dual vector x that passes the
    method's weight test, the first of 20 seeded draws to do so."""
    out = []
    for C in code_list:
        if not codes.is_lcd(C):
            continue
        D = codes.dual(C).generator  # k < n on the grid, so it has rows
        for _ in range(20):
            x = linalg.matmul(C.field, rng.integers(0, C.field.order, size=(1, D.shape[0]), dtype=np.uint8), D)[0]
            if x.any() and construct.weight_condition(C.field, method, int((x != 0).sum())):
                out.append((C, x))
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
        reversed_orders = [(G, list(range(G.shape[1] - 1, -1, -1))) for G in mats]
        code_list = [codes.new_code(field, G) for G in mats]
        hulls = [(C, codes.hull(C).pivot_set) for C in code_list]
        shortenable = [(C, T) for C, T in hulls if 0 < len(T) < C.k]
        # a generator of its own, so the matrices stay those of earlier versions
        vectors = np.random.default_rng(SEED).integers(0, field.order, size=(len(mats), 12), dtype=np.uint8)
        splits = [(C, v[: C.n]) for C, v in zip(code_list, vectors) if codes.is_lcd(C)]
        draws = np.random.default_rng(SEED + 1)  # its own generator too
        extended = {method: extensions(code_list, method, draws) for method in (construct.M1, construct.M2)}
        line = {
            "field": name,
            "matrices": len(mats),
            "rref_us": us_per_call(lambda M: linalg.rref(M, field), mats),
            "rref_reversed_us": us_per_call(lambda a: linalg.rref(a[0][:, a[1]], field), reversed_orders),
            "rank_us": us_per_call(lambda M: linalg.rank(M, field), grams),
            "nullspace_us": us_per_call(lambda M: linalg.nullspace(M, field), mats),
            "gram_us": us_per_call(lambda M: linalg.gram(M, field), mats),
            "matmul_us": us_per_call(lambda M: linalg.matmul(field, M, M.T), mats),
            "codeword_tables_us": us_per_call(lambda M: enumeration.codeword_tables(field, M), mats),
            "min_weight_exhaustive_us": us_per_call(lambda M: enumeration.min_weight_exhaustive(field, M), mats),
            "is_lcd_us": us_per_call(codes.is_lcd, code_list),
            "hull_us": us_per_call(codes.hull, code_list),
            "shorten_codes": len(shortenable),
            "shorten_us": us_per_call(lambda a: codes.shorten(*a), shortenable),
            "project_split_codes": len(splits),
            "project_split_us": us_per_call(lambda a: construct.project_split(a[1], a[0]), splits),
        }
        for method, cases in extended.items():
            line[f"extend_{method}_codes"] = len(cases)
            line[f"extend_{method}_us"] = us_per_call(lambda a: construct.extend(a[0], a[1], method), cases)
        if field.order == 2:
            odd_like = [C for C in code_list if C.k > 1 and codes.is_lcd(C) and not codes.is_even_like(C)]
            line["decompose_codes"] = len(odd_like)
            line["decompose_m1_us"] = us_per_call(construct.decompose_m1, odd_like)
        print(json.dumps(line), flush=True)


def interleaved(trees: list[Path], rounds: int) -> None:
    """The --trees mode: this script in every tree, alternating fresh
    processes (interleave.interleaved); one JSON line per tree and field."""
    answers = ("matrices", "shorten_codes", "project_split_codes", "extend_m1_codes", "extend_m2_codes", "decompose_codes")
    interleave.interleaved("bench_linalg.py", trees, rounds, "field", "_us", answers)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Per-call cost of the small-code algebra.")
    parser.add_argument("--trees", nargs="+", type=Path, help="checkouts to run in alternating fresh processes")
    parser.add_argument("--rounds", type=int, default=5, help="processes per tree with --trees")
    args = parser.parse_args()
    if args.trees:
        interleaved([tree.resolve() for tree in args.trees], args.rounds)
    else:
        main()
