#!/usr/bin/env python3
"""Time of each stage of the extension search, one JSON line per case.

Runs construct.search_extend, method 1, on the benchmark's search workload
shapes (its inputs at seed 1: the t_19_6_9 exhaustive and sampled searches,
a Hermitian quaternary [14,6] exhaustive one and a binary [70,10] sampled
one), on a Hermitian quaternary [18,8] exhaustive search where 134,095
candidates tie at d(C), and on a sampled search from a Hermitian quaternary
[24,14,7] code, whose 4^14 codewords are past the default cap (grown from a
double-circulant [22,11,8] code, punctured once and extended three times by
method 1).  The search's helpers are wrapped with timers, so the stages are
those of the real call:

* draw: the sampled messages (_draw_messages);
* dedupe: the sampled messages keyed by their message numbers, which are
  sorted and deduplicated (enumeration._message_numbers);
* count: the candidate count of an exhaustive search, from the dual's
  weight distribution (_count_candidates);
* distance: d(C) (min_weight);
* scoring: the coset scoring (_best_scores);
* extend: building and checking the extended code;
* build: the rest, i.e. the dual, the candidates' codewords (up to the
  batch where the search stops, or of every distinct sampled number), the
  weight condition and C's coset chain (_coset_chain).

Each time is the median over rounds in ms; the line also gives the
candidate count, ``distinct``, the distinct sampled messages, and
``tied``, the candidates reaching the best score in the batches scored
before the search stops (a batch scored only for a score above the best
so far adds none).  One more, untimed, round counts the coset scorer's
work: ``reduced``, the candidates reduced onto a chain matrix's pivots
(enumeration._reduce), and ``pairs``, the candidate-word distances taken
inside _best_scores (enumeration._distance); ``pairs_per_s`` is pairs
over the median scoring time.

    python3 scripts/bench_search.py
    python3 scripts/bench_search.py --trees A B [--rounds 5]

With --trees, each round runs the bench_search.py of every tree (say a
parent and a changed checkout) in a fresh process, one per tree, and the
order alternates from round to round, so a slow phase of the host hits
both trees alike; separate invocations of one tree can move by 2x.  It
then prints one line per tree and case: the medians over rounds of the
tree's ``*_ms`` times and its answers.
"""

import argparse
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "scripts")]

import inputs  # noqa: E402
import interleave  # noqa: E402
import refalg  # noqa: E402

from lcdkit import construct, corpus, enumeration, gf  # noqa: E402
import numpy as np  # noqa: E402

from lcdkit.codes import new_code, parse_vector, puncture  # noqa: E402

SEED = 1
ROUNDS = 5

# helper -> stage; each is looked up as a module attribute by search_extend
TIMED = [
    (construct, "_draw_messages", "draw"),
    (enumeration, "_message_numbers", "dedupe"),
    (construct, "_count_candidates", "count"),
    (construct, "min_weight", "distance"),
    (construct, "_best_scores", "scoring"),
    (construct, "extend", "extend"),
]


# (module, attribute) of each helper that counted wraps: the scorer, the
# pivot reduction, and the distance taken inside the scorer
SCORER, REDUCER, DISTANCE = COUNTED = [(construct, "_best_scores"), (enumeration, "_reduce"), (enumeration, "_distance")]


def cases():
    def lcd(tag_seed, tag, field, k, n):
        return new_code(gf.field_by_name(field), inputs.lcd(inputs.rng_for(tag_seed, tag), refalg.FIELDS[field], k, n))

    def gf4h_24_14():
        a = parse_vector(gf.GF4H, "1wW0010w01w")  # first row of the circulant A in [I | A]
        A = np.array([np.roll(a, i) for i in range(11)])
        C = puncture(new_code(gf.GF4H, np.hstack([np.eye(11, dtype=np.uint8), A])), (0,))
        for _ in range(3):
            C = construct.search_extend(C, construct.M1, budget=2**16, seed=0).code
        return C

    t19 = corpus.resolve_code("t_19_6_9")
    sample = int(inputs.rng_for(SEED, "search.sample").integers(2**31))
    return [
        ("t_19_6_9.m1.exhaustive", t19, 3**13, sample),
        ("t_19_6_9.m1.sampled", t19, 50_000, sample),
        ("gf4h_14_6.m1.exhaustive", lcd(SEED, "search.gf4h_14_6", "gf4h", 6, 14), 4**8, sample),
        ("gf2_70_10.m1.sampled", lcd(SEED, "search.gf2_70_10", "gf2", 10, 70), 4_000, sample),
        ("gf4h_18_8.m1.exhaustive", lcd(5, "x", "gf4h", 8, 18), 4**10, 0),
        ("gf4h_24_14.m1.sampled", gf4h_24_14(), 2**10, 0),
    ]


@contextmanager
def patched(wrappers):
    """Replace each (module, attribute) with wrap(original) for the duration."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in wrappers]
    for (mod, attr, wrap), (_, _, fn) in zip(wrappers, saved):
        setattr(mod, attr, wrap(fn))
    try:
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def timed(spent: dict, seen: dict):
    """Wrap each TIMED helper so its time adds to its stage and its (arguments, result) pairs are listed in ``seen``."""

    def wrap(attr, stage):
        def wrapper(fn):
            def timer(*args, **kwargs):
                t0 = time.perf_counter()
                out = fn(*args, **kwargs)
                spent[stage] = spent.get(stage, 0.0) + time.perf_counter() - t0
                seen.setdefault(attr, []).append((args, out))
                return out

            return timer

        return wrapper

    return patched([(mod, attr, wrap(attr, stage)) for mod, attr, stage in TIMED])


def counted(work: dict):
    """Count the candidates _reduce is given and, inside _best_scores (d(C)
    may scan with it too), the distances _distance returns, into
    work["reduced"] and work["pairs"]."""

    def reduce(fn):
        def call(q, x, link):
            work["reduced"] += x.shape[-1]
            return fn(q, x, link)

        return call

    def distance(fn):
        def call(a, b):
            out = fn(a, b)
            work["pairs"] += out.size
            return out

        return call

    def best_scores(fn):
        def call(*args, **kwargs):
            with patched([(*DISTANCE, distance)]):
                return fn(*args, **kwargs)

        return call

    return patched([(*SCORER, best_scores), (*REDUCER, reduce)])


def main() -> None:
    for name, C, budget, seed in cases():
        rounds = []
        for _ in range(ROUNDS):
            spent, seen = {}, {}
            with timed(spent, seen):
                t0 = time.perf_counter()
                res = construct.search_extend(C, construct.M1, budget=budget, seed=seed)
                total = time.perf_counter() - t0
            spent["build"] = total - sum(spent.values())
            spent["total"] = total
            rounds.append(spent)
        work = {"reduced": 0, "pairs": 0}
        with counted(work):
            construct.search_extend(C, construct.M1, budget=budget, seed=seed)
        line = {"case": name, "field": C.field.name, "n": C.n, "k": C.k, "budget": budget}
        for stage in ("draw", "dedupe", "count", "build", "distance", "scoring", "extend", "total"):
            line[f"{stage}_ms"] = round(1e3 * statistics.median(r.get(stage, 0.0) for r in rounds), 3)
        line["candidates"] = res.candidates
        line["distinct"] = seen["_message_numbers"][0][1].shape[-1] if "_message_numbers" in seen else None
        # a score below the call's least (its last argument) is only an upper bound
        scored = [(score, top) for args, (score, top, _) in seen["_best_scores"] if score >= args[-1]]
        line["tied"] = sum(top.size for score, top in scored if score == res.min_weight)
        line["min_weight"] = res.min_weight
        line.update(work)
        line["pairs_per_s"] = round(work["pairs"] / statistics.median(r["scoring"] for r in rounds))
        print(json.dumps(line), flush=True)


def interleaved(trees: list[Path], rounds: int) -> None:
    """The --trees mode: this script in every tree, alternating fresh
    processes (interleave.interleaved); one JSON line per tree and case."""
    interleave.interleaved("bench_search.py", trees, rounds, "case", "_ms", ("candidates", "min_weight"))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Time of each stage of the extension search.")
    parser.add_argument("--trees", nargs="+", type=Path, help="checkouts to run in alternating fresh processes")
    parser.add_argument("--rounds", type=int, default=5, help="processes per tree with --trees")
    args = parser.parse_args()
    if args.trees:
        interleaved([tree.resolve() for tree in args.trees], args.rounds)
    else:
        main()
