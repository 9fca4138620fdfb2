"""Self-test of the answer checks: planted wrong answers must count as failures.

    python3 perfbench/selftest.py

For each workload it plants one wrong expected value (a wrong d, a wrong
search score, a changed reference stdout, a changed reference stderr of a
replay that exits 1) and, on distance, an op that runs out of budget where
an exact answer is expected.  Each must come out as a counted failure that
adds nothing to the completed-op rate or the latency samples.  Only cheap
ops run, so the test takes a few seconds.  Exits 1 if any check lets a
wrong answer through.
"""

import sys

import numpy as np

import run

run.import_program()
sys.path.insert(0, str(run.HERE))

from lcdkit import codes  # noqa: E402

import refalg  # noqa: E402
import workloads  # noqa: E402


def corrupt_search(wl):
    wl.ops = [op for op in wl.ops if op.name == "gf4h_14_6.m1.exhaustive"]
    wl.ops[0].check(wl.ops[0].call())  # fills in the genuine brute-force answer, which passes
    key = "gf4h_14_6.m1.exhaustive.brute"
    wl.expected[key] = dict(wl.expected[key], score=wl.expected[key]["score"] + 1)
    return {"gf4h_14_6.m1.exhaustive"}


def corrupt_distance(wl):
    wl.ops = [op for op in wl.ops if op.name in ("gf3_48_16.bz", "gf4h_40_12.bz")]
    wl.expected["gf3_48_16.d"] = wl.ops[0].call() + 1
    # 2^3 codewords over a budget of 4: BudgetExceeded where an exact d is expected
    C = workloads.new_code(refalg.GF2, np.array([[1, 1, 0, 1, 0, 0], [0, 1, 1, 0, 1, 0], [0, 0, 1, 1, 1, 1]], dtype=np.uint8))
    wl.ops.append(workloads.Op("budget", lambda: codes.min_weight(C, cap=4, threads=1), lambda d: None))
    return {"gf3_48_16.bz", "budget"}


def corrupt_algebra(wl):
    wl.ops = wl.ops[:30]
    name = wl.ops[0].name
    wl.ops[0].check(wl.ops[0].call())
    wl.expected[name] = dict(wl.expected[name], d=wl.expected[name]["d"] + 1)
    return {name}


def corrupt_verify(wl):
    # a replay that exits 1 with empty stdout must still match its stderr
    replay = next(op.name for op in wl.ops if op.name.startswith("replay.") and wl.reference[op.name]["exit"])
    wl.ops = [op for op in wl.ops if op.name in ("eaqecc", "bounds.gf3", replay)]
    ref = wl.reference["eaqecc"]
    wl.expected["eaqecc"] = dict(ref, stdout=ref["stdout"] + "\n")
    ref = wl.reference[replay]
    wl.expected[replay] = dict(ref, stderr="error: some other failure\n")
    return {"eaqecc", replay}


CORRUPT = {"search": corrupt_search, "distance": corrupt_distance, "algebra": corrupt_algebra, "verify": corrupt_verify}


def main() -> int:
    bad = 0
    for name, corrupt in CORRUPT.items():
        wl = run.setup(name, seed=1)
        planted = corrupt(wl)
        passes, failures, rss, _ = run.measure(wl, 0)
        metrics = run.end_to_end(passes, failures, rss, 0.0)
        flagged = {op.name for op, e in zip(wl.ops, failures[0]) if e is not None}
        ok = flagged == planted and metrics["ok_ops"] == len(wl.ops) - len(planted)
        ok = ok and abs(metrics["ops_per_s"] * passes[0].wall - metrics["ok_ops"]) < 1e-6
        print(f"{'ok  ' if ok else 'FAIL'} {name}: planted {sorted(planted)}, flagged {sorted(flagged)}")
        for op, e in zip(wl.ops, failures[0]):
            if e is not None:
                print(f"     {op.name}: {e}")
        bad += not ok
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
