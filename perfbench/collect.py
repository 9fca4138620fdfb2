"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/collect.py [--workload NAME ...] [--seeds 10] [--first-seed 1] [--write-baseline]

Runs ``run.py --trace 0`` once per seed and workload, one run at a time,
and prints for every end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
beside the bound from BENCHMARK.json.  A spread below a third of its bound
is marked steady.  With --write-baseline the medians, the per-op times and
the run metadata go to perfbench/baseline.json, the trajectory point that
later changes are compared with.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["op_s"] = json.loads(lines[-3].removeprefix("op_s "))
    result["meta"] = json.loads(lines[-2].removeprefix("meta "))
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--write-baseline", action="store_true")
    args = p.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    baseline = {"workloads": {}}
    steady = True
    for name in names:
        runs = []
        for seed in seeds:
            runs.append(one_run(name, seed, bench["run_seconds"]))
            print(f"{name} seed {seed}: correct={runs[-1]['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        entry = {"metrics": {}, "op_s": {}}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = spread < m["bound"] / 3
            steady &= ok
            print(f"  {name:9} {m['name']:12} median {med:12.6g} {m['unit']:4} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f} bound {m['bound']} {'steady' if ok else 'NOT STEADY'}")
            entry["metrics"][m["name"]] = {"median": med, "q1": q1, "q3": q3, "unit": m["unit"], "values": values}
        for op in runs[0]["op_s"]:
            entry["op_s"][op] = statistics.median(r["op_s"][op] for r in runs if op in r["op_s"])
        entry["all_correct"] = all(r["correct"] for r in runs)
        entry["seeds"] = list(seeds)
        baseline["workloads"][name] = entry
        baseline["meta"] = {k: v for k, v in runs[0]["meta"].items() if k not in ("seed", "workload")}
    if args.write_baseline:
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
        print(f"wrote {HERE / 'baseline.json'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
