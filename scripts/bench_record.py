#!/usr/bin/env python3
"""Record one run of the benchmark as BENCH_<LABEL>.json in the repository root.

Runs the benchmark command of BENCHMARK.json (perfbench/run.py) from the
repository root over every workload at seed 1 for the file's run_seconds:

    python3 perfbench/run.py --workload all --seed 1 --seconds <run_seconds>

and writes the last three lines of its stdout, as run.py's docstring
defines them, to BENCH_<LABEL>.json: ``op_s`` (the median time of each
op), ``meta`` (the run's metadata) and ``result`` (correct, attempted,
failed and the end-to-end metrics).  A run that exits nonzero, prints no
such lines or reports ``correct: false`` writes nothing and exits 1.

``meta.git_sha`` names the commit checked out, not the files measured: a
run recorded before its change is committed measures a src/ that differs
from that commit.  So the file also gets ``tree``, read from git before the
run: ``head``, the commit checked out, and ``src_equals_head``, whether
src/ holds exactly that commit's files (no file under it modified, staged,
deleted or untracked).  Both are null where git cannot tell.

    python3 scripts/bench_record.py LABEL
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parse(stdout: str):
    """(op_s, meta, result) from run.py's last three stdout lines; None if they are not there."""
    lines = stdout.splitlines()[-3:]
    if len(lines) < 3 or not (lines[0].startswith("op_s ") and lines[1].startswith("meta ")):
        return None
    try:
        op_s, meta, result = json.loads(lines[0][5:]), json.loads(lines[1][5:]), json.loads(lines[2])
    except ValueError:
        return None
    return (op_s, meta, result) if isinstance(result, dict) else None


def _tree() -> dict:
    """{"head": the commit checked out, "src_equals_head": whether src/ is that commit's}, from git."""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    status = subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=all", "--", "src"], cwd=ROOT, capture_output=True, text=True
    )
    if head.returncode or status.returncode:
        return {"head": None, "src_equals_head": None}
    return {"head": head.stdout.strip(), "src_equals_head": not status.stdout.strip()}


def record(label: str) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cmd = bench["command"] + ["--workload", "all", "--seed", "1", "--seconds", str(bench["run_seconds"])]
    tree = _tree()
    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    parsed = _parse(run.stdout)
    if run.returncode != 0 or parsed is None or parsed[2].get("correct") is not True:
        sys.stderr.write(run.stderr)
        print(f"error: the run failed or answered wrongly (exit {run.returncode}); nothing written", file=sys.stderr)
        return 1
    op_s, meta, result = parsed
    path = ROOT / f"BENCH_{label}.json"
    text = json.dumps({"meta": meta, "op_s": op_s, "result": result, "tree": tree}, indent=1, sort_keys=True)
    path.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {path.name}")
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("label", help="names the file BENCH_<LABEL>.json (letters, digits, '.', '_', '-')")
    args = p.parse_args()
    if not re.fullmatch(r"[\w.-]+", args.label, re.ASCII):
        p.error(f"label {args.label!r} may hold only letters, digits, '.', '_' and '-'")
    return record(args.label)


if __name__ == "__main__":
    sys.exit(main())
