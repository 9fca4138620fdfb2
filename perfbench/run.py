"""lcdkit benchmark: seeded, answer-checked workloads with per-layer tracing.

Run from the repository root:

    python3 perfbench/run.py --workload search|distance|algebra|verify|all \\
        --seed N --seconds S --trace 0|1

Workloads (closed loop, one caller; see BENCHMARK.json for why each exists):
  search    construct.search_extend: t_19_6_9 exhaustive and sampled, a GF(4)H
            [14,6] exhaustive and a binary [70,10] sampled (n > 63 fallback)
  distance  exact minimum weight: exhaustive on 1 and 2 workers, BZ, and a
            binary weight distribution
  algebra   1152 small codes per pass: hull, dual, LCD test, distance,
            shortening, puncturing, both extensions and decompose_m1
  verify    cli.main in-process: corpus-check, every replay, bounds, eaqecc

With --trace 0 the run sets up, repeats passes over the workload's ops for
--seconds (at least one pass), times set-up again in fresh processes before
and after the passes, checks every answer and reports the end-to-end metrics.  With --trace 1 it
runs one untraced and one traced pass and reports the per-layer metrics.
Times are adjusted to nominal host speed (speed.py); the report prints the
raw pass times beside them.  --workload all runs the four in one process,
with metric names prefixed by the workload; its peak_rss_mb is the
process's peak so far.  The last three lines of stdout are ``op_s`` and
the median time of each op (group) as JSON, ``meta`` and the run's
metadata as JSON, and one JSON object with the keys correct, attempted,
failed and metrics.  The program is imported from src/ next to this
directory; no file under src/ is changed.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# set-up is timed in fresh processes, some before and some after the
# measured passes, so a slow phase of the host at either end moves the median less
SETUP_SAMPLES_BEFORE = 5
SETUP_SAMPLES_AFTER = 4
# set-up lasts 0.2 to 0.7 s, so its speed probe ticks every 2 ms; with a
# 10 ms tick the adjusted set-up times of one seed spread twice as wide
SETUP_TICK_S = 0.002
SETUP_TIMEOUT_S = 120

END_TO_END = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.p99": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# ROADMAP baseline (2 cores, Python 3.11.7, numpy 2.4.6), printed for comparison only
ROADMAP_BASELINE_S = {
    "t_19_6_9.m1.exhaustive": 25.3,
    "gf2_40_23.exhaustive.t1": 1.71,
    "gf2_40_23.exhaustive.t2": 1.0,
    "gf2_80_40.bz": 7.4,
    "gf3_48_16.bz": 0.24,
    "corpus-check": 0.16,
}


def import_program():
    """Import lcdkit from this checkout's src/ or exit 2."""
    sys.path.insert(0, str(SRC))
    try:
        import lcdkit
        import lcdkit.cli  # noqa: F401  (loads every layer)
    except ImportError as exc:
        sys.exit(f"error: cannot import lcdkit from {SRC}: {exc}")
    if Path(lcdkit.__file__).resolve().parent != (SRC / "lcdkit").resolve():
        sys.exit(f"error: lcdkit came from {lcdkit.__file__}, not from {SRC}")


@dataclass
class Pass:
    start: float
    end: float
    marks: list  # (start, end) of each op
    outputs: list
    errors: list
    wall: float = 0.0  # set by measure() or run_traced()
    times: list = None


def run_pass(ops, tracer=None, meter=None) -> Pass:
    """One pass over the ops; with a speed meter, ops that run worker processes run with it paused."""
    marks, outputs, errors = [], [], []
    clock = time.perf_counter
    start = clock()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        pause = meter.paused() if meter is not None and op.workers > 1 else contextlib.nullcontext()
        with pause:
            t = clock()
            try:
                out, err = op.call(), None
            except Exception as exc:  # an op that raises is a failed op; the run goes on
                out, err = None, f"raised {type(exc).__name__}: {exc}"
            marks.append((t, clock()))
        outputs.append(out)
        errors.append(err)
    return Pass(start, clock(), marks, outputs, errors)


def raw_times(p: Pass) -> Pass:
    p.wall = p.end - p.start
    p.times = [b - a for a, b in p.marks]
    return p


def check_pass(wl, p: Pass, verdicts: dict) -> list:
    """Failure message (or None) per op; identical outputs share one verdict."""
    from workloads import WrongAnswer, freeze

    failures = []
    for op, out, err in zip(wl.ops, p.outputs, p.errors):
        if err is None:
            key = (op.name, freeze(out))
            if key not in verdicts:
                try:
                    op.check(out)
                    verdicts[key] = None
                except WrongAnswer as exc:
                    verdicts[key] = f"wrong answer: {exc}"
                except Exception as exc:  # output of an unexpected shape
                    verdicts[key] = f"check raised {type(exc).__name__}: {exc}"
            err = verdicts[key]
        failures.append(err)
    return failures


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, min(len(s) - 1, -(-len(s) * p // 100) - 1))] if s else 0.0


def setup(name: str, seed: int):
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed)
    wl.warmup()
    return wl


def setup_samples(name: str, seed: int, count: int) -> list:
    """(adjusted, raw) set-up time of ``count`` fresh processes, each timed from its own start."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((result["setup_s"], result["raw_s"]))
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, seconds: float):
    """Passes over the workload's ops for ``seconds`` (at least one), then the checks.

    Op times are adjusted to nominal host speed (see speed.py) and a pass's
    wall time is the sum of its ops'; the raw pass times are returned beside them.
    """
    import speed

    from workloads import freeze

    passes = []
    with speed.SpeedMeter(op.probe for op in wl.ops) as meter:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            p = run_pass(wl.ops, meter=meter)
            if passes:
                # keep one copy of each output seen in the first pass, so memory
                # held for the checks does not grow with the number of passes
                p.outputs = [o0 if f0 == freeze(o) else o for o0, f0, o in zip(passes[0].outputs, first, p.outputs)]
            else:
                first = [freeze(o) for o in p.outputs]
            passes.append(p)
    rss = peak_rss_mb()
    raw_walls = [p.end - p.start for p in passes]
    for p in passes:
        p.times = [meter.adjust(a, b, op.probe) for (a, b), op in zip(p.marks, wl.ops)]
        p.wall = sum(p.times)
    verdicts: dict = {}
    return passes, [check_pass(wl, p, verdicts) for p in passes], rss, raw_walls


def end_to_end(passes, failures, rss: float, setup_s: float) -> dict:
    """A failed op counts as attempted and never as a (fast) completed op."""
    ok_times = [t for p, f in zip(passes, failures) for t, e in zip(p.times, f) if e is None]
    walls = [p.wall for p in passes]
    return {
        "wall_s": statistics.median(walls),
        "ops_per_s": len(ok_times) / sum(walls),
        "op_s.p50": statistics.median(ok_times) if ok_times else 0.0,
        "op_s.p99": percentile(ok_times, 99),
        "peak_rss_mb": rss,
        "setup_s": setup_s,
        "ok_ops": len(ok_times),
    }


def run_untraced(name: str, seed: int, seconds: float, report: list):
    samples = setup_samples(name, seed, SETUP_SAMPLES_BEFORE)
    wl = setup(name, seed)
    passes, failures, rss, raw_walls = measure(wl, seconds)
    samples += setup_samples(name, seed, SETUP_SAMPLES_AFTER)
    metrics = end_to_end(passes, failures, rss, statistics.median(a for a, _ in samples))
    attempted = sum(len(p.times) for p in passes)
    failed = attempted - metrics["ok_ops"]
    report.append(f"workload {name} seed {seed}: {len(passes)} passes of {len(wl.ops)} ops, "
                  f"{attempted} attempted, {failed} failed, error_rate {failed / attempted:.6f}")
    report.append(f"  pass walls at nominal speed: {', '.join(f'{p.wall:.4f}' for p in passes)}")
    report.append(f"  pass walls raw: {', '.join(f'{w:.4f}' for w in raw_walls)}")
    report.append(f"  setup_s samples (fresh processes), nominal speed: {', '.join(f'{a:.4f}' for a, _ in samples)}")
    report.append(f"  setup_s samples raw: {', '.join(f'{r:.4f}' for _, r in samples)}")
    ok = metrics["ok_ops"]
    report.append(f"  latency over {ok} correct ops: p50 {metrics['op_s.p50']:.6f} s, "
                  f"p99 {metrics['op_s.p99']:.6f} s ({ok - -(-ok * 99 // 100)} beyond p99)")
    op_s = report_ops(wl, passes, failures, report)
    return attempted, failed, metrics, op_s


def op_group(workload: str, op_name: str) -> str:
    """Ops reported together: every op on search and distance, kinds on the others."""
    if workload == "algebra":
        return op_name.split("_")[0] + ".*"  # by field
    if workload == "verify" and "." in op_name:
        return op_name.split(".")[0] + ".*"
    return op_name


def report_ops(wl, passes, failures, report) -> dict:
    """Report each op group's median time over the passes; return {group: median seconds}."""
    baseline = load_baseline().get(wl.name, {}).get("op_s", {})
    groups: dict = {}
    for i, op in enumerate(wl.ops):
        groups.setdefault(op_group(wl.name, op.name), []).append(i)
    medians = {}
    for g, idx in groups.items():
        t = medians[g] = statistics.median(sum(p.times[i] for i in idx) for p in passes)
        notes = []
        if g in baseline:
            notes.append(f"first trajectory point {baseline[g]:.4f} s")
        if g in ROADMAP_BASELINE_S:
            notes.append(f"ROADMAP baseline {ROADMAP_BASELINE_S[g]} s, comparison only")
        count = f" ({len(idx)} ops)" if len(idx) > 1 else ""
        report.append(f"  op {g}: {t:.4f} s{count}" + (f"  [{'; '.join(notes)}]" if notes else ""))
    bad = [(op.name, e) for f in failures for op, e in zip(wl.ops, f) if e is not None]
    for opname, e in bad[:20]:
        report.append(f"  FAIL {opname}: {e}")
    return medians


def run_traced(name: str, seed: int, report: list):
    import spans
    from lcdkit import enumeration

    wl = setup(name, seed)
    plain = raw_times(run_pass(wl.ops))
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = raw_times(run_pass(wl.ops, tracer))
    finally:
        tracer.uninstall()
    # BZ codewords come from a separate pass over the ops that reached BZ,
    # with enumeration.packed_weight counted (it runs once per codeword)
    bz_ops = sorted({s.op for s in tracer.spans if s.name == "enumeration.min_weight_bz"})
    counter = spans.CallCounter(enumeration.packed_weight)
    counter.install()
    try:
        for i in bz_ops:
            wl.ops[i].call()
    finally:
        counter.uninstall()
    verdicts: dict = {}
    passes = [plain, traced]
    failures = [check_pass(wl, p, verdicts) for p in passes]
    attempted = sum(len(p.times) for p in passes)
    failed = sum(e is not None for f in failures for e in f)
    times = {op.name: t for op, t in zip(wl.ops, traced.times)}
    t1, t2 = times.get("gf2_40_23.exhaustive.t1"), times.get("gf2_40_23.exhaustive.t2")
    stdout_bytes = sum(len(out[1].encode()) for out in traced.outputs if name == "verify" and out is not None)
    metrics = spans.layer_metrics(tracer, traced.wall, plain.wall, t1 / t2 if t1 and t2 else 0.0, counter.calls, stdout_bytes)
    report.append(f"workload {name} seed {seed} traced: untraced pass {plain.wall:.4f} s, traced pass "
                  f"{traced.wall:.4f} s, {len(tracer.spans)} spans, {attempted} attempted, {failed} failed")
    for s in tracer.spans:
        if s.name == "construct.search_extend" and s.info is not None:
            report.append(f"  op {wl.ops[s.op].name}: candidates {s.info[0]}, pairs {s.info[0] * s.info[1]}")
    op_s = report_ops(wl, passes[1:], failures[1:], report)
    return attempted, failed, metrics, op_s


def load_baseline() -> dict:
    path = HERE / "baseline.json"
    return json.loads(path.read_text()).get("workloads", {}) if path.exists() else {}


def metadata(args) -> dict:
    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.exists():
        ref = head.read_text().strip()
        sha = (ROOT / ".git" / ref[5:]).read_text().strip() if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).exists() else ref
    digest = hashlib.sha256()
    for f in sorted((SRC / "lcdkit").rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            digest.update(str(f.relative_to(SRC)).encode() + b"\0" + f.read_bytes())
    import numpy

    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("search", "distance", "algebra", "verify", "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    sys.path.insert(0, str(HERE))
    if args.setup_only:
        import speed

        with speed.SpeedMeter(tick=SETUP_TICK_S) as meter:
            import_program()
            setup(args.workload, args.seed)
            t1 = time.perf_counter()
        print(json.dumps({"setup_s": meter.adjust(T0, t1), "raw_s": t1 - T0}))
        return 0
    import_program()

    import spans

    names = ["search", "distance", "algebra", "verify"] if args.workload == "all" else [args.workload]
    units = spans.per_layer_units() if args.trace else END_TO_END
    report: list = []
    attempted = failed = 0
    metrics, op_s = {}, {}
    for name in names:
        if args.trace:
            a, f, m, o = run_traced(name, args.seed, report)
        else:
            a, f, m, o = run_untraced(name, args.seed, args.seconds, report)
        attempted += a
        failed += f
        prefix = f"{name}." if len(names) > 1 else ""
        op_s.update({prefix + g: t for g, t in o.items()})
        for key, unit in units.items():
            metrics[prefix + key] = {"value": m[key], "unit": unit}
            report.append(f"  {prefix + key:<56} {m[key]:>16.6f} {unit}")
    for line in report:
        print(line)
    print("op_s " + json.dumps(op_s))
    print("meta " + json.dumps(metadata(args), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
