"""Command-line front end.

Exit codes: 0 = success / all claims verified, 1 = a verification failed
or a budget ran out, 2 = usage error (bad arguments, unreadable file,
malformed or rank-deficient matrix).

Every reported distance carries an exactness marker; a distance computed
under an exhausted budget is printed as ``d<=N exact=false`` (or
``d=unknown exact=false`` without a bound) and never as a bare number.
Identical invocations (including --seed) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from . import bounds as bounds_mod
from . import corpus as corpus_mod
from .codes import (
    BROUWER_ZIMMERMANN,
    EXHAUSTIVE,
    BudgetExceeded,
    CodeError,
    format_vector,
    is_even_like,
    is_lcd,
    hull,
    min_weight,
    parse_vector,
    read_ascii,
    read_code_file,
    weight_distribution,
    write_code_file,
)
from .construct import (
    M1,
    M2,
    ConstructError,
    extend,
    parse_record,
    apply_record,
    puncture_to_lcd,
    search_extend,
    shorten_to_lcd,
)
from .eaqecc import ParamError, family
from .gf import FIELDS_BY_NAME, FieldError
from .linalg import LinalgError

USAGE_ERRORS = (CodeError, ConstructError, FieldError, LinalgError, ParamError, bounds_mod.SeedError, OSError)


def _coords_1based(coords) -> str:
    return ",".join(str(c + 1) for c in coords) if coords else "-"


def _wd_text(wd) -> str:
    return " ".join(f"{w}:{c}" for w, c in wd.nonzero())


def _d_text(d: int | None, exact: bool) -> str:
    """A reported distance with its exactness marker: d=N, d<=N or d=unknown."""
    if exact:
        return f"d={d} exact=true"
    return ("d=unknown" if d is None else f"d<={d}") + " exact=false"


def _distance(args, code, strategy: str = EXHAUSTIVE) -> tuple[str, BudgetExceeded | None]:
    """min_weight under --cap and --threads as _d_text, with the budget error if it ran out."""
    try:
        return _d_text(min_weight(code, strategy, cap=args.cap, threads=args.threads), True), None
    except BudgetExceeded as exc:
        return _d_text(exc.best_upper, False), exc


def cmd_verify(args) -> int:
    code = read_code_file(args.file)
    parts = [f"file={args.file}", f"field={code.field.name}", f"n={code.n}", f"k={code.k}"]
    parts.append(f"lcd={str(is_lcd(code)).lower()}")
    try:
        wd = weight_distribution(code, cap=args.cap, threads=args.threads)
    except BudgetExceeded:
        parts.append(_distance(args, code)[0])
        print(" ".join(parts))
        print(f"error: weight distribution budget exhausted: {code.field.order}^{code.k} codewords", file=sys.stderr)
        return 1
    parts.append(_d_text(wd.min_weight, True))
    if code.field.order == 2:
        even = is_even_like(code)
        parts.append(f"odd-like={str(not even).lower()}")
        parts.append(f"even-like={str(even).lower()}")
    parts.append(f"wd=[{_wd_text(wd)}]")
    print(" ".join(parts))
    return 0


def cmd_hull(args) -> int:
    code = read_code_file(args.file)
    h = hull(code)
    print(f"file={args.file} field={code.field.name} n={code.n} k={code.k} hull-dim={h.dim} T={_coords_1based(h.pivot_set)}")
    for row in h.basis:
        print(format_vector(code.field, row))
    return 0


def _write_output(args, code) -> None:
    if args.output:
        write_code_file(args.output, code)
        print(f"wrote {args.output}")


def _print_result_code(args, code, label, t) -> int:
    d_text = _distance(args, code)[0]
    print(f"{label} n={code.n} k={code.k} lcd={str(is_lcd(code)).lower()} {d_text} T={_coords_1based(t)}")
    _write_output(args, code)
    return 0


def cmd_shorten_lcd(args) -> int:
    code = read_code_file(args.file)
    out, t = shorten_to_lcd(code)
    return _print_result_code(args, out, "shortened", t)


def cmd_puncture_lcd(args) -> int:
    code = read_code_file(args.file)
    out, t = puncture_to_lcd(code, cap=args.cap, threads=args.threads)
    return _print_result_code(args, out, "punctured", t)


def cmd_extend(args) -> int:
    code = read_code_file(args.file)
    method = M1 if args.method == 1 else M2
    if args.vector is not None:
        if args.target is not None:
            raise CodeError("--target applies to --search only")
        out = extend(code, parse_vector(code.field, args.vector), method)
        return _print_result_code(args, out, f"extended method={args.method}", ())
    res = search_extend(
        code, method, target=args.target, budget=args.budget, seed=args.seed, cap=args.cap, threads=args.threads
    )
    print(
        f"search method={args.method} vector={format_vector(code.field, res.vector)} "
        f"{_d_text(res.min_weight, res.exact)} exhaustive={str(res.exhaustive).lower()} candidates={res.candidates}"
    )
    if args.target is not None:
        met = res.target_met
        print(f"target={args.target} met={str(bool(met)).lower()}")
    _write_output(args, res.code)
    if args.target is not None and not res.target_met:
        return 1
    return 0


def cmd_minweight(args) -> int:
    code = read_code_file(args.file)
    d_text, exc = _distance(args, code, args.strategy)
    print(f"file={args.file} strategy={args.strategy} {d_text}")
    if exc is not None:
        print(f"error: budget exhausted after {exc.steps} steps", file=sys.stderr)
        return 1
    return 0


def cmd_replay(args) -> int:
    rec = parse_record(read_ascii(args.record))
    entries = corpus_mod.manifest()
    local = os.path.join(os.path.dirname(args.record), rec.base)  # a code file beside the record
    if rec.base not in entries and os.path.isfile(local):
        base = read_code_file(local)
    else:
        base = corpus_mod.resolve_code(rec.base, entries)  # main reports a missing base
    print(f"base {rec.base} n={base.n} k={base.k}")
    current = base
    for step, code in zip(rec.steps, apply_record(rec, base)):
        current = code
        arg = f" {step.arg}" if step.arg else ""
        print(f"step {step.op}{arg} -> n={code.n} k={code.k} lcd={str(is_lcd(code)).lower()}")
    print(f"final n={current.n} k={current.k} {_distance(args, current)[0]}")
    _write_output(args, current)
    return 0


def _parse_range(text: str):
    try:
        n_part, k_part = text.split(",")
        n1, n2 = (int(v) for v in n_part.split(".."))
        k1, k2 = (int(v) for v in k_part.split(".."))
    except ValueError:
        raise CodeError(f"malformed range {text!r}; expected n1..n2,k1..k2") from None
    if n2 < n1 or k2 < k1:
        raise CodeError(f"empty range {text!r}; expected n1 <= n2 and k1 <= k2")
    if n1 < 1 or k1 < 1:
        raise CodeError(f"range {text!r} starts below 1; n and k are at least 1")
    return range(n1, n2 + 1), range(k1, k2 + 1)


def cmd_bounds(args) -> int:
    if args.seeds:
        table = bounds_mod.BoundsTable(args.field)
        bounds_mod.seed_from_csv(table, args.seeds)
    else:
        table = bounds_mod.bundled_table(args.field)
        if table is None:
            print(f"error: no bundled grid for {args.field}; pass --seeds FILE", file=sys.stderr)
            return 1
    if not table.cells:
        print("error: no seeds for this field", file=sys.stderr)
        return 1
    if args.range:
        n_range, k_range = _parse_range(args.range)
    else:
        n_lo, n_hi, k_lo, k_hi = table.bounding_box()
        n_range, k_range = range(n_lo, n_hi + 1), range(k_lo, k_hi + 1)
    box = (n_range.start, n_range.stop - 1, k_range.start, k_range.stop - 1)
    try:
        bounds_mod.propagate(table, box=box)
    except bounds_mod.ConflictError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(bounds_mod.render(table, n_range, k_range, fmt=args.format))
    return 0


def cmd_eaqecc(args) -> int:
    print(str(family(args.n, args.k, args.d, args.s)))
    return 0


def cmd_corpus_check(args) -> int:
    reports = corpus_mod.check_all(threads=args.threads, cap=args.cap)
    status = ["skip" if r.skipped else "ok" if r.ok else "FAIL" for r in reports]
    for rep, s in zip(reports, status):
        note = "" if s == "ok" else f" ({'; '.join(rep.messages)})"
        print(f"{s} {rep.entry_id}{note}")
    failures = status.count("FAIL")
    print(f"summary verified={status.count('ok')} skipped={status.count('skip')} failed={failures}")
    return 1 if failures else 0


# cgroup v2 CPU limit of this process's group: "<quota> <period>" or "max <period>"
CGROUP_CPU_MAX = "/sys/fs/cgroup/cpu.max"


def _usable_cpus() -> int:
    """CPUs this process may run on: affinity and cpusets, capped by a cgroup v2 CPU quota."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    try:
        with open(CGROUP_CPU_MAX, encoding="ascii") as fh:
            quota, period = (int(v) for v in fh.read().split())
    except (OSError, ValueError):  # no file, no quota ("max") or unreadable
        return cpus
    return max(1, min(cpus, math.ceil(quota / period)))


def _at_least(minimum: int):
    """An argparse type: a whole number of at least ``minimum``."""

    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be a whole number of at least {minimum}, got {text!r}")
        return int(text)

    return parse


@functools.cache  # one parser per process, so no default may depend on the call; main resolves --threads
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lcdkit", description="LCD code construction and verification toolkit")
    p.add_argument("--threads", type=_at_least(1), help="worker processes for enumeration (default: usable CPUs)")
    p.add_argument("--cap", type=_at_least(0), default=None, help="enumeration work budget (codewords)")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="rank, LCD, minimum weight, distribution, even/odd-like")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("hull", help="hull dimension, basis and pivot set")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_hull)

    sp = sub.add_parser("shorten-lcd", help="shorten on the hull pivot set")
    sp.add_argument("file")
    sp.add_argument("--output", "-o")
    sp.set_defaults(fn=cmd_shorten_lcd)

    sp = sub.add_parser("puncture-lcd", help="puncture on the hull pivot set")
    sp.add_argument("file")
    sp.add_argument("--output", "-o")
    sp.set_defaults(fn=cmd_puncture_lcd)

    sp = sub.add_parser("extend", help="extension methods 1 and 2")
    sp.add_argument("file")
    sp.add_argument("--method", type=int, choices=(1, 2), required=True)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--vector", help="extension vector symbols")
    group.add_argument("--search", action="store_true", help="search for the best vector")
    sp.add_argument("--target", type=_at_least(1), default=None, help="target minimum distance for --search")
    sp.add_argument("--budget", type=_at_least(1), default=100_000, help="candidate budget for --search")
    sp.add_argument("--seed", type=_at_least(0), default=0, help="sampling seed for --search")
    sp.add_argument("--output", "-o")
    sp.set_defaults(fn=cmd_extend)

    sp = sub.add_parser("minweight", help="exact minimum weight")
    sp.add_argument("file")
    sp.add_argument(
        "--strategy",
        choices=(EXHAUSTIVE, BROUWER_ZIMMERMANN),
        default=EXHAUSTIVE,
        help="exhaustive (default) scans every codeword within --cap, bz runs Brouwer-Zimmermann; "
        "past --cap both run Brouwer-Zimmermann under the same cap",
    )
    sp.set_defaults(fn=cmd_minweight)

    sp = sub.add_parser("replay", help="replay a construction record")
    sp.add_argument("record")
    sp.add_argument("--output", "-o")
    sp.set_defaults(fn=cmd_replay)

    sp = sub.add_parser("bounds", help="propagate and render a bounds table")
    sp.add_argument("--field", choices=tuple(FIELDS_BY_NAME), required=True)
    sp.add_argument("--seeds", help="seed CSV (field,n,k,lower,upper,kind,provenance); default: built-in grid")
    sp.add_argument("--range", help="n1..n2,k1..k2")
    sp.add_argument("--format", choices=("md", "csv"), default="md")
    sp.set_defaults(fn=cmd_bounds)

    sp = sub.add_parser("eaqecc", help="entanglement-assisted quantum code parameters")
    sp.add_argument("n", type=int)
    sp.add_argument("k", type=int)
    sp.add_argument("d", type=int)
    sp.add_argument("--s", type=int, default=0)
    sp.set_defaults(fn=cmd_eaqecc)

    sp = sub.add_parser("corpus-check", help="verify every bundled reference entry")
    sp.set_defaults(fn=cmd_corpus_check)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is None:
        args.threads = _usable_cpus()
    try:
        return args.fn(args)
    except (BudgetExceeded, corpus_mod.CorpusError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
