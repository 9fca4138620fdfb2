"""Tracing from outside the program: wrap the public functions of lcdkit's layers.

``Tracer.install`` replaces every binding of each traced function: the
module attribute and each copy a ``from``-import made in another module
(``enumeration.rref``, ``construct.min_weight``, ``corpus.is_lcd``, ...).
Each call records a span (name, start, end, parent span, op id) in memory;
``uninstall`` puts the original functions back.  Self time is a span's
duration minus the time its child spans cover.

Per-codeword packing helpers are left unwrapped: they run millions of
times inside a scan, where a wrapper would cost more than the work.
"""

from __future__ import annotations

import inspect
import sys
import time
from typing import Any, Callable, NamedTuple

LAYERS = ("linalg", "enumeration", "codes", "construct", "corpus", "bounds", "cli")

# per-codeword helpers; enumeration.packed_weight is counted in a separate pass
UNTRACED = {
    "enumeration.pack_vector",
    "enumeration.packed_weight",
    "enumeration.add_packed",
    "enumeration.scale_symbols",
    "enumeration.pack_rows_scaled",
}
# the cmd_* handlers and the parser are the CLI layer's own code, so its
# self time is main's time outside the other layers
CLI_TRACED = {"cli.main"}


class Span(NamedTuple):
    """A finished call; a tuple, so the collector stops tracking it."""

    name: str
    start: float
    end: float
    parent: int
    op: int
    info: Any = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _field_key(order: int) -> str:
    # every GF(4) code in the benchmark uses the Hermitian flavor
    return {2: "gf2", 3: "gf3", 4: "gf4h"}[order]


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos] if len(args) > pos else None


def _scanned(args, kwargs, result) -> int:
    C = _arg(args, kwargs, 0, "C")
    total = C.field.order**C.k
    if result.exact:
        return total
    cap = _arg(args, kwargs, 5, "cap") or sys.modules["lcdkit.enumeration"].DEFAULT_CAPS[C.field.order]
    return min(total, cap)


# Functions whose spans carry a few numbers taken from their arguments or result.
# Each hook gets (args, kwargs, result, exception) and runs after the span's end.
HOOKS: dict[str, Callable] = {
    "linalg.rref": lambda a, kw, r, e: _field_key(_arg(a, kw, 1, "field").order),
    "enumeration.min_weight_exhaustive": lambda a, kw, r, e: (
        _field_key(_arg(a, kw, 0, "field").order),
        _arg(a, kw, 0, "field").order ** _arg(a, kw, 1, "G").shape[0] if e is None else getattr(e, "steps", 0),
        _arg(a, kw, 3, "threads") or 1,
    ),
    "enumeration.weight_distribution_exhaustive": lambda a, kw, r, e: (
        _field_key(_arg(a, kw, 0, "field").order),
        sum(r) if e is None else 0,
        _arg(a, kw, 3, "threads") or 1,
    ),
    "enumeration.min_weight_bz": lambda a, kw, r, e: _field_key(_arg(a, kw, 0, "field").order),
    # (candidates, codewords of the base code each candidate is scored against)
    "construct.search_extend": lambda a, kw, r, e: None if e else (r.candidates, _scanned(a, kw, r)),
    "corpus.check_all": lambda a, kw, r, e: None if e else (
        sum(1 for x in r if x.ok and not x.skipped), sum(1 for x in r if x.skipped)
    ),
    "bounds.propagate": lambda a, kw, r, e: None if e else (r, len(_arg(a, kw, 0, "table").cells)),
}


def lcdkit_modules() -> list:
    return [m for name, m in sys.modules.items() if name == "lcdkit" or name.startswith("lcdkit.")]


def traced_functions() -> dict[str, Callable]:
    """{'layer.name': function} for every public function the tracer wraps."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"lcdkit.{layer}"]
        for name, fn in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            full = f"{layer}.{name}"
            if inspect.isgeneratorfunction(fn) or full in UNTRACED or (layer == "cli" and full not in CLI_TRACED):
                continue
            out[full] = fn
    return out


def rebind(originals: dict[Any, Callable], namespaces) -> list[tuple[Any, str, Callable]]:
    """Point every attribute that holds a key of ``originals`` at its value; return undo records."""
    undo = []
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if inspect.isfunction(value) and value in originals:
                undo.append((ns, attr, value))
                setattr(ns, attr, originals[value])
    return undo


def restore(undo) -> None:
    for ns, attr, value in reversed(undo):
        setattr(ns, attr, value)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock, hook = self.spans, self._stack, time.perf_counter, HOOKS.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # holds the index so children can name their parent
            stack.append(idx)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                info = None if hook is None else hook(args, kwargs, result, exc)
                spans[idx] = Span(name, start, end, parent, self.op, info)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        wrappers = {fn: self._wrap(name, fn) for name, fn in traced_functions().items()}
        self._undo = rebind(wrappers, lcdkit_modules())

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.seconds
        return [s.seconds - c for s, c in zip(self.spans, child)]


class CallCounter:
    """Counts calls to one function through all of its bindings."""

    def __init__(self, fn: Callable):
        self.fn = fn
        self.calls = 0
        self._undo: list = []

    def install(self) -> None:
        fn = self.fn

        def counting(*args, **kwargs):
            self.calls += 1
            return fn(*args, **kwargs)

        self._undo = rebind({fn: counting}, lcdkit_modules())

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []


# -- per-layer metrics ---------------------------------------------------------

FIELD_KEYS = ("gf2", "gf3", "gf4h")
LINALG_FNS = ("rref", "matmul", "nullspace", "gram", "intersect_row_spaces")
CONSTRUCT_FNS = ("shorten_to_lcd", "puncture_to_lcd", "extend_m1", "extend_m2", "decompose_m1")
CODES_FNS = ("hull", "is_lcd", "dual", "shorten", "puncture", "min_weight", "new_code")


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in report order."""
    u = {}
    for fn in LINALG_FNS:
        u[f"linalg.{fn}.calls"] = "count"
        u[f"linalg.{fn}.self_s"] = "s"
    for f in FIELD_KEYS:
        u[f"linalg.rref.us_per_call.{f}"] = "us"
    u["linalg.share"] = "ratio"
    for f in FIELD_KEYS:
        u[f"enumeration.exhaustive.codewords_per_s.{f}"] = "1/s"
    u["enumeration.weight_distribution.codewords_per_s.gf2"] = "1/s"
    u["enumeration.parallel_speedup"] = "ratio"
    u["enumeration.exhaustive.calls"] = "count"
    u["enumeration.exhaustive.us_per_call"] = "us"
    for f in FIELD_KEYS:
        u[f"enumeration.bz.s.{f}"] = "s"
    u["enumeration.bz.codewords"] = "count"
    u["enumeration.bz.codewords_per_s"] = "1/s"
    u["construct.search_extend.self_s"] = "s"
    u["construct.search.candidates"] = "count"
    u["construct.search.pairs"] = "count"
    u["construct.search.pairs_per_s"] = "1/s"
    for fn in CONSTRUCT_FNS:
        u[f"construct.{fn}.calls"] = "count"
        u[f"construct.{fn}.self_s"] = "s"
    for fn in CODES_FNS:
        u[f"codes.{fn}.calls"] = "count"
        u[f"codes.{fn}.self_s"] = "s"
    u["corpus.check_all.s"] = "s"
    u["corpus.entries_verified"] = "count"
    u["corpus.entries_skipped"] = "count"
    u["corpus.resolve_code.calls"] = "count"
    u["bounds.propagate.s"] = "s"
    u["bounds.propagate.updates"] = "count"
    u["bounds.render.s"] = "s"
    u["bounds.cells"] = "count"
    u["cli.main.self_s"] = "s"
    u["cli.stdout_bytes"] = "bytes"
    u["trace.overhead_s"] = "s"
    return u


def _ratio(num: float, den: float) -> float:
    # a layer the workload does not reach reports 0
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float, speedup: float,
                  bz_codewords: int, stdout_bytes: int) -> dict[str, float]:
    spans = tracer.spans
    self_t = tracer.self_times()
    calls: dict[str, int] = {}
    own: dict[str, float] = {}
    total: dict[str, float] = {}
    for s, st in zip(spans, self_t):
        calls[s.name] = calls.get(s.name, 0) + 1
        own[s.name] = own.get(s.name, 0.0) + st
        total[s.name] = total.get(s.name, 0.0) + s.seconds

    def named(name):
        return [(s, st) for s, st in zip(spans, self_t) if s.name == name]

    m: dict[str, float] = {}
    for fn in LINALG_FNS:
        m[f"linalg.{fn}.calls"] = calls.get(f"linalg.{fn}", 0)
        m[f"linalg.{fn}.self_s"] = own.get(f"linalg.{fn}", 0.0)
    rref = named("linalg.rref")
    for f in FIELD_KEYS:
        mine = [st for s, st in rref if s.info == f]
        m[f"linalg.rref.us_per_call.{f}"] = 1e6 * _ratio(sum(mine), len(mine))
    m["linalg.share"] = _ratio(sum(v for k, v in own.items() if k.startswith("linalg.")), traced_wall)

    # scan rates count single-worker calls only; the two-worker speed-up is its own metric
    ex = named("enumeration.min_weight_exhaustive")
    for f in FIELD_KEYS:
        mine = [(s.info[1], s.seconds) for s, _ in ex if s.info[0] == f and s.info[2] == 1]
        m[f"enumeration.exhaustive.codewords_per_s.{f}"] = _ratio(sum(c for c, _ in mine), sum(t for _, t in mine))
    wd = [(s.info[1], s.seconds) for s, _ in named("enumeration.weight_distribution_exhaustive")
          if s.info[0] == "gf2" and s.info[2] == 1]
    m["enumeration.weight_distribution.codewords_per_s.gf2"] = _ratio(sum(c for c, _ in wd), sum(t for _, t in wd))
    m["enumeration.parallel_speedup"] = speedup
    m["enumeration.exhaustive.calls"] = len(ex)
    m["enumeration.exhaustive.us_per_call"] = 1e6 * _ratio(sum(s.seconds for s, _ in ex), len(ex))
    bz = named("enumeration.min_weight_bz")
    for f in FIELD_KEYS:
        m[f"enumeration.bz.s.{f}"] = sum(s.seconds for s, _ in bz if s.info == f)
    m["enumeration.bz.codewords"] = bz_codewords
    m["enumeration.bz.codewords_per_s"] = _ratio(bz_codewords, sum(s.seconds for s, _ in bz))

    search = [(s.info, st) for s, st in named("construct.search_extend") if s.info is not None]
    m["construct.search_extend.self_s"] = own.get("construct.search_extend", 0.0)
    m["construct.search.candidates"] = sum(i[0] for i, _ in search)
    m["construct.search.pairs"] = sum(i[0] * i[1] for i, _ in search)
    m["construct.search.pairs_per_s"] = _ratio(m["construct.search.pairs"], sum(st for _, st in search))
    for fn in CONSTRUCT_FNS:
        m[f"construct.{fn}.calls"] = calls.get(f"construct.{fn}", 0)
        m[f"construct.{fn}.self_s"] = own.get(f"construct.{fn}", 0.0)
    for fn in CODES_FNS:
        m[f"codes.{fn}.calls"] = calls.get(f"codes.{fn}", 0)
        m[f"codes.{fn}.self_s"] = own.get(f"codes.{fn}", 0.0)

    checks = [s.info for s, _ in named("corpus.check_all") if s.info is not None]
    m["corpus.check_all.s"] = total.get("corpus.check_all", 0.0)
    m["corpus.entries_verified"] = sum(v for v, _ in checks)
    m["corpus.entries_skipped"] = sum(k for _, k in checks)
    m["corpus.resolve_code.calls"] = calls.get("corpus.resolve_code", 0)
    props = [s.info for s, _ in named("bounds.propagate") if s.info is not None]
    m["bounds.propagate.s"] = total.get("bounds.propagate", 0.0)
    m["bounds.propagate.updates"] = sum(u for u, _ in props)
    m["bounds.render.s"] = total.get("bounds.render", 0.0)
    m["bounds.cells"] = sum(c for _, c in props)
    m["cli.main.self_s"] = own.get("cli.main", 0.0)
    m["cli.stdout_bytes"] = stdout_bytes
    m["trace.overhead_s"] = traced_wall - untraced_wall
    return m
