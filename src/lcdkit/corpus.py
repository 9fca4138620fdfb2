"""Embedded reference data: printed generator matrices, extension vectors
and shortening sets, with replayable construction records.

Entries are never trusted: every claimed property (rank, LCD, minimum
weight, weight distribution, odd-likeness) is checked by ``verify_entry``
and the test suite.  Entries whose base code came from an external
database ship the construction data but no matrix; they are marked
optional and replay raises MissingBase instead of failing the suite.

Records may use another corpus entry as their base, so a table row is
one step on top of the row it was built from; replay resolves the chain
recursively back to a stored matrix.

The data directory can be overridden with the LCDKIT_CORPUS environment
variable (it must follow the same layout).  The manifest is parsed once per
file version (path, inode, mtime, size) and its entries are immutable.
"""

from __future__ import annotations

import csv
import functools
import os
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

from .codes import BudgetExceeded, CodeError, LinearCode, is_even_like, is_lcd, min_weight, weight_distribution
from .codes import read_ascii, read_code_file
from .construct import ConstructionRecord, apply_record, parse_record
from .gf import FieldError
from .linalg import LinalgError


class CorpusError(ValueError):
    pass


class MissingBase(CorpusError):
    """The entry's base matrix is not distributed (external database code)."""


_BUNDLED = Path(__file__).parent / "data"


def data_dir() -> Path:
    override = os.environ.get("LCDKIT_CORPUS")
    return Path(override) if override else _BUNDLED


@dataclass(frozen=True)
class CorpusEntry:
    id: str
    kind: str  # "code" | "record"
    file: str | None
    field_name: str
    n: int
    k: int
    d: int | None
    properties: tuple[str, ...]
    weights: MappingProxyType[int, int] | None  # read-only: manifest() calls share entries
    source: str
    optional: bool

    def claims_lcd(self) -> bool:
        return "lcd" in self.properties

    def claims_odd_like(self) -> bool:
        return "odd-like" in self.properties


def _parse_weights(text: str) -> MappingProxyType[int, int] | None:
    if not text:
        return None
    out = {}
    for part in text.split():
        w, c = part.split(":")
        out[int(w)] = int(c)
    return MappingProxyType(out)


def manifest() -> dict[str, CorpusEntry]:
    path = data_dir() / "manifest.csv"
    st = os.stat(path)
    return dict(_parse_manifest(path, st.st_ino, st.st_mtime_ns, st.st_size))


@functools.lru_cache(maxsize=4)
def _parse_manifest(path: Path, ino: int, mtime_ns: int, size: int) -> dict[str, CorpusEntry]:
    """The manifest's entries; CodeError names the file, and the line where
    one is known, when a column is missing or a cell does not parse."""
    entries: dict[str, CorpusEntry] = {}
    reader = csv.DictReader(read_ascii(path).splitlines(), restval="")
    try:
        for row in reader:
            entry = CorpusEntry(
                id=row["id"],
                kind=row["kind"],
                file=row["file"] or None,
                field_name=row["field"],
                n=int(row["n"]),
                k=int(row["k"]),
                d=int(row["d"]) if row["d"] else None,
                properties=tuple(p for p in row["properties"].split(";") if p),
                weights=_parse_weights(row["weights"]),
                source=row["source"],
                optional=row["optional"] == "yes",
            )
            entries[entry.id] = entry
    except KeyError as exc:
        raise CodeError(f"{path}: no column {exc}") from None
    except ValueError as exc:
        raise CodeError(f"{path} line {reader.line_num}: {exc}") from None
    return entries


def load_record(entry: CorpusEntry) -> ConstructionRecord:
    if entry.kind != "record":
        raise CorpusError(f"{entry.id} is not a record entry")
    if entry.file is None:
        raise CorpusError(f"{entry.id}: the manifest names no record file")
    return parse_record(read_ascii(data_dir() / entry.file))


class _BaseCycle(CorpusError):
    """Its text names where the walk closed the cycle, so it is never memoized."""


def resolve_code(entry_id: str, entries: dict[str, CorpusEntry] | None = None, _seen=(), _memo=None) -> LinearCode:
    """Materialize an entry as a code, replaying records recursively; ``_memo`` maps an id to its code or error.

    An entry whose file is missing or malformed, or whose record step no
    longer applies, raises CorpusError("<entry id>: <reason>"), and so does
    every entry built on it."""
    entries = manifest() if entries is None else entries
    memo = {} if _memo is None else _memo
    if entry_id in _seen:
        raise _BaseCycle(f"record base cycle through {entry_id!r}")
    if entry_id not in memo:
        try:
            memo[entry_id] = _resolve(entry_id, entries, _seen, memo)
        except _BaseCycle:
            raise
        except CorpusError as exc:
            memo[entry_id] = exc
        except (OSError, CodeError, FieldError, LinalgError) as exc:  # a missing or malformed file, a step that fails
            memo[entry_id] = CorpusError(f"{entry_id}: {exc}")
    hit = memo[entry_id]
    if isinstance(hit, CorpusError):
        raise hit
    return hit


def _resolve(entry_id: str, entries: dict[str, CorpusEntry], seen, memo) -> LinearCode:
    if entry_id not in entries:
        raise CorpusError(f"unknown corpus entry {entry_id!r}")
    entry = entries[entry_id]
    if entry.kind == "code":
        if entry.file is None:
            raise MissingBase(f"{entry.id}: matrix not distributed ({entry.source})")
        return read_code_file(data_dir() / entry.file)
    rec = load_record(entry)
    base = resolve_code(rec.base, entries, seen + (entry_id,), memo)
    steps = apply_record(rec, base)
    return steps[-1] if steps else base


@dataclass
class VerificationReport:
    entry_id: str
    ok: bool
    skipped: bool
    messages: list[str]


def verify_entry(
    entry: CorpusEntry, entries=None, threads: int = 1, _memo=None, cap: int | None = None
) -> VerificationReport:
    """Check every claim the manifest makes about one entry; scans run under ``cap``.

    An entry that does not resolve fails (an optional one with a missing
    base is skipped), and so does a claim whose scan runs out of budget.
    """
    messages: list[str] = []
    try:
        code = resolve_code(entry.id, entries, _memo=_memo)
    except MissingBase as exc:
        if entry.optional:
            return VerificationReport(entry.id, True, True, [f"skipped: {exc}"])
        return VerificationReport(entry.id, False, False, [f"missing base: {exc}"])
    except CorpusError as exc:
        return VerificationReport(entry.id, False, False, [str(exc)])
    ok = True

    def check(cond: bool, label, failed="FAILED"):
        nonlocal ok
        messages.append(f"{label}: {'ok' if cond else failed}")
        ok = ok and cond

    check(code.field.name == entry.field_name, "field")
    check(code.params() == (entry.n, entry.k), f"parameters [{entry.n},{entry.k}]")
    if entry.claims_lcd():
        check(is_lcd(code), "lcd")
    wd = None
    if entry.weights is not None:
        try:
            wd = weight_distribution(code, cap=cap, threads=threads)
        except BudgetExceeded:
            pass  # reported in the weight distribution's place below
    if entry.d is not None:
        try:  # d from the weight distribution when there is one, so no code is scanned twice
            d = min_weight(code, cap=cap, threads=threads) if wd is None else wd.min_weight
            check(d == entry.d, f"min weight {entry.d} (got {d})")
        except BudgetExceeded as exc:
            check(False, "min weight", f"inconclusive ({exc})")
    if entry.claims_odd_like():
        check(not is_even_like(code), "odd-like")
    if wd is not None:
        check(dict(wd.nonzero()) == entry.weights, "weight distribution")
    elif entry.weights is not None:
        check(False, "weight distribution", f"inconclusive ({code.field.order}^{code.k} codewords exceed the cap)")
    return VerificationReport(entry.id, ok, False, messages)


def check_all(threads: int = 1, cap: int | None = None) -> list[VerificationReport]:
    """verify_entry on every entry; an optional entry with a missing base is skipped."""
    entries = manifest()
    memo: dict = {}
    return [verify_entry(entry, entries, threads=threads, _memo=memo, cap=cap) for entry in entries.values()]
