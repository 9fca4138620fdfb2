"""Fixpoint propagation of minimum-distance bounds for LCD codes.

A BoundsTable holds, per (n, k), a lower and an upper bound on the
largest minimum weight among all LCD [n, k] codes over one field,
each bound carrying its provenance: a seed kind, or for a derived bound
the rule id plus the cell, side and value of every source it used.
Propagation applies the inequality rules until nothing changes; bounds
move monotonically (lower up, upper down) and are capped by n, so a
fixpoint is reached.

The rules live in one table (RULES) that propagate and replay_chain
both fire; replay_chain re-derives a bound from the source values
recorded with it.

Lower-bound rules follow the witness reading: each is backed by an
explicit construction that turns an LCD [n,k,d] code into a larger one
(zero-column padding, an LCD subcode of codimension 1, or the
parity-augmentation steps available over GF(2) when d is odd).
Upper-bound rules come from shortening arguments.

bundled_table is lcdkit's own table for a field, the one `lcdkit bounds`
and scripts/rebuild_tables.py propagate: the bundled published grid.
Over GF(3) it also seeds the exact high-rate values on the grid's rows,
but the bundled ternary grid already holds each of those cells, so they
act only on a grid row that lacks one.
"""

from __future__ import annotations

import csv
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

SEED_KINDS = ("witness", "literature-exact", "literature-bound")


class ConflictError(ValueError):
    pass


class SeedError(ValueError):
    """A seed file that cannot be read into a table."""


@dataclass(frozen=True)
class Provenance:
    kind: str  # seed kind, or "rule"
    detail: str  # free text, or the rule id
    sources: tuple = ()  # ((n, k, side, value), ...) for rule-derived bounds


@dataclass(frozen=True)
class Bound:
    value: int
    provenance: Provenance


@dataclass
class Cell:
    lower: Bound | None = None
    upper: Bound | None = None

    @property
    def exact(self) -> bool:
        return self.lower is not None and self.upper is not None and self.lower.value == self.upper.value


class BoundsTable:
    def __init__(self, field_name: str):
        self.field_name = field_name
        self.cells: dict[tuple[int, int], Cell] = {}

    def cell(self, n: int, k: int) -> Cell | None:
        return self.cells.get((n, k))

    def _cell(self, n: int, k: int) -> Cell:
        c = self.cells.get((n, k))
        if c is None:
            c = self.cells[(n, k)] = Cell()
        return c

    def _describe(self, b: Bound) -> str:
        p = b.provenance
        if p.kind == "rule":
            return f"{b.value} via rule {p.detail} from {list(p.sources)}"
        return f"{b.value} ({p.kind}: {p.detail})"

    def improve(self, n: int, k: int, side: str, value: int, prov: Provenance) -> bool:
        """Set the ``side`` ("lower" or "upper") bound of [n, k] to ``value``
        if that is stronger; True if it changed.  ConflictError if ``value``
        is out of range or crosses the cell's other bound."""
        if not 1 <= k <= n or not 1 <= value <= n:
            raise ConflictError(f"{side} bound {value} out of range for [{n},{k}]")
        c = self._cell(n, k)
        other = "upper" if side == "lower" else "lower"
        against = getattr(c, other)
        if against is not None and not _as_strong(other, value, against.value):
            raise ConflictError(
                f"[{n},{k}] {self.field_name}: new {side} {self._describe(Bound(value, prov))} "
                f"{'exceeds' if side == 'lower' else 'is below'} {other} {self._describe(against)}"
            )
        now = getattr(c, side)
        if now is None or not _as_strong(side, now.value, value):
            setattr(c, side, Bound(value, prov))
            return True
        return False

    def seed(self, n, k, lower=None, upper=None, kind="witness", provenance=""):
        if kind not in SEED_KINDS:
            raise ValueError(f"unknown seed kind {kind!r}")
        changed = False
        for side, value in (("lower", lower), ("upper", upper)):
            if value is not None:
                changed |= self.improve(n, k, side, value, Provenance(kind, provenance))
        return changed

    def bounding_box(self):
        ns = [n for n, _ in self.cells]
        ks = [k for _, k in self.cells]
        return (min(ns), max(ns), min(ks), max(ks))


# -- rules -------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """One inequality between cells, all on the same ``side``.

    The first source is a cell (n, k); ``extra`` lists the offsets of any
    further sources from it, and the derived bound lands at (n, k) +
    ``target``.  ``derive(n, k, *source_values)`` gives the derived value,
    or None where the rule's condition fails.
    """

    id: str
    side: str  # "lower" | "upper"
    fields: tuple[str, ...]
    target: tuple[int, int]
    derive: Callable[..., int | None]
    extra: tuple[tuple[int, int], ...] = ()


def _same(n, k, d):
    return d


RULES: dict[str, Rule] = {
    r.id: r
    for r in [
        # a zero column preserves the Gram matrix: LCD [n,k,d] -> [n+1,k,d]
        Rule("pad-column", "lower", ("gf2", "gf3", "gf4h"), (1, 0), _same),
        # an LCD [n,k,d] code has an LCD [n,k-1,>=d] subcode
        Rule("subcode-lower", "lower", ("gf2", "gf3"), (0, -1), _same),
        # upper reading of the same subcode fact: d(n,k+1) <= d(n,k)
        Rule("subcode-upper", "upper", ("gf2", "gf3"), (0, 1), _same),
        # for odd k+1, d(n+1,k+1) <= d(n,k)
        Rule("drop-odd-k-upper", "upper", ("gf2",), (1, 1), lambda n, k, d: None if k % 2 else d),
        # k even and d odd: an LCD [n+1,k,d+1] code exists
        Rule("grow-even-k", "lower", ("gf2",), (1, 0), lambda n, k, d: d + 1 if d % 2 and k % 2 == 0 else None),
        # d odd: an LCD [n+2,k,d+1] code exists
        Rule("grow-two-cols", "lower", ("gf2",), (2, 0), lambda n, k, d: d + 1 if d % 2 else None),
        # d(n+1,k+1) <= max(d(n,k), d(n-1,k-1)): one shortening step lands on a
        # hull of dimension at most 1, a second hull-shortening removes it
        Rule("shorten-two-upper", "upper", ("gf2", "gf3"), (1, 1), lambda n, k, u1, u2: max(u1, u2), ((-1, -1),)),
    ]
}


def rules_for(field_name: str) -> list[Rule]:
    return [r for r in RULES.values() if field_name in r.fields]


def _bound(table: BoundsTable, n: int, k: int, side: str) -> Bound | None:
    c = table.cell(n, k)
    return None if c is None else getattr(c, side)


def _as_strong(side: str, value: int, than: int) -> bool:
    """True if ``value`` bounds at least as tightly as ``than`` on ``side``."""
    return value >= than if side == "lower" else value <= than


def _shots(rule: Rule, table: BoundsTable, box, keys=None) -> list:
    """[(n, k, value, sources)] for every bound ``rule`` derives inside ``box``
    from the cells ``keys`` (default: every cell, in insertion order) that is
    stronger than its target's current bound.

    The first source's bound is read from the cell being iterated and only
    the extra sources are looked up: a lookup per cell for every source
    would dominate the cost of propagation.
    """
    side, derive, extra = rule.side, rule.derive, rule.extra
    dn, dk = rule.target
    n_lo, n_hi, k_lo, k_hi = box
    cells = table.cells
    lower = side == "lower"
    out = []
    for n, k in cells if keys is None else keys:
        c = cells[n, k]
        b = c.lower if lower else c.upper
        tn, tk = n + dn, k + dk
        if b is None or not (n_lo <= tn <= n_hi and k_lo <= tk <= k_hi and 1 <= tk <= tn):
            continue
        values = (b.value,)
        for en, ek in extra:
            e = _bound(table, n + en, k + ek, side)
            if e is None:
                break
            values += (e.value,)
        else:
            value = derive(n, k, *values)
            if value is None:
                continue
            # the target's bound, read inline like the first source's: keep only a stronger value
            t = cells.get((tn, tk))
            now = None if t is None else t.lower if lower else t.upper
            if now is None or (now.value < value if lower else now.value > value):
                offsets = ((0, 0), *extra)
                sources = tuple((n + en, k + ek, side, v) for (en, ek), v in zip(offsets, values))
                out.append((tn, tk, value, sources))
    return out


def propagate(table: BoundsTable, box=None) -> int:
    """Apply rules until no bound changes; returns the number of updates.

    ``box`` = (n_min, n_max, k_min, k_max) limits which cells may be
    created or updated (default: the bounding box of the seeds).

    The rules fire in RULES order, round after round, until a round
    changes nothing.  A rule's first firing derives from every cell; later
    ones derive only from the cells whose bound on its side changed since
    its previous firing, and, for a rule with extra sources, from the
    cells that read such a cell as an extra source (semi-naive
    evaluation): any other cell would derive the value it derived before,
    which its target already holds.  A firing derives from the table as
    it stands, visits its cells in the table's insertion order, and then
    applies each derived value that is stronger than its target's bound.
    """
    if not table.cells:
        return 0
    box = table.bounding_box() if box is None else box
    rules = rules_for(table.field_name)
    rank = {key: i for i, key in enumerate(table.cells)}  # insertion order of the cells
    log = []  # (n, k, side) of every update, in the order applied
    read = {}  # rule id -> len(log) at its last firing
    total = 0
    changed = True
    while changed:
        changed = False
        for rule in rules:
            keys = None
            if rule.id in read:
                moved = {(n, k) for n, k, side in log[read[rule.id] :] if side == rule.side}
                readers = ({(n - en, k - ek) for n, k in moved} & rank.keys() for en, ek in rule.extra)
                keys = sorted(moved.union(*readers), key=rank.__getitem__)
            read[rule.id] = len(log)
            for n, k, value, sources in _shots(rule, table, box, keys):
                now = _bound(table, n, k, rule.side)
                if now is not None and _as_strong(rule.side, now.value, value):
                    # improve would return False: the cell's lower <= upper
                    # holds, so a value no stronger than its bound cannot conflict
                    continue
                if table.improve(n, k, rule.side, value, Provenance("rule", rule.id, sources)):
                    rank.setdefault((n, k), len(rank))
                    log.append((n, k, rule.side))
                    changed = True
                    total += 1
    return total


def replay_chain(table: BoundsTable, n: int, k: int, side: str) -> bool:
    """Re-derive one bound from its recorded sources; True if it reproduces.

    The recorded rule must exist and sit on ``side``, its source and target
    offsets must match the recorded cells, re-firing it on the recorded
    source values must give the stored value, and every source's current
    bound must be at least as strong as the value recorded for it.
    """
    b = _bound(table, n, k, side)
    if b is None:
        return False
    p = b.provenance
    if p.kind != "rule":
        return True  # seeds are their own evidence
    rule = RULES.get(p.detail)
    if rule is None or rule.side != side or len(p.sources) != 1 + len(rule.extra):
        return False
    sn, sk = p.sources[0][:2]
    if (sn + rule.target[0], sk + rule.target[1]) != (n, k):
        return False
    for (cn, ck, cside, value), (en, ek) in zip(p.sources, ((0, 0), *rule.extra)):
        now = _bound(table, cn, ck, side)
        if (cn, ck, cside) != (sn + en, sk + ek, side) or now is None or not _as_strong(side, now.value, value):
            return False
    return rule.derive(sn, sk, *(s[3] for s in p.sources)) == b.value


# -- seed file and grid I/O ---------------------------------------------------


def seed_from_csv(table: BoundsTable, path) -> int:
    """Seed ``table`` from the rows for its field of a seed CSV (columns
    field, n, k, lower, upper, kind, provenance); returns how many.

    SeedError names the file, and the line where one is known, when the
    file is not ASCII, lacks a column or has a row that cannot seed: a
    cell that is not an integer, an unknown kind, or a bound out of range
    or in conflict with another seed.
    """
    count = 0
    with open(path, newline="", encoding="ascii") as fh:
        reader = csv.DictReader(fh, restval="")
        try:
            for row in reader:
                if row["field"] != table.field_name:
                    continue
                lower, upper = (int(row[side]) if row[side] else None for side in ("lower", "upper"))
                table.seed(int(row["n"]), int(row["k"]), lower, upper, row["kind"], row["provenance"])
                count += 1
        except KeyError as exc:
            raise SeedError(f"{path}: no column {exc}") from None
        except UnicodeDecodeError as exc:
            raise SeedError(f"{path}: not an ASCII text file ({exc})") from None
        except ValueError as exc:  # ConflictError too
            raise SeedError(f"{path} line {reader.line_num}: {exc}") from None
    return count


def parse_cell_string(text: str) -> tuple[int, int]:
    text = text.strip()
    if "-" in text:
        lo, hi = text.split("-")
        return int(lo), int(hi)
    v = int(text)
    return v, v


def grid_path(field_name: str) -> Path:
    return Path(__file__).parent / "data" / f"grid_{field_name}.csv"


def load_grid(path) -> dict[tuple[int, int], str]:
    """{(n, k): cell string} for the nonblank cells of a grid CSV (columns n, k, cell)."""
    out = {}
    with open(path, newline="", encoding="ascii") as fh:
        rows = csv.reader(fh)
        header = next(rows)
        i_n, i_k, i_cell = (header.index(name) for name in ("n", "k", "cell"))
        for row in rows:
            if row and (cell := row[i_cell].strip()):
                out[(int(row[i_n]), int(row[i_k]))] = cell
    return out


def bundled_table(field_name: str) -> BoundsTable | None:
    """lcdkit's table for a field before propagation; None if no grid is bundled for it.

    Every published grid cell is a literature seed, exact where the cell
    holds one value.  Over GF(3) each of the grid's rows n also takes the
    known exact values at very high rates: (n, n) is the universe code, the
    unique [n,n] code, LCD with d = 1; (n, n-1) is 1 when 3 | n, else 2;
    and for 20 <= n <= 25 the values at k = n-2, n-3, n-4 are 2, 2, 3.
    A cell keeps the provenance of its first seed, and the bundled ternary
    grid has every one of these cells as a `published grid [n,k]` seed with
    the same value, so they shape the table only on a row the grid lacks.
    """
    path = grid_path(field_name)
    if not path.exists():
        return None
    table = BoundsTable(field_name)
    grid = load_grid(path)
    for (n, k), cell in sorted(grid.items()):
        lo, hi = parse_cell_string(cell)
        kind = "literature-exact" if lo == hi else "literature-bound"
        table.seed(n, k, lower=lo, upper=hi, kind=kind, provenance=f"published grid [{n},{k}]")
    if field_name == "gf3":
        for n in sorted({n for n, _ in grid}):
            table.seed(n, n, lower=1, upper=1, kind="literature-exact", provenance="universe code")
            high = [(n - 1, 1 if n % 3 == 0 else 2)] if n >= 2 else []
            if 20 <= n <= 25:
                high += [(n - 2, 2), (n - 3, 2), (n - 4, 3)]
            for k, d in high:
                table.seed(n, k, lower=d, upper=d, kind="literature-exact", provenance="high-rate exact value")
    return table


def cell_string(table: BoundsTable, n: int, k: int) -> str:
    c = table.cell(n, k)
    if c is None or (c.lower is None and c.upper is None):
        return ""
    if c.lower is None:
        return f"-{c.upper.value}"
    if c.upper is None:
        return f"{c.lower.value}-"
    if c.exact:
        return str(c.lower.value)
    return f"{c.lower.value}-{c.upper.value}"


def render(table: BoundsTable, n_range, k_range, fmt: str = "md") -> str:
    ns = list(n_range)
    ks = list(k_range)
    rows = [[str(n)] + [cell_string(table, n, k) for k in ks] for n in ns]
    if fmt == "csv":
        lines = ["n\\k," + ",".join(str(k) for k in ks)]
        lines += [",".join(r) for r in rows]
        return "\n".join(lines) + "\n"
    if fmt == "md":
        header = "| n\\k | " + " | ".join(str(k) for k in ks) + " |"
        sep = "|" + "---|" * (len(ks) + 1)
        lines = [header, sep]
        lines += ["| " + " | ".join(r) + " |" for r in rows]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
