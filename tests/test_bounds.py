import copy
import csv
import dataclasses
import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lcdkit import bounds
from lcdkit.bounds import (
    RULES,
    Bound,
    BoundsTable,
    ConflictError,
    Provenance,
    bundled_table,
    cell_string,
    load_grid,
    parse_cell_string,
    propagate,
    render,
    replay_chain,
    rules_for,
)


def data_file(name):
    from lcdkit.corpus import data_dir

    return data_dir() / name


@functools.cache
def tiny_truth():
    # largest binary LCD minimum weights for n <= 8, by full enumeration; slow,
    # so every test in this module shares one copy
    return oracles.true_binary_lcd_table(8)


def test_seed_and_conflict():
    t = BoundsTable("gf2")
    t.seed(20, 7, lower=9, kind="witness", provenance="verified code")
    t.seed(20, 7, upper=9, kind="literature-bound", provenance="table")
    c = t.cell(20, 7)
    assert c.exact and c.lower.value == 9
    with pytest.raises(ConflictError):
        t.seed(20, 7, lower=10, kind="witness", provenance="bogus")
    t.seed(20, 8, upper=4, kind="literature-bound", provenance="a")
    with pytest.raises(ConflictError):
        t.seed(20, 8, lower=5, kind="witness", provenance="b")
    with pytest.raises(ValueError):
        t.seed(10, 5, lower=3, kind="guess", provenance="x")


def test_conflict_error_lists_both_provenances():
    t = BoundsTable("gf2")
    t.seed(10, 4, upper=4, kind="literature-bound", provenance="prior table")
    with pytest.raises(ConflictError, match="prior table") as exc:
        t.seed(10, 4, lower=5, kind="witness", provenance="new witness")
    assert "new witness" in str(exc.value)


def test_upper_below_lower_conflict_lists_both_provenances():
    t = BoundsTable("gf3")
    t.seed(12, 5, lower=5, kind="witness", provenance="a witness")
    with pytest.raises(ConflictError) as exc:
        t.seed(12, 5, upper=4, kind="literature-bound", provenance="a table")
    assert str(exc.value) == "[12,5] gf3: new upper 4 (literature-bound: a table) is below lower 5 (witness: a witness)"
    assert t.cell(12, 5).upper is None


def test_cell_string_upper_only():
    t = BoundsTable("gf2")
    t.seed(9, 3, upper=4, kind="literature-bound", provenance="a table")
    assert cell_string(t, 9, 3) == "-4"
    assert cell_string(t, 9, 4) == ""


def test_single_rule_applications_from_published_steps():
    # every published single-step derivation fires as exactly one rule shot
    with open(data_file("derivations_gf2.csv"), newline="", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 42
    for row in rows:
        n1, k1, d1 = int(row["n1"]), int(row["k1"]), int(row["d1"])
        n2, k2, d2 = int(row["n2"]), int(row["k2"]), int(row["d2"])
        rule = RULES[row["rule"]]
        assert "gf2" in rule.fields and rule.side == "lower" and not rule.extra, row
        assert (n1 + rule.target[0], k1 + rule.target[1]) == (n2, k2), row
        assert rule.derive(n1, k1, d1) == d2, row


def test_grow_rules_need_odd_distance():
    even_k, two_cols = RULES["grow-even-k"], RULES["grow-two-cols"]
    assert even_k.derive(31, 16, 8) is None
    assert even_k.derive(31, 15, 7) is None  # k odd
    assert two_cols.derive(29, 11, 8) is None
    assert two_cols.target == (2, 0) and two_cols.derive(29, 11, 9) == 10


def test_propagation_fires_no_rule_of_another_field():
    # rules_for is where propagation enforces a rule's field: over GF(3) the
    # gf2-only grow-two-cols would lift [29,11,9] to [31,11,10]
    assert not {"grow-even-k", "grow-two-cols", "drop-odd-k-upper"} & {r.id for r in rules_for("gf3")}
    t = BoundsTable("gf3")
    t.seed(29, 11, lower=9)
    propagate(t, box=(29, 31, 11, 11))
    assert t.cell(31, 11).lower == Bound(9, Provenance("rule", "pad-column", ((30, 11, "lower", 9),)))


def test_upper_rules():
    t = BoundsTable("gf2")
    t.seed(29, 9, upper=10, kind="literature-bound", provenance="grid")
    t.seed(28, 8, upper=10, kind="literature-bound", provenance="grid")
    propagate(t, box=(28, 30, 8, 11))
    # subcode-upper: d(29,10) <= d(29,9)
    assert t.cell(29, 10).upper.value == 10
    # drop-odd-k-upper: d(30,10)? k=10 even, no; d(29,11)? source (28,10) absent
    # shorten-two-upper: d(30,10) <= max(d(29,9), d(28,8)) = 10
    assert t.cell(30, 10).upper.value == 10


def test_propagate_idempotent_and_monotone():
    t = BoundsTable("gf3")
    assert propagate(t) == 0 and t.cells == {}  # nothing to propagate
    t = bundled_table("gf3")
    first = propagate(t)
    assert propagate(t) == 0  # fixpoint reached
    # adding a consistent seed never loosens existing bounds
    before = {key: (c.lower.value if c.lower else None, c.upper.value if c.upper else None) for key, c in t.cells.items()}
    t.seed(22, 10, lower=8, kind="witness", provenance="again")
    propagate(t)
    for key, (lo, hi) in before.items():
        c = t.cell(*key)
        if lo is not None:
            assert c.lower.value >= lo
        if hi is not None:
            assert c.upper.value <= hi


def test_a_missing_bound_does_not_replay():
    t = BoundsTable("gf2")
    t.seed(9, 3, upper=4, kind="literature-bound", provenance="a table")
    assert replay_chain(t, 9, 3, "upper")
    assert not replay_chain(t, 9, 3, "lower")  # the cell has no lower bound
    assert not replay_chain(t, 9, 4, "upper")  # no cell at all


def test_every_chain_replays():
    for field in ("gf2", "gf3"):
        t = bundled_table(field)
        propagate(t)
        for (n, k), c in t.cells.items():
            if c.lower is not None:
                assert replay_chain(t, n, k, "lower"), (field, n, k, "lower")
            if c.upper is not None:
                assert replay_chain(t, n, k, "upper"), (field, n, k, "upper")


def test_ternary_exact_seed_values():
    t = bundled_table("gf3")
    seeds = {key: c.lower.value for key, c in t.cells.items() if c.exact}
    assert seeds[(21, 20)] == 1  # 21 divisible by 3
    assert seeds[(20, 19)] == 2
    assert seeds[(25, 24)] == 2
    assert seeds[(24, 23)] == 1
    assert seeds[(22, 20)] == 2 and seeds[(22, 19)] == 2 and seeds[(22, 18)] == 3
    assert seeds[(20, 20)] == 1


def test_bundled_table_seeds_the_published_grid():
    for field in ("gf2", "gf3"):
        grid = load_grid(bounds.grid_path(field))
        t = bundled_table(field)
        for (n, k), cell in grid.items():
            c = t.cell(n, k)
            lo, hi = parse_cell_string(cell)
            assert (c.lower.value, c.upper.value) == (lo, hi)
            kind = "literature-exact" if lo == hi else "literature-bound"
            assert c.lower.provenance == c.upper.provenance == Provenance(kind, f"published grid [{n},{k}]")
        assert set(t.cells) == set(grid)  # the ternary high-rate cells are grid cells too
    assert bundled_table("gf4h") is None


def test_bundled_ternary_table_adds_high_rate_values_on_the_grid_rows(monkeypatch, tmp_path):
    # every bundled high-rate cell is also a grid cell, so a grid of two rows
    # with one cell each shows which values the ternary rows add
    grid = tmp_path / "grid_gf3.csv"
    grid.write_text("n,k,cell\n19,5,9\n21,5,11\n", encoding="ascii")
    monkeypatch.setattr(bounds, "grid_path", lambda field_name: tmp_path / f"grid_{field_name}.csv")
    t = bundled_table("gf3")
    got = {key: (c.lower.value, c.upper.value, c.lower.provenance.detail) for key, c in t.cells.items()}
    high = "high-rate exact value"
    assert got == {
        (19, 5): (9, 9, "published grid [19,5]"),
        (21, 5): (11, 11, "published grid [21,5]"),
        (19, 19): (1, 1, "universe code"),
        (19, 18): (2, 2, high),  # the k = n-2..n-4 values hold for 20 <= n <= 25 only
        (21, 21): (1, 1, "universe code"),
        (21, 20): (1, 1, high),
        (21, 19): (2, 2, high),
        (21, 18): (2, 2, high),
        (21, 17): (3, 3, high),
    }
    assert all(c.lower.provenance.kind == "literature-exact" for c in t.cells.values())


def test_parse_cell_string():
    assert parse_cell_string("9") == (9, 9)
    assert parse_cell_string("9-10") == (9, 10)


def test_render_formats():
    t = BoundsTable("gf2")
    t.seed(29, 11, lower=9, upper=9, kind="literature-exact", provenance="grid")
    t.seed(30, 11, lower=9, upper=10, kind="literature-bound", provenance="grid")
    assert cell_string(t, 29, 11) == "9"
    assert cell_string(t, 30, 11) == "9-10"
    assert cell_string(t, 31, 11) == ""
    md = render(t, range(29, 31), range(11, 13), fmt="md")
    assert "| 29 | 9 |  |" in md
    csv_text = render(t, range(29, 31), range(11, 13), fmt="csv")
    assert csv_text.splitlines()[0] == "n\\k,11,12"
    assert csv_text.splitlines()[1] == "29,9,"
    with pytest.raises(ValueError, match="unknown format 'html'"):
        render(t, range(29, 31), range(11, 13), fmt="html")


def test_binary_grid_fixpoint_matches_published_cells():
    t = bundled_table("gf2")
    grid = load_grid(data_file("grid_gf2.csv"))
    propagate(t)
    improvements = {}
    for (n, k), cell in grid.items():
        got = cell_string(t, n, k)
        if got == cell:
            continue
        lo, hi = parse_cell_string(cell)
        got_lo, got_hi = parse_cell_string(got)
        improvements[(n, k)] = (cell, got)
        # only sound, replayable strict improvements are tolerated
        assert got_hi == hi and got_lo > lo
        assert replay_chain(t, n, k, "lower")
    # the published binary grid is slack at exactly one cell: [40,14], where
    # the parity growth step on the [39,14,11] witness forces a lower of 12
    assert set(improvements) == {(40, 14)}
    assert improvements[(40, 14)] == ("11-13", "12-13")


def test_ternary_grid_fixpoint_matches_published_cells():
    t = bundled_table("gf3")
    grid = load_grid(data_file("grid_gf3.csv"))
    bounds.seed_from_csv(t, data_file("seeds_extra_gf3.csv"))
    propagate(t)
    for (n, k), cell in grid.items():
        assert cell_string(t, n, k) == cell, (n, k)


def both_propagations(t, box=None):
    """Propagate a copy of ``t`` with propagate and one with the full-sweep
    oracle; each side is (cells in order, update count or ConflictError text)."""
    out = []
    for run in (propagate, oracles.full_sweep_propagate):
        table = copy.deepcopy(t)
        try:
            result = run(table, box)
        except ConflictError as exc:
            result = str(exc)
        out.append((list(table.cells.items()), result))
    return out


def random_seed_table(field, rng):
    """A few random seeds over n <= 12; their bounds often conflict once propagated."""
    t = BoundsTable(field)
    for _ in range(rng.randint(1, 12)):
        n = rng.randint(1, 12)
        k = rng.randint(1, n)
        lower, upper = (rng.choice([None, rng.randint(1, n)]) for _ in range(2))
        try:
            t.seed(n, k, lower=lower, upper=upper, kind="literature-bound", provenance=f"seed {len(t.cells)}")
        except ConflictError:
            pass
    return t


@pytest.mark.parametrize("field", ["gf2", "gf3", "gf4h"])
def test_propagate_matches_the_full_sweep_on_random_seeds(field):
    rng = random.Random(f"semi-naive {field}")
    outcomes = set()
    for _ in range(300):
        t = random_seed_table(field, rng)
        box = None if rng.random() < 0.7 else (1, rng.randint(6, 14), 1, rng.randint(3, 14))
        fast, slow = both_propagations(t, box)
        assert fast == slow
        outcomes.add(type(fast[1]))
    assert outcomes == {int, str}  # both fixpoints and conflicts were compared


def test_propagate_matches_the_full_sweep_on_the_bundled_tables():
    gf3_extra = bundled_table("gf3")
    bounds.seed_from_csv(gf3_extra, data_file("seeds_extra_gf3.csv"))
    counts = []
    for t in (bundled_table("gf2"), bundled_table("gf3"), gf3_extra):
        fast, slow = both_propagations(t)
        assert fast == slow
        counts.append(fast[1])
    assert counts == [1, 0, 14]


def test_ternary_corollary_upper_bounds():
    # witnesses plus the two-step shortening rule pin the high-weight cells
    t = BoundsTable("gf3")
    t.seed(19, 7, lower=8, upper=8, kind="literature-exact", provenance="known")
    t.seed(20, 8, lower=8, upper=8, kind="literature-exact", provenance="known")
    t.seed(21, 9, lower=8, kind="witness", provenance="verified [21,9,8]")
    t.seed(22, 10, lower=8, kind="witness", provenance="verified [22,10,8]")
    propagate(t, box=(19, 24, 7, 12))
    assert t.cell(21, 9).exact and t.cell(21, 9).lower.value == 8
    assert t.cell(22, 10).exact and t.cell(22, 10).lower.value == 8
    assert t.cell(23, 11).upper.value == 8
    assert t.cell(24, 12).upper.value == 8


def test_bounds_sound_at_tiny_scale():
    # full enumeration gives the truth for n <= 8; seed exact values for
    # n <= 6 and check that propagation to n = 7, 8 stays sound
    truth = tiny_truth()
    t = BoundsTable("gf2")
    for (n, k), d in truth.items():
        if n <= 6 and d > 0:
            t.seed(n, k, lower=d, upper=d, kind="literature-exact", provenance="enumerated truth")
    propagate(t, box=(1, 8, 1, 8))
    checked = 0
    for n in (7, 8):
        for k in range(1, n + 1):
            c = t.cell(n, k)
            if c is None:
                continue
            if c.lower is not None:
                assert c.lower.value <= truth[(n, k)], (n, k)
                checked += 1
            if c.upper is not None:
                assert c.upper.value >= truth[(n, k)], (n, k)
                checked += 1
    assert checked >= 20


def test_rules_for_fields():
    gf2_ids = {r.id for r in rules_for("gf2")}
    gf3_ids = {r.id for r in rules_for("gf3")}
    gf4h_ids = {r.id for r in rules_for("gf4h")}
    assert "grow-even-k" in gf2_ids and "grow-even-k" not in gf3_ids
    assert "shorten-two-upper" in gf3_ids
    assert gf4h_ids == {"pad-column"}


def assert_every_bound_replays(t):
    for (n, k), c in t.cells.items():
        for side in ("lower", "upper"):
            if getattr(c, side) is not None:
                assert replay_chain(t, n, k, side), (n, k, side, getattr(c, side))


def raised_source_table():
    # [22,5] >= 10 by grow-two-cols from [20,5] >= 9; raising the source to 10
    # leaves that bound as it was (pad-column only ties it)
    t = BoundsTable("gf2")
    t.seed(20, 5, lower=9, kind="witness", provenance="first witness")
    propagate(t, box=(20, 22, 5, 5))
    t.seed(20, 5, lower=10, kind="witness", provenance="better witness")
    propagate(t, box=(20, 22, 5, 5))
    return t


def test_replay_after_a_source_improves():
    t = raised_source_table()
    b = t.cell(22, 5).lower
    assert b.value == 10 and b.provenance.detail == "grow-two-cols"
    assert b.provenance.sources == ((20, 5, "lower", 9),)
    assert_every_bound_replays(t)


def _edit_provenance(t, **changes):
    c = t.cell(22, 5)
    c.lower = Bound(c.lower.value, dataclasses.replace(c.lower.provenance, **changes))


def _weaken_source(t):
    t.cell(20, 5).lower = Bound(8, t.cell(20, 5).lower.provenance)


@pytest.mark.parametrize(
    "tamper",
    [
        lambda t: _edit_provenance(t, sources=((20, 5, "lower", 7),)),  # recorded source value
        lambda t: _edit_provenance(t, sources=((20, 5, "lower", 11),)),  # stronger than the source holds
        lambda t: _edit_provenance(t, detail="no-such-rule"),
        lambda t: _edit_provenance(t, detail="grow-even-k"),  # wrong target offset
        lambda t: _edit_provenance(t, sources=((21, 5, "lower", 9),)),  # source cell
        lambda t: _edit_provenance(t, sources=((20, 5, "upper", 9),)),  # source side
        lambda t: _edit_provenance(t, sources=((20, 5, "lower", 9), (19, 4, "lower", 9))),  # extra source
        _weaken_source,  # current source below the recorded value
    ],
    ids=["value", "value-too-strong", "unknown-rule", "other-rule", "cell", "side", "extra", "weakened"],
)
def test_replay_rejects_tampered_provenance(tamper):
    t = raised_source_table()
    assert replay_chain(t, 22, 5, "lower")
    tamper(t)
    assert not replay_chain(t, 22, 5, "lower")


def test_replay_checks_every_source_of_a_two_source_rule():
    t = BoundsTable("gf3")
    t.seed(20, 8, upper=9, kind="literature-bound", provenance="a")
    t.seed(19, 7, upper=8, kind="literature-bound", provenance="b")
    propagate(t, box=(19, 21, 7, 9))
    b = t.cell(21, 9).upper
    assert b.value == 9 and b.provenance.detail == "shorten-two-upper"
    assert b.provenance.sources == ((20, 8, "upper", 9), (19, 7, "upper", 8))
    assert replay_chain(t, 21, 9, "upper")
    t.cell(19, 7).upper = Bound(9, t.cell(19, 7).upper.provenance)  # weakened second source
    assert not replay_chain(t, 21, 9, "upper")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_raised_seeds_replay_and_stay_sound(data):
    # seed bounds no tighter than the truth, propagate, raise some lower seeds
    # to the truth and propagate again: every bound replays and stays sound
    truth = tiny_truth()
    cells = data.draw(st.lists(st.sampled_from(sorted(truth)), min_size=1, max_size=10, unique=True))
    t = BoundsTable("gf2")
    for n, k in cells:
        d = truth[(n, k)]
        lower = data.draw(st.integers(1, d))
        upper = data.draw(st.none() | st.integers(d, n))
        t.seed(n, k, lower=lower, upper=upper, kind="literature-bound", provenance="no tighter than the truth")
    box = (1, 8, 1, 8)
    propagate(t, box=box)
    for n, k in data.draw(st.lists(st.sampled_from(cells), unique=True)):
        t.seed(n, k, lower=truth[(n, k)], kind="witness", provenance="the truth")
    propagate(t, box=box)
    assert propagate(t, box=box) == 0
    assert_every_bound_replays(t)
    for (n, k), c in t.cells.items():
        assert c.lower is None or c.lower.value <= truth[(n, k)], (n, k)
        assert c.upper is None or c.upper.value >= truth[(n, k)], (n, k)
