"""Round trips and malformed input for the .code and .rec text formats."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lcdkit import linalg
from lcdkit.codes import CodeError, format_code, new_code, parse_code
from lcdkit.construct import STEP_OPS, ConstructError, ConstructionRecord, Step, format_record, parse_record
from lcdkit.gf import GF2, GF3, GF4H

FILE_FIELDS = [GF2, GF3, GF4H]


@st.composite
def codes(draw):
    f = draw(st.sampled_from(FILE_FIELDS))
    k = draw(st.integers(1, 5))
    n = draw(st.integers(k, 12))
    rows = draw(st.lists(st.lists(st.integers(0, f.order - 1), min_size=n, max_size=n), min_size=k, max_size=k))
    G = np.array(rows, dtype=np.uint8)
    if linalg.rank(G, f) < k:
        G[:, :k] = np.eye(k, dtype=np.uint8)  # full rank, the rest as drawn
    return f, G


# a single line without surrounding whitespace, as a record's base or argument
WORDS = st.text(st.sampled_from("abcxyz_.-0123 /"), min_size=1, max_size=12).map(str.strip).filter(bool)
COORDS = st.lists(st.integers(1, 99), min_size=1, max_size=5).map(lambda cs: ",".join(map(str, cs)))


@st.composite
def records(draw):
    steps = []
    for op in draw(st.lists(st.sampled_from(STEP_OPS), max_size=6)):
        if op == "pad":
            steps.append(Step(op))
        else:
            steps.append(Step(op, draw(COORDS if op in ("shorten", "puncture") else WORDS)))
    return ConstructionRecord(draw(WORDS), tuple(steps))


@st.composite
def mangled(draw, text):
    """``text`` with a few characters deleted, replaced or inserted."""
    chars = list(text)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(chars)))
        kind = draw(st.sampled_from(["delete", "replace", "insert"]))
        ch = draw(st.sampled_from("0123456789wW \n#,-gfhbase\t\x0b"))
        if kind == "insert" or at == len(chars):
            chars.insert(at, ch)
        elif kind == "delete":
            del chars[at]
        else:
            chars[at] = ch
    return "".join(chars)


@settings(max_examples=200, deadline=None)
@given(codes())
def test_code_text_round_trip(fg):
    f, G = fg
    C = new_code(f, G)
    back = parse_code(format_code(C))
    assert back.field == C.field and np.array_equal(back.generator, C.generator)


@settings(max_examples=200, deadline=None)
@given(records())
def test_record_text_round_trip(rec):
    assert parse_record(format_record(rec)) == rec


def spaced_text(f, G) -> str:
    """A .code text of G with a comment line and spaces between the symbols."""
    rows = (" ".join(f.format_symbol(int(v)) for v in row) for row in G)
    return f"# c\n{f.name} {G.shape[1]} {G.shape[0]}\n" + "\n".join(rows) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=60), codes().flatmap(lambda fg: mangled(spaced_text(*fg)))))
def test_malformed_code_text_raises_only_code_errors(text):
    try:
        C = parse_code(text)
    except CodeError:
        return
    assert parse_code(format_code(C)).generator.tolist() == C.generator.tolist()


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=60), records().flatmap(lambda r: mangled(format_record(r)))))
def test_malformed_record_text_raises_only_construct_errors(text):
    try:
        rec = parse_record(text)
    except ConstructError:
        return
    assert parse_record(format_record(rec)) == rec
