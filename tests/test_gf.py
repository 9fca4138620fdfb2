import dataclasses

import numpy as np
import pytest

from lcdkit.gf import (
    GF2,
    GF3,
    GF4H,
    FieldError,
    FieldSpec,
    field_by_name,
)

ALL_FIELDS = [GF2, GF3, GF4H]

# element indices for GF(4)
W, W2 = 2, 3


# ids skip the Euclidean GF(4) case that lcdkit no longer has
@pytest.mark.parametrize("f", ALL_FIELDS, ids=["f0", "f1", "f3"])
def test_field_axioms_exhaustive(f):
    q = f.order
    add, mul, neg, inv = f.add_table, f.mul_table, f.neg_table, f.inv_table
    for a in range(q):
        assert add[a, 0] == a
        assert mul[a, 1] == a
        assert mul[a, 0] == 0
        assert add[a, neg[a]] == 0
        for b in range(q):
            assert add[a, b] == add[b, a]
            assert mul[a, b] == mul[b, a]
            for c in range(q):
                assert add[add[a, b], c] == add[a, add[b, c]]
                assert mul[mul[a, b], c] == mul[a, mul[b, c]]
                assert mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]
    for a in range(1, q):
        assert mul[a, inv[a]] == 1


def test_specific_values():
    assert GF3.add_table[2, 2] == 1
    assert GF4H.add_table[W, W] == 0
    assert GF4H.add_table[W, 1] == W2
    assert GF4H.mul_table[W, W2] == 1
    assert GF3.inv_table[2] == 2
    assert GF2.mul_table[1, 1] == 1
    # w^2 = w + 1 under the minimal polynomial x^2 + x + 1
    assert GF4H.mul_table[W, W] == GF4H.add_table[W, 1] == W2


def test_conjugation():
    add, mul, conj = GF4H.add_table, GF4H.mul_table, GF4H.conj_table
    assert conj[W] == W2
    assert conj[W2] == W
    assert conj[0] == 0
    assert conj[1] == 1
    for a in range(4):
        assert conj[conj[a]] == a
        for b in range(4):
            assert conj[mul[a, b]] == mul[conj[a], conj[b]]
            assert conj[add[a, b]] == add[conj[a], conj[b]]
    # conjugation is the identity below GF(4)
    for f in (GF2, GF3):
        assert np.array_equal(f.conj_table, np.arange(f.order))


def test_field_spec_invariants():
    with pytest.raises(FieldError):
        FieldSpec(5)
    # GF(4) is Hermitian GF(4): the order is the whole field description
    assert [f.name for f in dataclasses.fields(FieldSpec)] == ["order"]
    assert FieldSpec(4) == GF4H and GF4H.name == "gf4h"


def test_field_by_name_roundtrip():
    for f in ALL_FIELDS:
        assert field_by_name(f.name) == f
    with pytest.raises(FieldError):
        field_by_name("gf7")
    # no Euclidean GF(4): the error names the three fields there are
    with pytest.raises(FieldError, match=r"'gf4'; expected one of \['gf2', 'gf3', 'gf4h'\]"):
        field_by_name("gf4")


def test_alphabets():
    assert GF2.alphabet == "01"
    assert GF3.alphabet == "012"
    assert GF4H.alphabet == "01wW"
    for f in ALL_FIELDS:
        text = "".join(f.format_symbol(v) for v in range(f.order))
        got = f.parse_symbols(text)
        assert got.dtype == np.uint8 and got.tolist() == list(range(f.order))
        assert f.parse_symbols("").shape == (0,)
    # the first symbol outside the alphabet is named, with its position; a
    # non-ASCII symbol too, though it encodes to more than one byte
    for f, text, bad in [(GF2, "0120", 2), (GF3, "01w", 2), (GF4H, "1 w", 1), (GF2, "0\u00e91x", 1), (GF3, "\udcff", 0)]:
        with pytest.raises(FieldError) as exc:
            f.parse_symbols(text)
        assert str(exc.value) == f"symbol {text[bad]!r} not in alphabet {f.alphabet!r} of {f.name}"
        assert exc.value.position == bad
