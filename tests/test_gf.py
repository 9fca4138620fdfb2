import numpy as np
import pytest

from lcdkit.gf import (
    EUCLIDEAN,
    HERMITIAN,
    GF2,
    GF3,
    GF4,
    GF4H,
    FieldError,
    FieldSpec,
    field_by_name,
)

ALL_FIELDS = [GF2, GF3, GF4, GF4H]

# element indices for GF(4)
W, W2 = 2, 3


@pytest.mark.parametrize("f", ALL_FIELDS)
def test_field_axioms_exhaustive(f):
    q = f.order
    for a in range(q):
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        for b in range(q):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in range(q):
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1


def test_specific_values():
    assert GF3.add(2, 2) == 1
    assert GF4.add(W, W) == 0
    assert GF4.add(W, 1) == W2
    assert GF4.mul(W, W2) == 1
    assert GF3.inv(2) == 2
    assert GF2.mul(1, 1) == 1
    # w^2 = w + 1 under the minimal polynomial x^2 + x + 1
    assert GF4.mul(W, W) == GF4.add(W, 1) == W2


def test_inv_zero_raises():
    for f in ALL_FIELDS:
        with pytest.raises(ZeroDivisionError):
            f.inv(0)


def test_conjugation():
    assert GF4H.conj(W) == W2
    assert GF4H.conj(W2) == W
    assert GF4H.conj(0) == 0
    assert GF4H.conj(1) == 1
    for a in range(4):
        assert GF4H.conj(GF4H.conj(a)) == a
        for b in range(4):
            assert GF4H.conj(GF4H.mul(a, b)) == GF4H.mul(GF4H.conj(a), GF4H.conj(b))
            assert GF4H.conj(GF4H.add(a, b)) == GF4H.add(GF4H.conj(a), GF4H.conj(b))
    # Euclidean flavors conjugate trivially
    for f in (GF2, GF3, GF4):
        assert np.array_equal(f.conj_table, np.arange(f.order))


def test_field_spec_invariants():
    with pytest.raises(FieldError):
        FieldSpec(5)
    with pytest.raises(FieldError):
        FieldSpec(2, HERMITIAN)
    with pytest.raises(FieldError):
        FieldSpec(3, HERMITIAN)
    assert FieldSpec(4, HERMITIAN).flavor == HERMITIAN
    assert FieldSpec(3).flavor == EUCLIDEAN
    with pytest.raises(FieldError, match="unknown flavor 'symplectic'"):
        FieldSpec(2, "symplectic")


def test_field_by_name_roundtrip():
    for f in ALL_FIELDS:
        assert field_by_name(f.name) == f
    with pytest.raises(FieldError):
        field_by_name("gf7")


def test_alphabets():
    assert GF2.alphabet == "01"
    assert GF3.alphabet == "012"
    assert GF4H.alphabet == "01wW"
    for f in ALL_FIELDS:
        for v in range(f.order):
            assert f.parse_symbol(f.format_symbol(v)) == v
    with pytest.raises(FieldError):
        GF2.parse_symbol("2")
