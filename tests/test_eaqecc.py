import random
import sys

import pytest

from lcdkit.eaqecc import EaqeccParams, ParamError, family, from_hermitian_lcd


def test_corollary_tuples():
    assert from_hermitian_lcd(22, 12, 7) == EaqeccParams(22, 12, 7, 10)
    assert from_hermitian_lcd(23, 13, 7) == EaqeccParams(23, 13, 7, 10)
    assert from_hermitian_lcd(24, 14, 7) == EaqeccParams(24, 14, 7, 10)
    assert from_hermitian_lcd(25, 15, 7) == EaqeccParams(25, 15, 7, 10)


def test_universe_code_needs_no_ebits():
    assert from_hermitian_lcd(9, 9, 1) == EaqeccParams(9, 9, 1, 0)


def test_str_form():
    assert str(from_hermitian_lcd(22, 12, 7)) == "[[22,12,7;10]]"


def test_family_s_zero_reduces():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randrange(1, 60)
        k = rng.randrange(1, n + 1)
        d = rng.randrange(1, n + 1)
        assert family(n, k, d, 0) == from_hermitian_lcd(n, k, d)


def _family_oracle(n, k, d, s):
    # independent evaluation: geometric sum 1 + 4 + ... + 4^(k-1)
    step = sum(4**i for i in range(k))
    nn = n + step * s
    return (nn, k, d + 4 ** (k - 1) * s, nn - k)


def test_family_values_cross_checked():
    got = family(22, 12, 7, 1)
    assert (got.n, got.k, got.d, got.c) == _family_oracle(22, 12, 7, 1)
    assert got == EaqeccParams(5592427, 12, 4194311, 5592415)
    got = family(23, 13, 7, 1)
    assert (got.n, got.k, got.d, got.c) == _family_oracle(23, 13, 7, 1)
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(1, 40)
        k = rng.randrange(1, n + 1)
        d = rng.randrange(1, n + 1)
        s = rng.randrange(0, 5)
        got = family(n, k, d, s)
        assert (got.n, got.k, got.d, got.c) == _family_oracle(n, k, d, s)
        assert got.c == got.n - got.k


def test_family_big_k_no_overflow():
    got = family(100, 64, 10, 3)
    assert got.d == 10 + 3 * 4**63  # exceeds 64-bit range by construction
    assert got.c == got.n - 64


def test_bad_inputs():
    with pytest.raises(ParamError):
        from_hermitian_lcd(5, 6, 1)
    with pytest.raises(ParamError):
        from_hermitian_lcd(5, 0, 1)
    with pytest.raises(ParamError):
        from_hermitian_lcd(5, 3, 6)
    with pytest.raises(ParamError):
        family(5, 3, 2, -1)


def test_family_past_the_int_to_str_limit_is_refused():
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)  # Python's default
        with pytest.raises(ParamError, match="more than 4300 digits"):
            family(20000, 8000, 3, 1)  # d = 3 + 4^7999, 4816 digits
        assert family(20000, 8000, 3, 0) == EaqeccParams(20000, 8000, 3, 12000)
        sys.set_int_max_str_digits(0)  # no limit
        assert len(str(family(20000, 8000, 3, 1).d)) == 4816
        sys.set_int_max_str_digits(640)  # the smallest limit there is: 640 digits still print
        assert family(10**640 - 2, 1, 1, 1).n == 10**640 - 1
        with pytest.raises(ParamError, match="more than 640 digits"):
            family(10**640 - 1, 1, 1, 1)
    finally:
        sys.set_int_max_str_digits(old)
