"""Entanglement-assisted quantum code parameters from quaternary
Hermitian LCD codes.

A Hermitian LCD [n, k, d] code over GF(4) yields an EAQECC [[n, k, d; c]]
with c = n - k ebits, and an infinite parameter family indexed by s >= 0:

    [[n + (4^k - 1)/3 * s,  k,  d + 4^(k-1) * s;  n + (4^k - 1)/3 * s - k]]

Python ints never overflow; a member too long to print raises ParamError.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass


class ParamError(ValueError):
    pass


@dataclass(frozen=True)
class EaqeccParams:
    n: int
    k: int
    d: int
    c: int

    def __str__(self):
        return f"[[{self.n},{self.k},{self.d};{self.c}]]"


def _check(n: int, k: int, d: int):
    if not (1 <= k <= n):
        raise ParamError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not (1 <= d <= n):
        raise ParamError(f"need 1 <= d <= n, got d={d}, n={n}")


def from_hermitian_lcd(n: int, k: int, d: int) -> EaqeccParams:
    """[[n, k, d; n-k]] from a Hermitian LCD [n,k,d] code."""
    return family(n, k, d, 0)


def family(n: int, k: int, d: int, s: int) -> EaqeccParams:
    """The s-indexed family; s = 0 is the code's own [[n, k, d; n-k]], found
    without the powers 4^k, which take k / 4 bytes each."""
    _check(n, k, d)
    if s < 0:
        raise ParamError(f"s must be nonnegative, got {s}")
    if s == 0:
        return EaqeccParams(n, k, d, n - k)
    step = (4**k - 1) // 3  # exact: 4 = 1 mod 3
    nn = n + step * s
    dd = d + 4 ** (k - 1) * s
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 (or before Python 3.10.7): no limit
    if limit and max(nn, dd) >= 10**limit:
        raise ParamError(f"the s={s} member has more than {limit} digits, Python's int-to-str limit")
    return EaqeccParams(nn, k, dd, nn - k)
