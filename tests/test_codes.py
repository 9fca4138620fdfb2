import random
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from lcdkit import enumeration, linalg
from lcdkit.codes import (
    BROUWER_ZIMMERMANN,
    EXHAUSTIVE,
    BudgetExceeded,
    CodeError,
    EmptyCode,
    LinearCode,
    dual,
    format_code,
    hull,
    is_even_like,
    is_lcd,
    min_weight,
    new_code,
    parse_code,
    puncture,
    shorten,
    weight_distribution,
)
from lcdkit.gf import GF2, GF3, GF4H

FIELDS = [GF2, GF3, GF4H]


def test_new_code_accepts_identity():
    c = new_code(GF2, np.eye(4, dtype=np.uint8))
    assert c.params() == (4, 4)
    # stored as given, not normalized
    g = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
    assert np.array_equal(new_code(GF2, g).generator, g)


def test_new_code_rejects_dependent_row():
    with pytest.raises(CodeError, match="row 2"):
        new_code(GF2, [[1, 1, 0], [1, 1, 0]])
    with pytest.raises(CodeError, match="row 3"):
        new_code(GF3, [[1, 0, 0], [0, 1, 0], [1, 2, 0]])
    with pytest.raises(CodeError):
        new_code(GF2, np.zeros((0, 3), dtype=np.uint8))


def test_dual_universe_is_zero_code():
    c = new_code(GF3, np.eye(3, dtype=np.uint8))
    d = dual(c)
    assert d.k == 0 and d.n == 3


def test_dual_self_dual_repetition():
    c = new_code(GF2, [[1, 1]])
    d = dual(c)
    assert d.params() == (2, 1)
    assert np.array_equal(d.generator, [[1, 1]])


@pytest.mark.parametrize("f", FIELDS)
def test_dual_of_dual_is_original(f):
    rng = random.Random(37)
    for _ in range(100):
        k = rng.randrange(1, 5)
        n = rng.randrange(k + 1, 9)
        c = oracles.random_code(f, n, k, rng)
        assert oracles.same_row_space(dual(dual(c)), c)


@pytest.mark.parametrize("f", FIELDS)
def test_dual_pairs_to_zero(f):
    rng = random.Random(41)
    for _ in range(50):
        c = oracles.random_code(f, rng.randrange(2, 9), 2, rng)
        d = dual(c)
        assert d.k == c.n - c.k
        assert not oracles.pairings_with_generator(c, d.generator).any()


def test_hull_identity_trivial():
    c = new_code(GF2, np.eye(4, dtype=np.uint8))
    h = hull(c)
    assert h.dim == 0 and h.pivot_set == () and h.basis.shape == (0, 4)
    assert is_lcd(c)


def test_hull_self_orthogonal_row():
    c = new_code(GF2, [[1, 1]])
    h = hull(c)
    assert h.dim == 1
    assert np.array_equal(h.basis, [[1, 1]])
    assert h.pivot_set == (0,)
    assert not is_lcd(c)


@pytest.mark.parametrize("f", FIELDS)
def test_hull_matches_bruteforce_intersection(f):
    rng = random.Random(43)
    for _ in range(60):
        k = rng.randrange(1, 6)
        n = rng.randrange(k, 11)
        c = oracles.random_code(f, n, k, rng)
        h = hull(c)
        expected = oracles.brute_hull_set(c)
        assert f.order**h.dim == len(expected)
        spanned = oracles.codeword_set(LinearCode(f, h.basis)) if h.dim else {(0,) * n}
        assert spanned == expected
        assert is_lcd(c) == (h.dim == 0)
        # the Gram-kernel basis is the RREF basis of C ∩ C^perp (Zassenhaus)
        zassenhaus = oracles.intersect_row_spaces(c.generator, linalg.nullspace(c.generator, f), f)
        assert np.array_equal(h.basis, zassenhaus)


def test_hull_dim_equals_dual_hull_dim():
    rng = random.Random(47)
    for f in FIELDS:
        for _ in range(40):
            k = rng.randrange(1, 5)
            n = rng.randrange(k + 1, 10)
            c = oracles.random_code(f, n, k, rng)
            assert hull(c).dim == hull(dual(c)).dim


def test_shorten_empty_set_returns_code_unchanged():
    c = new_code(GF2, [[1, 0, 1], [0, 1, 1]])
    assert shorten(c, ()) is c


def test_shorten_identity_single_coordinate():
    c = new_code(GF2, np.eye(2, dtype=np.uint8))
    s = shorten(c, {0})
    assert s.params() == (1, 1)
    assert np.array_equal(s.generator, [[1]])


def test_shorten_kills_code():
    c = new_code(GF2, [[1, 1]])
    with pytest.raises(EmptyCode):
        shorten(c, {0})


@pytest.mark.parametrize("f", FIELDS)
def test_shorten_matches_bruteforce(f):
    rng = random.Random(53)
    for _ in range(40):
        c = oracles.random_code(f, 12, 6, rng)
        t = sorted(rng.sample(range(12), rng.randrange(1, 4)))
        words = oracles.codeword_array(c)
        zero_on_t = words[~words[:, t].any(axis=1)]
        keep = [j for j in range(12) if j not in t]
        expected = set(map(tuple, zero_on_t[:, keep].tolist()))
        if len(expected) == 1:
            with pytest.raises(EmptyCode):
                shorten(c, t)
            continue
        s = shorten(c, t)
        assert oracles.codeword_set(s) == expected


def hull_heavy_code(f, n, k, rng):
    """A random [n, k] code whose first rows repeat a random block (twice
    over a field of characteristic 2, three times over GF(3)): such rows pair
    to zero with each other, so the hull is often large."""
    reps = 3 if f.order == 3 else 2
    m = n // reps
    while True:
        M = oracles.random_matrix(f, k, n, rng)
        for i in range(rng.randint(0, min(k, m))):
            M[i] = 0
            M[i, : reps * m] = np.tile(oracles.random_matrix(f, 1, m, rng)[0], reps)
        if linalg.rank(M, f) == k:
            return new_code(f, M)


def differential_codes(f, seed):
    """Two seeded codes per [n, k], one random and one hull-heavy: every
    n <= 14, then n around and past one 64-bit word, where [Gram | G] is
    wider than 64 columns and the hull rows sit k bits up."""
    rng = random.Random(seed)
    sizes = [(n, k) for n in range(1, 15) for k in range(1, n + 1)]
    for n, k in sizes + [(n, k) for n in (63, 64, 65, 80) for k in (1, 5, 12)]:
        yield oracles.random_code(f, n, k, rng)
        yield hull_heavy_code(f, n, k, rng)


@pytest.mark.parametrize("f", FIELDS)
def test_hull_and_shorten_equal_the_kernel_formulas(f):
    """hull and shorten (one elimination each) are byte-identical to the
    Gram-kernel hull and the nullspace-times-G shortening of tests/oracles.py,
    and dual to the RREF of the table nullspace of conj(G)."""
    rng = random.Random(59)
    dims = set()
    for c in differential_codes(f, 61):
        h = hull(c)
        basis, dim, pivots = oracles.kernel_hull(c)
        assert h.basis.dtype == np.uint8 and h.basis.shape == basis.shape
        assert h.basis.tobytes() == basis.tobytes() and h.dim == dim and h.pivot_set == pivots
        dims.add((dim > 0, dim == c.k))
        sets = [h.pivot_set, tuple(sorted(rng.sample(range(c.n), rng.randint(1, c.n)))), tuple(range(c.n))]
        for t in filter(None, sets):  # T = () returns C itself, RREF or not
            want = oracles.kernel_shorten(c, t)
            if want is None:
                with pytest.raises(EmptyCode):
                    shorten(c, t)
                continue
            s = shorten(c, t)
            assert s.field == f and s.generator.shape == want.shape
            assert s.generator.tobytes() == want.tobytes()
        assert shorten(c, ()) is c
        want = oracles.table_rref(oracles.table_nullspace(f.conj_table[c.generator], f), f)[0]
        D = dual(c).generator
        assert D.shape == want.shape and D.tobytes() == want.tobytes()
    assert dims == {(False, False), (True, False), (True, True)}  # LCD, a proper hull, self-orthogonal


@pytest.mark.parametrize("n", [1, 5, 14])
def test_hull_of_zero_code_equals_the_kernel_formula(n):
    for f in FIELDS:
        z = dual(new_code(f, np.eye(n, dtype=np.uint8)))
        h = hull(z)
        basis, dim, pivots = oracles.kernel_hull(z)
        assert h.basis.shape == basis.shape == (0, n) and h.dim == dim == 0 and h.pivot_set == pivots == ()
        assert is_lcd(z)


def test_puncture_repetition():
    c = new_code(GF2, [[1, 1]])
    p = puncture(c, {1})
    assert p.params() == (1, 1)
    assert puncture(c, ()) is c


@pytest.mark.parametrize("f", FIELDS)
def test_puncture_preserves_dimension_below_distance(f):
    rng = random.Random(59)
    for _ in range(40):
        c = oracles.random_code(f, 10, 4, rng)
        d = oracles.brute_min_weight(c)
        if d < 2:
            continue
        t = sorted(rng.sample(range(10), rng.randrange(1, d)))
        p = puncture(c, t)
        assert p.k == c.k
        assert p.n == c.n - len(t)


def test_puncture_empty_error():
    c = new_code(GF2, [[1, 0], [0, 1]])
    with pytest.raises(EmptyCode):
        puncture(c, {0, 1})


def test_shorten_puncture_duality_identities():
    # both shorten/puncture dual identities, checked as row-space equality
    rng = random.Random(61)
    for f in FIELDS:
        trials = 0
        while trials < 30:
            k = rng.randrange(2, 6)
            n = rng.randrange(k + 2, 12)
            c = oracles.random_code(f, n, k, rng)
            d = oracles.brute_min_weight(c)
            if d < 2:
                continue
            t = sorted(rng.sample(range(n), rng.randrange(1, d)))
            trials += 1
            dc = dual(c)
            # (C^perp)_T = (C^T)^perp
            rhs = dual(puncture(c, t))
            try:
                lhs = shorten(dc, t)
                assert oracles.same_row_space(lhs, rhs)
            except EmptyCode:
                assert rhs.k == 0
            # (C^perp)^T = (C_T)^perp
            try:
                rhs2 = dual(shorten(c, t))
            except EmptyCode:
                # C_T is the zero code; its dual is the universe code
                lhs2 = puncture(dc, t)
                assert lhs2.k == lhs2.n == n - len(t)
                continue
            try:
                lhs2 = puncture(dc, t)
                assert oracles.same_row_space(lhs2, rhs2)
            except EmptyCode:
                assert rhs2.k == 0


def test_min_weight_identity():
    for f in FIELDS:
        assert min_weight(new_code(f, np.eye(5, dtype=np.uint8))) == 1


@pytest.mark.parametrize("f", FIELDS)
def test_min_weight_matches_bruteforce(f):
    rng = random.Random(67)
    for _ in range(30):
        k = rng.randrange(1, 6)
        n = rng.randrange(k, 12)
        c = oracles.random_code(f, n, k, rng)
        expected = oracles.brute_min_weight(c)
        assert min_weight(c) == expected
        assert min_weight(c, strategy=BROUWER_ZIMMERMANN) == expected


def _min_weight_outcome(fn, *args, **kwargs):
    try:
        return ("d", fn(*args, **kwargs))
    except BudgetExceeded as exc:
        return ("budget", exc.best_upper, exc.steps)


@pytest.mark.parametrize("f", [GF2, GF3, GF4H])
def test_min_weight_strategies_against_oracles_for_every_cap(f):
    # within the cap an exhaustive scan, past it (and always for bz)
    # Brouwer-Zimmermann under the same cap: exact or a sound upper bound
    rng = random.Random(90 + f.order)
    for _ in range(4):
        k = rng.randrange(1, {2: 7, 3: 5, 4: 4}[f.order])
        c = oracles.random_code(f, rng.randrange(k, 12), k, rng)
        d = oracles.brute_min_weight(c)
        for cap in range(f.order**k + 2):
            for strategy in (EXHAUSTIVE, BROUWER_ZIMMERMANN):
                got = _min_weight_outcome(min_weight, c, strategy, cap=cap)
                if got[0] == "d":
                    assert got[1] == d
                else:
                    assert got[1] is None or got[1] >= d
                if strategy == BROUWER_ZIMMERMANN or cap < f.order**k:
                    assert got == _min_weight_outcome(oracles.loop_bz_min_weight, f, c.generator, cap)


def test_min_weight_budget_exceeded_carries_upper_bound():
    # past cap=100, Brouwer-Zimmermann settles this [14,10] code ...
    c = oracles.random_code(GF2, 14, 10, random.Random(71))
    assert min_weight(c, cap=100) == oracles.brute_min_weight(c)
    # ... but not this [24,12] one, whose information-weight-2 level passes the cap
    c = oracles.random_code(GF2, 24, 12, random.Random(3))
    with pytest.raises(BudgetExceeded) as exc:
        min_weight(c, cap=100)
    assert exc.value.best_upper is not None
    assert exc.value.best_upper >= oracles.brute_min_weight(c)
    assert "upper bound" in str(exc.value)


def test_min_weight_bz_budget_exceeded():
    rng = random.Random(72)
    c = oracles.random_code(GF2, 20, 10, rng)
    with pytest.raises(BudgetExceeded) as exc:
        min_weight(c, strategy=BROUWER_ZIMMERMANN, cap=5)
    assert exc.value.best_upper is None or exc.value.best_upper >= oracles.brute_min_weight(c)


def test_min_weight_threads_independent():
    rng = random.Random(73)
    c = oracles.random_code(GF3, 15, 7, rng)
    assert min_weight(c, threads=1) == min_weight(c, threads=4)


def test_weight_distribution_repetition():
    c = new_code(GF2, [[1, 1]])
    wd = weight_distribution(c)
    assert wd.counts == (1, 0, 1)
    assert wd.min_weight == 2
    assert is_even_like(c)


@pytest.mark.parametrize("f", FIELDS)
def test_weight_distribution_matches_bruteforce(f):
    rng = random.Random(79)
    for _ in range(20):
        k = rng.randrange(1, 6)
        n = rng.randrange(k, 11)
        c = oracles.random_code(f, n, k, rng)
        wd = weight_distribution(c)
        assert list(wd.counts) == oracles.brute_weight_counts(c)
        assert sum(wd.counts) == f.order**k
        assert wd.counts[0] == 1
        assert wd.min_weight == oracles.brute_min_weight(c)


@pytest.mark.parametrize("f", FIELDS)
def test_weight_distribution_of_zero_code_raises(f):
    # the dual of a code with k = n is the zero code; its distribution has
    # no minimum weight, like min_weight
    zero = dual(new_code(f, np.eye(4, dtype=np.uint8)))
    assert zero.k == 0
    with pytest.raises(ValueError) as from_min:
        min_weight(zero)
    with pytest.raises(ValueError) as from_distribution:
        weight_distribution(zero)
    assert str(from_distribution.value) == str(from_min.value) == "the zero code has no nonzero codewords"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: new_code(GF2, [[1, 0], [0, 1], [1, 1]]), "dimension 3 exceeds length 2"),
        (lambda: shorten(new_code(GF2, np.eye(2, 4, dtype=np.uint8)), (1, 4)), "coordinate 4 out of range"),
        (lambda: puncture(new_code(GF2, np.eye(2, 4, dtype=np.uint8)), (-1,)), "coordinate -1 out of range"),
        (lambda: min_weight(new_code(GF2, [[1, 1]]), strategy="x"), "unknown strategy 'x'"),
    ],
)
def test_malformed_input_raises_code_error(call, message):
    with pytest.raises(CodeError, match=message):
        call()


def test_coordinate_sets_are_sorted_deduplicated_and_checked_in_order():
    # the smallest coordinate that is out of range is the one reported, and
    # repeats count once
    C = new_code(GF2, np.eye(2, 6, dtype=np.uint8))
    for T, bad in [((9, 5, 1, 6), 6), ((3, -1, -3, 3), -3), ((7, -2), -2)]:
        for op in (shorten, puncture):
            with pytest.raises(CodeError, match=f"^coordinate {bad} out of range for length 6$"):
                op(C, T)
    assert np.array_equal(puncture(C, (5, 2, 5, 3)).generator, C.generator[:, [0, 1, 4]])


def test_even_odd_like():
    assert is_even_like(new_code(GF2, [[1, 1]]))
    assert not is_even_like(new_code(GF2, [[1, 0]]))
    with pytest.raises(CodeError):
        is_even_like(new_code(GF3, [[1, 1]]))


def test_even_like_matches_distribution():
    rng = random.Random(83)
    for _ in range(40):
        c = oracles.random_code(GF2, rng.randrange(3, 10), 3, rng)
        wd = weight_distribution(c)
        assert is_even_like(c) == (not any(wd.counts[1::2]))  # no codeword of odd weight


def test_macwilliams_consistency_binary():
    rng = random.Random(89)
    for _ in range(25):
        k = rng.randrange(1, 7)
        n = rng.randrange(k + 1, 15)
        c = oracles.random_code(GF2, n, k, rng)
        primal = weight_distribution(c)
        d = dual(c)
        direct = oracles.brute_weight_counts(d)
        transformed = enumeration.macwilliams_transform(2, n, k, primal.counts)
        assert direct == transformed


# ids skip the Euclidean GF(4) case that lcdkit no longer has
@pytest.mark.parametrize("f", [GF3, GF4H], ids=["f0", "f2"])
def test_macwilliams_consistency_every_field(f):
    # the Hermitian dual is the conjugate of the Euclidean one, with its weights
    rng = random.Random(91 + f.order)
    for _ in range(12):
        k = rng.randrange(1, 5)
        n = rng.randrange(k + 1, 9)
        c = oracles.random_code(f, n, k, rng)
        primal = weight_distribution(c)
        assert enumeration.macwilliams_transform(f.order, n, k, primal.counts) == oracles.brute_weight_counts(dual(c))
    with pytest.raises(linalg.InvariantError, match="not those of a"):
        enumeration.macwilliams_transform(f.order, 2, 1, [1, 1, 0])


@given(st.lists(st.integers(0, 2), min_size=1, max_size=24))
def test_ternary_self_pairing_is_weight_mod_3(vec):
    v = np.array(vec, dtype=np.uint8)
    pairing = int(sum(int(GF3.mul_table[a, a]) for a in v) % 3)
    # accumulate properly in the field
    acc = 0
    for a in v:
        acc = int(GF3.add_table[acc, GF3.mul_table[a, a]])
    assert acc == int((v != 0).sum()) % 3
    assert pairing == acc


@given(st.lists(st.integers(0, 3), min_size=1, max_size=24))
def test_quaternary_hermitian_self_pairing_is_weight_mod_2(vec):
    v = np.array(vec, dtype=np.uint8)
    acc = 0
    for a in v:
        acc = int(GF4H.add_table[acc, GF4H.mul_table[a, GF4H.conj_table[a]]])
    assert acc == int((v != 0).sum()) % 2


def test_code_file_roundtrip():
    rng = random.Random(97)
    for f in FIELDS:
        c = oracles.random_code(f, 9, 4, rng)
        text = format_code(c)
        back = parse_code(text)
        assert back.field == f
        assert np.array_equal(back.generator, c.generator)
        assert format_code(back) == text


def test_code_file_comments_and_spacing():
    text = "# sample\ngf3 4 2\n1 0 2 1\n01 21\n"
    c = parse_code(text)
    assert c.params() == (4, 2)
    assert np.array_equal(c.generator, [[1, 0, 2, 1], [0, 1, 2, 1]])


def test_code_file_errors():
    with pytest.raises(CodeError):
        parse_code("")
    with pytest.raises(CodeError):
        parse_code("gf7 2 1\n11\n")
    with pytest.raises(CodeError, match="^unknown field name 'gf4'"):
        parse_code("gf4 2 1\n11\n")  # GF(4) is Hermitian, named gf4h
    with pytest.raises(CodeError):
        parse_code("gf2 3 2\n111\n")  # missing row
    with pytest.raises(CodeError):
        parse_code("gf2 3 1\n11\n")  # short row
    with pytest.raises(CodeError):
        parse_code("gf2 2 1\n21\n")  # symbol outside alphabet
    with pytest.raises(CodeError, match="row 2"):
        parse_code("gf2 3 2\n110\n110\n")  # dependent row named
    with pytest.raises(CodeError, match="^malformed header 'gf2 x 3'$"):
        parse_code("gf2 x 3\n")
    # n and k are ASCII digits only: no sign, underscore or other script
    for head in ("gf2 +3 1", "gf2 3 +1", "gf2 1_0 1", "gf2 -3 0", "gf2 3 \u0661", "gf2 3.0 1"):
        with pytest.raises(CodeError, match=f"^{re.escape(f'malformed header {head!r}')}$"):
            parse_code(f"{head}\n111\n")
