"""Reed-Solomon row code behavior: encode by erasure, decode both ways."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from epcodes.gf import build_aop_field, build_field, default_field
from epcodes.linalg import solve_unique
from epcodes.rs import LengthExceedsOrder, RsCode, build_rs


def random_codeword(code: RsCode, rng: random.Random) -> list[int]:
    """Fix the data prefix, let erasure decoding solve the parity tail."""
    word = [rng.randrange(code.ctx.size) for _ in range(code.n)]
    tail = list(range(code.n - code.u, code.n))
    out = code.erasure_decode(word, tail)
    assert out is not None
    return out


def test_dimension_and_distance():
    code = build_rs(default_field(4), 15, 6)
    assert code.dimension == 9
    assert code.min_distance == 7


def test_length_capped_by_alpha_order():
    with pytest.raises(LengthExceedsOrder):
        build_rs(default_field(3), 8, 2)
    build_rs(default_field(3), 7, 2)
    aop = build_aop_field(5)  # alpha order exactly 5 in GF(16)
    build_rs(aop, 5, 2)
    with pytest.raises(LengthExceedsOrder):
        build_rs(aop, 6, 2)


def test_random_codewords_satisfy_checks_and_weight_bound():
    code = build_rs(default_field(4), 15, 6)
    rng = random.Random(1)
    for _ in range(50):
        w = random_codeword(code, rng)
        assert code.contains(w)
        assert not any(code.syndromes(w))
        if any(w):
            assert sum(1 for v in w if v) >= code.min_distance


def test_parity_check_matrix_matches_syndromes():
    code = build_rs(default_field(3), 7, 3)
    rng = random.Random(2)
    word = [rng.randrange(8) for _ in range(7)]
    assert code.parity_check().syndrome(word) == code.syndromes(word)


def test_erasure_round_trip_up_to_capacity():
    code = build_rs(default_field(4), 15, 6)
    rng = random.Random(3)
    for _ in range(200):
        w = random_codeword(code, rng)
        k = rng.randrange(code.u + 1)
        spots = rng.sample(range(code.n), k)
        battered = list(w)
        for j in spots:
            battered[j] = 0  # decoder ignores erased content
        assert code.erasure_decode(battered, spots) == w


def test_too_many_erasures_returns_none():
    code = build_rs(default_field(3), 7, 2)
    rng = random.Random(4)
    w = random_codeword(code, rng)
    assert code.erasure_decode(w, [0, 1, 2]) is None


def test_non_codeword_with_no_erasures_returns_none():
    code = build_rs(default_field(3), 7, 2)
    rng = random.Random(5)
    w = random_codeword(code, rng)
    w[0] ^= 1
    assert code.erasure_decode(w, []) is None


def test_full_parity_code_contains_only_zero():
    code = build_rs(default_field(3), 5, 5)
    assert code.contains([0] * 5)
    assert not code.contains([0, 0, 1, 0, 0])


@pytest.mark.parametrize("degree,n,u", [(3, 7, 3), (4, 15, 6)])
def test_error_erasure_decode_within_capability(degree, n, u):
    # a small and a larger code through the same syndrome decoder
    code = build_rs(default_field(degree), n, u)
    ctx = code.ctx
    rng = random.Random(degree * 100 + u)
    for _ in range(300):
        w = random_codeword(code, rng)
        e = rng.randrange(u + 1)
        i = rng.randrange((u - e) // 2 + 1)
        spots = rng.sample(range(n), e + i)
        erased, flipped = spots[:e], spots[e:]
        battered = list(w)
        for j in erased:
            battered[j] = 0
        for j in flipped:
            battered[j] ^= rng.randrange(1, ctx.size)
        got = code.error_erasure_decode(battered, erased)
        assert got is not None
        decoded, nerr = got
        assert decoded == w
        assert nerr == len(flipped)


def test_error_under_an_erasure_costs_only_the_erasure():
    code = build_rs(default_field(4), 15, 6)
    rng = random.Random(8)
    w = random_codeword(code, rng)
    battered = list(w)
    battered[4] ^= 9  # corrupted, then reported lost
    battered[10] ^= 3
    decoded, nerr = code.error_erasure_decode(battered, [4])
    assert decoded == w
    assert nerr == 1  # position 4 is not billed as an error


def test_error_erasure_decode_makes_no_alpha_pow_call(monkeypatch):
    # the Chien search runs on the code's cached locators, not on alpha**-j
    ctx = default_field(16)
    code = build_rs(ctx, 32, 8)
    rng = random.Random(21)
    erased = [0, 9]
    words = []
    for _ in range(5):
        w = random_codeword(code, rng)
        battered = list(w)
        for j in erased:
            battered[j] = 0
        for j in rng.sample(range(1, 9), 3):  # 2 * 3 + 2 = u
            battered[j] ^= rng.randrange(1, ctx.size)
        words.append((w, battered))
    code.parity_check()  # built once per code, not per decode
    calls = []
    real = type(ctx).alpha_pow
    monkeypatch.setattr(type(ctx), "alpha_pow",
                        lambda self, e: calls.append(e) or real(self, e))
    for w, battered in words:
        assert code.error_erasure_decode(battered, erased) == (w, 3)
    assert calls == []


def test_beyond_capability_is_none_or_some_codeword():
    code = build_rs(default_field(3), 7, 2)
    rng = random.Random(9)
    for _ in range(100):
        w = random_codeword(code, rng)
        battered = list(w)
        for j in rng.sample(range(7), 3):
            battered[j] ^= rng.randrange(1, 8)
        got = code.error_erasure_decode(battered, [])
        if got is not None:
            assert code.contains(got[0])


# -- closed-form erasure fill against elimination --------------------------

def _eliminated_fill(code: RsCode, word: list[int], erasures) -> list[int] | None:
    """The erasure fill by Gaussian elimination of the u x e alpha-power
    system, with syndromes computed straight from the definition."""
    ctx = code.ctx
    e = sorted(set(erasures))
    if len(e) > code.u:
        return None
    y = list(word)
    for j in e:
        y[j] = 0
    syn = []
    for r in range(code.u):
        acc = 0
        for j, v in enumerate(y):
            acc ^= ctx.mul(ctx.alpha_pow(r * j), v)
        syn.append(acc)
    if not e:
        return None if any(syn) else y
    cols = [[ctx.alpha_pow(r * j) for j in e] for r in range(code.u)]
    x = solve_unique(ctx, cols, syn)
    if x is None:
        return None
    for j, v in zip(e, x):
        y[j] = v
    return y


def _fill_agrees(code: RsCode, spots, rng: random.Random) -> list[bool]:
    """Compare both fills on a consistent and an inconsistent word;
    returns which of the two the reference filled."""
    n = code.n
    noise = [rng.randrange(code.ctx.size) for _ in range(n)]
    tail = list(range(n - code.u, n))
    codeword = _eliminated_fill(code, noise, tail)
    filled = []
    for base in (codeword, noise):
        word = list(base)
        for j in spots:
            word[j] = rng.randrange(code.ctx.size)  # junk under the erasures
        want = _eliminated_fill(code, word, spots)
        assert code.erasure_decode(word, list(spots)) == want, (code.u, spots)
        filled.append(want is not None)
    return filled


def test_erasure_fill_matches_elimination_on_every_gf8_pattern():
    rng = random.Random(21)
    outcomes = set()
    for u in range(8):
        code = build_rs(default_field(3), 7, u)
        for e in range(u + 1):
            for spots in combinations(range(7), e):
                consistent, other = _fill_agrees(code, spots, rng)
                assert consistent
                outcomes.add(other)
    assert outcomes == {True, False}


def test_erasure_fill_matches_elimination_on_sampled_gf16_patterns():
    rng = random.Random(22)
    outcomes = set()
    for u in (1, 2, 4, 6, 9, 14, 15):
        code = build_rs(default_field(4), 15, u)
        for _ in range(60):
            spots = rng.sample(range(15), rng.randrange(u + 1))
            consistent, other = _fill_agrees(code, spots, rng)
            assert consistent
            outcomes.add(other)
    assert outcomes == {True, False}


TAIL_FIELDS = {
    "gf4": (lambda: default_field(2), 3),
    "gf16": (lambda: default_field(4), 15),
    "gf65536": (lambda: default_field(16), 24),
    "aop5": (lambda: build_aop_field(5), 5),
    "poly256": (lambda: build_field(8, 0b100011101, "polynomial"), 16),
    "gf2^20": (lambda: default_field(20), 10),
}


@pytest.mark.parametrize("field", TAIL_FIELDS)
def test_tail_fill_matches_elimination(field):
    # the last u positions are filled by the systematic encoder; the
    # junk left under them must not reach the fill
    make, n = TAIL_FIELDS[field]
    ctx = make()
    rng = random.Random("tail-" + field)
    for u in sorted({0, 1, 2, n // 2, n - 1, n}):
        code = build_rs(ctx, n, u)
        tail = list(range(n - u, n))
        for _ in range(3):
            assert _fill_agrees(code, tail, rng) == [True, True]
        sent = _eliminated_fill(
            code, [rng.randrange(ctx.size) for _ in range(n)], tail)
        junk = sent[:n - u] + [rng.randrange(1, ctx.size) for _ in tail]
        assert code.erasure_decode(junk, tail[::-1]) == sent, u


# -- error-erasure decode against the nearest codeword ---------------------

def _all_codewords(code: RsCode) -> list[list[int]]:
    """Every codeword, as combinations of a systematic basis found by
    elimination (k = n - u, so q**k words over GF(q))."""
    ctx = code.ctx
    tail = list(range(code.dimension, code.n))
    basis = []
    for i in range(code.dimension):
        unit = [0] * code.n
        unit[i] = 1
        basis.append(_eliminated_fill(code, unit, tail))
    words = [[0] * code.n]
    for b in basis:
        words = [[v ^ ctx.mul(a, bv) for v, bv in zip(w, b)]
                 for a in range(ctx.size) for w in words]
    return words


NEAREST_FIELDS = {
    "gf8": lambda: default_field(3),
    "aop5": lambda: build_aop_field(5),
    "poly8": lambda: build_field(3, 0b1101, "polynomial"),
}


@pytest.mark.parametrize("field,n,u", [
    *(pytest.param("gf8", min(7, u + 4), u, id=str(u)) for u in range(5)),
    *(pytest.param("aop5", 5, u, id="aop5-%d" % u) for u in (2, 3, 4)),
    *(pytest.param("poly8", min(7, u + 4), u, id="poly8-%d" % u)
      for u in (1, 2, 3, 4)),
])
def test_error_erasure_decode_matches_nearest_codeword(field, n, u):
    # the decoder must return the nearest codeword whenever it lies
    # within 2i + e <= u of the known positions, and None otherwise
    code = build_rs(NEAREST_FIELDS[field](), n, u)
    size = code.ctx.size
    words = _all_codewords(code)
    assert len(words) == size ** (n - u)
    rng = random.Random(60 + u if field == "gf8" else "%s-%d" % (field, u))
    outcomes = set()
    for _ in range(120):
        sent = rng.choice(words)
        received = list(sent)
        for j in rng.sample(range(n), rng.randrange(min(n, u + 2) + 1)):
            received[j] ^= rng.randrange(1, size)
        erased = sorted(rng.sample(range(n), rng.randrange(u + 1)))
        known = [j for j in range(n) if j not in erased]
        dist, nearest = min(
            (sum(1 for j in known if w[j] != received[j]), w) for w in words)
        want = (nearest, dist) if 2 * dist + len(erased) <= u else None
        assert code.error_erasure_decode(received, erased) == want, (
            received, erased)
        outcomes.add(want is None)
    assert outcomes == ({False} if u == 0 else {True, False})
