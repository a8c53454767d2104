"""Reed-Solomon row code behavior: encode by erasure, decode both ways."""

from __future__ import annotations

import random
from itertools import combinations, product

import pytest

from epcodes.gf import FieldContext, build_aop_field, build_field, default_field
from epcodes.linalg import ParityMatrix, solve_unique
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


@pytest.mark.parametrize("n,u,message", [
    (0, 0, "length must be positive"),
    (5, 6, "parity count 6 outside 0..5"),
    (5, -1, "parity count -1 outside 0..5"),
])
def test_code_shape_is_checked(n, u, message):
    with pytest.raises(ValueError, match=message):
        RsCode(default_field(3), n, u)


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
    with pytest.raises(ValueError, match="word length 6 != 7 columns"):
        code.parity_check().syndrome(word[:6])
    with pytest.raises(ValueError, match="ragged parity matrix"):
        ParityMatrix(code.ctx, [[1, 2], [3]])


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
    assert code.error_erasure_decode(w, [0, 1, 2]) is None
    with pytest.raises(ValueError, match="word length 6 != n=7"):
        code.erasure_decode(w[:6], [0])


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


@pytest.mark.parametrize("field,n,parities", [
    (default_field(3), 7, (1, 2, 4, 6)),
    (default_field(4), 15, (2, 5, 8)),
    (default_field(8), 32, (4, 9)),
    (default_field(16), 20, (3, 6)),
    (build_aop_field(11), 11, (2, 5)),
    (default_field(20), 12, (2, 4)),
])
def test_error_erasure_fill_never_fails_after_the_chien_search(field, n, parities):
    # once the Chien search finds the error locator's roots, distinct and
    # off the erasures, the locator generates every syndrome, so the
    # erasure fill that ends error_erasure_decode never returns None:
    # errata inside and beyond capability, and words drawn at random
    rng = random.Random("errata-%d-%d" % (field.degree, n))
    for u in parities:
        code = build_rs(field, n, u)
        cases = []
        for t in range(300):
            word = random_codeword(code, rng)
            e = rng.randrange(u + 1)
            if t % 3 == 0:
                i = rng.randrange((u - e) // 2 + 1)
            else:
                i = rng.randrange((u - e) // 2 + 1, n - e + 1)
            spots = rng.sample(range(n), e + i)
            for j in spots[e:]:
                word[j] ^= rng.randrange(1, field.size)
            inside = 2 * i + e <= u
            if t % 10 == 0:
                word, inside = [rng.randrange(field.size) for _ in range(n)], False
            cases.append((word, spots[:e], inside))
        fills = []
        real = code.erasure_decode
        code.erasure_decode = lambda w, e: fills.append(real(w, e)) or fills[-1]
        beyond = 0
        for word, erased, inside in cases:
            before = len(fills)
            got = code.error_erasure_decode(word, erased)
            assert len(fills) <= before + 1
            if inside:
                assert got is not None
            if got is not None:
                dist = sum(1 for j in range(n)
                           if j not in erased and got[0][j] != word[j])
                assert dist == got[1] and 2 * dist + len(erased) <= u
                assert real(got[0], []) == got[0]
            beyond += len(fills) > before and not inside
        assert None not in fills
        assert beyond, u


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


@pytest.mark.parametrize("field", [default_field(4), default_field(16),
                                   build_aop_field(13), default_field(20)],
                         ids=["gf16", "gf65536", "aop13", "poly20"])
def test_single_check_syndrome_is_the_plain_sum(field):
    # u = 1: the one check row is alpha**0 everywhere
    code = build_rs(field, 12, 1)
    rng = random.Random(field.degree)
    for _ in range(20):
        word = [rng.choice([0, rng.randrange(field.size)]) for _ in range(12)]
        want = [0]
        for h, v in zip(code.parity_check().rows[0], word):
            want[0] ^= field.mul(h, v)
        assert code.syndromes(word) == want
        assert code.contains(word) == (want == [0])
    with pytest.raises(ValueError):
        code.syndromes([0] * 11)


def _word_with_syndromes(code, syn, support):
    """A word zero off `support` (u positions) with the given syndromes."""
    rows = [[code.parity_check().rows[r][j] for j in support]
            for r in range(code.u)]
    vals = solve_unique(code.ctx, rows, syn)
    word = [0] * code.n
    for j, v in zip(support, vals):
        word[j] = v
    assert code.syndromes(word) == syn
    return word


def _locator_syndromes(code, lam, start):
    """S_0 .. S_{u-1} from the given first syndromes, continued by the
    recurrence of lam: S_r = sum_{i >= 1} lam_i S_{r-i}."""
    syn = list(start)
    while len(syn) < code.u:
        r = len(syn)
        acc = 0
        for i in range(1, len(lam)):
            acc ^= code.ctx.mul(lam[i], syn[r - i])
        syn.append(acc)
    return syn


@pytest.mark.parametrize("erased,sigma_roots,decodes", [
    ([2], [5], True),       # a proper error locator: one error at 5
    ([2], [2], False),      # sigma's root sits on the erasure
    ([], [4, 4], False),    # sigma has a repeated root
    ([], [4, 6], True),     # two distinct errors
    ([1, 7], [7], False),   # a root on the second of two erasures
])
def test_error_locator_roots_must_be_distinct_and_off_the_erasures(
        erased, sigma_roots, decodes):
    # The syndromes follow the errata locator gamma * sigma, so the BM
    # run seeded with gamma ends on it.  A repeated root of sigma, or a
    # root on an erasure, gives that locator a double root, which no
    # errata pattern has, so the decoder must refuse.
    ctx = default_field(4)
    code = build_rs(ctx, 12, 5 if len(erased) > 1 else 4)
    loc = [ctx.alpha_pow(j) for j in range(code.n)]
    lam = [1]
    for j in erased + sigma_roots:
        x = loc[j]
        lam = [a ^ ctx.mul(x, b) for a, b in zip(lam + [0], [0] + lam)]
    assert 2 * (len(lam) - 1) <= code.u + len(erased)
    start = [3, 11, 1][:len(lam) - 1]
    syn = _locator_syndromes(code, lam, start)
    support = [j for j in range(code.n) if j not in erased][-code.u:]
    word = _word_with_syndromes(code, syn, support)
    out = code.error_erasure_decode(word, erased)
    if not decodes:
        assert out is None
        return
    assert out is not None
    decoded, nerr = out
    assert code.contains(decoded)
    assert [j for j in range(code.n) if j not in erased
            and decoded[j] != word[j]] == sorted(sigma_roots)
    assert nerr == len(sigma_roots)


@pytest.mark.parametrize("field", [default_field(2),
                                   build_field(3, 0b1101, "polynomial")],
                         ids=["gf4", "poly8"])
def test_zero_code_decoders_match_brute_force(field):
    # u = n: the codewords are the words whose every check sums to 0,
    # found by trying all of them; the decoders must agree on every
    # received word and erasure set without building the check matrix
    n = 3
    code = build_rs(field, n, n)
    words = [list(w) for w in product(range(field.size), repeat=n)]
    codewords = [w for w in words
                 if not any(_check_sum(code, w, r) for r in range(n))]
    assert codewords == [[0] * n]
    for word in words:
        assert code.contains(word) == (word in codewords)
        for e in range(n + 1):
            for erased in combinations(range(n), e):
                known = [j for j in range(n) if j not in erased]
                fits = [c for c in codewords
                        if all(c[j] == word[j] for j in known)]
                assert code.erasure_decode(word, list(erased)) == (
                    fits[0] if fits else None)
                dist, nearest = min(
                    (sum(1 for j in known if c[j] != word[j]), c)
                    for c in codewords)
                assert code.error_erasure_decode(word, list(erased)) == (
                    (nearest, dist) if 2 * dist + e <= n else None)
    assert code._h is None


def _check_sum(code: RsCode, word, r: int) -> int:
    """sum_j alpha**(r*j) * word_j, check r by its definition."""
    acc = 0
    for j, v in enumerate(word):
        acc ^= code.ctx.mul(code.ctx.alpha_pow(r * j), v)
    return acc


# -- table-driven fill and log-domain erasure solve -------------------------

def _twin(ctx):
    """The same field and alpha in the polynomial representation, whose
    erasure solve multiplies instead of reading logs."""
    twin = FieldContext(ctx.degree, ctx.modulus, "polynomial", ctx.alpha,
                        ctx.alpha_order)
    assert twin.representation == "polynomial" and twin.alpha == ctx.alpha
    return twin


DIFF_FIELDS = {
    "gf16": (lambda: default_field(4), 15, (1, 2, 3, 5, 15)),
    "gf256": (lambda: default_field(8), 32, (1, 2, 4, 8, 12)),
    "gf65536": (lambda: default_field(16), 24, (1, 2, 4, 7)),
    "aop11": (lambda: build_aop_field(11), 11, (1, 2, 3, 5, 11)),
    "poly2^20": (lambda: default_field(20), 12, (1, 2, 4)),
}


@pytest.mark.parametrize("field", DIFF_FIELDS)
def test_erasure_decode_matches_elimination_and_the_multiplying_solve(field):
    # every e = 0..u at random positions, then the exact tail, which
    # erasure_decode hands to fill as it does u = 1, on a codeword (must
    # come back) and on the codeword with one known symbol changed (must
    # give None below u erasures, and the elimination's fill at u)
    make, n, parities = DIFF_FIELDS[field]
    ctx = make()
    twin = None if ctx.representation == "polynomial" else _twin(ctx)
    rng = random.Random("erasure-diff-" + field)
    for u in parities:
        code = build_rs(ctx, n, u)
        other = None if twin is None else build_rs(twin, n, u)
        tail = list(range(n - u, n))
        for draw in list(range(u + 1)) + [tail]:
            for _ in range(4):
                sent = _eliminated_fill(
                    code, [rng.randrange(ctx.size) for _ in range(n)], tail)
                spots = tail if draw is tail else rng.sample(range(n), draw)
                e = len(spots)
                word = list(sent)
                for j in spots:
                    word[j] = rng.randrange(ctx.size)  # junk
                assert code.erasure_decode(word, spots) == sent, (u, spots)
                if e < n:
                    j = rng.choice([j for j in range(n) if j not in spots])
                    word[j] ^= rng.randrange(1, ctx.size)
                got = code.erasure_decode(word, spots)
                want = _eliminated_fill(code, word, spots)
                assert got == want, (u, spots)
                assert (got is None) == (e < u), (u, spots)
                if other is not None:
                    assert other.erasure_decode(word, spots) == got


FILL_FIELDS = {
    "gf256": (lambda: default_field(8), 32),
    "gf65536": (lambda: default_field(16), 20),
    "aop11": (lambda: build_aop_field(11), 11),
    "poly2^20": (lambda: default_field(20), 9),
}


@pytest.mark.parametrize("field", FILL_FIELDS)
def test_fill_is_the_encoder_on_the_kept_symbols(field):
    # the one lookup pass over the whole word must equal F * word, for
    # the tail and for other position tuples, with F's columns zero at
    # the erased positions, so that whatever those cells hold is ignored
    make, n = FILL_FIELDS[field]
    ctx = make()
    rng = random.Random("fill-" + field)
    for u in (2, 3, n // 2, n - 1):
        code = build_rs(ctx, n, u)
        tuples = [tuple(range(n - u, n)), tuple(range(u)),
                  tuple(sorted(rng.sample(range(n), u)))]
        for erased in tuples:
            f = code._encoder(erased)
            assert (f.num_rows, f.num_cols) == (u, n)
            assert not any(row[j] for row in f.rows for j in erased)
            for _ in range(3):
                word = [rng.randrange(ctx.size) for _ in range(n)]
                rest = [v for j, v in enumerate(word) if j not in erased]
                got = code.fill(word, erased)
                assert [got[j] for j in erased] == f.syndrome(word)
                assert [v for j, v in enumerate(got) if j not in erased] == rest
                assert code.contains(got)


def test_codes_without_parity_fill_and_decode_a_clean_word():
    # u = 0: every word is a codeword, with nothing to fill
    for ctx in (default_field(4), default_field(20)):
        code = build_rs(ctx, 7, 0)
        word = [3, 0, 1, 5, 7, 2, 6]
        assert code.fill(word, ()) == word
        assert code.erasure_decode(word, []) == word
        assert code.erasure_decode(word, [2]) is None
