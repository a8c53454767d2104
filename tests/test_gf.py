"""Field context behavior: arithmetic laws, moduli, representations."""

from __future__ import annotations

import random

import pytest

from epcodes import gf2poly as p2
from epcodes.gf import (
    AopReducible,
    ContextMismatch,
    DEFAULT_MODULI,
    DivisionByZero,
    FieldContext,
    FieldError,
    ReducibleModulus,
    SPLIT_CACHE_CAP,
    build_aop_field,
    build_field,
    default_field,
    smallest_aop_prime,
)
from epcodes.linalg import ParityMatrix


def test_gf8_multiplication_against_hand_table():
    ctx = default_field(3)
    # alpha = x, modulus x^3 + x + 1: alpha^3 = alpha + 1
    assert ctx.mul(0b010, 0b010) == 0b100
    assert ctx.mul(0b100, 0b010) == 0b011
    assert ctx.mul(0b110, 0b101) == ctx.add(
        ctx.mul(0b100, 0b101), ctx.mul(0b010, 0b101))


def test_add_is_xor():
    ctx = default_field(4)
    for a in range(16):
        for b in range(16):
            assert ctx.add(a, b) == a ^ b


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 8])
def test_field_axioms_exhaustive_small(degree):
    ctx = default_field(degree)
    size = 1 << degree
    sample = range(size) if size <= 16 else random.Random(degree).sample(
        range(size), 16)
    for a in sample:
        assert ctx.mul(a, 1) == a
        assert ctx.mul(a, 0) == 0
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
        for b in sample:
            assert ctx.mul(a, b) == ctx.mul(b, a)
            for c in sample:
                assert ctx.mul(a, ctx.add(b, c)) == \
                    ctx.add(ctx.mul(a, b), ctx.mul(a, c))


def test_pow_and_alpha_pow_agree():
    ctx = default_field(3)
    for e in range(20):
        assert ctx.alpha_pow(e) == ctx.pow(ctx.alpha, e)
    assert (ctx.pow(0, 0), ctx.pow(0, 3)) == (1, 0)
    # negative exponents invert
    assert ctx.mul(ctx.alpha_pow(-1), ctx.alpha) == 1


def test_primitive_alpha_generates_multiplicative_group():
    ctx = default_field(4)
    seen = {ctx.alpha_pow(e) for e in range(15)}
    assert seen == set(range(1, 16))
    assert ctx.alpha_order == 15
    assert ctx.order_at_least(15)
    assert not ctx.order_at_least(16)
    # with its order unknown, the walk finds that x has order 5 modulo
    # 1 + x + x^2 + x^3 + x^4
    poly = FieldContext(4, 0b11111, "polynomial")
    assert (poly.alpha, poly.alpha_order) == (2, None)
    assert poly.order_at_least(5)
    assert not poly.order_at_least(6)


def test_table_alpha_is_the_smallest_primitive_element():
    def order(ctx, a):
        v, k = a, 1
        while v != 1:
            v, k = ctx.mul(v, a), k + 1
        return k

    def smallest_primitive(ctx):
        full = ctx.size - 1
        return next(a for a in range(2, ctx.size) if order(ctx, a) == full)

    # every modulus up to degree 8, and the default ones above, for which
    # x is primitive, so the walk-based reference stays cheap
    moduli = [f for deg in range(2, 9)
              for f in range(1 << deg, 2 << deg) if p2.is_irreducible(f)]
    moduli += [DEFAULT_MODULI[deg] for deg in range(9, 17)]
    assert 0b11111 in moduli  # x has order 5 there, so alpha is not x
    for f in moduli:
        ctx = FieldContext(p2.degree(f), f, "table")
        assert ctx.alpha == smallest_primitive(ctx), p2.to_text(f)
        assert ctx.alpha_order == ctx.size - 1
    assert FieldContext(4, 0b11111, "table").alpha == 3
    # an all-ones-poly field keeps alpha = x of order p, but its tables run
    # over the same smallest primitive element
    for p in (5, 11, 13):
        ctx = build_aop_field(p)
        gen = smallest_primitive(ctx)
        assert ctx.alpha == 2 and ctx.alpha_order == p
        assert ctx._exp[1] == gen and ctx._log[gen] == 1, p


def test_table_and_polynomial_representations_agree():
    deg = 8
    table = build_field(deg, DEFAULT_MODULI[deg], "table")
    poly = build_field(deg, DEFAULT_MODULI[deg], "polynomial")
    rng = random.Random(99)
    for _ in range(300):
        a = rng.randrange(256)
        b = rng.randrange(256)
        assert table.mul(a, b) == poly.mul(a, b)
        if b:
            assert table.div(a, b) == poly.div(a, b)


def test_division_by_zero_raises():
    ctx = default_field(3)
    with pytest.raises(DivisionByZero):
        ctx.div(5, 0)
    with pytest.raises(DivisionByZero):
        ctx.inv(0)


def test_out_of_range_symbol_rejected():
    ctx = default_field(3)
    with pytest.raises(ContextMismatch):
        ctx.check(8)
    with pytest.raises(FieldError):
        ctx.check(-1)
    with pytest.raises(FieldError):
        ctx.check("3")


def test_reducible_modulus_rejected():
    # x^3 + 1 = (x + 1)(x^2 + x + 1)
    with pytest.raises(ReducibleModulus):
        build_field(3, 0b1001)
    with pytest.raises(ReducibleModulus, match="zero constant term"):
        build_field(3, 0b1010)


def test_representation_checks_and_the_gf2_polynomial_field():
    with pytest.raises(FieldError, match="limited to degree <= 16"):
        FieldContext(17, p2.find_irreducible(17), "table")
    with pytest.raises(FieldError, match="unknown representation 'bits'"):
        FieldContext(3, DEFAULT_MODULI[3], "bits")
    # GF(2) as a polynomial field: alpha is 1, of order 1
    gf2 = FieldContext(1, DEFAULT_MODULI[1], "polynomial")
    assert (gf2.alpha, gf2.alpha_order) == (1, 1)


def test_negative_modulus_rejected_at_once():
    # -9 has bit length 4 and is odd, so only an explicit sign check
    # stops it before the reduction loops forever on a negative divisor
    with pytest.raises(FieldError, match="non-negative"):
        FieldContext(3, -9)
    with pytest.raises(FieldError, match="non-negative"):
        build_field(2, -7)


def test_context_equality():
    a = default_field(3)
    b = build_field(3, DEFAULT_MODULI[3])
    c = default_field(4)
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_all_ones_field_alpha_rotates_with_period_p():
    ctx = build_aop_field(5)
    assert ctx.degree == 4
    assert ctx.alpha == 2
    assert ctx.alpha_pow(5) == 1
    assert ctx.alpha_order == 5
    powers = [ctx.alpha_pow(e) for e in range(5)]
    assert len(set(powers)) == 5


def test_all_ones_field_rejects_bad_p():
    with pytest.raises(AopReducible) as info:
        build_aop_field(7)  # 2 has order 3 mod 7, not 6
    assert info.value.p == 7
    with pytest.raises(FieldError):
        build_aop_field(9)  # not prime
    with pytest.raises(FieldError, match="odd prime"):
        build_aop_field(2)


@pytest.mark.parametrize("p,d", [(47, 23), (71, 35)])
def test_all_ones_factor_beyond_trial_division(p, d):
    # ord_p(2) = d > 20, so the factor comes from equal-degree splitting
    assert p2.order_mod(2, p) == d
    with pytest.raises(AopReducible) as info:
        build_aop_field(p)
    factor = info.value.factor
    assert p2.degree(factor) == d
    assert p2.is_irreducible(factor)
    assert p2.mod(p2.all_ones_poly(p), factor) == 0


def test_gf2_polynomial_edge_cases():
    with pytest.raises(ZeroDivisionError):
        p2.divmod_(0b101, 0)
    with pytest.raises(ZeroDivisionError, match="not invertible"):
        p2.invmod(0b10, 0b110)  # x divides x^2 + x
    assert not p2.is_irreducible(0) and not p2.is_irreducible(1)
    with pytest.raises(ValueError, match="degree must be positive"):
        p2.find_irreducible(0)
    assert p2.find_irreducible(1) == 0b10
    with pytest.raises(ValueError, match="no degree-1 factor"):
        p2.smallest_factor(0b111, 1)  # 1 + x + x^2 has no root
    assert p2.to_text(0) == "0"


def test_smallest_aop_prime_values():
    assert smallest_aop_prime(3) == 3
    assert smallest_aop_prime(4) == 5
    assert smallest_aop_prime(6) == 11
    assert smallest_aop_prime(12) == 13


def test_default_field_large_degree_is_polynomial_backed():
    ctx = default_field(23)
    assert ctx.degree == 23
    a = 0b1011011
    assert ctx.mul(a, ctx.inv(a)) == 1


def test_repr_and_hex_forms():
    ctx = default_field(3)
    assert "degree=3" in repr(ctx)
    assert "0x0b" in repr(ctx)
    assert ctx.modulus_hex == "0b"
    assert ctx.symbol_hex(5) == "5"
    assert default_field(8).symbol_hex(10) == "0a"


# degree 20 is polynomial-backed with a 4-bit top chunk; degrees 8, 12
# and 16 are also forced onto the polynomial representation; gf512,
# gf4096, gf65536, aop13 (degree 12 over the all-ones modulus), poly12
# and poly16 run row_sum through split byte tables and syndromes through
# one 16-bit pack per word
KERNEL_FIELDS = {
    "gf2": lambda: default_field(1),
    "gf8": lambda: default_field(3),
    "gf256": lambda: default_field(8),
    "gf512": lambda: default_field(9),
    "gf4096": lambda: default_field(12),
    "gf65536": lambda: default_field(16),
    "aop5": lambda: build_aop_field(5),
    "aop13": lambda: build_aop_field(13),
    "poly20": lambda: default_field(20),
    "poly8": lambda: build_field(8, DEFAULT_MODULI[8], "polynomial"),
    "poly12": lambda: build_field(12, DEFAULT_MODULI[12], "polynomial"),
    "poly16": lambda: build_field(16, DEFAULT_MODULI[16], "polynomial"),
}


def _random_symbol(ctx, rng):
    # a third each of zero, a full-width symbol and one in the top chunk
    top = (ctx.degree - 1) // 8 * 8
    return rng.choice([0, rng.randrange(ctx.size),
                       rng.randrange(ctx.size >> top) << top])


@pytest.mark.parametrize("field", list(KERNEL_FIELDS))
def test_table_kernels_match_scalar_multiplication(field):
    ctx = KERNEL_FIELDS[field]()
    if field.startswith("poly"):
        assert ctx.representation == "polynomial"
    rng = random.Random(field)
    top = (ctx.degree - 1) // 8 * 8
    for u, n in [(1, 1), (3, 5), (4, 9), (8, 32)]:
        H = ParityMatrix(ctx, [[_random_symbol(ctx, rng) for _ in range(n)]
                               for _ in range(u)])
        words = [[0] * n, [_random_symbol(ctx, rng) for _ in range(n)],
                 [rng.randrange(ctx.size >> top) << top for _ in range(n)]]
        words += [[rng.randrange(ctx.size) for _ in range(n)] for _ in range(5)]
        for word in words:
            want = [0] * u
            for r, row in enumerate(H.rows):
                for h, v in zip(row, word):
                    want[r] ^= ctx.mul(h, v)
            assert H.syndrome(word) == want, (u, n, word)

        rows = [[_random_symbol(ctx, rng) for _ in range(n)] for _ in range(6)]
        rows[1] = [0] * n
        # weight 1 adds its row with no table, beside rows that use one
        for weights in ([0] * 6, [_random_symbol(ctx, rng) for _ in range(6)],
                        [rng.randrange(ctx.size) for _ in range(6)],
                        [1, 1, 0, rng.randrange(1, ctx.size), 1, 0],
                        [rng.randrange(ctx.size), 0, 1, 1, 0, 1], [1] * 6):
            want = [0] * n
            for w, row in zip(weights, rows):
                for c, v in enumerate(row):
                    want[c] ^= ctx.mul(w, v)
            assert ctx.row_sum(weights, rows) == want, (weights, rows)


@pytest.mark.parametrize("field", ["gf8", "gf256", "gf65536", "aop13",
                                   "poly8", "poly16"])
def test_tables_are_built_with_no_multiply_call(field, monkeypatch):
    ctx = KERNEL_FIELDS[field]()
    calls = []
    real_mul = FieldContext.mul

    def counted(self, a, b):
        calls.append((a, b))
        return real_mul(self, a, b)

    monkeypatch.setattr(FieldContext, "mul", counted)
    w, b = ctx.size - 3, ctx.degree
    if b <= 8:
        tables = [(list(ctx._product_table(w)), 0)]
    else:
        lo_lo, hi_lo, lo_hi, hi_hi = ctx._split_tables(w)
        # the products of a symbol's low byte, then of its high byte
        tables = [([lo | hi << 8 for lo, hi in zip(lo_lo, lo_hi)], 0),
                  ([lo | hi << 8 for lo, hi in zip(hi_lo, hi_hi)], 8)]
    rows = [[w, 1, 0, ctx.size - 1], [3, 0, 2, 5]]
    packed = ParityMatrix(ctx, rows).packed_columns()
    assert not calls
    for table, shift in tables:
        chunk = min(ctx.size, 256) if shift == 0 else ctx.size >> 8
        assert table[:chunk] == [real_mul(ctx, w, v << shift)
                                 for v in range(chunk)], shift
        assert not any(table[chunk:])
    for j, slots in enumerate(packed):
        for s, vec in enumerate(slots):
            assert vec == sum(real_mul(ctx, row[j], 1 << s) << (r * b)
                              for r, row in enumerate(rows)), (j, s)


def test_large_all_ones_field_is_polynomial_backed():
    ctx = build_aop_field(19)
    assert ctx.degree == 18 and ctx.representation == "polynomial"
    assert ctx.alpha == 2 and ctx.alpha_order == 19
    assert ctx.pow(2, 19) == 1


def test_split_row_sum_caches_on_first_use_and_evicts_at_the_cap():
    # a fresh context, so no other test has filled its cache
    ctx = FieldContext(16, DEFAULT_MODULI[16])
    tables = ctx._byte_tables
    rng = random.Random(16)
    rows = [[rng.randrange(ctx.size) for _ in range(5)] for _ in range(2)]
    sizes = []
    for w in range(1, SPLIT_CACHE_CAP + 100):
        for use in (1, 2):
            weights = [w, ctx.size - 1]
            want = [ctx.mul(weights[0], a) ^ ctx.mul(weights[1], b)
                    for a, b in zip(*rows)]
            assert ctx.row_sum(weights, rows) == want, (w, use)
            # the first use builds the weight's tables; 1 needs none
            assert (w in tables) == (w != 1), (w, use)
            assert len(tables) <= SPLIT_CACHE_CAP
            sizes.append(len(tables))
    # the cache filled and was cleared
    assert max(sizes) == SPLIT_CACHE_CAP
    assert sizes[-1] < SPLIT_CACHE_CAP


def test_shift_built_tables_match_the_generator_walk():
    def walk(ctx, gen):
        n, v, exp = ctx.size - 1, 1, []
        for _ in range(n):
            exp.append(v)
            v = p2.mulmod(v, gen, ctx.modulus)
        log = [0] * ctx.size
        for i, v in enumerate(exp):
            log[v] = i
        return exp + exp, log

    # x is primitive modulo every default modulus, so x generates the tables
    for deg in range(2, 17):
        ctx = FieldContext(deg, DEFAULT_MODULI[deg], "table")
        assert (ctx._exp, ctx._log) == walk(ctx, 2), deg
    # x is not primitive here, so the walk runs over the generator found
    for ctx, gen in [(FieldContext(4, 0b11111, "table"), 3),
                     (build_aop_field(5), 3), (build_aop_field(11), 11),
                     (build_aop_field(13), 11)]:
        assert ctx._exp[1] == gen, ctx
        assert (ctx._exp, ctx._log) == walk(ctx, gen), ctx
