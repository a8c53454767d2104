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
    build_aop_field,
    build_field,
    default_field,
    smallest_aop_prime,
)


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
    # negative exponents invert
    assert ctx.mul(ctx.alpha_pow(-1), ctx.alpha) == 1


def test_primitive_alpha_generates_multiplicative_group():
    ctx = default_field(4)
    seen = {ctx.alpha_pow(e) for e in range(15)}
    assert seen == set(range(1, 16))
    assert ctx.order(ctx.alpha) == 15
    assert ctx.order_at_least(15)
    assert not ctx.order_at_least(16)


def test_table_alpha_is_the_smallest_primitive_element():
    def order(ctx, a):
        v, k = a, 1
        while v != 1:
            v, k = ctx.mul(v, a), k + 1
        return k

    moduli = [f for deg in range(2, 9)
              for f in range(1 << deg, 2 << deg) if p2.is_irreducible(f)]
    assert 0b11111 in moduli  # x has order 5 there, so alpha is not x
    for f in moduli:
        ctx = FieldContext(p2.degree(f), f, "table")
        full = ctx.size - 1
        smallest = next(a for a in range(2, ctx.size) if order(ctx, a) == full)
        assert ctx.alpha == smallest, p2.to_text(f)
        assert ctx.alpha_order == full
    assert FieldContext(4, 0b11111, "table").alpha == 3


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
    assert ctx.order(ctx.alpha) == 5
    powers = [ctx.alpha_pow(e) for e in range(5)]
    assert len(set(powers)) == 5


def test_all_ones_field_rejects_bad_p():
    with pytest.raises(AopReducible) as info:
        build_aop_field(7)  # 2 has order 3 mod 7, not 6
    assert info.value.p == 7
    with pytest.raises(FieldError):
        build_aop_field(9)  # not prime


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
