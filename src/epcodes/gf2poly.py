"""Polynomial arithmetic over GF(2), with polynomials packed into ints.

Bit i of the integer holds the coefficient of x**i, so the zero
polynomial is 0, the constant 1 is 1, and x is 2.  Everything here is a
plain function on ints; the field layer builds both its table-driven and
its bit-vector representation on top of these.
"""

from __future__ import annotations

import random


def degree(p: int) -> int:
    """Degree of p; the zero polynomial gets -1."""
    return p.bit_length() - 1


def mul(a: int, b: int) -> int:
    """Carry-less product."""
    out = 0
    shift = 0
    while b:
        if b & 1:
            out ^= a << shift
        b >>= 1
        shift += 1
    return out


def divmod_(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of a by b (b nonzero)."""
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = degree(b)
    q = 0
    while degree(a) >= db:
        shift = degree(a) - db
        q |= 1 << shift
        a ^= b << shift
    return q, a


def mod(a: int, b: int) -> int:
    db = degree(b)
    while degree(a) >= db:
        a ^= b << (degree(a) - db)
    return a


def mulmod(a: int, b: int, f: int) -> int:
    return mod(mul(a, b), f)


def powmod(a: int, e: int, f: int) -> int:
    """a**e modulo f for e >= 0, by square and multiply."""
    out = 1
    while e:
        if e & 1:
            out = mulmod(out, a, f)
        a = mulmod(a, a, f)
        e >>= 1
    return out


def gcd(a: int, b: int) -> int:
    while b:
        a, b = b, mod(a, b)
    return a


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b)."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod_(a, b)
        a, b = b, r
        s0, s1 = s1, s0 ^ mul(q, s1)
        t0, t1 = t1, t0 ^ mul(q, t1)
    return a, s0, t0


def invmod(a: int, f: int) -> int:
    """Inverse of a modulo f; a must be coprime to f."""
    g, s, _ = egcd(a, f)
    if g != 1:
        raise ZeroDivisionError("element not invertible")
    return mod(s, f)


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(f: int) -> bool:
    """Rabin's test for irreducibility over GF(2)."""
    b = degree(f)
    if b <= 0:
        return False
    if b == 1:
        return True
    if f & 1 == 0:  # divisible by x
        return False
    # x**(2**b) = x modulo f, and x**(2**(b/p)) - x is coprime to f for
    # every prime p dividing b
    if powmod(2, 1 << b, f) != 2:
        return False
    for p in _prime_factors(b):
        if gcd(powmod(2, 1 << (b // p), f) ^ 2, f) != 1:
            return False
    return True


def find_irreducible(deg: int) -> int:
    """Smallest (by integer value) irreducible polynomial of the given degree."""
    if deg < 1:
        raise ValueError("degree must be positive")
    if deg == 1:
        return 0b10  # x
    for cand in range((1 << deg) | 1, 1 << (deg + 1), 2):
        if is_irreducible(cand):
            return cand
    raise AssertionError("unreachable: irreducibles exist in every degree")


def all_ones_poly(p: int) -> int:
    """1 + x + ... + x**(p-1)."""
    return (1 << p) - 1


def order_mod(a: int, p: int) -> int:
    """Multiplicative order of a modulo the prime p."""
    n = p - 1
    order = n
    for q in _prime_factors(n):
        while order % q == 0 and pow(a, order // q, p) == 1:
            order //= q
    return order


def _trace_poly(r: int, d: int, f: int) -> int:
    """r + r^2 + r^4 + ... + r^(2^(d-1)) modulo f."""
    acc = 0
    h = mod(r, f)
    for _ in range(d):
        acc ^= h
        h = mulmod(h, h, f)
    return acc


def equal_degree_factor(f: int, d: int, seed: int = 2) -> int:
    """One irreducible degree-d factor of f, all of whose factors have degree d.

    Uses trace-based splitting; deterministic for a fixed seed.
    """
    if degree(f) == d:
        return f
    rng = random.Random(seed)
    while True:
        r = rng.randrange(2, 1 << degree(f))
        g = gcd(f, _trace_poly(r, d, f))
        if 0 < degree(g) < degree(f):
            part = g if degree(g) <= degree(f) - degree(g) else divmod_(f, g)[0]
            return equal_degree_factor(part, d, seed + 1)


def smallest_factor(f: int, d: int) -> int:
    """An irreducible degree-d factor of f.

    For d <= 20 trial division returns the smallest-valued one.  Beyond
    that, equal-degree splitting returns a degree-d factor, not
    necessarily the smallest.  It needs every irreducible factor of f to
    have degree d, as those of the all-ones polynomial for a prime p do
    with d = ord_p(2).
    """
    if d <= 20:
        for cand in range((1 << d) | 1, 1 << (d + 1), 2):
            if mod(f, cand) == 0:
                return cand
        raise ValueError("no degree-%d factor" % d)
    return equal_degree_factor(f, d)


def to_text(p: int) -> str:
    """Human form like '1+x+x^3'."""
    if p == 0:
        return "0"
    terms = []
    i = 0
    while p:
        if p & 1:
            terms.append("1" if i == 0 else ("x" if i == 1 else "x^%d" % i))
        p >>= 1
        i += 1
    return "+".join(terms)
