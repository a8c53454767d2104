"""Finite-field contexts for GF(2^b).

Elements are plain ints whose bit i is the coefficient of x**i in the
residue-class representative; they only mean something relative to one
FieldContext.  Two representations are supported:

* ``table``: log/antilog tables over a primitive element, for b <= 16.
* ``polynomial``: direct carry-less multiply and reduce, for any b.

Both expose the same operations and agree elementwise, which the test
suite checks exhaustively for small fields.  The weighted row sum that
isolates a row of an array code multiplies a whole row by one weight
with bytes.translate, in either representation.  Up to degree 8 it goes
through the weight's 256-byte product table.  From degree 9 to 16 it
splits each symbol into its two bytes and uses four tables per weight
(the split-table method of Plank, Greenan and Miller, "Screaming Fast
Galois Field Arithmetic Using Intel SIMD Instructions", FAST 2013).
Those tables are built on a weight's first use and cached for at most
SPLIT_CACHE_CAP weights.  Above degree 16 the sum runs symbol by
symbol.  Every multiplication table, the parity matrices' packed
columns included, is built from the walk w * x**i of _x_multiples, by
shift and reduce modulo the field's own modulus, with no multiply call.

The context designates a generator ``alpha`` used to index code
positions.  For a generic modulus alpha is x when x is primitive and
otherwise the smallest-valued primitive element; for an all-ones-poly
field alpha is always x, whose multiplicative order is exactly p.

A table field's tables run over its smallest-valued primitive element g,
found by the order test g**((2^b - 1)/q) != 1 for every prime q dividing
2^b - 1; for an all-ones-poly field g is not alpha.  When g is x the
powers step by a shift, reduced once the degree is reached.
"""

from __future__ import annotations

import struct
from functools import lru_cache

from . import gf2poly as p2


class FieldError(ValueError):
    """Base class for field-construction and arithmetic faults."""


class ReducibleModulus(FieldError):
    """The modulus polynomial factors, so the quotient is not a field."""


class AopReducible(FieldError):
    """The all-ones polynomial for this p factors; carries one factor."""

    def __init__(self, p: int, factor: int):
        super().__init__(
            "all-ones polynomial for p=%d is reducible; factor %s"
            % (p, p2.to_text(factor))
        )
        self.p = p
        self.factor = factor


class DivisionByZero(FieldError, ZeroDivisionError):
    """Inverse or division with a zero operand."""


class ContextMismatch(FieldError):
    """An operand cannot belong to this field context."""


TABLE_MAX_DEGREE = 16

#: Weights whose split tables one field of degree 9 to 16 keeps, about
#: 1.3 MB at four 256-byte tables each; the cache is cleared when it fills.
SPLIT_CACHE_CAP = 1024

#: Conventional moduli used when a caller does not care which one.
DEFAULT_MODULI = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}


class FieldContext:
    """Arithmetic context for GF(2^degree) with a fixed modulus."""

    def __init__(self, degree: int, modulus: int, representation: str | None = None,
                 alpha: int | None = None, alpha_order: int | None = None):
        if degree < 1:
            raise FieldError("degree must be >= 1")
        if modulus < 0:
            raise FieldError("modulus must be non-negative, got %d" % modulus)
        if p2.degree(modulus) != degree:
            raise FieldError(
                "modulus degree %d does not match field degree %d"
                % (p2.degree(modulus), degree)
            )
        if modulus & 1 == 0:
            raise ReducibleModulus("modulus has zero constant term (divisible by x)")
        if not p2.is_irreducible(modulus):
            raise ReducibleModulus("modulus %s is reducible" % p2.to_text(modulus))
        if representation is None:
            representation = "table" if degree <= TABLE_MAX_DEGREE else "polynomial"
        if representation == "table" and degree > TABLE_MAX_DEGREE:
            raise FieldError("table representation limited to degree <= %d"
                             % TABLE_MAX_DEGREE)
        if representation not in ("table", "polynomial"):
            raise FieldError("unknown representation %r" % representation)

        self.degree = degree
        self.modulus = modulus
        self.representation = representation
        self.size = 1 << degree
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        # per weight, its product table for row_sum (degree <= 8) or its
        # four split tables (degree 9 to 16, see _split_tables); the wide
        # tables are dropped together once SPLIT_CACHE_CAP weights hold them
        self._byte_tables: dict[int, bytes | tuple[bytes, ...]] = {}

        if representation == "table":
            self._build_tables()

        if alpha is None:
            if representation == "table":
                # the table generator: the smallest primitive element
                alpha, alpha_order = self._exp[1], self.size - 1
            elif degree == 1:
                alpha, alpha_order = 1, 1
            else:
                # polynomial representation keeps alpha = x; its order is
                # generally unknown without factoring 2^degree - 1.
                alpha = 2
        self.alpha = alpha
        self.alpha_order = alpha_order

    # -- construction helpers -------------------------------------------

    def _build_tables(self) -> None:
        """exp, of length 2n so that exp[1] = g even in GF(2), and log over
        the smallest primitive element g (g = 1 in GF(2), where n = 1)."""
        n = self.size - 1
        f = self.modulus
        qs = p2._prime_factors(n)
        gen = next(g for g in range(1, self.size)
                   if all(p2.powmod(g, n // q, f) != 1 for q in qs))
        # exp and log share one int object per value; at b = 16 separate
        # ones would cost 2 MB more
        ints, powers, v, top = list(range(self.size)), [], 1, self.size
        if gen == 2:
            for _ in range(n):
                powers.append(ints[v])
                v <<= 1
                if v & top:
                    v ^= f
        else:
            for _ in range(n):
                powers.append(ints[v])
                v = p2.mulmod(v, gen, f)
        self._exp = powers + powers
        self._log = log = [0] * self.size
        for v, i in zip(powers, ints):
            log[v] = i

    # -- arithmetic ------------------------------------------------------

    def check(self, a: int) -> int:
        if not isinstance(a, int) or a < 0 or a >= self.size:
            raise ContextMismatch("value %r is not an element of GF(2^%d)"
                                  % (a, self.degree))
        return a

    def add(self, a: int, b: int) -> int:
        return a ^ b

    sub = add

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return p2.mod(p2.mul(a, b), self.modulus)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("zero has no inverse")
        if self._exp is not None:
            return self._exp[(self.size - 1) - self._log[a]]
        return p2.invmod(a, self.modulus)

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise DivisionByZero("division by zero")
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 0 if e else 1
        if self._exp is not None:
            return self._exp[(self._log[a] * e) % (self.size - 1)]
        return p2.powmod(a, e, self.modulus)

    def row_sum(self, weights, rows, packed=None) -> list[int]:
        """sum_j weights[j] * rows[j] over equal-length rows of elements.

        Zero weights and all-zero rows are skipped.  Up to degree 16 each
        row is multiplied at once, as bytes through bytes.translate, and
        the products are added as little-endian ints by XOR.  Up to
        degree 8 a row is one byte string and a weight has one 256-byte
        product table.  From degree 9 to 16 a row splits into its low and
        high bytes and a weight has four tables (see _split_tables),
        built on its first use.  Weight 1 has no table: the row is added
        as it is.  Above degree 16 the row is multiplied symbol by symbol.

        A caller summing the same rows under several weight lists may
        pass packed, one slot per row, initially None: a row's bytes are
        kept there once made (empty for a zero row) and reused, so a row
        must not change once its slot is set.
        """
        n = len(rows[0])
        if packed is None:
            packed = [None] * len(rows)
        if self.degree <= 8:
            tables = self._byte_tables
            acc = 0
            for j, w in enumerate(weights):
                if w:
                    raw = packed[j]
                    if raw is None:
                        row = rows[j]
                        raw = packed[j] = bytes(row) if any(row) else b""
                    if raw:
                        if w != 1:
                            tab = tables.get(w)
                            if tab is None:
                                tab = tables[w] = self._product_table(w)
                            raw = raw.translate(tab)
                        acc ^= int.from_bytes(raw, "little")
            return list(acc.to_bytes(n, "little"))
        if self.degree <= 16:
            return self._split_row_sum(weights, rows, n, packed)
        mul = self.mul
        out = [0] * n
        for w, row in zip(weights, rows):
            if w:
                for c, v in enumerate(row):
                    if v:
                        out[c] ^= mul(w, v)
        return out

    def _split_row_sum(self, weights, rows, n: int, packed: list) -> list[int]:
        """row_sum from degree 9 to 16.

        A row packs to 2n little-endian bytes, low byte first in each
        symbol.  Each of the weight's four tables is meant for either the
        low or the high bytes but translates the whole packed row; the
        four results, end to end, make one int of 8n bytes that is XORed
        into the sum.  XOR keeps every byte in place, so at the end a
        mask per quarter keeps the meant bytes and a shift moves each
        product byte to its symbol's low or high byte.  A row of weight
        1 goes as it is into a second sum of 2n bytes, added at the end.
        """
        tables = self._byte_tables
        words, even = _packing(n)
        pack = words.pack
        acc = plain = 0
        for j, w in enumerate(weights):
            if not w:
                continue
            raw = packed[j]
            if raw is None:
                row = rows[j]
                raw = packed[j] = pack(*row) if any(row) else b""
            if not raw:
                continue
            if w == 1:
                plain ^= int.from_bytes(raw, "little")
                continue
            tab = tables.get(w)
            if tab is None:
                if len(tables) >= SPLIT_CACHE_CAP:
                    tables.clear()
                tab = tables[w] = self._split_tables(w)
            lo_lo, hi_lo, lo_hi, hi_hi = tab
            acc ^= int.from_bytes(raw.translate(lo_lo) + raw.translate(hi_lo)
                                  + raw.translate(lo_hi) + raw.translate(hi_hi),
                                  "little")
        bits = 16 * n
        odd = even << 8
        acc = (plain ^ (acc & even) ^ (acc >> (bits + 8) & even)
               ^ (acc >> (2 * bits - 8) & odd) ^ (acc >> (3 * bits) & odd))
        return list(words.unpack(acc.to_bytes(2 * n, "little")))

    def _split_tables(self, w: int) -> tuple[bytes, ...]:
        """At index v: the low byte of w * v and of w * (v << 8), then the
        high byte of each, every table zero-padded to 256 entries.
        """
        slots = self._x_multiples(w)
        products = (p2.subset_xors(slots[:8]) + p2.subset_xors(slots[8:])
                    + [0] * (256 - (1 << (self.degree - 8))))
        raw = _packing(512)[0].pack(*products)
        return raw[0:512:2], raw[512::2], raw[1:512:2], raw[513::2]

    def _product_table(self, w: int) -> bytes:
        """w * v at index v, zero-padded to the 256 entries translate needs."""
        products = p2.subset_xors(self._x_multiples(w))
        return bytes(products) + bytes(256 - self.size)

    def _x_multiples(self, w: int, ones: int = 1) -> list[int]:
        """w * x**i for i < degree, each a shift of the last, reduced once
        the degree is reached.

        w may pack several elements in lanes of degree bits, with bit 0
        of every lane set in ones; all lanes then step at once.
        Multiplying by w is linear over GF(2), so w * v is the XOR of
        these over the set bits i of v (see gf2poly.subset_xors).
        """
        b = self.degree
        top, low = ones << (b - 1), self.modulus ^ (1 << b)
        out = []
        for _ in range(b):
            out.append(w)
            carry = w & top
            # in a lane that reaches x**b, the modulus's lower terms
            # replace it
            w = (w ^ carry) << 1 ^ (carry >> (b - 1)) * low
        return out

    def alpha_pow(self, e: int) -> int:
        """alpha**e for any sign of e; negative powers go through 1/alpha."""
        return self.pow(self.alpha, e)

    def order_at_least(self, k: int) -> bool:
        """True when alpha's multiplicative order is >= k."""
        if self.alpha_order is not None:
            return self.alpha_order >= k
        v = self.alpha
        for _ in range(k - 1):
            if v == 1:
                return False
            v = self.mul(v, self.alpha)
        return True

    # -- serialization ---------------------------------------------------

    @property
    def modulus_hex(self) -> str:
        h = format(self.modulus, "x")
        return h if len(h) % 2 == 0 else "0" + h

    def symbol_hex(self, a: int) -> str:
        return format(self.check(a), "0%dx" % ((self.degree + 3) // 4))

    def __repr__(self) -> str:
        return "FieldContext(degree=%d, modulus=0x%s, %s)" % (
            self.degree, self.modulus_hex, self.representation)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldContext)
                and self.degree == other.degree
                and self.modulus == other.modulus
                and self.alpha == other.alpha)

    def __hash__(self) -> int:
        return hash((self.degree, self.modulus, self.alpha))


@lru_cache(maxsize=64)
def _packing(n: int) -> tuple[struct.Struct, int]:
    """n symbols of up to 16 bits as 2n little-endian bytes, and the int
    whose low byte of every symbol is 0xff."""
    return struct.Struct("<%dH" % n), int.from_bytes(b"\xff\x00" * n, "little")


@lru_cache(maxsize=None)
def build_field(degree: int, modulus: int, representation: str | None = None) -> FieldContext:
    """Field context for GF(2^degree) with the given modulus polynomial."""
    return FieldContext(degree, modulus, representation)


@lru_cache(maxsize=None)
def build_aop_field(p: int) -> FieldContext:
    """Field of degree p-1 modulo the all-ones polynomial 1+x+...+x^(p-1).

    Valid only for prime p with 2 a primitive root mod p; then alpha = x
    satisfies alpha**p = 1, so code positions wrap with period exactly p.
    Otherwise raises AopReducible carrying one irreducible factor.
    """
    if p < 3:
        raise FieldError("p must be an odd prime, got %d" % p)
    if p2._prime_factors(p) != [p]:
        raise FieldError("p must be prime, got %d" % p)
    f = p2.all_ones_poly(p)
    d = p2.order_mod(2, p)
    if d != p - 1:
        raise AopReducible(p, p2.smallest_factor(f, d))
    return FieldContext(p - 1, f, alpha=2, alpha_order=p)


def default_field(degree: int) -> FieldContext:
    """Table-or-polynomial field with a conventional modulus for its degree."""
    if degree in DEFAULT_MODULI:
        return build_field(degree, DEFAULT_MODULI[degree])
    return build_field(degree, p2.find_irreducible(degree))


def smallest_aop_prime(min_order: int) -> int:
    """Smallest prime p >= min_order with an irreducible all-ones polynomial."""
    p = max(3, min_order)
    while not (p2._prime_factors(p) == [p] and p2.order_mod(2, p) == p - 1):
        p += 1
    return p
