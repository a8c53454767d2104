"""Linear algebra over a field context.

Matrices are lists of equal-length rows of ints.  Dense Gaussian
elimination over GF(2^b) is the reference solve that decoders and tests
trust.  A parity matrix also expands each GF(2^b) column into b GF(2)
columns packed into Python ints: the column's entries, packed side by
side, take the field's shift-and-reduce walk by x together, in either
representation.  Rank and kernel questions then reduce to XOR
elimination, which is what the minimum-distance search runs on.
Syndromes run on the same packed columns.  A syndrome is linear over
GF(2) in the bits of the word, so per column and per 8-bit chunk of a
symbol a table holds the packed contribution to all checks, and a
syndrome costs one lookup and XOR per column and chunk (table_sum).
Symbols of 9 to 16 bits are split into their two bytes by one struct
pack of the whole word.  The same pass applies any other matrix, such
as an RS code's fill map (rs.RsCode.fill).
"""

from __future__ import annotations

from functools import reduce
from operator import getitem, xor

from .gf import FieldContext, _packing
from .gf2poly import subset_xors


class ParityMatrix:
    """A parity-check matrix bound to a field context.

    syndrome(word) is the matrix times the word, so the same kernel also
    applies any other matrix, such as an RS code's fill map.  The packed
    columns and the syndrome tables are built on first use and kept.
    """

    def __init__(self, ctx: FieldContext, rows: list[list[int]]):
        self.ctx = ctx
        self.rows = [list(r) for r in rows]
        self.num_rows = len(self.rows)
        self.num_cols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.num_cols:
                raise ValueError("ragged parity matrix")
        self._packed: list[list[int]] | None = None
        self._tables: list[list[list[int]]] | None = None

    def syndrome(self, word: list[int]) -> list[int]:
        if len(word) != self.num_cols:
            raise ValueError("word length %d != %d columns"
                             % (len(word), self.num_cols))
        if not any(word):
            return [0] * self.num_rows
        b = self.ctx.degree
        return lanes(table_sum(b, self._chunk_tables(), word), self.num_rows, b)

    def rank(self) -> int:
        return rank(self.ctx, self.rows)

    def packed_columns(self) -> list[list[int]]:
        """Per column, its GF(2) expansion: b packed bit-vectors.

        Bit r*b+p of packed vector s is coefficient p of H[r][col] * x^s.
        """
        if self._packed is None:
            b, walk = self.ctx.degree, self.ctx._x_multiples

            def pack(col):
                return sum(v << (r * b) for r, v in enumerate(col))

            # one walk per column, every row's entry in its own lane
            ones = pack([1] * self.num_rows)
            self._packed = [walk(pack(col), ones) for col in zip(*self.rows)]
        return self._packed

    def _chunk_tables(self) -> list[list[list[int]]]:
        """Per 8-bit chunk k of a symbol, per column, a lookup table.

        Entry x of table [k][j] is the packed syndrome, laid out as in
        packed_columns, of the word that holds x << 8k in column j and
        zeros elsewhere; by linearity it is the XOR of slots 8k + i of
        column j over the set bits i of x.
        """
        if self._tables is None:
            cols = self.packed_columns()
            self._tables = [[subset_xors(slots[lo:lo + 8]) for slots in cols]
                            for lo in range(0, self.ctx.degree, 8)]
        return self._tables


def table_sum(degree: int, tables, word) -> int:
    """XOR over the columns j of tables[k][j][chunk k of word[j]], the
    chunks being a symbol's 8-bit pieces, low first: with the tables of
    _chunk_tables, the packed product of the matrix and the word.

    Up to 8 bits a symbol is its one chunk.  From 9 to 16 bits one
    struct pack of the word puts the low chunks at even offsets and the
    high at odd ones.
    """
    if degree <= 8:
        return reduce(xor, map(getitem, tables[0], word))
    if degree <= 16:
        raw = _packing(len(word))[0].pack(*word)
        return (reduce(xor, map(getitem, tables[0], raw[0::2]))
                ^ reduce(xor, map(getitem, tables[1], raw[1::2])))
    acc = 0
    for k, chunk_tables in enumerate(tables):
        chunk = [w >> (8 * k) & 255 for w in word]
        acc ^= reduce(xor, map(getitem, chunk_tables, chunk))
    return acc


def lanes(acc: int, count: int, b: int) -> list[int]:
    """The first count b-bit lanes of acc, lowest first: its bytes when
    b = 8."""
    if b == 8:
        return list(acc.to_bytes(count, "little"))
    lane = (1 << b) - 1
    return [acc >> (r * b) & lane for r in range(count)]


def rref(ctx: FieldContext, rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row-echelon form; returns (nonzero rows, pivot column list)."""
    m = [list(r) for r in rows]
    n_cols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        sel = None
        for i in range(r, len(m)):
            if m[i][c]:
                sel = i
                break
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = ctx.inv(m[r][c])
        if inv != 1:
            m[r] = [ctx.mul(inv, v) for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a ^ ctx.mul(f, b) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(ctx: FieldContext, rows: list[list[int]]) -> int:
    return len(rref(ctx, rows)[1])


def solve_unique(ctx: FieldContext, rows: list[list[int]], rhs: list[int]) -> list[int] | None:
    """Unique solution of rows * x = rhs, or None.

    None covers both an underdetermined system (rank < unknowns) and an
    inconsistent one; callers treat either as a decoding failure.
    """
    n_cols = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(ctx, aug)
    pivots_main = [c for c in pivots if c < n_cols]
    if len(pivots_main) < n_cols:
        return None
    if len(pivots) > len(pivots_main):
        return None  # a pivot in the rhs column: inconsistent
    x = [0] * n_cols
    for r, c in enumerate(pivots_main):
        x[c] = red[r][n_cols]
    return x
