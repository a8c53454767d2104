"""Linear algebra over a field context.

Matrices are lists of equal-length rows of ints.  Dense Gaussian
elimination over GF(2^b) is the reference solve that decoders and tests
trust.  For search, a parity matrix also expands each GF(2^b) column
into b GF(2) columns packed into Python ints; rank and kernel questions
then reduce to XOR elimination, which is what the minimum-distance
search runs on.
"""

from __future__ import annotations

from .gf import FieldContext


class ParityMatrix:
    """A parity-check matrix bound to a field context."""

    def __init__(self, ctx: FieldContext, rows: list[list[int]]):
        self.ctx = ctx
        self.rows = [list(r) for r in rows]
        self.num_rows = len(self.rows)
        self.num_cols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.num_cols:
                raise ValueError("ragged parity matrix")
        self._packed: list[list[int]] | None = None

    def syndrome(self, word: list[int]) -> list[int]:
        if len(word) != self.num_cols:
            raise ValueError("word length %d != %d columns"
                             % (len(word), self.num_cols))
        mul = self.ctx.mul
        live = [(c, w) for c, w in enumerate(word) if w]
        out = []
        for row in self.rows:
            acc = 0
            for c, w in live:
                acc ^= mul(row[c], w)
            out.append(acc)
        return out

    def rank(self) -> int:
        return rank(self.ctx, self.rows)

    def packed_columns(self) -> list[list[int]]:
        """Per column, its GF(2) expansion: b packed bit-vectors.

        Bit r*b+p of packed vector s is coefficient p of H[r][col] * x^s.
        """
        if self._packed is None:
            ctx = self.ctx
            b = ctx.degree
            cols = []
            for j in range(self.num_cols):
                base = [self.rows[r][j] for r in range(self.num_rows)]
                slots = []
                shifted = list(base)
                for _ in range(b):
                    acc = 0
                    for r, v in enumerate(shifted):
                        if v:
                            acc |= v << (r * b)
                    slots.append(acc)
                    shifted = [ctx.mul(v, 2) if ctx.degree > 1 else v
                               for v in shifted]
                cols.append(slots)
            self._packed = cols
        return self._packed


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
