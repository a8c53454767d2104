"""Reed-Solomon codes cut out by rows of powers of alpha.

A code of length n with u parities is the set of words c satisfying

    sum_j c_j * alpha**(r*j) == 0   for r = 0..u-1,

which is MDS with minimum distance u+1 whenever alpha has order >= n.
Codes over the same context nest by construction: more parities means a
subcode.  Exactly u erasures at positions fixed in advance, as an encode
has, are a fixed linear map of the word (fill): one lookup pass over the
whole word through that map's syndrome tables, whose columns at the
erased positions are zero, built once per position tuple and kept on
the code.  Other erasures are solved from one syndrome pass: on a table
field by the dual Vandermonde recurrences on logs, with the spare
checks read from the same syndromes, and on a polynomial field by
elimination.  With errors as well, Berlekamp-Massey seeded with the
erasures locates the errata, a Chien search over the error locator
alone finds the errors, and the erasure decoder supplies the values.
With one parity the syndrome is the plain sum of the word, and a lone
erasure is the sum of the rest.  With u = n the code is {0}, decided
without any check matrix.  Decoding failures are returned as None,
never raised.
"""

from __future__ import annotations

from functools import reduce
from operator import xor

from .gf import FieldContext
from .linalg import ParityMatrix, lanes, solve_unique, table_sum


class LengthExceedsOrder(ValueError):
    """Code length outruns the multiplicative order of alpha."""


class RsCode:
    """[n, n-u] code over a field context; u = number of parity rows."""

    def __init__(self, ctx: FieldContext, n: int, u: int):
        if n < 1:
            raise ValueError("length must be positive")
        if not 0 <= u <= n:
            raise ValueError("parity count %d outside 0..%d" % (u, n))
        if not ctx.order_at_least(n):
            raise LengthExceedsOrder(
                "length %d needs order(alpha) >= %d in %r" % (n, n, ctx))
        self.ctx = ctx
        self.n = n
        self.u = u
        self._h: ParityMatrix | None = None
        self._tail = tuple(range(n - u, n))
        # per erased position tuple, its fill map's tables (see fill)
        self._fills: dict[tuple, list] = {}
        # position locators alpha**j by one multiply walk, reused by every
        # decode, and on table fields their logs
        loc = [1]
        for _ in range(n - 1):
            loc.append(ctx.mul(loc[-1], ctx.alpha))
        self._loc = loc
        self._logs = None if ctx._log is None else [ctx._log[x] for x in loc]

    @property
    def dimension(self) -> int:
        return self.n - self.u

    @property
    def min_distance(self) -> int:
        return self.u + 1

    def parity_check(self) -> ParityMatrix:
        if self._h is None:
            ctx = self.ctx
            # row r is alpha**(r*j): row r - 1 times the locators
            rows, row = [], [1] * self.n
            for _ in range(self.u):
                rows.append(row)
                row = [ctx.mul(a, x) for a, x in zip(row, self._loc)]
            self._h = ParityMatrix(ctx, rows)
        return self._h

    def _encoder(self, erased: tuple) -> ParityMatrix:
        """F, u x n, with y[erased] = F * y for every codeword y, where
        erased lists u positions in increasing order; F's columns at
        those positions are zero.

        Column j, off erased, is the erased part of the codeword that is
        1 at j and 0 at every other position off erased.  That codeword
        lives on u + 1 positions, so its values are the difference
        weights of their locators, scaled to 1 at j.  Needs 0 < u < n.
        """
        ctx = self.ctx
        locs = [self._loc[j] for j in erased]
        cols = []
        for j, x in enumerate(self._loc):
            if j in erased:
                cols.append([0] * self.u)
            else:
                w = difference_weights(ctx, [x] + locs)
                scale = ctx.inv(w[0])
                cols.append([ctx.mul(scale, v) for v in w[1:]])
        return ParityMatrix(ctx, list(zip(*cols)))

    def fill(self, word: list[int], erased: tuple) -> list[int]:
        """The codeword equal to word off erased, a tuple of exactly u
        positions in increasing order, as a new list.

        The erased values are a fixed linear map of the rest: 0 in the
        zero code (u = n), the sum of the rest with one check, the word
        itself with none, and otherwise F * word with F = _encoder(erased).
        That product is one lookup pass over the whole word through F's
        syndrome tables (linalg.table_sum), built on the first word
        nonzero off erased and kept per position tuple; F's zero columns
        make what the erased cells hold add nothing.
        """
        n, u = self.n, self.u
        if u == n:
            return [0] * n
        y = list(word)
        if u <= 1:
            if u:
                j, = erased
                y[j] = 0
                y[j] = reduce(xor, y)
            return y
        tables = self._fills.get(erased)
        if tables is None:
            for j in erased:
                y[j] = 0
            if not any(y):
                return y
            tables = self._encoder(erased)._chunk_tables()
            self._fills[erased] = tables
        b = self.ctx.degree
        for j, v in zip(erased, lanes(table_sum(b, tables, word), u, b)):
            y[j] = v
        return y

    def syndromes(self, word: list[int]) -> list[int]:
        if len(word) != self.n:
            raise ValueError("word length %d != n=%d" % (len(word), self.n))
        if self.u == 1:
            # the single check row is all ones
            return [reduce(xor, word)]
        # with no rows the matrix has no columns to check a word against
        return self.parity_check().syndrome(word) if self.u else []

    def contains(self, word: list[int]) -> bool:
        if self.u == self.n:
            return not any(word)  # the zero code
        return not any(self.syndromes(word))

    def _locator(self, positions: list[int]) -> list[int]:
        """prod_j (1 + X_j z) over the positions' locators, lowest power first."""
        return root_product(self.ctx, [self._loc[j] for j in positions])[::-1]

    # -- erasure-only decoding ------------------------------------------

    def erasure_decode(self, word: list[int], erasures: list[int]) -> list[int] | None:
        """Fill the erased positions, or None.

        With locators X_i = alpha**j_i of the e erased positions and
        syndromes S_r of the word with those cells zeroed, the erased
        values x_i solve the Vandermonde system

            sum_i x_i X_i**r = S_r,   r < e,

        and the remaining u - e checks, the same sums for e <= r < u,
        must then hold as well; they are read from the same syndromes.
        None when e > u or when the non-erased part is inconsistent with
        every codeword.

        On a table field the system is solved on logs by the dual
        Vandermonde recurrences of Bjorck and Pereyra: e(e-1)/2
        multiply-adds, then as many divisions by locator differences and
        additions; one erasure is x = S_0.  A polynomial field eliminates
        the check rows at the erased positions against all u syndromes
        (linalg.solve_unique), where a pivot in the syndrome column is a
        failed spare check.  In the zero code (u = n) the result is 0
        exactly when every known symbol is.  One erasure under one check,
        or exactly the last u positions, is filled by fill, with no solve.
        """
        e = tuple(sorted(set(erasures)))
        n, u = self.n, self.u
        if len(word) != n:
            raise ValueError("word length %d != n=%d" % (len(word), n))
        if e and (e[0] < 0 or e[-1] >= n):
            raise ValueError("erasure position outside 0..%d" % (n - 1))
        if len(e) > u:
            return None
        if e and u < n and (u == 1 or e == self._tail):
            return self.fill(word, e)
        y = list(word)
        for j in e:
            y[j] = 0
        if u == n:
            return None if any(y) else y
        syn = self.syndromes(y)
        if not any(syn):
            return y
        if not e:
            return None
        if self._logs is None:
            rows = [[h[j] for j in e] for h in self.parity_check().rows]
            vals = solve_unique(self.ctx, rows, syn)
            if vals is None:
                return None
        else:
            exp, log = self.ctx._exp, self.ctx._log
            q = self.ctx.size - 1
            k = len(e)
            lx = [self._logs[j] for j in e]
            vals = syn[:k]
            if k > 1:
                # the dual Vandermonde recurrences of Bjorck and Pereyra
                # (Golub and Van Loan, Matrix Computations, 4.6.2), on logs
                xs = [self._loc[j] for j in e]
                for i in range(k - 1):
                    a = lx[i]
                    for r in range(k - 1, i, -1):
                        if vals[r - 1]:
                            vals[r] ^= exp[a + log[vals[r - 1]]]
                for i in range(k - 2, -1, -1):
                    for r in range(i + 1, k):
                        if vals[r]:
                            vals[r] = exp[log[vals[r]] + q - log[xs[r] ^ xs[r - i - 1]]]
                    for r in range(i, k - 1):
                        vals[r] ^= vals[r + 1]
            if k < u:
                # the spare checks: S_r less sum_i x_i X_i**r must vanish
                rest = syn[k:]
                for v, a in zip(vals, lx):
                    if v:
                        t = log[v] + k * a
                        for r in range(u - k):
                            rest[r] ^= exp[t % q]
                            t += a
                if any(rest):
                    return None
        for j, v in zip(e, vals):
            y[j] = v
        return y

    # -- errors and erasures --------------------------------------------

    def error_erasure_decode(self, word: list[int],
                             erasures: list[int]) -> tuple[list[int], int] | None:
        """Correct i errors plus the erasures when 2i + e <= u.

        Returns (codeword, error_count) or None.  Berlekamp-Massey runs
        on the syndromes of the word with the erasures zeroed, started
        from the erasure locator with length e, so it ends on the errata
        locator (Blahut's errata decoder).  That is the erasure locator
        times the error locator; the quotient is exact, and a Chien
        search finds its roots, which must be distinct and off the
        erasures.  With no error the search is skipped.  erasure_decode
        then fills the erasures and the roots, and cannot fail: the
        locator, of length L, generates S_L..S_{u-1} from the earlier
        syndromes, and with its L roots distinct and known the values
        that solve the first L checks reproduce every later syndrome,
        so the spare checks hold.  The error count is the number of
        known positions the fill changed.  The result is the codeword
        within capability of the received word when there is one, and
        None otherwise: beyond capability a codeword is returned only
        if one happens to sit that close.  In the zero code (u = n) the
        errors are the nonzero known symbols, counted with no syndrome.
        """
        e = sorted(set(erasures))
        n, u = self.n, self.u
        if len(word) != n:
            raise ValueError("word length %d != n=%d" % (len(word), n))
        if e and (e[0] < 0 or e[-1] >= n):
            raise ValueError("erasure position outside 0..%d" % (n - 1))
        if len(e) > u:
            return None
        ctx = self.ctx
        y = list(word)
        for j in e:
            y[j] = 0
        if u == n:
            # the zero code: every nonzero known symbol is an error
            errs = sum(map(bool, y))
            return ([0] * u, errs) if 2 * errs + len(e) <= u else None
        syn = self.syndromes(y)
        if not any(syn) and not e:
            return y, 0

        # Berlekamp-Massey from lam = old = erasure locator, length e;
        # deg lam can sit below length, so sums run over the whole list
        mul = ctx.mul
        lam = old = gamma = self._locator(e)
        length = len(e)
        for r in range(len(e), u):
            old = [0] + old
            delta = 0
            for i, c in enumerate(lam):
                if c:
                    delta ^= mul(c, syn[r - i])
            if not delta:
                continue
            width = max(len(lam), len(old))
            lam = lam + [0] * (width - len(lam))
            old = old + [0] * (width - len(old))
            nxt = [a ^ mul(delta, b) for a, b in zip(lam, old)]
            if 2 * length <= r + len(e):
                inv = ctx.inv(delta)
                old = [mul(inv, c) for c in lam]
                length = r + 1 + len(e) - length
            lam = nxt
        while not lam[-1]:
            lam.pop()
        # a locator of its full length, within capability
        if len(lam) - 1 != length or 2 * length > u + len(e):
            return None
        errs = []
        if length > len(e):
            # lam = gamma * sigma, since both BM polynomials start at
            # gamma, so the Chien search runs on sigma, the error locator,
            # which must have all its roots, distinct and off the
            # erasures.  sigma(1/X) = 0 exactly when sigma reversed
            # vanishes at X, since sigma[0] = 1 and sigma[-1] != 0.
            rev = _quotient(ctx, lam, gamma)[::-1]
            errs = [j for j, x in enumerate(self._loc) if not _peval(ctx, rev, x)]
            if len(errs) != length - len(e) or not set(errs).isdisjoint(e):
                return None

        out = self.erasure_decode(word, e + errs)
        return out, sum(1 for j in errs if out[j] != word[j])


def build_rs(ctx: FieldContext, n: int, u: int) -> RsCode:
    return RsCode(ctx, n, u)


def difference_weights(ctx: FieldContext, locs: list[int]) -> list[int]:
    """w_s = 1 / prod_{l != s} (x_s + x_l) for distinct locators x_s.

    These are the denominators of the closed-form Vandermonde solve, and
    the vector they form kills the first len-1 power sums of the
    locators: sum_s w_s * x_s**r = 0 for r < len(locs) - 1, with every
    entry nonzero.
    """
    out = []
    for s, xs in enumerate(locs):
        prod = 1
        for l, xl in enumerate(locs):
            if l != s:
                prod = ctx.mul(prod, xs ^ xl)
        out.append(ctx.inv(prod))
    return out


def root_product(ctx: FieldContext, xs) -> list[int]:
    """prod (z + x) over xs, lowest power first, so its last coefficient
    is 1: each factor shifts the product up and adds x times it, on logs
    in a table field."""
    poly = [1]
    if ctx._log is None:
        mul = ctx.mul
        for x in xs:
            poly = [c ^ mul(x, d) for c, d in zip([0] + poly, poly + [0])]
        return poly
    exp, log = ctx._exp, ctx._log
    for x in xs:
        a = log[x]
        poly = [c ^ exp[a + log[d]] if d else c
                for c, d in zip([0] + poly, poly + [0])]
    return poly


def _quotient(ctx: FieldContext, p: list[int], d: list[int]) -> list[int]:
    """p / d, lowest power first, for a d with d[0] = 1 that divides p."""
    mul = ctx.mul
    q = []
    for k in range(len(p) - len(d) + 1):
        c = p[k]
        for i in range(1, min(k, len(d) - 1) + 1):
            c ^= mul(d[i], q[k - i])
        q.append(c)
    return q


def _peval(ctx: FieldContext, p: list[int], x: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = ctx.mul(acc, x) ^ c
    return acc
