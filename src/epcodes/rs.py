"""Reed-Solomon codes cut out by rows of powers of alpha.

A code of length n with u parities is the set of words c satisfying

    sum_j c_j * alpha**(r*j) == 0   for r = 0..u-1,

which is MDS with minimum distance u+1 whenever alpha has order >= n.
Codes over the same context nest by construction: more parities means a
subcode.  Erasures are filled in closed form.  Exactly u erasures at
positions fixed in advance, as an encode has, are a fixed linear map of
the rest (fill), applied by one table-driven matrix product; with errors
as well, Berlekamp-Massey seeded with the erasures locates the errata, a
Chien search over the error locator alone finds the errors, and the same
fill supplies the values.  With one parity the syndrome is the plain sum
of the word, and a lone erasure is the sum of the rest.  With u = n the
code is {0}, decided without any check matrix.  Decoding failures are
returned as None, never raised.
"""

from __future__ import annotations

from functools import reduce
from itertools import repeat
from operator import xor

from .gf import FieldContext
from .linalg import ParityMatrix
# not called here; bench/tracing.py wraps rs.solve_unique at this site
from .linalg import solve_unique  # noqa: F401


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
        # per erased position tuple, the other positions and F once built
        # (see fill); _f is the tail's F
        self._fills: dict[tuple, list] = {}
        self._f: ParityMatrix | None = None
        # position locators alpha**j, reused by every decode
        self._loc = [ctx.alpha_pow(j) for j in range(n)]

    @property
    def dimension(self) -> int:
        return self.n - self.u

    @property
    def min_distance(self) -> int:
        return self.u + 1

    def parity_check(self) -> ParityMatrix:
        if self._h is None:
            ctx = self.ctx
            rows = [[ctx.alpha_pow(r * j) for j in range(self.n)]
                    for r in range(self.u)]
            # every code of this (n, u) over ctx has these rows, so they
            # share one set of syndrome tables, kept on ctx as plain ints
            tables = ctx.syndrome_tables.setdefault((self.n, self.u), [])
            self._h = ParityMatrix(ctx, rows, tables)
        return self._h

    def _encoder(self, erased: tuple) -> ParityMatrix:
        """F, u x (n - u), with y[erased] = F * y[rest] for every codeword
        y, where erased lists u positions in increasing order and rest
        the others.

        Column j is the erased part of the codeword that is 1 at the j-th
        position of rest and 0 on the others there.  That codeword lives
        on u + 1 positions, so its values are the difference weights of
        their locators, scaled to 1 at that position.  Needs 0 < u < n.
        """
        ctx = self.ctx
        key = (self.n, self.u) if erased == self._tail else (self.n, erased)
        if key not in ctx.encoder_tables:
            locs = [self._loc[j] for j in erased]
            cols = []
            for j, x in enumerate(self._loc):
                if j not in erased:
                    w = difference_weights(ctx, [x] + locs)
                    scale = ctx.inv(w[0])
                    cols.append([ctx.mul(scale, v) for v in w[1:]])
            # rows and tables, shared per (n, u) for the tail and per
            # (n, erased) otherwise, so a code built per call reuses both
            ctx.encoder_tables[key] = (list(zip(*cols)), [])
        return ParityMatrix(ctx, *ctx.encoder_tables[key])

    def fill(self, word: list[int], erased: tuple) -> list[int]:
        """The codeword equal to word off erased, a tuple of exactly u
        positions in increasing order.

        The erased values are a fixed linear map of the rest: 0 in the
        zero code (u = n), the sum of the rest with one check, and
        otherwise F * rest with F = _encoder(erased), built on the first
        nonzero rest and kept per position tuple.
        """
        n, u = self.n, self.u
        if u == n:
            return [0] * n
        y = list(word)
        if u == 1:
            j, = erased
            y[j] = 0
            y[j] = reduce(xor, y)
            return y
        entry = self._fills.get(erased)
        if entry is None:
            entry = self._fills[erased] = [
                [j for j in range(n) if j not in erased], None]
        kept, f = entry
        rest = [y[j] for j in kept]
        if any(rest):
            if f is None:
                f = entry[1] = self._encoder(erased)
                if erased == self._tail:
                    self._f = f
            vals = f.syndrome(rest)
        else:
            vals = repeat(0)
        for j, v in zip(erased, vals):
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
        mul = self.ctx.mul
        poly = [1]
        for j in positions:
            x = self._loc[j]
            poly = [a ^ mul(x, b) for a, b in zip(poly + [0], [0] + poly)]
        return poly

    # -- erasure-only decoding ------------------------------------------

    def erasure_decode(self, word: list[int], erasures: list[int]) -> list[int] | None:
        """Fill the erased positions, or None.

        Closed-form Vandermonde solve (Forney's erasure values).  With
        locators X_i = alpha**j_i of the e erased positions and syndromes
        S_r of the word with those cells zeroed, the first e checks give

            x_i = sum_{r<e} q_{i,r} S_r / prod_{l != i} (X_i + X_l),

        where q_i(z) = P(z) / (z + X_i) and P(z) = prod_l (z + X_l), the
        erasure locator with its coefficients reversed.  The remaining
        u - e checks must then hold as well.  None when e > u or when the
        non-erased part is inconsistent with every codeword.

        In the zero code (u = n) the result is 0 exactly when every known
        symbol is.  One erasure under one check, or exactly the last u
        positions, is filled by fill, with no solve.
        """
        e = tuple(sorted(set(erasures)))
        if len(word) != self.n:
            raise ValueError("word length %d != n=%d" % (len(word), self.n))
        if len(e) > self.u:
            return None
        y = list(word)
        for j in e:
            y[j] = 0
        if self.u == self.n:
            return None if any(y) else y
        if e and (self.u == 1 or e == self._tail):
            return self.fill(y, e)
        syn = self.syndromes(y)
        if not any(syn):
            return y
        mul = self.ctx.mul
        locs = [self._loc[j] for j in e]
        poly = self._locator(e)[::-1]
        vals = []
        for x, w in zip(locs, difference_weights(self.ctx, locs)):
            # synthetic division of P by (z + x), highest coefficient first
            q = 1
            num = syn[len(e) - 1]
            for r in range(len(e) - 2, -1, -1):
                q = poly[r + 1] ^ mul(x, q)
                num ^= mul(q, syn[r])
            vals.append(mul(num, w))
        for j, v in zip(e, vals):
            y[j] = v
        # the first e checks hold by construction
        return y if len(e) == self.u or self.contains(y) else None

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
        fills the erasures and the roots; its checks beyond the filled
        positions stand in for a final syndrome check.  The error
        count is the number of known positions the fill changed.  The
        result is the codeword within capability of the received word
        when there is one, and None otherwise: beyond capability a
        codeword is returned only if one happens to sit that close.  In
        the zero code (u = n) the errors are the nonzero known symbols,
        counted with no syndrome.
        """
        e = sorted(set(erasures))
        u = self.u
        if len(e) > u:
            return None
        ctx = self.ctx
        y = list(word)
        for j in e:
            y[j] = 0
        if u == self.n:
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
        if out is None:
            return None
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
