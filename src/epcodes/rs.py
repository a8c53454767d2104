"""Reed-Solomon codes cut out by rows of powers of alpha.

A code of length n with u parities is the set of words c satisfying

    sum_j c_j * alpha**(r*j) == 0   for r = 0..u-1,

which is MDS with minimum distance u+1 whenever alpha has order >= n.
Codes over the same context nest by construction: more parities means a
subcode.  Erasures are filled in closed form, and the last u positions,
where a systematic encode puts the parity, by one table-driven matrix
product; with errors as well,
Berlekamp-Massey seeded with the erasures locates the errata and the
same fill supplies their values.  Decoding failures are returned as
None, never raised.
"""

from __future__ import annotations

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
        self._f: ParityMatrix | None = None
        self._tail = list(range(n - u, n))
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

    def _encoder(self) -> ParityMatrix:
        """F, u x (n - u), with y[n-u:] = F * y[:n-u] for every codeword y.

        Column j is the tail of the codeword that is 1 at position j and
        0 on the rest of the first n - u.  That codeword lives on j and
        the tail, u + 1 positions, so its values are the difference
        weights of their locators, scaled to 1 at j.  Needs 0 < u < n.
        """
        if self._f is None:
            ctx = self.ctx
            key = (self.n, self.u)
            if key not in ctx.encoder_tables:
                tail = self._loc[self.dimension:]
                cols = []
                for x in self._loc[:self.dimension]:
                    w = difference_weights(ctx, [x] + tail)
                    scale = ctx.inv(w[0])
                    cols.append([ctx.mul(scale, v) for v in w[1:]])
                # rows and tables, shared per (n, u) like the syndrome
                # tables, so a code built per call reuses both
                ctx.encoder_tables[key] = (list(zip(*cols)), [])
            self._f = ParityMatrix(ctx, *ctx.encoder_tables[key])
        return self._f

    def syndromes(self, word: list[int]) -> list[int]:
        if len(word) != self.n:
            raise ValueError("word length %d != n=%d" % (len(word), self.n))
        # with no rows the matrix has no columns to check a word against
        return self.parity_check().syndrome(word) if self.u else []

    def contains(self, word: list[int]) -> bool:
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

        When the erasures are exactly the last u positions, the tail is
        the systematic encoder applied to the rest, with no solve; a zero
        rest needs no encoder at all.
        """
        e = sorted(set(erasures))
        if e and e == self._tail:
            if len(word) != self.n:
                raise ValueError("word length %d != n=%d" % (len(word), self.n))
            data = word[:self.dimension]
            return data + (self._encoder().syndrome(data) if any(data)
                           else [0] * self.u)
        if len(e) > self.u:
            return None
        y = list(word)
        for j in e:
            y[j] = 0
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
        locator (Blahut's errata decoder).  A Chien search finds its
        roots, and erasure_decode fills them; its checks beyond the
        filled positions stand in for a final syndrome check.  The error
        count is the number of known positions the fill changed.  The
        result is the codeword within capability of the received word
        when there is one, and None otherwise: beyond capability a
        codeword is returned only if one happens to sit that close.
        """
        e = sorted(set(erasures))
        u = self.u
        if len(e) > u:
            return None
        ctx = self.ctx
        y = list(word)
        for j in e:
            y[j] = 0
        syn = self.syndromes(y)
        if not any(syn) and not e:
            return y, 0

        # Berlekamp-Massey from lam = old = erasure locator, length e;
        # deg lam can sit below length, so sums run over the whole list
        mul = ctx.mul
        lam = old = self._locator(e)
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
        # a locator of its full length, within capability, with all roots
        if len(lam) - 1 != length or 2 * length > u + len(e):
            return None
        # lam(1/X) = 0 exactly when lam reversed vanishes at X, since
        # lam[0] = 1 and lam[-1] != 0
        rev = lam[::-1]
        roots = [j for j, x in enumerate(self._loc) if not _peval(ctx, rev, x)]
        if len(roots) != length:
            return None

        out = self.erasure_decode(word, roots)
        if out is None:
            return None
        e_set = set(e)
        return out, sum(1 for j in roots if j not in e_set and out[j] != word[j])


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


def _peval(ctx: FieldContext, p: list[int], x: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = ctx.mul(acc, x) ^ c
    return acc
