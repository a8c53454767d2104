"""Reed-Solomon codes cut out by rows of powers of alpha.

A code of length n with u parities is the set of words c satisfying

    sum_j c_j * alpha**(r*j) == 0   for r = 0..u-1,

which is MDS with minimum distance u+1 whenever alpha has order >= n.
Codes over the same context nest by construction: more parities means a
subcode.  Decoding failures are returned as None, never raised.
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
            self._h = ParityMatrix(ctx, rows)
        return self._h

    def syndromes(self, word: list[int]) -> list[int]:
        if len(word) != self.n:
            raise ValueError("word length %d != n=%d" % (len(word), self.n))
        # with no rows the matrix has no columns to check a word against
        return self.parity_check().syndrome(word) if self.u else []

    def contains(self, word: list[int]) -> bool:
        return not any(self.syndromes(word))

    # -- erasure-only decoding ------------------------------------------

    def erasure_decode(self, word: list[int], erasures: list[int]) -> list[int] | None:
        """Fill the erased positions, or None.

        Closed-form Vandermonde solve (Forney's erasure values).  With
        locators X_i = alpha**j_i of the e erased positions and syndromes
        S_r of the word with those cells zeroed, the first e checks give

            x_i = sum_{r<e} q_{i,r} S_r / prod_{l != i} (X_i + X_l),

        where q_i(z) = P(z) / (z + X_i) and P(z) = prod_l (z + X_l).  The
        remaining u - e checks must then hold as well.  None when e > u
        or when the non-erased part is inconsistent with every codeword.
        """
        e = sorted(set(erasures))
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
        poly = [1]
        for x in locs:
            poly = [a ^ mul(x, b) for a, b in zip([0] + poly, poly + [0])]
        vals = []
        for x, w in zip(locs, difference_weights(self.ctx, locs)):
            # synthetic division of P by (z + x), highest coefficient first
            q = 1
            num = syn[len(e) - 1]
            for r in range(len(e) - 2, -1, -1):
                q = poly[r + 1] ^ mul(x, q)
                num ^= mul(q, syn[r])
            vals.append(mul(num, w))
        rows = self.parity_check().rows
        for r in range(len(e), self.u):
            acc = syn[r]
            for j, v in zip(e, vals):
                acc ^= mul(rows[r][j], v)
            if acc:
                return None
        for j, v in zip(e, vals):
            y[j] = v
        return y

    # -- errors and erasures --------------------------------------------

    def error_erasure_decode(self, word: list[int],
                             erasures: list[int]) -> tuple[list[int], int] | None:
        """Correct i errors plus the erasures when 2i + e <= u.

        Returns (codeword, error_count) or None.  The syndromes of the
        word with the erasures zeroed go through the erasure locator, the
        Euclidean recursion and the derivative formula for values.  The
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

        gamma = [1]
        for j in e:
            gamma = _pmul_linear(ctx, gamma, self._loc[j])
        xi = _pmul_trunc(ctx, syn, gamma, u)

        # Euclidean recursion on (z^u, xi) down past degree (u+e)/2
        r_prev = [0] * u + [1]
        r_cur = xi
        t_prev: list[int] = [0]
        t_cur: list[int] = [1]
        while 2 * _pdeg(r_cur) >= u + len(e):
            q, rem = _pdivmod(ctx, r_prev, r_cur)
            r_prev, r_cur = r_cur, rem
            t_prev, t_cur = t_cur, _padd(t_prev, _pmul(ctx, q, t_cur))
        sigma, omega = t_cur, r_cur
        if not sigma or sigma[0] == 0:
            return None
        lam = _pmul(ctx, sigma, gamma)

        nerr = _pdeg(lam)
        support = []
        for j in range(self.n):
            if _peval(ctx, lam, ctx.alpha_pow(-j)) == 0:
                support.append(j)
        if len(support) != nerr:
            return None

        dlam = _pderiv(lam)
        errs = 0
        e_set = set(e)
        for j in support:
            xinv = ctx.alpha_pow(-j)
            den = _peval(ctx, dlam, xinv)
            if den == 0:
                return None
            val = ctx.mul(self._loc[j], ctx.div(_peval(ctx, omega, xinv), den))
            if j not in e_set:
                if val == 0:
                    return None
                errs += 1
            y[j] ^= val
        if any(self.syndromes(y)):
            return None
        return y, errs


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


# -- small polynomial helpers (coefficient lists, index == power) --------

def _pdeg(p: list[int]) -> int:
    d = len(p) - 1
    while d >= 0 and p[d] == 0:
        d -= 1
    return d


def _ptrim(p: list[int]) -> list[int]:
    d = _pdeg(p)
    return p[:d + 1] if d >= 0 else []


def _padd(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] ^= v
    return _ptrim(out)


def _pmul(ctx: FieldContext, a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        if av:
            for j, bv in enumerate(b):
                if bv:
                    out[i + j] ^= ctx.mul(av, bv)
    return _ptrim(out)


def _pmul_linear(ctx: FieldContext, p: list[int], x: int) -> list[int]:
    """p(z) * (1 + x*z)."""
    out = list(p) + [0]
    for i in range(len(p)):
        if p[i]:
            out[i + 1] ^= ctx.mul(p[i], x)
    return _ptrim(out)


def _pmul_trunc(ctx: FieldContext, a: list[int], b: list[int], k: int) -> list[int]:
    out = [0] * k
    for i, av in enumerate(a):
        if av and i < k:
            for j, bv in enumerate(b):
                if i + j >= k:
                    break
                if bv:
                    out[i + j] ^= ctx.mul(av, bv)
    return _ptrim(out)


def _pdivmod(ctx: FieldContext, a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    db = _pdeg(b)
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [0] * max(len(a) - db, 1)
    inv_lead = ctx.inv(b[db])
    for shift in range(_pdeg(a) - db, -1, -1):
        coef = ctx.mul(a[shift + db], inv_lead)
        if coef:
            q[shift] = coef
            for i in range(db + 1):
                if b[i]:
                    a[shift + i] ^= ctx.mul(coef, b[i])
    return _ptrim(q), _ptrim(a)


def _peval(ctx: FieldContext, p: list[int], x: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = ctx.mul(acc, x) ^ c
    return acc


def _pderiv(p: list[int]) -> list[int]:
    return _ptrim([p[i] if i % 2 == 1 else 0 for i in range(1, len(p))])
