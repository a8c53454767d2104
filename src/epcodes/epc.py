"""Product codes with extra global parities: bounds and constructions.

An extended product code is described by five numbers: the grid is
m x n, every column ends in v parities, every row ends in h parities,
and g extra parities are shared by the whole grid.  Any array-code
profile induces such a parameter set, and a combinatorial argument
bounds the minimum distance achievable for it.  Two explicit parity
matrices realize small cases: one adds a pair of power rows to the
product checks, the other adds g power rows at the price of a field
whose degree grows with the enclosed determinant degrees.
"""

from __future__ import annotations

from dataclasses import dataclass

from .eii import EiiCode, Profile
from .gf import FieldContext
from .linalg import ParityMatrix, solve_unique


class ParameterOutOfRange(ValueError):
    pass


class EmptyRange(ValueError):
    """The candidate interval for the bound optimization is void."""


class OrderTooSmall(ValueError):
    """alpha cannot index every cell of the grid."""


class FieldTooSmall(ValueError):
    """The field degree is below what the construction's proof needs."""


class TooLarge(ValueError):
    """Exhaustive enumeration would exceed the pattern budget."""


@dataclass(frozen=True)
class EpcParams:
    """Shape and parity counts of an extended product code."""

    m: int
    n: int
    v: int
    h: int
    g: int

    def __post_init__(self):
        if not 0 <= self.v < self.m:
            raise ParameterOutOfRange("need 0 <= v < m")
        if not 0 <= self.h < self.n:
            raise ParameterOutOfRange("need 0 <= h < n")
        if self.g < 0:
            raise ParameterOutOfRange("need g >= 0")


def epc_params(profile: Profile) -> EpcParams:
    """Read the product-plus-global parity split off a profile.

    Full-parity rows act as vertical parities, the smallest budget is
    the per-row horizontal parity count, and whatever parities remain
    beyond those two groups are global.
    """
    v = profile.mults[profile.t]
    h = profile.levels[0] if profile.t else profile.n
    g = profile.parity_count - h * profile.m - v * (profile.n - h)
    return EpcParams(profile.m, profile.n, v, h, g)


def distance_bound(params: EpcParams) -> int:
    """Upper bound on the minimum distance of any code with these parameters.

    Each candidate a spreads the g + 1 critical erasures over a columns;
    b full and one partial row of them then meet the v column and h row
    parities in a grid whose size bounds the distance.  The bound is the
    minimum over the feasible range of a.
    """
    m, n, v, h, g = params.m, params.n, params.v, params.h, params.g
    lo = -((g + 1) // -(m - v))
    hi = min(g + 1, n - h)
    if lo > hi:
        raise EmptyRange(f"no feasible column count for {params}")
    best = None
    for a in range(lo, hi + 1):
        b = (g + 1) // a
        r = g + 1 - a * b
        d = (v + b) * (h + a)
        if r:
            d += h + r
        if best is None or d < best:
            best = d
    return best


def lrc_bound(n: int, h: int, g: int) -> int:
    """Distance bound for locally recoverable codes: length n groups with
    h local parities each plus g global parities."""
    if not 0 <= h < n:
        raise ParameterOutOfRange("need 0 <= h < n")
    return -((g + 1) // -(n - h)) * h + g + 1


def optimal_two_level_code(context: FieldContext, m: int, n: int,
                           v: int, h: int, g: int) -> EiiCode:
    """Two-level array code meeting the distance bound exactly.

    All rows carry h parities except one that carries h + g, plus v
    full-parity rows; the profile is (h, ..., h, h+g, n, ..., n).  The
    minimum distance is (h + g + 1)(v + 1), which matches the bound for
    its own parameters whenever the preconditions hold.
    """
    if not 0 <= v < m - 1:
        raise ParameterOutOfRange("need 0 <= v < m-1")
    if v > h:
        raise ParameterOutOfRange("need v <= h")
    if h + g >= n:
        raise ParameterOutOfRange("need h + g < n")
    cap = -((h - v + 1) // -(v + 1))
    if not 1 <= g <= cap:
        raise ParameterOutOfRange(f"need 1 <= g <= {cap}")
    entries = (h,) * (m - v - 1) + (h + g,) + (n,) * v
    return EiiCode(Profile(entries, n), context)


def _product_rows(m: int, n: int) -> list[list[int]]:
    """One indicator row per grid row, then one per grid column, over the
    cells in row-major order."""
    cells = range(m * n)
    return ([[1 if idx // n == i else 0 for idx in cells] for i in range(m)]
            + [[1 if idx % n == j else 0 for idx in cells] for j in range(n)])


def two_global_parity_matrix(context: FieldContext, m: int, n: int) -> ParityMatrix:
    """Product-code checks plus two global power rows.

    Rows: one indicator per grid row, one per grid column, then the
    powers alpha**j and alpha**(-j) over the cells in row-major order.
    Distinct cell powers require alpha's order to reach m*n.
    """
    if m < 3 or n < 3:
        raise ParameterOutOfRange("need m, n >= 3")
    if not context.order_at_least(m * n):
        raise OrderTooSmall(
            f"alpha order below {m * n}, cannot index the grid")
    rows = _product_rows(m, n)
    rows.append([context.alpha_pow(idx) for idx in range(m * n)])
    rows.append([context.alpha_pow(-idx) for idx in range(m * n)])
    return ParityMatrix(context, rows)


def global_parity_required_degree(m: int, n: int, g: int) -> int:
    """Smallest field degree under which the g-global-parity construction
    is proven to reach distance bound quality."""
    mn = m * n
    return sum((i + 1) * (mn - g + i) for i in range(g))


def global_parity_matrix(context: FieldContext, m: int, n: int, g: int) -> ParityMatrix:
    """Product-code checks plus g global power rows alpha**((i+1)j).

    The determinant argument behind the construction needs the field
    degree to dominate every minor degree, so small g already forces a
    large field.
    """
    need = global_parity_required_degree(m, n, g)
    if context.degree < need:
        raise FieldTooSmall(
            f"construction needs field degree >= {need}, have {context.degree}")
    rows = _product_rows(m, n)
    for i in range(g):
        rows.append([context.alpha_pow((i + 1) * idx) for idx in range(m * n)])
    return ParityMatrix(context, rows)


def matrix_erasure_decode(H: ParityMatrix, word) -> list[int] | None:
    """Fill the None entries of word so every check of H is satisfied.

    The known symbols fix a syndrome; the erased columns must resolve it
    uniquely, which happens exactly when they are linearly independent
    and the word is consistent with the code.  Returns None otherwise.
    """
    ctx = H.ctx
    erased = [j for j, x in enumerate(word) if x is None]
    filled = [0 if x is None else ctx.check(x) for x in word]
    syn = H.syndrome(filled)
    if not erased:
        return filled if not any(syn) else None
    cols = [[H.rows[r][j] for j in erased] for r in range(H.num_rows)]
    sol = solve_unique(ctx, cols, syn)
    if sol is None:
        return None
    for j, val in zip(erased, sol):
        filled[j] = val
    return filled


def power_matrix_det_degree(exponents, g: int) -> int:
    """Degree of the determinant of the g x g matrix (x**((i+1) j_l)).

    Expanding the determinant over GF(2), the product down the main
    anti-order pairing i -> j_i carries the unique highest exponent, so
    the degree is sum (i+1) * j_i with the exponents in increasing order.
    """
    exponents = list(exponents)
    if len(exponents) != g:
        raise ValueError(f"expected {g} exponents, got {len(exponents)}")
    for a, b in zip(exponents, exponents[1:]):
        if b <= a:
            raise ValueError("exponents must be strictly increasing")
    if exponents and exponents[0] < 0:
        raise ValueError("exponents must be non-negative")
    return sum((i + 1) * j for i, j in enumerate(exponents))


_PATTERN_BUDGET = 2_000_000


def _reduce(v: int, piv: list[int]) -> int:
    """Remainder of the packed GF(2) vector v against a pivot table that
    holds, at each bit position, the pivot whose top bit it is (or 0)."""
    while v:
        e = piv[v.bit_length() - 1]
        if not e:
            break
        v ^= e
    return v


def _kernel_words(H: ParityMatrix) -> list[int]:
    """GF(2) basis of the right kernel, each word packed b bits a column.

    Every packed column slot carries a tag bit, held below the check
    bits, that records which slot it is; a slot whose check bits reduce
    away leaves the packed kernel vector in its tags.  A column is
    either independent of its predecessors in all b slots or in none, so
    word i*b + s is x**s times the kernel vector that is 1 on the i-th
    dependent column and 0 on the other dependent columns.
    """
    b = H.ctx.degree
    tags = H.num_cols * b
    piv = [0] * (tags + H.num_rows * b)
    words = []
    for j, slots in enumerate(H.packed_columns()):
        for s, col in enumerate(slots):
            v = _reduce(col << tags | 1 << (j * b + s), piv)
            if v >> tags:
                piv[v.bit_length() - 1] = v
            else:
                words.append(v)
    return words


def _kernel_min_weight(words: list[int], b: int, total: int,
                       cap: int) -> int:
    """Smallest support among the nonzero kernel vectors, or cap + 1.

    Weight is blind to scalar factors, so one vector per line suffices:
    the one whose last nonzero dependent coordinate is 1.  With that
    coordinate at dependent column i, the vector is word i*b plus any
    sum of the words below it, which a Gray walk visits with one XOR a
    step.
    """
    mask = 0
    for j in range(total):
        mask |= 1 << (b * j)
    folds = range(1, b)
    best = cap + 1
    for top in range(0, len(words), b):
        acc = words[top]
        for t in range(1, (1 << top) + 1):
            folded = acc
            for s in folds:
                folded |= acc >> s
            w = (folded & mask).bit_count()
            if w < best:
                best = w
                if best == 1:
                    return best
            acc ^= words[(t & -t).bit_length() - 1]
    return best


def exhaustive_min_distance(code, cap: int) -> int:
    """True minimum distance by scanning erasure patterns of growing weight.

    Accepts a parity matrix or an array code (its assembled matrix is
    used).  The smallest weight whose columns go dependent is the
    minimum distance; if no weight up to cap fails, returns cap + 1.
    Refuses up front when the total pattern count would be excessive.

    Both strategies run XOR elimination on the bit-packed GF(2)
    expansion of the columns, and pick by cost.  When the kernel is
    small, one vector per kernel line is weighed directly: (q**k - 1) /
    (q - 1) steps for a k-dimensional kernel over GF(q).  Otherwise the
    scan walks index sets depth-first so each new set reuses the
    elimination state of its prefix, and the running answer caps the
    depth: once a dependent set of weight w turns up, only sets lighter
    than w are still worth visiting.  Column order inside the walk is
    reversed because dependent sets tend to cluster in the high parity
    corner, and meeting one early tightens the cap sooner.
    """
    H = code.assembled_parity_matrix() if isinstance(code, EiiCode) else code
    total = H.num_cols
    cap = min(cap, total)
    count = 0
    comb = 1
    for w in range(1, cap + 1):
        comb = comb * (total - w + 1) // w
        count += comb
        if count > _PATTERN_BUDGET:
            raise TooLarge(
                f"{count}+ patterns up to weight {w}, budget {_PATTERN_BUDGET}")
    b = H.ctx.degree
    words = _kernel_words(H)
    if ((1 << len(words)) - 1) // ((1 << b) - 1) <= 2 * count:
        return _kernel_min_weight(words, b, total, cap)
    packed = H.packed_columns()[::-1]
    piv = [0] * (H.num_rows * b)
    best = cap + 1

    def explore(start: int, depth: int) -> None:
        nonlocal best
        for j in range(start, total):
            if depth + 1 >= best:
                return
            added = []
            # a column independent in slot 0 stays so in every slot: the
            # span so far is closed under multiplication by x
            for col in packed[j]:
                v = _reduce(col, piv)
                if not v:
                    break
                h = v.bit_length() - 1
                piv[h] = v
                added.append(h)
            if not added:
                best = depth + 1
                continue
            explore(j + 1, depth + 1)
            for h in added:
                piv[h] = 0

    explore(0, 0)
    return best
