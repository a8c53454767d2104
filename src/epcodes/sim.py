"""Monte Carlo reliability harness for erasure decoding strategies.

Erasure recovery for a linear code depends only on which cells are
erased, never on the symbol values, so everything here works on
coordinate patterns alone.  That keeps hundred-thousand-trial runs
cheap: a trial is a random ordering of the grid cells, drawn only as
far as the trial reads it, plus a few evaluations of a pure
correctability predicate.

A pattern on an m x n grid is held as one int with bit r*n + c set for
each erased cell (r, c).  Counting its bits under the row masks or the
column masks gives the per-line erasure counts that row_correctable
judges, and recovering a line clears its mask from the int.

Four decoder models are supported: row decoding alone, column decoding
alone (the transposed budgets), iterative row-column decoding, and an
idealized locally-recoverable layout.  In that layout a group with at
most h_local erasures repairs locally; every erasure in a heavier group
is residual, and the pattern survives while the residual is at most
d_global.  d_global is thus a budget of erasures that survive, not a
distance minus one: the acceptance panel passes lrc_bound(8, 2, 16) = 23
and tolerates up to 23 residual erasures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import islice
from math import fsum, sqrt
from operator import or_

from .eii import EiiCode, row_correctable
from .layout import transpose_code

ROWS_ONLY = "RowsOnly"
COLS_ONLY = "ColsOnly"
ITERATIVE = "Iterative"
IDEAL_LRC = "IdealLrc"


@dataclass(frozen=True)
class DecoderModel:
    """A named correctability predicate over erasure patterns.

    Code-backed kinds carry the array code; the idealized-LRC kind
    carries (n_group, h_local, d_global) instead and treats each grid
    row as one group of n_group cells.
    """

    kind: str
    code: EiiCode | None = None
    n_group: int | None = None
    h_local: int | None = None
    d_global: int | None = None

    @classmethod
    def rows_only(cls, code: EiiCode) -> "DecoderModel":
        return cls(ROWS_ONLY, code=code)

    @classmethod
    def cols_only(cls, code: EiiCode) -> "DecoderModel":
        return cls(COLS_ONLY, code=code)

    @classmethod
    def iterative(cls, code: EiiCode) -> "DecoderModel":
        return cls(ITERATIVE, code=code)

    @classmethod
    def ideal_lrc(cls, n_group: int, h_local: int,
                  d_global: int) -> "DecoderModel":
        """Idealized LRC: groups of n_group cells repair up to h_local
        erasures each; up to d_global erasures in heavier groups (the
        residual) survive, more do not.  d_global is that survival
        budget, not a distance: no one is subtracted from it.  The
        acceptance panel passes lrc_bound(8, 2, 16) = 23.
        """
        if not (0 <= h_local < n_group and d_global >= 1):
            raise ValueError("need 0 <= h_local < n_group and d_global >= 1")
        return cls(IDEAL_LRC, n_group=n_group, h_local=h_local,
                   d_global=d_global)

    def grid_shape(self, shape=None) -> tuple[int, int]:
        """Resolve the (rows, cols) this model runs on.

        Code-backed models have an intrinsic shape; an explicit shape,
        when given, must agree.  The LRC model needs the shape spelled
        out, with rows acting as groups of n_group cells.
        """
        if self.code is not None:
            mine = (self.code.m, self.code.n)
            if shape is not None and tuple(shape) != mine:
                raise ValueError("shape %r does not match the code's %r"
                                 % (tuple(shape), mine))
            return mine
        if shape is None:
            raise ValueError("the LRC model needs an explicit grid shape")
        m, n = shape
        if m < 1:
            raise ValueError("the grid needs at least one row, got %d" % m)
        if n != self.n_group:
            raise ValueError("group size %d does not match n_group %d"
                             % (n, self.n_group))
        return m, n


@dataclass(frozen=True)
class SimResult:
    """trials samples summarized; std_error is sample stddev / sqrt(trials)."""

    trials: int
    mean: float
    std_error: float
    seed: int
    histogram: dict | None = None


def correctable(model: DecoderModel, pattern, shape=None) -> bool:
    """Decide whether the erasure pattern (a set of (row, col) coords)
    is fully recoverable under the model."""
    m, n = model.grid_shape(shape)
    cells = []
    for r, c in pattern:
        if not (0 <= r < m and 0 <= c < n):
            raise ValueError("coordinate (%d, %d) outside %dx%d"
                             % (r, c, m, n))
        cells.append(r * n + c)
    return _clears(model, _bits(cells), m, n)


def _bits(cells) -> int:
    """The pattern of the erased cell ids r*n + c as one int."""
    return reduce(or_, map((1).__lshift__, cells), 0)


@lru_cache(maxsize=None)
def _line_masks(m: int, n: int) -> tuple[tuple, tuple]:
    """The row masks and the column masks of an m x n pattern."""
    row = (1 << n) - 1
    col = sum(1 << r * n for r in range(m))
    return (tuple(row << r * n for r in range(m)),
            tuple(col << c for c in range(n)))


def _counts(bits: int, lines) -> list:
    return [(bits & line).bit_count() for line in lines]


def _step(profile, bits: int, lines) -> int:
    """Decode the lines as the rows of the profile's code: clear every
    line row_correctable recovers and return what is left."""
    ok, good = row_correctable(profile, _counts(bits, lines))
    if ok:
        return 0
    for i in good:
        bits &= ~lines[i]
    return bits


def _clears(model: DecoderModel, bits: int, m: int, n: int) -> bool:
    rows, cols = _line_masks(m, n)
    if model.kind == IDEAL_LRC:
        residual = sum(k for k in _counts(bits, rows) if k > model.h_local)
        return residual <= model.d_global
    if model.kind == ROWS_ONLY:
        return not _step(model.code.profile, bits, rows)
    if model.kind == COLS_ONLY:
        return not _step(transpose_code(model.code).profile, bits, cols)
    if model.kind != ITERATIVE:
        raise ValueError("unknown model kind %r" % (model.kind,))
    # Alternate row and column steps until the grid empties or a full
    # cycle removes nothing.
    tprofile = transpose_code(model.code).profile
    while bits:
        before = bits
        bits = _step(model.code.profile, bits, rows)
        if bits:
            bits = _step(tprofile, bits, cols)
            if bits == before:
                return False
    return True


_MASK64 = (1 << 64) - 1


def _trial_rng(seed: int, trial: int) -> random.Random:
    """Independent substream per (seed, trial): a 64-bit mix in the
    splitmix64 style seeds a stdlib generator, so trials are
    order-independent and safe to fan out."""
    z = (seed + (trial + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return random.Random(z ^ (z >> 31))


def _prefixes(rng: random.Random, total: int):
    """The patterns of the prefixes of a Fisher-Yates shuffle of
    range(total): the k-th value yielded is the pattern of its first k
    cells, starting from the empty one.

    The shuffle swaps only as far as it is read.  Its swap index is
    randrange(i, total) written out over getrandbits as CPython's
    _randbelow draws it, so the cells depend only on the generator's
    Mersenne Twister bits, the same however far a caller reads."""
    getrandbits = rng.getrandbits
    pool = list(range(total))
    bits = 0
    yield bits
    for i in range(total):
        n = total - i
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        j = i + r
        bits |= 1 << pool[j]
        pool[j] = pool[i]  # no later step reads pool[i]
        yield bits


def _summary(samples, seed: int, histogram=None) -> SimResult:
    trials = len(samples)
    mean = fsum(samples) / trials
    if trials > 1:
        var = fsum((x - mean) ** 2 for x in samples) / (trials - 1)
        std_error = sqrt(var / trials)
    else:
        std_error = 0.0
    return SimResult(trials, mean, std_error, seed, histogram)


def mean_erasures_to_failure(model: DecoderModel, shape=None,
                             trials: int = 100_000,
                             seed: int = 0) -> SimResult:
    """Average count of uniformly ordered erasures at which the pattern
    first becomes uncorrectable.

    Each trial orders the mn cells at random and reports the 1-based
    length of the shortest uncorrectable prefix, or mn + 1 when even
    the whole grid is correctable.  Correctability is monotone (erasing
    more never helps), so the cutoff is found by bisection over
    1..mn+1, and the ordering is drawn only up to the longest prefix
    the bisection reads.  The draws are pinned to the trial generator's
    getrandbits, so a seed gives the same orderings on every run.  The
    histogram maps that length to its trial count.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    m, n = model.grid_shape(shape)
    total = m * n
    samples = []
    histogram: dict[int, int] = {}
    for t in range(trials):
        draws = _prefixes(_trial_rng(seed, t), total)
        masks: list[int] = []
        lo, hi = 1, total + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if mid >= len(masks):
                masks += islice(draws, mid + 1 - len(masks))
            if _clears(model, masks[mid], m, n):
                lo = mid + 1
            else:
                hi = mid
        cutoff = lo
        samples.append(float(cutoff))
        histogram[cutoff] = histogram.get(cutoff, 0) + 1
    return _summary(samples, seed, histogram)


def correction_probability(model: DecoderModel, num_erasures: int,
                           shape=None, trials: int = 100_000,
                           seed: int = 0) -> SimResult:
    """Fraction of uniformly random num_erasures-cell patterns the
    model corrects."""
    if trials < 1:
        raise ValueError("need at least one trial")
    m, n = model.grid_shape(shape)
    total = m * n
    if not 0 <= num_erasures <= total:
        raise ValueError("num_erasures %d outside 0..%d"
                         % (num_erasures, total))
    samples = []
    for t in range(trials):
        bits = next(islice(_prefixes(_trial_rng(seed, t), total),
                           num_erasures, None))
        samples.append(1.0 if _clears(model, bits, m, n) else 0.0)
    return _summary(samples, seed)


def birthday_expected(m: int) -> float:
    """Expected number of uniform draws from m bins until the first
    repeat, by the exact falling-factorial sum."""
    if m < 1:
        raise ValueError("need m >= 1")
    term = 1.0
    total = 1.0
    for k in range(1, m + 1):
        term *= (m - k + 1) / m
        total += term
    return total
