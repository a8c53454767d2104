"""Monte Carlo reliability harness for erasure decoding strategies.

Erasure recovery for a linear code depends only on which cells are
erased, never on the symbol values, so everything here works on
coordinate patterns alone.  That keeps hundred-thousand-trial runs
cheap: a trial is a random ordering of the grid cells, drawn only as
far as the trial reads it.  Both drivers ask one question of it (see
_cutoff): how long is the first prefix the model cannot clear?
Per-line erasure counts answer that in O(1) per cell (see _caps); only
the iterative model then evaluates the full correctability predicate,
from the prefix that both count rules reject.

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
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import islice, tee
from math import fsum, sqrt

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

    def __post_init__(self):
        if self.kind not in (ROWS_ONLY, COLS_ONLY, ITERATIVE, IDEAL_LRC):
            raise ValueError("unknown model kind %r" % (self.kind,))

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
    bits = 0
    for cell in cells:
        bits |= 1 << cell
    return bits


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


def _substream(seed: int, trial: int) -> int:
    """The generator seed of trial `trial` under `seed`: a 64-bit mix in
    the splitmix64 style, so trials are order-independent and safe to
    fan out."""
    z = (seed + (trial + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _trial_rng(seed: int, trial: int) -> random.Random:
    """A stdlib generator on trial `trial`'s substream."""
    return random.Random(_substream(seed, trial))


def _draw(rng: random.Random, total: int):
    """The cells of a Fisher-Yates shuffle of range(total), in order.

    The shuffle swaps only as far as it is read.  Its swap index is
    randrange(i, total) written out over getrandbits as CPython's
    _randbelow draws it, so the cells depend only on the generator's
    Mersenne Twister bits, the same however far a caller reads."""
    getrandbits = rng.getrandbits
    pool = list(range(total))
    for i in range(total):
        n = total - i
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        j = i + r
        cell = pool[j]
        pool[j] = pool[i]  # no later step reads pool[i]
        yield cell


def _trials(seed: int, trials: int, total: int):
    """Each trial's draw, trial by trial.

    One generator serves every trial: it is reseeded with the trial's
    substream through the base class, the call random.Random.seed makes
    for an int, so its bits are those of _trial_rng(seed, trial).  A
    draw must therefore be read before the next one is taken."""
    rng = random.Random()
    reseed = super(random.Random, rng).seed
    for t in range(trials):
        reseed(_substream(seed, t))
        yield _draw(rng, total)


def _summary(samples, seed: int, histogram=None) -> SimResult:
    trials = len(samples)
    mean = fsum(samples) / trials
    if trials > 1:
        var = fsum((x - mean) ** 2 for x in samples) / (trials - 1)
        std_error = sqrt(var / trials)
    else:
        std_error = 0.0
    return SimResult(trials, mean, std_error, seed, histogram)


@lru_cache(maxsize=None)
def _line_ids(m: int, n: int) -> tuple[tuple, tuple]:
    """The row and the column of each cell id r*n + c."""
    return (tuple(c // n for c in range(m * n)),
            tuple(c % n for c in range(m * n)))


def _caps(profile) -> tuple:
    """cap[v] = #{profile entries >= v} for v = 0..n.

    Sorted line counts sit under the sorted entries position by
    position, the test row_correctable makes, exactly when
    #{lines with count >= v} <= cap[v] for every v >= 1.  A cell that
    raises its line's count to v moves only the v-th of those numbers,
    so one comparison per drawn cell decides whether a prefix still
    clears."""
    return tuple(sum(e >= v for e in profile.entries)
                 for v in range(profile.n + 1))


def _count_cutoff(by_rows, by_cols, cells) -> int | None:
    """The length of the first prefix of cells that both count rules
    (the line of every cell, the number of lines, caps) reject, or None.
    A rule given as None counts as rejected from the start."""
    rows, m, rcaps = by_rows or ((), 0, ())
    cols, n, ccaps = by_cols or ((), 0, ())
    rcount, ccount = [0] * m, [0] * n
    rroom, croom = list(rcaps), list(ccaps)
    rows_ok, cols_ok = by_rows is not None, by_cols is not None
    for k, cell in enumerate(cells, 1):
        if rows_ok:
            line = rows[cell]
            v = rcount[line] = rcount[line] + 1
            rroom[v] -= 1
            rows_ok = rroom[v] >= 0
        if cols_ok:
            line = cols[cell]
            v = ccount[line] = ccount[line] + 1
            croom[v] -= 1
            cols_ok = croom[v] >= 0
        if not (rows_ok or cols_ok):
            return k
    return None


def _lrc_cutoff(model: DecoderModel, groups: int, group_of, cells):
    """The same for the LRC residual, which a cell raises by v when its
    group first reaches v = h_local + 1 erasures, and by one after."""
    counts = [0] * groups
    over, budget = model.h_local + 1, model.d_global
    for k, cell in enumerate(cells, 1):
        g = group_of[cell]
        v = counts[g] = counts[g] + 1
        if v >= over:
            budget -= v if v == over else 1
            if budget < 0:
                return k
    return None


def _cutoff(model: DecoderModel, m: int, n: int):
    """The model's cutoff(cells): the length of the first prefix of
    cells that the model cannot clear, or None if every prefix clears.

    Rows-only, cols-only and the LRC stop at the first prefix their
    count rule rejects.  The iterative model walks both count rules to
    the first prefix both reject, as the peel clears whatever either
    direction alone clears, and from that floor asks _clears.

    Every model clears each subset of a pattern it clears, so the cutoff
    of a pattern's cells is None exactly when the pattern clears.  For
    the count rules that is immediate.  For the peel, let counts fall
    line by line and take a line row_correctable recovered at sorted
    position p.  Below p the j-th smallest count does not rise, so it
    still fits; from p to the line's new rank each count is at most the
    line's old one, which fit the budget at p and every later budget.
    So the corrected set only grows, and each step leaves of the smaller
    pattern a subset of what it leaves of the larger.  Were the smaller
    stuck at a nonempty residual, that residual would stay inside every
    later residual of the larger, which would never empty either.
    """
    rows, cols = _line_ids(m, n)
    if model.kind == IDEAL_LRC:
        return partial(_lrc_cutoff, model, m, rows)
    by_rows = (rows, m, _caps(model.code.profile))
    by_cols = (cols, n, _caps(transpose_code(model.code).profile))
    if model.kind == ROWS_ONLY:
        return partial(_count_cutoff, by_rows, None)
    if model.kind == COLS_ONLY:
        return partial(_count_cutoff, None, by_cols)

    def cutoff(cells):
        walked, kept = tee(cells)
        floor = _count_cutoff(by_rows, by_cols, walked)
        if floor is None:
            return None
        bits = _bits(islice(kept, floor - 1))
        for k, cell in enumerate(kept, floor):
            bits |= 1 << cell
            if not _clears(model, bits, m, n):
                return k
        return None
    return cutoff


def mean_erasures_to_failure(model: DecoderModel, shape=None,
                             trials: int = 100_000,
                             seed: int = 0) -> SimResult:
    """Average count of uniformly ordered erasures at which the pattern
    first becomes uncorrectable.

    Each trial orders the mn cells at random and reports the 1-based
    length of the shortest uncorrectable prefix (see _cutoff), or
    mn + 1 when even the whole grid is correctable.  The ordering is
    drawn only as far as the cutoff reads it; the draws are pinned to
    the trial generator's getrandbits, so a seed gives the same
    orderings on every run.  The histogram maps that length to its
    trial count.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    m, n = model.grid_shape(shape)
    cutoff = _cutoff(model, m, n)
    cuts = [cutoff(draw) or m * n + 1 for draw in _trials(seed, trials, m * n)]
    return _summary(cuts, seed, dict(Counter(cuts)))


def correction_probability(model: DecoderModel, num_erasures: int,
                           shape=None, trials: int = 100_000,
                           seed: int = 0) -> SimResult:
    """Fraction of uniformly random num_erasures-cell patterns the
    model corrects: the first num_erasures cells of each trial's
    ordering, corrected when no prefix of them fails (see _cutoff)."""
    if trials < 1:
        raise ValueError("need at least one trial")
    m, n = model.grid_shape(shape)
    total = m * n
    if not 0 <= num_erasures <= total:
        raise ValueError("num_erasures %d outside 0..%d"
                         % (num_erasures, total))
    cutoff = _cutoff(model, m, n)
    samples = [1.0 if cutoff(islice(draw, num_erasures)) is None else 0.0
               for draw in _trials(seed, trials, total)]
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
