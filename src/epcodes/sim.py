"""Monte Carlo reliability harness for erasure decoding strategies.

Erasure recovery for a linear code depends only on which cells are
erased, never on the symbol values, so everything here works on
coordinate patterns alone.  That keeps hundred-thousand-trial runs
cheap: a trial is a random ordering of the grid cells, drawn only as
far as the trial reads it.  The mean driver walks that ordering one
cell at a time, keeping per-line erasure counts that decide in O(1)
per cell whether the prefix is still correctable (see _caps); only the
iterative model then evaluates the full correctability predicate,
about once per trial.  The probability driver evaluates it once per
trial.

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
from functools import lru_cache
from itertools import accumulate, islice
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


def _count_cutoff(line_of, lines: int, caps, cells) -> int:
    """The 1-based index of the first cell whose prefix fails the count
    rule of caps, or len(line_of) + 1 if none does."""
    counts = [0] * lines
    room = list(caps)
    for k, cell in enumerate(cells, 1):
        line = line_of[cell]
        v = counts[line] = counts[line] + 1
        room[v] -= 1
        if room[v] < 0:
            return k
    return len(line_of) + 1


def _lrc_cutoff(model: DecoderModel, groups: int, group_of, cells) -> int:
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
    return len(group_of) + 1


def _count_rules(code: EiiCode) -> tuple[tuple, tuple]:
    """The row rule and the column rule of the code, each as
    (the line of every cell, the number of lines, caps)."""
    rows, cols = _line_ids(code.m, code.n)
    return ((rows, code.m, _caps(code.profile)),
            (cols, code.n, _caps(transpose_code(code).profile)))


def _both_cutoff(by_rows, by_cols, cells) -> tuple[int, int]:
    """The first prefix that the row rule and the column rule have both
    rejected, with its pattern; (mn + 1, the whole grid) if one never
    does.  Every shorter prefix is correctable by iterative decoding,
    which clears whatever rows-only or cols-only clears."""
    rows, m, rcaps = by_rows
    cols, n, ccaps = by_cols
    rcount, ccount = [0] * m, [0] * n
    rroom, croom = list(rcaps), list(ccaps)
    rows_ok = cols_ok = True
    bits = 0
    for k, cell in enumerate(cells, 1):
        bits |= 1 << cell
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
            return k, bits
    return m * n + 1, bits


def mean_erasures_to_failure(model: DecoderModel, shape=None,
                             trials: int = 100_000,
                             seed: int = 0) -> SimResult:
    """Average count of uniformly ordered erasures at which the pattern
    first becomes uncorrectable.

    Each trial orders the mn cells at random and reports the 1-based
    length of the shortest uncorrectable prefix, or mn + 1 when even
    the whole grid is correctable.  The ordering is walked one cell at
    a time and drawn only as far as the walk reads it; the draws are
    pinned to the trial generator's getrandbits, so a seed gives the
    same orderings on every run.  The histogram maps that length to its
    trial count.

    Rows-only, cols-only and the LRC keep a count per line, updated in
    O(1) per cell, and the first prefix the count rule rejects is the
    cutoff.  The iterative model walks the row and the column rule
    together until both have rejected; from that prefix on, _clears
    decides cell by cell.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    m, n = model.grid_shape(shape)
    total = m * n
    kind = model.kind
    if kind == IDEAL_LRC:
        groups = _line_ids(m, n)[0]
    elif kind in (ROWS_ONLY, COLS_ONLY, ITERATIVE):
        by_rows, by_cols = _count_rules(model.code)
    else:
        raise ValueError("unknown model kind %r" % (kind,))
    samples = []
    histogram: dict[int, int] = {}
    for draw in _trials(seed, trials, total):
        if kind == ROWS_ONLY:
            cutoff = _count_cutoff(*by_rows, draw)
        elif kind == COLS_ONLY:
            cutoff = _count_cutoff(*by_cols, draw)
        elif kind == IDEAL_LRC:
            cutoff = _lrc_cutoff(model, m, groups, draw)
        else:
            floor, bits = _both_cutoff(by_rows, by_cols, draw)
            prefixes = accumulate(map((1).__lshift__, draw), or_,
                                  initial=bits)
            cutoff = next((k for k, pattern in enumerate(prefixes, floor)
                           if not _clears(model, pattern, m, n)), total + 1)
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
    for draw in _trials(seed, trials, total):
        bits = _bits(islice(draw, num_erasures))
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
