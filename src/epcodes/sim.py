"""Monte Carlo reliability harness for erasure decoding strategies.

Erasure recovery for a linear code depends only on which cells are
erased, never on the symbol values, so everything here works on
coordinate patterns alone.  That keeps hundred-thousand-trial runs
cheap: a trial is a random ordering of the grid cells, drawn only as
far as the trial reads it, and both drivers ask one question of it: how
long is the first prefix the model cannot clear?  One loop, _cutoffs,
answers it for every trial of a run.  It draws each cell inline and
moves per-line erasure counts in O(1) per cell (see _count_rules); only
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
from functools import lru_cache
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
    """Whether the model clears the pattern `bits` on the m x n grid.

    The iterative model alternates row and column steps, rows first,
    and gives up at the first step after the first that removes
    nothing.  That step changed nothing, so the next one would repeat
    the step before it on what that step left, and a step leaves
    nothing its own direction can still clear: the lines it cleared
    now count 0 and sort first, the lines it kept keep their counts and
    their stable order behind them, so the same count overshoots at
    the same sorted position.
    """
    rows, cols = _line_masks(m, n)
    if model.kind == IDEAL_LRC:
        residual = sum(k for k in _counts(bits, rows) if k > model.h_local)
        return residual <= model.d_global
    if model.kind == ROWS_ONLY:
        return not _step(model.code.profile, bits, rows)
    tprofile = transpose_code(model.code).profile
    if model.kind == COLS_ONLY:
        return not _step(tprofile, bits, cols)
    steps = ((model.code.profile, rows), (tprofile, cols))
    bits, turn = _step(model.code.profile, bits, rows), 1
    while bits:
        profile, lines = steps[turn]
        left = _step(profile, bits, lines)
        if left == bits:
            return False
        bits, turn = left, 1 - turn
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


@lru_cache(maxsize=64)
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


def _count_rules(model: DecoderModel, m: int, n: int) -> tuple:
    """The model's count rule over rows and over columns, each as (the
    line of every cell, (slot, cost) per line count v, room), or None
    where the model has no rule in that direction.

    A cell that raises its line's count to v takes cost from
    room[slot], and the rule rejects a prefix once a slot runs below 0.
    A code's rule has one slot per count, holding cap[v] (see _caps),
    at cost 1.  The LRC rule has the one slot d_global: a group pays v
    when it first reaches v = h_local + 1 erasures, which turn
    residual, and 1 for each one after."""
    rows, cols = _line_ids(m, n)
    if model.kind == IDEAL_LRC:
        over = model.h_local + 1
        costs = [0] * over + [over] + [1] * (n - over)
        return (rows, [(0, cost) for cost in costs], (model.d_global,)), None

    def caps_rule(lines, profile):
        return lines, [(v, 1) for v in range(profile.n + 1)], _caps(profile)
    tprofile = transpose_code(model.code).profile
    return (None if model.kind == COLS_ONLY
            else caps_rule(rows, model.code.profile),
            None if model.kind == ROWS_ONLY else caps_rule(cols, tprofile))


def _cutoffs(model: DecoderModel, m: int, n: int, seed: int, trials: int,
             limit: int) -> list:
    """Per trial, the length of the first prefix of its cell ordering
    that the model cannot clear, or None if the first `limit` cells
    clear.

    Trial t orders the cells by a Fisher-Yates shuffle of range(mn) on
    a generator seeded with _substream(seed, t), drawn only as far as
    the trial reads it.  Its swap index is randrange(i, mn) written out
    over getrandbits as CPython's _randbelow draws it, so the cells
    depend only on the Mersenne Twister bits, the same however far a
    trial reads.  One generator serves every trial, reseeded through
    the base class: the call random.Random.seed makes for an int.

    Each drawn cell advances the model's count rules (_count_rules) in
    O(1).  Rows-only, cols-only and the LRC stop at the first prefix
    their rule rejects.  The iterative model walks both rules to the
    first prefix both reject, as the peel clears whatever either
    direction alone clears, and from that floor asks _clears.

    Every model clears each subset of a pattern it clears, so a trial's
    cutoff is None exactly when its first `limit` cells clear.  For the
    count rules that is immediate.  For the peel, let counts fall line
    by line and take a line row_correctable recovered at sorted
    position p.  Below p the j-th smallest count does not rise, so it
    still fits; from p to the line's new rank each count is at most the
    line's old one, which fit the budget at p and every later budget.
    So the corrected set only grows, and each step leaves of the smaller
    pattern a subset of what it leaves of the larger.  Were the smaller
    stuck at a nonempty residual, that residual would stay inside every
    later residual of the larger, which would never empty either.
    """
    total = m * n
    by_rows, by_cols = _count_rules(model, m, n)
    rlines, rtable, rroom0 = by_rows or ((), (), ())
    clines, ctable, croom0 = by_cols or ((), (), ())
    rlive, clive = by_rows is not None, by_cols is not None
    probe = model.kind == ITERATIVE
    cells, powers = list(range(total)), [1 << c for c in range(total)]
    draws = [(i, total - i, (total - i).bit_length()) for i in range(limit)]
    # every trial reseeds the generator, so it is made unseeded: Random()
    # would first read OS entropy
    rng = random.Random.__new__(random.Random)
    reseed, getrandbits = super(random.Random, rng).seed, rng.getrandbits
    cuts = []
    for t in range(trials):
        reseed(_substream(seed, t))
        pool = cells[:]
        rcount, ccount = [0] * m, [0] * n
        rroom, croom = list(rroom0), list(croom0)
        rows_ok, cols_ok = rlive, clive
        cut, bits = None, 0
        for i, left, k in draws:
            r = getrandbits(k)
            while r >= left:
                r = getrandbits(k)
            j = i + r
            cell = pool[j]
            pool[j] = pool[i]
            pool[i] = cell  # the drawn prefix is pool[:i + 1]
            if rows_ok:
                line = rlines[cell]
                v = rcount[line] = rcount[line] + 1
                slot, cost = rtable[v]
                rroom[slot] -= cost
                rows_ok = rroom[slot] >= 0
            if cols_ok:
                line = clines[cell]
                v = ccount[line] = ccount[line] + 1
                slot, cost = ctable[v]
                croom[slot] -= cost
                cols_ok = croom[slot] >= 0
            if rows_ok or cols_ok:
                continue
            if probe:
                # the drawn cells are distinct, so their powers sum to
                # their pattern
                bits = (bits | powers[cell] if bits
                        else sum(map(powers.__getitem__, pool[:i + 1])))
                if _clears(model, bits, m, n):
                    continue
            cut = i + 1
            break
        cuts.append(cut)
    return cuts


def mean_erasures_to_failure(model: DecoderModel, shape=None,
                             trials: int = 100_000,
                             seed: int = 0) -> SimResult:
    """Average count of uniformly ordered erasures at which the pattern
    first becomes uncorrectable.

    Each trial orders the mn cells at random and reports the 1-based
    length of the shortest uncorrectable prefix (see _cutoffs), or
    mn + 1 when even the whole grid is correctable.  The ordering is
    drawn only as far as the trial reads it; the draws are pinned to
    the trial generator's getrandbits, so a seed gives the same
    orderings on every run.  The histogram maps that length to its
    trial count.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    m, n = model.grid_shape(shape)
    cuts = [cut or m * n + 1
            for cut in _cutoffs(model, m, n, seed, trials, m * n)]
    return _summary(cuts, seed, dict(Counter(cuts)))


def correction_probability(model: DecoderModel, num_erasures: int,
                           shape=None, trials: int = 100_000,
                           seed: int = 0) -> SimResult:
    """Fraction of uniformly random num_erasures-cell patterns the
    model corrects: the first num_erasures cells of each trial's
    ordering, corrected when no prefix of them fails (see _cutoffs)."""
    if trials < 1:
        raise ValueError("need at least one trial")
    m, n = model.grid_shape(shape)
    if not 0 <= num_erasures <= m * n:
        raise ValueError("num_erasures %d outside 0..%d"
                         % (num_erasures, m * n))
    cuts = _cutoffs(model, m, n, seed, trials, num_erasures)
    return _summary([0.0 if cut else 1.0 for cut in cuts], seed)


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
