"""Array codes with nested row codes and per-row parity budgets.

A code instance is described by a profile: one parity count per row,
sorted non-decreasing, each at most the row length n.  Rows with budget
n carry no data at all.  An m x n array belongs to the code when every
row lies in the outermost row code and, for every depth i >= 1, the
alpha-weighted row combinations

    sum_j alpha**(r*j) * row_j,    r = 0 .. shat_i - 1,

land in the i-th nested row code, where shat_i counts the rows with
budget at least the i-th distinct level.  Those combinations S_r are the
decoders' shared state.  Erasure decoding isolates each unresolved row
in closed form: weighting row j by Q(alpha**j), where Q(z) multiplies
(z + alpha**i) over the other unresolved rows, cancels them, and the row
is corrected in the deepest code that weighted sum belongs to.  That sum
is sum_k c_k * S_k over the coefficients c_k of Q(z) / Q(alpha**row), so
the peel keeps the S_r, updated at the cells each resolved row changes,
and membership checks each S_r once.  Encoding replays those steps on
the parity cells, compiled once per parity mask: each fills exactly its
code's budget, so each is a fixed linear map of cells already known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress
from operator import itemgetter

from .gf import FieldContext
from .linalg import ParityMatrix
from .rs import (RsCode, LengthExceedsOrder, _peval, build_rs,
                 difference_weights, root_product)

FULLY_CORRECTED = "FullyCorrected"
PARTIALLY_CORRECTED = "PartiallyCorrected"
FAILED = "Failed"

# isolation coefficient lists one code keeps; cleared when full
_ISOLATION_CACHE_CAP = 256

# the symbol types _fill_around accepts without a per-symbol check
_INTS = frozenset((int, bool))


class ProfileError(ValueError):
    pass


class NotSorted(ProfileError):
    pass


class EntryExceedsN(ProfileError):
    pass


class HasErasures(ValueError):
    pass


class WrongDataLength(ValueError):
    pass


class Profile:
    """Non-decreasing per-row parity budgets for rows of length n.

    Derived structure: the distinct budget values below n are the levels
    u_0 < ... < u_{t-1}; level t is n itself whether or not any row sits
    there.  mults[i] counts rows at level i, suffix[i] counts rows at
    level i or deeper (suffix[0] = m).
    """

    def __init__(self, entries, n: int):
        entries = tuple(int(e) for e in entries)
        if not entries:
            raise ProfileError("profile needs at least one row")
        if n < 1:
            raise ProfileError("row length must be positive")
        for a, b in zip(entries, entries[1:]):
            if b < a:
                raise NotSorted("entries must be non-decreasing: %r" % (entries,))
        if entries[0] < 0:
            raise ProfileError("entries must be non-negative")
        if entries[-1] > n:
            raise EntryExceedsN("entry %d exceeds row length %d"
                                % (entries[-1], n))
        self.entries = entries
        self.n = n
        self.m = len(entries)

        below = sorted(set(e for e in entries if e < n))
        self.t = len(below)
        self.levels = tuple(below) + (n,)
        self.mults = tuple(sum(1 for e in entries if e == lv)
                           for lv in self.levels)
        suffix = []
        acc = 0
        for s in reversed(self.mults):
            acc += s
            suffix.append(acc)
        self.suffix = tuple(reversed(suffix))

    def suffix_at(self, i: int) -> int:
        return self.suffix[i] if i <= self.t else 0

    def combo_level(self, r: int) -> int:
        """Deepest level w whose combination budget covers index r."""
        w = self.t
        while r >= self.suffix_at(w):
            w -= 1
        return w

    @property
    def parity_count(self) -> int:
        return sum(self.entries)

    def dimension(self) -> int:
        return self.m * self.n - self.parity_count

    def min_distance(self) -> int:
        if self.t == 0:
            raise ProfileError("all-parity profile has no nonzero words")
        return self.rows_distance(self.m)

    def rows_distance(self, k: int) -> float:
        """Least weight of a nonzero codeword on any k rows (inf if none).

        Such a word needs more rows than the combinations of some level
        i + 1; the lightest is then a min_weight_codeword at level i.
        """
        return min(((self.suffix_at(i + 1) + 1) * (self.levels[i] + 1)
                    for i in range(self.t) if self.suffix_at(i + 1) < k),
                   default=math.inf)

    def tail_parity_cols(self, row: int) -> range:
        """Columns holding parity in the given row under the tail layout."""
        return range(self.n - self.entries[row], self.n)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Profile)
                and self.entries == other.entries and self.n == other.n)

    def __hash__(self) -> int:
        return hash((self.entries, self.n))

    def __repr__(self) -> str:
        return "Profile(%r, n=%d)" % (list(self.entries), self.n)


def make_profile(entries, n: int) -> Profile:
    return Profile(entries, n)


class SymbolGrid:
    """m x n cells over a field plus a per-cell erasure mask."""

    def __init__(self, cells, mask=None):
        self.cells = [list(row) for row in cells]
        self.m = len(self.cells)
        self.n = len(self.cells[0]) if self.cells else 0
        for row in self.cells:
            if len(row) != self.n:
                raise ValueError("ragged grid")
        if mask is None:
            self.mask = [[False] * self.n for _ in range(self.m)]
        else:
            self.mask = [list(row) for row in mask]
            if len(self.mask) != self.m or any(len(r) != self.n for r in self.mask):
                raise ValueError("mask shape differs from cells")

    @classmethod
    def zeros(cls, m: int, n: int) -> "SymbolGrid":
        return cls([[0] * n for _ in range(m)])

    @classmethod
    def _of(cls, cells: list, mask: list) -> "SymbolGrid":
        """A grid on lists already of one shape, taken as they are."""
        grid = cls.__new__(cls)
        grid.cells, grid.mask = cells, mask
        grid.m, grid.n = len(cells), len(cells[0]) if cells else 0
        return grid

    def copy(self) -> "SymbolGrid":
        return SymbolGrid._of(list(map(list, self.cells)),
                              list(map(list, self.mask)))

    def erase(self, row: int, col: int) -> None:
        self.mask[row][col] = True

    def erased_in_row(self, row: int) -> list[int]:
        return list(compress(range(self.n), self.mask[row]))

    def erasure_count(self) -> int:
        return sum(row.count(True) for row in self.mask)

    def erasure_coords(self) -> list[tuple[int, int]]:
        cols = range(self.n)
        return [(r, c) for r, row in enumerate(self.mask) if any(row)
                for c in compress(cols, row)]

    def is_clean(self) -> bool:
        # a row equal to the all-False one is passed over at C speed,
        # element by element on identity; any other mask goes to any()
        return (self.mask.count([False] * self.n) == self.m
                or not any(map(any, self.mask)))

    def _dirty_rows(self) -> list[int]:
        """The rows holding an erasure, in order, passing over the clean
        ones as is_clean does."""
        clean = [False] * self.n
        return [r for r, row in enumerate(self.mask) if row != clean and any(row)]

    def transpose(self) -> "SymbolGrid":
        return SymbolGrid._of(list(map(list, zip(*self.cells))),
                              list(map(list, zip(*self.mask))))

    def __eq__(self, other) -> bool:
        return (isinstance(other, SymbolGrid)
                and self.cells == other.cells and self.mask == other.mask)

    def __repr__(self) -> str:
        return "SymbolGrid(%dx%d, %d erased)" % (self.m, self.n,
                                                 self.erasure_count())


@dataclass(frozen=True)
class DecodeReport:
    """A decode's grid, verdict, corrected rows and pass count.

    residual, the cells left erased in row-major order, is read off the
    grid when first asked for, since the status needs only whether the
    mask is clean."""

    grid: SymbolGrid
    status: str
    corrected_rows: frozenset
    passes: int

    @cached_property
    def residual(self) -> tuple:
        return tuple(self.grid.erasure_coords())

    @classmethod
    def of(cls, grid: SymbolGrid, corrected, passes: int) -> "DecodeReport":
        """FullyCorrected when nothing is left erased, else
        PartiallyCorrected when some pass made progress, else Failed."""
        status = (FULLY_CORRECTED if grid.is_clean()
                  else PARTIALLY_CORRECTED if passes else FAILED)
        return cls(grid, status, frozenset(corrected), passes)


def row_correctable(profile: Profile, counts) -> tuple[bool, set]:
    """Which rows decode_rows recovers for the given erasure counts.

    Counts are sorted ascending and matched against the profile entries
    position by position; the rows behind the first position where the
    count overshoots its budget stay uncorrected.  The sort is stable, so
    ties keep their row order and the outcome is deterministic.
    """
    counts = list(counts)
    if len(counts) != profile.m:
        raise ValueError("need one count per row")
    order = sorted(range(profile.m), key=counts.__getitem__)
    good = set()
    for pos, r in enumerate(order):
        if counts[r] > profile.entries[pos]:
            return False, good
        good.add(r)
    return True, good


class EiiCode:
    """The array code for one profile over one field context."""

    def __init__(self, profile: Profile, ctx: FieldContext):
        need = max(profile.m, profile.n)
        if not ctx.order_at_least(need):
            raise LengthExceedsOrder(
                "grid %dx%d needs order(alpha) >= %d in %r"
                % (profile.m, profile.n, need, ctx))
        self.profile = profile
        self.ctx = ctx
        self._row_codes: dict[int, RsCode] = {}
        self._tail_mask = tuple((False,) * (profile.n - e) + (True,) * e
                                for e in profile.entries)
        self._transposed: EiiCode | None = None  # see layout.transpose_code
        # per (target, pending), its isolation coefficients
        self._isolation: dict[tuple, list[int]] = {}
        # per parity mask, its compiled fill (see _schedule), and the
        # last mask asked for with its fill, found without hashing it
        self._schedules: dict[tuple, tuple] = {}
        self._last_schedule: tuple = (None, None)

    @property
    def m(self) -> int:
        return self.profile.m

    @property
    def n(self) -> int:
        return self.profile.n

    def row_code(self, level: int) -> RsCode:
        if level not in self._row_codes:
            self._row_codes[level] = build_rs(self.ctx, self.n,
                                              self.profile.levels[level])
        return self._row_codes[level]

    @cached_property
    def _combos(self) -> RsCode:
        """The length-m RS code across the rows: its check r holds the
        weights alpha**(r*j) of combination r, its locators the rows'."""
        return RsCode(self.ctx, self.m, self.m)

    def dimension(self) -> int:
        return self.profile.dimension()

    def min_distance(self) -> int:
        return self.profile.min_distance()

    # -- membership -----------------------------------------------------

    def check_shape(self, grid: SymbolGrid) -> None:
        if grid.m != self.m or grid.n != self.n:
            raise ValueError("grid shape %dx%d != code shape %dx%d"
                             % (grid.m, grid.n, self.m, self.n))

    def is_codeword(self, grid: SymbolGrid) -> bool:
        if not grid.is_clean():
            raise HasErasures("membership is defined on fully known grids")
        self.check_shape(grid)
        c0 = self.row_code(0)
        return (all(c0.contains(row) for row in grid.cells)
                and self.combinations_hold(grid.cells))

    def combinations_hold(self, cells) -> bool:
        """The half of is_codeword beyond the rows: every combination r
        of the rows lies in the nested code of its level.  Decides
        membership alone for rows already known to lie in the outermost
        row code."""
        return self.sums_hold(self.combination_sums(cells))

    def combination_sums(self, cells, count=None) -> list[list[int]]:
        """S_r = sum_j alpha**(r*j) * row_j for r < count <= m, by default
        Profile.suffix_at(1): every combination that membership checks.
        Each is one row_sum, S_0 too, whose weights 1 need no table."""
        if count is None:
            count = self.profile.suffix_at(1)
        packed = [None] * self.m
        return [self.ctx.row_sum(weights, cells, packed)
                for weights in self._combos.parity_check().rows[:count]]

    def sums_hold(self, sums) -> bool:
        """Whether each S_r of combination_sums lies in the row code of
        combo_level(r).  That code lies in the code of every shallower
        level i >= 1, the levels with r < suffix_at(i) whose membership
        condition names S_r, so one check per sum covers them all."""
        level = self.profile.combo_level
        return all(self.row_code(level(r)).contains(s)
                   for r, s in enumerate(sums))

    def isolated_combination(self, cells, target: int, pending) -> list[int]:
        """Known part of the combination that isolates row `target`.

        Among the first len(pending) + 1 combinations, exactly one cancels
        every row in `pending` and weighs `target` with 1: its weight on
        row j is Q(alpha**j) / Q(alpha**target), Q(z) = prod over pending
        of (z + alpha**i), and it lies in row_code(combo_level(len(pending))).
        Returns its sum over the rows outside pending and target, so the
        cells of those rows must be known; pending rows may hold anything.
        """
        return self.ctx.row_sum(self._isolation_weights(target, pending),
                                cells)

    def _isolation_weights(self, target: int, pending) -> list[int]:
        """The weights of isolated_combination: the isolation coefficients
        evaluated at alpha**j for each row j outside pending and target.
        Q vanishes on pending and target's weight is dropped, so those
        rows get 0."""
        coefs, ctx = self._isolation_coefficients(target, pending), self.ctx
        return [0 if j == target or j in pending else _peval(ctx, coefs, x)
                for j, x in enumerate(self._combos._loc)]

    def _isolation_coefficients(self, target: int, pending) -> list[int]:
        """c_0..c_len(pending), lowest first: Q(z) / Q(alpha**target).

        Combination k weighs row j with alpha**(k*j), so sum_k c_k * S_k
        weighs it with Q(alpha**j) / Q(alpha**target): 1 on target and 0
        on each pending row.  Kept per (target, pending), for up to
        _ISOLATION_CACHE_CAP keys.
        """
        key = (target, tuple(pending))
        coefs = self._isolation.get(key)
        if coefs is None:
            ctx, locs = self.ctx, self._combos._loc
            pend = [locs[i] for i in pending]
            # Q(alpha**target) is the product of its factors there
            scale = ctx.inv(reduce(ctx.mul, [locs[target] ^ x for x in pend], 1))
            coefs = [ctx.mul(scale, a) for a in root_product(ctx, pend)]
            if len(self._isolation) >= _ISOLATION_CACHE_CAP:
                self._isolation.clear()
            self._isolation[key] = coefs
        return coefs

    def _isolate(self, sums, target: int, pending) -> list[int]:
        """sum_k c_k * S_k over the isolation coefficients: row `target`
        plus the known part of its isolated combination, whatever the
        pending rows hold.  Up to degree 8 through row_sum, whose product
        tables stay cached; above it symbol by symbol, so that no
        coefficient, one per pattern, enters the split-table cache."""
        coefs = self._isolation_coefficients(target, pending)
        if len(coefs) == 1:
            return sums[0]  # Q = 1
        ctx = self.ctx
        if ctx.degree <= 8:
            return ctx.row_sum(coefs, sums)
        mul = ctx.mul
        out = [0] * self.n
        for c, row in zip(coefs, sums):
            for col, v in enumerate(row):
                if v:
                    out[col] ^= mul(c, v)
        return out

    def peel(self, grid: SymbolGrid, order, decode,
             sums=None) -> tuple[list, int]:
        """Resolve the rows of `order` in place, last first; the rest are known.

        order[-1] is isolated against order[:-1] and decode(code, word,
        erased) -> codeword or None runs in the code at combo_level of
        len(order) - 1.  On failure the order rotates, last row to the
        front, until each row has had the slot.  Returns the rows left
        and the rotation count.

        The isolations read the grid's combination sums S_0, S_1, ...
        (combination_sums), moved by each resolved row's change.
        sums, when given, must be the grid's, at least len(order) of
        them, and is kept up to date; otherwise peel builds its own on
        its first isolation.
        """
        order, rotations, own = list(order), 0, sums is None
        # a pending row's mask holds until the row is resolved
        erasures = {r: grid.erased_in_row(r) for r in order}
        while order:
            code = self.row_code(self.profile.combo_level(len(order) - 1))
            for attempt in range(len(order)):
                row = order[-1]
                erased = erasures[row]
                # both decoders refuse more erasures than the code's budget
                if len(erased) <= code.u:
                    if sums is None:
                        sums = self.combination_sums(grid.cells, len(order))
                    # the row, junk and all, plus the known part of its
                    # isolated combination; the junk comes off the word
                    combo = self._isolate(sums, row, order[:-1])
                    old = grid.cells[row]
                    word = [k ^ v if lost else k for k, v, lost
                            in zip(combo, old, grid.mask[row])]
                    dec = decode(code, word, erased)
                    if dec is not None:
                        grid.cells[row] = [d ^ k ^ v for d, k, v
                                           in zip(dec, combo, old)]
                        grid.mask[row] = [False] * self.n
                        order.pop()
                        if own:
                            del sums[len(order):]  # only these are read
                        if sums:
                            # the row changed by dec + combo
                            self._add_to_sums(sums, row, dec, combo)
                        break
                if attempt < len(order) - 1:
                    order = [order[-1]] + order[:-1]
                    rotations += 1
            else:
                break
        return order, rotations

    def _add_to_sums(self, sums, row: int, new, old) -> None:
        """Move each S_r by its weight on `row` times the row's change
        from old to new: by XOR under weight 1, else at the changed
        cells only."""
        mul, changes = self.ctx.mul, None
        checks = self._combos.parity_check().rows
        for r, s in enumerate(sums):
            w = checks[r][row]
            if w == 1:
                sums[r] = [x ^ a ^ b for x, a, b in zip(s, new, old)]
                continue
            if changes is None:
                changes = [(c, a ^ b) for c, (a, b)
                           in enumerate(zip(new, old)) if a != b]
            for c, d in changes:
                s[c] ^= mul(w, d)

    def decode_outer_rows(self, grid: SymbolGrid, rows, decode) -> list[int]:
        """Decode each listed row in place in the outermost row code.

        decode(code, word, erased) -> codeword or None, as for peel, is
        not tried on a row with more erasures than the code's budget.
        Returns the rows left, most erased first and then by index: the
        order peel takes them in.
        """
        code = self.row_code(0)
        left = []
        for r in rows:
            erased = grid.erased_in_row(r)
            dec = (decode(code, grid.cells[r], erased)
                   if len(erased) <= code.u else None)
            if dec is None:
                left.append((-len(erased), r))
            else:
                grid.cells[r], grid.mask[r] = dec, [False] * self.n
        return [r for _, r in sorted(left)]

    # -- erasure decoding -----------------------------------------------

    def decode_rows(self, grid: SymbolGrid) -> DecodeReport:
        """One pass of per-row correction plus isolated combinations.

        Rows within the outermost budget are corrected directly.  The
        rest go to peel most-erased first, so they are recovered
        least-erased first until one overshoots the budget of its code;
        every row ahead of it carries as many erasures, so no rotation
        helps, and by the sorted matching of row_correctable that is
        exactly where correction stops.
        """
        self.check_shape(grid)
        g = grid.copy()
        dirty = g._dirty_rows()
        left, _ = self.peel(g, self.decode_outer_rows(g, dirty,
                                                      RsCode.erasure_decode),
                            RsCode.erasure_decode)
        corrected = set(dirty).difference(left)
        # rows leave the mask whole: the pass made progress exactly when
        # it corrected a row
        return DecodeReport.of(g, corrected, 1 if corrected else 0)

    # -- encoding -------------------------------------------------------

    def parity_cells(self) -> list[tuple[int, int]]:
        return [(r, c) for r in range(self.m)
                for c in self.profile.tail_parity_cols(r)]

    def data_cells(self) -> list[tuple[int, int]]:
        return [(r, c) for r, e in enumerate(self.profile.entries)
                for c in range(self.n - e)]

    def encode(self, data) -> SymbolGrid:
        """Fill the tail parity layout around the data symbols."""
        return self.encode_around(data, self._tail_mask)

    def encode_around(self, data, parity) -> SymbolGrid:
        """The codeword with `data`, in row-major order, in the cells where
        the m x n mask `parity`, a tuple of row tuples, is false.

        The parity cells are filled by the mask's schedule (_schedule),
        compiled on the first call with the mask: the steps one
        decode_rows would take on the grid erased there, each a fixed
        linear map of known cells.  The tail layout has one; the
        balanced layout has one for the column code (see
        layout.encode_balanced).  A mask with no schedule raises
        AssertionError.
        """
        cells = self._fill_around(data, parity)
        return SymbolGrid._of(cells, [[False] * self.n for _ in range(self.m)])

    def _fill_around(self, data, parity, gather=None) -> list[list[int]]:
        """The cells of encode_around.  gather, from _gather, places the
        data in place of the row-major order."""
        want, row_major, steps = self._schedule(parity)
        data = [*data, 0]  # a parity cell's place is one past the data
        if len(data) != want + 1:
            raise WrongDataLength("want %d data symbols, got %d"
                                  % (want, len(data) - 1))
        if not _plain_symbols(data, self.ctx.size):
            for v in data:
                self.ctx.check(v)  # raises on the first bad symbol
        flat, n = (gather or row_major)(data), self.n
        cells = [list(flat[i:i + n]) for i in range(0, self.m * n, n)]
        packed = [None] * self.m  # a row's bytes for row_sum, once final
        for r, weights, code, erased in steps:
            if weights is None:
                cells[r] = code.fill(cells[r], erased)
                continue
            # as in peel: fill the row plus the known part of its
            # isolated combination, then take the known part off
            known = self.ctx.row_sum(weights, cells, packed)
            word = [k ^ v for k, v in zip(known, cells[r])]
            cells[r] = [d ^ k for d, k in zip(code.fill(word, erased), known)]
        return cells

    def _schedule(self, parity) -> tuple:
        """(data count, row-major gather, steps) for a parity mask.

        The gather (_gather) picks each cell's datum from the data with
        one zero appended, the place of every parity cell.

        The steps are those decode_rows takes on a grid erased on the
        mask, found from the rows' erasure counts alone: decode_outer_rows
        fills each row within the outermost budget, then peel isolates
        the rest, least erased first.  A step (row, weights, code, erased)
        fills the row in code after isolating it against the rows still
        pending with the weights of isolated_combination (None in the
        outer stage).  Each must fill exactly its code's budget, to be
        the fixed linear map RsCode.fill whatever the data.
        Peel's rotations cannot help: its order is sorted most erased
        first, so only rows with as many erasures could rotate in.
        Nothing is built for a fill until it meets a nonzero word.
        Compiled once per mask; the last mask is found again by identity,
        without hashing its m x n cells.
        """
        last, got = self._last_schedule
        if last is not parity:
            got = self._schedules.get(parity)
            if got is None:
                got = self._schedules[parity] = self._compile(parity)
            self._last_schedule = (parity, got)
        return got

    def _compile(self, parity) -> tuple:
        """_schedule's result for a mask it has not met."""
        prof = self.profile
        erased = [tuple(compress(range(self.n), row)) for row in parity]
        plan, left = [], []
        for r, e in enumerate(erased):
            if len(e) > prof.levels[0]:
                left.append((-len(e), r))
            elif e:
                plan.append((r, None, 0))
        order = [r for _, r in sorted(left)]
        while order:
            r = order.pop()
            plan.append((r, tuple(order), prof.combo_level(len(order))))
        if any(len(erased[r]) != prof.levels[i] for r, _, i in plan):
            raise AssertionError("parity cells failed to decode")
        weights = self._isolation_weights
        return (sum(row.count(False) for row in parity),
                _gather(_places(parity)),
                [(r, None if pending is None else weights(r, pending),
                  self.row_code(i), erased[r]) for r, pending, i in plan])

    # -- smallest-support codewords -------------------------------------

    def min_weight_codeword(self, level: int, rows, cols) -> SymbolGrid:
        """Codeword supported exactly on rows x cols.

        The column part is a word of the level-th row code alive on
        len(cols) = levels[level]+1 positions; the row part solves the
        companion coefficient system on len(rows) = suffix[level+1]+1
        rows.  Both come out of the same closed form: the coefficient at
        position s is the inverse of the product of the differences of
        the position locators.
        """
        prof = self.profile
        if not 0 <= level <= prof.t - 1:
            raise ValueError("level %d outside 0..%d" % (level, prof.t - 1))
        rows = sorted(set(rows))
        cols = sorted(set(cols))
        if len(rows) != prof.suffix_at(level + 1) + 1:
            raise ValueError("want %d rows" % (prof.suffix_at(level + 1) + 1))
        if len(cols) != prof.levels[level] + 1:
            raise ValueError("want %d columns" % (prof.levels[level] + 1))
        if rows[0] < 0 or rows[-1] >= self.m:
            raise ValueError("row index out of range")
        if cols[0] < 0 or cols[-1] >= self.n:
            raise ValueError("column index out of range")

        ctx = self.ctx
        col_word = difference_weights(ctx, [ctx.alpha_pow(c) for c in cols])
        row_coef = difference_weights(ctx, [ctx.alpha_pow(r) for r in rows])
        grid = SymbolGrid.zeros(self.m, self.n)
        for r, vr in zip(rows, row_coef):
            for c, vc in zip(cols, col_word):
                grid.cells[r][c] = ctx.mul(vr, vc)
        return grid

    # -- oracle support -------------------------------------------------

    def assembled_parity_matrix(self) -> ParityMatrix:
        """All membership constraints as one matrix over the mn cells.

        Cell (j, c) maps to column j*n + c.  Redundant rows are kept;
        rank equals mn minus the dimension.
        """
        ctx = self.ctx
        m, n = self.m, self.n
        rows = []
        for j in range(m):
            for h in self.row_code(0).parity_check().rows:
                vec = [0] * (m * n)
                vec[j * n:(j + 1) * n] = h
                rows.append(vec)
        # alpha**(r*j + rp*c) = alpha**(r*j) * alpha**(rp*c): row code i's
        # check rp, weighted per row j as in combination r
        combos = self._combos.parity_check().rows
        for i in range(1, self.profile.t + 1):
            for weights in combos[:self.profile.suffix_at(i)]:
                for h in self.row_code(i).parity_check().rows:
                    rows.append([ctx.mul(w, v) for w in weights for v in h])
        return ParityMatrix(ctx, rows)


def _places(parity) -> list[list[int]]:
    """Per cell of a parity mask, its index in data placed row-major in
    the cells off the mask; a parity cell's is one past the data."""
    want = sum(row.count(False) for row in parity)
    index = iter(range(want))
    return [[want if p else next(index) for p in row] for row in parity]


def _plain_symbols(data, size: int) -> bool:
    """Whether data holds only exact ints and bools in range(size), in
    two reads when a symbol fills a byte and three otherwise.  The rest
    is for ctx.check, which also takes other int subclasses."""
    if not set(map(type, data)) <= _INTS:
        return False
    if size != 256:
        return min(data) >= 0 and max(data) < size
    try:
        bytes(data)  # raises outside range(256)
    except ValueError:
        return False
    return True


def _gather(places):
    """One itemgetter that picks, row after row, the data index of every
    cell in places, then the first once more, so that even one cell
    comes back in a tuple; the extra pick is never read."""
    flat = [p for row in places for p in row]
    return itemgetter(*flat, flat[0])


def build_eii(context: FieldContext, n: int, entries) -> EiiCode:
    """Convenience constructor mirroring build_rs: profile entries plus row length."""
    return EiiCode(Profile(entries, n), context)

