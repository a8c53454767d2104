"""Array codes with nested row codes and per-row parity budgets.

A code instance is described by a profile: one parity count per row,
sorted non-decreasing, each at most the row length n.  Rows with budget
n carry no data at all.  An m x n array belongs to the code when every
row lies in the outermost row code and, for every depth i >= 1, the
alpha-weighted row combinations

    sum_j alpha**(r*j) * row_j,    r = 0 .. shat_i - 1,

land in the i-th nested row code, where shat_i counts the rows with
budget at least the i-th distinct level.  Erasure decoding isolates
each unresolved row in closed form: weighting row j by Q(alpha**j), where
Q(z) multiplies (z + alpha**i) over the other unresolved rows, cancels
them, and the row is corrected in the deepest code that weighted sum
belongs to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, repeat

from .gf import FieldContext
from .linalg import ParityMatrix
from .rs import RsCode, LengthExceedsOrder, build_rs, difference_weights

FULLY_CORRECTED = "FullyCorrected"
PARTIALLY_CORRECTED = "PartiallyCorrected"
FAILED = "Failed"


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

    def copy(self) -> "SymbolGrid":
        return SymbolGrid(self.cells, self.mask)

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
        return not any(map(any, self.mask))

    def transpose(self) -> "SymbolGrid":
        return SymbolGrid(zip(*self.cells), zip(*self.mask))

    def __eq__(self, other) -> bool:
        return (isinstance(other, SymbolGrid)
                and self.cells == other.cells and self.mask == other.mask)

    def __repr__(self) -> str:
        return "SymbolGrid(%dx%d, %d erased)" % (self.m, self.n,
                                                 self.erasure_count())


@dataclass(frozen=True)
class DecodeReport:
    grid: SymbolGrid
    status: str
    corrected_rows: frozenset
    residual: tuple
    passes: int

    @classmethod
    def of(cls, grid: SymbolGrid, corrected, passes: int) -> "DecodeReport":
        """FullyCorrected when nothing is left erased, else
        PartiallyCorrected when some pass made progress, else Failed."""
        residual = tuple(grid.erasure_coords())
        status = (FULLY_CORRECTED if not residual
                  else PARTIALLY_CORRECTED if passes else FAILED)
        return cls(grid, status, frozenset(corrected), residual, passes)


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
        self._parity_cells: list[tuple[int, int]] | None = None
        self._data_cells: list[tuple[int, int]] | None = None
        self._transposed: EiiCode | None = None  # see layout.transpose_code
        self._powers: dict[int, list[int]] = {}

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

    def _combination_weights(self, r: int) -> list[int]:
        """alpha**(r*j) for the rows j: the weights of combination r."""
        if r not in self._powers:
            self._powers[r] = [self.ctx.alpha_pow(r * j)
                               for j in range(self.m)]
        return self._powers[r]

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
        if not all(c0.contains(row) for row in grid.cells):
            return False
        ctx = self.ctx
        for i in range(1, self.profile.t + 1):
            code = self.row_code(i)
            for r in range(self.profile.suffix_at(i)):
                weights = self._combination_weights(r)
                if not code.contains(ctx.row_sum(weights, grid.cells)):
                    return False
        return True

    def isolated_combination(self, cells, target: int, pending) -> list[int]:
        """Known part of the combination that isolates row `target`.

        Among the first len(pending) + 1 combinations, exactly one cancels
        every row in `pending` and weighs `target` with 1: its weight on
        row j is Q(alpha**j) / Q(alpha**target), Q(z) = prod over pending
        of (z + alpha**i), and it lies in row_code(combo_level(len(pending))).
        Returns its sum over the rows outside pending and target, so the
        cells of those rows must be known; pending rows may hold anything.
        """
        ctx = self.ctx
        mul = ctx.mul
        locs = self._combination_weights(1)
        weights = []
        for x in locs:
            q = 1
            for i in pending:
                q = mul(q, x ^ locs[i])
            weights.append(q)
        scale = ctx.inv(weights[target])
        weights[target] = 0
        return ctx.row_sum([mul(scale, w) for w in weights], cells)

    def peel(self, grid: SymbolGrid, order, decode) -> tuple[list, int]:
        """Resolve the rows of `order` in place, last first; the rest are known.

        order[-1] is isolated against order[:-1] and decode(code, word,
        erased) -> codeword or None runs in the code at combo_level of
        len(order) - 1.  On failure the order rotates, last row to the
        front, until each row has had the slot.  Returns the rows left
        and the rotation count.
        """
        order, rotations = list(order), 0
        while order:
            code = self.row_code(self.profile.combo_level(len(order) - 1))
            for attempt in range(len(order)):
                row = order[-1]
                erased = grid.erased_in_row(row)
                # both decoders refuse more erasures than the code's budget
                if len(erased) <= code.u:
                    known = self.isolated_combination(grid.cells, row,
                                                      order[:-1])
                    word = [k ^ (0 if lost else v) for k, v, lost
                            in zip(known, grid.cells[row], grid.mask[row])]
                    dec = decode(code, word, erased)
                    if dec is not None:
                        grid.cells[row] = [d ^ k for d, k in zip(dec, known)]
                        grid.mask[row] = [False] * self.n
                        order.pop()
                        break
                if attempt < len(order) - 1:
                    order = [order[-1]] + order[:-1]
                    rotations += 1
            else:
                break
        return order, rotations

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
        dirty = [r for r in range(self.m) if any(g.mask[r])]
        left, _ = self.peel(g, self.decode_outer_rows(g, dirty,
                                                      RsCode.erasure_decode),
                            RsCode.erasure_decode)
        corrected = set(dirty).difference(left)
        # rows leave the mask whole: the pass made progress exactly when
        # it corrected a row
        return DecodeReport.of(g, corrected, 1 if corrected else 0)

    # -- encoding -------------------------------------------------------

    def parity_cells(self) -> list[tuple[int, int]]:
        if self._parity_cells is None:
            self._parity_cells = [(r, c) for r in range(self.m)
                                  for c in self.profile.tail_parity_cols(r)]
        return self._parity_cells

    def data_cells(self) -> list[tuple[int, int]]:
        if self._data_cells is None:
            parity = set(self.parity_cells())
            self._data_cells = [(r, c) for r in range(self.m)
                                for c in range(self.n) if (r, c) not in parity]
        return list(self._data_cells)

    def encode(self, data) -> SymbolGrid:
        """Fill the tail parity layout around the data symbols."""
        return self.encode_cells(data, self.data_cells(), self.parity_cells())

    def encode_cells(self, data, data_cells, parity_cells) -> SymbolGrid:
        """The codeword with `data` in data_cells, in order, and parity in
        parity_cells, given as (row, column) pairs.

        The parity cells must form a pattern decode_rows resolves, as
        the tail layout always does, so encoding is one decode_rows of
        the data grid with the parity cells erased.
        """
        data = list(data)
        if len(data) != len(data_cells):
            raise WrongDataLength("want %d data symbols, got %d"
                                  % (len(data_cells), len(data)))
        size = self.ctx.size
        if not (all(map(isinstance, data, repeat(int)))
                and min(data, default=0) >= 0 and max(data, default=0) < size):
            for v in data:
                self.ctx.check(v)  # raises on the first bad symbol
        grid = SymbolGrid.zeros(self.m, self.n)
        for (r, c), v in zip(data_cells, data):
            grid.cells[r][c] = v
        for r, c in parity_cells:
            grid.erase(r, c)
        report = self.decode_rows(grid)
        if report.status != FULLY_CORRECTED:
            raise AssertionError("parity cells failed to decode")
        return report.grid

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
        for i in range(1, self.profile.t + 1):
            for r in range(self.profile.suffix_at(i)):
                weights = self._combination_weights(r)
                for h in self.row_code(i).parity_check().rows:
                    rows.append([ctx.mul(w, v) for w in weights for v in h])
        return ParityMatrix(ctx, rows)


def build_eii(context: FieldContext, n: int, entries) -> EiiCode:
    """Convenience constructor mirroring build_rs: profile entries plus row length."""
    return EiiCode(Profile(entries, n), context)

