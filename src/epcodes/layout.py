"""Row-column duality: transposed codes, iterative decoding, parity placement.

The transpose of every array in a code with profile u is an array in a
code over the same field whose profile u' is computable directly from u:
entry j of u' counts the rows whose parity budget exceeds n - 1 - j.
That duality buys two things.  First, a grid that row decoding alone
cannot finish may still be recovered by alternating row and column
passes.  Second, the parity cells do not have to sit at the end of each
row: any pattern one column pass clears, with every column filled in a
code whose budget it exactly uses, is a legal home for them, and a
nearly uniform pattern always exists.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .eii import DecodeReport, EiiCode, Profile, SymbolGrid, _gather, _places

TAIL = "tail"
BALANCED = "balanced"


def transpose_profile(profile: Profile) -> Profile:
    """Profile of the column code acting on transposed arrays.

    Entry j of the result counts the rows of the original code whose
    parity budget is large enough to constrain column n - 1 - j.  The
    map is an involution and preserves the total parity count.  Zero
    entries (columns with no constraint at all) are legal.
    """
    entries = profile.entries
    n = profile.n
    out = [sum(1 for e in entries if e > n - 1 - j) for j in range(n)]
    return Profile(out, profile.m)


def transpose_grid(grid: SymbolGrid) -> SymbolGrid:
    return grid.transpose()


def transpose_code(code: EiiCode) -> EiiCode:
    """The column code of `code`, built on the first call and kept on it."""
    if code._transposed is None:
        code._transposed = EiiCode(transpose_profile(code.profile), code.ctx)
    return code._transposed


def iterative_decode(code: EiiCode, grid: SymbolGrid) -> DecodeReport:
    """Alternate row and column erasure decoding until nothing moves.

    A pass is one directional decode: EiiCode.decode_rows of the code
    itself, or of the transposed code on the transposed grid, whose
    result is transposed back.  Rows always go first.  The loop stops
    when the grid is clean or at the first pass after the first that
    corrects no line.  That pass changed nothing, so the next one would
    repeat the pass before it on what that pass left, and it would fail
    again on the same lines: their words are unchanged, and the peel
    again tries each against the others with the same combination sums
    and the same isolation coefficients, since Q(z) does not depend on
    the order of the pending lines.  Only the final report reaches the
    caller, and it counts only the passes that removed an erasure.
    """
    code.check_shape(grid)
    work = grid
    dirty = grid._dirty_rows()
    passes = attempts = 0
    while not work.is_clean():
        if attempts % 2:
            rep = transpose_code(code)._decode_rows(work.transpose())
            work = rep.grid.transpose()
        else:
            # only the first pass reads the caller's grid; later passes
            # correct the grid an earlier pass handed back
            rep = (code.decode_rows(work) if work is grid
                   else code._decode_rows(work))
            work = rep.grid
        attempts += 1
        passes += rep.passes
        if attempts > 1 and not rep.passes:
            break
    if work is grid:
        work = grid.copy()  # no pass ran; the report owns its grid
    return DecodeReport.of(work, [r for r in dirty if not any(work.mask[r])],
                           passes)


@dataclass(frozen=True)
class ParityLayout:
    """A designated set of parity cells inside an m x n grid."""

    m: int
    n: int
    positions: frozenset = field(default_factory=frozenset)
    style: str = TAIL

    def row_counts(self) -> list[int]:
        counts = [0] * self.m
        for r, _ in self.positions:
            counts[r] += 1
        return counts

    def is_balanced(self) -> bool:
        """True when the per-row counts differ by at most one, with the
        heavier rows exactly as many as the division remainder demands."""
        total = len(self.positions)
        q, r = divmod(total, self.m)
        counts = sorted(self.row_counts())
        return counts == [q] * (self.m - r) + [q + 1] * r

    def coord_list(self) -> list[list[int]]:
        return [[r, c] for r, c in sorted(self.positions)]


def tail_layout(profile: Profile) -> ParityLayout:
    """Parity cells at the end of each row, budget entries in row order."""
    pos = set()
    for r in range(profile.m):
        for c in profile.tail_parity_cols(r):
            pos.add((r, c))
    return ParityLayout(profile.m, profile.n, frozenset(pos), TAIL)


def balanced_layout(profile: Profile) -> ParityLayout:
    """Spread the parity cells so per-row counts differ by at most one.

    The nonzero column budgets of the transposed profile, taken in
    non-increasing order, are assigned to columns 0, 1, ... in turn;
    each column's cells start where the previous column stopped,
    wrapping modulo m.  Sorted column loads then match the transposed
    profile exactly, so the column code clears the whole pattern in a
    single pass, which is what makes these cells usable as parities.
    """
    tprof = transpose_profile(profile)
    loads = sorted((e for e in tprof.entries if e), reverse=True)
    m = profile.m
    pos = set()
    start = 0
    for j, v in enumerate(loads):
        for k in range(v):
            pos.add(((start + k) % m, j))
        start = (start + v) % m
    return ParityLayout(m, profile.n, frozenset(pos), BALANCED)


@functools.lru_cache(maxsize=16)
def _balanced_fill(profile: Profile) -> tuple:
    """The column code's parity mask for balanced_layout, n x m, and the
    gather that puts the data, which runs row-major over the grid, in
    the column code's cells (see eii._places and eii._gather)."""
    parity = balanced_layout(profile).positions
    mask = [[(r, c) in parity for c in range(profile.n)]
            for r in range(profile.m)]
    return tuple(zip(*mask)), _gather(zip(*_places(mask)))


def encode_balanced(code: EiiCode, data) -> SymbolGrid:
    """Systematic encoding with the balanced parity placement.

    Data symbols fill the non-parity cells in row-major order, gathered
    straight into the column code's rows.  The parity cells are filled by
    the column code's schedule for them (EiiCode.encode_around), the
    steps of one column pass, which the construction guarantees clears
    them, so the result is a codeword.
    """
    mask, gather = _balanced_fill(code.profile)
    cols = transpose_code(code)._fill_around(data, mask, gather)
    return SymbolGrid._of(list(map(list, zip(*cols))),
                          [[False] * code.n for _ in range(code.m)])
