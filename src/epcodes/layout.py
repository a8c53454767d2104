"""Row-column duality: transposed codes, iterative decoding, parity placement.

The transpose of every array in a code with profile u is an array in a
code over the same field whose profile u' is computable directly from u:
entry j of u' counts the rows whose parity budget exceeds n - 1 - j.
That duality buys two things.  First, a grid that row decoding alone
cannot finish may still be recovered by alternating row and column
passes.  Second, the parity cells do not have to sit at the end of each
row: any erasure pattern the column code can clear is a legal home for
them, and a nearly uniform pattern always exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .eii import (
    DecodeReport,
    EiiCode,
    FAILED,
    FULLY_CORRECTED,
    PARTIALLY_CORRECTED,
    Profile,
    SymbolGrid,
    WrongDataLength,
)

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


def iterative_decode(code: EiiCode, grid: SymbolGrid, max_passes: int = 0) -> DecodeReport:
    """Alternate row and column erasure decoding until nothing moves.

    A pass is one directional decode: rows under the code itself, or
    columns under the transposed code.  Rows always go first.  The loop
    stops when the grid is clean, when a full row-plus-column cycle
    removes no erasure, or when max_passes directional attempts have
    been spent (0 means no cap).  The report counts only the passes
    that removed at least one erasure.
    """
    work = grid.copy()
    started_dirty = {r for r, _ in work.erasure_coords()}
    tcode = transpose_code(code)

    passes = 0
    attempts = 0
    stalled = 0
    row_turn = True
    while not work.is_clean():
        if max_passes and attempts >= max_passes:
            break
        before = work.erasure_count()
        if row_turn:
            work = code.decode_rows(work).grid
        else:
            work = tcode.decode_rows(work.transpose()).grid.transpose()
        attempts += 1
        if work.erasure_count() < before:
            passes += 1
            stalled = 0
        else:
            stalled += 1
            if stalled >= 2:
                break
        row_turn = not row_turn

    residual = tuple(work.erasure_coords())
    cleaned = frozenset(r for r in started_dirty if not work.erased_in_row(r))
    if not residual:
        status = FULLY_CORRECTED
    elif passes:
        status = PARTIALLY_CORRECTED
    else:
        status = FAILED
    return DecodeReport(grid=work, status=status, corrected_rows=cleaned,
                        residual=residual, passes=passes)


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


def encode_balanced(code: EiiCode, data) -> SymbolGrid:
    """Systematic encoding with the balanced parity placement.

    Data symbols fill the non-parity cells in row-major order; the
    parity cells are treated as erasures and resolved by one column
    pass of the transposed code.  The construction guarantees that
    pass always succeeds and that the result is a codeword.
    """
    prof = code.profile
    if len(data) != prof.dimension():
        raise WrongDataLength(
            f"expected {prof.dimension()} data symbols, got {len(data)}")
    layout = balanced_layout(prof)
    grid = SymbolGrid.zeros(prof.m, prof.n)
    feed = iter(data)
    for r in range(prof.m):
        for c in range(prof.n):
            if (r, c) in layout.positions:
                grid.erase(r, c)
            else:
                grid.cells[r][c] = code.ctx.check(next(feed))
    report = transpose_code(code).decode_rows(grid.transpose())
    if report.status != FULLY_CORRECTED:
        raise AssertionError("balanced parity pattern failed to resolve")
    return report.grid.transpose()
