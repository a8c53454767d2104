"""Combined error and erasure decoding for the array codes.

Erasure positions are flagged by the mask; any unmasked cell may
additionally be wrong.  The row pipeline is EiiCode's, run with the RS
error-erasure decoder: decode_outer_rows tries each row in the outermost
row code, which fixes i errors plus j erasures when 2i + j fits inside
the row budget, and the rows that resist go to peel, which isolates them
one at a time, decodes each in the deepest nested code its size permits
and rotates the order on failure.

A decode past its budget can return a wrong word, so every cyclic start
of the order gives a candidate, and of those that pass the membership
check the one changing the fewest known cells wins.  The check needs
only the combinations (EiiCode.sums_hold): every row of a complete
candidate already lies in the outermost row code, as the row stage's
decode or as a nested codeword plus a combination of such rows.  The
combination sums are built once from the row stage's output; each
start's peel reads and updates its own copy, and its check reads that.
Two candidates differ by a codeword on the peeled rows, so one that
changes t known cells there, with 2t plus the erasures there below
Profile.rows_distance, is the nearest and ends the search (the bound of
Forney's generalized minimum distance decoding).  With no candidate the
transposed grid is decoded once under the column code.  The row stage
is still trusted, and a row it fills with no check to spare may be wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

from .eii import EiiCode, SymbolGrid
from .layout import transpose_code

CORRECTED = "Corrected"
FAILED_ROWS = "FailedRows"
FAILED_BOTH = "FailedBoth"

ROW_PASS = "row-code"
COMBINED = "combined"
UNRESOLVED = "failed"


@dataclass(frozen=True)
class ErrorDecodeReport:
    """Outcome of combined error-erasure decoding.

    row_outcomes tags each row with how the row stage resolved it:
    "row-code" for a plain per-row decode, "combined" for recovery via
    an isolated combination, "failed" when the row stage left it dirty
    (a successful fallback still fixes such rows in the grid).
    rotations counts the start offset and reordering retries of the peel
    that gave the grid (else the first peel's, plus the transposed
    stage's); fallback_used reports whether the transposed stage ran.
    """

    grid: SymbolGrid
    status: str
    row_outcomes: tuple
    rotations: int
    fallback_used: bool


def decode_errors_erasures(code: EiiCode, grid: SymbolGrid,
                           allow_fallback: bool = True) -> ErrorDecodeReport:
    """Correct errors plus masked erasures; see the module docstring."""
    code.check_shape(grid)
    prof = code.profile
    work = grid.copy()
    order = code.decode_outer_rows(work, range(prof.m), _decode)
    outcomes = [ROW_PASS] * prof.m
    k = len(order)
    first, left, rotations, best = work, order, 0, None
    if k <= prof.suffix_at(1):
        spare = prof.rows_distance(k) - sum(len(work.erased_in_row(r))
                                            for r in order)
        sums = code.combination_sums(work.cells)
        # with no row left, the row stage's output is the one candidate
        for start in range(max(k, 1)):
            cand, cand_sums = work.copy(), [list(s) for s in sums]
            rest, turns = code.peel(cand, order[k - start:] + order[:k - start],
                                    _decode, cand_sums)
            if start == 0:
                first, left, rotations = cand, rest, turns
            changed = sum(v != w for r in order for v, w, lost
                          in zip(cand.cells[r], work.cells[r], work.mask[r])
                          if not lost)
            # the rows are outer row codewords (module docstring)
            if (rest or best and changed >= best[0]
                    or not code.sums_hold(cand_sums)):
                continue
            best = (changed, cand, start + turns)
            if changed == 0 or 2 * changed < spare:
                break
    for r in order:
        outcomes[r] = (COMBINED if best is not None or r not in left
                       else UNRESOLVED)

    if best is not None:
        return ErrorDecodeReport(best[1], CORRECTED, tuple(outcomes),
                                 best[2], False)

    if not allow_fallback:
        return ErrorDecodeReport(first, FAILED_ROWS, tuple(outcomes),
                                 rotations, False)

    inner = decode_errors_erasures(transpose_code(code), first.transpose(),
                                   allow_fallback=False)
    status = CORRECTED if inner.status == CORRECTED else FAILED_BOTH
    return ErrorDecodeReport(inner.grid.transpose(), status, tuple(outcomes),
                             rotations + inner.rotations, True)


def _decode(code, word, erased):
    """Codeword from the error-erasure decoder, or None."""
    dec = code.error_erasure_decode(word, erased)
    return dec and dec[0]
