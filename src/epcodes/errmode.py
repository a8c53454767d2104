"""Combined error and erasure decoding for the array codes.

Erasure positions are flagged by the mask; any unmasked cell may
additionally be wrong.  Each row is first tried on its own in the
outermost row code, which fixes i errors plus j erasures whenever
2i + j fits inside the row budget.  Rows that resist are peeled off
one at a time: EiiCode.isolated_combination weights the rows so that
every other unresolved row cancels and the last one stands alone
against fully known rows, and that single combination is decoded in
the deepest nested code its size permits.  When the isolated row
carries too much damage, the ordering is rotated (last row to the
front) and the next row isolated instead, so every unresolved row gets
a turn in the isolated slot before the level gives up.  A failed row
stage is retried once on the transposed grid under the column code.

Miscorrection is assumed absent: a component decode that returns a
word is trusted.  A final membership check guards the Corrected status
anyway.
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
    rotations counts the reordering retries across all levels and both
    stages; fallback_used reports whether the transposed stage ran.
    """

    grid: SymbolGrid
    status: str
    row_outcomes: tuple
    rotations: int
    fallback_used: bool


def decode_errors_erasures(code: EiiCode, grid: SymbolGrid,
                           allow_fallback: bool = True) -> ErrorDecodeReport:
    """Correct errors plus masked erasures; see the module docstring."""
    prof = code.profile
    work = grid.copy()
    outcomes = [UNRESOLVED] * prof.m
    failed = []
    row0 = code.row_code(0)
    for r in range(prof.m):
        erased = work.erased_in_row(r)
        word = [0 if work.mask[r][c] else work.cells[r][c]
                for c in range(prof.n)]
        dec = row0.error_erasure_decode(word, erased)
        if dec is None:
            failed.append(r)
            continue
        _write_row(work, r, dec[0])
        outcomes[r] = ROW_PASS

    rotations = 0
    ok = True
    if failed:
        if len(failed) > prof.suffix_at(1):
            ok = False
        else:
            order = sorted(failed,
                           key=lambda r: (-len(work.erased_in_row(r)), r))
            ok, rotations = _peel(code, work, order, outcomes)

    if ok and work.is_clean() and code.is_codeword(work):
        return ErrorDecodeReport(work, CORRECTED, tuple(outcomes),
                                 rotations, False)

    if not allow_fallback:
        return ErrorDecodeReport(work, FAILED_ROWS, tuple(outcomes),
                                 rotations, False)

    inner = decode_errors_erasures(transpose_code(code), work.transpose(),
                                   allow_fallback=False)
    status = CORRECTED if inner.status == CORRECTED else FAILED_BOTH
    return ErrorDecodeReport(inner.grid.transpose(), status, tuple(outcomes),
                             rotations + inner.rotations, True)


def _write_row(work: SymbolGrid, r: int, values) -> None:
    work.cells[r] = list(values)
    for c in range(len(work.mask[r])):
        work.mask[r][c] = False


def _peel(code: EiiCode, work: SymbolGrid, order: list, outcomes: list):
    """Resolve the ordered unresolved rows last-first, rotating on failure.

    Returns (success, rotation count).  Corrections are written into
    work as they happen, so a partial run still improves the grid.
    """
    prof = code.profile
    rotations = 0
    order = list(order)
    while order:
        level = prof.combo_level(len(order) - 1)
        decoder = code.row_code(level)
        resolved = False
        for attempt in range(len(order)):
            target = order[-1]
            known = code.isolated_combination(work.cells, target, order[:-1])
            erased = work.erased_in_row(target)
            word = [known[c] ^ (0 if work.mask[target][c]
                                else work.cells[target][c])
                    for c in range(prof.n)]
            dec = decoder.error_erasure_decode(word, erased)
            if dec is not None:
                _write_row(work, target,
                           [v ^ k for v, k in zip(dec[0], known)])
                outcomes[target] = COMBINED
                order.pop()
                resolved = True
                break
            if attempt < len(order) - 1:
                order = [order[-1]] + order[:-1]
                rotations += 1
        if not resolved:
            return False, rotations
    return True, rotations

