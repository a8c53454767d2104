"""Combined error and erasure decoding on whole grids."""

from __future__ import annotations

import random

from epcodes.eii import build_eii
from epcodes.errmode import (
    COMBINED,
    CORRECTED,
    FAILED_BOTH,
    FAILED_ROWS,
    ROW_PASS,
    UNRESOLVED,
    decode_errors_erasures,
)
from epcodes.gf import default_field

GF8 = default_field(3)


def encoded(code, seed):
    rng = random.Random(seed)
    data = [rng.randrange(code.ctx.size) for _ in range(code.dimension())]
    return code.encode(data)


def test_clean_grid_comes_back_corrected():
    code = build_eii(GF8, 7, (1, 1, 3, 4, 7, 7))
    grid = encoded(code, 50)
    report = decode_errors_erasures(code, grid)
    assert report.status == CORRECTED
    assert report.grid == grid
    assert report.rotations == 0
    assert not report.fallback_used
    assert all(tag == ROW_PASS for tag in report.row_outcomes)


def test_single_error_beyond_lightest_row_code_goes_combined():
    # every row is first tried in the lightest row code (budget 1 here),
    # which corrects no errors at all; the combination stage, working
    # with the deepest subcode, picks the row up
    code = build_eii(GF8, 7, (1, 1, 3, 4, 7, 7))
    reference = encoded(code, 51)
    grid = reference.copy()
    grid.cells[2][4] ^= 5
    report = decode_errors_erasures(code, grid)
    assert report.status == CORRECTED
    assert report.grid == reference
    assert report.row_outcomes[2] == COMBINED
    assert grid.cells[2][4] != reference.cells[2][4]  # input untouched


def test_single_error_within_lightest_row_code_stays_row_pass():
    code = build_eii(GF8, 7, (3, 3, 4, 7))
    reference = encoded(code, 58)
    grid = reference.copy()
    grid.cells[1][6] ^= 2  # 2 errors' worth of budget available per row
    report = decode_errors_erasures(code, grid)
    assert report.status == CORRECTED
    assert report.grid == reference
    assert report.row_outcomes == (ROW_PASS,) * 4


def test_erasures_and_errors_mixed_within_the_common_row_budget():
    code = build_eii(GF8, 7, (3, 3, 4, 7))
    rng = random.Random(52)
    for _ in range(40):
        reference = encoded(code, rng.randrange(10 ** 9))
        grid = reference.copy()
        for r in range(4):
            e = rng.randrange(3)
            i = rng.randrange((3 - e) // 2 + 1)
            spots = rng.sample(range(7), e + i)
            for c in spots[:e]:
                grid.erase(r, c)
            for c in spots[e:]:
                grid.cells[r][c] ^= rng.randrange(1, 8)
        report = decode_errors_erasures(code, grid)
        assert report.status == CORRECTED
        assert report.grid == reference


def test_two_damaged_rows_peeled_through_deep_subcodes():
    code = build_eii(GF8, 7, (1, 1, 3, 4, 7, 7))
    reference = encoded(code, 59)
    grid = reference.copy()
    grid.cells[0][3] ^= 2
    grid.cells[1][6] ^= 5
    report = decode_errors_erasures(code, grid)
    assert report.status == CORRECTED
    assert report.grid == reference
    assert report.row_outcomes[0] == COMBINED
    assert report.row_outcomes[1] == COMBINED
    assert not report.fallback_used


def test_overloaded_row_recovered_through_combinations():
    code = build_eii(GF8, 7, (1, 1, 3, 4, 7, 7))
    reference = encoded(code, 53)
    grid = reference.copy()
    # row 0 carries 2 errors against a budget of 1: the row stage must
    # fail it, then isolate it against the other five rows
    grid.cells[0][1] ^= 3
    grid.cells[0][5] ^= 6
    report = decode_errors_erasures(code, grid)
    assert report.status == CORRECTED
    assert report.grid == reference
    assert report.row_outcomes[0] == COMBINED
    assert not report.fallback_used


def test_erasure_only_grids_agree_with_plain_row_decoding():
    code = build_eii(GF8, 5, (1, 1, 2, 5))
    rng = random.Random(54)
    for _ in range(60):
        reference = encoded(code, rng.randrange(10 ** 9))
        grid = reference.copy()
        for _ in range(rng.randrange(7)):
            grid.erase(rng.randrange(4), rng.randrange(5))
        plain = code.decode_rows(grid)
        combined = decode_errors_erasures(code, grid, allow_fallback=False)
        if plain.status == "FullyCorrected":
            assert combined.status == CORRECTED
            assert combined.grid == plain.grid
        else:
            assert combined.status == FAILED_ROWS


def test_fallback_rescues_column_friendly_error_pattern():
    code = build_eii(GF8, 7, (1, 1, 1, 7, 7))
    reference = encoded(code, 55)
    grid = reference.copy()
    # one error per light row, all in different columns: every light row
    # fails its budget-1 code and the combination stage, but each error
    # sits alone in its column
    grid.cells[0][2] ^= 1
    grid.cells[1][5] ^= 4
    grid.cells[2][0] ^= 7
    report = decode_errors_erasures(code, grid)
    assert report.status == CORRECTED
    assert report.grid == reference
    assert report.fallback_used
    assert report.row_outcomes == (UNRESOLVED, UNRESOLVED, UNRESOLVED,
                                   ROW_PASS, ROW_PASS)
    without = decode_errors_erasures(code, grid, allow_fallback=False)
    assert without.status == FAILED_ROWS
    assert not without.fallback_used


def test_hopeless_pattern_fails_both_stages():
    code = build_eii(GF8, 7, (1, 1, 1, 7, 7))
    grid = encoded(code, 56)
    for r in range(4):
        for c in range(7):
            grid.erase(r, c)
    report = decode_errors_erasures(code, grid)
    assert report.status == FAILED_BOTH
    assert report.fallback_used
    bare = decode_errors_erasures(code, grid, allow_fallback=False)
    assert bare.status == FAILED_ROWS


def test_report_is_frozen_and_input_preserved():
    code = build_eii(GF8, 5, (1, 1, 2, 5))
    reference = encoded(code, 57)
    grid = reference.copy()
    grid.erase(0, 0)
    grid.erase(3, 4)
    report = decode_errors_erasures(code, grid)
    assert report.status == CORRECTED
    assert grid.erasure_count() == 2
    assert report.grid.is_clean()


def test_rotated_peel_still_returns_the_codeword():
    # both rows fail the budget-3 row code; row 1 is isolated first but
    # its 3 errors overload the budget-4 code, so the order rotates and
    # row 0 (2 errors) goes first, leaving row 1 for the budget-7 code
    code = build_eii(GF8, 7, (3, 3, 4, 7))
    reference = encoded(code, 61)
    grid = reference.copy()
    for r, c, v in ((0, 3, 3), (0, 6, 2), (1, 2, 5), (1, 5, 6), (1, 0, 1)):
        grid.cells[r][c] ^= v
    report = decode_errors_erasures(code, grid, allow_fallback=False)
    assert report.status == CORRECTED
    assert report.rotations == 1
    assert report.grid == reference
    assert report.row_outcomes[:2] == (COMBINED, COMBINED)
