"""Combined error and erasure decoding on whole grids."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from epcodes.eii import EiiCode, SymbolGrid, build_eii
from epcodes.errmode import (
    COMBINED,
    CORRECTED,
    FAILED_BOTH,
    FAILED_ROWS,
    ROW_PASS,
    UNRESOLVED,
    decode_errors_erasures,
)
from epcodes.gf import (DEFAULT_MODULI, FieldContext, build_aop_field,
                        build_field, default_field)
from epcodes.layout import encode_balanced

GF8 = default_field(3)
GF16 = default_field(4)


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


# -- the nearest candidate -------------------------------------------------

def damaged(sent, erasures, errors):
    """sent with (row, col, junk) cells erased and (row, col, xor) errors."""
    grid = sent.copy()
    for r, c, v in erasures:
        grid.cells[r][c] = v
        grid.erase(r, c)
    for r, c, v in errors:
        grid.cells[r][c] ^= v
    return grid


def codec_op_75_at_seed_304():
    """The 16x32 GF(2^16) code of the codec benchmark (d = 15), its
    codeword and the damage of its codec-errors op 75 at seed 304: row 2
    holds 2 errors and 6 erasures, 10 in all against the level-1 budget
    of 8, and its isolated decode still returns a word."""
    code = build_eii(default_field(16), 32, (4,) * 14 + (8, 32))
    rng = random.Random("codec-errors:304:75")
    sent = encode_balanced(code, [rng.randrange(1 << 16)
                                  for _ in range(code.dimension())])
    grid = damaged(sent, [
        (1, 3, 30948), (1, 25, 9899), (1, 13, 59916), (1, 18, 43432),
        (1, 29, 48695), (1, 24, 19128), (1, 5, 53854), (1, 6, 56046),
        (2, 6, 9967), (2, 31, 53243), (2, 17, 23588), (2, 9, 33189),
        (2, 21, 38880), (2, 5, 54855), (3, 6, 32178)],
        [(2, 10, 41707), (2, 11, 9291), (0, 9, 42569), (3, 25, 31054)])
    return code, sent, grid


def test_isolated_miscorrection_loses_to_a_nearer_candidate():
    # the first candidate changes more known cells than the one with row
    # 1 isolated first
    code, sent, grid = codec_op_75_at_seed_304()
    report = decode_errors_erasures(code, grid)
    assert report.status == CORRECTED
    assert report.grid == sent
    assert report.rotations == 1
    assert not report.fallback_used


def test_every_candidate_reads_one_set_of_combination_sums(monkeypatch):
    # the row stage's output is summed once, into S_0 .. S_{s-1}; each
    # start's peel and guard work on a copy, so trying more starts sums
    # no grid again
    code, sent, grid = codec_op_75_at_seed_304()
    grid_sums, starts = [], []

    real_row_sum = FieldContext.row_sum

    def row_sum(self, weights, rows, *args):
        if len(rows) == code.m:
            grid_sums.append(weights)
        return real_row_sum(self, weights, rows, *args)
    monkeypatch.setattr(FieldContext, "row_sum", row_sum)
    real_peel = EiiCode.peel
    monkeypatch.setattr(EiiCode, "peel", lambda self, *args:
                        starts.append(args) or real_peel(self, *args))
    report = decode_errors_erasures(code, grid)
    assert report.grid == sent and not report.fallback_used
    assert len(starts) >= 2
    assert len(grid_sums) <= code.profile.suffix_at(1)


def test_fallback_keeps_the_nearest_column_candidate():
    # codec-errors op 177 at seed 302: three rows with 5 or 6 erasures,
    # one of them also with an error, are more than the peel can take, so
    # the transposed code decodes; its first candidate is a wrong one
    code = build_eii(default_field(16), 32, (4,) * 14 + (8, 32))
    rng = random.Random("codec-errors:302:177")
    sent = encode_balanced(code, [rng.randrange(1 << 16)
                                  for _ in range(code.dimension())])
    grid = damaged(sent, [
        (15, 5, 18224), (15, 23, 2285), (15, 28, 13653), (15, 22, 38524),
        (15, 24, 38532), (12, 10, 24807), (12, 6, 21719), (12, 25, 54109),
        (12, 22, 25033), (12, 17, 35894), (12, 1, 31420), (6, 25, 12724),
        (6, 23, 12490), (6, 10, 58188), (6, 5, 62969), (6, 22, 38923),
        (6, 16, 35559)],
        [(15, 25, 34174)])
    report = decode_errors_erasures(code, grid)
    assert report.status == CORRECTED
    assert report.grid == sent
    assert report.fallback_used


def test_small_code_patterns_inside_the_radius_decode_to_the_sent_word():
    # C(10,[1,1,2,2,4,10]) over GF(16), d = 9: both patterns have
    # 2t + e = 8.  Taking the first word each isolated decode returned
    # gave another codeword here.
    code = build_eii(GF16, 10, (1, 1, 2, 2, 4, 10))
    sent = encoded(code, 62)
    for erasures, errors in (
            ([(3, 0, 7), (3, 3, 1)], [(1, 9, 6), (2, 4, 6), (2, 6, 9)]),
            ([(3, 0, 2), (3, 6, 0), (4, 0, 11), (4, 3, 5)],
             [(4, 4, 8), (4, 5, 12)])):
        report = decode_errors_erasures(code, damaged(sent, erasures, errors))
        assert report.status == CORRECTED
        assert report.grid == sent


RADIUS_CODES = [
    build_eii(GF16, 10, (1, 1, 2, 2, 4, 10)),
    build_eii(build_aop_field(5), 5, (1, 2, 2, 3)),
    build_eii(build_field(3, 0b1101, "polynomial"), 7, (1, 1, 2, 2, 4, 7)),
]


@st.composite
def inside_radius(draw):
    """A code, a codeword seed and a pattern with 2t + e < d, its damage
    confined to a few rows with at most two errors in each."""
    code = draw(st.sampled_from(RADIUS_CODES))
    rng = random.Random(draw(st.integers(0, 2 ** 64)))
    spare = code.min_distance() - 1
    erasures, errors = [], []
    for r in rng.sample(range(code.m), rng.randint(2, 4)):
        t = rng.randint(0, min(2, spare // 2))
        e = rng.randint(0, min(spare - 2 * t, code.n - t, 3))
        spare -= 2 * t + e
        cols = rng.sample(range(code.n), t + e)
        erasures += [(r, c, rng.randrange(code.ctx.size)) for c in cols[:e]]
        errors += [(r, c, rng.randrange(1, code.ctx.size)) for c in cols[e:]]
    return code, rng.randrange(10 ** 9), erasures, errors


@settings(max_examples=300)
@given(inside_radius())
def test_no_wrong_corrected_result_inside_the_radius(case):
    code, seed, erasures, errors = case
    sent = encoded(code, seed)
    report = decode_errors_erasures(code, damaged(sent, erasures, errors))
    assert report.status != CORRECTED or report.grid == sent


# Patterns inside the guaranteed radius that still come back Corrected
# with another codeword: a row the outer row code fills with no check to
# spare is trusted as it stands (the row stage defect in the module
# docstring).  Strict, so a fix shows up as an unexpected pass.
@pytest.mark.xfail(strict=True, reason="the row stage trusts a row filled "
                   "with no check to spare")
@pytest.mark.parametrize("erased,errors", [
    ([(1, 2), (1, 5), (1, 6), (3, 1)], [(0, 3, 15), (3, 2, 2)]),
    ([(5, 0), (5, 1), (5, 3), (4, 2)], [(3, 7, 1), (4, 1, 15)]),
])
def test_row_stage_defect_inside_the_radius(erased, errors):
    code = RADIUS_CODES[0]
    sent = SymbolGrid.zeros(code.m, code.n)
    grid = damaged(sent, [(r, c, 0) for r, c in erased], errors)
    report = decode_errors_erasures(code, grid)
    assert report.status != CORRECTED or report.grid == sent


# -- the candidate guard ---------------------------------------------------

GUARD_CODES = RADIUS_CODES + [build_eii(GF8, 7, (1, 1, 1, 7, 7))]


def any_damage(code, rng):
    """Errors and erasures in a few rows, with no regard for the radius:
    up to three errors and up to n - 1 erasures per row."""
    erasures, errors = [], []
    for r in rng.sample(range(code.m), rng.randint(1, min(4, code.m))):
        t = rng.randint(0, 3)
        e = rng.randint(0, code.n - 1)
        cols = rng.sample(range(code.n), min(t + e, code.n))
        erasures += [(r, c, rng.randrange(code.ctx.size)) for c in cols[:e]]
        errors += [(r, c, rng.randrange(1, code.ctx.size)) for c in cols[e:]]
    return erasures, errors


def guarded_decode(code, seed):
    rng = random.Random(seed)
    sent = encoded(code, rng.randrange(10 ** 9))
    erasures, errors = any_damage(code, rng)
    report = decode_errors_erasures(code, damaged(sent, erasures, errors))
    if report.status == CORRECTED:
        # decode_errors_erasures checks only the combinations of a
        # candidate; its rows must lie in the outer row code as well
        assert code.is_codeword(report.grid)
    return report, 2 * len(errors) + len(erasures) >= code.min_distance()


@settings(max_examples=200)
@given(st.sampled_from(GUARD_CODES), st.integers(0, 2 ** 64))
def test_every_corrected_result_is_a_codeword(code, seed):
    guarded_decode(code, seed)


def test_guard_property_reaches_the_fallback_and_beyond_the_radius():
    # the draws of the property above include Corrected results from the
    # transposed fallback and from patterns at or past the radius
    fallback = beyond = 0
    for seed in range(120):
        report, past = guarded_decode(GUARD_CODES[seed % len(GUARD_CODES)], seed)
        if report.status == CORRECTED:
            fallback += report.fallback_used
            beyond += past
    assert fallback > 0 and beyond > 0


def test_an_errors_panel_builds_no_check_tables_for_the_zero_code():
    # the all-parity levels of the code (32, 32) and of its column code
    # (16, 16) are the code {0}: the guard, the peel and the fallback
    # decide them with no check matrix
    ctx = FieldContext(8, DEFAULT_MODULI[8])
    code = build_eii(ctx, 32, (4,) * 14 + (8, 32))
    rng = random.Random(27)
    outcomes = set()
    for _ in range(12):
        sent = encode_balanced(code, [rng.randrange(256)
                                      for _ in range(code.dimension())])
        erasures, errors = any_damage(code, rng)
        report = decode_errors_erasures(code, damaged(sent, erasures, errors))
        outcomes.add((report.status, report.fallback_used))
    assert {(CORRECTED, False), (CORRECTED, True)} <= outcomes
    levels = list(code._row_codes.values())
    levels += code._transposed._row_codes.values()
    zero = [rs for rs in levels if rs.u == rs.n]
    assert {(rs.n, rs.u) for rs in zero} == {(32, 32), (16, 16)}
    assert all(rs._h is None and not rs._fills for rs in zero)
    assert any(rs._h is not None for rs in levels)
