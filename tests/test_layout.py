"""Column-side duality, iterative decoding, parity placement."""

from __future__ import annotations

import random

import pytest

from epcodes.eii import DecodeReport, EiiCode, Profile, SymbolGrid, build_eii
from epcodes.gf import default_field
from epcodes.layout import (
    ParityLayout,
    balanced_layout,
    encode_balanced,
    iterative_decode,
    tail_layout,
    transpose_code,
    transpose_grid,
    transpose_profile,
)

GF8 = default_field(3)
GF16 = default_field(4)


def random_profile(rng: random.Random, max_side: int = 10) -> Profile:
    m = rng.randrange(1, max_side + 1)
    n = rng.randrange(1, max_side + 1)
    return Profile(sorted(rng.randrange(n + 1) for _ in range(m)), n)


# -- profile duality -----------------------------------------------------

def test_transpose_profile_known_maps():
    cases = [
        (Profile((1, 1, 3, 4, 7, 7), 7), Profile((2, 2, 2, 3, 4, 4, 6), 6)),
        (Profile((1, 2, 3, 5), 7), Profile((0, 0, 1, 1, 2, 3, 4), 4)),
        (Profile((1, 3, 6, 8, 9), 10), Profile((0, 1, 2, 2, 3, 3, 3, 4, 4, 5), 5)),
        (Profile((1, 2, 3, 6, 6), 7), Profile((0, 2, 2, 2, 3, 4, 5), 5)),
    ]
    for prof, expected in cases:
        assert transpose_profile(prof) == expected


def test_transpose_profile_counts_overhang():
    # column j of the parity tails collects rows with entries > n-1-j
    p = Profile((0, 2), 3)
    assert transpose_profile(p) == Profile((0, 1, 1), 2)


def test_transpose_is_involution_and_conserves_parity():
    rng = random.Random(21)
    for _ in range(200):
        p = random_profile(rng)
        tp = transpose_profile(p)
        assert tp.m == p.n and tp.n == p.m
        assert tp.parity_count == p.parity_count
        assert transpose_profile(tp) == p


def test_codeword_columns_satisfy_transposed_code():
    code = build_eii(GF8, 7, (1, 1, 3, 4, 7, 7))
    tcode = transpose_code(code)
    assert tcode.profile == transpose_profile(code.profile)
    rng = random.Random(22)
    for _ in range(10):
        data = [rng.randrange(8) for _ in range(code.dimension())]
        grid = code.encode(data)
        assert tcode.is_codeword(grid.transpose())


def test_transpose_grid_helper_matches_method():
    g = SymbolGrid([[1, 2, 3], [4, 5, 6]])
    g.erase(1, 0)
    assert transpose_grid(g) == g.transpose()


# -- iterative decoding --------------------------------------------------

def test_clean_grid_decodes_in_zero_passes():
    code = build_eii(GF8, 5, (1, 1, 2, 5))
    rng = random.Random(23)
    data = [rng.randrange(8) for _ in range(code.dimension())]
    report = iterative_decode(code, code.encode(data))
    assert report.status == "FullyCorrected"
    assert report.passes == 0


CROSS_PATTERN = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 2), (3, 0), (3, 3)]


def test_iterative_clears_patterns_rows_alone_cannot():
    code = build_eii(GF8, 5, (1, 1, 2, 5))
    rng = random.Random(24)
    data = [rng.randrange(8) for _ in range(code.dimension())]
    reference = code.encode(data)
    grid = reference.copy()
    for r, c in CROSS_PATTERN:
        grid.erase(r, c)
    rows_only = code.decode_rows(grid)
    assert rows_only.status != "FullyCorrected"
    report = iterative_decode(code, grid)
    assert report.status == "FullyCorrected"
    assert report.grid == reference
    assert report.passes == 2


def _iterative_by_passes(code, grid):
    """iterative_decode as a report per pass: copy the grid, then
    alternate decode_rows of the code and of the column code on the
    transpose, each column pass reported in the grid's orientation."""
    work = grid.copy()
    dirty = [r for r in range(code.m) if any(work.mask[r])]
    passes = attempts = stalled = 0
    while not work.is_clean() and stalled < 2:
        if attempts % 2:
            rep = transpose_code(code).decode_rows(work.transpose())
            rep = DecodeReport.of(rep.grid.transpose(), rep.corrected_rows,
                                  rep.passes)
        else:
            rep = code.decode_rows(work)
        work = rep.grid
        attempts += 1
        passes += rep.passes
        stalled = 0 if rep.passes else stalled + 1
    return DecodeReport.of(work, [r for r in dirty if not any(work.mask[r])],
                           passes)


@pytest.mark.parametrize("draw", [0, 1, 2, 3])
def test_iterative_report_matches_a_report_per_pass(draw):
    # grid, status, corrected rows, residual and pass count, on patterns
    # that clear, stall part way and fail outright; every other code has
    # rows of budget 1 and so often needs several passes
    rng = random.Random(31 + draw)
    statuses, passes = set(), set()
    for trial in range(60):
        n = rng.randint(3, 9)
        entries = ((1, 1, 1, 1, 2, 8) if trial % 2 else
                   sorted(rng.randint(0, min(4, n)) for _ in range(rng.randint(2, 8))))
        code = build_eii(GF16, 8 if trial % 2 else n, entries)
        grid = code.encode([rng.randrange(16) for _ in range(code.dimension())])
        cells = [(r, c) for r in range(code.m) for c in range(code.n)]
        for r, c in rng.sample(cells, rng.randint(0, len(cells) * 2 // 3)):
            grid.cells[r][c] = rng.randrange(16)
            grid.erase(r, c)
        before = grid.copy()
        got = iterative_decode(code, grid)
        want = _iterative_by_passes(code, grid)
        assert grid == before  # the input is left alone
        assert got.grid is not grid
        assert (got.grid, got.status, got.corrected_rows, got.residual,
                got.passes) == (want.grid, want.status, want.corrected_rows,
                                want.residual, want.passes)
        statuses.add(got.status)
        passes.add(got.passes)
    assert statuses == {"FullyCorrected", "PartiallyCorrected", "Failed"}
    # some decode uses two passes or more
    assert max(passes) >= 2


def test_hopeless_pattern_reports_failed():
    code = build_eii(GF8, 5, (1, 1, 2, 5))
    rng = random.Random(26)
    data = [rng.randrange(8) for _ in range(code.dimension())]
    grid = code.encode(data)
    for r in range(4):
        for c in range(5):
            grid.erase(r, c)
    report = iterative_decode(code, grid)
    assert report.status == "Failed"
    assert report.passes == 0
    assert len(report.residual) == 20


# -- parity layouts ------------------------------------------------------

def test_tail_layout_matches_profile_tails():
    prof = Profile((1, 2, 3), 5)
    layout = tail_layout(prof)
    assert layout.style == "tail"
    assert layout.row_counts() == [1, 2, 3]
    assert (0, 4) in layout.positions
    assert (2, 2) in layout.positions
    assert (2, 1) not in layout.positions


def test_balanced_layout_row_loads_differ_by_at_most_one():
    rng = random.Random(27)
    for _ in range(100):
        prof = random_profile(rng, 8)
        layout = balanced_layout(prof)
        assert layout.style == "balanced"
        assert len(layout.positions) == prof.parity_count
        assert layout.is_balanced()
        counts = layout.row_counts()
        assert max(counts) - min(counts) <= 1


def test_balanced_column_loads_match_transposed_budgets():
    prof = Profile((1, 1, 3, 4, 7, 7), 7)
    layout = balanced_layout(prof)
    tprof = transpose_profile(prof)
    col_loads = [0] * prof.n
    for _, c in layout.positions:
        col_loads[c] += 1
    assert sorted(col_loads) == sorted(tprof.entries)


def test_encode_balanced_round_trip_and_membership():
    for entries, n in [((1, 1, 1, 7, 7), 7), ((1, 1, 3, 4, 7, 7), 7)]:
        code = build_eii(GF8, n, entries)
        rng = random.Random(n * 31)
        data = [rng.randrange(8) for _ in range(code.dimension())]
        grid = encode_balanced(code, data)
        assert grid.is_clean()
        assert code.is_codeword(grid)
        layout = balanced_layout(code.profile)
        read_back = [grid.cells[r][c]
                     for r in range(code.m) for c in range(code.n)
                     if (r, c) not in layout.positions]
        assert read_back == data


def test_erasing_every_balanced_parity_cell_is_recoverable():
    code = build_eii(GF8, 7, (1, 1, 1, 7, 7))
    rng = random.Random(28)
    data = [rng.randrange(8) for _ in range(code.dimension())]
    grid = encode_balanced(code, data)
    reference = grid.copy()
    for r, c in balanced_layout(code.profile).positions:
        grid.erase(r, c)
    report = iterative_decode(code, grid)
    assert report.status == "FullyCorrected"
    assert report.grid == reference


def test_layout_coord_list_is_sorted():
    layout = ParityLayout(2, 3, frozenset({(1, 2), (0, 1)}), "tail")
    assert layout.coord_list() == [[0, 1], [1, 2]]
