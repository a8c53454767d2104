"""Array code behavior: profiles, grids, membership, isolated-row decode."""

from __future__ import annotations

import enum
import functools
import gc
import itertools
import math
import random
import weakref

import pytest

from epcodes.eii import (
    DecodeReport,
    EiiCode,
    EntryExceedsN,
    HasErasures,
    NotSorted,
    Profile,
    ProfileError,
    SymbolGrid,
    WrongDataLength,
    build_eii,
    make_profile,
    row_correctable,
)
from epcodes import layout, linalg
from epcodes.epc import exhaustive_min_distance, matrix_erasure_decode
from epcodes.errmode import decode_errors_erasures
from epcodes.gf import (DEFAULT_MODULI, ContextMismatch, FieldContext,
                        build_aop_field, build_field, default_field)
from epcodes.layout import (balanced_layout, encode_balanced, iterative_decode,
                             tail_layout)
from epcodes.rs import LengthExceedsOrder

GF8 = default_field(3)


def random_grid_codeword(code: EiiCode, rng: random.Random) -> SymbolGrid:
    data = [rng.randrange(code.ctx.size) for _ in range(code.dimension())]
    return code.encode(data)


# -- profiles ------------------------------------------------------------

def test_profile_dimension_and_distance_constants():
    p = Profile((1, 1, 3, 4, 7, 7), 7)
    assert p.dimension() == 19
    assert p.min_distance() == 10
    assert Profile((1, 1, 2, 5), 5).min_distance() == 6
    q = Profile((2, 3, 3, 4, 4, 5, 5, 6), 8)
    assert q.dimension() == 32
    assert q.min_distance() == 7


def test_profile_rejects_bad_entries():
    with pytest.raises(NotSorted):
        Profile((2, 1), 4)
    with pytest.raises(EntryExceedsN):
        Profile((1, 5), 4)
    with pytest.raises(ProfileError, match="at least one row"):
        Profile((), 4)
    with pytest.raises(ProfileError, match="row length must be positive"):
        Profile((0,), 0)
    with pytest.raises(ProfileError, match="non-negative"):
        Profile((-1, 2), 4)
    assert issubclass(NotSorted, ProfileError)
    assert issubclass(EntryExceedsN, ProfileError)


def test_all_parity_profile_has_no_distance():
    p = Profile((4, 4), 4)
    assert p.t == 0
    assert p.dimension() == 0
    with pytest.raises(ProfileError):
        p.min_distance()


def test_suffix_counts_rows_at_or_above_level():
    p = Profile((1, 1, 3, 4, 7, 7), 7)
    # levels below n: 1, 3, 4; then the all-parity ceiling
    assert p.suffix_at(0) == 6
    assert p.suffix_at(1) == 4
    assert p.suffix_at(2) == 3
    assert p.suffix_at(3) == 2
    assert p.suffix_at(4) == 0


def test_combo_level_deepest_for_first_combinations():
    p = Profile((1, 1, 3, 4, 7, 7), 7)
    # the r-th weighted row sum lands in the deepest level whose
    # combination budget still covers index r
    assert [p.combo_level(r) for r in range(6)] == [3, 3, 2, 1, 0, 0]


def test_tail_parity_cols_and_parity_count():
    p = Profile((1, 2, 3), 5)
    assert list(p.tail_parity_cols(0)) == [4]
    assert list(p.tail_parity_cols(2)) == [2, 3, 4]
    assert p.parity_count == 6
    assert p.dimension() == 15 - 6


def test_profile_equality_and_make_profile():
    assert make_profile([1, 2], 4) == Profile((1, 2), 4)
    assert hash(Profile((1, 2), 4)) == hash(make_profile((1, 2), 4))
    assert Profile((1, 2), 4) != Profile((1, 2), 5)
    assert repr(Profile((1, 2), 4)) == "Profile([1, 2], n=4)"


# -- grids ---------------------------------------------------------------

def test_grid_erasure_bookkeeping():
    g = SymbolGrid.zeros(2, 3)
    assert g.is_clean()
    g.erase(0, 1)
    g.erase(1, 2)
    assert not g.is_clean()
    assert g.erasure_count() == 2
    assert g.erased_in_row(0) == [1]
    assert g.erasure_coords() == [(0, 1), (1, 2)]


def test_grid_copy_is_independent():
    g = SymbolGrid([[1, 2], [3, 4]])
    h = g.copy()
    h.erase(0, 0)
    h.cells[1][1] = 9
    assert g.is_clean()
    assert g.cells[1][1] == 4


def test_grid_transpose_round_trip():
    g = SymbolGrid([[1, 2, 3], [4, 5, 6]])
    g.erase(0, 2)
    t = g.transpose()
    assert t.m == 3 and t.n == 2
    assert t.cells[2][0] == 3
    assert t.mask[2][0]
    assert t.transpose() == g


def test_grid_rejects_ragged_cells_and_a_mismatched_mask():
    with pytest.raises(ValueError, match="ragged grid"):
        SymbolGrid([[1, 2], [3]])
    with pytest.raises(ValueError, match="mask shape"):
        SymbolGrid([[1, 2]], [[False]])


# -- code membership and encoding ----------------------------------------

def test_code_needs_enough_alpha_order():
    with pytest.raises(LengthExceedsOrder):
        EiiCode(Profile((1, 1), 8), GF8)
    with pytest.raises(LengthExceedsOrder):
        build_eii(GF8, 3, [1] * 8)  # 8 rows, order only 7


def test_encode_is_systematic_and_in_code():
    code = build_eii(GF8, 7, (1, 1, 3, 4, 7, 7))
    rng = random.Random(10)
    data = [rng.randrange(8) for _ in range(code.dimension())]
    grid = code.encode(data)
    assert code.is_codeword(grid)
    flat = [grid.cells[r][c] for r, c in code.data_cells()]
    assert flat == data
    for r, c in code.parity_cells():
        assert c in code.profile.tail_parity_cols(r)


def test_encode_rejects_wrong_length():
    code = build_eii(GF8, 5, (1, 1, 2, 5))
    with pytest.raises(WrongDataLength):
        code.encode([0] * 3)


ENCODERS = {
    "tail": EiiCode.encode,
    "balanced": encode_balanced,
}


@pytest.mark.parametrize("encoder", ENCODERS.values(), ids=ENCODERS.keys())
def test_encoder_contract(encoder):
    code = build_eii(GF8, 7, (1, 1, 3, 4, 7, 7))
    k = code.dimension()
    data = [v % 8 for v in range(k)]
    for wrong in (data[:-1], data + [0]):
        with pytest.raises(WrongDataLength, match="want %d data symbols" % k):
            encoder(code, wrong)
    for bad in (8, -1, 1.0):
        with pytest.raises(ContextMismatch):
            encoder(code, data[:-1] + [bad])
    assert encoder(code, iter(data)) == encoder(code, data)


@pytest.mark.parametrize("encoder", ENCODERS.values(), ids=ENCODERS.keys())
def test_encoder_contract_on_a_byte_field(encoder):
    # a byte field checks the range of its symbols in one pass of its
    # own; it must accept and refuse exactly what the others do
    code = build_eii(default_field(8), 7, (1, 2, 7))
    data = [v * 37 % 256 for v in range(code.dimension() - 1)] + [1]
    for bad in (256, -1, 1.0, "1", None):
        with pytest.raises(ContextMismatch):
            encoder(code, data[:-1] + [bad])
    grid = encoder(code, data)
    assert encoder(code, data[:-1] + [True]) == grid
    assert encoder(code, data[:-1] + [enum.IntEnum("One", "ONE").ONE]) == grid


DECODERS = {
    "rows": EiiCode.decode_rows,
    "iterative": iterative_decode,
    "errors": decode_errors_erasures,
}


@pytest.mark.parametrize("decoder", DECODERS.values(), ids=DECODERS.keys())
@pytest.mark.parametrize("m", [6, 4])
@pytest.mark.parametrize("dirty", [False, True])
def test_decoders_reject_grids_of_the_wrong_shape(decoder, m, dirty):
    code = build_eii(GF8, 7, (1, 2, 3, 6, 6))
    grid = SymbolGrid.zeros(m, 7)
    if dirty:
        grid.erase(0, 0)
    with pytest.raises(ValueError, match="grid shape %dx7 != code shape 5x7" % m):
        decoder(code, grid)


def test_membership_needs_fully_known_grid():
    code = build_eii(GF8, 5, (1, 1, 2, 5))
    g = random_grid_codeword(code, random.Random(11))
    g.erase(2, 2)
    with pytest.raises(HasErasures):
        code.is_codeword(g)


def test_weighted_row_sums_land_in_deeper_row_codes():
    # combination_sums against the definition for every r < m, S_0 too,
    # on a byte field, a split-table field and a polynomial one
    for ctx in (GF8, default_field(16), default_field(20)):
        code = build_eii(ctx, 7, (1, 1, 3, 4, 7, 7))
        prof = code.profile
        grid = random_grid_codeword(code, random.Random(12))
        combos = []
        for r in range(prof.m):
            combo = [0] * prof.n
            for j in range(prof.m):
                w = ctx.alpha_pow(r * j)
                for c in range(prof.n):
                    combo[c] ^= ctx.mul(w, grid.cells[j][c])
            combos.append(combo)
        assert code.combination_sums(grid.cells, prof.m) == combos, ctx
        for level in range(1, prof.t + 1):
            deep = code.row_code(level)
            for r in range(prof.suffix_at(level)):
                assert deep.contains(combos[r]), (ctx, level, r)


def test_perturbing_one_cell_leaves_the_code():
    code = build_eii(GF8, 5, (1, 1, 2, 5))
    g = random_grid_codeword(code, random.Random(13))
    g.cells[0][0] ^= 3
    assert not code.is_codeword(g)


# -- decoding ------------------------------------------------------------

def test_row_correctable_prefix_matching():
    p = Profile((1, 2, 3), 5)
    ok, rows = row_correctable(p, [1, 2, 3])
    assert ok and rows == {0, 1, 2}
    ok, rows = row_correctable(p, [0, 0, 4])
    assert not ok
    assert rows == {0, 1}  # the two light rows still clear
    with pytest.raises(ValueError, match="one count per row"):
        row_correctable(p, [1, 2])


def test_decode_rows_round_trip_within_row_budgets():
    code = build_eii(GF8, 7, (1, 1, 3, 4, 7, 7))
    prof = code.profile
    rng = random.Random(14)
    for _ in range(60):
        grid = random_grid_codeword(code, rng)
        reference = grid.copy()
        counts = [rng.randrange(e + 1) for e in prof.entries]
        rng.shuffle(counts)
        for r, k in enumerate(counts):
            for c in rng.sample(range(prof.n), k):
                grid.erase(r, c)
        report = code.decode_rows(grid)
        assert report.status == "FullyCorrected"
        assert report.grid == reference
        assert report.residual == ()
        assert grid.erasure_count() == sum(counts)  # input untouched


def test_decode_rows_reaches_past_single_row_budgets():
    # one row may exceed its own budget when enough clean rows back it up
    code = build_eii(GF8, 5, (1, 1, 2, 5))
    rng = random.Random(15)
    grid = random_grid_codeword(code, rng)
    reference = grid.copy()
    for c in [0, 2, 3, 4]:
        grid.erase(1, c)  # 4 erasures in a budget-1 row
    report = code.decode_rows(grid)
    assert report.status == "FullyCorrected"
    assert report.grid == reference


def test_decode_rows_reports_partial_and_failed():
    code = build_eii(GF8, 5, (1, 1, 2, 5))
    rng = random.Random(16)
    grid = random_grid_codeword(code, rng)
    for c in range(5):
        grid.erase(0, c)
        grid.erase(1, c)
    grid.erase(2, 1)
    report = code.decode_rows(grid)
    assert report.status == "PartiallyCorrected"
    assert report.corrected_rows == frozenset({2})
    assert all(r in (0, 1) for r, _ in report.residual)
    reference = grid.copy()
    for c in range(5):
        reference.erase(2, c)
        reference.erase(3, c)
    bad = code.decode_rows(reference)
    assert bad.status == "Failed"


def test_min_weight_codeword_hits_the_distance():
    code = build_eii(GF8, 7, (1, 1, 3, 4, 7, 7))
    prof = code.profile
    d = code.min_distance()
    level = min(range(prof.t),
                key=lambda i: (prof.suffix_at(i + 1) + 1)
                * (prof.levels[i] + 1))
    rows = list(range(prof.m - prof.suffix_at(level + 1) - 1, prof.m))
    cols = list(range(prof.n - prof.levels[level] - 1, prof.n))
    w = code.min_weight_codeword(level, rows, cols)
    assert code.is_codeword(w)
    weight = sum(1 for r in range(prof.m) for c in range(prof.n)
                 if w.cells[r][c])
    assert weight == d


@pytest.mark.parametrize("level,rows,cols,message", [
    (3, [3, 4, 5], [2, 3, 4, 5, 6], "level 3 outside 0..2"),
    (2, [4, 5], [2, 3, 4, 5, 6], "want 3 rows"),
    (2, [3, 4, 5], [3, 4, 5, 6], "want 5 columns"),
    (2, [4, 5, 6], [2, 3, 4, 5, 6], "row index out of range"),
    (2, [3, 4, 5], [3, 4, 5, 6, 7], "column index out of range"),
])
def test_min_weight_codeword_checks_its_support(level, rows, cols, message):
    # C(7,[1,1,3,4,7,7]) has levels 1, 3 and 4; level 2 takes 2 + 1 rows
    # and 4 + 1 columns
    code = build_eii(GF8, 7, (1, 1, 3, 4, 7, 7))
    with pytest.raises(ValueError, match=message):
        code.min_weight_codeword(level, rows, cols)


def test_assembled_matrix_annihilates_codewords():
    code = build_eii(GF8, 5, (1, 1, 2, 5))
    H = code.assembled_parity_matrix()
    rng = random.Random(17)
    g = random_grid_codeword(code, rng)
    flat = [g.cells[r][c] for r in range(4) for c in range(5)]
    assert not any(H.syndrome(flat))
    flat[3] ^= 5
    assert any(H.syndrome(flat))
    assert H.rank() == 20 - code.dimension()


# -- distance on a subset of rows ------------------------------------------

@pytest.mark.parametrize("ctx,n,entries", [
    (GF8, 5, (1, 1, 2, 5)),            # a full-parity row
    (GF8, 6, (0, 2, 2, 5)),            # a zero budget
    (GF8, 4, (0, 0, 4, 4)),            # both
    (build_aop_field(5), 5, (1, 2, 2, 3)),
    (build_field(3, 0b1101, "polynomial"), 4, (1, 1, 2, 3, 4)),
])
def test_rows_distance_matches_exhaustive_search(ctx, n, entries):
    # the lightest codeword supported on a k-row subset has the same
    # weight whichever k rows they are
    code = build_eii(ctx, n, entries)
    H = code.assembled_parity_matrix()
    for k in range(1, code.m + 1):
        want = code.profile.rows_distance(k)
        for rows in itertools.combinations(range(code.m), k):
            cols = [j * n + c for j in rows for c in range(n)]
            sub = linalg.ParityMatrix(ctx, [[h[i] for i in cols]
                                            for h in H.rows])
            cap = min(want, len(cols))
            assert exhaustive_min_distance(sub, cap) == (
                want if want < math.inf else cap + 1)
    assert code.profile.rows_distance(code.m) == code.min_distance()


# -- encode by one pass ---------------------------------------------------

LAYOUTS = {
    "tail": (EiiCode.encode, tail_layout),
    "balanced": (encode_balanced, balanced_layout),
}


@pytest.mark.parametrize("ctx,n,entries", [
    (GF8, 7, (1, 1, 3, 4, 7, 7)),
    (GF8, 6, (0, 2, 2, 5)),
    (build_aop_field(5), 5, (1, 2, 2, 3)),
    (build_field(3, 0b1101, "polynomial"), 7, (1, 2, 3, 6, 6)),
])
def test_encode_matches_matrix_erasure_ground_truth(ctx, n, entries):
    # both layouts in one body, so each field case keeps its test id
    code = build_eii(ctx, n, entries)
    H = code.assembled_parity_matrix()
    for name, (encoder, layout) in LAYOUTS.items():
        parity = layout(code.profile).positions
        rng = random.Random(31)
        for _ in range(3):
            data = [rng.randrange(ctx.size) for _ in range(code.dimension())]
            grid = encoder(code, data)
            word = [None if (r, c) in parity else grid.cells[r][c]
                    for r in range(code.m) for c in range(n)]
            assert [v for v in word if v is not None] == data, name
            assert matrix_erasure_decode(H, word) == [
                v for row in grid.cells for v in row], name


@pytest.mark.parametrize("degree,n,entries,block,row_status", [
    # 2 rows of 9 erasures: rows alone fail, one column pass clears them
    (8, 32, (4,) * 14 + (8, 32), (2, 8), "Failed"),
    # 3 rows of 5 erasures: cleared by the combination system
    (4, 8, (2, 3, 3, 4, 4, 5, 5, 6), (3, 4), "FullyCorrected"),
])
def test_cold_codec_runs_no_elimination(monkeypatch, degree, n, entries, block,
                                        row_status):
    def no_rref(*args):
        raise AssertionError("Gaussian elimination on a codec path")

    monkeypatch.setattr(linalg, "rref", no_rref)
    code = build_eii(default_field(degree), n, entries)
    rng = random.Random(41)
    data = [rng.randrange(1 << degree) for _ in range(code.dimension())]
    grid = code.encode(data)
    assert code.is_codeword(grid)
    assert code.is_codeword(encode_balanced(code, data))

    rows, cols = block
    damaged = grid.copy()
    for r in range(rows):
        for c in list(range(cols)) + [cols + r]:
            damaged.erase(r, c)
            damaged.cells[r][c] = 0
    assert code.decode_rows(damaged).status == row_status
    report = iterative_decode(code, damaged)
    assert report.status == "FullyCorrected"
    assert report.grid == grid


# -- the isolated combination against ground truth -------------------------

KERNEL_PROFILES = [
    (GF8, 7, (1, 1, 3, 4, 7, 7)),
    (GF8, 5, (1, 1, 2, 5)),
    (default_field(4), 8, (2, 3, 3, 4, 4, 5, 5, 6)),
    (build_aop_field(5), 5, (1, 2, 2, 3)),
    (build_field(3, 0b1101, "polynomial"), 7, (1, 2, 3, 6, 6)),
]


def _combination_by_elimination(code, cells, target, pending):
    """The same known part, with the coefficients of the first
    len(pending) + 1 combinations found by linalg.solve_unique."""
    ctx = code.ctx
    eqs = list(pending) + [target]
    coef = linalg.solve_unique(
        ctx, [[ctx.alpha_pow(r * i) for r in range(len(eqs))] for i in eqs],
        [0] * len(pending) + [1])
    out = [0] * code.n
    for j in range(code.m):
        if j in eqs:
            continue
        w = 0
        for r, a in enumerate(coef):
            w ^= ctx.mul(a, ctx.alpha_pow(r * j))
        for c in range(code.n):
            out[c] ^= ctx.mul(w, cells[j][c])
    return out


@pytest.mark.parametrize("ctx,n,entries", KERNEL_PROFILES)
def test_isolated_combination_lands_in_its_nested_code(ctx, n, entries):
    code = build_eii(ctx, n, entries)
    prof = code.profile
    rng = random.Random(71)
    for _ in range(12):
        grid = random_grid_codeword(code, rng)
        rows = list(range(code.m))
        rng.shuffle(rows)
        target, pending = rows[0], rows[1:1 + rng.randrange(code.m)]
        known = code.isolated_combination(grid.cells, target, pending)
        assert known == _combination_by_elimination(code, grid.cells,
                                                    target, pending)
        word = [k ^ v for k, v in zip(known, grid.cells[target])]
        assert code.row_code(prof.combo_level(len(pending))).contains(word)
        junk = grid.copy()
        for r in pending:
            junk.cells[r] = [rng.randrange(ctx.size) for _ in range(n)]
        assert code.isolated_combination(junk.cells, target, pending) == known


SUM_FIELDS = {
    "gf16": default_field(4),
    "gf256": default_field(8),
    "gf65536": default_field(16),
    "aop11": build_aop_field(11),
    "poly20": default_field(20),
}


def _random_code(ctx, rng, top=9):
    m, n = rng.randint(2, top), rng.randint(1, top)
    return build_eii(ctx, n, sorted(rng.randint(0, n) for _ in range(m)))


def _sums_by_definition(code, cells, count):
    """S_r = sum_j alpha**(r*j) * row_j, one multiply per symbol."""
    ctx = code.ctx
    sums = []
    for r in range(count):
        s = [0] * code.n
        for j, row in enumerate(cells):
            w = ctx.alpha_pow(r * j)
            for c, v in enumerate(row):
                s[c] ^= ctx.mul(w, v)
        sums.append(s)
    return sums


@pytest.mark.parametrize("field", SUM_FIELDS)
def test_isolation_from_the_sums_matches_isolated_combination(field):
    # the peel isolates a row as sum_k c_k * S_k over sums that still
    # hold the junk of the pending rows and of the row itself
    ctx = SUM_FIELDS[field]
    rng = random.Random("sums-" + field)
    for _ in range(12):
        code = _random_code(ctx, rng)
        cells = [[rng.randrange(ctx.size) for _ in range(code.n)]
                 for _ in range(code.m)]
        rows = list(range(code.m))
        rng.shuffle(rows)
        target, pending = rows[0], rows[1:1 + rng.randrange(code.m)]
        sums = code.combination_sums(cells, len(pending) + 1)
        assert sums == _sums_by_definition(code, cells, len(pending) + 1)
        known = code.isolated_combination(cells, target, pending)
        want = [k ^ v for k, v in zip(known, cells[target])]
        assert code._isolate(sums, target, pending) == want
        for r in pending:
            cells[r] = [rng.randrange(ctx.size) for _ in range(code.n)]
        sums = code.combination_sums(cells, len(pending) + 1)
        assert code._isolate(sums, target, pending) == want


def _combinations_hold_by_level(code, cells):
    """Every combination r < suffix_at(i) in the code of every level
    i >= 1, summed afresh per level."""
    prof = code.profile
    for i in range(1, prof.t + 1):
        for r in range(prof.suffix_at(i)):
            s, = _sums_by_definition(code, cells, r + 1)[r:]
            if not code.row_code(i).contains(s):
                return False
    return True


@pytest.mark.parametrize("field", SUM_FIELDS)
def test_combinations_hold_matches_the_check_per_level(field):
    # codewords, and codewords with one row moved by a word of one row
    # code, which breaks the combinations of the deeper levels only
    ctx = SUM_FIELDS[field]
    rng = random.Random("hold-" + field)
    verdicts = set()
    for _ in range(12):
        code = _random_code(ctx, rng)
        prof = code.profile
        grid = random_grid_codeword(code, rng)
        assert code.combinations_hold(grid.cells)
        assert _combinations_hold_by_level(code, grid.cells)
        for level in range(prof.t + 1):
            rc = code.row_code(level)
            shift = [rng.randrange(ctx.size) for _ in range(code.n)]
            if rc.u:
                shift = rc.fill(shift, tuple(range(code.n - rc.u, code.n)))
            cells = [list(row) for row in grid.cells]
            j = rng.randrange(code.m)
            cells[j] = [a ^ b for a, b in zip(cells[j], shift)]
            got = code.combinations_hold(cells)
            assert got == _combinations_hold_by_level(code, cells), (
                prof, level, j)
            verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("field", ["gf256", "gf65536", "poly20"])
def test_peel_keeps_the_sums_it_is_given(field):
    ctx = SUM_FIELDS[field]
    rng = random.Random("peel-" + field)
    for _ in range(8):
        code = _random_code(ctx, rng)
        sent = random_grid_codeword(code, rng)
        grid = sent.copy()
        order = rng.sample(range(code.m), rng.randint(1, code.m))
        for r in order:
            for c in rng.sample(range(code.n), rng.randint(0, code.n)):
                grid.cells[r][c] = rng.randrange(ctx.size)
                grid.erase(r, c)
        sums = code.combination_sums(grid.cells, len(order))
        left, _ = code.peel(grid, order, lambda rc, word, erased:
                            rc.erasure_decode(word, erased), sums)
        assert sums == code.combination_sums(grid.cells, len(order))
        if not left:
            assert grid == sent


@pytest.mark.parametrize("ctx,n,entries", KERNEL_PROFILES)
def test_full_corrections_match_matrix_ground_truth(ctx, n, entries):
    code = build_eii(ctx, n, entries)
    H = code.assembled_parity_matrix()
    rng = random.Random(72)
    full = 0
    for _ in range(15):
        grid = random_grid_codeword(code, rng)
        damaged = grid.copy()
        every = [(r, c) for r in range(code.m) for c in range(n)]
        for r, c in rng.sample(every, rng.randrange(len(every) // 2 + 1)):
            damaged.erase(r, c)
            damaged.cells[r][c] = rng.randrange(ctx.size)
        flat = [v for row in grid.cells for v in row]
        word = [None if damaged.mask[r][c] else damaged.cells[r][c]
                for r in range(code.m) for c in range(n)]
        truth = matrix_erasure_decode(H, word)
        for report in (code.decode_rows(damaged),
                       iterative_decode(code, damaged)):
            if report.status == "FullyCorrected":
                full += 1
                assert report.grid.cells == grid.cells
                assert truth == flat
    assert full


def _encode_and_decode(ctx):
    code = build_eii(ctx, 8, (2, 2, 3, 4))
    rng = random.Random(16)
    sent = code.encode([rng.randrange(ctx.size) for _ in range(code.dimension())])
    damaged = sent.copy()
    for r, c in [(0, 1), (0, 6), (1, 2), (1, 3), (1, 7), (3, 0)]:
        damaged.erase(r, c)
        damaged.cells[r][c] = 0
    assert iterative_decode(code, damaged).grid == sent
    assert code.is_codeword(sent)
    return code


def _row_codes(code):
    """The RS row codes that code and its column code have built."""
    codes = list(code._row_codes.values())
    if code._transposed is not None:
        codes += code._transposed._row_codes.values()
    return codes


def test_cached_code_state_does_not_keep_its_context_alive():
    # the tables a code caches are plain ints on its row codes; one that
    # referred back to the code would close a cycle only the collector
    # could break
    ctx = FieldContext(16, DEFAULT_MODULI[16])
    code = _encode_and_decode(ctx)
    assert any(rs._fills for rs in _row_codes(code))
    assert any(rs._h is not None for rs in _row_codes(code))
    ref = weakref.ref(ctx)
    gc.disable()
    try:
        del ctx, code
        assert ref() is None
    finally:
        gc.enable()


def test_representations_of_one_field_share_no_tables():
    # the two contexts compare equal, yet each code builds its own
    # tables, and both representations build the same ones
    table = FieldContext(8, DEFAULT_MODULI[8], "table")
    poly = FieldContext(8, DEFAULT_MODULI[8], "polynomial")
    assert table == poly
    codes = [_encode_and_decode(ctx) for ctx in (table, poly)]
    pairs = list(zip(*map(_row_codes, codes)))
    assert pairs and any(a._fills for a, _ in pairs)
    for a, b in pairs:
        assert (a.ctx, b.ctx) == (table, poly)
        assert (a.n, a.u) == (b.n, b.u)
        assert (a._h is None) == (b._h is None)
        if a._h is not None:
            assert a._h.rows == b._h.rows
            assert a._h._chunk_tables() == b._h._chunk_tables()
            assert a._h._tables is not b._h._tables
        assert a._fills.keys() == b._fills.keys()
        for erased, tables in a._fills.items():
            assert tables == b._fills[erased]
            assert tables is not b._fills[erased]
            # F has no zero entry off its zero columns, so the all-zero
            # tables are exactly the erased positions'
            for chunk in tables:
                assert tuple(j for j, t in enumerate(chunk)
                             if not any(t)) == erased


def test_zero_encode_builds_no_tail_tables():
    # a zero tail fill needs no encoder, so encoding zeros on a fresh
    # context (as a benchmark set-up does) builds no table on the code
    ctx = FieldContext(8, DEFAULT_MODULI[8])
    code = build_eii(ctx, 32, (4,) * 14 + (8, 32))
    assert code.encode([0] * code.dimension()) == SymbolGrid.zeros(16, 32)
    assert all(not rs._fills and rs._h is None for rs in _row_codes(code))
    data = [1] + [0] * (code.dimension() - 1)
    assert code.is_codeword(code.encode(data))
    fills = {(rs.n, rs.u): set(rs._fills) for rs in _row_codes(code)
             if rs._fills}
    assert fills == {(32, 4): {tuple(range(28, 32))},
                     (32, 8): {tuple(range(24, 32))}}


@pytest.mark.parametrize("degree", [8, 16])
def test_zero_encodes_of_both_layouts_build_no_tables(degree):
    # a schedule compiles from the mask alone and a fill meets only zero
    # words, so no row code of the code or of its column code builds a
    # table, and nothing lands in the context's caches
    ctx = FieldContext(degree, DEFAULT_MODULI[degree])
    code = build_eii(ctx, 32, (4,) * 14 + (8, 32))
    zeros = [0] * code.dimension()
    assert code.encode(zeros) == SymbolGrid.zeros(16, 32)
    assert encode_balanced(code, zeros) == SymbolGrid.zeros(16, 32)
    assert code._transposed is not None
    assert all(not rs._fills and rs._h is None for rs in _row_codes(code))
    assert not ctx._byte_tables


SCHEDULE_FIELDS = {
    "gf8": GF8,
    "gf16": default_field(4),
    "gf65536": default_field(16),
    "aop11": build_aop_field(11),
    "poly32": build_field(5, DEFAULT_MODULI[5], "polynomial"),
}


def _decoded_around(code, data, parity, decode):
    """The encode as one decode pass: data row-major off the parity
    cells, the parity cells erased, then decode."""
    symbols = iter(data)
    cells = [[0 if (r, c) in parity else next(symbols) for c in range(code.n)]
             for r in range(code.m)]
    mask = [[(r, c) in parity for c in range(code.n)] for r in range(code.m)]
    report = decode(SymbolGrid(cells, mask))
    assert report.status == "FullyCorrected"
    return report.grid


def _column_pass(code, grid):
    """decode_rows of the column code, in the grid's own orientation."""
    rep = layout.transpose_code(code).decode_rows(grid.transpose())
    return DecodeReport.of(rep.grid.transpose(), rep.corrected_rows, rep.passes)


@pytest.mark.parametrize("field", SCHEDULE_FIELDS)
def test_compiled_encodes_match_one_decode_pass(field):
    # each layout's schedule against the route it replaces: the tail
    # cleared by decode_rows, the balanced cells by one column pass
    ctx = SCHEDULE_FIELDS[field]
    rng = random.Random("schedule-" + field)
    top = min(9, ctx.size - 1 if ctx.alpha_order is None else ctx.alpha_order)
    for _ in range(12):
        m, n = rng.randint(1, top), rng.randint(1, top)
        code = build_eii(ctx, n, sorted(rng.randint(0, n) for _ in range(m)))
        routes = [(EiiCode.encode, tail_layout, code.decode_rows),
                  (encode_balanced, balanced_layout,
                   functools.partial(_column_pass, code))]
        for encoder, place, decode in routes:
            data = [rng.randrange(ctx.size) for _ in range(code.dimension())]
            grid = encoder(code, data)
            parity = place(code.profile).positions
            assert grid == _decoded_around(code, data, parity, decode), (
                code.profile, place)
            assert code.is_codeword(grid)


def test_a_mask_with_no_schedule_raises():
    # one erased cell per row under a budget of 2 leaves a spare check,
    # which random data breaks: no fixed fill exists
    code = build_eii(GF8, 7, (2, 2, 3))
    mask = tuple((False,) * 6 + (True,) for _ in range(3))
    rng = random.Random(27)
    with pytest.raises(AssertionError, match="parity cells failed to decode"):
        code.encode_around([rng.randrange(8) for _ in range(18)], mask)
