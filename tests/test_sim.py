"""Decoder models, Monte Carlo harness, birthday expectation."""

from __future__ import annotations

import math
import random
from collections import Counter
from functools import partial
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

from epcodes import sim
from epcodes.eii import (FULLY_CORRECTED, build_eii, make_profile,
                         row_correctable)
from epcodes.gf import build_aop_field, build_field, default_field
from epcodes.layout import iterative_decode, transpose_code, transpose_profile
from epcodes.sim import (
    DecoderModel,
    SimResult,
    birthday_expected,
    correctable,
    correction_probability,
    mean_erasures_to_failure,
    _bits,
    _caps,
    _clears,
    _cutoffs,
    _line_masks,
    _step,
    _substream,
)

GF8 = default_field(3)
CODE = build_eii(GF8, 5, (1, 1, 2, 5))


# -- models --------------------------------------------------------------

def test_grid_shape_resolution():
    rows = DecoderModel.rows_only(CODE)
    assert rows.grid_shape() == (4, 5)
    assert rows.grid_shape((4, 5)) == (4, 5)
    with pytest.raises(ValueError):
        rows.grid_shape((5, 4))
    lrc = DecoderModel.ideal_lrc(8, 2, 23)
    assert lrc.grid_shape((8, 8)) == (8, 8)
    with pytest.raises(ValueError):
        lrc.grid_shape()
    with pytest.raises(ValueError):
        lrc.grid_shape((8, 9))
    for rows_count in (0, -2):
        with pytest.raises(ValueError):
            lrc.grid_shape((rows_count, 8))
    with pytest.raises(ValueError):
        DecoderModel.ideal_lrc(4, 4, 1)


def test_an_unknown_model_kind_is_refused_when_built():
    with pytest.raises(ValueError, match="unknown model kind"):
        DecoderModel("Diagonal", code=CODE)


def test_rows_only_model_tracks_sorted_budget_domination():
    model = DecoderModel.rows_only(CODE)
    # counts sorted ascending must sit under (1, 1, 2, 5) positionally
    assert correctable(model, [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4)])
    assert correctable(model, [(0, 0), (2, 1), (2, 2)])
    assert correctable(model, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert not correctable(model, [(0, 0), (0, 1), (1, 0), (1, 1),
                                   (2, 0), (2, 1)])


def test_cols_only_model_uses_the_transposed_budgets():
    model = DecoderModel.cols_only(CODE)
    # transposed budgets are (1, 1, 1, 2, 4): one full column fits under
    # the heaviest, two full columns outrun the top two
    assert correctable(model, [(r, 4) for r in range(4)])
    assert correctable(model, [(r, 0) for r in range(4)])
    assert not correctable(model, [(r, c) for r in range(4) for c in (0, 1)])


def test_iterative_model_clears_the_cross_pattern():
    pattern = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 2), (3, 0), (3, 3)]
    assert not correctable(DecoderModel.rows_only(CODE), pattern)
    assert not correctable(DecoderModel.cols_only(CODE), pattern)
    assert correctable(DecoderModel.iterative(CODE), pattern)


def test_iterative_never_loses_to_either_direction():
    import random
    rng = random.Random(60)
    models = (DecoderModel.rows_only(CODE), DecoderModel.cols_only(CODE),
              DecoderModel.iterative(CODE))
    for _ in range(300):
        k = rng.randrange(1, 12)
        pattern = {(rng.randrange(4), rng.randrange(5)) for _ in range(k)}
        r, c, it = (correctable(m, pattern) for m in models)
        if r or c:
            assert it


def test_ideal_lrc_counts_whole_overloaded_groups():
    model = DecoderModel.ideal_lrc(5, 1, 4)
    shape = (3, 5)
    # two cells in one group: the group is beyond local repair, both
    # cells bill against the global budget
    assert correctable(model, [(0, 0), (0, 1), (0, 2), (0, 3)], shape)
    assert not correctable(model, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)],
                           shape)
    # spread cells repair locally at no global cost
    assert correctable(model, [(r, c) for r in range(3) for c in [r]], shape)


def test_out_of_range_coordinate_rejected():
    with pytest.raises(ValueError):
        correctable(DecoderModel.rows_only(CODE), [(4, 0)])


@pytest.mark.parametrize("ctx,n,entries", [
    (GF8, 7, (1, 2, 3, 6, 6)),
    (build_aop_field(5), 5, (1, 2, 2, 3)),
    (build_field(3, 0b1101, "polynomial"), 7, (1, 1, 2, 2, 4, 7)),
    (default_field(4), 8, (2, 3, 3, 4, 4, 5, 5, 6)),
], ids=["gf8", "aop5", "poly8", "gf16"])
def test_models_agree_with_the_real_decoders(ctx, n, entries):
    # the oracle says yes exactly when the decoder it stands for returns
    # FullyCorrected, and a full correction restores the codeword
    code = build_eii(ctx, n, entries)
    decoders = [  # (model, decoder, whether it reads the transposed grid)
        (DecoderModel.rows_only(code), code.decode_rows, False),
        (DecoderModel.cols_only(code), transpose_code(code).decode_rows, True),
        (DecoderModel.iterative(code), partial(iterative_decode, code), False),
    ]
    cells = [(r, c) for r in range(code.m) for c in range(n)]
    rng = random.Random(23)
    parity = code.profile.parity_count
    for _ in range(150):
        sent = code.encode([rng.randrange(ctx.size)
                            for _ in range(code.dimension())])
        pattern = rng.sample(cells, rng.randint(parity // 2, parity))
        grid = sent.copy()
        for r, c in pattern:
            grid.cells[r][c] = rng.randrange(ctx.size)
            grid.erase(r, c)
        for model, decode, flip in decoders:
            rep = decode(grid.transpose() if flip else grid)
            full = rep.status == FULLY_CORRECTED
            assert full == correctable(model, pattern), (model.kind, pattern)
            if full:
                assert rep.grid == (sent.transpose() if flip else sent)


# -- Monte Carlo ---------------------------------------------------------

def test_mean_is_deterministic_under_a_seed():
    model = DecoderModel.rows_only(CODE)
    a = mean_erasures_to_failure(model, trials=400, seed=3)
    b = mean_erasures_to_failure(model, trials=400, seed=3)
    c = mean_erasures_to_failure(model, trials=400, seed=4)
    assert isinstance(a, SimResult)
    assert (a.mean, a.std_error) == (b.mean, b.std_error)
    assert a.mean != c.mean
    assert a.seed == 3 and a.trials == 400
    # one trial has no spread to estimate
    one = mean_erasures_to_failure(model, trials=1, seed=3)
    assert (one.trials, one.std_error) == (1, 0.0)


def test_mean_histogram_accounts_for_every_trial():
    model = DecoderModel.iterative(CODE)
    res = mean_erasures_to_failure(model, trials=500, seed=7)
    assert sum(res.histogram.values()) == 500
    assert sum(k * v for k, v in res.histogram.items()) / 500 == res.mean
    assert min(res.histogram) >= 1
    assert max(res.histogram) <= 21


def test_shared_seed_orders_the_three_models():
    # same seed means same cell permutations, and the iterative model
    # dominates both directions pattern by pattern
    rows = mean_erasures_to_failure(DecoderModel.rows_only(CODE),
                                    trials=300, seed=9).mean
    cols = mean_erasures_to_failure(DecoderModel.cols_only(CODE),
                                    trials=300, seed=9).mean
    it = mean_erasures_to_failure(DecoderModel.iterative(CODE),
                                  trials=300, seed=9).mean
    assert it >= rows and it >= cols


@pytest.mark.parametrize("run,message", [
    (lambda model: mean_erasures_to_failure(model, trials=0),
     "at least one trial"),
    (lambda model: correction_probability(model, 3, trials=0),
     "at least one trial"),
    (lambda model: correction_probability(model, 21, trials=5),
     "num_erasures 21 outside 0..20"),
    (lambda model: correction_probability(model, -1, trials=5),
     "num_erasures -1 outside 0..20"),
], ids=["mean-no-trials", "probability-no-trials", "too-many-erasures",
        "negative-erasures"])
def test_drivers_check_their_arguments(run, message):
    with pytest.raises(ValueError, match=message):
        run(DecoderModel.rows_only(CODE))


def test_correction_probability_boundaries_and_monotonicity():
    model = DecoderModel.rows_only(CODE)
    assert correction_probability(model, 0, trials=50, seed=1).mean == 1.0
    assert correction_probability(model, 20, trials=50, seed=1).mean == 0.0
    last = 1.0
    for k in range(1, 10):
        p = correction_probability(model, k, trials=200, seed=2).mean
        assert p <= last  # same seed, nested prefixes
        last = p


def _reference_permutation(seed, trial, total):
    """The draw as a plain Fisher-Yates shuffle over randrange on the
    trial's substream, kept as the reference the drivers' inline draw
    must reproduce."""
    rng = random.Random(_substream(seed, trial))
    pool = list(range(total))
    for i in range(total):
        j = rng.randrange(i, total)
        pool[i], pool[j] = pool[j], pool[i]
    return pool


# Literal SimResults under one seed: both drivers must reproduce them
# exactly for every model, so a change to the pattern layer that moves
# any trial shows here.
PINNED = [
    (DecoderModel.rows_only(CODE), None, 7,
     (7.586666666666667, 0.05308190455891381,
      {6: 32, 7: 112, 8: 110, 9: 40, 10: 6}),
     (0.52, 0.02889260474058461)),
    (DecoderModel.cols_only(CODE), None, 8,
     (8.013333333333334, 0.05916048376317822,
      {6: 17, 7: 85, 8: 94, 9: 85, 10: 19}),
     (0.3466666666666667, 0.027522498482247464)),
    (DecoderModel.iterative(CODE), None, 9,
     (9.13, 0.05362344451413727, {7: 22, 8: 46, 9: 103, 10: 129}),
     (0.43, 0.028630969970847513)),
    (DecoderModel.ideal_lrc(5, 1, 3), (4, 5), 5,
     (5.4366666666666665, 0.05402388780311041,
      {4: 52, 5: 107, 6: 99, 7: 42}),
     (0.47, 0.028863651326417047)),
]


@pytest.mark.parametrize("model,shape,erasures,mean,prob", PINNED,
                         ids=[p[0].kind for p in PINNED])
def test_pinned_results(model, shape, erasures, mean, prob):
    res = mean_erasures_to_failure(model, shape, trials=300, seed=21)
    assert (res.mean, res.std_error, res.histogram) == mean
    res = correction_probability(model, erasures, shape, trials=300, seed=21)
    assert (res.mean, res.std_error, res.histogram) == prob + (None,)


def _scan_cutoff(model, perm, shape=None):
    """The first uncorrectable prefix of perm, by a plain scan with no
    bisection, no lazy draw and no count rule."""
    m, n = model.grid_shape(shape)
    return next((k for k in range(1, m * n + 1)
                 if not correctable(model, [divmod(c, n) for c in perm[:k]],
                                    shape)),
                m * n + 1)


def _cutoffs_at_every_limit(model, shape, seed, trials):
    """Check _cutoffs at every limit 0..mn against a plain scan of each
    trial's reference permutation, and return the scanned cutoffs."""
    m, n = model.grid_shape(shape)
    want = [_scan_cutoff(model, _reference_permutation(seed, t, m * n), shape)
            for t in range(trials)]
    for limit in range(m * n + 1):
        got = _cutoffs(model, m, n, seed, trials, limit)
        assert got == [c if c <= limit else None for c in want], limit
    return want


def _count_floor(code, perm):
    """The first prefix of perm that both count-only models reject."""
    return max(_scan_cutoff(DecoderModel.rows_only(code), perm),
               _scan_cutoff(DecoderModel.cols_only(code), perm))


CODE_8X8 = build_eii(default_field(4), 8, (2, 3, 3, 4, 4, 5, 5, 6))
SCANNED = [p[:2] for p in PINNED] + [(DecoderModel.iterative(CODE_8X8), None)]


@pytest.mark.parametrize("model,shape", SCANNED,
                         ids=[p[0].kind for p in PINNED] + ["Iterative8x8"])
def test_cutoffs_match_a_linear_scan(model, shape):
    # every trial's first uncorrectable prefix, found by a plain scan of
    # the reference permutation, at every limit; for the iterative model
    # the prefix both count-only models reject is a floor under it
    m, n = model.grid_shape(shape)
    want = _cutoffs_at_every_limit(model, shape, 21, 200)
    if model.kind == "Iterative":
        for t, cutoff in enumerate(want):
            perm = _reference_permutation(21, t, m * n)
            assert cutoff >= _count_floor(model.code, perm)
    res = mean_erasures_to_failure(model, shape, trials=200, seed=21)
    assert res.histogram == dict(Counter(want))


DRAWN = {1: build_eii(GF8, 1, (0,)),
         2: build_eii(GF8, 1, (0, 1)),
         35: build_eii(GF8, 7, (1, 2, 3, 6, 6)),
         64: CODE_8X8,
         100: build_eii(default_field(4), 10, tuple(range(1, 11)))}


@pytest.mark.parametrize("total", sorted(DRAWN))
def test_lazy_draw_matches_randrange_fisher_yates(total):
    # 40 (seed, trial) pairs per size, read to every limit through the
    # rows-only and the cols-only walk; total = 1 and the last step of
    # every full shuffle draw below 1.  On one or two cells every order
    # has the same cutoffs, so those sizes check only the walk's ends
    code = DRAWN[total]
    for seed in (0, 11, 21, 2**62 + 5):
        for model in (DecoderModel.rows_only(code),
                      DecoderModel.cols_only(code)):
            _cutoffs_at_every_limit(model, None, seed, 10)


def test_the_iterative_probe_starts_at_the_count_floor(monkeypatch):
    # _clears is asked once per prefix from the first one both count
    # rules reject up to the cutoff, and about no shorter one
    model = DecoderModel.iterative(CODE)
    m, n = CODE.m, CODE.n
    want = []
    for t in range(100):
        perm = _reference_permutation(3, t, m * n)
        cutoff = min(_scan_cutoff(model, perm), m * n)
        want += range(_count_floor(CODE, perm), cutoff + 1)
    asked, clears = [], sim._clears
    monkeypatch.setattr(sim, "_clears", lambda model, bits, m, n: (
        asked.append(bits.bit_count()) or clears(model, bits, m, n)))
    _cutoffs(model, m, n, 3, 100, m * n)
    assert asked == want


@pytest.mark.parametrize("entries,n", [
    ((1, 1, 2, 5), 5),
    ((0, 0, 1, 3), 3),
    (transpose_profile(make_profile((1, 2, 3, 6, 6), 7)).entries, 5),
    ((2, 2, 2), 2),
], ids=["1125", "zeros", "transposed-5x7", "all-parity"])
def test_count_rule_agrees_with_row_correctable(entries, n):
    # sorted counts sit under the sorted budgets exactly when no count
    # threshold v holds more lines than budgets reach v, on every count
    # vector (every sorted one for the seven-line profile); the walk
    # that keeps those numbers one cell at a time finds the first
    # prefix a plain scan rejects, in either direction
    profile = make_profile(entries, n)
    m = profile.m
    caps = _caps(profile)
    vectors = (product(range(n + 1), repeat=m) if (n + 1) ** m <= 5000
               else combinations_with_replacement(range(n + 1), m))
    for counts in vectors:
        ok = row_correctable(profile, counts)[0]
        assert ok == all(sum(c >= v for c in counts) <= caps[v]
                         for v in range(1, n + 1)), counts
    code = build_eii(GF8, n, entries)
    for model in (DecoderModel.rows_only(code), DecoderModel.cols_only(code)):
        _cutoffs_at_every_limit(model, None, 13, 40)


@pytest.mark.parametrize("h_local,d_global", [(0, 1), (1, 3), (2, 23), (3, 7)])
def test_lrc_residual_walk_matches_clears(h_local, d_global):
    # the residual the walk keeps in O(1) per cell rejects exactly the
    # first prefix _clears rejects, at every limit of seeded draws
    _cutoffs_at_every_limit(DecoderModel.ideal_lrc(8, h_local, d_global),
                            (8, 8), 11, 60)


def _clears_after_an_idle_cycle(model, bits, m, n):
    """The iterative _clears with a later stop: alternate row and column
    steps until the grid empties or a whole row-plus-column cycle
    removes nothing."""
    rows, cols = _line_masks(m, n)
    tprofile = transpose_code(model.code).profile
    while bits:
        before = bits
        bits = _step(model.code.profile, bits, rows)
        if bits:
            bits = _step(tprofile, bits, cols)
            if bits == before:
                return False
    return True


def test_the_peel_stops_at_its_first_idle_step_on_every_4x4_pattern():
    model = DecoderModel.iterative(build_eii(GF8, 4, (1, 1, 2, 4)))
    got = [_clears(model, bits, 4, 4) for bits in range(1 << 16)]
    assert got == [_clears_after_an_idle_cycle(model, bits, 4, 4)
                   for bits in range(1 << 16)]


@pytest.mark.parametrize("code", [build_eii(GF8, 7, (1, 2, 3, 6, 6)),
                                  CODE_8X8], ids=["5x7", "8x8"])
def test_the_peel_stops_at_its_first_idle_step_on_count_floors(code):
    # the patterns the iterative cutoff probes first: 2,000 seeded
    # prefixes that both count rules reject
    m, n = code.m, code.n
    model = DecoderModel.iterative(code)
    rows = _cutoffs(DecoderModel.rows_only(code), m, n, 5, 2000, m * n)
    cols = _cutoffs(DecoderModel.cols_only(code), m, n, 5, 2000, m * n)
    for t, floor in enumerate(map(max, rows, cols)):
        bits = _bits(_reference_permutation(5, t, m * n)[:floor])
        assert (_clears(model, bits, m, n)
                == _clears_after_an_idle_cycle(model, bits, m, n)), t


MONOTONE_CODES = [
    build_eii(GF8, 7, (1, 2, 3, 6, 6)),
    CODE_8X8,
    build_eii(build_aop_field(5), 5, (1, 2, 2, 3)),
    build_eii(GF8, 6, (0, 0, 2, 3, 6)),
]


@pytest.mark.parametrize("code", MONOTONE_CODES,
                         ids=["gf8-5x7", "gf16-8x8", "aop5", "zero-entry"])
@settings(max_examples=100)
@given(data=st.data())
def test_every_model_clears_each_subset_of_a_cleared_pattern(code, data):
    # the cutoff decides a k-cell pattern from its prefixes alone, which
    # holds because each model clears every subset of what it clears;
    # a greedily maximal cleared pattern, less any one cell, still clears
    m, n = code.m, code.n
    order = data.draw(st.permutations(range(m * n)))
    for model in (DecoderModel.rows_only(code), DecoderModel.cols_only(code),
                  DecoderModel.iterative(code),
                  DecoderModel.ideal_lrc(n, 1, n // 2)):
        bits = 0
        for cell in order:
            if _clears(model, bits | 1 << cell, m, n):
                bits |= 1 << cell
        for cell in order:
            if bits >> cell & 1:
                assert _clears(model, bits & ~(1 << cell), m, n), (
                    model.kind, bits, cell)


@pytest.mark.parametrize("model,shape", [p[:2] for p in PINNED],
                         ids=[p[0].kind for p in PINNED])
def test_probability_matches_the_oracle_on_the_first_k_cells(model, shape):
    # the per-trial reference: ask _clears about the first k cells of
    # each trial's draw, on the seed correction_probability gets
    m, n = model.grid_shape(shape)
    perms = [_reference_permutation(17, t, m * n) for t in range(150)]
    for k in range(m * n + 1):
        count = sum(_clears(model, _bits(perm[:k]), m, n) for perm in perms)
        res = correction_probability(model, k, shape, trials=150, seed=17)
        assert res.mean == count / 150, k


def test_lrc_mean_runs_from_shape():
    model = DecoderModel.ideal_lrc(5, 1, 3)
    res = mean_erasures_to_failure(model, shape=(4, 5), trials=300, seed=5)
    assert 4 <= res.mean <= 15
    # a budget that covers the whole grid never fails, so every trial
    # reports mn + 1
    model = DecoderModel.ideal_lrc(5, 1, 20)
    res = mean_erasures_to_failure(model, shape=(4, 5), trials=30, seed=5)
    assert res.histogram == {21: 30}


# -- birthday expectation ------------------------------------------------

def test_birthday_expected_small_closed_forms():
    assert birthday_expected(1) == 2.0
    assert birthday_expected(2) == 2.5
    assert abs(birthday_expected(365) - 24.616585894598852) < 1e-12
    with pytest.raises(ValueError, match="m >= 1"):
        birthday_expected(0)


@pytest.mark.parametrize("m", [2, 5, 10])
def test_birthday_expected_matches_integral_form(m):
    # E = integral of exp(-t) * (1 + t/m)^m dt, evaluated by Simpson
    top = 60.0 + 10.0 * m
    steps = 40000
    hstep = top / steps
    total = 0.0
    for i in range(steps + 1):
        t = i * hstep
        w = 1 if i in (0, steps) else (4 if i % 2 else 2)
        total += w * math.exp(-t) * (1.0 + t / m) ** m
    total *= hstep / 3.0
    assert abs(total - birthday_expected(m)) < 1e-9


def test_birthday_matches_a_direct_simulation():
    import random
    m = 10
    rng = random.Random(42)
    trials = 4000
    acc = 0
    for _ in range(trials):
        seen = set()
        draws = 0
        while True:
            draws += 1
            v = rng.randrange(m)
            if v in seen:
                break
            seen.add(v)
        acc += draws
    mc = acc / trials
    assert abs(mc - birthday_expected(m)) < 0.15
