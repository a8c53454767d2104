"""Decoder models, Monte Carlo harness, birthday expectation."""

from __future__ import annotations

import math
import random
from functools import partial
from itertools import combinations_with_replacement, islice, product

import pytest
from hypothesis import given, settings, strategies as st

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
    _count_cutoff,
    _cutoff,
    _draw,
    _line_ids,
    _lrc_cutoff,
    _trial_rng,
    _trials,
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
    """The draw as a plain Fisher-Yates shuffle over randrange, kept as
    the reference the drivers' lazy draw must reproduce."""
    rng = _trial_rng(seed, trial)
    pool = list(range(total))
    for i in range(total):
        j = rng.randrange(i, total)
        pool[i], pool[j] = pool[j], pool[i]
    return pool


@pytest.mark.parametrize("total", [1, 2, 35, 64, 100])
def test_lazy_draw_matches_randrange_fisher_yates(total):
    # 40 (seed, trial) pairs per size, every prefix read afresh; total
    # = 1 and the last step of every full shuffle draw below 1
    for seed in (0, 11, 21, 2**62 + 5):
        refs = [_reference_permutation(seed, trial, total)
                for trial in range(10)]
        for trial, ref in enumerate(refs):
            assert list(_draw(_trial_rng(seed, trial), total)) == ref
            for k in range(total + 1):
                draw = _draw(_trial_rng(seed, trial), total)
                assert list(islice(draw, k)) == ref[:k]
        # the drivers' one reseeded generator gives every trial the
        # same draw as a fresh generator on its substream
        assert [list(draw) for draw in _trials(seed, 10, total)] == refs


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


def _count_rules(code):
    """The row rule and the column rule of the code, as the count walk
    takes them."""
    rows, cols = _line_ids(code.m, code.n)
    return ((rows, code.m, _caps(code.profile)),
            (cols, code.n, _caps(transpose_code(code).profile)))


CODE_8X8 = build_eii(default_field(4), 8, (2, 3, 3, 4, 4, 5, 5, 6))
SCANNED = [p[:2] for p in PINNED] + [(DecoderModel.iterative(CODE_8X8), None)]


@pytest.mark.parametrize("model,shape", SCANNED,
                         ids=[p[0].kind for p in PINNED] + ["Iterative8x8"])
def test_cutoffs_match_a_linear_scan(model, shape):
    # every trial's first uncorrectable prefix, found by a plain scan of
    # the reference permutation; for the iterative model the prefix both
    # count-only models reject is a floor under it, found by both rules
    m, n = model.grid_shape(shape)
    cut = _cutoff(model, m, n)
    histogram = {}
    for t in range(200):
        perm = _reference_permutation(21, t, m * n)
        cutoff = _scan_cutoff(model, perm, shape)
        histogram[cutoff] = histogram.get(cutoff, 0) + 1
        assert (cut(iter(perm)) or m * n + 1) == cutoff
        if model.kind == "Iterative":
            floor = max(_scan_cutoff(DecoderModel.rows_only(model.code), perm),
                        _scan_cutoff(DecoderModel.cols_only(model.code), perm))
            assert cutoff >= floor
            got = _count_cutoff(*_count_rules(model.code), iter(perm))
            assert (got or m * n + 1) == floor
    res = mean_erasures_to_failure(model, shape, trials=200, seed=21)
    assert res.histogram == histogram


@pytest.mark.parametrize("entries,n", [
    ((1, 1, 2, 5), 5),
    ((0, 0, 1, 3), 3),
    (transpose_profile(make_profile((1, 2, 3, 6, 6), 7)).entries, 5),
    ((2, 2, 2), 2),
], ids=["1125", "zeros", "transposed-5x7", "all-parity"])
def test_count_rule_agrees_with_row_correctable(entries, n):
    # sorted counts sit under the sorted budgets exactly when no count
    # threshold v holds more lines than budgets reach v; the walk that
    # keeps those numbers one cell at a time gives the same verdict on
    # every count vector (every sorted one for the seven-line profile)
    profile = make_profile(entries, n)
    m = profile.m
    caps = _caps(profile)
    rows, _ = _line_ids(m, n)
    vectors = (product(range(n + 1), repeat=m) if (n + 1) ** m <= 5000
               else combinations_with_replacement(range(n + 1), m))
    for counts in vectors:
        ok = row_correctable(profile, counts)[0]
        assert ok == all(sum(c >= v for c in counts) <= caps[v]
                         for v in range(1, n + 1)), counts
        cells = [r * n + c for r, k in enumerate(counts) for c in range(k)]
        assert ok == (_count_cutoff((rows, m, caps), None, cells) is None)


@pytest.mark.parametrize("h_local,d_global", [(0, 1), (1, 3), (2, 23), (3, 7)])
def test_lrc_residual_walk_matches_clears(h_local, d_global):
    # the residual the walk keeps in O(1) per cell rejects exactly the
    # first prefix _clears rejects, on every prefix of seeded draws
    model = DecoderModel.ideal_lrc(8, h_local, d_global)
    rows, _ = _line_ids(8, 8)
    for t in range(60):
        perm = _reference_permutation(11, t, 64)
        want = next((k for k in range(1, 65)
                     if not _clears(model, _bits(perm[:k]), 8, 8)), 65)
        assert (_lrc_cutoff(model, 8, rows, iter(perm)) or 65) == want


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
    for k in range(m * n + 1):
        count = sum(_clears(model, _bits(islice(draw, k)), m, n)
                    for draw in _trials(17, 150, m * n))
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
