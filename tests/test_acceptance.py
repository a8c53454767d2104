"""Acceptance gate for the whole library.

Each test freezes one group of reference behaviors: structural constants,
transpose duality, worked decoding scenarios, exhaustive distance checks at
desk scale, bound tables, optimal constructions, determinant degrees,
balanced layouts, Monte Carlo reliability estimates, and cross-model
properties.  Expected values are frozen constants; tolerances on the
statistical checks are stated inline.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from epcodes.eii import EiiCode, Profile
from epcodes.epc import (
    EpcParams,
    distance_bound,
    epc_params,
    exhaustive_min_distance,
    global_parity_matrix,
    lrc_bound,
    optimal_two_level_code,
    power_matrix_det_degree,
    two_global_parity_matrix,
)
from epcodes.errmode import COMBINED, ROW_PASS, decode_errors_erasures
from epcodes.gf import default_field
from epcodes.layout import balanced_layout, encode_balanced, iterative_decode, transpose_profile
from epcodes.linalg import rank
from epcodes.sim import (
    DecoderModel,
    birthday_expected,
    correctable,
    correction_probability,
    mean_erasures_to_failure,
)

GF8 = default_field(3)
GF16 = default_field(4)

TRIALS = 100_000
SEED = 11


def _random_codeword(code, rng):
    q = 1 << code.ctx.degree
    return code.encode([rng.randrange(q) for _ in range(code.dimension())])


def _erase(grid, coords):
    out = grid.copy()
    for r, c in coords:
        out.erase(r, c)
    return out


def _weight(grid):
    return sum(1 for row in grid.cells for v in row if v)


def _columns_solvable(H, cells):
    """Erasing exactly these cells leaves a uniquely solvable system."""
    sub = [[H.rows[r][j] for j in cells] for r in range(H.num_rows)]
    return rank(H.ctx, sub) == len(cells)


def _random_profiles(count, seed, max_side=10):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m = rng.randint(1, max_side)
        n = rng.randint(1, max_side)
        out.append(Profile(tuple(sorted(rng.randint(0, n)
                                        for _ in range(m))), n))
    return out


SWEEP_PROFILES = _random_profiles(120, seed=17)

PANEL = [
    (Profile((1, 1, 3, 4, 7, 7), 7), GF8),
    (Profile((1, 2, 3, 5), 7), GF8),
    (Profile((1, 1, 2, 5), 5), GF8),
    (Profile((1, 2, 3, 6, 6), 7), GF8),
    (Profile((1, 3, 4, 6, 7), 7), GF8),
    (Profile((3, 3, 4, 7), 7), GF8),
    (Profile((1, 1, 1, 7, 7), 7), GF8),
    (Profile((2, 2, 2), 6), GF8),
    (Profile((1, 2, 3, 4), 4), GF8),
    (Profile((2, 3, 3, 4, 4, 5, 5, 6), 8), GF16),
]


def test_structural_dimensions_and_distances():
    code = EiiCode(Profile((1, 1, 3, 4, 7, 7), 7), GF8)
    assert code.dimension() == 19
    assert code.min_distance() == 10
    assert EiiCode(Profile((1, 3, 4, 6, 7), 7), GF8).min_distance() == 10
    assert EiiCode(Profile((1, 1, 2, 5), 5), GF8).min_distance() == 6
    wide = EiiCode(Profile((2, 3, 3, 4, 4, 5, 5, 6), 8), GF16)
    assert wide.dimension() == 32
    assert wide.min_distance() == 7


def test_transpose_duality_maps_and_involution():
    assert transpose_profile(Profile((1, 2, 3, 5), 7)) == \
        Profile((0, 0, 1, 1, 2, 3, 4), 4)
    assert transpose_profile(Profile((1, 3, 6, 8, 9), 10)) == \
        Profile((0, 1, 2, 2, 3, 3, 3, 4, 4, 5), 5)
    assert transpose_profile(Profile((1, 1, 3, 4, 7, 7), 7)) == \
        Profile((2, 2, 2, 3, 4, 4, 6), 6)
    for prof in SWEEP_PROFILES:
        twice = transpose_profile(transpose_profile(prof))
        assert twice == prof
        assert transpose_profile(prof).parity_count == prof.parity_count


# Two frozen erasure scenarios on 6x7 and 4x7 grids, a three-pass
# row-column alternation on 5x10, and a combined error-and-erasure
# scenario on 6x15 that needs exactly one reordering retry.

SCENARIO_6X7 = [(0, 2),
                (1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
                (2, 1), (2, 2), (2, 4), (2, 6),
                (3, 0), (3, 3), (3, 5),
                (4, 0), (4, 1), (4, 2), (4, 3), (4, 4), (4, 5), (4, 6),
                (5, 5)]

SCENARIO_4X7 = [(0, 0), (0, 3), (0, 5), (0, 6),
                (1, 1), (1, 3),
                (2, 2),
                (3, 0), (3, 1), (3, 5), (3, 6)]

SCENARIO_5X10 = [(0, 0), (0, 4), (0, 5), (0, 7),
                 (1, 1), (1, 2), (1, 4), (1, 5), (1, 6), (1, 7), (1, 9),
                 (2, 8),
                 (3, 0), (3, 1), (3, 2), (3, 5), (3, 6), (3, 7), (3, 8), (3, 9),
                 (4, 0), (4, 1), (4, 2), (4, 5), (4, 6), (4, 7), (4, 9)]

SCENARIO_6X15_ERRORS = {0: (1, 5, 8, 11), 1: (4,), 2: (1, 4, 7, 11, 13),
                        3: (5, 11), 4: (1,), 5: (3, 6)}
SCENARIO_6X15_ERASURES = {1: (8,), 4: (11,), 5: (1, 5, 11, 13)}


def test_worked_decoding_scenarios():
    # 6x7: two fully erased rows plus scattered damage, cleared through
    # the weighted-combination system in a single row-stage call.
    code = EiiCode(Profile((1, 1, 3, 4, 7, 7), 7), GF8)
    rng = random.Random(2024)
    good = _random_codeword(code, rng)
    rep = code.decode_rows(_erase(good, SCENARIO_6X7))
    assert rep.status == "FullyCorrected"
    assert rep.grid == good
    assert rep.residual == ()

    # 4x7: the row stage recovers exactly the two lightest rows and
    # leaves eight cells; alternating with column decoding then clears
    # the grid in two passes.
    code = EiiCode(Profile((1, 2, 3, 5), 7), GF8)
    good = _random_codeword(code, rng)
    damaged = _erase(good, SCENARIO_4X7)
    rep = code.decode_rows(damaged)
    assert rep.status == "PartiallyCorrected"
    assert rep.corrected_rows == frozenset({1, 2})
    assert set(rep.residual) == {(r, c) for r, c in SCENARIO_4X7
                                 if r in (0, 3)}
    assert len(rep.residual) == 8
    rep = iterative_decode(code, damaged)
    assert rep.status == "FullyCorrected"
    assert rep.grid == good
    assert rep.passes == 2

    # 5x10: rows, then columns, then rows again.
    code = EiiCode(Profile((1, 3, 6, 8, 9), 10), GF16)
    good = _random_codeword(code, rng)
    rep = iterative_decode(code, _erase(good, SCENARIO_5X10))
    assert rep.status == "FullyCorrected"
    assert rep.grid == good
    assert rep.passes == 3

    # 6x15 with errors at unknown locations plus masked erasures; the
    # peeling order needs one rotation before every row comes clean.
    code = EiiCode(Profile((3, 3, 5, 8, 8, 15), 15), GF16)
    rng = random.Random(2025)
    good = _random_codeword(code, rng)
    noisy = good.copy()
    for r in sorted(SCENARIO_6X15_ERRORS):
        for c in SCENARIO_6X15_ERRORS[r]:
            noisy.cells[r][c] ^= rng.randrange(1, 16)
    for r in sorted(SCENARIO_6X15_ERASURES):
        for c in SCENARIO_6X15_ERASURES[r]:
            noisy.erase(r, c)
    rep = decode_errors_erasures(code, noisy)
    assert rep.status == "Corrected"
    assert rep.grid == good
    assert rep.rotations == 1
    assert not rep.fallback_used
    assert rep.row_outcomes == (COMBINED, ROW_PASS, COMBINED,
                                COMBINED, ROW_PASS, COMBINED)


def test_exhaustive_distance_matches_formula_at_desk_scale():
    # Every profile on grids of up to 20 cells with sides up to 7: the
    # closed-form minimum distance must agree with exhaustive search.
    # All-parity profiles have no formula and only the zero codeword.
    total = 0
    for m in range(1, 8):
        for n in range(1, 8):
            if m * n > 20:
                continue
            for entries in itertools.combinations_with_replacement(
                    range(n + 1), m):
                prof = Profile(entries, n)
                code = EiiCode(prof, GF8)
                if prof.t == 0:
                    assert exhaustive_min_distance(code, m * n) == m * n + 1
                else:
                    d = prof.min_distance()
                    assert exhaustive_min_distance(code, d) == d, (entries, n)
                total += 1
    assert total == 986

    # A 4x5 code of distance 6: every possible 5-cell loss pattern must
    # leave a uniquely solvable system.
    code = EiiCode(Profile((1, 1, 2, 5), 5), GF8)
    H = code.assembled_parity_matrix()
    checked = 0
    for cells in itertools.combinations(range(20), 5):
        assert _columns_solvable(H, cells), cells
        checked += 1
    assert checked == 15504


def test_distance_bound_tables():
    # 5x8 grid, two column parities, three row parities, three extra:
    # the three feasible column counts give 20, 22, 21; the bound is
    # their minimum.
    params = EpcParams(5, 8, 2, 3, 3)
    candidates = []
    for a in range(2, 5):
        b = (params.g + 1) // a
        r = params.g + 1 - a * b
        d = (params.v + b) * (params.h + a)
        if r:
            d += params.h + r
        candidates.append(d)
    assert candidates == [20, 22, 21]
    assert distance_bound(params) == 20

    big = 10 ** 6
    table = [distance_bound(EpcParams(big, big, 1, 1, g))
             for g in range(14)]
    assert table == [4, 6, 8, 9, 11, 12, 14, 15, 16, 18, 19, 20, 22, 23]

    assert lrc_bound(8, 2, 16) == 23


def test_optimal_constructions_meet_the_bound():
    # Sweep every valid two-level construction on grids with sides up
    # to 9: the advertised distance must equal the bound for its own
    # parameters, and the parameter extraction must round-trip.
    cases = 0
    for m in range(2, 10):
        for n in range(2, 10):
            for v in range(0, m - 1):
                for h in range(v, n):
                    cap = -((h - v + 1) // -(v + 1))
                    for g in range(1, cap + 1):
                        if h + g >= n:
                            break
                        code = optimal_two_level_code(GF16, m, n, v, h, g)
                        params = epc_params(code.profile)
                        assert params == EpcParams(m, n, v, h, g)
                        assert code.min_distance() == distance_bound(params)
                        cases += 1
    assert cases > 1000

    # Product checks plus two power rows on a 3x3 grid: minimum
    # distance exactly 8, shown both ways.
    H2 = two_global_parity_matrix(GF16, 3, 3)
    assert (H2.num_rows, H2.num_cols) == (8, 9)
    assert exhaustive_min_distance(H2, 9) == 8
    sevens = 0
    for cells in itertools.combinations(range(9), 7):
        assert _columns_solvable(H2, cells)
        sevens += 1
    assert sevens == 36
    stuck = [cells for cells in itertools.combinations(range(9), 8)
             if not _columns_solvable(H2, cells)]
    assert stuck, "expected at least one unsolvable 8-cell pattern"

    # Consecutive-power global parities need a much larger field; at
    # the required degree every 7-cell pattern on the 3x3 grid solves.
    Hg = global_parity_matrix(default_field(23), 3, 3, 2)
    for cells in itertools.combinations(range(9), 7):
        assert _columns_solvable(Hg, cells)

    # Same distance, different reach: the array code clears a pattern
    # of two 3-erasure rows plus a 2-erasure row, while the
    # two-power-row matrix leaves it underdetermined.
    pattern = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
               (2, 0), (2, 1)]
    code = EiiCode(Profile((1, 2, 3, 4), 4), GF8)
    assert epc_params(code.profile) == EpcParams(4, 4, 1, 1, 3)
    good = _random_codeword(code, random.Random(7))
    rep = code.decode_rows(_erase(good, pattern))
    assert rep.status == "FullyCorrected"
    assert rep.grid == good
    H2w = two_global_parity_matrix(default_field(5), 4, 4)
    assert not _columns_solvable(H2w, [r * 4 + c for r, c in pattern])


def _det_degree_oracle(exponents):
    """Degree of the determinant of the power matrix, by expansion.

    Entry (i, s) is x**((i+1)*exponents[s]) over the two-element field,
    so the determinant is the parity-folded sum over permutations.
    """
    g = len(exponents)
    acc = 0
    for perm in itertools.permutations(range(g)):
        acc ^= 1 << sum((i + 1) * exponents[perm[i]] for i in range(g))
    return acc.bit_length() - 1


def test_determinant_degree_formula_against_expansion():
    assert power_matrix_det_degree([22, 23, 32], 3) == 164
    assert _det_degree_oracle([22, 23, 32]) == 164
    for g in range(1, 4):
        for exps in itertools.combinations(range(11), g):
            want = _det_degree_oracle(exps)
            assert want >= 0
            assert power_matrix_det_degree(list(exps), g) == want, exps


def test_balanced_layouts_and_column_decodability():
    # Frozen coordinate sets for two 7-column codes.
    lay = balanced_layout(Profile((1, 1, 1, 7, 7), 7))
    assert lay.positions == frozenset(
        [(0, 0), (0, 1), (0, 3), (0, 6),
         (1, 0), (1, 1), (1, 4), (1, 6),
         (2, 0), (2, 2), (2, 4),
         (3, 0), (3, 2), (3, 5),
         (4, 0), (4, 3), (4, 5)])
    lay = balanced_layout(Profile((1, 1, 3, 4, 7, 7), 7))
    assert lay.positions == frozenset(
        [(0, 0), (0, 1), (0, 2), (0, 4),
         (1, 0), (1, 1), (1, 2), (1, 5),
         (2, 0), (2, 1), (2, 3), (2, 5),
         (3, 0), (3, 1), (3, 3), (3, 6),
         (4, 0), (4, 2), (4, 3), (4, 6),
         (5, 0), (5, 2), (5, 4)])

    # Across the random-profile sweep: per-row loads stay within one of
    # each other and a single column pass resolves the parity cells, so
    # systematic encoding through the layout round-trips the data.
    rng = random.Random(23)
    for prof in SWEEP_PROFILES:
        lay = balanced_layout(prof)
        assert lay.is_balanced()
        code = EiiCode(prof, GF16)
        data = [rng.randrange(16) for _ in range(code.dimension())]
        grid = encode_balanced(code, data)
        assert code.is_codeword(grid)
        skip = lay.positions
        readback = [grid.cells[r][c] for r in range(prof.m)
                    for c in range(prof.n) if (r, c) not in skip]
        assert readback == data


# Monte Carlo reliability estimates, all at 100k trials with one fixed
# seed.  Tolerances are at least three standard errors wide.

C_5X7 = EiiCode(Profile((1, 2, 3, 6, 6), 7), GF8)
C_8X8 = EiiCode(Profile((2, 3, 3, 4, 4, 5, 5, 6), 8), GF16)


def _line_survival(budgets, cells):
    """Exact P(j uniformly random erased cells are correctable), j = 0..N,
    when N = len(budgets) * cells cells form lines of `cells` cells that
    are decoded once each, under the sorted-domination rule restated
    here without calling sim.

    The lines all recover exactly when their erasure counts, sorted
    ascending, sit under the ascending budgets position by position.
    The loop walks the sorted count vectors: one stands for as many
    orderings of its counts as the multinomial allows, and each ordering
    e for the product of C(cells, e_i) patterns.  Dividing the survivors
    of size j by C(N, j) gives the probability.
    """
    lines = len(budgets)
    survivors = [0] * (lines * cells + 1)
    for counts in itertools.combinations_with_replacement(range(cells + 1),
                                                          lines):
        if all(e <= b for e, b in zip(counts, budgets)):
            orderings = math.factorial(lines)
            for e in set(counts):
                orderings //= math.factorial(counts.count(e))
            survivors[sum(counts)] += orderings * math.prod(
                math.comb(cells, e) for e in counts)
    return [Fraction(survivors[j], math.comb(lines * cells, j))
            for j in range(lines * cells + 1)]


# Exact rows-only and cols-only references for C_5X7: rows are 5 lines
# of 7 cells under the profile, columns 7 lines of 5 cells under the
# transposed profile.  As for the LRC below, E[cutoff] is the sum of
# P(j survive) over j.  Each seeded estimate must land within four of
# its standard errors, a window narrower than the 0.15 (mean) and 0.01
# (probability) that the iterative references keep.
ROWS_SURVIVAL = _line_survival(C_5X7.profile.entries, 7)
COLS_SURVIVAL = _line_survival(transpose_profile(C_5X7.profile).entries, 5)


def _assert_near_exact(got, exact, window):
    assert 4 * got.std_error <= window
    assert abs(got.mean - exact) <= 4 * got.std_error


def test_monte_carlo_mean_erasures_to_failure():
    exact = float(sum(ROWS_SURVIVAL))
    assert abs(exact - 14.11957) <= 1e-5
    got = mean_erasures_to_failure(DecoderModel.rows_only(C_5X7),
                                   trials=TRIALS, seed=SEED)
    _assert_near_exact(got, exact, 0.15)
    exact = float(sum(COLS_SURVIVAL))
    assert abs(exact - 13.25755) <= 1e-5
    got = mean_erasures_to_failure(DecoderModel.cols_only(C_5X7),
                                   trials=TRIALS, seed=SEED)
    _assert_near_exact(got, exact, 0.15)
    got = mean_erasures_to_failure(DecoderModel.iterative(C_5X7),
                                   trials=TRIALS, seed=SEED)
    assert abs(got.mean - 15.3) <= 0.15
    got = mean_erasures_to_failure(DecoderModel.iterative(C_8X8),
                                   trials=TRIALS, seed=SEED)
    assert abs(got.mean - 30.1) <= 0.15


def test_monte_carlo_correction_probabilities():
    exact = float(ROWS_SURVIVAL[13])
    assert abs(exact - 0.64264) <= 1e-5
    got = correction_probability(DecoderModel.rows_only(C_5X7), 13,
                                 trials=TRIALS, seed=SEED)
    _assert_near_exact(got, exact, 0.01)
    exact = float(COLS_SURVIVAL[13])
    assert abs(exact - 0.49158) <= 1e-5
    got = correction_probability(DecoderModel.cols_only(C_5X7), 13,
                                 trials=TRIALS, seed=SEED)
    _assert_near_exact(got, exact, 0.01)
    got = correction_probability(DecoderModel.iterative(C_5X7), 13,
                                 trials=TRIALS, seed=SEED)
    assert abs(got.mean - 0.84) <= 0.01
    got = correction_probability(DecoderModel.iterative(C_8X8), 27,
                                 trials=TRIALS, seed=SEED)
    assert abs(got.mean - 0.88) <= 0.01


def _lrc_survival(m, n, h_local, d_global):
    """Exact P(j uniformly random erased cells are correctable), j = 0..mn,
    under the idealized LRC rule restated here without calling sim.

    Each of the m rows is a group of n cells.  A group with at most
    h_local erasures repairs locally; every erasure in a heavier group
    counts as residual, and the pattern survives while the residual is
    at most d_global.  A DP over the groups counts the patterns of each
    size j by residual, weighting e erasures in a group by C(n, e);
    dividing the survivors of size j by C(mn, j) gives the probability.
    """
    ways = {(0, 0): 1}
    for _ in range(m):
        grown = {}
        for (j, residual), count in ways.items():
            for e in range(n + 1):
                key = (j + e, residual + (e if e > h_local else 0))
                grown[key] = grown.get(key, 0) + count * math.comb(n, e)
        ways = grown
    survivors = [0] * (m * n + 1)
    for (j, residual), count in ways.items():
        if residual <= d_global:
            survivors[j] += count
    return [Fraction(survivors[j], math.comb(m * n, j))
            for j in range(m * n + 1)]


# Reference LRC: 8x8 grid, two local parities per group and the global
# budget lrc_bound(8, 2, 16) = 23 from the distance bound table above.
LRC_SURVIVAL = _lrc_survival(8, 8, 2, 23)


def test_monte_carlo_lrc_reference_mean():
    # The cutoff exceeds j exactly when the first j erasures are
    # correctable, so E[cutoff] = sum over j = 0..64 of P(j survive).
    # That sum is 27.42528 for the rule above.  Tolerating one residual
    # erasure fewer (residual < d_global) gives 26.699 instead, and
    # P(27) = 0.240, which the probability test below rejects.  The simulated mean's
    # std_error is 0.004, so the 0.02 window is five standard errors wide.
    exact = float(sum(LRC_SURVIVAL))
    assert abs(exact - 27.42528) <= 1e-5
    got = mean_erasures_to_failure(DecoderModel.ideal_lrc(8, 2, 23),
                                   (8, 8), trials=TRIALS, seed=SEED)
    assert 3 * got.std_error <= 0.02
    assert abs(got.mean - exact) <= 0.02


def test_monte_carlo_lrc_reference_probability():
    # The same exact model backs both LRC references.
    assert abs(float(LRC_SURVIVAL[27]) - 0.49749) <= 1e-5
    got = correction_probability(DecoderModel.ideal_lrc(8, 2, 23), 27,
                                 (8, 8), trials=TRIALS, seed=SEED)
    assert abs(got.mean - 0.50) <= 0.02


def test_birthday_surprise_expectation():
    assert 24.55 <= birthday_expected(365) <= 24.65

    # Direct simulation of the arrival process: draw uniform days until
    # one repeats, average the arrival count.
    rng = random.Random(SEED)
    trials = TRIALS
    total = 0
    total_sq = 0
    for _ in range(trials):
        seen = set()
        count = 0
        while True:
            count += 1
            day = rng.randrange(365)
            if day in seen:
                break
            seen.add(day)
        total += count
        total_sq += count * count
    mean = total / trials
    var = (total_sq - trials * mean * mean) / (trials - 1)
    stderr = math.sqrt(var / trials)
    assert abs(mean - birthday_expected(365)) <= 3 * stderr


def test_round_trip_dominance_and_witnesses():
    rng = random.Random(99)
    for prof, ctx in PANEL:
        code = EiiCode(prof, ctx)
        q = 1 << ctx.degree
        rows_model = DecoderModel.rows_only(code)
        cols_model = DecoderModel.cols_only(code)
        iter_model = DecoderModel.iterative(code)

        # Encode, lose cells within the per-row budgets (any assignment
        # of the budget multiset to rows keeps the sorted counts under
        # the profile), decode, compare.  The iterative model must also
        # clear every such pattern.
        for _ in range(1000):
            good = code.encode([rng.randrange(q)
                                for _ in range(code.dimension())])
            counts = [rng.randint(0, e) for e in prof.entries]
            order = list(range(code.m))
            rng.shuffle(order)
            pattern = []
            for slot, r in enumerate(order):
                for c in rng.sample(range(code.n), counts[slot]):
                    pattern.append((r, c))
            rep = code.decode_rows(_erase(good, pattern))
            assert rep.status == "FullyCorrected"
            assert rep.grid == good
            assert correctable(iter_model, pattern)

        # Unconstrained patterns: whatever either one-directional model
        # clears, the alternating model clears too.
        cells = [(r, c) for r in range(code.m) for c in range(code.n)]
        for _ in range(30):
            pattern = rng.sample(cells, rng.randint(0, len(cells)))
            one_way = (correctable(rows_model, pattern)
                       or correctable(cols_model, pattern))
            assert not one_way or correctable(iter_model, pattern)

        # Minimum-weight witnesses at every level: supported on the
        # stated rectangle and inside the code.
        for level in range(prof.t):
            need_rows = prof.suffix_at(level + 1) + 1
            need_cols = prof.levels[level] + 1
            witness = code.min_weight_codeword(
                level, range(code.m - need_rows, code.m),
                range(code.n - need_cols, code.n))
            assert code.is_codeword(witness)
            assert _weight(witness) == need_rows * need_cols

    # Same seed, same result, bit for bit; a different seed moves it.
    small = EiiCode(Profile((1, 1, 2, 5), 5), GF8)
    model = DecoderModel.rows_only(small)
    first = mean_erasures_to_failure(model, trials=1500, seed=5)
    second = mean_erasures_to_failure(model, trials=1500, seed=5)
    assert first == second
    other = mean_erasures_to_failure(model, trials=1500, seed=6)
    assert other.mean != first.mean
