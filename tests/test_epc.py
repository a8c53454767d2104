"""Product-code parameters, distance bounds, constructions, search."""

from __future__ import annotations

import itertools
import random

import pytest

from epcodes.eii import Profile, build_eii
from epcodes.epc import (
    EmptyRange,
    EpcParams,
    FieldTooSmall,
    OrderTooSmall,
    ParameterOutOfRange,
    TooLarge,
    distance_bound,
    epc_params,
    exhaustive_min_distance,
    global_parity_matrix,
    global_parity_required_degree,
    lrc_bound,
    matrix_erasure_decode,
    optimal_two_level_code,
    power_matrix_det_degree,
    two_global_parity_matrix,
)
from epcodes.gf import build_aop_field, build_field, default_field
from epcodes.linalg import ParityMatrix, rank
from epcodes.rs import build_rs

GF8 = default_field(3)
GF16 = default_field(4)


# -- parameters ----------------------------------------------------------

def test_params_validation():
    EpcParams(4, 5, 0, 0, 0)
    with pytest.raises(ParameterOutOfRange):
        EpcParams(4, 5, 4, 0, 0)
    with pytest.raises(ParameterOutOfRange):
        EpcParams(4, 5, 0, 5, 0)
    with pytest.raises(ParameterOutOfRange):
        EpcParams(4, 5, 0, 0, -1)


def test_profile_parameter_extraction():
    assert epc_params(Profile((1, 1, 3, 4, 7, 7), 7)) == EpcParams(6, 7, 2, 1, 5)
    assert epc_params(Profile((1, 1, 2, 5), 5)) == EpcParams(4, 5, 1, 1, 1)
    # no full-parity rows and a flat profile: everything is local
    assert epc_params(Profile((2, 2, 2), 6)) == EpcParams(3, 6, 0, 2, 0)


# -- bounds --------------------------------------------------------------

def test_distance_bound_scans_the_column_split():
    params = EpcParams(5, 8, 2, 3, 3)
    # splits over a = 2, 3, 4 give 20, 22, 21; the bound takes the least
    assert distance_bound(params) == 20


def test_distance_bound_more_values():
    assert distance_bound(EpcParams(6, 7, 2, 1, 5)) == 15
    assert distance_bound(EpcParams(8, 8, 0, 2, 16)) == 23


def test_distance_bound_empty_range():
    with pytest.raises(EmptyRange):
        distance_bound(EpcParams(4, 4, 3, 3, 3))


def test_single_parity_rows_and_columns_table_spot_checks():
    big = 10 ** 6
    expected = {0: 4, 1: 6, 2: 8, 3: 9, 13: 23}
    for g, d in expected.items():
        assert distance_bound(EpcParams(big, big, 1, 1, g)) == d


def test_lrc_bound_values():
    assert lrc_bound(8, 2, 16) == 23
    assert lrc_bound(8, 2, 0) == 3
    assert lrc_bound(5, 1, 3) == 5
    with pytest.raises(ParameterOutOfRange):
        lrc_bound(4, 4, 1)


# -- constructions -------------------------------------------------------

def test_two_level_construction_meets_its_own_bound():
    code = optimal_two_level_code(GF8, 4, 6, 1, 2, 1)
    assert code.profile == Profile((2, 2, 3, 6), 6)
    d = code.min_distance()
    assert d == (2 + 1 + 1) * (1 + 1)
    assert d == distance_bound(epc_params(code.profile))


def test_two_level_construction_preconditions():
    with pytest.raises(ParameterOutOfRange):
        optimal_two_level_code(GF8, 4, 6, 3, 3, 1)  # v = m-1
    with pytest.raises(ParameterOutOfRange):
        optimal_two_level_code(GF8, 4, 6, 2, 1, 1)  # v > h
    with pytest.raises(ParameterOutOfRange):
        optimal_two_level_code(GF8, 4, 6, 1, 3, 3)  # h + g = n
    with pytest.raises(ParameterOutOfRange):
        optimal_two_level_code(GF8, 4, 7, 1, 2, 3)  # g over the cap


def test_two_global_parity_matrix_shape_and_guards():
    H = two_global_parity_matrix(GF16, 3, 3)
    assert H.num_rows == 8 and H.num_cols == 9
    with pytest.raises(ParameterOutOfRange):
        two_global_parity_matrix(GF16, 2, 5)
    with pytest.raises(OrderTooSmall):
        two_global_parity_matrix(GF16, 4, 4)  # alpha order 15 < 16
    two_global_parity_matrix(default_field(5), 4, 4)


def test_global_parity_matrix_needs_a_big_field():
    assert global_parity_required_degree(3, 3, 2) == 23
    with pytest.raises(FieldTooSmall):
        global_parity_matrix(GF16, 3, 3, 2)
    H = global_parity_matrix(default_field(23), 3, 3, 2)
    assert H.num_rows == 8 and H.num_cols == 9


def test_matrix_erasure_decode_fills_unknowns():
    code = build_rs(GF8, 7, 3)
    H = code.parity_check()
    rng = random.Random(40)
    word = [rng.randrange(8) for _ in range(7)]
    full = code.erasure_decode(word, [4, 5, 6])
    batter: list = list(full)
    batter[1] = None
    batter[5] = None
    assert matrix_erasure_decode(H, batter) == full
    # inconsistent fully known word
    bad = list(full)
    bad[0] ^= 1
    assert matrix_erasure_decode(H, bad) is None
    # more unknowns than checks
    batter = [None] * 4 + list(full[4:])
    assert matrix_erasure_decode(H, batter) is None


# -- determinant degrees -------------------------------------------------

def test_power_matrix_det_degree_values():
    assert power_matrix_det_degree([22, 23, 32], 3) == 164
    assert power_matrix_det_degree([5], 1) == 5
    assert power_matrix_det_degree([0, 1], 2) == 2


def test_power_matrix_det_degree_validation():
    with pytest.raises(ValueError):
        power_matrix_det_degree([1, 2], 3)
    with pytest.raises(ValueError):
        power_matrix_det_degree([2, 2], 2)
    with pytest.raises(ValueError):
        power_matrix_det_degree([-1, 3], 2)


# -- exhaustive search ---------------------------------------------------

def test_exhaustive_distance_of_plain_rs_matrix():
    code = build_rs(GF8, 7, 3)
    assert exhaustive_min_distance(code.parity_check(), 7) == 4


def test_exhaustive_distance_of_array_code():
    code = build_eii(GF8, 5, (1, 1, 2, 5))
    assert exhaustive_min_distance(code, 20) == code.min_distance() == 6


def test_exhaustive_cap_returns_cap_plus_one():
    code = build_rs(GF8, 7, 3)
    assert exhaustive_min_distance(code.parity_check(), 2) == 3


def test_exhaustive_refuses_oversized_searches():
    H = ParityMatrix(GF8, [[1] * 40])
    with pytest.raises(TooLarge):
        exhaustive_min_distance(H, 40)


def test_exhaustive_on_dependent_columns():
    H = ParityMatrix(GF8, [[1, 1, 0], [0, 0, 1]])
    assert exhaustive_min_distance(H, 3) == 2
    Z = ParityMatrix(GF8, [[1, 0, 0], [0, 1, 0]])
    assert exhaustive_min_distance(Z, 3) == 1  # zero column fails alone


def _dense_min_distance(H, cap):
    """Smallest w with some w columns of dense rank below w, else cap + 1."""
    for w in range(1, cap + 1):
        for cols in itertools.combinations(range(H.num_cols), w):
            if rank(H.ctx, [[row[j] for j in cols] for row in H.rows]) < w:
                return w
    return cap + 1


def test_exhaustive_distance_matches_dense_rank_reference():
    fields = [default_field(2), GF8, build_aop_field(5),
              build_field(3, 0b1011, "polynomial"),
              build_field(4, 0b10011, "polynomial")]
    rng = random.Random(2017)
    for ctx in fields:
        for _ in range(24):
            n = rng.randint(2, 9)
            rows = n - rng.randint(0, n - 1)  # kernel dimension >= n - rows
            density = rng.choice([0.3, 0.6, 1.0])
            H = ParityMatrix(ctx, [
                [rng.randrange(1, ctx.size) if rng.random() < density else 0
                 for _ in range(n)] for _ in range(rows)])
            cap = rng.randint(1, n)
            assert exhaustive_min_distance(H, cap) == \
                _dense_min_distance(H, cap), (ctx, H.rows, cap)
