"""Tests of the benchmark itself: schema, tracer fidelity, generators.

    python3 -m pytest -q bench/test_bench.py

Each traced run replays its ops untraced first and fails its own check
when any traced output differs, so a wrapper that changed behaviour, or
one patched at the wrong import site, shows up here as a failed run or as
a layer with no calls.
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

run.use_checkout_sources()

import epcodes  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from epcodes import eii, sim  # noqa: E402

# per workload, layers whose count must be nonzero in a traced run
ACTIVE = {
    "codec-erasure": ["gf.mul_calls_per_op", "gf.alpha_pow_calls_per_op",
                      "linalg.rref.calls_per_op", "linalg.rref.calls_setup",
                      "rs.erasure_decode.calls_per_op", "rs.syndromes.calls_per_op",
                      "eii.decode_rows.calls_per_op", "eii.encode.self_ms_per_op",
                      "eii.encode.cold_s", "layout.iterative_decode.passes_per_op",
                      "layout.transpose_code.calls_per_op", "gf.mul_calls_setup"],
    "codec-errors": ["gf.mul_calls_per_op", "gf.field_build_s",
                     "linalg.rref.calls_per_op",
                     "rs.erasure_decode.calls_per_op",
                     "rs.error_erasure_decode.calls_per_op",
                     "rs.syndromes.calls_per_op", "eii.decode_rows.calls_per_op",
                     "eii.is_codeword.self_ms_per_op",
                     "layout.transpose_code.calls_per_op",
                     "layout.encode_balanced.self_ms_per_op",
                     "errmode.decode_errors_erasures.self_ms_per_op",
                     "errmode.fallback_ratio"],
    "monte-carlo": ["sim.row_correctable.calls_per_trial",
                    "sim.driver.self_us_per_trial", "sim.rows.trials_per_s",
                    "sim.cols.trials_per_s", "sim.iterative.trials_per_s",
                    "sim.lrc.trials_per_s"],
    "cli-roundtrip": ["gf.mul_calls_per_op", "linalg.rref.calls_per_op",
                      "rs.erasure_decode.calls_per_op",
                      "eii.decode_rows.calls_per_op", "eii.encode.self_ms_per_op",
                      "layout.iterative_decode.passes_per_op",
                      "layout.transpose_code.calls_per_op",
                      "cli.main.self_ms_per_op", "cli.grid_from_json.ms_per_op",
                      "cli.grid_to_json.ms_per_op"],
}

# counts, not times: these must repeat exactly for a fixed seed
EXACT = [k for k in run.LAYER_UNITS
         if k.endswith(("calls_per_op", "calls_per_trial", "calls_setup",
                        "passes_per_op", "rotations_per_op", "_ratio"))
         and not k.startswith("trace.")]


def traced(name):
    result, _ = run.run_workload(name, seed=7, seconds=None, trace=1,
                                 count=run.SMOKE_OPS, dump=False)
    return result


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def two_traced_runs(request):
    return request.param, traced(request.param), traced(request.param)


def test_smoke_mode_passes():
    assert run.smoke() == 0


def test_traced_outputs_match_untraced(two_traced_runs):
    name, first, second = two_traced_runs
    for result in (first, second):
        assert result["correct"], name
        assert result["failed"] == 0, name


def test_counts_repeat_exactly(two_traced_runs):
    name, first, second = two_traced_runs
    for key in EXACT:
        assert first["metrics"][key] == second["metrics"][key], (name, key)


def test_listed_layers_are_active(two_traced_runs):
    name, first, _ = two_traced_runs
    for key in ACTIVE[name]:
        assert first["metrics"][key]["value"] > 0, (name, key)


def test_monte_carlo_makes_no_field_calls():
    metrics = traced("monte-carlo")["metrics"]
    for key in ("gf.mul_calls_per_op", "gf.inv_calls_per_op",
                "gf.alpha_pow_calls_per_op", "linalg.rref.calls_per_op",
                "rs.erasure_decode.calls_per_op"):
        assert metrics[key]["value"] == 0, key


def test_uninstall_restores_the_library():
    before = {(id(owner), attr): owner.__dict__[attr]
              for owner, attr, _ in tracing.SPAN_SITES + tracing.COUNT_SITES}
    tracer = tracing.Tracer()
    tracer.install()
    assert epcodes.layout.iterative_decode is not before[
        (id(epcodes.layout), "iterative_decode")]
    tracer.uninstall()
    for owner, attr, _ in tracing.SPAN_SITES + tracing.COUNT_SITES:
        assert owner.__dict__[attr] is before[(id(owner), attr)], attr


def test_failed_ratio():
    assert run.failed_ratio(0, 3) == 0.0
    assert run.failed_ratio(3, 12) == 0.25


@pytest.mark.parametrize("seed", [1, 2])
def test_generated_patterns_have_their_kind(seed):
    """The generators' own oracle agrees with the library's."""
    wl = workloads.CodecErasure(seed)
    wl.setup()
    models = {"rows": sim.DecoderModel.rows_only(wl.code),
              "iterative": sim.DecoderModel.iterative(wl.code)}
    for i in range(40):
        inp = wl.make_input(i)
        assert len(set(inp.cells)) == len(inp.cells)
        rows = sim.correctable(models["rows"], inp.cells)
        both = sim.correctable(models["iterative"], inp.cells)
        assert rows == workloads.rows_only_ok(workloads.BIG_PROFILE, inp.cells)
        expected = {"scattered": (True, True), "burst": (True, True),
                    "columns": (False, True), "beyond": (False, False)}
        assert (rows, both) == expected[inp.kind], (i, inp.kind)
        if inp.kind == "scattered":
            counts = [sum(1 for r, _ in inp.cells if r == row) for row in range(16)]
            assert max(counts) <= eii.Profile(workloads.BIG_PROFILE, 32).levels[0]


def test_inputs_depend_only_on_seed_and_index():
    first, second, other = (workloads.CodecErrors(s) for s in (5, 5, 6))
    for wl in (first, second, other):
        wl.setup()
    for i in (0, 1, 2, 17):
        assert first.make_input(i) == second.make_input(i)
    assert first.make_input(0) != other.make_input(0)
