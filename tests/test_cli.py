"""Command line surface: parsing, files, reports, exit codes."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from epcodes import cli
from epcodes.cli import CliError, auto_field, main, parse_code_spec
from epcodes.eii import Profile
from epcodes.gf import default_field


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_props_reports_the_structural_facts(capsys):
    code, out, _ = run(capsys, "props", "--code", "C(7,[1,1,3,4,7,7])")
    assert code == 0
    lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
    assert lines["profile"] == "C(7,[1,1,3,4,7,7])"
    assert lines["field"] == "GF(2^3) modulus 0xb"
    assert lines["k"] == "19"
    assert lines["d"] == "10"
    assert lines["transpose"] == "C(6,[2,2,2,3,4,4,6])"
    assert lines["epc"] == "EP(6,2;7,1;5)"
    assert lines["distance_bound"] == "15"


def test_props_honors_an_explicit_field(capsys):
    code, out, _ = run(capsys, "props", "--code", "C(5,[1,1,2,5])",
                       "--field", "4")
    assert code == 0
    assert "GF(2^4)" in out


def test_bad_code_spec_is_a_usage_error(capsys):
    code, _, err = run(capsys, "props", "--code", "C(5,[2,1])")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "props", "--code", "C(5,[1,2")
    assert code == 2
    assert "position" in err


def test_grid_too_big_for_field_is_a_capability_error(capsys):
    code, _, err = run(capsys, "props", "--code", "C(9,[1,1])",
                       "--field", "3")
    assert code == 3
    assert "capability:" in err


def test_encode_decode_round_trip(tmp_path, capsys):
    grid_file = tmp_path / "grid.json"
    data_file = tmp_path / "data.json"
    payload = [i % 8 for i in range(11)]
    data_file.write_text(json.dumps(payload))
    code, _, _ = run(capsys, "encode", "--code", "C(5,[1,1,2,5])",
                     "--data", str(data_file), "--out", str(grid_file))
    assert code == 0
    doc = json.loads(grid_file.read_text())
    assert doc["m"] == 4 and doc["n"] == 5
    assert doc["field"] == {"degree": 3, "modulus": "b"}
    # punch three holes and decode them back
    doc["cells"][0][4] = None
    doc["cells"][2][3] = None
    doc["cells"][3][0] = None
    grid_file.write_text(json.dumps(doc))
    fixed_file = tmp_path / "fixed.json"
    report_file = tmp_path / "report.json"
    code, _, _ = run(capsys, "decode", str(grid_file),
                     "--code", "C(5,[1,1,2,5])", "--mode", "rows",
                     "--out", str(fixed_file), "--report", str(report_file))
    assert code == 0
    report = json.loads(report_file.read_text())
    assert report["status"] == "FullyCorrected"
    fixed = json.loads(fixed_file.read_text())
    assert None not in [x for row in fixed["cells"] for x in row]
    flat = [int(x, 16) for r, row in enumerate(fixed["cells"])
            for c, x in enumerate(row)
            if c < 5 - (1, 1, 2, 5)[r]]
    assert flat == payload


def _cli_round_trip(tmp_path, capsys, spec, field, clear):
    """encode with --field, erase three cells, decode; the bytes of the
    grid, corrected grid and report files, with the code cache cleared
    after the encode when clear is set."""
    profile = parse_code_spec(spec)
    data_file, grid_file, fixed_file, report_file = (
        tmp_path / name for name in ("data", "grid", "fixed", "report"))
    data_file.write_text(json.dumps([(7 * i + 3) % 16
                                     for i in range(profile.dimension())]))
    assert run(capsys, "encode", "--code", spec, "--field", field,
               "--data", str(data_file), "--out", str(grid_file))[0] == 0
    encoded = grid_file.read_bytes()
    if clear:
        cli._code.cache_clear()
    doc = json.loads(encoded)
    for r, c in [(0, 0), (0, 1), (7, 3)]:
        doc["cells"][r][c] = None
    grid_file.write_text(json.dumps(doc))
    assert run(capsys, "decode", str(grid_file), "--code", spec,
               "--out", str(fixed_file), "--report", str(report_file))[0] == 0
    return encoded, fixed_file.read_bytes(), report_file.read_bytes()


def test_one_process_keeps_its_codes(tmp_path, capsys):
    # an encode and a decode of one spec and field build one code;
    # another spec or field gets its own, and every file is the same as
    # with the cache cleared between the calls
    runs = [("C(8,[2,3,3,4,4,5,5,6])", "4"), ("C(8,[2,3,3,4,4,5,5,6])", "5"),
            ("C(8,[1,2,3,4,4,5,5,6])", "4")]
    cli._code.cache_clear()
    kept = []
    for built, (spec, field) in enumerate(runs, 1):
        kept.append(_cli_round_trip(tmp_path, capsys, spec, field, False))
        info = cli._code.cache_info()
        assert (info.misses, info.hits, info.currsize) == (built, built, built)
    for (spec, field), files in zip(runs, kept):
        cli._code.cache_clear()
        assert _cli_round_trip(tmp_path, capsys, spec, field, True) == files
    assert len(set(kept)) == len(runs)


def test_balanced_encode_and_iterative_decode(tmp_path, capsys):
    grid_file = tmp_path / "grid.json"
    data_file = tmp_path / "data.json"
    data_file.write_text(json.dumps([3] * 19))
    code, _, _ = run(capsys, "encode", "--code", "C(7,[1,1,3,4,7,7])",
                     "--data", str(data_file), "--layout", "balanced",
                     "--out", str(grid_file))
    assert code == 0
    doc = json.loads(grid_file.read_text())
    doc["cells"][5][0] = None
    doc["cells"][0][3] = None
    grid_file.write_text(json.dumps(doc))
    report_file = tmp_path / "report.json"
    code, _, _ = run(capsys, "decode", str(grid_file),
                     "--code", "C(7,[1,1,3,4,7,7])", "--mode", "iterative",
                     "--report", str(report_file))
    assert code == 0
    assert json.loads(report_file.read_text())["status"] == "FullyCorrected"


@pytest.mark.parametrize("errors,erasures,fallback", [
    # row 0 overloads its budget-1 row code and is isolated
    (((0, 1, 3), (0, 5, 6)), ((4, 2),), False),
    # row 0's erasure takes its whole budget, so the row stage fills it
    # around the error; that grid fails the guard, and the transposed
    # code corrects it
    (((0, 0, 1),), ((0, 5),), True),
])
def test_errors_mode_round_trip_inside_the_radius(tmp_path, capsys, errors,
                                                  erasures, fallback):
    # C(7,[1,1,3,4,7,7]) over GF(8) has d = 10; both patterns have
    # 2t + e < d
    spec = "C(7,[1,1,3,4,7,7])"
    grid_file = tmp_path / "grid.json"
    data_file = tmp_path / "data.json"
    data_file.write_text(json.dumps([(5 * i + 1) % 8 for i in range(19)]))
    code, _, _ = run(capsys, "encode", "--code", spec,
                     "--data", str(data_file), "--out", str(grid_file))
    assert code == 0
    sent = json.loads(grid_file.read_text())
    doc = json.loads(grid_file.read_text())
    for r, c, v in errors:
        doc["cells"][r][c] = format(int(doc["cells"][r][c], 16) ^ v, "x")
    for r, c in erasures:
        doc["cells"][r][c] = None
    assert 2 * len(errors) + len(erasures) < 10
    grid_file.write_text(json.dumps(doc))
    fixed_file = tmp_path / "fixed.json"
    report_file = tmp_path / "report.json"
    code, _, _ = run(capsys, "decode", str(grid_file), "--code", spec,
                     "--mode", "errors", "--out", str(fixed_file),
                     "--report", str(report_file))
    assert code == 0
    report = json.loads(report_file.read_text())
    assert report["status"] == "Corrected"
    assert len(report["row_outcomes"]) == 6
    assert isinstance(report["rotations"], int)
    assert report["fallback_used"] is fallback
    assert json.loads(fixed_file.read_text()) == sent


def test_uncorrectable_grid_exits_one(tmp_path, capsys):
    grid_file = tmp_path / "grid.json"
    data_file = tmp_path / "data.json"
    data_file.write_text(json.dumps([0] * 11))
    code, _, _ = run(capsys, "encode", "--code", "C(5,[1,1,2,5])",
                     "--data", str(data_file),
                     "--out", str(grid_file))
    assert code == 0
    doc = json.loads(grid_file.read_text())
    for r in range(4):
        for c in range(5):
            if (r + c) % 2 == 0:
                doc["cells"][r][c] = None
    grid_file.write_text(json.dumps(doc))
    report_file = tmp_path / "report.json"
    code, _, _ = run(capsys, "decode", str(grid_file),
                     "--code", "C(5,[1,1,2,5])", "--mode", "rows",
                     "--report", str(report_file))
    assert code == 1
    report = json.loads(report_file.read_text())
    assert report["status"] in ("PartiallyCorrected", "Failed")
    assert report["residual"]


def test_every_erasure_mode_lists_its_residual_row_major(tmp_path, capsys):
    grid_file = tmp_path / "grid.json"
    data_file = tmp_path / "data.json"
    data_file.write_text(json.dumps([i % 8 for i in range(11)]))
    code, _, _ = run(capsys, "encode", "--code", "C(5,[1,1,2,5])",
                     "--data", str(data_file), "--out", str(grid_file))
    assert code == 0
    doc = json.loads(grid_file.read_text())
    for r in range(3):
        for c in range(2):
            doc["cells"][r][c] = None
    grid_file.write_text(json.dumps(doc))
    want = [[r, c] for r in range(3) for c in range(2)]
    for mode in ("rows", "cols", "iterative"):
        report_file = tmp_path / ("report-%s.json" % mode)
        code, _, _ = run(capsys, "decode", str(grid_file),
                         "--code", "C(5,[1,1,2,5])", "--mode", mode,
                         "--report", str(report_file))
        assert code == 1
        assert json.loads(report_file.read_text())["residual"] == want, mode


@pytest.mark.parametrize("mode", ["rows", "cols", "iterative"])
def test_clean_grid_that_is_not_a_codeword_fails(tmp_path, capsys, mode):
    grid_file = tmp_path / "grid.json"
    data_file = tmp_path / "data.json"
    data_file.write_text(json.dumps([0] * 11))
    code, _, _ = run(capsys, "encode", "--code", "C(5,[1,1,2,5])",
                     "--data", str(data_file),
                     "--out", str(grid_file))
    assert code == 0
    doc = json.loads(grid_file.read_text())
    doc["cells"][2][3] = 1  # no cell erased, one wrong
    grid_file.write_text(json.dumps(doc))
    report_file = tmp_path / "report.json"
    code, _, _ = run(capsys, "decode", str(grid_file),
                     "--code", "C(5,[1,1,2,5])", "--mode", mode,
                     "--report", str(report_file))
    assert code == 1
    assert json.loads(report_file.read_text())["status"] == "Failed"


def test_layout_command_emits_coordinates(capsys):
    code, out, _ = run(capsys, "layout", "--code", "C(7,[1,1,1,7,7])",
                       "--layout", "balanced")
    assert code == 0
    doc = json.loads(out)
    assert doc["style"] == "balanced"
    coords = {tuple(p) for p in doc["positions"]}
    assert len(coords) == 17
    counts = [0] * 5
    for r, _ in coords:
        counts[r] += 1
    assert max(counts) - min(counts) <= 1


def test_bound_table_and_csv(tmp_path, capsys):
    code, out, _ = run(capsys, "bound", "--epc", "5,2;8,3", "--g", "3")
    assert code == 0
    assert out.splitlines()[0].split() == ["g", "bound"]
    assert out.splitlines()[1].split() == ["3", "20"]
    csv_file = tmp_path / "table.csv"
    code, _, _ = run(capsys, "bound", "--epc", "m,1;n,1", "--g", "0..3",
                     "--out", str(csv_file))
    assert code == 0
    rows = [line.split(",") for line in
            csv_file.read_text().strip().splitlines()]
    assert rows[0] == ["g", "bound"]
    assert [r[1] for r in rows[1:]] == ["4", "6", "8", "9"]


def test_bound_names_a_bad_parity_count(capsys):
    code, _, err = run(capsys, "bound", "--epc", "3,x;3,1", "--g", "1")
    assert code == 2
    assert "bad parity count 'x'" in err


def test_bound_rejects_malformed_range(capsys):
    code, _, err = run(capsys, "bound", "--epc", "5,2;8,3", "--g", "x..y")
    assert code == 2
    assert "error:" in err


def test_simulate_emits_a_seeded_record(capsys):
    code, out, _ = run(capsys, "simulate", "--code", "C(5,[1,1,2,5])",
                       "--mode", "rows", "--trials", "200", "--seed", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["model"] == "RowsOnly"
    assert doc["profile"] == "C(5,[1,1,2,5])"
    assert doc["metric"] == "mean_erasures_to_failure"
    assert doc["trials"] == 200 and doc["seed"] == 6
    assert 2 < doc["mean"] < 20
    again = run(capsys, "simulate", "--code", "C(5,[1,1,2,5])",
                "--mode", "rows", "--trials", "200", "--seed", "6")
    assert json.loads(again[1])["mean"] == doc["mean"]


def test_simulate_probability_and_histogram(tmp_path, capsys):
    hist_file = tmp_path / "hist.csv"
    code, out, _ = run(capsys, "simulate", "--code", "C(5,[1,1,2,5])",
                       "--mode", "iterative", "--trials", "300",
                       "--seed", "8", "--histogram", str(hist_file))
    assert code == 0
    rows = [line.split(",") for line in
            hist_file.read_text().strip().splitlines()]
    assert rows[0] == ["erasures", "count"]
    assert sum(int(r[1]) for r in rows[1:]) == 300
    code, out, _ = run(capsys, "simulate", "--code", "C(5,[1,1,2,5])",
                       "--mode", "iterative", "--trials", "300",
                       "--seed", "8", "--erasures", "4")
    doc = json.loads(out)
    assert doc["metric"] == "correction_probability"
    assert doc["erasures"] == 4
    assert 0.0 <= doc["mean"] <= 1.0


@pytest.mark.parametrize("argv", [
    ["encode", "--code", "C(5,[1,1,2,5])", "--data", "{data}",
     "--out", "{bad}"],
    ["decode", "{grid}", "--code", "C(5,[1,1,2,5])", "--out", "{bad}"],
    ["decode", "{grid}", "--code", "C(5,[1,1,2,5])", "--report", "{bad}"],
    ["layout", "--code", "C(5,[1,1,2,5])", "--out", "{bad}"],
    ["bound", "--epc", "5,2;8,3", "--g", "3", "--out", "{bad}"],
    ["simulate", "--code", "C(5,[1,1,2,5])", "--trials", "5",
     "--out", "{bad}"],
    ["simulate", "--code", "C(5,[1,1,2,5])", "--trials", "5",
     "--histogram", "{bad}"],
], ids=["encode-out", "decode-out", "decode-report", "layout-out",
        "bound-out", "simulate-out", "simulate-histogram"])
@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, argv, where):
    data = tmp_path / "data.json"
    data.write_text(json.dumps([1] * 11))
    grid = tmp_path / "grid.json"
    assert run(capsys, "encode", "--code", "C(5,[1,1,2,5])",
               "--data", str(data), "--out", str(grid))[0] == 0
    bad = tmp_path / "missing" / "out" if where == "missing-dir" else tmp_path
    argv = [a.format(data=data, grid=grid, bad=bad) for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: cannot write %s" % bad)


def test_simulate_lrc_model_needs_shape(capsys):
    code, out, _ = run(capsys, "simulate", "--lrc", "5,1,3",
                       "--shape", "4,5", "--trials", "200", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["model"] == "IdealLrc"
    code, _, err = run(capsys, "simulate", "--lrc", "5,1,3",
                       "--trials", "10")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["--code", "C(7,[1,2,3,6,6])", "--shape", "3,3"],
    ["--code", "C(7,[1,2,3,6,6])", "--shape", "7,5"],
    ["--code", "C(7,[1,2,3,6,6])", "--shape", "5"],
    ["--code", "C(7,[1,2,3,6,6])", "--mode", "cols", "--lrc", "8,2,23",
     "--shape", "8,8"],
    ["--code", "C(7,[1,2,3,6,6])", "--lrc", "8,2,23", "--shape", "8,8"],
    ["--lrc", "8,2,23", "--shape", "8,8", "--mode", "rows"],
    ["--lrc", "8,2", "--shape", "8,8"],
    ["--code", "C(7,[1,2,3,6,6])", "--erasures", "4", "--histogram", "{h}"],
], ids=["code-shape-3x3", "code-shape-transposed", "code-shape-one-number",
        "code-mode-and-lrc", "code-and-lrc", "lrc-and-mode", "lrc-two-numbers",
        "probability-histogram"])
def test_simulate_rejects_flags_it_would_drop(tmp_path, capsys, argv):
    # a shape that disagrees with the code, a code or mode given with the
    # LRC model, or a histogram of a probability run, is an error rather
    # than silently ignored
    hist = tmp_path / "hist.csv"
    argv = [a.format(h=hist) for a in argv]
    code, out, err = run(capsys, "simulate", *argv, "--trials", "10")
    assert not hist.exists()
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_simulate_accepts_the_code_shape(capsys):
    argv = ["simulate", "--code", "C(7,[1,2,3,6,6])", "--trials", "50",
            "--seed", "4"]
    code, out, _ = run(capsys, *argv, "--shape", "5,7")
    assert code == 0
    assert out == run(capsys, *argv)[1]
    assert json.loads(out)["model"] == "Iterative"


@pytest.mark.parametrize("shape", ["-2,8", "0,8"])
def test_simulate_lrc_shape_without_rows_is_a_usage_error(capsys, shape):
    code, out, err = run(capsys, "simulate", "--lrc", "8,2,23",
                         "--shape=" + shape, "--trials", "10")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("m,n,cells", [
    (4, 5, 5),              # cells is not a list of rows
    (1, 5, [7]),            # a row is not a list
    (1, 1, [[[1]]]),        # a cell is neither hex nor an integer
    # a float or a bool is not an integer, though int() would take it;
    # the grids fit the code so that only the cell can be at fault
    (4, 5, [[1.9, 0, 0, 0, 0]] + [[0] * 5] * 3),
    (4, 5, [[True, 0, 0, 0, 0]] + [[0] * 5] * 3),
])
def test_malformed_grid_cells_are_usage_errors(tmp_path, capsys, m, n, cells):
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps(
        {"m": m, "n": n, "field": {"degree": 3, "modulus": "b"},
         "cells": cells}))
    code, _, err = run(capsys, "decode", str(grid_file),
                       "--code", "C(5,[1,1,2,5])")
    assert code == 2
    assert err.startswith("error:")


def test_null_data_symbol_is_a_usage_error(tmp_path, capsys):
    data_file = tmp_path / "data.json"
    # a bool is no symbol either, though int() would take it
    for bad in (None, True):
        data_file.write_text(json.dumps([1, bad, 3] + [0] * 8))
        code, _, err = run(capsys, "encode", "--code", "C(5,[1,1,2,5])",
                           "--data", str(data_file))
        assert code == 2
        assert "bad symbol %r" % (bad,) in err


# -- malformed grid files --------------------------------------------------

def _valid_grid_doc():
    """A 4x5 GF(8) grid document for C(5,[1,1,2,5]), one cell erased."""
    cells = [[format((3 * r + c) % 8, "x") for c in range(5)] for r in range(4)]
    cells[1][2] = None
    return {"m": 4, "n": 5, "field": {"degree": 3, "modulus": "b"},
            "cells": cells}


# text that is neither a number nor a hex symbol
_junk_text = st.text(alphabet="ghqxyz!. ", min_size=1, max_size=4)
_junk = st.one_of(st.none(), _junk_text, st.lists(st.integers(), max_size=2),
                  st.dictionaries(_junk_text, st.integers(), max_size=2))


@st.composite
def malformed_grid_docs(draw):
    """A grid document with one defect that makes it unusable."""
    doc = _valid_grid_doc()
    kind = draw(st.sampled_from(["top", "key", "field", "degree", "modulus",
                                 "shape", "cells", "rows", "ragged", "cell"]))
    if kind == "top":
        return draw(st.one_of(_junk, st.integers()))
    if kind == "key":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif kind == "field":
        doc["field"] = draw(st.one_of(_junk, st.integers()))
    elif kind == "degree":
        doc["field"]["degree"] = draw(st.one_of(
            _junk, st.floats(), st.booleans(),
            st.integers(-3, 8).filter(lambda d: d != 3)))
    elif kind == "modulus":
        # only 0xb and 0xd are irreducible of degree 3; a negative
        # modulus is rejected before any polynomial arithmetic
        doc["field"]["modulus"] = draw(st.one_of(_junk, st.integers(
            -64, 64).filter(lambda v: v not in (11, 13)).map("{:x}".format)))
    elif kind == "shape":
        key = draw(st.sampled_from(["m", "n"]))
        doc[key] = draw(st.one_of(_junk, st.floats(), st.booleans(),
                                  st.integers(-2, 9).filter(
                                      lambda v: v != doc[key])))
    elif kind == "cells":
        doc["cells"] = draw(st.one_of(_junk, st.integers()))
    elif kind == "rows":
        if draw(st.booleans()):
            doc["cells"].pop(draw(st.integers(0, 3)))
        else:
            doc["cells"].append(list(doc["cells"][0]))
    elif kind == "ragged":
        doc["cells"][draw(st.integers(0, 3))].pop()
    else:
        value = draw(st.one_of(
            _junk_text, st.lists(st.integers(), max_size=2),
            st.integers(max_value=-1), st.integers(min_value=8),
            st.floats(), st.booleans(),
            st.integers(8, 1 << 20).map("{:x}".format)))
        doc["cells"][draw(st.integers(0, 3))][draw(st.integers(0, 4))] = value
    return doc


@pytest.mark.parametrize("key,value", [("m", 2.5), ("n", 5.0), ("m", True),
                                       ("degree", 3.7), ("degree", True)])
def test_grid_header_takes_only_json_integers(tmp_path, capsys, key, value):
    # int() would truncate 2.5 to a 2-row grid and read true as GF(2)
    doc = _valid_grid_doc()
    (doc["field"] if key == "degree" else doc)[key] = value
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "decode", str(path), "--code", "C(5,[1,1,2,5])")
    assert code == 2
    assert "%s must be an integer" % key in err


@pytest.mark.parametrize("value", [True, 11.0, "-9"])
def test_grid_modulus_must_be_a_non_negative_integer_or_hex(tmp_path, capsys,
                                                            value):
    # a negative modulus used to send the field reduction into a loop
    doc = _valid_grid_doc()
    doc["field"]["modulus"] = value
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "decode", str(path), "--code", "C(5,[1,1,2,5])")
    assert code == 2
    assert err.startswith("error:") and "modulus" in err


def test_integer_grid_modulus_is_the_value_itself(tmp_path, capsys):
    # 11 is 0xb, x^3 + x + 1, as a JSON integer cell is its own value
    results = []
    for modulus in ("b", 11):
        doc = _valid_grid_doc()
        doc["field"]["modulus"] = modulus
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc))
        results.append(run(capsys, "decode", str(path),
                           "--code", "C(5,[1,1,2,5])"))
    assert results[0] == results[1]
    assert results[0][0] == 0


def test_negative_field_modulus_is_a_usage_error(capsys):
    code, out, err = run(capsys, "props", "--code", "C(3,[1])",
                         "--field", "2:-7")
    assert code == 2
    assert out == ""
    assert "modulus must be non-negative" in err


def test_auto_field_is_the_smallest_default_field_covering_the_grid():
    fields = [default_field(d) for d in range(2, 17)]
    needs = {1, 2, 3} | {(1 << d) + k for d in range(2, 17)
                         for k in (-2, -1, 0, 1)}
    for need in sorted(v for v in needs if v < 1 << 16):
        want = next(f for f in fields if f.order_at_least(need))
        assert auto_field(Profile([0], need)) is want
        if need < 1 << 10:
            assert auto_field(Profile([0] * need, 1)) is want
    with pytest.raises(CliError, match="covers order 65536"):
        auto_field(Profile([0], 1 << 16))


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    per_call = []
    for _ in range(2):
        before = len(built)
        assert run(capsys, "props", "--code", "C(3,[1])")[0] == 0
        per_call.append(len(built) - before)
    # the first call may build the seven parsers; the second builds none
    assert per_call[0] <= 7 and per_call[1] == 0


def _grid_doc_with_modulus(modulus):
    doc = _valid_grid_doc()
    doc["field"]["modulus"] = modulus
    return doc


# the draws need not hit the edge moduli, so they are listed: a negative
# one (which once hung the reduction), zero, and x^3 + 1 = (x + 1)(x^2 + x + 1)
@settings(max_examples=150)
@given(malformed_grid_docs())
@example(_grid_doc_with_modulus("-9"))
@example(_grid_doc_with_modulus("0"))
@example(_grid_doc_with_modulus("9"))
def test_malformed_grid_files_exit_with_a_message(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "grid.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["decode", path, "--code", "C(5,[1,1,2,5])",
                         "--mode", "errors"])
    assert code in (2, 3)
    assert err.getvalue().startswith(("error:", "capability:"))
