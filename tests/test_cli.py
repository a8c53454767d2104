"""Command line surface: parsing, files, reports, exit codes."""

from __future__ import annotations

import json

import pytest

from epcodes.cli import main


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


def test_simulate_lrc_model_needs_shape(capsys):
    code, out, _ = run(capsys, "simulate", "--lrc", "5,1,3",
                       "--shape", "4,5", "--trials", "200", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["model"] == "IdealLrc"
    code, _, err = run(capsys, "simulate", "--lrc", "5,1,3",
                       "--trials", "10")
    assert code == 2


@pytest.mark.parametrize("m,n,cells", [
    (4, 5, 5),              # cells is not a list of rows
    (1, 5, [7]),            # a row is not a list
    (1, 1, [[[1]]]),        # a cell is neither hex nor an integer
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
    data_file.write_text(json.dumps([1, None, 3] + [0] * 8))
    code, _, err = run(capsys, "encode", "--code", "C(5,[1,1,2,5])",
                       "--data", str(data_file))
    assert code == 2
    assert "bad symbol None" in err
