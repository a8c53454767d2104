"""Command line front end.

Subcommands: props (code properties), encode, decode, layout, bound
(distance-bound tables), simulate (Monte Carlo reliability runs).

Grids travel as JSON files carrying their own field descriptor, so a
decode needs no side channel beyond the code profile:

    {"m": 4, "n": 7,
     "field": {"degree": 3, "modulus": "b"},
     "cells": [["3", null, "0", ...], ...]}

Cell values are hex strings; null marks an erasure (zero is a legal
symbol, so no sentinel value could stand in for missing data).  A grid
file holds the bytes of json.dumps(doc, indent=2, sort_keys=True) and a
newline (see grid_text).

Exit codes: 0 success, 1 clean run but uncorrectable input, 2 usage or
parse error or a file that cannot be read or written, 3 capability
limit (field too small, search too large).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .eii import FAILED, DecodeReport, EiiCode, Profile, SymbolGrid
from .epc import (EmptyRange, EpcParams, FieldTooSmall, OrderTooSmall,
                  TooLarge, distance_bound, epc_params)
from .errmode import CORRECTED, decode_errors_erasures
from .gf import FieldContext, FieldError, build_field, default_field
from .layout import (BALANCED, TAIL, balanced_layout, encode_balanced,
                     iterative_decode, tail_layout, transpose_code,
                     transpose_profile)
from .rs import LengthExceedsOrder
from .sim import (DecoderModel, correction_probability,
                  mean_erasures_to_failure)

GENERIC_DIM = 10 ** 6


class CliError(ValueError):
    """Bad command input; reported on stderr and mapped to exit 2."""


@functools.lru_cache(maxsize=8)
def parse_code_spec(text: str) -> Profile:
    """Parse "C(n,[u0,u1,...])" into a profile, pointing at the first
    offending character on failure.  A process keeps the last eight
    profiles, so the commands of one process parse a spec once."""
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def expect(ch):
        nonlocal pos
        skip_ws()
        if pos >= len(text) or text[pos] != ch:
            raise CliError("expected %r at position %d in %r"
                           % (ch, pos, text))
        pos += 1

    def number():
        nonlocal pos
        skip_ws()
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise CliError("expected a number at position %d in %r"
                           % (pos, text))
        return int(text[start:pos])

    expect('C')
    expect('(')
    n = number()
    expect(',')
    expect('[')
    entries = [number()]
    while True:
        skip_ws()
        if pos < len(text) and text[pos] == ',':
            pos += 1
            entries.append(number())
        else:
            break
    expect(']')
    expect(')')
    skip_ws()
    if pos != len(text):
        raise CliError("trailing input at position %d in %r" % (pos, text))
    return Profile(entries, n)


def format_profile(profile: Profile) -> str:
    return "C(%d,[%s])" % (profile.n,
                           ",".join(str(e) for e in profile.entries))


def parse_field(text: str) -> FieldContext:
    """"degree" or "degree:modulushex", e.g. "4" or "4:13"."""
    head, sep, tail = text.partition(':')
    degree = _int(head, "field degree")
    if not sep:
        return default_field(degree)
    try:
        modulus = int(tail, 16)
    except ValueError:
        raise CliError("bad modulus hex %r" % (tail,)) from None
    return build_field(degree, modulus)


def auto_field(profile: Profile) -> FieldContext:
    """Smallest default field whose element order covers the grid; the
    alpha of a default field up to degree 16 has order 2^degree - 1."""
    need = max(profile.m, profile.n)
    if need.bit_length() <= 16:
        return default_field(max(2, need.bit_length()))
    raise CliError("no default field up to degree 16 covers order %d" % need)


@functools.lru_cache(maxsize=8)
def _code(profile: Profile, ctx: FieldContext) -> EiiCode:
    """The code of profile over ctx, kept so that the commands of one
    process reuse its tables and schedules.  Every context here comes
    from gf.build_field, so equal keys name one context object."""
    return EiiCode(profile, ctx)


def resolve_code(args) -> EiiCode:
    profile = parse_code_spec(args.code)
    ctx = parse_field(args.field) if getattr(args, 'field', None) \
        else auto_field(profile)
    return _code(profile, ctx)


def grid_to_json(grid: SymbolGrid, ctx: FieldContext) -> dict:
    cells = [[None if erased else '%x' % v
              for v, erased in zip(row, mask)]
             for row, mask in zip(grid.cells, grid.mask)]
    return {"m": grid.m, "n": grid.n,
            "field": {"degree": ctx.degree, "modulus": format(ctx.modulus, 'x')},
            "cells": cells}


def _symbol(val, what: str = "symbol") -> int:
    """A symbol written as a hex string or a JSON integer (not a bool or
    a float, which int() would quietly accept)."""
    if type(val) is int:
        return val
    try:
        return int(val, 16)
    except (TypeError, ValueError):
        raise CliError("bad %s %r (want a hex string or an integer)"
                       % (what, val)) from None


def _header_int(obj: dict, key: str) -> int:
    """obj[key], which int() would also take as a bool, float or string."""
    val = obj[key]
    if type(val) is not int:
        raise TypeError("%s must be an integer, got %r" % (key, val))
    return val


def grid_from_json(doc: dict) -> tuple[SymbolGrid, FieldContext]:
    try:
        ctx = build_field(_header_int(doc["field"], "degree"),
                          _symbol(doc["field"]["modulus"], "modulus"))
        m, n = _header_int(doc, "m"), _header_int(doc, "n")
        raw = doc["cells"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError("malformed grid file: %s" % (exc,)) from None
    if not isinstance(raw, list) or len(raw) != m or any(
            not isinstance(row, list) or len(row) != n for row in raw):
        raise CliError("grid file cells do not match shape %dx%d" % (m, n))
    mask = [[val is None for val in row] for row in raw]
    try:
        cells = [[0 if val is None else int(val, 16) for val in row]
                 for row in raw]
        plain = (min(map(min, cells)) >= 0
                 and max(map(max, cells)) < ctx.size)
    except (TypeError, ValueError):
        plain = False  # a JSON integer, a bad cell or an empty grid
    if not plain:
        # the cell by cell reading accepts integers and names the first
        # bad cell
        cells = [[0 if val is None else ctx.check(_symbol(val))
                  for val in row] for row in raw]
    return SymbolGrid._of(cells, mask), ctx


def _write(path, text: str) -> None:
    """Write text to the file at path, or to stdout when path is empty."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, 'wb') as fh:
            fh.write(text.encode())  # every document written is ASCII
    except OSError as exc:
        raise CliError("cannot write %s: %s" % (path, exc)) from None


def _emit(doc, out_path):
    _write(out_path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


# The cells of a grid document by json's C encoder, with the separator
# that json.dumps(..., indent=2) puts between the cells of a row.  A cell
# is a hex string or null, so a "],\n      [" can only join two rows.
_encode_cells = json.JSONEncoder(separators=(',\n      ', ': ')).encode


def grid_text(doc: dict) -> str:
    """json.dumps(doc, indent=2, sort_keys=True) + "\n", byte for byte,
    for a grid_to_json document of at least one row and column, without
    the pure-Python encoder that an indent selects."""
    rows = _encode_cells(doc["cells"])[2:-2].replace(
        '],\n      [', '\n    ],\n    [\n      ')
    return ('{\n  "cells": [\n    [\n      %s\n    ]\n  ],\n'
            '  "field": {\n    "degree": %d,\n    "modulus": "%s"\n  },\n'
            '  "m": %d,\n  "n": %d\n}\n'
            % (rows, doc["field"]["degree"], doc["field"]["modulus"],
               doc["m"], doc["n"]))


def _load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError("cannot read %s: %s" % (path, exc)) from None


def cmd_props(args) -> int:
    code = resolve_code(args)
    prof = code.profile
    params = epc_params(prof)
    print("profile %s" % format_profile(prof))
    print("field GF(2^%d) modulus %s" % (code.ctx.degree,
                                         hex(code.ctx.modulus)))
    print("k %d" % prof.dimension())
    print("d %d" % prof.min_distance())
    print("transpose %s" % format_profile(transpose_profile(prof)))
    print("epc EP(%d,%d;%d,%d;%d)"
          % (params.m, params.v, params.n, params.h, params.g))
    print("distance_bound %d" % distance_bound(params))
    return 0


def cmd_encode(args) -> int:
    code = resolve_code(args)
    doc = _load(args.data)
    if not isinstance(doc, list):
        raise CliError("data file must hold a JSON list of symbols")
    try:
        data = [int(v, 16) for v in doc]
    except (TypeError, ValueError):
        data = [_symbol(v) for v in doc]  # integers, or name the bad one
    if args.layout == BALANCED:
        grid = encode_balanced(code, data)
    else:
        grid = code.encode(data)
    _write(args.out, grid_text(grid_to_json(grid, code.ctx)))
    return 0


def cmd_decode(args) -> int:
    profile = parse_code_spec(args.code)
    grid, ctx = grid_from_json(_load(args.grid))
    if (grid.m, grid.n) != (profile.m, profile.n):
        raise CliError("grid is %dx%d but the code wants %dx%d"
                       % (grid.m, grid.n, profile.m, profile.n))
    code = _code(profile, ctx)
    if args.mode == "errors":
        rep = decode_errors_erasures(code, grid)
        report = {"status": rep.status,
                  "row_outcomes": list(rep.row_outcomes),
                  "rotations": rep.rotations,
                  "fallback_used": rep.fallback_used}
        fixed, ok = rep.grid, rep.status == CORRECTED
    else:
        if args.mode == "rows":
            rep = code.decode_rows(grid)
        elif args.mode == "cols":
            trep = transpose_code(code)._decode_rows(grid.transpose())
            rep = DecodeReport.of(trep.grid.transpose(), trep.corrected_rows,
                                  trep.passes)
        else:
            rep = iterative_decode(code, grid)
        report = {"status": rep.status,
                  "corrected_rows": sorted(rep.corrected_rows),
                  "residual": [list(t) for t in rep.residual],
                  "passes": rep.passes}
        fixed, ok = rep.grid, not rep.residual
        if grid.is_clean() and not code.is_codeword(grid):
            # with nothing erased the decoders change nothing; check parity
            report["status"], ok = FAILED, False
    _write(args.out, grid_text(grid_to_json(fixed, ctx)))
    if args.report:
        _emit(report, args.report)
    else:
        sys.stderr.write(json.dumps(report, sort_keys=True) + "\n")
    return 0 if ok else 1


def cmd_layout(args) -> int:
    profile = parse_code_spec(args.code)
    lay = balanced_layout(profile) if args.layout == BALANCED \
        else tail_layout(profile)
    _emit({"style": lay.style, "m": lay.m, "n": lay.n,
           "positions": [list(p) for p in lay.coord_list()]}, args.out)
    return 0


def _int(text: str, what: str, want: str = "an integer") -> int:
    try:
        return int(text)
    except ValueError:
        raise CliError("bad %s %r (want %s)" % (what, text, want)) from None


def _parse_dim(text: str, letter: str) -> int:
    if text.strip() == letter:
        return GENERIC_DIM
    return _int(text, "dimension", "an integer or %r" % letter)


def parse_epc_spec(text: str) -> tuple:
    """"m,v;n,h" with literal m or n standing for an arbitrarily large
    dimension, as in the generic bound tables."""
    halves = text.split(';')
    if len(halves) != 2:
        raise CliError("epc spec %r needs the form m,v;n,h" % (text,))
    try:
        mm, vv = halves[0].split(',')
        nn, hh = halves[1].split(',')
    except ValueError:
        raise CliError("epc spec %r needs the form m,v;n,h" % (text,)) from None
    return (_parse_dim(mm, 'm'), _int(vv, "parity count"), _parse_dim(nn, 'n'),
            _int(hh, "parity count"))


def parse_g_range(text: str) -> range:
    lo, sep, hi = text.partition('..')
    try:
        if sep:
            return range(int(lo), int(hi) + 1)
        return range(int(text), int(text) + 1)
    except ValueError:
        raise CliError("bad g range %r (want N or LO..HI)" % (text,)) from None


def cmd_bound(args) -> int:
    m, v, n, h = parse_epc_spec(args.epc)
    rows = []
    for g in parse_g_range(args.g):
        try:
            d = distance_bound(EpcParams(m, n, v, h, g))
            rows.append((g, str(d)))
        except EmptyRange:
            rows.append((g, "-"))
    if args.out:
        _write(args.out, "g,bound\n"
               + "".join("%d,%s\n" % (g, d) for g, d in rows))
    else:
        print("g bound")
        for g, d in rows:
            print("%d %s" % (g, d))
    return 0


def _sim_model(args) -> tuple[DecoderModel, tuple | None, str | None]:
    try:
        shape = args.shape and tuple(int(x) for x in args.shape.split(','))
        if args.lrc:
            ng, h, d = (int(x) for x in args.lrc.split(','))
    except ValueError:
        raise CliError("bad --lrc or --shape value") from None
    if shape and len(shape) != 2:
        raise CliError("--shape wants two integers m,n")
    if args.lrc:
        if args.code or args.mode:
            raise CliError("--lrc is its own model: drop --code and --mode")
        if not shape:
            raise CliError("--lrc needs --shape m,n")
        return DecoderModel.ideal_lrc(ng, h, d), shape, None
    if not args.code:
        raise CliError("simulate needs --code or --lrc")
    profile = parse_code_spec(args.code)
    code = _code(profile, auto_field(profile))
    maker = {"rows": DecoderModel.rows_only,
             "cols": DecoderModel.cols_only,
             "iterative": DecoderModel.iterative}[args.mode or "iterative"]
    return maker(code), shape or None, format_profile(profile)


def cmd_simulate(args) -> int:
    if args.histogram and args.erasures is not None:
        raise CliError("--histogram is of the mean run: drop --erasures")
    model, shape, profile_text = _sim_model(args)
    if args.erasures is None:
        res = mean_erasures_to_failure(model, shape=shape,
                                       trials=args.trials, seed=args.seed)
        metric = "mean_erasures_to_failure"
    else:
        res = correction_probability(model, args.erasures, shape=shape,
                                     trials=args.trials, seed=args.seed)
        metric = "correction_probability"
    record = {"model": model.kind, "profile": profile_text,
              "metric": metric, "erasures": args.erasures,
              "trials": res.trials, "seed": res.seed,
              "mean": res.mean, "std_error": res.std_error}
    _emit(record, args.out)
    if args.histogram:
        _write(args.histogram, "erasures,count\n" + "".join(
            "%d,%d\n" % (k, res.histogram[k]) for k in sorted(res.histogram)))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="epcodes",
        description="Array erasure codes: properties, coding, layouts, "
                    "bounds and reliability simulation.")
    sub = top.add_subparsers(dest="command", required=True)

    def add_code(p, required=True):
        p.add_argument("--code", required=required,
                       help='code spec like "C(7,[1,2,3,5])"')

    p = sub.add_parser("props", help="report code properties")
    add_code(p)
    p.add_argument("--field", help="degree or degree:modulushex")
    p.set_defaults(func=cmd_props)

    p = sub.add_parser("encode", help="encode data symbols into a grid file")
    add_code(p)
    p.add_argument("--field", help="degree or degree:modulushex")
    p.add_argument("--data", required=True, help="JSON list of symbols")
    p.add_argument("--layout", choices=[TAIL, BALANCED], default=TAIL)
    p.add_argument("--out", help="grid file destination (stdout otherwise)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a grid file with null erasures")
    p.add_argument("grid", help="grid JSON file")
    add_code(p)
    p.add_argument("--mode", choices=["rows", "cols", "iterative", "errors"],
                   default="iterative")
    p.add_argument("--out", help="corrected grid destination")
    p.add_argument("--report", help="decode report destination "
                                    "(stderr otherwise)")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("layout", help="emit parity cell coordinates")
    add_code(p)
    p.add_argument("--layout", choices=[TAIL, BALANCED], default=TAIL)
    p.add_argument("--out")
    p.set_defaults(func=cmd_layout)

    p = sub.add_parser("bound", help="distance bound table over a g range")
    p.add_argument("--epc", required=True,
                   help='"m,v;n,h"; literal m or n means arbitrarily large')
    p.add_argument("--g", required=True, help="N or LO..HI")
    p.add_argument("--out", help="CSV destination (stdout table otherwise)")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("simulate", help="Monte Carlo reliability run")
    add_code(p, required=False)
    p.add_argument("--mode", choices=["rows", "cols", "iterative"],
                   help="decoder for --code (default iterative)")
    p.add_argument("--lrc",
                   help='"n_group,h_local,d_global" LRC model: groups with '
                        'at most h_local erasures repair locally; up to '
                        'd_global erasures in heavier groups survive '
                        '(a budget, e.g. lrc_bound(8,2,16) = 23)')
    p.add_argument("--shape", help='"m,n" grid shape (required by --lrc)')
    p.add_argument("--erasures", type=int,
                   help="fixed erasure count: report correction probability "
                        "instead of mean erasures to failure")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="JSON destination (stdout otherwise)")
    p.add_argument("--histogram", help="CSV histogram destination")
    p.set_defaults(func=cmd_simulate)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FieldTooSmall, OrderTooSmall, TooLarge, LengthExceedsOrder) as exc:
        sys.stderr.write("capability: %s\n" % (exc,))
        return 3
    except (CliError, FieldError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % (exc,))
        return 2


if __name__ == "__main__":
    sys.exit(main())
