"""Pinned outputs: a seeded panel of encodes and decodes hashed whole.

A change meant to keep outputs byte-identical (a faster kernel, a
skipped re-check) must leave PANEL_SHA256, POLY_PANEL_SHA256 and
ENCODE_PANEL_SHA256 as they are.  A change meant to alter outputs updates the hash and says why.
"""

from __future__ import annotations

import hashlib
import random

from epcodes.eii import build_eii
from epcodes.errmode import decode_errors_erasures
from epcodes.gf import (DEFAULT_MODULI, build_aop_field, build_field,
                        default_field)
from epcodes.layout import encode_balanced, iterative_decode

# repr(panel()) hashed at commit b368175
PANEL_SHA256 = "d511e74a07603203fb7e6167656313094b517240185be9e387286f5235fcfcbc"

# repr(poly_panel()) hashed at commit 138db35
POLY_PANEL_SHA256 = "c84afda09bdfd6c0629beaea6fc00fbd2ee5a6b421c50cc085a2da9205add78f"


# repr(encode_panel()) hashed at commit 2599d0f
ENCODE_PANEL_SHA256 = "a378ba3910198a9399eb4e961363862e7f10a5eaf429a6f7381dbf477e5544ea"


def _grid(g):
    return g.cells, g.mask


def _damaged(rng, grid, size, max_rows):
    """A copy of grid with up to two errors (XOR by a nonzero value) and
    up to n/2 junk-filled erasures in each of up to max_rows rows."""
    out = grid.copy()
    for r in rng.sample(range(out.m), rng.randint(1, max_rows)):
        t = rng.randint(0, 2)
        e = rng.randint(0, out.n // 2)
        cols = rng.sample(range(out.n), t + e)
        for c in cols[:e]:
            out.cells[r][c] = rng.randrange(size)
            out.erase(r, c)
        for c in cols[e:]:
            out.cells[r][c] ^= rng.randrange(1, size)
    return out


def _error_ops(code, rng, count, max_rows):
    """Balanced encode, damage, then decode_errors_erasures."""
    size = code.ctx.size
    records = []
    for _ in range(count):
        data = [rng.randrange(size) for _ in range(code.dimension())]
        enc = encode_balanced(code, data)
        grid = _damaged(rng, enc, size, max_rows)
        rep = decode_errors_erasures(code, grid)
        records.append((_grid(enc), _grid(grid), rep.status, _grid(rep.grid),
                        rep.row_outcomes, rep.rotations, rep.fallback_used))
    return records


def _erasure_ops(code, rng, count, max_cells):
    """Tail encode, erase up to max_cells junk-filled cells, then
    iterative_decode."""
    size = code.ctx.size
    every = [(r, c) for r in range(code.m) for c in range(code.n)]
    records = []
    for _ in range(count):
        data = [rng.randrange(size) for _ in range(code.dimension())]
        enc = code.encode(data)
        grid = enc.copy()
        for r, c in rng.sample(every, rng.randint(1, max_cells)):
            grid.cells[r][c] = rng.randrange(size)
            grid.erase(r, c)
        rep = iterative_decode(code, grid)
        records.append((_grid(enc), _grid(grid), rep.status, _grid(rep.grid),
                        sorted(rep.corrected_rows), rep.residual, rep.passes))
    return records


def panel() -> list:
    """The records the hash covers; well under a second in all."""
    rng = random.Random(20240)
    records = []
    # GF(2^16), table field over x: 36 ops from clean to beyond the radius
    wide = build_eii(default_field(16), 12, (2, 2, 3, 3, 4, 5, 6, 12))
    records += _error_ops(wide, rng, 36, 4)
    # GF(2^12) over the all-ones polynomial, where alpha is not the
    # table generator
    aop = build_eii(build_aop_field(13), 10, (1, 2, 2, 3, 4, 10))
    records += _error_ops(aop, rng, 6, 3)
    # GF(2^8): tail encode and iterative erasure decoding
    narrow = build_eii(default_field(8), 16, (2, 2, 3, 4, 4, 6, 8, 16))
    records += _erasure_ops(narrow, rng, 20, 50)
    return records


def poly_panel() -> list:
    """Encodes and decodes on fields forced onto the polynomial
    representation, with alpha = x; a fraction of a second."""
    rng = random.Random(20250)
    records = []
    for degree, entries in [(8, (1, 2, 2, 3, 4, 10)),
                            (12, (1, 2, 3, 3, 5, 10))]:
        ctx = build_field(degree, DEFAULT_MODULI[degree], "polynomial")
        code = build_eii(ctx, 10, entries)
        records += _error_ops(code, rng, 6, 3)
        records += _erasure_ops(code, rng, 6, 20)
    return records


def encode_panel() -> list:
    """Tail and balanced encodes of a unit word and of random data, on
    the benchmark profile over GF(2^8) and GF(2^16), and on an
    all-ones-poly field, a forced-polynomial field and a field of degree
    17; well under a second."""
    rng = random.Random(20270)
    bench = (4,) * 14 + (8, 32)
    cases = [(default_field(8), 32, bench),
             (default_field(16), 32, bench),
             (build_aop_field(13), 10, (1, 2, 2, 3, 4, 10)),
             (build_field(12, DEFAULT_MODULI[12], "polynomial"), 10,
              (0, 1, 3, 3, 5, 10)),
             (default_field(17), 9, (1, 1, 2, 4, 9))]
    records = []
    for ctx, n, entries in cases:
        code = build_eii(ctx, n, entries)
        k = code.dimension()
        unit = [0] * k
        unit[rng.randrange(k)] = rng.randrange(1, ctx.size)
        for data in [unit] + [[rng.randrange(ctx.size) for _ in range(k)]
                              for _ in range(2)]:
            records.append((code.encode(data).cells,
                            encode_balanced(code, data).cells))
    return records


def test_seeded_panel_outputs_match_the_pinned_hash():
    got = hashlib.sha256(repr(panel()).encode()).hexdigest()
    assert got == PANEL_SHA256


def test_polynomial_panel_outputs_match_the_pinned_hash():
    got = hashlib.sha256(repr(poly_panel()).encode()).hexdigest()
    assert got == POLY_PANEL_SHA256


def test_encode_panel_outputs_match_the_pinned_hash():
    got = hashlib.sha256(repr(encode_panel()).encode()).hexdigest()
    assert got == ENCODE_PANEL_SHA256
