"""Pinned outputs: a seeded panel of encodes and decodes hashed whole.

A change meant to keep outputs byte-identical (a faster kernel, a
skipped re-check) must leave PANEL_SHA256 as it is.  A change meant to
alter outputs updates the hash and says why.
"""

from __future__ import annotations

import hashlib
import random

from epcodes.eii import build_eii
from epcodes.errmode import decode_errors_erasures
from epcodes.gf import build_aop_field, default_field
from epcodes.layout import encode_balanced, iterative_decode

# repr(panel()) hashed at commit b368175
PANEL_SHA256 = "d511e74a07603203fb7e6167656313094b517240185be9e387286f5235fcfcbc"


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
    every = [(r, c) for r in range(narrow.m) for c in range(narrow.n)]
    for _ in range(20):
        data = [rng.randrange(256) for _ in range(narrow.dimension())]
        enc = narrow.encode(data)
        grid = enc.copy()
        for r, c in rng.sample(every, rng.randint(1, 50)):
            grid.cells[r][c] = rng.randrange(256)
            grid.erase(r, c)
        rep = iterative_decode(narrow, grid)
        records.append((_grid(enc), _grid(grid), rep.status, _grid(rep.grid),
                        sorted(rep.corrected_rows), rep.residual, rep.passes))
    return records


def test_seeded_panel_outputs_match_the_pinned_hash():
    got = hashlib.sha256(repr(panel()).encode()).hexdigest()
    assert got == PANEL_SHA256
