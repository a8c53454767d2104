"""The four benchmark workloads.

Each workload builds its field and codes in setup(), derives the inputs
of op i from (seed, i) alone, runs one op with the library calls timed
from outside, and checks the op's outputs untimed.  Library functions
are always looked up on their module at call time, so a tracer that
patches the module sees the call.

Pattern generation uses its own copy of the correctability rule (sorted
per-row counts matched against the budgets, alternated with the
transposed budgets) rather than the library's oracle, so the inputs of a
seed stay the same whatever a later change does to the library.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import time
from dataclasses import dataclass

from epcodes import cli, eii, errmode, gf, layout, sim

# Calls are timed in this thread's CPU time.  On a shared virtual host,
# wall time also counts the moments the hypervisor hands the CPU to other
# guests; those bursts set cli-roundtrip's p95 far more than the library
# did.  The library is single-threaded and waits on nothing but its own
# file writes, which are CPU time too.
clock = time.thread_time

# 16 x 32 grid, levels 4/8/32: k = 416, d = 15.
BIG_PROFILE = (4,) * 14 + (8, 32)
BIG_N = 32


@dataclass
class Sample:
    """One op: the duration of each timed call, the number of ops it
    stands for (trials on monte-carlo), and the library's outputs."""

    phases: tuple
    units: int
    output: object
    probe: float = 0.0  # probe reading around the op, set by the runner


def op_rng(salt: str, seed: int, index: int) -> random.Random:
    return random.Random("%s:%d:%d" % (salt, seed, index))


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


# -- pattern generation -------------------------------------------------

def transposed_entries(entries, n: int) -> list[int]:
    return [sum(1 for e in entries if e > n - 1 - j) for j in range(n)]


def cleared(entries, counts) -> set[int]:
    """Lines one pass clears: counts sorted ascending against budgets."""
    order = sorted(range(len(counts)), key=lambda r: (counts[r], r))
    good = set()
    for pos, r in enumerate(order):
        if counts[r] > entries[pos]:
            break
        good.add(r)
    return good


def rows_only_ok(entries, cells) -> bool:
    counts = [0] * len(entries)
    for r, _ in cells:
        counts[r] += 1
    return len(cleared(entries, counts)) == len(entries)


def iterative_ok(entries, n: int, cells) -> bool:
    axes = ((0, entries), (1, transposed_entries(entries, n)))
    live = set(cells)
    while live:
        before = len(live)
        for axis, budgets in axes:
            counts = [0] * len(budgets)
            for cell in live:
                counts[cell[axis]] += 1
            good = cleared(budgets, counts)
            live = {cell for cell in live if cell[axis] not in good}
            if not live:
                return True
        if len(live) == before:
            return False
    return True


def _schedule(letters: str, **kinds) -> tuple:
    return tuple(kinds[ch] for ch in letters if ch != " ")


def _row_cells(rng, row: int, count: int, n: int) -> list:
    return [(row, c) for c in rng.sample(range(n), count)]


# -- workloads ----------------------------------------------------------

class Workload:
    """Interface shared by the workloads; see the module docstring.

    setup() also builds the transposed code, although the decoders build
    their own per call, so that its cost is part of setup_s.
    """

    name = ""
    setup_reps = 5
    phase_names = ("encode", "decode")
    kinds: tuple = ()

    def __init__(self, seed: int, workdir: str | None = None):
        self.seed = seed
        self.workdir = workdir
        self.notes: list[str] = []

    def kind(self, index: int) -> str:
        return self.kinds[index % len(self.kinds)]

    def setup(self) -> None:
        raise NotImplementedError

    def make_input(self, index: int):
        raise NotImplementedError

    def run_op(self, inp) -> Sample:
        raise NotImplementedError

    def check(self, index: int, inp, output) -> list[str]:
        raise NotImplementedError

    def digest(self, output) -> str:
        raise NotImplementedError

    def finish(self) -> tuple[list[str], int]:
        """End-of-run checks: (problems, units they invalidate)."""
        return [], 0

    def trials_by_model(self, samples) -> dict:
        """Simulation trials and seconds per decoder model."""
        return {}


@dataclass
class ErasureInput:
    kind: str
    data: list
    cells: list     # erased (row, col), distinct
    junk: list      # value left in each erased cell


class CodecErasure(Workload):
    """Warm tail encode, erasures, iterative_decode on 16x32 GF(2^8)."""

    name = "codec-erasure"
    setup_reps = 3
    # per 20 ops: 6 direct RS fill, 5 whole-row burst, 7 needing column
    # passes, 2 beyond capability.  The kinds differ in cost in that
    # order, so the median falls inside the column-pass ops and p95
    # inside the beyond-capability ones, not on a boundary between
    # kinds.  The first four ops cover every kind.
    kinds = _schedule("SBCD SCBC SCBD SCBC SCBS", S="scattered", B="burst",
                      C="columns", D="beyond")

    def setup(self) -> None:
        ctx = gf.FieldContext(8, gf.DEFAULT_MODULI[8])
        code = eii.EiiCode(eii.Profile(BIG_PROFILE, BIG_N), ctx)
        self.tcode = layout.transpose_code(code)
        code.encode([0] * code.dimension())
        self.code = code
        self.model = sim.DecoderModel.iterative(code)
        self.k = code.dimension()

    def make_input(self, index: int) -> ErasureInput:
        rng = op_rng(self.name, self.seed, index)
        kind = self.kind(index)
        data = [rng.randrange(256) for _ in range(self.k)]
        cells = self._pattern(rng, kind)
        return ErasureInput(kind, data, cells,
                            [rng.randrange(256) for _ in cells])

    @staticmethod
    def _pattern(rng, kind: str) -> list:
        m, n = len(BIG_PROFILE), BIG_N
        every = [(r, c) for r in range(m) for c in range(n)]
        if kind == "scattered":
            cells = []
            for r in rng.sample(range(m), rng.randint(3, 8)):
                cells += _row_cells(rng, r, rng.randint(1, 4), n)
            return cells
        if kind == "burst":
            rows = rng.sample(range(m), 6)
            cells = _row_cells(rng, rows[0], n, n)
            for r in rows[1:1 + rng.randint(0, 4)]:
                cells += _row_cells(rng, r, rng.randint(1, 4), n)
            if rng.random() < 0.5:
                cells += _row_cells(rng, rows[5], rng.randint(5, 8), n)
            return cells
        while True:
            if kind == "columns":
                cells = rng.sample(every, rng.randint(50, 70))
                if (not rows_only_ok(BIG_PROFILE, cells)
                        and iterative_ok(BIG_PROFILE, n, cells)):
                    return cells
            else:
                cells = rng.sample(every, rng.randint(90, 120))
                if not iterative_ok(BIG_PROFILE, n, cells):
                    return cells

    def run_op(self, inp: ErasureInput) -> Sample:
        t0 = clock()
        enc = self.code.encode(inp.data)
        t1 = clock()
        grid = enc.copy()
        for (r, c), v in zip(inp.cells, inp.junk):
            grid.cells[r][c] = v
            grid.erase(r, c)
        t2 = clock()
        rep = layout.iterative_decode(self.code, grid)
        t3 = clock()
        return Sample((t1 - t0, t3 - t2), 1, (enc, rep))

    def check(self, index: int, inp: ErasureInput, output) -> list[str]:
        enc, rep = output
        problems = []
        full = rep.status == eii.FULLY_CORRECTED
        if full != sim.correctable(self.model, inp.cells):
            problems.append("verdict %s disagrees with the iterative oracle"
                            % rep.status)
        if full and rep.residual:
            problems.append("FullyCorrected with a residual")
        wrong = sum(1 for r in range(enc.m) for c in range(enc.n)
                    if not rep.grid.mask[r][c]
                    and rep.grid.cells[r][c] != enc.cells[r][c])
        if wrong:
            problems.append("%d cells filled with a wrong value" % wrong)
        if index % 10 == 0:
            placed = [enc.cells[r][c] for r, c in self.code.data_cells()]
            if placed != inp.data or not self.code.is_codeword(enc):
                problems.append("encode is not a systematic codeword")
        return problems

    def digest(self, output) -> str:
        enc, rep = output
        return digest((enc.cells, rep.status, rep.grid.cells, rep.grid.mask,
                       sorted(rep.corrected_rows), rep.residual, rep.passes))


@dataclass
class ErrorInput:
    kind: str
    data: list
    erasures: list  # (row, col, junk value)
    errors: list    # (row, col, nonzero xor)


class CodecErrors(Workload):
    """encode_balanced, errors plus erasures, decode_errors_erasures
    on 16x32 GF(2^16)."""

    name = "codec-errors"
    setup_reps = 5
    # per 20 ops: 8 with 3 rows inside 2i + e <= 4; 3 like those plus a
    # row with two errors, which sends it through the exhaustive-support
    # search (several times the cost of any other op, so it makes the
    # tail); 6 with one or two rows isolated by the peel; 3 where the row
    # stage fails and the transposed fallback runs.  The first four ops
    # cover every kind.
    kinds = _schedule("UISFU IUSUI FUIUS IUFUI", U="budget", S="search",
                      I="isolated", F="fallback")
    SEARCH = (2, 0)     # (errors, erasures)
    BUDGETS = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (1, 1), (1, 2))

    def setup(self) -> None:
        ctx = gf.FieldContext(16, gf.DEFAULT_MODULI[16])
        code = eii.EiiCode(eii.Profile(BIG_PROFILE, BIG_N), ctx)
        self.tcode = layout.transpose_code(code)
        layout.encode_balanced(code, [0] * code.dimension())
        self.code = code
        self.k = code.dimension()
        self.parity = layout.balanced_layout(code.profile).positions

    def make_input(self, index: int) -> ErrorInput:
        rng = op_rng(self.name, self.seed, index)
        kind = self.kind(index)
        data = [rng.randrange(1 << 16) for _ in range(self.k)]
        m, n = len(BIG_PROFILE), BIG_N
        rows = rng.sample(range(m), 9)
        plan = []   # (row, errors, erasures)
        if kind in ("budget", "search"):
            plan = [(r,) + rng.choice(self.BUDGETS) for r in rows[1:4]]
            if kind == "search":
                plan.append((rows[0],) + self.SEARCH)
        elif kind == "isolated":
            variant = rng.choice(("single", "double", "rotate"))
            if variant == "single":
                plan.append((rows[0], rng.randint(0, 3), rng.randint(5, 10)))
            elif variant == "double":
                # the less-erased row is isolated first, within u = 8
                e_last = rng.randint(5, 7)
                plan.append((rows[0], rng.randint(0, (8 - e_last) // 2), e_last))
                plan.append((rows[1], rng.randint(0, 2),
                             rng.randint(e_last + 1, 10)))
            else:
                # the less-erased row overshoots u = 8, so the peel
                # must rotate the other row into the isolated slot
                e_first = rng.randint(6, 8)
                e_last = rng.randint(5, e_first - 1)
                plan.append((rows[0], (8 - e_first) // 2, e_first))
                plan.append((rows[1], (10 - e_last) // 2, e_last))
            plan += [(r,) + rng.choice(self.BUDGETS) for r in rows[2:4]]
        else:
            # 15 to 18 erasures, half the time plus one error: past the
            # guaranteed 2i + e < d = 15, where the decoder can return
            # Corrected with another codeword, which the check reports
            plan = [(r, 0, rng.randint(5, 6)) for r in rows[:3]]
            if rng.random() < 0.5:
                plan[0] = (plan[0][0], 1, plan[0][2])
        erasures, errors = [], []
        for r, i, e in plan:
            cols = rng.sample(range(n), i + e)
            erasures += [(r, c, rng.randrange(1 << 16)) for c in cols[:e]]
            errors += [(r, c, rng.randrange(1, 1 << 16)) for c in cols[e:]]
        return ErrorInput(kind, data, erasures, errors)

    def run_op(self, inp: ErrorInput) -> Sample:
        t0 = clock()
        enc = layout.encode_balanced(self.code, inp.data)
        t1 = clock()
        grid = enc.copy()
        for r, c, v in inp.erasures:
            grid.cells[r][c] = v
            grid.erase(r, c)
        for r, c, v in inp.errors:
            grid.cells[r][c] ^= v
        t2 = clock()
        rep = errmode.decode_errors_erasures(self.code, grid)
        t3 = clock()
        return Sample((t1 - t0, t3 - t2), 1, (enc, rep))

    def check(self, index: int, inp: ErrorInput, output) -> list[str]:
        enc, rep = output
        problems = []
        if rep.status == errmode.CORRECTED and (rep.grid.cells != enc.cells
                                                or not rep.grid.is_clean()):
            problems.append("Corrected but the grid differs from the codeword")
        if inp.kind != "fallback" and rep.status != errmode.CORRECTED:
            problems.append("%s pattern came back %s" % (inp.kind, rep.status))
        if index % 10 == 0:
            placed = [enc.cells[r][c] for r in range(enc.m) for c in range(enc.n)
                      if (r, c) not in self.parity]
            if placed != inp.data or not self.code.is_codeword(enc):
                problems.append("encode is not a systematic codeword")
        return problems

    def digest(self, output) -> str:
        enc, rep = output
        return digest((enc.cells, rep.status, rep.grid.cells, rep.grid.mask,
                       rep.row_outcomes, rep.rotations, rep.fallback_used))


# (model, code, statistic, erasures, reference, tolerance at 100k trials):
# the acceptance tests' figures, except the LRC mean.  Its test wants
# 27.0 and fails on purpose, because the model's exact mean is 27.425;
# checking 27.0 here would fail whenever a run is long or fast enough to
# resolve that gap.  The LRC mean is checked against the model's value,
# and every run prints its distance from 27.0.
MC_CONFIGS = (
    ("rows", "5x7", "mean", None, 14.1, 0.15),
    ("cols", "5x7", "mean", None, 13.3, 0.15),
    ("iterative", "5x7", "mean", None, 15.3, 0.15),
    ("iterative", "8x8", "mean", None, 30.1, 0.15),
    ("rows", "5x7", "prob", 13, 0.64, 0.01),
    ("cols", "5x7", "prob", 13, 0.49, 0.01),
    ("iterative", "5x7", "prob", 13, 0.84, 0.01),
    ("iterative", "8x8", "prob", 27, 0.88, 0.01),
    ("lrc", None, "mean", None, 27.425, 0.2),
    ("lrc", None, "prob", 27, 0.50, 0.02),
)
REFERENCE_TRIALS = 100_000


class MonteCarlo(Workload):
    """The acceptance-test reliability models.  An op is one trial; a
    sample is one driver call per configuration, so every sample covers
    the same mix and its per-trial time does not hinge on which
    configuration happens to sit at the median."""

    name = "monte-carlo"
    setup_reps = 9
    trials_per_call = 40
    phase_names = tuple("%s-%s-%s" % (model, key or "8x8", stat)
                        for model, key, stat, _, _, _ in MC_CONFIGS)
    kinds = ("all-configs",)

    def __init__(self, seed: int, workdir: str | None = None):
        super().__init__(seed, workdir)
        self.totals = [[0, 0.0] for _ in MC_CONFIGS]   # trials, sum of samples

    def setup(self) -> None:
        gf8 = gf.FieldContext(3, gf.DEFAULT_MODULI[3])
        gf16 = gf.FieldContext(4, gf.DEFAULT_MODULI[4])
        self.codes = {
            "5x7": eii.EiiCode(eii.Profile((1, 2, 3, 6, 6), 7), gf8),
            "8x8": eii.EiiCode(eii.Profile((2, 3, 3, 4, 4, 5, 5, 6), 8), gf16),
        }
        self.tcodes = {}
        for key, code in self.codes.items():
            self.tcodes[key] = layout.transpose_code(code)
            code.encode([0] * code.dimension())
        makers = {"rows": sim.DecoderModel.rows_only,
                  "cols": sim.DecoderModel.cols_only,
                  "iterative": sim.DecoderModel.iterative}
        self.models = []
        for model, key, _, _, _, _ in MC_CONFIGS:
            if model == "lrc":
                self.models.append(sim.DecoderModel.ideal_lrc(8, 2, 23))
            else:
                self.models.append(makers[model](self.codes[key]))

    def make_input(self, index: int) -> list[int]:
        rng = op_rng(self.name, self.seed, index)
        return [rng.getrandbits(62) for _ in MC_CONFIGS]

    def run_op(self, seeds: list[int]) -> Sample:
        trials = self.trials_per_call
        times, results = [], []
        for (model_name, _, stat, erasures, _, _), model, seed in zip(
                MC_CONFIGS, self.models, seeds):
            shape = (8, 8) if model_name == "lrc" else None
            t0 = clock()
            if stat == "mean":
                res = sim.mean_erasures_to_failure(model, shape, trials=trials,
                                                   seed=seed)
            else:
                res = sim.correction_probability(model, erasures, shape,
                                                 trials=trials, seed=seed)
            times.append(clock() - t0)
            results.append(res)
        return Sample(tuple(times), trials * len(MC_CONFIGS), results)

    def check(self, index: int, seeds, output) -> list[str]:
        problems = []
        for res, t in zip(output, self.totals):
            if res.trials != self.trials_per_call:
                problems.append("driver ran %d trials" % res.trials)
            t[0] += res.trials
            t[1] += res.mean * res.trials
        return problems

    def digest(self, output) -> str:
        return digest([(r.trials, r.mean, r.std_error,
                        sorted(r.histogram.items()) if r.histogram else None)
                       for r in output])

    def trials_by_model(self, samples) -> dict:
        out: dict = {}
        for s in samples:
            for (model, *_), seconds in zip(MC_CONFIGS, s.phases):
                t = out.setdefault(model, [0, 0.0])
                t[0] += self.trials_per_call
                t[1] += seconds
        return out

    def finish(self) -> tuple[list[str], int]:
        problems, bad_units = [], 0
        for (model, key, stat, erasures, ref, tol), (trials, acc) in zip(
                MC_CONFIGS, self.totals):
            if not trials:
                continue
            estimate = acc / trials
            scaled = tol * math.sqrt(REFERENCE_TRIALS / trials)
            if model == "lrc" and stat == "mean":
                self.notes.append("lrc mean %.4f over %d trials; the known-"
                                  "failing acceptance test wants 27.0 +/- 0.2"
                                  % (estimate, trials))
            if abs(estimate - ref) > scaled:
                problems.append("%s %s %s: %.4f outside %.4f +/- %.4f"
                                % (model, key, stat, estimate, ref, scaled))
                bad_units += trials
        problems += self._oracle_against_decoders()
        return problems, bad_units

    def _oracle_against_decoders(self, per_code: int = 20) -> list[str]:
        """Seeded erasure patterns through the real decoders: each must
        succeed exactly when the model's oracle says so."""
        problems = []
        spans = {"5x7": (8, 20), "8x8": (20, 38)}
        for key, code in self.codes.items():
            rng = op_rng(self.name + "-oracle-" + key, self.seed, 0)
            every = [(r, c) for r in range(code.m) for c in range(code.n)]
            q = code.ctx.size
            tcode = self.tcodes[key]
            for _ in range(per_code):
                enc = code.encode([rng.randrange(q) for _ in range(code.dimension())])
                cells = rng.sample(every, rng.randint(*spans[key]))
                grid = enc.copy()
                for r, c in cells:
                    grid.cells[r][c] = rng.randrange(q)
                    grid.erase(r, c)
                rows = code.decode_rows(grid).grid
                cols = tcode.decode_rows(grid.transpose()).grid.transpose()
                both = layout.iterative_decode(code, grid).grid
                for maker, out in ((sim.DecoderModel.rows_only, rows),
                                   (sim.DecoderModel.cols_only, cols),
                                   (sim.DecoderModel.iterative, both)):
                    says = sim.correctable(maker(code), cells)
                    if says != out.is_clean() or (says and out.cells != enc.cells):
                        problems.append("%s oracle disagrees with its decoder "
                                        "on %s" % (maker.__name__, sorted(cells)))
        return problems


@dataclass
class CliInput:
    data: list
    cells: list


class CliRoundtrip(Workload):
    """cli.main encode to a grid file, erase cells in the JSON, cli.main
    decode with --out and --report."""

    name = "cli-roundtrip"
    setup_reps = 9
    kinds = ("roundtrip",)
    SPEC = "C(8,[2,3,3,4,4,5,5,6])"
    ENTRIES = (2, 3, 3, 4, 4, 5, 5, 6)
    N = 8
    DEGREE = 4
    MAX_ERASED = 20

    def setup(self) -> None:
        ctx = gf.FieldContext(self.DEGREE, gf.DEFAULT_MODULI[self.DEGREE])
        code = eii.EiiCode(eii.Profile(self.ENTRIES, self.N), ctx)
        self.tcode = layout.transpose_code(code)
        code.encode([0] * code.dimension())
        self.code = code
        self.k = code.dimension()
        self.paths = {name: os.path.join(self.workdir, name + ".json")
                      for name in ("data", "grid", "erased", "out", "report")}

    def make_input(self, index: int) -> CliInput:
        rng = op_rng(self.name, self.seed, index)
        every = [(r, c) for r in range(len(self.ENTRIES)) for c in range(self.N)]
        while True:
            cells = rng.sample(every, rng.randint(1, self.MAX_ERASED))
            if iterative_ok(self.ENTRIES, self.N, cells):
                break
        return CliInput([rng.randrange(1 << self.DEGREE) for _ in range(self.k)],
                        cells)

    def run_op(self, inp: CliInput) -> Sample:
        p = self.paths
        _write_json(p["data"], ["%x" % v for v in inp.data])
        t0 = clock()
        rc_encode = cli.main(["encode", "--code", self.SPEC,
                              "--field", str(self.DEGREE),
                              "--data", p["data"], "--out", p["grid"]])
        t1 = clock()
        doc = _read_json(p["grid"])
        encoded = [list(row) for row in doc["cells"]]
        for r, c in inp.cells:
            doc["cells"][r][c] = None
        _write_json(p["erased"], doc)
        t2 = clock()
        rc_decode = cli.main(["decode", p["erased"], "--code", self.SPEC,
                              "--out", p["out"], "--report", p["report"]])
        t3 = clock()
        out = _read_json(p["out"]) if rc_decode == 0 else None
        report = _read_json(p["report"]) if rc_decode == 0 else None
        return Sample((t1 - t0, t3 - t2), 1,
                      (rc_encode, rc_decode, encoded, out, report))

    def check(self, index: int, inp: CliInput, output) -> list[str]:
        rc_encode, rc_decode, encoded, out, report = output
        if rc_encode != 0 or rc_decode != 0:
            return ["exit codes %d/%d" % (rc_encode, rc_decode)]
        problems = []
        if out["cells"] != encoded:
            problems.append("decoded grid file differs from the encoded one")
        if report["status"] != eii.FULLY_CORRECTED:
            problems.append("report status %s" % report["status"])
        if index % 10 == 0:
            cells = [[int(v, 16) for v in row] for row in encoded]
            placed = [cells[r][c] for r, c in self.code.data_cells()]
            if placed != inp.data or not self.code.is_codeword(eii.SymbolGrid(cells)):
                problems.append("encode is not a systematic codeword")
        return problems

    def digest(self, output) -> str:
        return digest(output)


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


WORKLOADS = {w.name: w for w in (CodecErasure, CodecErrors, MonteCarlo,
                                 CliRoundtrip)}
