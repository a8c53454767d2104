"""Per-layer tracing installed from outside the library.

The tracer replaces public functions and methods at every site that
binds them with wrappers that record spans (name, start, end, parent
span, op id) or, for the field operations, bare call counts.  Nothing
under src/ knows about it: install() patches, uninstall() restores the
originals, and a run without install() executes the library untouched.

Spans are recorded only while an op or the set-up phase is open, so the
benchmark's own output checks never show up in the per-layer numbers.
"""

from __future__ import annotations

import functools
import json
import time

import epcodes
from epcodes import cli, eii, errmode, gf, layout, linalg, rs, sim

SETUP = "setup"

# (owner, attribute, span name).  A name imported with "from .x import y"
# is a separate binding in the importing module, so each such site is
# listed; methods are patched once on their class.
SPAN_SITES = [
    (gf.FieldContext, "__init__", "gf.field_build"),
    (linalg, "rref", "linalg.rref"),
    (linalg, "solve_unique", "linalg.solve_unique"),
    (rs, "solve_unique", "linalg.solve_unique"),
    (rs.RsCode, "erasure_decode", "rs.erasure_decode"),
    (rs.RsCode, "error_erasure_decode", "rs.error_erasure_decode"),
    (rs.RsCode, "syndromes", "rs.syndromes"),
    (eii.EiiCode, "encode", "eii.encode"),
    (eii.EiiCode, "decode_rows", "eii.decode_rows"),
    (eii.EiiCode, "is_codeword", "eii.is_codeword"),
    (eii, "row_correctable", "sim.row_correctable"),
    (sim, "row_correctable", "sim.row_correctable"),
    (epcodes, "row_correctable", "sim.row_correctable"),
    (layout, "iterative_decode", "layout.iterative_decode"),
    (cli, "iterative_decode", "layout.iterative_decode"),
    (epcodes, "iterative_decode", "layout.iterative_decode"),
    (layout, "transpose_code", "layout.transpose_code"),
    (errmode, "transpose_code", "layout.transpose_code"),
    (cli, "transpose_code", "layout.transpose_code"),
    (epcodes, "transpose_code", "layout.transpose_code"),
    (layout, "encode_balanced", "layout.encode_balanced"),
    (cli, "encode_balanced", "layout.encode_balanced"),
    (epcodes, "encode_balanced", "layout.encode_balanced"),
    (errmode, "decode_errors_erasures", "errmode.decode_errors_erasures"),
    (cli, "decode_errors_erasures", "errmode.decode_errors_erasures"),
    (epcodes, "decode_errors_erasures", "errmode.decode_errors_erasures"),
    (sim, "mean_erasures_to_failure", "sim.driver"),
    (cli, "mean_erasures_to_failure", "sim.driver"),
    (epcodes, "mean_erasures_to_failure", "sim.driver"),
    (sim, "correction_probability", "sim.driver"),
    (cli, "correction_probability", "sim.driver"),
    (epcodes, "correction_probability", "sim.driver"),
    (cli, "main", "cli.main"),
    (cli, "grid_from_json", "cli.grid_from_json"),
    (cli, "grid_to_json", "cli.grid_to_json"),
]

# A cold tail encode makes millions of field multiplications, far too
# many for a span each; these are counted only.
COUNT_SITES = [
    (gf.FieldContext, "mul", "gf.mul"),
    (gf.FieldContext, "inv", "gf.inv"),
    (gf.FieldContext, "alpha_pow", "gf.alpha_pow"),
]

LINALG_SPANS = ("linalg.rref", "linalg.solve_unique")


class Tracer:
    """Spans and counters for one benchmark run, kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start_ns, end_ns, parent, op)
        self._stack: list[int] = []
        self.op = None                # op id, SETUP, or None: not recording
        self._cells = {name: [0] for _, _, name in COUNT_SITES}
        self._base: dict[str, int] = {}
        self.counts = {SETUP: {}, "ops": {}}
        self.stats: dict[str, float] = {}
        self._saved: list[tuple] = []

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in COUNT_SITES:
            self._patch(owner, attr, _counting(self._cells[name],
                                               getattr(owner, attr)))
        for owner, attr, name in SPAN_SITES:
            self._patch(owner, attr, self._spanning(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _spanning(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        on_result = _RESULT_HOOKS.get(name)
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            stack.append(idx)
            spans.append((name,))     # open span: its name only
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                # a tuple of atoms, which the cyclic collector stops tracking
                spans[idx] = (name, start, clock(), parent, op)
                stack.pop()
            if on_result is not None:
                on_result(tracer, spans[idx], result)
            return result

        return wrapper

    # -- phases ---------------------------------------------------------

    def begin(self, op) -> None:
        """Open the set-up phase (op=SETUP) or one op (op=its index)."""
        self.op = op
        self._base = {name: cell[0] for name, cell in self._cells.items()}

    def end(self) -> None:
        bucket = self.counts[SETUP if self.op == SETUP else "ops"]
        for name, cell in self._cells.items():
            bucket[name] = bucket.get(name, 0) + cell[0] - self._base[name]
        self.op = None

    def bump(self, key: str, amount: float = 1) -> None:
        self.stats[key] = self.stats.get(key, 0) + amount

    # -- reduction ------------------------------------------------------

    def layer_totals(self) -> dict:
        """Per (phase, span name): calls, inclusive ns and self ns.

        Self time is a span's duration minus the time its direct child
        spans cover; children never outlive their parent here, since
        the library is single-threaded.
        """
        child = [0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        totals: dict = {}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            phase = SETUP if op == SETUP else "ops"
            t = totals.setdefault((phase, name), [0, 0, 0])
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - child[i]
        return totals

    def dump(self, path, meta: dict) -> None:
        """Write every span and counter as one JSON document, a span at a
        time, so the write needs no second copy of the spans."""
        names = sorted({rec[0] for rec in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0
        head = {"meta": meta, "names": names, "counts": self.counts,
                "stats": self.stats,
                "fields": ["name", "start_ns", "end_ns", "parent", "op"]}
        with open(path, "w") as fh:
            fh.write(json.dumps(head, separators=(",", ":"))[:-1] + ',"spans":[')
            for k, (n, start, end, parent, op) in enumerate(self.spans):
                fh.write("%s[%d,%d,%d,%d,%s]" % ("," if k else "", index[n],
                         start - t0, end - t0, parent, json.dumps(op)))
            fh.write("]}")


def _counting(cell: list, fn):
    @functools.wraps(fn)
    def wrapper(*args):
        cell[0] += 1
        return fn(*args)
    return wrapper


def _erasure_result(tracer, rec, result) -> None:
    if rec[4] != SETUP and result is not None:
        tracer.bump("rs.erasure_decode.ok")


def _passes_result(tracer, rec, result) -> None:
    if rec[4] != SETUP:
        tracer.bump("layout.iterative_decode.passes", result.passes)


def _errmode_result(tracer, rec, result) -> None:
    # the transposed fallback re-enters through the same wrapper; only
    # the outermost call stands for the op
    parent = rec[3]
    if rec[4] == SETUP or (parent >= 0 and tracer.spans[parent][0] == rec[0]):
        return
    tracer.bump("errmode.calls")
    tracer.bump("errmode.rotations", result.rotations)
    tracer.bump("errmode.fallbacks", int(result.fallback_used))


_RESULT_HOOKS = {
    "rs.erasure_decode": _erasure_result,
    "layout.iterative_decode": _passes_result,
    "errmode.decode_errors_erasures": _errmode_result,
}


def layer_metrics(tracer: Tracer, ops: int, units: int,
                  sim_seconds: dict[str, tuple[int, float]]) -> dict[str, float]:
    """The per-layer metric values, by name, in BENCHMARK.json units.

    ops counts the traced ops; units counts what a per-op value is
    normalised to (ops, or trials on monte-carlo).  sim_seconds maps a
    decoder model to (trials, seconds) over its traced driver calls.
    Layers a workload does not touch report 0.
    """
    totals = tracer.layer_totals()
    counts_op = tracer.counts["ops"]
    counts_setup = tracer.counts[SETUP]

    def calls(name, phase="ops"):
        return totals.get((phase, name), (0, 0, 0))[0]

    def incl_s(name, phase="ops"):
        return totals.get((phase, name), (0, 0, 0))[1] / 1e9

    def self_s(*names):
        return sum(totals.get(("ops", n), (0, 0, 0))[2] for n in names) / 1e9

    def ratio(a, b):
        return a / b if b else 0.0

    per = max(units, 1)
    erasure_calls = calls("rs.erasure_decode")
    out = {
        "gf.mul_calls_per_op": counts_op.get("gf.mul", 0) / per,
        "gf.inv_calls_per_op": counts_op.get("gf.inv", 0) / per,
        "gf.alpha_pow_calls_per_op": counts_op.get("gf.alpha_pow", 0) / per,
        "gf.mul_calls_setup": float(counts_setup.get("gf.mul", 0)),
        "gf.field_build_s": incl_s("gf.field_build", SETUP),
        "linalg.rref.calls_per_op": calls("linalg.rref") / per,
        "linalg.self_ms_per_op": 1e3 * self_s(*LINALG_SPANS) / per,
        "linalg.rref.calls_setup": float(calls("linalg.rref", SETUP)),
        "rs.erasure_decode.calls_per_op": erasure_calls / per,
        "rs.erasure_decode.self_ms_per_op":
            1e3 * self_s("rs.erasure_decode") / per,
        "rs.erasure_decode.success_ratio":
            ratio(tracer.stats.get("rs.erasure_decode.ok", 0), erasure_calls),
        "rs.error_erasure_decode.calls_per_op":
            calls("rs.error_erasure_decode") / per,
        "rs.error_erasure_decode.self_ms_per_op":
            1e3 * self_s("rs.error_erasure_decode") / per,
        "rs.syndromes.calls_per_op": calls("rs.syndromes") / per,
        "eii.encode.cold_s": incl_s("eii.encode", SETUP),
        "eii.encode.self_ms_per_op": 1e3 * self_s("eii.encode") / per,
        "eii.decode_rows.calls_per_op": calls("eii.decode_rows") / per,
        "eii.decode_rows.self_ms_per_op": 1e3 * self_s("eii.decode_rows") / per,
        "eii.is_codeword.self_ms_per_op": 1e3 * self_s("eii.is_codeword") / per,
        "layout.iterative_decode.self_ms_per_op":
            1e3 * self_s("layout.iterative_decode") / per,
        "layout.iterative_decode.passes_per_op":
            tracer.stats.get("layout.iterative_decode.passes", 0) / per,
        "layout.transpose_code.calls_per_op": calls("layout.transpose_code") / per,
        "layout.encode_balanced.self_ms_per_op":
            1e3 * self_s("layout.encode_balanced") / per,
        "errmode.decode_errors_erasures.self_ms_per_op":
            1e3 * self_s("errmode.decode_errors_erasures") / per,
        "errmode.rotations_per_op": tracer.stats.get("errmode.rotations", 0) / per,
        "errmode.fallback_ratio": ratio(tracer.stats.get("errmode.fallbacks", 0),
                                        tracer.stats.get("errmode.calls", 0)),
        "sim.row_correctable.calls_per_trial":
            calls("sim.row_correctable") / per,
        "sim.row_correctable.self_us_per_trial":
            1e6 * self_s("sim.row_correctable") / per,
        "sim.driver.self_us_per_trial": 1e6 * self_s("sim.driver") / per,
        "cli.main.self_ms_per_op": 1e3 * self_s("cli.main") / per,
        "cli.grid_from_json.ms_per_op": 1e3 * incl_s("cli.grid_from_json") / per,
        "cli.grid_to_json.ms_per_op": 1e3 * incl_s("cli.grid_to_json") / per,
    }
    for model in ("rows", "cols", "iterative", "lrc"):
        trials, seconds = sim_seconds.get(model, (0, 0.0))
        out["sim.%s.trials_per_s" % model] = ratio(trials, seconds)
    return out
