"""epcodes benchmark: one workload per run, end-to-end or per-layer.

    python3 bench/run.py --workload codec-erasure --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

Run from a checkout's root; the library is imported from its src/.  With
--trace 0 the workload's ops run untraced and the end-to-end metrics are
reported; with --trace 1 the same ops run once untraced and once under
the tracer, and the per-layer metrics plus the tracing overhead are
reported.  Lines starting with "#" and the metric table are for people;
the last line of standard output is the JSON result.  --smoke runs every
workload at a tiny length, both ways, and checks names, units and the
result schema against BENCHMARK.json.

Each run is one process with one thread and a closed loop with one
caller.  Timings cover the library or cli.main calls only; input
generation, pattern injection and output checks are untimed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "bench", "out")

# percentile reported next to the median; p99 needs more ops than the
# slowest workloads complete in one run (see bench/README.md)
TAIL = 95

# enough ops in a smoke run to reach every op kind of every workload
SMOKE_OPS = 4

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p%d" % TAIL: "ms",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "gf.mul_calls_per_op": "count",
    "gf.inv_calls_per_op": "count",
    "gf.alpha_pow_calls_per_op": "count",
    "gf.mul_calls_setup": "count",
    "gf.field_build_s": "s",
    "linalg.rref.calls_per_op": "count",
    "linalg.self_ms_per_op": "ms",
    "linalg.rref.calls_setup": "count",
    "rs.erasure_decode.calls_per_op": "count",
    "rs.erasure_decode.self_ms_per_op": "ms",
    "rs.erasure_decode.success_ratio": "ratio",
    "rs.error_erasure_decode.calls_per_op": "count",
    "rs.error_erasure_decode.self_ms_per_op": "ms",
    "rs.syndromes.calls_per_op": "count",
    "eii.encode.cold_s": "s",
    "eii.encode.self_ms_per_op": "ms",
    "eii.decode_rows.calls_per_op": "count",
    "eii.decode_rows.self_ms_per_op": "ms",
    "eii.is_codeword.self_ms_per_op": "ms",
    "layout.iterative_decode.self_ms_per_op": "ms",
    "layout.iterative_decode.passes_per_op": "count",
    "layout.transpose_code.calls_per_op": "count",
    "layout.encode_balanced.self_ms_per_op": "ms",
    "errmode.decode_errors_erasures.self_ms_per_op": "ms",
    "errmode.rotations_per_op": "count",
    "errmode.fallback_ratio": "ratio",
    "sim.row_correctable.calls_per_trial": "count",
    "sim.row_correctable.self_us_per_trial": "us",
    "sim.driver.self_us_per_trial": "us",
    "sim.rows.trials_per_s": "1/s",
    "sim.cols.trials_per_s": "1/s",
    "sim.iterative.trials_per_s": "1/s",
    "sim.lrc.trials_per_s": "1/s",
    "cli.main.self_ms_per_op": "ms",
    "cli.grid_from_json.ms_per_op": "ms",
    "cli.grid_to_json.ms_per_op": "ms",
    "trace.op_ms.p50": "ms",
    "trace.untraced_op_ms.p50": "ms",
    "trace.overhead_ratio": "ratio",
}


def use_checkout_sources() -> None:
    """Import epcodes from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "epcodes", "__init__.py")):
        sys.exit("bench: no epcodes sources under %s" % src)
    sys.path.insert(0, src)
    import epcodes
    if not os.path.abspath(epcodes.__file__).startswith(src + os.sep):
        sys.exit("bench: epcodes was imported from %s" % epcodes.__file__)


def run_meta() -> dict:
    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "platform": platform.platform()}


def _git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def failed_ratio(failed: int, attempted: int) -> float:
    return failed / attempted


def percentile(values, p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Loop:
    """Samples, output digests and failures of one pass over the ops."""

    def __init__(self):
        self.samples = []
        self.digests = []
        self.failed = 0
        self.problems = []

    def units(self) -> int:
        return sum(s.units for s in self.samples)


# Every op and set-up is bracketed by a probe: a fixed pure-Python loop
# timed on its own, in CPU time like the calls.  The shared host this
# benchmark was tuned on swings, over seconds to minutes, between full
# speed and about 1/1.6 of it, driven by load outside the process; the
# raw medians of otherwise equal runs moved by up to 40% with the speed
# they happened to get.  Reported times are therefore scaled to a
# reference speed: raw time * REF_PROBE_S / probe, where probe is the
# mean of the probes just before and after the call.  The probe is the
# same code on every commit, so the scaling cancels the host's speed and
# leaves the library's.  Raw medians are printed next to the scaled ones.
REF_PROBE_S = 0.0002


def probe() -> float:
    t0 = time.thread_time()
    x = 0
    for i in range(3000):
        x += i * i % 7
    return time.thread_time() - t0


def scaled(seconds: float, probe_s: float) -> float:
    return seconds * REF_PROBE_S / probe_s


def run_ops(wl, seconds=None, count=None, tracer=None, check=True) -> Loop:
    """Run ops 0, 1, ... until the time or the count runs out (at least
    one op); the tracer, when given, brackets each op."""
    loop = Loop()
    start = time.perf_counter()
    i = 0
    while (count is None or i < count) and (
            i == 0 or seconds is None or time.perf_counter() - start < seconds):
        inp = wl.make_input(i)
        before = probe()
        if tracer is not None:
            tracer.begin(i)
        try:
            sample = wl.run_op(inp)
        finally:
            if tracer is not None:
                tracer.end()
        sample.probe = (before + probe()) / 2
        loop.digests.append(wl.digest(sample.output))
        if check:
            problems = wl.check(i, inp, sample.output)
            if problems:
                loop.failed += sample.units
                loop.problems.append("op %d (%s): %s"
                                     % (i, wl.kind(i), "; ".join(problems)))
        # keep the timings only, so memory does not grow with the op count
        sample.output = None
        loop.samples.append(sample)
        i += 1
    return loop


def _finish(wl, loop: Loop) -> None:
    problems, bad_units = wl.finish()
    loop.problems += problems
    loop.failed = min(loop.units(), loop.failed + bad_units)
    if problems and not bad_units:
        loop.failed = max(loop.failed, 1)


def op_ms(samples, raw: bool = False) -> list[float]:
    """Per-op milliseconds of each sample, scaled unless raw."""
    return [1e3 * sum(s.phases) / s.units
            * (1 if raw else REF_PROBE_S / s.probe) for s in samples]


def run_untraced(wl, seconds, setup_reps, count=None):
    setups = []     # (raw seconds, probe)
    for _ in range(setup_reps):
        before = probe()
        t0 = time.thread_time()
        wl.setup()
        elapsed = time.thread_time() - t0
        setups.append((elapsed, (before + probe()) / 2))
    gc.collect()
    loop = run_ops(wl, seconds=seconds, count=count)
    _finish(wl, loop)
    samples = loop.samples
    times = op_ms(samples)
    raw = op_ms(samples, raw=True)
    metrics = {
        "setup_s": statistics.median(scaled(t, p) for t, p in setups),
        "ops_per_s": loop.units() / sum(
            scaled(sum(s.phases), s.probe) for s in samples),
        "op_ms.p50": statistics.median(times),
        "op_ms.p%d" % TAIL: percentile(times, TAIL),
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = [
        ("raw setup_s, each set-up", " ".join("%.4f" % t for t, _ in setups)),
        ("raw op_ms.p50 / p%d" % TAIL, "%.6g / %.6g ms" % (
            statistics.median(raw), percentile(raw, TAIL))),
        ("probe_ms.p50 (reference %.4g)" % (1e3 * REF_PROBE_S), "%.6g ms" % (
            1e3 * statistics.median(s.probe for s in samples))),
        ("op_ms.p99 (%d beyond)" % (len(times) // 100),
         "%.6g ms" % percentile(times, 99)),
    ]
    for j, phase in enumerate(wl.phase_names):
        durations = [1e3 * scaled(s.phases[j], s.probe) for s in samples]
        extra.append(("%s_ms.p50 / p%d" % (phase, TAIL), "%.6g / %.6g ms" % (
            statistics.median(durations), percentile(durations, TAIL))))
    by_kind: dict = {}
    for i, s in enumerate(samples):
        by_kind.setdefault(wl.kind(i), []).append(s)
    for kind, group in sorted(by_kind.items()):
        parts = ["op %.4g" % statistics.median(op_ms(group))]
        if len(wl.phase_names) > 1 and len(wl.kinds) > 1:
            parts += ["%s %.4g" % (phase, statistics.median(
                1e3 * scaled(s.phases[j], s.probe) for s in group))
                for j, phase in enumerate(wl.phase_names)]
        extra.append(("kind %s (%d ops) p50" % (kind, len(group)),
                      ", ".join(parts) + " ms"))
    return loop, metrics, extra


def run_traced(wl, seconds, count=None):
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin(tracing.SETUP)
        try:
            wl.setup()
        finally:
            tracer.end()
    finally:
        tracer.uninstall()
    gc.collect()
    plain = run_ops(wl, seconds=None if count else seconds / 2, count=count)
    _finish(wl, plain)
    gc.collect()
    tracer.install()
    try:
        traced = run_ops(wl, count=len(plain.samples), tracer=tracer, check=False)
    finally:
        tracer.uninstall()
    mismatched = sum(a != b for a, b in zip(plain.digests, traced.digests))
    if mismatched:
        plain.problems.append("%d traced outputs differ from untraced ones"
                              % mismatched)
        plain.failed += mismatched

    metrics = tracing.layer_metrics(tracer, len(traced.samples), traced.units(),
                                    wl.trials_by_model(traced.samples))
    traced_p50 = statistics.median(op_ms(traced.samples))
    plain_p50 = statistics.median(op_ms(plain.samples))
    metrics["trace.op_ms.p50"] = traced_p50
    metrics["trace.untraced_op_ms.p50"] = plain_p50
    metrics["trace.overhead_ratio"] = traced_p50 / plain_p50
    return plain, metrics, tracer


def run_workload(name, seed, seconds, trace, count=None, setup_reps=None,
                 dump=True):
    """One benchmark run; returns (result dict, report lines)."""
    import workloads
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, workdir)
    try:
        if trace:
            loop, metrics, tracer = run_traced(wl, seconds, count)
            units = LAYER_UNITS
            extra = []
        else:
            loop, metrics, extra = run_untraced(
                wl, seconds, setup_reps or wl.setup_reps, count)
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = loop.units()
    result = {"correct": loop.failed == 0 and not loop.problems,
              "attempted": attempted, "failed": loop.failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units}}
    meta = dict(run_meta(), workload=name, seed=seed, seconds=seconds,
                trace=int(trace), ops=len(loop.samples), units=loop.units())
    if trace and dump:
        tracer.dump(os.path.join(OUT_DIR, "trace-%s.json" % name), meta)
    lines = ["# " + json.dumps(meta, sort_keys=True)]
    for key in units:
        lines.append("%-46s %14.6g %s" % (key, metrics[key], units[key]))
    lines += ["%-46s %s" % pair for pair in extra]
    lines.append("%-46s %14.6g ratio (%d of %d)"
                 % ("failed_ratio", failed_ratio(result["failed"], attempted),
                    result["failed"], attempted))
    lines += ["# note: " + n for n in wl.notes]
    lines += ["# check failed: " + p for p in loop.problems[:20]]
    return result, lines


def smoke() -> int:
    """Every workload for a few ops, untraced and traced, checked
    against BENCHMARK.json; exit status 0 when all is well."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    if failed_ratio(1, 4) != 0.25 or failed_ratio(0, 7) != 0.0:
        problems.append("failed_ratio miscomputed")
    declared = {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if declared["end_to_end"] != E2E_UNITS:
        problems.append("end_to_end names or units differ from BENCHMARK.json")
    if declared["per_layer"] != LAYER_UNITS:
        problems.append("per_layer names or units differ from BENCHMARK.json")
    import workloads
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        problems.append("workloads differ from BENCHMARK.json")
    for name in names:
        for trace, table in ((0, "end_to_end"), (1, "per_layer")):
            result, lines = run_workload(name, seed=1, seconds=None, trace=trace,
                                         count=SMOKE_OPS, setup_reps=1,
                                         dump=False)
            problems += ["%s trace=%d: %s" % (name, trace, p)
                         for p in schema_problems(result, declared[table])]
            print("%s trace=%d: %d ops, failed_ratio %s" % (
                name, trace, result["attempted"],
                failed_ratio(result["failed"], result["attempted"])))
    for p in problems:
        print("smoke: " + p)
    return 1 if problems else 0


def schema_problems(result: dict, units: dict) -> list[str]:
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(result))
    if not isinstance(result["correct"], bool) or not result["correct"]:
        problems.append("outputs failed their checks")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < (key == "attempted"):
            problems.append("bad %s %r" % (key, result[key]))
    if set(result["metrics"]) != set(units):
        problems.append("metric names differ")
    for key, m in result["metrics"].items():
        if (m.get("unit") != units.get(key)
                or not isinstance(m.get("value"), (int, float))):
            problems.append("metric %s is %r" % (key, m))
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    use_checkout_sources()
    if args.smoke:
        return smoke()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error("--workload must be one of %s" % ", ".join(workloads.WORKLOADS))
    result, lines = run_workload(args.workload, args.seed, args.seconds,
                                 args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
