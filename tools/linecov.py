"""Which lines of the epcodes package a pytest run never executes.

A pytest plugin on the standard library alone (coverage.py is not
needed).  From the top of the repository:

    PYTHONPATH=src:tools python -m pytest -p linecov -o faulthandler_timeout=0

It traces every thread with sys.settrace from the moment pytest loads
it, before any test module imports epcodes, and records the lines run
in files of the package.  At the end of the session it prints, per
module, the executable lines that never ran, as ranges, and the total.
A line is executable when the compiled module or one of its functions
starts a line there.  Tracing makes the run about eight times slower,
so the per-test timeout has to be lifted as above.
"""

from __future__ import annotations

import dis
import importlib.util
import os
import sys
import threading
from collections import defaultdict

_SPEC = importlib.util.find_spec("epcodes")
if _SPEC is None or not _SPEC.submodule_search_locations:
    raise ImportError("linecov needs the epcodes package on sys.path")
if "epcodes" in sys.modules:
    raise ImportError("linecov must be loaded before epcodes is imported")
PACKAGE_DIR = os.path.realpath(list(_SPEC.submodule_search_locations)[0])

_hits: dict[str, set[int]] = defaultdict(set)
_ours: dict[str, bool] = {}


def _is_ours(filename: str) -> bool:
    ours = _ours.get(filename)
    if ours is None:
        path = os.path.realpath(filename)
        ours = _ours[filename] = (os.path.dirname(path) == PACKAGE_DIR
                                  and path.endswith(".py"))
    return ours


def _trace(frame, event, arg):
    filename = frame.f_code.co_filename
    if not _is_ours(filename):
        return None  # no line events for this frame
    lines = _hits[filename]
    lines.add(frame.f_lineno)

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local
    return local


def executable_lines(path: str) -> set[int]:
    """The lines where the module's code objects start a line."""
    with open(path, encoding="utf-8") as f:
        code = compile(f.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        co = todo.pop()
        # a module's code starts at line 0, before any source line
        lines.update(line for _, line in dis.findlinestarts(co) if line)
        todo.extend(c for c in co.co_consts if hasattr(c, "co_code"))
    return lines


def _ranges(lines) -> str:
    out, run = [], []
    for line in sorted(lines):
        if run and line != run[-1] + 1:
            out.append(run)
            run = []
        run.append(line)
    if run:
        out.append(run)
    return ", ".join(str(r[0]) if len(r) == 1 else "%d-%d" % (r[0], r[-1])
                     for r in out)


def report() -> list[str]:
    """Per module, the missed lines, then the total."""
    out, ran, total = [], 0, 0
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE_DIR, name)
        want = executable_lines(path)
        hit = set()
        for filename, lines in _hits.items():
            if os.path.realpath(filename) == path:
                hit |= lines
        missed = want - hit
        ran += len(want) - len(missed)
        total += len(want)
        out.append("%-12s %4d of %4d missed: %s"
                   % (name, len(missed), len(want), _ranges(missed) or "-"))
    out.append("ran %d of %d executable lines (%.1f%%)"
               % (ran, total, 100.0 * ran / max(total, 1)))
    return out


def pytest_configure(config):
    threading.settrace(_trace)
    sys.settrace(_trace)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter):
    terminalreporter.section("epcodes lines never run")
    for line in report():
        terminalreporter.write_line(line)
