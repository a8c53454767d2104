"""The benchmark tracer's patch sites exist under the names it patches."""

from __future__ import annotations

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_site_is_bound_on_its_owner(monkeypatch):
    # the tracer replaces owner.__dict__[attr]; a renamed or moved site
    # would otherwise only show up as a KeyError in a traced bench run
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = pytest.importorskip("tracing")
    sites = tracing.SPAN_SITES + tracing.COUNT_SITES
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _ in sites if attr not in vars(owner)]
    assert sites and not missing
