"""The traced benchmark run finds every freerep function it wraps."""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """``spans`` and ``run`` from ``perfbench/``, unloaded afterwards."""
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        yield importlib.import_module("spans"), importlib.import_module("run")
    finally:
        for name in ("measure", "spans", "run"):
            sys.modules.pop(name, None)


def _resolves(module, name):
    return callable(getattr(importlib.import_module("freerep." + module),
                            name, None))


def test_traced_names_resolve(bench):
    spans, run = bench
    missing = [(module, name) for module, name, _ in spans.TARGETS
               if not _resolves(module, name)]
    missing += [dotted for dotted in run.CALLS + (spans.ROOT,)
                if not _resolves(*dotted.split("."))]
    assert missing == []
