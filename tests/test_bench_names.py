"""The traced benchmark run finds every freerep function it wraps, and
reads its recorded values off their results."""

import importlib
import json
import sys
from pathlib import Path

import pytest

from freerep import generate
from freerep.cli import _first_edge_vector
from freerep.systems import normalize
from freerep.twin import twin_package

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


def test_observers_read_real_results(bench):
    # each observer reads fields off a real result, so a change to a
    # traced function's return type shows here and not only in a run
    spans, _ = bench
    nsys = normalize(generate.s0_system())
    edge = _first_edge_vector(nsys)
    args = {
        ("series", "sphere_sums"): (edge, edge, 4),
        ("intertwiner", "w_layout"): (nsys, 1),
        ("spectral", "build_D"): (twin_package(nsys),),
    }
    observed = [(module, name, observe)
                for module, name, observe in spans.TARGETS if observe]
    assert {(module, name) for module, name, _ in observed} == set(args)
    for module, name, observe in observed:
        call = args[(module, name)]
        fn = getattr(importlib.import_module("freerep." + module), name)
        values = observe(fn(*call), call)
        assert values
        json.dumps(values)
