"""Self-tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench -q
"""

import json
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import measure  # noqa: E402
from measure import (  # noqa: E402
    Tally,
    closed_loop,
    paired_passes,
    pass_rates,
    self_times,
    system_medians,
    tail,
    whole_passes,
    words_enumerated,
)


def test_self_time_nested_spans():
    # root 0..10 > a 1..4 > b 2..3
    spans = [(0.0, 10.0, None), (1.0, 4.0, 0), (2.0, 3.0, 1)]
    assert self_times(spans) == pytest.approx([7.0, 2.0, 1.0])


def test_self_time_sibling_spans():
    # root 0..10 with children 1..4 and 5..7
    spans = [(0.0, 10.0, None), (1.0, 4.0, 0), (5.0, 7.0, 0)]
    assert self_times(spans) == pytest.approx([5.0, 3.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    spans = [(0.0, 10.0, None), (1.0, 4.0, 0), (3.0, 6.0, 0),
             (3.5, 4.5, 0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_self_times_add_up_to_the_root():
    spans = [(0.0, 10.0, None), (1.0, 4.0, 0), (2.0, 3.0, 1),
             (5.0, 7.0, 0), (5.5, 6.0, 3)]
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_tail_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 35)]  # 1..34
    value, pct, n = tail(samples)
    assert n == 34
    assert sum(s > value for s in samples) == 10
    assert value == 24.0
    assert pct == pytest.approx(100.0 * 24 / 34)


def test_tail_with_eleven_samples_is_the_minimum():
    value, pct, n = tail([5.0, 3.0] + [9.0] * 9)
    assert (value, n) == (3.0, 11)
    assert pct == pytest.approx(100.0 / 11)


def test_tail_with_too_few_samples_is_p0():
    assert tail([2.0, 1.0, 3.0]) == (1.0, 0.0, 3)


def test_whole_passes():
    assert whole_passes(50, 16) == 48
    assert whole_passes(48, 16) == 48
    # not one pass completed: every call counts
    assert whole_passes(10, 16) == 10


def test_pass_rates_count_passed_calls_per_pass():
    # two passes of two systems; one call of the second pass failed
    assert pass_rates([1.0, 1.0, 0.5, 1.5], [True, True, True, False], 2) \
        == [1.0, 0.5]
    # not one pass completed: the calls made are one pass
    assert pass_rates([2.0], [True], 3) == [0.5]


def test_system_medians_follow_the_cycle():
    # three passes of (a, b): a took 1, 5, 2 and b 10, 30, 20
    assert system_medians([1.0, 10.0, 5.0, 30.0, 2.0, 20.0], 2) == \
        [2.0, 20.0]
    # fewer calls than systems: one value per system called
    assert system_medians([3.0], 4) == [3.0]


def test_words_enumerated():
    # rank 2: 4 + 12 + 36 words of length 1..3
    assert words_enumerated(4, 3) == 52
    assert words_enumerated(6, 0) == 0


def _fake_call(item):
    if item == "raise":
        raise RuntimeError("boom")
    return item


def _fake_check(item, result, error):
    if error is not None:
        return ["raised"]
    return ["bad report"] if result == "bad" else []


def test_failures_count_raises_and_failed_checks():
    tally = Tally()
    lat = closed_loop(["ok", "raise", "bad", "ok"], _fake_call, _fake_check,
                      tally, count=6)
    assert len(lat) == 6
    # ok, raise, bad, ok, ok, raise
    assert (tally.attempted, tally.failed) == (6, 3)
    assert tally.problems == {"raised": 2, "bad report": 1}


def test_a_failed_check_with_several_problems_is_one_failure():
    tally = Tally()
    closed_loop(["x"], lambda item: item, lambda *a: ["p", "q"], tally,
                count=2)
    assert (tally.attempted, tally.failed) == (2, 2)
    assert tally.problems == {"p": 2, "q": 2}


def test_loop_stops_on_timed_seconds():
    tally = Tally()
    lat = closed_loop([1], lambda item: item, lambda *a: [], tally,
                      seconds=1e-4)
    assert sum(lat) >= 1e-4
    assert tally.attempted == len(lat)


def test_loop_wants_exactly_one_limit():
    with pytest.raises(ValueError):
        closed_loop([1], lambda i: i, lambda *a: [], Tally())


class _Clock:
    """Stand-in for ``time``: each call advances it by one second."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now

    def call(self, item):
        self.now += 1.0


def _paired(monkeypatch, items, seconds):
    clock = _Clock()
    monkeypatch.setattr(measure, "time", clock)
    log = []

    @contextmanager
    def tracing():
        log.append("on")
        yield
        log.append("off")

    def call(item):
        clock.call(item)
        log.append(item)

    tally = Tally()
    plain, traced = paired_passes(items, call, call, tracing,
                                  lambda *a: [], tally, seconds)
    return plain, traced, log, tally


def test_paired_passes_trace_only_the_second_call(monkeypatch):
    plain, traced, log, tally = _paired(monkeypatch, ["a", "b"], 1.0)
    # one pass even though it overruns; the tracer is on around the
    # traced call of each system only, and the order alternates
    assert log == ["a", "on", "a", "off", "on", "b", "off", "b"]
    assert plain == traced == [1.0, 1.0]
    assert tally.attempted == 4


def test_paired_passes_stop_before_a_pass_would_overrun(monkeypatch):
    # a pass takes 4 s: two fit in 11 s, a third would not
    plain, traced, _, _ = _paired(monkeypatch, ["a", "b"], 11.0)
    assert len(plain) == len(traced) == 4
    plain, traced, _, _ = _paired(monkeypatch, ["a", "b"], 12.0)
    assert len(plain) == len(traced) == 6


def test_benchmark_json_matches_the_metrics_printed():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        run.per_layer_units()
    declared = tuple(w["name"] for w in spec["workloads"])
    assert declared == run.WORKLOADS[:len(declared)]


@pytest.fixture(scope="module")
def endpoint_run(tmp_path_factory):
    """Traced classify of the endpoint system."""
    from freerep import cli, generate
    from freerep.sysio import dump_json, system_to_doc
    from spans import Tracer

    tmp = tmp_path_factory.mktemp("endpoint")
    system_path = tmp / "s0.json"
    report_path = tmp / "s0.report.json"
    system_path.write_text(dump_json(system_to_doc(generate.s0_system())))
    original = cli.classify
    tracer = Tracer()
    with tracer.installed(), tracer.op("s0"):
        code = cli.main(["classify", str(system_path), "--out",
                         str(report_path)])
    assert cli.classify is original
    return code, json.loads(report_path.read_text()), tracer


def test_tracer_nests_spans_under_the_operation(endpoint_run):
    _, _, tracer = endpoint_run
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main"
    assert all(s[3] is not None for s in tracer.spans[1:])
    assert all(s[4] == "s0" for s in tracer.spans)
    summary = tracer.summary()
    assert summary["systems.normalize"]["calls"] == 2
    assert summary["series.sphere_sums"]["attrs"]["horizon"] == [10]
    root = tracer.spans[0]
    total = sum(entry["self_s"] for entry in summary.values())
    assert total == pytest.approx(root[2] - root[1])


def test_tracer_records_nothing_outside_an_operation(endpoint_run):
    from freerep import generate
    from freerep.systems import normalize
    from spans import Tracer

    tracer = Tracer()
    with tracer.installed():
        normalize(generate.s0_system())
    assert tracer.spans == []


def test_report_checks(endpoint_run):
    import run
    from workloads import Item

    code, report, _ = endpoint_run
    item = Item("s0", None, "BII", endpoint=True)
    assert code == 0
    assert run.report_problems(report, item) == []
    bad = dict(report, mult_one=2, rho_T=1.1, diagnostics=[
        "sphere sum s_3 violates the (n+1)^2 bound"])
    assert len(run.report_problems(bad, item)) == 3
    assert run.report_problems(dict(report, **{"class": "AI"}), item) == \
        ["class AI, known BII"]
    assert run.report_problems(dict(report, extra=1), item)[0].startswith(
        "schema")
