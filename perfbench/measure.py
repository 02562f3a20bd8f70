"""Arithmetic of the benchmark: the closed loop with its failure
accounting, the paired plain and traced passes, whole passes, per-pass
rates, per-system medians, the tail percentile and span self times.

Nothing here imports freerep, so the self-tests drive it with stand-in
calls and hand-made spans.
"""

import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

# a tail percentile is reported only with this many samples beyond it
TAIL_BEYOND = 10


@dataclass
class Tally:
    """Attempted and failed operations, with a count per problem text."""

    attempted: int = 0
    failed: int = 0
    problems: Counter = field(default_factory=Counter)

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.update(problems)


def _timed(item, call, check, tally):
    """One call of ``call(item)``, timed; the check runs after the clock
    stops.  Returns the latency in seconds."""
    result = error = None
    t0 = time.perf_counter()
    try:
        result = call(item)
    except Exception as exc:  # a raising call is one failed operation
        error = exc
    dt = time.perf_counter() - t0
    tally.record(check(item, result, error))
    return dt


def closed_loop(items, call, check, tally, seconds=None, count=None):
    """One client calling ``call(item)`` back to back, cycling over
    ``items`` from the first.

    Stops once the timed calls add up to ``seconds``, or after ``count``
    calls when that is given.  Only the call itself is timed.
    ``check(item, result, error)`` runs after the clock stops and returns
    a list of problems; a call that raises is passed to it as ``error``.
    Returns the per-call latencies in seconds.
    """
    if (seconds is None) == (count is None):
        raise ValueError("give exactly one of seconds and count")
    latencies = []
    busy = 0.0
    while True:
        dt = _timed(items[len(latencies) % len(items)], call, check, tally)
        latencies.append(dt)
        busy += dt
        if count is not None:
            if len(latencies) >= count:
                return latencies
        elif busy >= seconds:
            return latencies


def paired_passes(items, call, traced_call, tracing, check, tally, seconds):
    """Whole passes over ``items`` in which each system is called once
    plainly and once as ``traced_call``, with ``tracing()`` (a context
    manager that switches the tracer on and off) around the traced call
    but outside its clock.

    Pairing the two calls of the same system keeps slow drift of the
    host out of their ratio; which of the two goes first alternates from
    system to system, so neither side always runs right after the same
    system.  Passes go on while one more pass, as long as the last, still
    fits in ``seconds`` of timed calls; there is at least one.  Returns
    the plain and the traced latencies.
    """
    plain, traced = [], []
    while True:
        before = sum(plain) + sum(traced)
        for i, item in enumerate(items):
            if i % 2 == 0:
                plain.append(_timed(item, call, check, tally))
            with tracing():
                traced.append(_timed(item, traced_call, check, tally))
            if i % 2 == 1:
                plain.append(_timed(item, call, check, tally))
        busy = sum(plain) + sum(traced)
        if busy + (busy - before) > seconds:
            return plain, traced


def tail(samples):
    """Highest percentile with at least ``TAIL_BEYOND`` samples above it.

    Returns ``(value, percentile, n)``.  With ``TAIL_BEYOND`` or fewer
    samples no percentile qualifies and the smallest sample is returned
    as p0.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    idx = n - TAIL_BEYOND - 1
    if idx < 0:
        return ordered[0], 0.0, n
    return ordered[idx], 100.0 * (idx + 1) / n, n


def whole_passes(calls, pass_len):
    """Number of leading calls that make whole passes over ``pass_len``
    systems; all ``calls`` when not even one pass completed."""
    return calls // pass_len * pass_len or calls


def pass_rates(latencies, passed, pass_len):
    """Passed calls per second of each pass over ``pass_len`` systems.

    ``latencies`` and ``passed`` cover whole passes; when not even one
    pass completed they make a single, partial pass.
    """
    return [sum(passed[i:i + pass_len]) / sum(latencies[i:i + pass_len])
            for i in range(0, len(latencies), pass_len)]


def system_medians(latencies, pass_len):
    """Median latency of each system, the calls cycling over ``pass_len``
    systems from the first."""
    return [statistics.median(latencies[i::pass_len])
            for i in range(min(pass_len, len(latencies)))]


def self_times(spans):
    """Self time of each span: its duration minus the part of it that its
    child spans cover.

    ``spans`` is a sequence of ``(start, end, parent)`` with ``parent`` an
    index into ``spans`` or ``None``.  Overlapping children are counted
    once.
    """
    children = [[] for _ in spans]
    for i, (_, _, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for s, e in sorted((spans[c][0], spans[c][1]) for c in children[i]):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


def words_enumerated(size, horizon):
    """Reduced words of lengths 1..horizon over ``size`` letters (the
    generators and their inverses)."""
    return sum(size * (size - 1) ** (n - 1) for n in range(1, horizon + 1))

