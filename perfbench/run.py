"""freerep benchmark: closed-loop ``freerep classify`` on one workload.

    python3 perfbench/run.py --workload classes --seed 0 --seconds 50 --trace 0

One client in one process calls ``freerep.cli.main(["classify", FILE,
"--out", OUT])`` back to back, with the CLI defaults (``--tol 1e-9
--nmax 10``) and one worker.  Every report is checked after the clock
stops.  With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it calls each system untraced and traced in turn and prints
per-layer metrics from the spans (see README.md).  ``classes`` and
``wide`` are the declared workloads; ``portfolio`` runs the same way but
is left out of BENCHMARK.json (README.md says why).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import argparse
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

from measure import (Tally, closed_loop, paired_passes, pass_rates,
                     system_medians, tail, whole_passes)
from spans import LINALG, ROOT as SPAN_ROOT, TARGETS, Tracer

WORKLOADS = ("classes", "wide", "portfolio")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# set-ups per end-to-end run; setup_s is their median
SETUPS = 3
# the tail is taken over this many whole passes, so that every run's
# tail is the same percentile however many passes it made
TAIL_PASSES = 3

END_TO_END = (
    ("throughput_sps", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("decided_frac", "frac"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# traced names that also report calls per classify call, as linalg does
CALLS = ("functions.canonicalize", "spectral.q_least_squares",
         "systems.normalize")
RESULT_VALUES = (
    ("series.horizon_mean", "length"),
    ("series.cutoff_frac", "frac"),
    ("series.words", "words/op"),
    ("intertwiner.w_layout.dim_max", "dim"),
    ("spectral.D_side_max", "dim"),
)
# printed and stored with each end-to-end result, not declared as metrics
EXTRA_UNITS = (
    ("latency_tail_percentile", "%"),
    ("latency_samples", "count"),
    ("complete_frac", "frac"),
    ("failed_frac", "frac"),
    ("whole_passes", "count"),
    ("pass_s", "s"),
)
TRACE_VALUES = (
    ("trace.overhead_frac", "frac"),
)

TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')
BOUND_VIOLATION = "(n+1)^2 bound"


def span_names():
    return ([SPAN_ROOT] + ["%s.%s" % (m, f) for m, f, _ in TARGETS]
            + ["linalg." + f for f in LINALG])


def per_layer_units():
    """Name and unit of every per-layer metric, in output order."""
    out = [(name + ".self_s", "s/op") for name in span_names()]
    out += [(name + ".calls", "calls/op")
            for name in CALLS + tuple("linalg." + f for f in LINALG)]
    return out + list(RESULT_VALUES) + list(TRACE_VALUES)


class _Discard(io.TextIOBase):
    """Sink for the CLI's ``wrote: ...`` lines."""

    def write(self, text):
        return len(text)


def _commit():
    try:
        # the ceiling keeps git from reporting an enclosing repository
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, env=dict(os.environ,
                                GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(threads):
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key)
                for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "FREEREP_THREADS": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def endpoint_problems(path):
    """The endpoint system must give ``s_0 = 1`` and ``s_1 = 2/3``."""
    import numpy as np
    from freerep.functions import first_shell, norm
    from freerep.series import sphere_sums
    from freerep.sysio import load_system
    from freerep.systems import normalize

    nsys = normalize(load_system(path).system)
    v = np.zeros(nsys.dims[0])
    v[0] = 1.0
    f = first_shell(nsys, {0: v})
    f = first_shell(nsys, {0: v / norm(f)})
    s = sphere_sums(f, f, 1).s
    if abs(s[0] - 1.0) > 1e-12 or abs(s[1] - 2.0 / 3.0) > 1e-12:
        return ["endpoint gives s_0 = %r, s_1 = %r" % (s[0], s[1])]
    return []


def report_problems(report, item):
    """Checks on one parsed report; returns the problems found."""
    import jsonschema
    from freerep.sysio import validate_report

    try:
        validate_report(report)
    except jsonschema.ValidationError as exc:
        return ["schema: %s" % exc.message]
    problems = []
    expected = 4 if report["twins_equivalent"] else 2
    if report["mult_one"] != expected:
        problems.append("mult_one %d with twins_equivalent %s"
                        % (report["mult_one"], report["twins_equivalent"]))
    if abs(report["rho_T"] - 1.0) > 1e-8:
        problems.append("|rho_T - 1| above 1e-8")
    if any(BOUND_VIOLATION in d for d in report["diagnostics"]):
        problems.append("(n+1)^2 bound violated")
    if item.known_class is not None and \
            report["class"] not in (item.known_class, None):
        problems.append("class %s, known %s"
                        % (report["class"], item.known_class))
    return problems


class Checker:
    """Checks each call's report and keeps one record per call."""

    def __init__(self):
        # system name -> (system file, report file), filled by set_up
        self.paths = {}
        self.previous = {}
        # (system, exit code, passed, decided, complete) per call
        self.records = []

    def __call__(self, item, code, error):
        problems, report = self._check(item, code, error)
        self.records.append((
            item.name, code, not problems,
            report is not None and report["verdict"] != "undecided",
            report is not None and not report["series_cutoff"]))
        return ["%s: %s" % (item.name, p) for p in problems]

    def _check(self, item, code, error):
        if error is not None:
            return ["raised %s" % type(error).__name__], None
        if code not in (0, 2):
            return ["exit code %s" % code], None
        system_path, report_path = self.paths[item.name]
        try:
            text = report_path.read_bytes()
            report_path.unlink()
            report = json.loads(text)
        except (OSError, ValueError) as exc:
            return ["no readable report (%s)" % exc], None
        problems = report_problems(report, item)
        stripped = TIMESTAMP.sub(b"", text)
        if self.previous.setdefault(item.name, stripped) != stripped:
            problems.append("report differs from the previous pass")
        if item.endpoint:
            problems += endpoint_problems(system_path)
        return problems, report


def set_up(workload, seed, workdir, checker, tally, call):
    """Generate the systems, write them, and classify the first once.
    Returns the items and the seconds taken."""
    import workloads
    from freerep.sysio import dump_json, system_to_doc

    t0 = time.perf_counter()
    items = workloads.items(workload, seed)
    for it in items:
        system_path = workdir / (it.name + ".json")
        system_path.write_text(dump_json(system_to_doc(it.system,
                                                       label=it.name)))
        checker.paths[it.name] = (system_path,
                                  workdir / (it.name + ".report.json"))
    closed_loop(items, call, checker, tally, count=1)
    return items, time.perf_counter() - t0


def end_to_end(args, workdir, import_s, checker, tally, call):
    setups = [set_up(args.workload, args.seed, workdir, checker, tally,
                     call) for _ in range(SETUPS)]
    items = setups[0][0]
    setup_s = import_s + statistics.median(s for _, s in setups)
    first = len(checker.records)
    lat = closed_loop(items, call, checker, tally, seconds=args.seconds)
    # every figure over whole passes, so each system weighs the same
    # however far the run got; medians over passes and over each
    # system's calls, so one slow stretch of the host moves them less
    k = whole_passes(len(lat), len(items))
    records = checker.records[first:first + k]
    value, pct, n = tail(lat[:min(k, TAIL_PASSES * len(items))])
    metrics = {
        "throughput_sps": statistics.median(
            pass_rates(lat[:k], [r[2] for r in records], len(items))),
        "latency_p50_s": statistics.median(
            system_medians(lat[:k], len(items))),
        "latency_tail_s": value,
        "decided_frac": sum(r[3] for r in records) / k,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "latency_tail_percentile": pct,
        "latency_samples": n,
        "complete_frac": sum(r[4] for r in records) / k,
        "failed_frac": tally.failed / tally.attempted,
        "whole_passes": k // len(items),
        "exit_codes": dict(Counter(r[1] for r in records)),
        "pass_s": sum(lat[:k]) * len(items) / k,
    }
    units = dict(END_TO_END)
    print("%s seed %d: %d calls in %.1f s, %d systems per pass"
          % (args.workload, args.seed, len(lat), sum(lat), len(items)))
    for name, val in metrics.items():
        print("  %-24s %12.6g %s" % (name, val, units[name]))
    for name, unit in EXTRA_UNITS:
        print("  %-24s %12.6g %s" % (name, extra[name], unit))
    print("  exit codes               %s" % extra["exit_codes"])
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, \
        extra


def traced(args, workdir, checker, tally, call):
    items, _ = set_up(args.workload, args.seed, workdir, checker, tally, call)
    tracer = Tracer()

    def traced_call(item):
        with tracer.op(item.name):
            return call(item)

    untraced, lat = paired_passes(items, call, traced_call, tracer.installed,
                                  checker, tally, args.seconds)
    n = len(lat)
    summary = tracer.summary()
    values = {}
    for name in span_names():
        values[name + ".self_s"] = summary.get(name, {}).get("self_s",
                                                             0.0) / n
    for name in CALLS + tuple("linalg." + f for f in LINALG):
        values[name + ".calls"] = summary.get(name, {}).get("calls", 0) / n

    def recorded(name, key):
        return summary.get(name, {}).get("attrs", {}).get(key, [])

    horizons = recorded("series.sphere_sums", "horizon")
    values["series.horizon_mean"] = (statistics.mean(horizons)
                                     if horizons else 0.0)
    cutoffs = recorded("series.sphere_sums", "cutoff")
    values["series.cutoff_frac"] = (sum(cutoffs) / len(cutoffs)
                                    if cutoffs else 0.0)
    values["series.words"] = sum(recorded("series.sphere_sums", "words")) / n
    values["intertwiner.w_layout.dim_max"] = max(
        recorded("intertwiner.w_layout", "dim"), default=0)
    values["spectral.D_side_max"] = max(recorded("spectral.build_D", "side"),
                                        default=0)
    values["trace.overhead_frac"] = sum(lat) / sum(untraced) - 1.0
    total = sum(values[s + ".self_s"] for s in span_names())
    tracer.write(workdir / ("spans-seed%d.jsonl" % args.seed))

    units = dict(per_layer_units())
    print("%s seed %d traced: %d passes, %.1f s untraced, %.1f s traced"
          % (args.workload, args.seed, n // len(items), sum(untraced),
             sum(lat)))
    for name in sorted(span_names(), key=lambda s: -values[s + ".self_s"]):
        share = values[name + ".self_s"] / total
        if share >= 0.001:
            print("  %-44s %10.6f s/op %5.1f%%"
                  % (name, values[name + ".self_s"], 100 * share))
    for name, _ in RESULT_VALUES + TRACE_VALUES:
        print("  %-44s %10.6g %s" % (name, values[name], units[name]))
    return {k: {"value": values[k], "unit": units[k]} for k, _ in
            per_layer_units()}, {}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("seed must be >= 0 and seconds > 0")

    src = ROOT / "src"
    if not (src / "freerep" / "__init__.py").is_file():
        print("error: no freerep sources at %s" % src, file=sys.stderr)
        return 1
    # the checked-out sources, never an installed copy
    sys.path.insert(0, str(src))
    threads = os.environ.pop("FREEREP_THREADS", None)
    t0 = time.perf_counter()
    from freerep import cli
    import_s = time.perf_counter() - t0
    if Path(cli.__file__).resolve().parent != (src / "freerep").resolve():
        print("error: freerep imported from %s" % cli.__file__,
              file=sys.stderr)
        return 1

    env = environment(threads)
    print("env: " + json.dumps(env, sort_keys=True))
    workdir = OUT / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    sink = _Discard()

    def call(item):
        system_path, report_path = checker.paths[item.name]
        with redirect_stdout(sink):
            return cli.main(["classify", str(system_path), "--out",
                             str(report_path)])

    checker = Checker()
    tally = Tally()
    if args.trace:
        metrics, extra = traced(args, workdir, checker, tally, call)
    else:
        metrics, extra = end_to_end(args, workdir, import_s, checker, tally,
                                    call)
    for problem, count in sorted(tally.problems.items()):
        print("  failed check (%d x): %s" % (count, problem))
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, env=env,
                  extra=extra, problems=dict(tally.problems))
    (workdir / ("result-seed%d-trace%d.json" % (args.seed, args.trace))
     ).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
