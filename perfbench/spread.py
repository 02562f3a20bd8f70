"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/spread.py --workloads classes wide \
        --seeds 0 1 2 3 4 5 6 7 8 9 --seconds 50 --out perfbench/baseline.json

Each run is ``perfbench/run.py`` in its own process, one after another.
For every workload and metric the summary gives the median, the
quartiles and their distance as a share of the median (the spread), next
to the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        capture_output=True, text=True, check=True, timeout=900)
    lines = proc.stdout.splitlines()
    env = json.loads(lines[0][len("env: "):])
    return json.loads(lines[-1]), env


def summarize(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in
              spec["end_to_end"] + spec["per_layer"]}
    out = {"seconds": args.seconds, "seeds": args.seeds,
           "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result, env = run_once(workload, seed, args.seconds, args.trace)
            runs.append(dict(result, seed=seed))
            print("%s seed %d: correct %s, %d attempted, %d failed"
                  % (workload, seed, result["correct"], result["attempted"],
                     result["failed"]), flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = summarize(values, bounds.get(name))
            m = metrics[name]
            print("  %-40s median %-12.6g spread %.3f bound %s"
                  % (name, m["median"], m["spread"], m["bound"]), flush=True)
        out["workloads"][workload] = {"env": env, "metrics": metrics,
                                      "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True)
                                  + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
