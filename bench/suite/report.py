#!/usr/bin/env python3
"""Run benchmark workloads and print their metrics (README.md).

run.sh builds the suite binary and calls this script:

  report.py --bin PATH [--workload NAME|all] [--seed S] [--seconds T]
            [--trace 0|1|FILE] [--smoke]

Each workload runs in its own process.  Per workload this prints a detail
line (every metric with median, q1, q3, n and whether its in-run spread
exceeds its bound) and, last, one JSON line with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
when untraced, its per-layer metrics when traced.  A workload whose
process crashes or times out counts as one failed unit.  Exit status 0
when every correctness gate passed, 2 when the binary refused timed output.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

# Printed in the detail line with its spread but left out of BENCHMARK.json:
# host speed drifts between runs by more than a rate bound may allow
# (README, Bounds).
UNBOUNDED = {"work_per_s": "1/s"}


def spread(samples):
    """Median and quartiles of one run's samples.  Interpolated within the
    samples: a run has as few as 3, where the exclusive method would put
    q1 and q3 beyond the smallest and largest."""
    med = statistics.median(samples)
    if len(samples) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return med, q1, q3


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    return out.stdout.strip() or "unknown"


def run_workload(args, name, trace_file):
    """The workload's raw result, or None when its process failed."""
    cmd = [args.bin, "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        print(f"report.py: workload {name} timed out", file=sys.stderr)
        return None
    if proc.returncode == 2:
        print(f"report.py: workload {name} refused timed output",
              file=sys.stderr)
        sys.exit(2)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"report.py: workload {name} exited {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def metrics_of(raw, bench, traced):
    """Turn one workload's raw samples into named metrics."""
    metrics = {}
    if traced:
        known = {m["name"]: m for m in bench["per_layer"]}
        unknown = set(raw["layers"]) - set(known)
        if unknown:
            sys.exit(f"report.py: layer metrics missing from BENCHMARK.json: "
                     f"{sorted(unknown)}")
        for name, m in known.items():
            # 0 = the layer does no work on this workload (README).
            metrics[name] = {"value": raw["layers"].get(name, 0.0),
                             "unit": m["unit"]}
        return metrics
    bounded = {m["name"]: m for m in bench["end_to_end"]}
    for name, samples in raw["samples"].items():
        m = bounded.get(name)
        med, q1, q3 = spread(samples)
        # An in-run spread wider than the bound gives no number (README).
        unresolved = (m is not None and med != 0
                      and (q3 - q1) / abs(med) > m["bound"])
        metrics[name] = {
            "value": None if unresolved else med,
            "unit": m["unit"] if m else UNBOUNDED[name],
            "median": None if unresolved else med, "q1": q1, "q3": q3,
            "n": len(samples), "bound": m["bound"] if m else None,
            "unresolved": unresolved, "samples": samples}
    return metrics


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bin", required=True)
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        sys.exit(f"report.py: unknown workload {args.workload!r}; "
                 f"one of {names} or all")
    if args.seconds is None:
        args.seconds = 1 if args.smoke else bench["run_seconds"]
    traced = args.trace != "0"
    trace_file = None
    if traced:
        trace_file = (os.path.join(ROOT, "build-bench", "trace.jsonl")
                      if args.trace == "1" else os.path.abspath(args.trace))
        open(trace_file, "w").close()

    run = names if args.workload == "all" else [args.workload]
    host_commit = commit()
    results = {}
    for name in run:
        raw = run_workload(args, name, trace_file)
        if raw is None:
            # A crashed or hung workload process is one failed unit.
            results[name] = ({"correct": False, "attempted": 1,
                              "failed": 1}, {})
            continue
        raw["host"]["commit"] = host_commit
        metrics = metrics_of(raw, bench, traced)
        results[name] = (raw, metrics)
        print(json.dumps({
            "workload": name, "traced": traced, "smoke": raw["smoke"],
            "correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "failed_gates": raw["failed_gates"],
            "unit": raw["unit"], "metrics": metrics, "extra": raw["extra"],
            "host": raw["host"]}))
        for gate in raw["failed_gates"]:
            print(f"report.py: {name}: gate {gate['gate']} failed: "
                  f"{gate['detail']}", file=sys.stderr)

    # The result line carries exactly BENCHMARK.json's metrics, each with a
    # number as the benchmark contract asks; only the detail line withholds
    # an unresolved one.
    listed = {m["name"] for m in bench["per_layer" if traced else "end_to_end"]}

    def result(ms):
        return {k: {"value": statistics.median(v["samples"])
                    if v.get("unresolved") else v["value"], "unit": v["unit"]}
                for k, v in ms.items() if k in listed}

    correct = all(raw["correct"] for raw, _ in results.values())
    final = {
        "correct": correct,
        "attempted": sum(raw["attempted"] for raw, _ in results.values()),
        "failed": sum(raw["failed"] for raw, _ in results.values()),
    }
    if len(run) == 1:
        final["metrics"] = result(results[run[0]][1])
    else:
        final["metrics"] = {f"{w}/{k}": v for w, (_, ms) in results.items()
                            for k, v in result(ms).items()}
    print(json.dumps(final))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
