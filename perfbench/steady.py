#!/usr/bin/env python3
"""Steadiness mode: repeat every benchmark workload over several seeds and
print, for every metric, its median and its spread (the distance between
the first and third quartiles, as a share of the median).

The quartiles come from ``statistics.quantiles(values, n=4)``. The bounds in
BENCHMARK.json are set from this measured spread on a named host. Every run
measures BENCHMARK.json's ``run_seconds``, and the runs go one seed of each
workload in turn, so a contended phase of the host lands on several
workloads rather than on several seeds of one. Runs are sequential: one
single-threaded benchmark process at a time.

    python3 perfbench/steady.py [--runs 10] [--seed0 1] [--trace 0|1] [--out FILE]

Run from anywhere; commands run from the repository root. The summary, the
raw results and the host record go to --out (default
perfbench/out/steadiness-trace<T>.json).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def host_record(command):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "machine": platform.machine(),
        "loadavg": " ".join(f"{x:.2f}" for x in os.getloadavg()),
        "command": command,
    }


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    section = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[section]}
    host = host_record(" ".join(sys.argv))
    summary = {"host": host, "runs": args.runs, "seconds": seconds,
               "trace": args.trace, "workloads": {}}
    results = {name: [] for name in names}
    for i in range(args.runs):
        seed = args.seed0 + i
        for name in names:
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(seconds),
                                      "--trace", str(args.trace)]
            t0 = time.monotonic()
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            took = time.monotonic() - t0
            if out.returncode != 0:
                sys.exit(f"{name} seed {seed}: exit {out.returncode}\n{out.stderr}")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            res["seed"], res["took_s"] = seed, round(took, 2)
            res["loadavg"] = " ".join(f"{x:.2f}" for x in os.getloadavg())
            results[name].append(res)
            print(f"{name} seed={seed} took={took:.1f}s correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", flush=True)
    for name in names:
        runs = results[name]
        rows = {}
        print(f"\n{name}: {args.runs} runs, {seconds} s each")
        print(f"  {'metric':<30} {'median':>14} {'iqr/med':>9} {'bound':>6}  ok(<bound/3)")
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in runs]
            med, sp = spread(values)
            bound = bounds[metric]
            ok = "" if bound is None else ("yes" if sp < bound / 3 else "NO")
            rows[metric] = {"median": med, "iqr_over_median": sp, "bound": bound,
                            "values": values}
            print(f"  {metric:<30} {med:>14.6g} {sp:>9.4f} "
                  f"{'' if bound is None else bound:>6}  {ok}")
        summary["workloads"][name] = {
            "failed_frac": sum(r["failed"] for r in runs)
            / sum(r["attempted"] for r in runs),
            "all_correct": all(r["correct"] for r in runs),
            "metrics": rows,
            "took_s": [r["took_s"] for r in runs],
            "loadavg": [r["loadavg"] for r in runs],
        }
        print(f"  failed_frac {summary['workloads'][name]['failed_frac']}\n")
    host["loadavg_end"] = " ".join(f"{x:.2f}" for x in os.getloadavg())
    out = args.out or os.path.join(ROOT, "perfbench", "out",
                                   f"steadiness-trace{args.trace}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(summary, f, indent=1)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
