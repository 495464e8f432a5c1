#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark command from BENCHMARK.json once per seed on each
named workload (untraced), then prints, for every end-to-end metric, the
median, the quartile spread (Q3 - Q1) / median, and the metric's bound.
A spread above a third of its bound is flagged.

    python3 e2ebench/spread.py --workload serve-toy --seeds 1-5
    python3 e2ebench/spread.py --seeds 1-10          # every workload

Run it from the repository root. Each run's JSON line is appended to
.bench_work/spread.jsonl so a set of runs can be compared with another.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(command, workload, seed, seconds, trace):
    cmd = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    steal = [l for l in proc.stderr.splitlines() if "steal" in l]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["note"] = steal[-1] if steal else ""
    return out


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-5"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(".bench_work", exist_ok=True)
    log = open(os.path.join(".bench_work", "spread.jsonl"), "a")

    worst = 0.0
    for w in workloads:
        values = {name: [] for name in bounds}
        shares = set()
        for seed in args.seeds:
            out = run_once(bench["command"], w, seed, args.seconds, 0)
            log.write(json.dumps({"workload": w, "seed": seed, **out}) + "\n")
            log.flush()
            if not out["correct"]:
                raise SystemExit(f"{w} seed {seed}: outputs not correct")
            shares.add((out["failed"], out["attempted"]) if out["failed"] else 0)
            for name in bounds:
                values[name].append(out["metrics"][name]["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{n}={values[n][-1]:.5g}" for n in bounds) + f"  [{out['note']}]", flush=True)
        print(f"\n{w}: {len(args.seeds)} runs; failed shares seen: {sorted(map(str, shares))}")
        print(f"  {'metric':<20} {'median':>12} {'spread':>8} {'bound':>6}")
        for name, v in values.items():
            q1, q2, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            flag = "" if spread <= bounds[name] / 3 else "  <-- above bound/3"
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"  {name:<20} {q2:>12.6g} {spread:>8.4f} {bounds[name]:>6}{flag}")
        print()
    print(f"largest spread as a share of its bound (setup_s aside): {worst:.3f}")


if __name__ == "__main__":
    main()
