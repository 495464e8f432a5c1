#!/usr/bin/env python3
"""Count-determinism check.

Runs each workload twice untraced and twice traced with the same seed,
and requires identical values of the counts the benchmark promises to
repeat:

  bootstraps_per_job, modeled_job_s          (untraced runs)
  compile.ops_after.*, autotune.*, kernel.*  (traced runs)

Counters listed in NOT_REPEATING are printed but not required to match;
README.md says why each one does not repeat.

    python3 e2ebench/check_counts.py [--workload W] [--seed N] [--seconds S]

Run it from the repository root. Exits 1 if a promised count differs.
"""

import argparse
import json
import subprocess
import sys

# Counters that depend on thread timing, so two runs need not agree: the
# two serving workers share the process-wide limb-buffer pool, so which
# acquisition finds a recycled buffer depends on how they interleave.
NOT_REPEATING = {
    "serve-toy": {"kernel.poly_allocs", "kernel.pool_reuses"},
}


def run(command, workload, seed, seconds, trace):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: exit code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not out["correct"] or out["failed"]:
        raise SystemExit(f"{workload}: {out['failed']} failed job(s)")
    return {k: v["value"] for k, v in out["metrics"].items()}


def promised(name):
    if name in ("bootstraps_per_job", "modeled_job_s"):
        return True
    return (name.startswith(("compile.ops_after.", "autotune.", "kernel."))
            and name != "autotune.s")


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=5)
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bad = 0
    for w in workloads:
        a, b = {}, {}
        for trace in (0, 1):
            a.update(run(bench["command"], w, args.seed, args.seconds, trace))
            b.update(run(bench["command"], w, args.seed, args.seconds, trace))
        skip = NOT_REPEATING.get(w, set())
        for name in sorted(a):
            if not promised(name):
                continue
            same = a[name] == b[name]
            if name in skip:
                print(f"{w}: {name}: {a[name]!r} / {b[name]!r} (not promised to repeat)")
            elif not same:
                bad += 1
                print(f"{w}: {name} differs: {a[name]!r} vs {b[name]!r}")
        print(f"{w}: checked", flush=True)
    if bad:
        sys.exit(1)
    print("every promised count repeated")


if __name__ == "__main__":
    main()
