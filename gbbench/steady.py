#!/usr/bin/env python3
"""Steadiness check: run workloads over several seeds and report the spread.

    python3 gbbench/steady.py [--workloads certify,paper-glp,serve-mix]
        [--seeds 10] [--first-seed 1] [--seconds S]

For each workload, runs gbbench/run.py once per seed (untraced, one after
the other) and prints, for every end-to-end metric of BENCHMARK.json, the
median, the first and third quartiles (statistics.quantiles, n=4) and the
quartile distance as a share of the median next to the metric's bound. Also
prints the failed share of each workload, and for each run the share of the
host's CPU time the hypervisor stole while it ran (from /proc/stat), which
is what most often spoils a set. Run from the root of a checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cpu_ticks():
    """The host's aggregate CPU tick counters (Linux /proc/stat), or None."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of the host's CPU ticks stolen by the hypervisor in between."""
    if not before or not after or len(before) < 8:
        return float("nan")
    d = [b - a for a, b in zip(before, after)]
    return d[7] / max(1, sum(d))


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    for wl in args.workloads.split(","):
        rows, attempted, failed = [], 0, 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            t0 = cpu_ticks()
            out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                 text=True, check=True).stdout
            steal = steal_share(t0, cpu_ticks())
            res = json.loads(out.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{wl} seed {seed}: incorrect result", file=sys.stderr)
            attempted += res["attempted"]
            failed += res["failed"]
            rows.append({k: v["value"] for k, v in res["metrics"].items()})
            print(f"{wl} seed {seed}: " +
                  " ".join(f"{k}={v:.6g}" for k, v in rows[-1].items()) +
                  f" host_steal={steal:.3f}", flush=True)
        print(f"{wl}: failed {failed}/{attempted}")
        for m in spec["end_to_end"]:
            vals = [r[m["name"]] for r in rows]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"  {m['name']:16s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {(q3 - q1) / med:.4f} bound {m['bound']}", flush=True)


if __name__ == "__main__":
    main()
