#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarizes each metric.

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4), the spread
(Q3 - Q1) / median and the sample count: the figures a baseline records,
with the per-seed values they come from. Run from the repository root:

    python3 perfbench/spread.py --workloads replay,live,adapt --seeds 1-10 \\
        --seconds 30 --json perfbench/baseline.json

perfbench/baseline-repeat.json is a second set of the same code, made the
same way right after the first, so the two can be compared.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seed_range(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def run(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n"
                 f"{out.stdout}{out.stderr}")
    res = json.loads(lines[-1])
    env = dict(kv.split("=", 1) for kv in lines[0].split()[1:])
    return res, env


def summarize(workload, seeds, seconds):
    values, units, env = {}, {}, {}
    for seed in seeds:
        res, env = run(workload, seed, seconds)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"{workload} seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())),
            flush=True)
    metrics = {}
    for name, vs in sorted(values.items()):
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        metrics[name] = {"unit": units[name], "median": med, "q1": q1,
                         "q3": q3, "iqr_over_median": spread, "n": len(vs),
                         "values": vs}
        print(f"  {name:32s} median {med:12.6g} {units[name]:6s} "
              f"IQR/median {spread:7.4f}  n={len(vs)}", flush=True)
    keep = ("go", "nproc", "gomaxprocs", "workers", "bins")
    return {"env": {k: env[k] for k in keep if k in env}, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="replay,live,adapt")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--json", help="also write the summary to this file")
    args = ap.parse_args()

    seeds = seed_range(args.seeds)
    doc = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for w in args.workloads.split(","):
        doc["workloads"][w] = summarize(w, seeds, args.seconds)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
