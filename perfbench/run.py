#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

One run:
    python3 perfbench/run.py --ref-kernel-ms K --workload NAME --seed N \
        --seconds S --trace 0|1

builds perfbench/vbench.exe (release profile, build directory
.bench_build, dune cache off) and runs it; the last line of its output
is the JSON result. Spans of a traced run go to perfbench/out/.

Spread report (repeat mode):
    python3 perfbench/run.py --repeat 10 --seed 1 [--workload NAME] [--trace 0|1]

runs each workload (default: all in BENCHMARK.json) with seeds
N, N+1, ..., and prints per metric the median, quartiles and
(Q3-Q1)/median, next to the bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "vbench.exe")
OUT_DIR = os.path.join("perfbench", "out")


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("run.py: run from the root of a repository checkout (dune-project and lib/ not found)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "release", "--build-dir", BUILD_DIR,
           "./perfbench/vbench.exe"]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("run.py: build failed")


def run_once(args, workload, seed, trace, capture):
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--ref-kernel-ms", str(args.ref_kernel_ms), "--out", OUT_DIR]
    if not capture:
        return subprocess.run(cmd).returncode, None
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else None


def pinned_kernel_ms():
    with open("BENCHMARK.json") as f:
        command = json.load(f)["command"]
    return float(command[command.index("--ref-kernel-ms") + 1])


def spread_report(args):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds if args.seconds else bench["run_seconds"]
    args.seconds = seconds
    worst = 0
    for workload in workloads:
        values = {}
        for k in range(args.repeat):
            code, result = run_once(args, workload, args.seed + k, args.trace, capture=True)
            if code != 0 or not result or not result["correct"]:
                print(f"{workload} seed {args.seed + k}: run failed (exit {code})")
                worst = 1
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {args.seed + k}: " +
                  " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
        print(f"\n{workload}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}")
        print(f"  {'metric':36} {'median':>14} {'Q1':>14} {'Q3':>14} {'(Q3-Q1)/med':>12} {'bound':>6}")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <- above bound/3"
            print(f"  {name:36} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:12.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
        print(flush=True)
    return worst


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--ref-kernel-ms", type=float,
                   help="pinned reference-kernel time (default: the value in BENCHMARK.json's command)")
    p.add_argument("--repeat", type=int, default=0)
    args = p.parse_args()
    build()
    if args.ref_kernel_ms is None:
        args.ref_kernel_ms = pinned_kernel_ms()
    if args.repeat:
        return spread_report(args)
    if not args.workload or not args.seconds:
        p.error("--workload and --seconds are required outside repeat mode")
    code, _ = run_once(args, args.workload, args.seed, args.trace, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
