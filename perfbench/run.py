#!/usr/bin/env python3
"""Build and run the transmark benchmark.

One run, from the root of a checkout:

    python3 perfbench/run.py --workload serve_unary --seed 7 --seconds 30 --trace 0

builds `perfbench/` (a package of its own that depends on the repository
by path) with cargo into $CARGO_TARGET_DIR (default `.bench_build`), runs
it, and passes its output through: the last line of standard output is
the JSON result.

Steadiness report: run one workload in S sets of N runs and print, for
each set and each end-to-end metric, the median, the quartiles and the
spread (the distance between the quartiles as a share of the median)
next to the metric's bound from BENCHMARK.json, then how far each later
set's median moved from the first set's. By default run k of every set
uses seed --seed + k, as a comparison of two commits over seeded runs does;
with --fixed-seed every run uses --seed, which leaves only the host's
noise. The exact work counts of every run at one seed must repeat bit
for bit:

    python3 perfbench/run.py --steadiness serve_unary --runs 10 --sets 2 --seconds 30
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TIMEOUT_S = 780
RUN_TIMEOUT_S = 175


def fail(message, code):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Builds the benchmark and returns the path of its executable."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "src" / "lib.rs").is_file():
        fail(f"no transmark sources next to {BENCH_DIR.name}/; run from a checkout of the repository", 2)
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH_DIR / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out", 3)
    if done.returncode != 0:
        fail("build failed", 3)
    return target / "release" / "perfbench"


def run_once(exe, workload, seed, seconds, trace):
    """Runs the benchmark once; returns (exit code, stdout lines)."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} did not finish within {RUN_TIMEOUT_S} s", 4)
    return done.returncode, done.stdout.splitlines()


def exact_counts(lines):
    """The exact work counts the run printed on its summary line."""
    for line in lines:
        if line.startswith("# ") and "exact counts" in line:
            return json.loads(line[line.index("{"):])
    return None


def quartiles(vals):
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3, (q3 - q1) / med


def steadiness(exe, workload, runs, sets, seconds, seed_base, fixed_seed):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    medians = []
    counts_at = {}
    for s in range(sets):
        values = {}
        for k in range(runs):
            seed = seed_base if fixed_seed else seed_base + k
            code, lines = run_once(exe, workload, seed, seconds, 0)
            if code != 0 or not lines:
                fail(f"{workload} seed {seed} exited with {code}", 1)
            result = json.loads(lines[-1])
            if not result["correct"]:
                fail(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed", 1)
            counts = exact_counts(lines)
            if counts_at.setdefault(seed, counts) != counts:
                fail(f"exact counts differ between two runs of seed {seed}:\n"
                     f"  {counts_at[seed]}\n  {counts}", 1)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"# set {s + 1} run {k + 1}/{runs} seed {seed}: "
                  + ", ".join(f"{n} {m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
        print(f"set {s + 1}: {'metric':<16} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  spread < bound/3")
        for name, vals in values.items():
            q1, med, q3, spread = quartiles(vals)
            ok = "yes" if spread < bounds[name] / 3 else "NO"
            print(f"set {s + 1}: {name:<16} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {bounds[name]:>6.2f}  {ok}")
        medians.append({name: quartiles(vals)[1] for name, vals in values.items()})
    print(f"# exact counts repeated in every run of each seed ({len(counts_at)} seeds)")
    for s in range(1, sets):
        print(f"set {s + 1} vs set 1: " + ", ".join(
            f"{name} {worse(medians[0][name], med, better[name]):+.4f}"
            f" ({'ok' if worse(medians[0][name], med, better[name]) <= bounds[name] else 'OVER'})"
            for name, med in medians[s].items()))


def worse(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return -change if better == "higher" else change


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", metavar="WORKLOAD")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--fixed-seed", action="store_true")
    args = p.parse_args()
    if not args.workload and not args.steadiness:
        p.error("--workload or --steadiness is required")
    exe = build()
    if args.steadiness:
        steadiness(exe, args.steadiness, args.runs, args.sets, args.seconds, args.seed, args.fixed_seed)
        return
    code, lines = run_once(exe, args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    sys.exit(code)


if __name__ == "__main__":
    main()
