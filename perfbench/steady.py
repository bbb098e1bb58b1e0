#!/usr/bin/env python3
"""Steadiness check for the footsteps benchmark.

Runs each workload K times with seeds seed0, seed0+1, ..., prints the
median, first and third quartile and spread ((q3 - q1) / median) of every
end-to-end metric, and derives bounds for BENCHMARK.json: three times the
widest spread any workload showed, rounded up to a hundredth and kept
within [0.05, 0.25]; `setup_s` gets at least the largest of the others.

    python3 perfbench/steady.py --runs 10 [--workloads a,b] [--seed0 1]
                                [--out runs.json]
    python3 perfbench/steady.py --compare first.json second.json

Run it from the repository root; it uses the command, workloads and run
length in BENCHMARK.json. `--compare` reads two `--out` files of the same
commit and reports, per workload and metric, how far the second set's
median is worse than the first's against the metric's bound, and whether
the two sets failed the same share of operations.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_BOUND, MAX_BOUND = 0.05, 0.25


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}, no result")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs failed their checks")
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=None, help="comma-separated subset")
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--out", default=None, help="write every run's result line here")
    ap.add_argument("--compare", nargs=2, metavar="RUNS_JSON", default=None,
                    help="compare two --out files instead of running")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        compare(bench, *args.compare)
        return
    if args.runs < 2:
        sys.exit("--runs must be at least 2 to compute quartiles")

    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seconds = bench["run_seconds"]
    metrics = [m["name"] for m in bench["end_to_end"]]

    runs = {}
    widest = {m: 0.0 for m in metrics}
    for name in names:
        runs[name] = []
        for i in range(args.runs):
            result = run_once(bench["command"], name, args.seed0 + i, seconds)
            runs[name].append(result)
            print(f"{name} seed {args.seed0 + i}: " + ", ".join(
                f"{m} {result['metrics'][m]['value']:.4g}" for m in metrics), flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs[name]}
        print(f"\n{name}: failed share {sorted(shares)}")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for m in metrics:
            med, q1, q3, s = spread([r["metrics"][m]["value"] for r in runs[name]])
            widest[m] = max(widest[m], s)
            print(f"  {m:<14} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {s:>8.4f}")
        print()

    bounds = {m: min(MAX_BOUND, max(MIN_BOUND, math.ceil(300 * widest[m]) / 100))
              for m in metrics}
    if "setup_s" in bounds:
        bounds["setup_s"] = max(bounds.values())
    print("derived bounds (3 x widest spread, within [0.05, 0.25]; "
          "setup_s at least the largest):")
    for m in metrics:
        print(f"  {m:<14} widest spread {widest[m]:.4f} -> bound {bounds[m]:.2f}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))


def compare(bench, first_path, second_path):
    first = json.loads(Path(first_path).read_text())
    second = json.loads(Path(second_path).read_text())
    ok = True
    for name in first:
        if name not in second:
            continue
        shares = [sorted({r["failed"] / r["attempted"] for r in s[name]})
                  for s in (first, second)]
        same = shares[0] == shares[1]
        ok &= same
        print(f"{name}: failed share {shares[0]} vs {shares[1]}"
              f"{'' if same else '  DIFFERENT'}")
        for m in bench["end_to_end"]:
            meds = [statistics.median(r["metrics"][m["name"]]["value"] for r in s[name])
                    for s in (first, second)]
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (meds[1] - meds[0]) / meds[0]
            within = worse <= m["bound"]
            ok &= within
            print(f"  {m['name']:<14} {meds[0]:>12.5g} {meds[1]:>12.5g}  worse by "
                  f"{worse:+.4f} (bound {m['bound']}){'' if within else '  OUT'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
