#!/usr/bin/env python3
"""Runs the benchmark over several seeds and checks that it is steady.

From the repository root:

    python3 perfbench/runs.py                 # every workload once, every
                                              # end-to-end metric by name
    python3 perfbench/runs.py --runs 10 --sets 2
    python3 perfbench/runs.py --runs 5 --workloads serve-growth
    python3 perfbench/runs.py --trace         # the per-layer metrics

With several runs, each set runs every workload once per seed. Sets are
interleaved (set 1 seed 1, set 2 seed 1, set 1 seed 2, ...) so that a
drift in host speed lands on both sets alike. For every end-to-end metric
the script prints each set's median and its spread, the distance between
the first and third quartile of `statistics.quantiles(values, n=4)` as a
share of the median, and checks them against the metric's bound in
BENCHMARK.json: every spread within the bound, and every set's median
within the bound of the first set's, faster or slower. setup_s is the one
exemption from the spread check: its spread is printed but not bounded,
as only its median is held to its bound. With
`--same-seeds` every set uses seeds 1 to --runs, so the cut, the
imbalance and the labels hashes must repeat exactly. Otherwise the sets
take consecutive ranges: with `--runs 10`, set 1 uses seeds 1 to 10 and
set 2 seeds 11 to 20.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    hashes = [l.split()[-1] for l in lines if l.startswith(f"{workload} hash ")]
    return result, hashes


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    # A layer a workload never calls reads 0 on every run.
    return ((q3 - q1) / med if med else 0.0), med


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=1, help="seeds per set")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--same-seeds", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    workloads = [w for w in args.workloads.split(",") if w] or [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    results = {}  # (set, workload) -> list of (seed, metrics, hashes)
    ok = True
    for run in range(args.runs):
        for s in range(args.sets):
            seed = 1 + run + (0 if args.same_seeds else s * args.runs)
            for w in workloads:
                result, hashes = run_once(bench["command"], w, seed, bench["run_seconds"], args.trace)
                if not result["correct"] or result["failed"]:
                    print(f"{w} seed {seed}: correct={result['correct']} failed={result['failed']}")
                    ok = False
                results.setdefault((s, w), []).append((seed, result["metrics"], hashes))
                missing = [m["name"] for m in metrics if m["name"] not in result["metrics"]]
                if missing:
                    sys.exit(f"{w} seed {seed}: no value for {', '.join(missing)}")
                print(f"set {s + 1} seed {seed} {w}: " + ", ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.6g}" for m in metrics),
                    flush=True)

    for w in workloads:
        print(f"\n{w}")
        for m in metrics:
            name = m["name"]
            unit = m["unit"]
            cells = []
            medians = []
            for s in range(args.sets):
                values = [r[1][name]["value"] for r in results[(s, w)]]
                if len(values) < 2:
                    cells.append(f"{values[0]:.6g} {unit}")
                    continue
                sp, med = spread(values)
                medians.append(med)
                verdict = ""
                if "bound" not in m:
                    pass
                elif name == "setup_s":
                    verdict = " (spread not bounded)"
                elif sp > m["bound"]:
                    verdict, ok = " SPREAD>BOUND", False
                elif sp > m["bound"] / 3:
                    verdict = " spread>bound/3"
                cells.append(f"median {med:.6g} {unit} spread {sp:.3f}{verdict}")
            line = f"  {name:<24} " + " | ".join(cells)
            if len(medians) > 1 and "bound" in m:
                gap = max(((x - medians[0]) / medians[0] for x in medians[1:]), key=abs)
                line += f" | median moved {gap:+.3f} of bound {m['bound']}"
                if abs(gap) > m["bound"]:
                    line, ok = line + " MEDIAN>BOUND", False
            print(line)
        if args.same_seeds and args.sets > 1 and not args.trace:
            for i in range(args.runs):
                runs = [results[(s, w)][i] for s in range(args.sets)]
                same = all(r[2] == runs[0][2] and all(
                    r[1][k]["value"] == runs[0][1][k]["value"] for k in ("cut", "imbalance"))
                    for r in runs)
                if not same:
                    print(f"  seed {runs[0][0]}: cut, imbalance or hash differ between sets")
                    ok = False
    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
