#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json over several seeds and report how
steady each end-to-end metric is.

    python3 perfbench/steady.py --seeds 10

Each run is a fresh `run.py` process of BENCHMARK.json's run_seconds, one
after another.  The runs go round-robin, every workload once per seed, so
a slow drift of the machine's speed spreads over all workloads alike.  For
each workload and metric it prints the median of the runs and the spread:
the distance between the first and third quartiles (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound, with OVER when
the spread exceeds the bound.  With --seeds 1 it is the one command that
prints every end-to-end metric of every workload.  The raw results go to
perfbench/out/steady-<first seed>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {name: [] for name in names}
    walls = {name: [] for name in names}
    failed = False
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for name in names:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            walls[name].append(time.perf_counter() - t0)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failed = True
                print("%s seed %d: exit %d\n%s%s" % (name, seed, proc.returncode,
                                                     proc.stdout, proc.stderr))
                continue
            results[name].append(dict(json.loads(lines[-1]), seed=seed,
                                      wall_s=walls[name][-1]))
    for name, runs in results.items():
        if not runs:
            continue
        print("%s: %d runs, %.1f s of wall time per run"
              % (name, len(runs), statistics.mean(walls[name])))
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            unit = runs[0]["metrics"][metric]["unit"]
            s = spread(values)
            print("  %-12s median %-12.6g %-6s spread %.4f (bound %.2f)%s"
                  % (metric, statistics.median(values), unit, s, bound,
                     "  OVER" if s > bound else ""))
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "steady-%d.json" % args.first_seed), "w") as fh:
        json.dump({"seconds": bench["run_seconds"], "results": results}, fh, indent=1)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
