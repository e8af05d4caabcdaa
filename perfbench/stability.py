"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/stability.py [--runs 10] [--first-seed 100]
        [--workload NAME ...] [--seconds T]

Runs ``run.py`` ``--runs`` times per workload, each with another seed, and
prints a Markdown table: for each end-to-end metric its median, first and
third quartiles (``statistics.quantiles(values, n=4)``), the spread
(Q3 - Q1) / median, and that spread as a share of the metric's bound in
BENCHMARK.json.  Raw results go to perfbench/out/stability-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import WORKLOAD_NAMES  # noqa: E402


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                    help="default: the workloads in BENCHMARK.json")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    print("| workload | metric | median | Q1 | Q3 | spread | spread/bound |")
    print("|---|---|---|---|---|---|---|")
    for name in names:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 name, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
                check=True)
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            line.update(seed=seed, elapsed_s=time.monotonic() - start)
            if not line["correct"]:
                print("run with seed %d failed its checks:\n%s"
                      % (seed, proc.stdout), file=sys.stderr)
            runs.append(line)
        with open(os.path.join(HERE, "out", "stability-%s.json" % name), "w",
                  encoding="utf-8") as fh:
            json.dump(runs, fh, indent=1)
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            print("| %s | %s | %.4g | %.4g | %.4g | %.3f | %.2f |"
                  % (name, metric, med, q1, q3, spread, spread / bound))
        print("| %s | (run time, s) | %.1f | | | | |"
              % (name, statistics.median(r["elapsed_s"] for r in runs)))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
