"""omegasem benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run it from the repository root.  Workloads: mso-table1, decide-weak,
minimize-adversarial (see perfbench/README.md).  A run is split over fresh
worker processes (perfbench/worker.py) that sample the workload's ops
round-robin, each pinned to one CPU, with BLAS/OpenMP threads pinned to 1
and an address-space limit, importing omegasem from ./src.

With ``--trace 0`` the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end-to-end metric; with ``--trace 1`` the metrics are the
per-layer ones from an extra traced pass.  The line before it is a
human-readable summary.  Any failure to run exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from worker import summarize  # noqa: E402

WORKLOAD_NAMES = ("mso-table1", "decide-weak", "minimize-adversarial")

# set on each worker process
ADDRESS_SPACE_LIMIT = 3 << 30          # bytes (RLIMIT_AS)
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
# Each run is split over WORKERS fresh processes, one after another, each
# measuring seconds / WORKERS.  Their samples are pooled, so no single
# process (its memory layout, the machine's speed while it ran) sets the
# result, and their set-up times are the set-up samples.
WORKERS = 4
WORKER_TIMEOUT = 170  # seconds, for all worker processes of one run

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB")]


class BenchError(Exception):
    pass


# The highest-numbered CPU this process may use.  Workers are pinned to it:
# on a small virtual machine the first CPU also serves interrupts and
# everything else, and a worker that lands there runs up to a third slower.
WORKER_CPU = max(os.sched_getaffinity(0))


def _prepare_worker():
    resource.setrlimit(resource.RLIMIT_AS,
                       (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    os.sched_setaffinity(0, {WORKER_CPU})


def worker_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(args, seconds, deadline, offset, check):
    """Start one worker, wait for it, and return its JSON result."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--trace", str(args.trace), "--scale", args.scale,
           "--offset", str(offset), "--check", str(int(check)),
           "--t0", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, preexec_fn=_prepare_worker)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline
                                                - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out")
    except BaseException:  # interrupted or terminated: take the worker along
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError("worker exited %d:\n%s" % (proc.returncode,
                                                    err.strip()))
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result:\n%s" % err.strip())
    return json.loads(lines[-1])


def measure(args):
    """Run the workload; returns ``(result line dict, summary text)``.

    Each worker measures an equal share of the seconds the workers before
    it left unused, and starts at the op where the one before it stopped.
    The first worker runs the output checks; every other worker's results
    must equal the first one's.  With ``--trace 1`` one worker runs
    ``seconds / WORKERS`` untraced (the baseline of the tracing overhead)
    and then the traced pass.
    """
    if not os.path.isdir(os.path.join(ROOT, "src", "omegasem")):
        raise BenchError("no omegasem sources under %s"
                         % os.path.join(ROOT, "src"))
    deadline = time.monotonic() + WORKER_TIMEOUT
    results = []
    offset = 0
    left = args.seconds
    for k in range(1 if args.trace else WORKERS):
        results.append(run_worker(args, max(0.0, left / (WORKERS - k)),
                                  deadline, offset, check=k == 0))
        offset = results[-1]["next_offset"]
        left -= results[-1]["measured_s"]
    op_seconds = [sum((r["op_seconds"][i] for r in results), [])
                  for i in range(len(results[0]["op_seconds"]))]
    res = summarize(op_seconds, results[0]["verdicts"])
    setups = [r["setup_s"] for r in results]
    rss = [r["peak_rss_mb"] for r in results]
    res.update(setup_s=statistics.median(setups),
               peak_rss_mb=statistics.median(rss))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    failures = {}
    for r in results:
        for op, why in r["failures"].items():
            failures.setdefault(op, why)
    first = results[0]["fingerprints"]
    for r in results[1:]:
        for i, fp in enumerate(r["fingerprints"]):
            if fp != first[i] and str(i) not in failures:
                failures[str(i)] = "result differs between workers"
                failed += len(r["op_seconds"][i])
    if args.trace:
        from spans import metric_units
        metrics = {name: {"value": results[0]["layers"][name], "unit": unit}
                   for name, unit in metric_units()}
    else:
        metrics = {name: {"value": res[name], "unit": unit}
                   for name, unit in END_TO_END}
    summary = (
        "%s seed=%d workers=%d samples/op=%d..%d ops/pass=%d attempted=%d "
        "failed=%d fail_ratio=%g pinned=%s wall_s=%.4f median_pass_s=%.4f "
        "op_p50_ms=%.3f op_p90_ms=%.3f true_p50_ms=%.3f (ops=%d) "
        "false_p50_ms=%.3f (ops=%d) setup_s=%s "
        "peak_rss_mb=%s threads=1 cpu=%d rlimit_as=%dMiB"
        % (args.workload, args.seed, len(results), res["samples"][0],
           res["samples"][1], res["ops_per_pass"], attempted, failed,
           failed / max(1, attempted), results[0]["pinned"], res["wall_s"],
           res["median_pass_s"], res["op_p50_ms"], res["op_p90_ms"],
           res["true_p50_ms"], res["true_ops"], res["false_p50_ms"],
           res["false_ops"], ",".join("%.3f" % s for s in setups),
           ",".join("%.1f" % s for s in rss), WORKER_CPU,
           ADDRESS_SPACE_LIMIT >> 20))
    if args.trace:
        summary += " trace=%s" % results[0]["trace_file"]
    for op, why in failures.items():
        summary += "\nFAILED op %s: %s" % (op, why)
    line = {"correct": failed == 0 and not failures, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    return line, summary


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke: the reduced sizes the smoke tests use")
    args = ap.parse_args(argv)
    try:
        line, summary = measure(args)
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 2
    print(summary)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
