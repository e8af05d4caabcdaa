"""One workload run in a fresh process; ``run.py`` starts it.

Usage (normally only from run.py):

    python3 perfbench/worker.py --workload NAME --seed N --seconds T
        --trace 0|1 --t0 MONOTONIC [--offset I] [--check 0|1]
        [--scale full|smoke]

It builds the workload's inputs, reports the set-up time as seconds since
``--t0`` (a ``time.monotonic()`` reading taken by the parent just before it
started this process), runs the operations round-robin from op ``--offset``
for about ``--seconds``, checks every result, and with ``--trace 1`` runs
the op list once more under the span recorder.  The last line of standard
output is one JSON object for run.py, holding every duration of every op.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def run_op(workload, ops, index, tracer=None):
    """Run op ``index`` once; returns ``(seconds, fingerprint, error)``.

    Only the op itself is timed; the fingerprint is taken after the timer
    stops.  An op that raises (a MemoryError under the address-space limit
    included) is recorded as failed.
    """
    if tracer is not None:
        tracer.op = index
    start = perf_counter()
    try:
        result = ops[index][1]()
    except Exception as exc:  # counted as a failed op, not fatal
        return (perf_counter() - start, None,
                "%s: %s" % (type(exc).__name__, exc))
    finally:
        if tracer is not None:
            tracer.op = None
    dt = perf_counter() - start
    return dt, workload.fingerprint(index, result), None


def run_pass(workload, ops, tracer=None):
    """Run every op once, in order; returns ``[run_op(...) per op]``."""
    return [run_op(workload, ops, i, tracer) for i in range(len(ops))]


def sample_ops(workload, ops, seconds, offset):
    """Run the ops round-robin from op ``offset`` for about ``seconds``.

    Returns ``(runs, next offset, seconds measured)``, where ``runs[i]``
    lists op i's ``run_op`` results.  Every op runs at least once; after
    that an op is started only if its previous duration still fits in
    ``seconds``, so the measurement ends within ``seconds`` and no op is cut
    off.  The next worker starts where this one stopped, so over a run all
    ops get the same number of samples, give or take one.
    """
    n = len(ops)
    runs = [[] for _ in range(n)]
    i = offset % n
    done = 0
    start = perf_counter()
    while done < n or perf_counter() - start + runs[i][-1][0] <= seconds:
        if i == offset % n:
            gc.collect()  # every round starts from the same collector state
        runs[i].append(run_op(workload, ops, i))
        done += 1
        i = (i + 1) % n
    return runs, i, perf_counter() - start


def summarize(op_seconds, verdicts):
    """End-to-end timings from untraced samples.

    ``op_seconds[i]`` lists op i's durations, pooled from several workers;
    ``verdicts[i]`` is "true", "false" or None.  An op's latency is its best
    (smallest) duration: outside slowdowns on a shared machine only ever
    add time, and they come and go over seconds to minutes, so the best of
    many samples spread over the run is the steadiest estimate.  ``wall_s``
    is the op list run once with every op at its best.
    """
    n_ops = len(op_seconds)
    best = [min(samples) for samples in op_seconds]
    split = {"true": [], "false": []}
    for dt, v in zip(best, verdicts):
        if v is not None:
            split[v].append(dt)
    quart = statistics.quantiles(best, n=10, method="inclusive") \
        if n_ops > 1 else best * 9
    counts = [len(samples) for samples in op_seconds]
    return {
        "wall_s": sum(best),
        "op_p50_ms": statistics.median(best) * 1e3,
        "op_p90_ms": quart[8] * 1e3,
        "true_p50_ms": median_or_zero(split["true"]) * 1e3,
        "false_p50_ms": median_or_zero(split["false"]) * 1e3,
        "true_ops": len(split["true"]),
        "false_ops": len(split["false"]),
        "median_pass_s": sum(statistics.median(s) for s in op_seconds),
        "samples": (min(counts), max(counts)),
        "ops_per_pass": n_ops,
    }


def judge(workload, runs, check):
    """``(attempted, failed, reasons, fingerprints)`` over all op runs.

    ``runs[i]`` lists op i's ``run_op`` results.  Every run of an op must
    give the same fingerprint; with ``check`` the fingerprints are also
    judged by the workload's output checks.  ``fingerprints[i]`` is op i's
    first fingerprint, for comparison across workers.
    """
    attempted = sum(len(r) for r in runs)
    failed = 0
    reasons = {}
    fps = []
    for i, op_runs in enumerate(runs):
        errors = [err for _, _, err in op_runs if err is not None]
        failed += len(errors)
        if errors:
            reasons[i] = errors[0]
        good = [fp for _, fp, err in op_runs if err is None]
        fps.append(good[0] if good else None)
        if any(fp != good[0] for fp in good):
            reasons.setdefault(i, "result differs between runs")
            failed += len(good)
    if check and all(fp is not None for fp in fps):
        for i, why in workload.check(fps).items():
            if i not in reasons:
                # a wrong result is wrong in every run it came from
                reasons[i] = why
                failed += len(runs[i])
    return attempted, failed, reasons, fps


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    ap.add_argument("--offset", type=int, default=0,
                    help="index of the first op to run")
    ap.add_argument("--check", type=int, choices=(0, 1), default=1,
                    help="0: skip the workload's output checks (run.py "
                    "runs them in one worker and compares the others)")
    args = ap.parse_args(argv)

    import omegasem
    src = os.path.join(ROOT, "src")
    if not os.path.abspath(omegasem.__file__).startswith(src + os.sep):
        raise SystemExit("omegasem imported from %s, not from %s"
                         % (omegasem.__file__, src))
    sys.path.insert(0, HERE)
    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    ops = workload.ops()
    setup_s = time.monotonic() - args.t0

    runs, next_offset, measured_s = sample_ops(workload, ops, args.seconds,
                                               args.offset)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, reasons, fps = judge(workload, runs, args.check)
    result = {
        "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
        "next_offset": next_offset, "measured_s": measured_s,
        "op_seconds": [[dt for dt, _, err in r if err is None] or
                       [dt for dt, _, _ in r] for r in runs],
        "fingerprints": fps,
        "verdicts": [None if fp is None else workload.verdict(fp)
                     for fp in fps],
    }

    if args.trace:
        import spans
        tracer = spans.Tracer()
        gc.collect()
        with tracer.installed():
            traced = run_pass(workload, ops, tracer)
        traced_wall = sum(dt for dt, _, _ in traced)
        untraced = summarize(result["op_seconds"], result["verdicts"])
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "trace-%s-seed%d.json"
                            % (args.workload, args.seed))
        tracer.dump(path, workload=args.workload, seed=args.seed,
                    labels=[label for label, _ in ops])
        result["trace_file"] = os.path.relpath(path, ROOT)
        result["layers"] = tracer.layer_metrics({
            "trace.overhead_s": traced_wall - untraced["median_pass_s"],
            "trace.overhead_ratio": traced_wall / untraced["median_pass_s"],
            "langops.language_included.true_p50_ms":
                untraced["true_p50_ms"],
            "langops.language_included.false_p50_ms":
                untraced["false_p50_ms"],
        })
        for i, (_, fp, err) in enumerate(traced):
            attempted += 1
            if err is not None or fp != fps[i]:
                failed += 1
                reasons.setdefault(i, err or "traced result differs")

    result.update(attempted=attempted, failed=failed,
                  failures={str(i): why for i, why in sorted(reasons.items())},
                  pinned=workload.pinned())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
