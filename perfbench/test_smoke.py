"""Smoke tests of the benchmark itself.

    python3 -m pytest -q perfbench

Each workload runs at its reduced ("smoke") size and must pass its output
checks; the traced run must report every per-layer metric and put back
every function it wrapped.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_passes_its_checks(workload):
    out = last_json(bench("--workload", workload, "--seed", "1",
                          "--seconds", "0.5", "--trace", "0",
                          "--scale", "smoke"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    assert [m for m, _ in run.END_TO_END] == list(out["metrics"])
    for name, unit in run.END_TO_END:
        assert out["metrics"][name]["unit"] == unit
        assert out["metrics"][name]["value"] > 0


def test_traced_run_reports_every_layer_metric():
    out = last_json(bench("--workload", "minimize-adversarial", "--seed", "1",
                          "--seconds", "0.2", "--trace", "1",
                          "--scale", "smoke"))
    assert out["correct"] is True
    names = [m for m, _ in spans.metric_units()]
    assert list(out["metrics"]) == names
    m = {k: v["value"] for k, v in out["metrics"].items()}
    # one traced pass: one call of each op, and the nested closure
    assert m["conjugacy.conjugacy_classes.calls"] == 2
    assert m["conjugacy.close_under_conjugation.calls"] == 1
    assert m["syntactic.syntactic_morphism.calls"] == 1
    assert m["syntactic.syntactic_morphism.size_out"] == 14
    assert m["mso.compile_formula.calls"] == 0


def test_pinned_values_catch_a_wrong_result():
    wl = workloads.MinimizeAdversarial(0, "smoke")
    fps = [wl.fingerprint(i, op()) for i, (_, op) in enumerate(wl.ops())]
    assert wl.check(fps) == {}
    fps[1] = dict(fps[1], split_work=fps[1]["split_work"] + 1)
    assert set(wl.check(fps)) == {1}


def test_decide_weak_rejects_a_flipped_verdict():
    wl = workloads.DecideWeak(1, "smoke")
    fps = [wl.fingerprint(i, op()) for i, (_, op) in enumerate(wl.ops())]
    assert wl.check(fps) == {}
    i = next(i for i, fp in enumerate(fps) if not fp["included"])
    fps[i] = {"included": True, "witness": None}
    assert i in wl.check(fps)


def test_round_robin_sampling_hands_over_between_workers():
    wl = workloads.MinimizeAdversarial(0, "smoke")
    ops = wl.ops()
    runs, nxt, _ = worker.sample_ops(wl, ops, 0.0, 1)
    # with no time left every op still runs once, starting at the offset
    assert [len(r) for r in runs] == [1, 1] and nxt == 1
    attempted, failed, reasons, fps = worker.judge(wl, runs, check=True)
    assert (attempted, failed, reasons) == (2, 0, {})
    runs[0].append((0.0, dict(fps[0], classes=-1), None))
    attempted, failed, reasons, _ = worker.judge(wl, runs, check=False)
    assert failed == 2 and set(reasons) == {0}


def test_tracer_restores_every_wrapped_function():
    import omegasem
    mods = {k: m for k, m in sys.modules.items()
            if k == "omegasem" or k.startswith("omegasem.")}
    before = {(k, a): v for k, m in mods.items() for a, v in vars(m).items()}
    tracer = spans.Tracer()
    with tracer.installed():
        lc = sys.modules["omegasem.langops"].close_generators
        bc = sys.modules["omegasem.buchi"].close_generators
        assert lc is bc and lc is not before[("omegasem.semigroup",
                                              "close_generators")]
        assert omegasem.language_included is not before[
            ("omegasem", "language_included")]
        wl = workloads.MinimizeAdversarial(0, "smoke")
        worker.run_pass(wl, wl.ops(), tracer)
    after = {(k, a): v for k, m in mods.items() for a, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    names = {span[0] for span in tracer.spans}
    assert "conjugacy.conjugacy_classes" in names
    assert all(span[2] >= span[1] for span in tracer.spans)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == spans.metric_units()


def test_fails_without_the_program_sources():
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(HERE, "out"))
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = bench("--workload", "decide-weak", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert "{" not in proc.stdout
    finally:
        shutil.rmtree(bare)
