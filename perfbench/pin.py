"""Write perfbench/pins.json: the outputs the output checks compare against.

    PYTHONPATH=src python3 perfbench/pin.py

The committed pins were produced by this script at the commit that added
the benchmark.  Re-running it replaces them with what the current code
computes, which defeats the checks: only do it when a change is meant to
alter an output, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

DECIDE_SEEDS = {"full": range(40), "smoke": range(4)}


def main():
    pins = {
        "mso-table1": workloads.MsoTable1(0).pin(),
        "decide-weak": {},
        "minimize-adversarial": {},
    }
    for scale, seeds in DECIDE_SEEDS.items():
        for seed in seeds:
            pins["decide-weak"].update(
                workloads.DecideWeak(seed, scale).pin())
            print("decide-weak", scale, seed, flush=True)
    for scale in ("smoke", "full"):
        pins["minimize-adversarial"].update(
            workloads.MinimizeAdversarial(0, scale).pin())
    with open(workloads.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
