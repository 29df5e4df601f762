"""Smoke test of the benchmark at tiny scale.

    python3 perfbench/smoke_test.py          # from the checkout root

Runs every workload once untraced and once traced at the "tiny" scale
(a few hundred URLs and documents) and checks that each run exits 0,
reports correct outputs, and emits exactly the metrics BENCHMARK.json
names, each with its unit. Also runs ``api_serve`` and
``daily_recheck``, which BENCHMARK.json does not list. Takes a few
minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys


def check_run(bench: dict, workload: str, trace: int) -> list[str]:
    cmd = bench["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(last)}")
    if not last["correct"] or last["failed"] or last["attempted"] < 1:
        errors.append(f"{where}: correct={last['correct']} failed={last['failed']}")
    want = bench["per_layer"] if trace else bench["end_to_end"]
    want_units = {m["name"]: m["unit"] for m in want}
    got_units = {k: v["unit"] for k, v in last["metrics"].items()}
    if got_units != want_units:
        errors.append(f"{where}: metrics {got_units} != BENCHMARK.json {want_units}")
    for name, m in last["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            errors.append(f"{where}: {name} is not a number")
        elif not trace and m["value"] <= 0:
            errors.append(f"{where}: end-to-end {name} is {m['value']}")
    return errors


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, root)
    from perfbench.layers import PER_LAYER
    from perfbench.run import E2E
    from perfbench.workloads import WORKLOADS

    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    if [(m["name"], m["unit"]) for m in bench["end_to_end"]] != E2E:
        errors.append("BENCHMARK.json end_to_end differs from perfbench/run.py E2E")
    if [(m["name"], m["unit"]) for m in bench["per_layer"]] != PER_LAYER:
        errors.append("BENCHMARK.json per_layer differs from perfbench/layers.py PER_LAYER")
    listed = [w["name"] for w in bench["workloads"]]
    if not set(listed) <= set(WORKLOADS):
        errors.append(f"BENCHMARK.json workloads {listed} not all in perfbench/workloads.py")
    for name in WORKLOADS:
        for trace in (0, 1):
            errors += check_run(bench, name, trace)
            print(f"{name} trace={trace}: {'FAIL' if errors else 'ok'}", flush=True)
    for e in errors:
        print(e)
    print("FAILURES:", len(errors) or "none")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
