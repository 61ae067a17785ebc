"""Fast self-check of the benchmark harness.

For each workload, one cycle of its ops runs traced, twice. The check
passes when every layer the workload is meant to exercise records calls,
every layer it is meant to leave idle records none, and the calls per unit
of the two runs agree exactly. It also checks that ``BENCHMARK.json`` names
the metrics and workloads that ``run.py`` reports.

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import sys

from run import END_TO_END, LAYER_UNITS, PER_LAYER, ROOT
from spans import Tracer, layer_totals
from worker import Runner
from workloads import WORKLOADS

SEED = 12345


def calls_per_unit(workload) -> dict[str, float]:
    runner = Runner(workload, SEED)
    tracer = Tracer()
    units = 0
    for k in range(len(workload.cycle)):
        with tracer.installed(op_id=k):
            runner.run(k)
        units += workload.op(SEED, k).units
    totals = layer_totals(tracer.names, tracer.arrays())
    return {layer: t["calls"] / units for layer, t in totals.items()}


def check_workload(workload) -> list[str]:
    first = calls_per_unit(workload)
    second = calls_per_unit(workload)
    entered = {layer for layer, calls in first.items() if calls > 0}
    problems = [f"layer {layer} records no calls"
                for layer in sorted(workload.active - entered)]
    problems += [f"layer {layer} should be idle but records calls"
                 for layer in sorted(workload.idle & entered)]
    if first != second:
        problems.append(f"calls per unit differ between runs: {first} "
                        f"vs {second}")
    return problems


def check_benchmark_json() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != END_TO_END:
        problems.append(f"end_to_end {e2e} != run.py {END_TO_END}")
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = {m: LAYER_UNITS[m.rsplit(".", 1)[1]] for m in PER_LAYER}
    if layer != expected:
        problems.append(f"per_layer {layer} != run.py {expected}")
    unknown = {w["name"] for w in spec["workloads"]} - set(WORKLOADS)
    if unknown:
        problems.append(f"unknown workloads {sorted(unknown)}")
    return problems


def main() -> int:
    failures = 0
    checks = [(name, lambda w=w: check_workload(w))
              for name, w in WORKLOADS.items()]
    checks.append(("BENCHMARK.json", check_benchmark_json))
    for name, check in checks:
        problems = check()
        failures += bool(problems)
        print(f"{name}: {'ok' if not problems else 'FAIL'}")
        for problem in problems:
            print(f"  {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
