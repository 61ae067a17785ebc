"""bellsym benchmark: drives the CLI on one workload and prints its metrics.

    python3 perfbench/run.py --workload haar_scan --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is imported from
``src/`` next to this directory, and nothing needs building.

With ``--trace 0`` one worker process (``worker.py``) runs the workload's
ops in a closed loop, one at a time, for ``--seconds`` seconds, untraced.
The end-to-end metrics are ``units_per_s`` (see :func:`units_per_s`),
``peak_rss_mb`` of the worker, and ``setup_s``: the median wall time of
fresh ``python -m bellsym`` processes running a tiny op of the workload,
the cold start a user pays on every call. The record also holds the
median and tail op latency and the failed fraction; they are reported, not
gated, because on a shared machine the op latency moves with the
neighbours' load by more than a useful bound.

With ``--trace 1`` the worker runs a fixed list of ops traced and untraced
(see ``spans.py``) and the run reports the per-layer metrics: entries into
each layer (``calls``) and self time in microseconds (``self_us``), both per
unit of work, and ``trace.overhead_frac``, the traced minus untraced busy
time over the untraced.

Every op's output is checked (``checks.py``); failed checks are counted in
``failed``, never skipped. The last line of stdout is the result object;
the line before it, also written to ``perfbench/out/``, is the full record:
environment, op and unit counts, digests of the determinism probe and the
failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

END_TO_END = {
    "units_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = (
    "rng.derive.calls", "rng.derive.self_us",
    "symmetry.classify.calls", "symmetry.classify.self_us",
    "symmetry.haar.self_us", "symmetry.scan.self_us",
    "symmetry.feasible.calls", "symmetry.feasible.self_us",
    "symmetry.optimize.self_us", "scipy.minimize.self_us",
    "linalg.calls", "linalg.self_us",
    "kraus.calls", "kraus.self_us",
    "channel.mc.self_us",
    "channel.analytic.calls", "channel.analytic.self_us",
    "spinbath.factor.calls", "spinbath.factor.self_us",
    "spinbath.reduced.self_us", "spinbath.series.self_us",
    "cli.self_us",
    "trace.overhead_frac",
)
LAYER_UNITS = {"calls": "calls/unit", "self_us": "us/unit",
               "overhead_frac": "frac"}

COLD_STARTS_BEFORE = 5         # the first is not timed
COLD_STARTS_AFTER = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
BUDGET_S = 170                  # the whole run, so that it ends in 180 s


def tail(op_s: list[float]) -> tuple[float, float]:
    """Highest listed percentile with at least ten ops beyond it."""
    n = len(op_s)
    p = next((p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= 10),
             TAIL_PERCENTILES[-1])
    return p, float(np.percentile(op_s, p))


def bellsym_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def remaining(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def cold_start(workload, seed: int, deadline: float
               ) -> tuple[float, str | None]:
    """Wall seconds of one fresh ``python -m bellsym`` run of the tiny op."""
    argv = [sys.executable, "-m", "bellsym", "--seed", str(seed),
            *workload.tiny]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=bellsym_env(),
                          capture_output=True, text=True,
                          timeout=remaining(deadline))
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or not proc.stdout:
        return elapsed, (f"{' '.join(argv[1:])}: exit code "
                         f"{proc.returncode}: {proc.stderr.strip()}")
    return elapsed, None


def run_worker(args, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out-dir", str(OUT_DIR)],
        cwd=ROOT, env=bellsym_env(), capture_output=True, text=True,
        timeout=remaining(deadline))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units_per_s(workload, op_s: list[float]) -> float:
    """Units of one cycle of ops over the sum of each op template's
    lower-decile wall time.

    The work of an op is fixed, so interference from other tenants of the
    machine only ever adds time; a low percentile of many ops measures the
    program, where the mean and the median move with the neighbours' load.
    Summing over the cycle keeps every op template in the figure.
    """
    n = len(workload.cycle)
    return workload.cycle_units / sum(float(np.percentile(op_s[i::n], 10))
                                      for i in range(n))


def per_layer(rec: dict) -> dict:
    out = {}
    for metric in PER_LAYER:
        if metric == "trace.overhead_frac":
            out[metric] = (rec["busy_traced_s"] - rec["busy_untraced_s"]) \
                / rec["busy_untraced_s"]
            continue
        layer, kind = metric.rsplit(".", 1)
        totals = rec["layers"].get(layer, {"calls": 0, "self_ns": 0.0})
        value = totals["calls"] if kind == "calls" \
            else totals["self_ns"] / 1e3
        out[metric] = value / rec["units"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bellsym" / "cli.py").is_file():
        print(f"no bellsym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + BUDGET_S
    # Fresh processes for setup_s, split around the worker so that they
    # sample the machine's load at two times; the first one compiles
    # bytecode and is not timed.
    before, after = (0, 0) if args.trace \
        else (COLD_STARTS_BEFORE, COLD_STARTS_AFTER)
    try:
        starts = [cold_start(workload, args.seed, deadline)
                  for _ in range(before)]
        rec = run_worker(args, deadline)
        starts += [cold_start(workload, args.seed, deadline)
                   for _ in range(after)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    setup_s = [t for t, _ in starts[1:]]
    start_errors = [e for _, e in starts if e is not None]
    attempted = rec["attempted"] + len(starts)
    failed = rec["failed"] + len(start_errors)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {"nproc": os.cpu_count(),
                        "machine": platform.machine(), **rec["versions"]},
    }
    if args.trace:
        values = per_layer(rec)
        units = {m: LAYER_UNITS[m.rsplit(".", 1)[1]] for m in PER_LAYER}
        record.update(ops=workload.trace_ops, units=rec["units"])
    else:
        op_s = rec["op_s"]
        values = {"units_per_s": units_per_s(workload, op_s),
                  "setup_s": statistics.median(setup_s),
                  "peak_rss_mb": rec["peak_rss_mb"]}
        units = END_TO_END
        percentile, tail_s = tail(op_s)
        record.update(
            ops=len(op_s),
            units=sum(workload.op(args.seed, k).units
                      for k in range(len(op_s))),
            latency={"op_s.p50": statistics.median(op_s),
                     "op_s.tail": tail_s, "tail_percentile": percentile},
            setup_runs_s=setup_s,
            op_s=op_s,
        )
    record.update(
        determinism_probe=rec["digests"],
        attempted=attempted,
        failed=failed,
        fail_frac=failed / attempted,
        failures=start_errors + rec["failures"],
        metrics=values,
    )
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]}
                    for m, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
