"""Benchmark worker: runs one workload's ops in-process, one at a time.

Started by ``run.py`` as its single child process, so that its peak memory
is the workload's own. Each op is one call of ``bellsym.cli.main(argv)``
with stdout and stderr captured; only that call is timed. Every output is
checked, and at the end the first op is run again and its sha256 digest
compared (the determinism probe). The worker prints one JSON record as the
last line of its stdout.

With ``--trace 1`` the worker runs a fixed list of ops twice each, once
with the span wrappers of ``spans.py`` installed and once without,
alternating which goes first. The traced output must match the untraced
one byte for byte.

    python3 perfbench/worker.py --workload haar_scan --seed 1 --seconds 30 \\
        --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import platform
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np      # noqa: E402
import scipy            # noqa: E402

import bellsym          # noqa: E402
from bellsym import cli  # noqa: E402

from checks import CheckFailed, OutputChecker   # noqa: E402
from spans import Tracer, layer_totals          # noqa: E402
from workloads import WORKLOADS                 # noqa: E402

MAX_REPORTED_FAILURES = 20


class Runner:
    """Runs ops, checks their output and keeps the tally."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.checker = OutputChecker(ROOT / "src" / "bellsym" / "schemas")
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []

    def run(self, k: int) -> tuple[float, str, bool]:
        """Run op ``k``; return its wall seconds, output digest and success."""
        op = self.workload.op(self.seed, k)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            code = cli.main(list(op.argv))
            seconds = time.perf_counter() - start
        text = out.getvalue()
        error = None
        if code != 0:
            error = f"exit code {code}: {err.getvalue().strip()}"
        else:
            try:
                self.checker.check(op.kind, op.argv, text)
            except (CheckFailed, ValueError) as exc:
                error = str(exc)
        self.attempted += 1
        if error is not None:
            self.fail(k, error)
        return seconds, hashlib.sha256(text.encode()).hexdigest(), \
            error is None

    def fail(self, k: int, error: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            argv = " ".join(self.workload.op(self.seed, k).argv)
            self.failures.append({"op": k, "argv": argv, "error": error})

    def probe(self, first_digest: str) -> dict:
        """Re-run op 0 and compare its digest with the first run's."""
        _, digest, _ = self.run(0)
        if digest != first_digest:
            self.fail(0, "determinism probe: rerun digest differs")
        return {"first": first_digest, "rerun": digest}


def measure(runner: Runner, seconds: float) -> dict:
    """Closed loop: the next op starts when the previous one is checked."""
    runner.run(0)                   # warm-up: first-call set-up, not timed
    op_s = []
    deadline = time.perf_counter() + seconds
    cycle = len(runner.workload.cycle)
    while len(op_s) < cycle or time.perf_counter() < deadline:
        t, digest, _ = runner.run(len(op_s))
        if not op_s:
            first = digest
        op_s.append(t)
    return {"op_s": op_s, "digests": runner.probe(first)}


def measure_traced(runner: Runner, out_dir: Path) -> dict:
    """Each op once untraced and once traced; spans saved to ``out_dir``."""
    tracer = Tracer()
    busy = {False: 0.0, True: 0.0}
    units = 0
    runner.run(0)                   # warm-up: first-call set-up, not timed
    for k in range(runner.workload.trace_ops):
        digests = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                with tracer.installed(op_id=k):
                    t, digests[traced], _ = runner.run(k)
            else:
                t, digests[traced], _ = runner.run(k)
            busy[traced] += t
        if digests[True] != digests[False]:
            runner.fail(k, "traced output differs from untraced output")
        if k == 0:
            first = digests[False]
        units += runner.workload.op(runner.seed, k).units
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.save(out_dir / f"spans-{runner.workload.name}-{runner.seed}.npz")
    return {
        "busy_untraced_s": busy[False],
        "busy_traced_s": busy[True],
        "units": units,
        "layers": layer_totals(tracer.names, tracer.arrays()),
        "digests": runner.probe(first),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", type=Path, default=HERE / "out")
    args = parser.parse_args(argv)

    if not Path(bellsym.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"bellsym imported from {bellsym.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(WORKLOADS[args.workload], args.seed)
    if args.trace:
        record = measure_traced(runner, args.out_dir)
    else:
        record = measure(runner, args.seconds)
    record.update(
        attempted=runner.attempted,
        failed=runner.failed,
        failures=runner.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        versions={"python": platform.python_version(),
                  "numpy": np.__version__, "scipy": scipy.__version__,
                  "bellsym": bellsym.__version__},
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
