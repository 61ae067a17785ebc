"""The benchmark workloads: which CLI invocation each op makes.

Each workload is a cycle of op templates. Op ``k`` of a run takes template
``k % len(cycle)`` and its own ``--seed``, hashed from the workload seed and
``k``, so the same workload seed always gives the same ops. A unit is the
workload's natural piece of work (a Haar sample, a trajectory, a grid point,
a budgeted objective evaluation or feasible-scan sample), so ``units_per_s``
compares op sizes fairly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    kind: str               # the subcommand, which selects the output check
    argv: tuple[str, ...]
    units: int


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple[tuple[str, tuple[str, ...], int], ...]
    tiny: tuple[str, ...]   # a small op, run in fresh processes for setup_s
    trace_ops: int          # ops in a traced run; a multiple of the cycle
    active: frozenset[str]  # layers a traced op must enter
    idle: frozenset[str]    # layers a traced op must not enter

    @property
    def cycle_units(self) -> int:
        return sum(units for _, _, units in self.cycle)

    def op(self, seed: int, k: int) -> Op:
        kind, args, units = self.cycle[k % len(self.cycle)]
        return Op(kind, ("--seed", str(op_seed(seed, k)), kind) + args, units)


def op_seed(seed: int, k: int) -> int:
    digest = hashlib.sha256(f"bellsym-bench/{seed}/{k}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


HAAR_SAMPLES = 500
TRAJECTORIES = 20_000
GRID_POINTS = 101
OPT_BUDGET = 2_400
OPT_SCAN = 10_000           # the CLI's default feasible-scan size

_SYMMETRY = frozenset({"symmetry.classify", "symmetry.haar", "symmetry.scan",
                       "symmetry.feasible", "symmetry.optimize",
                       "scipy.minimize"})
_SPINBATH = frozenset({"spinbath.factor", "spinbath.reduced"})


_SPINBATH_OP = ("spinbath", ("--n-spins", "20", "--t-max", "50",
                             "--state", "B3", "--n-points", str(GRID_POINTS)),
                GRID_POINTS)
_EVOLVE_OP = ("evolve", ("--state", "B3", "--rate", "1.0", "--t-max", "5",
                         "--n-points", str(GRID_POINTS)), GRID_POINTS)


WORKLOADS = {w.name: w for w in (
    # The Haar scan of criteria 5(a) and 10: per-sample stream derivation,
    # Haar draw and classification.
    Workload(
        name="haar_scan",
        cycle=(("symmetry-scan", ("--state", "B3", "--gamma", "0.0",
                                  "--n-samples", str(HAAR_SAMPLES)),
                HAAR_SAMPLES),),
        tiny=("symmetry-scan", "--state", "B3", "--gamma", "0.0",
              "--n-samples", "1"),
        trace_ops=48,
        active=frozenset({"cli", "rng.derive", "symmetry.classify",
                          "symmetry.haar", "symmetry.scan", "linalg",
                          "kraus"}),
        idle=frozenset({"symmetry.feasible", "symmetry.optimize",
                        "scipy.minimize", "channel.mc"}) | _SPINBATH,
    ),
    # The constrained optimizer of criterion 5(b) over its three patterns:
    # one mixer at a time through feasible_unitary, classify and
    # Nelder-Mead, then the CLI's feasible scan.
    Workload(
        name="optimize",
        cycle=tuple(("optimize", ("--state", "B3", "--gamma", "0.0",
                                  "--pattern", pattern,
                                  "--budget", str(OPT_BUDGET),
                                  "--scan-samples", str(OPT_SCAN)),
                     OPT_BUDGET + OPT_SCAN)
                    for pattern in ("1", "1,2", "1,2,3")),
        tiny=("optimize", "--state", "B3", "--gamma", "0.0",
              "--pattern", "1,2,3", "--budget", "1", "--scan-samples", "1"),
        trace_ops=3,
        active=frozenset({"cli", "rng.derive", "symmetry.classify",
                          "symmetry.feasible", "symmetry.optimize",
                          "scipy.minimize", "linalg", "kraus"}),
        idle=frozenset({"symmetry.haar", "symmetry.scan", "channel.mc"})
        | _SPINBATH,
    ),
    # Monte-Carlo trajectories of criterion 7: per-trajectory stream
    # derivation and phase draws, then the (n, 4, 4) reduction. It never
    # enters the symmetry layer.
    Workload(
        name="montecarlo",
        cycle=(("montecarlo", ("--state", "B1", "--rate", "1.0",
                               "--time", "1.0", "--dt", "0.01",
                               "--n-trajectories", str(TRAJECTORIES)),
                TRAJECTORIES),),
        tiny=("montecarlo", "--state", "B1", "--rate", "1.0", "--time", "1.0",
              "--dt", "0.01", "--n-trajectories", "2"),
        trace_ops=12,
        active=frozenset({"cli", "rng.derive", "channel.mc"}),
        idle=_SYMMETRY | _SPINBATH,
    ),
    # Time grids of the spin bath and the analytic channel, written as CSV.
    # Two spinbath ops per evolve op, so that the median op falls inside
    # one op type rather than on the gap between the two.
    Workload(
        name="time_grid",
        cycle=(_SPINBATH_OP, _SPINBATH_OP, _EVOLVE_OP),
        tiny=("spinbath", "--n-spins", "20", "--t-max", "50", "--state", "B3",
              "--n-points", "2"),
        trace_ops=300,
        active=frozenset({"cli", "linalg", "channel.analytic"}) | _SPINBATH,
        idle=_SYMMETRY | {"rng.derive", "channel.mc", "kraus"},
    ),
)}
