"""Command-line driver for reproducible dephasing / symmetry experiments.

Subcommands::

    evolve         analytic channel output on a time grid          -> CSV
    kraus          canonical or Choi-extracted Kraus set           -> JSON
    symmetry-scan  symmetric probability over Haar-random mixers   -> JSON
    optimize       constrained maximum of the symmetric probability-> JSON
    spinbath       decoherence factor (and optionally the reduced
                   state) of a central-spin bath on a time grid    -> CSV
    montecarlo     trajectory-averaged channel vs the analytic map -> JSON

A single top-level ``--seed`` governs every stochastic subcommand and
defaults to 0, never to entropy, so runs are reproducible by default.
Numbers in CSV files carry 17 significant digits (round-trip exact for
doubles). Exit codes: 0 success, 2 usage or parameter validation (a
request too large for memory included), 3 an input file that is
missing or malformed or an output file or standard output that cannot be
written, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import contextmanager

import numpy as np

from . import channel, kraus, rng, spinbath, symmetry
from .kraus import CompletePositivityError

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FILE = 3
EXIT_NUMERICAL = 4

KRAUS_SET_SCHEMA = "bellsym/kraus-set/v1"
OPTIMIZE_REPORT_SCHEMA = "bellsym/optimize-report/v1"
MONTECARLO_REPORT_SCHEMA = "bellsym/montecarlo-report/v1"

_BELL_NAMES = ("B1", "B2", "B3", "B4")


class FileError(Exception):
    """An input file is missing or malformed, or an output file cannot be
    written."""


@contextmanager
def _open_out(path: str | None):
    if path is None:
        # flushed here, so that a failed write cannot surface later, in the
        # interpreter's flush at exit; a closed stdout is None
        try:
            if sys.stdout is None:
                raise OSError("standard output is closed")
            yield sys.stdout
            sys.stdout.flush()
        except OSError as exc:
            raise FileError(f"cannot write standard output: {exc}") from exc
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise FileError(f"cannot write output file {path!r}: {exc}") from exc


# Characters passed to one write. A single write of a long text to a pipe
# whose reader has left can return short without raising, and the run would
# end as a success; written in pieces, the write after the reader left
# raises BrokenPipeError.
_WRITE_PIECE = 2**16


def _emit(path: str | None, text: str) -> None:
    """Write ``text`` to the file ``path``, or to standard output."""
    with _open_out(path) as fh:
        for start in range(0, len(text), _WRITE_PIECE):
            fh.write(text[start:start + _WRITE_PIECE])


def _write_csv(path: str | None, header: tuple[str, ...], table) -> None:
    """Write the rows of the float array ``table``, each cell ``%.17g``;
    like a JSON report, a table holding a NaN or an infinity is not
    written."""
    if not np.all(np.isfinite(table)):
        raise NonFiniteOutputError("table not written: it holds a NaN or an "
                                   "infinity")
    # format before opening the output, so a failure leaves no partial file.
    # A column holding one bit pattern in every row is formatted once, as
    # literal text of the row template; bits, not float ==, so that a column
    # mixing 0.0 and -0.0 stays a varying one.
    bits = table.view(np.uint64)
    fixed = (bits == bits[0]).all(axis=0)
    row = ",".join(["%.17g" % x if f else "%.17g"
                    for x, f in zip(table[0].tolist(), fixed.tolist())]) + "\n"
    text = ",".join(header) + "\n" + "".join(
        [row % tuple(v) for v in table[:, ~fixed].tolist()])
    _emit(path, text)


class NonFiniteOutputError(ArithmeticError):
    """A report or table holds a NaN or an infinity."""


def _write_json(path: str | None, doc: dict) -> None:
    # serialize before opening the output, so a failure leaves no partial file
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteOutputError(f"report not written: {exc}") from exc
    _emit(path, text + "\n")


def _matrix_to_pairs(matrix) -> list[list[float]]:
    """A complex matrix as its row-major list of [re, im] pairs."""
    flat = np.asarray(matrix, dtype=np.complex128).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


_STATE_HEADER = tuple(f"rho{i}{j}_{part}" for i in range(1, 5)
                      for j in range(1, 5) for part in ("re", "im"))


def _state_columns(rhos: np.ndarray) -> np.ndarray:
    """States (T, 4, 4) as T rows of re, im pairs in _STATE_HEADER order."""
    return rhos.reshape(-1, 16).view(np.float64)


def _time_grid(args) -> np.ndarray:
    """The ``--n-points`` times from 0 to ``--t-max``."""
    if not (np.isfinite(args.t_max) and args.t_max >= 0.0):
        raise ValueError(f"--t-max must be finite and >= 0, got {args.t_max}")
    if args.n_points < 1:
        raise ValueError(f"--n-points must be >= 1, got {args.n_points}")
    return np.linspace(0.0, args.t_max, args.n_points)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_evolve(args) -> None:
    rho0 = symmetry.BellState(args.state).density()
    times = _time_grid(args)
    gammas = channel.gamma_factor(args.rate, times)
    rhos = channel.dephase_with_factors(rho0, gammas, gammas)
    table = np.column_stack([times, gammas, _state_columns(rhos)])
    _write_csv(args.output, ("t", "gamma") + _STATE_HEADER, table)


def _cmd_kraus(args) -> None:
    kraus.KrausFactors.from_gamma(args.gamma)   # both methods need [0, 1]
    if args.method == "canonical":
        kset, label = kraus.canonical_kraus(args.gamma), "canonical"
    else:
        choi = kraus.choi_from_factors(args.gamma, args.gamma)
        kset, label = kraus.kraus_from_choi(choi), "choi-extracted"
    doc = {
        "schema": KRAUS_SET_SCHEMA,
        "label": label,
        "gamma": args.gamma,
        "operators": [_matrix_to_pairs(k) for k in kset.operators],
    }
    _write_json(args.output, doc)


def _cmd_symmetry_scan(args) -> None:
    result = symmetry.brute_force_symmetry_scan(
        args.state, args.gamma, args.n_samples, seed=args.seed)
    _write_json(args.output, result.to_dict())


def _parse_pattern(text: str) -> symmetry.ConstraintPattern:
    text = text.strip()
    rows = [int(tok) for tok in text.split(",") if tok.strip()] if text else []
    return symmetry.ConstraintPattern.from_rows(rows)


def _cmd_optimize(args) -> None:
    if args.scan_samples < 1:
        raise ValueError(f"--scan-samples must be >= 1, got {args.scan_samples}")
    # refuse the scan's stream indices before any work
    rng.check_range(args.seed, rng.FEASIBLE_SCAN, range(args.scan_samples))
    if not (np.isfinite(args.agreement_tol) and args.agreement_tol >= 0.0):
        raise ValueError("--agreement-tol must be finite and >= 0, got "
                         f"{args.agreement_tol}")
    pattern = _parse_pattern(args.pattern)
    bell = symmetry.BellState(args.state)
    p_opt, mixer = symmetry.maximize_symmetric_probability(
        bell, args.gamma, pattern, budget=args.budget, seed=args.seed)
    scan = symmetry.feasible_symmetry_scan(
        bell, args.gamma, pattern, args.scan_samples, seed=args.seed)
    difference = scan.p_max - p_opt  # a scan only bounds it from below
    doc = {
        "schema": OPTIMIZE_REPORT_SCHEMA,
        "state": bell.value,
        "gamma": args.gamma,
        "pattern": list(pattern.rows_sorted),
        "seed": args.seed,
        "budget": args.budget,
        "p_max": p_opt,
        "mixer": _matrix_to_pairs(mixer),
        "scan": {
            "n_samples": args.scan_samples,
            "p_max": scan.p_max,
            "p_min": scan.p_min,
            "p_mean": scan.p_mean,
        },
        "agreement": {
            "tolerance": args.agreement_tol,
            "difference": difference,
            "within_tolerance": bool(difference <= args.agreement_tol),
        },
    }
    _write_json(args.output, doc)


def _bath_spin(k: int, spin) -> tuple[complex, complex, float]:
    """alpha, beta and omega of entry ``k`` of a bath file's ``spins``."""
    spin = spin if isinstance(spin, dict) else {}
    unknown = sorted(spin.keys() - {"alpha", "beta", "omega"})
    if unknown:
        raise ValueError(f"spin {k}: unknown key {unknown[0]!r}")
    alpha, beta, omega = (spin.get(key) for key in ("alpha", "beta", "omega"))
    # a JSON number is an int or a float; a bool or a string is not one
    if not (isinstance(alpha, list) and isinstance(beta, list)
            and len(alpha) == len(beta) == 2
            and all(type(x) in (int, float) for x in (*alpha, *beta, omega))):
        raise ValueError(f"spin {k}: 'alpha' and 'beta' must each be two "
                         "numbers and 'omega' one number")
    try:
        return complex(*alpha), complex(*beta), float(omega)
    except OverflowError as exc:            # an int beyond the float range
        raise ValueError(f"spin {k}: {exc}") from exc


def _load_bath_file(path: str) -> spinbath.BathSpec:
    """The bath of a JSON file as ``schemas/bath_spec.v1.schema.json``
    describes it; a ``label`` is optional, a string and not read further,
    and any other key is refused. Any fault of the file raises FileError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise FileError(f"cannot read bath file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FileError(
            f"bath file {path!r} is not valid JSON: {exc.msg} "
            f"(line {exc.lineno}, column {exc.colno})") from exc
    except (ValueError, RecursionError) as exc:
        # not UTF-8, an int of too many digits, or nested too deeply
        raise FileError(f"bath file {path!r} is not valid JSON: {exc}") \
            from exc
    spins = doc.get("spins") if isinstance(doc, dict) else None
    try:
        if not isinstance(spins, list) or not spins:
            raise ValueError("'spins' must be a non-empty list")
        unknown = sorted(doc.keys() - {"label", "spins"})
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r}")
        if not isinstance(doc.get("label", ""), str):
            raise ValueError("'label' must be a string")
        alphas, betas, omegas = zip(*(_bath_spin(k, spin)
                                      for k, spin in enumerate(spins)))
        return spinbath.BathSpec(alphas=np.array(alphas),
                                 betas=np.array(betas),
                                 omegas=np.array(omegas))
    except ValueError as exc:
        raise FileError(f"bath file {path!r} is malformed: {exc}") from exc


def _cmd_spinbath(args) -> None:
    if args.bath_file is not None:
        bath = _load_bath_file(args.bath_file)
    else:
        if args.n_spins is None:
            raise ValueError("either --bath-file or --n-spins is required")
        bath = spinbath.random_bath(
            args.n_spins, seed=args.seed,
            equal_amplitudes=(args.amplitudes == "equal"),
            omega_range=(args.omega_min, args.omega_max))
    times = _time_grid(args)
    r = spinbath.decoherence_series(bath, times)
    header = ("t", "r_re", "r_im", "r_abs")
    # np.hypot rounds like abs() of one complex scalar; np.abs may not
    columns = [times, r.real, r.imag, np.hypot(r.real, r.imag)]
    if args.state is not None:
        header += _STATE_HEADER
        # reduced_density(bath, bath, psi0, times), with r computed once
        psi0 = spinbath.validate_central_state(
            symmetry.BellState(args.state).vector)
        rhos = spinbath._reduced_from_factors(psi0, r, r)
        columns.append(_state_columns(rhos))
    _write_csv(args.output, header, np.column_stack(columns))


def _corner_gamma_estimate(state: symmetry.BellState, rho0: np.ndarray,
                           rho_est: np.ndarray) -> float:
    # reference coherence attenuated by gamma^2 for every Bell state
    i, j = (0, 3) if state in (symmetry.BellState.B1, symmetry.BellState.B2) \
        else (1, 2)
    ratio = abs(rho_est[i, j]) / abs(rho0[i, j])
    return float(np.sqrt(max(ratio, 0.0)))


def _cmd_montecarlo(args) -> None:
    state = symmetry.BellState(args.state)
    rho0 = state.density()
    params = channel.ChannelParams.identical_rates(args.rate, args.time)
    cfg = channel.NoiseTrajectoryConfig(
        n_trajectories=args.n_trajectories, dt=args.dt, seed=args.seed,
        mu=args.mu)
    rho_est, stderr = channel.monte_carlo_dephasing(rho0, params, cfg)
    analytic = channel.apply_dephasing(rho0, params)
    doc = {
        "schema": MONTECARLO_REPORT_SCHEMA,
        "state": state.value,
        "rate": args.rate,
        "time": args.time,
        "dt": args.dt,
        "n_trajectories": args.n_trajectories,
        "mu": args.mu,
        "seed": args.seed,
        "stderr": stderr,
        "max_abs_deviation": float(np.max(np.abs(rho_est - analytic))),
        "gamma_analytic": params.gamma_a,
        "gamma_estimate": _corner_gamma_estimate(state, rho0, rho_est),
        "rho_est": _matrix_to_pairs(rho_est),
        "rho_analytic": _matrix_to_pairs(analytic),
    }
    _write_json(args.output, doc)


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellsym",
        description="Two-qubit dephasing, Kraus decompositions and "
                    "Bell-state exchange-symmetry experiments.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for all stochastic subcommands (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="analytic dephasing on a time grid (CSV)")
    p.add_argument("--state", required=True, choices=_BELL_NAMES)
    p.add_argument("--rate", type=float, required=True,
                   help="damping rate of both local baths")
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--n-points", type=int, default=101)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("kraus", help="emit a Kraus set as JSON")
    p.add_argument("--gamma", type=float, required=True,
                   help="dephasing factor in [0, 1]")
    p.add_argument("--method", choices=("canonical", "choi"),
                   default="canonical")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_kraus)

    p = sub.add_parser("symmetry-scan",
                       help="histogram symmetric probability over Haar mixers")
    p.add_argument("--state", required=True, choices=_BELL_NAMES)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--n-samples", type=int, default=10000)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_symmetry_scan)

    p = sub.add_parser("optimize",
                       help="maximize symmetric probability under a pattern")
    p.add_argument("--state", required=True, choices=_BELL_NAMES)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--pattern", default="",
                   help="comma-separated mixer rows with u_{mu 2}=0, "
                        "e.g. '1,2,3' (empty for none)")
    p.add_argument("--budget", type=int, default=24000,
                   help="validated and echoed; the maximum is exact and "
                        "does not depend on it")
    p.add_argument("--scan-samples", type=int, default=10000,
                   help="feasible mixers sampled as an independent check")
    p.add_argument("--agreement-tol", type=float, default=1e-3)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("spinbath",
                       help="central-spin decoherence factor on a time grid")
    p.add_argument("--bath-file", default=None,
                   help="JSON bath specification")
    p.add_argument("--n-spins", type=int, default=None,
                   help="generate a random bath instead of loading one")
    p.add_argument("--amplitudes", choices=("equal", "random"),
                   default="equal")
    p.add_argument("--omega-min", type=float, default=0.0)
    p.add_argument("--omega-max", type=float, default=1.0)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--n-points", type=int, default=101)
    p.add_argument("--state", choices=_BELL_NAMES, default=None,
                   help="also emit the reduced state for this initial state "
                        "under two identical baths")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_spinbath)

    p = sub.add_parser("montecarlo",
                       help="trajectory-averaged dephasing vs the analytic map")
    p.add_argument("--state", required=True, choices=_BELL_NAMES)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--n-trajectories", type=int, default=100000)
    p.add_argument("--dt", type=float, default=0.01,
                   help="time step of the noise; validated and echoed in "
                        "the report, but the phases are drawn exactly, so "
                        "it does not change the estimate")
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_montecarlo)

    return parser


# one parser per process: building it costs more than most subcommands
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:        # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        args.func(args)
    except FileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except (CompletePositivityError, NonFiniteOutputError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: request too large for memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
