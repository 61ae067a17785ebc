"""Output checks applied to every benchmark op.

JSON reports are parsed strictly (NaN and Infinity are rejected) and
validated against their v1 schema from ``src/bellsym/schemas``. CSV tables
must be complete and every cell finite. On top of that each subcommand gets
the physics checks of the acceptance suite. A check raises
:class:`CheckFailed`; the caller counts it as a failed op.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema

SCHEMA_OF = {
    "symmetry-scan": "scan_report",
    "optimize": "optimize_report",
    "montecarlo": "montecarlo_report",
}
STATE_COLUMNS = 32          # re/im of the 16 density-matrix entries


class CheckFailed(Exception):
    """An op's output is malformed or violates a physics check."""


def _reject_constant(token: str):
    raise CheckFailed(f"non-finite JSON number {token}")


def _pairs_to_complex(pairs) -> list[complex]:
    return [complex(re, im) for re, im in pairs]


class OutputChecker:
    """Validates the stdout text of one CLI invocation."""

    def __init__(self, schema_dir: Path):
        self._validators = {}
        for kind, stem in SCHEMA_OF.items():
            schema = json.loads(
                (schema_dir / f"{stem}.v1.schema.json").read_text())
            self._validators[kind] = jsonschema.Draft202012Validator(schema)

    def check(self, kind: str, argv: list[str], text: str) -> None:
        if kind in SCHEMA_OF:
            doc = json.loads(text, parse_constant=_reject_constant)
            errors = sorted(self._validators[kind].iter_errors(doc), key=str)
            if errors:
                raise CheckFailed(f"schema: {errors[0].message}")
            getattr(self, "_" + kind.replace("-", "_"))(doc)
        else:
            rows = _csv_rows(text, _option(argv, "--n-points"))
            if kind == "spinbath":
                _spinbath(rows)

    @staticmethod
    def _symmetry_scan(doc: dict) -> None:
        # the bound of B3 at full decoherence, the state every scan op uses
        if not doc["p_max"] <= 0.5 + 1e-9:
            raise CheckFailed(f"scan p_max {doc['p_max']!r} exceeds 0.5")

    @staticmethod
    def _optimize(doc: dict) -> None:
        if not abs(doc["p_max"] - 0.5) <= 1e-6:
            raise CheckFailed(f"optimizer p_max {doc['p_max']!r} is not 0.5")
        if not doc["agreement"]["within_tolerance"]:
            raise CheckFailed(
                "feasible scan disagrees with the optimizer: difference "
                f"{doc['agreement']['difference']!r} > tolerance "
                f"{doc['agreement']['tolerance']!r}")

    @staticmethod
    def _montecarlo(doc: dict) -> None:
        # Component-wise, as acceptance criterion 7 compares the estimate
        # with the analytic channel.
        est = _pairs_to_complex(doc["rho_est"])
        ref = _pairs_to_complex(doc["rho_analytic"])
        deviation = max(max(abs((a - b).real), abs((a - b).imag))
                        for a, b in zip(est, ref))
        if not deviation <= 4.0 * doc["stderr"]:
            raise CheckFailed(f"Monte-Carlo deviation {deviation!r} exceeds "
                              f"4 standard errors ({doc['stderr']!r})")


def _option(argv: list[str], flag: str) -> int:
    return int(argv[argv.index(flag) + 1])


def _csv_rows(text: str, n_points: int) -> list[list[float]]:
    lines = text.split("\n")
    if lines[-1] != "":
        raise CheckFailed("CSV does not end with a newline")
    header = lines[0].split(",")
    width = len(header)
    if width not in (2 + STATE_COLUMNS, 4 + STATE_COLUMNS):
        raise CheckFailed(f"CSV header has {width} columns")
    rows = []
    for lineno, line in enumerate(lines[1:-1], start=2):
        cells = line.split(",")
        if len(cells) != width:
            raise CheckFailed(f"CSV line {lineno} has {len(cells)} cells, "
                              f"header has {width}")
        values = [float(c) for c in cells]
        if not all(math.isfinite(v) for v in values):
            raise CheckFailed(f"CSV line {lineno} has a non-finite cell")
        rows.append(values)
    if len(rows) != n_points:
        raise CheckFailed(f"CSV has {len(rows)} rows, expected {n_points}")
    return rows


def _spinbath(rows: list[list[float]]) -> None:
    t0, r_re, r_im, _ = rows[0][:4]
    if t0 != 0.0 or r_re != 1.0 or r_im != 0.0:
        raise CheckFailed(f"r(0) = {r_re!r}{r_im:+.17g}j, expected 1")
    for row in rows:
        if not row[3] <= 1.0:
            raise CheckFailed(f"|r({row[0]!r})| = {row[3]!r} exceeds 1")
