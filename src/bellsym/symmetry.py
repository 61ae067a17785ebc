"""Qubit-exchange symmetry of Bell states evolving under dephasing.

The four Bell states in the product basis |00>,|01>,|10>,|11> are

    B1 = (|00> + |11>)/sqrt(2)      B3 = (|01> + |10>)/sqrt(2)
    B2 = (|00> - |11>)/sqrt(2)      B4 = (|01> - |10>)/sqrt(2)

B1-B3 are unchanged by swapping the qubits; B4 flips sign. A symmetric pure
two-qubit state has amplitudes (a, c, c, b) with |a|^2 + 2|c|^2 + |b|^2 = 1.

Because the dephasing channel's operator-sum decomposition is unique only up
to a unitary remixing, the post-map "outcome" states depend on which Kraus
set one picks. This module evaluates, for each operator E_mu of a remixed
set, the outcome probability Tr(E_mu rho E_mu^dag) and the normalized
outcome state, classifies each outcome as exchange-symmetric, antisymmetric
(the B4 ray), or symmetry-broken, and studies the total probability of
landing in a symmetric outcome:

* for B1 and B2 every outcome is symmetric for every decomposition, so the
  symmetric probability is 1;
* for B3 an outcome of a diagonal set E = diag(d1..d4) is symmetric exactly
  when the middle amplitudes agree, which forces the mixer entry u_{mu 2} to
  vanish; since column 2 of a unitary is a unit vector, at most three rows
  can satisfy this.  In the fully decohered limit the symmetric probability
  is bounded by 0.5, attained e.g. by any mixer whose column 2 sits entirely
  on the single unconstrained row.

Both a Haar-random sampler (oracle) and a constrained maximizer over the
unitary freedom are provided; the maximizer parametrizes exactly-feasible
unitaries (column 2 pinned to the allowed rows, remaining freedom via the
exponential map of a Hermitian generator) so constraint violations can never
leak probability in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence, Union

import numpy as np
from scipy.optimize import minimize

from . import linalg
from .kraus import KrausFactors, _mixer_stack
from .rng import (FEASIBLE_SCAN, HAAR_SCAN, OPT_RESTART, derived_rng,
                  item_rngs)

__all__ = [
    "BellState",
    "SymmetryClass",
    "OutcomeReport",
    "ConstraintPattern",
    "ScanResult",
    "swap_operator",
    "is_exchange_symmetric",
    "outcome_analysis",
    "symmetric_probability",
    "asymptotic_symmetric_probability",
    "haar_unitary",
    "hermitian_from_params",
    "expi_hermitian",
    "feasible_unitary",
    "sample_feasible_unitary",
    "maximize_symmetric_probability",
    "brute_force_symmetry_scan",
    "feasible_symmetry_scan",
]

SCAN_REPORT_SCHEMA = "bellsym/scan-report/v1"

SYMMETRY_TOL = 1e-9     # swap asymmetry of a symmetric outcome; B4 overlap
PROB_FLOOR = 1e-14      # outcomes less likely than this are negligible
N_RESTARTS = 8          # Nelder-Mead starting points of the maximizer
BIN_WIDTH = 0.01        # histogram bin width of a scan

_SWAP_IDX = np.array([0, 2, 1, 3])

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _bell_vector(*entries) -> np.ndarray:
    v = np.array(entries, dtype=np.complex128) * _INV_SQRT2
    v.setflags(write=False)
    return v


class BellState(Enum):
    """The four maximally entangled two-qubit states."""

    B1 = "B1"
    B2 = "B2"
    B3 = "B3"
    B4 = "B4"

    @property
    def vector(self) -> np.ndarray:
        return _BELL_VECTORS[self]

    def density(self) -> np.ndarray:
        v = self.vector
        return np.outer(v, v.conj())


_BELL_VECTORS = {
    BellState.B1: _bell_vector(1, 0, 0, 1),
    BellState.B2: _bell_vector(1, 0, 0, -1),
    BellState.B3: _bell_vector(0, 1, 1, 0),
    BellState.B4: _bell_vector(0, 1, -1, 0),
}


class SymmetryClass(str, Enum):
    SYMMETRIC = "symmetric"
    ANTISYMMETRIC = "antisymmetric"
    MIXED = "mixed"


def swap_operator() -> np.ndarray:
    """Permutation exchanging qubit A and qubit B (|01> <-> |10>); involutory."""
    s = np.zeros((4, 4), dtype=np.complex128)
    s[np.arange(4), _SWAP_IDX] = 1.0
    return s


def _swap_conjugate(rho: np.ndarray) -> np.ndarray:
    return rho[_SWAP_IDX][:, _SWAP_IDX]


def is_exchange_symmetric(rho) -> tuple[bool, float]:
    """Swap-invariance test for a density matrix.

    Returns ``(asymmetry <= SYMMETRY_TOL, asymmetry)`` where asymmetry is the
    Frobenius norm of S rho S - rho. Note that a state supported purely on
    the B4 ray is swap-invariant as a density matrix even though its vector
    is antisymmetric. For a pure state with unit vector v the squared
    asymmetry is 2 q (2 - q) with q = |v_1 - v_2|^2.
    """
    rho = linalg.validate_density_matrix(rho)
    asym = float(np.linalg.norm(_swap_conjugate(rho) - rho))
    return asym <= SYMMETRY_TOL, asym


@dataclass(frozen=True)
class OutcomeReport:
    """One post-map outcome of a Kraus decomposition applied to a Bell state.

    ``negligible`` outcomes (probability below the floor) carry no state or
    classification: normalizing a null outcome is undefined.
    """

    outcome_index: int                      # 1-based row of the mixer
    probability: float
    state: np.ndarray | None
    symmetry_class: SymmetryClass | None
    asymmetry: float
    negligible: bool


def _coerce_bell(bell: Union[BellState, str]) -> BellState:
    if isinstance(bell, BellState):
        return bell
    return BellState(str(bell))


# Class codes of _outcomes, indexing _CLASSES; a negligible outcome has no
# class.
_SYMMETRIC, _ANTISYMMETRIC, _MIXED, _NEGLIGIBLE = range(4)
_CLASSES = (SymmetryClass.SYMMETRIC, SymmetryClass.ANTISYMMETRIC,
            SymmetryClass.MIXED, None)


def _outcomes(bell, gamma, mixer):
    """The four outcomes of each mixer in ``mixer``, (4, 4) or (N, 4, 4).

    Returns ``(amp, prob, asymmetry, code)``: the unnormalized outcome
    vectors (N, 4, 4), their probabilities, swap asymmetries and class codes
    (N, 4), indexing ``_CLASSES``. Axis 1 is the outcome mu. Negligible
    outcomes (probability below ``PROB_FLOOR``) get code ``_NEGLIGIBLE``
    and a NaN asymmetry.

    For a normalized outcome psi with q = |psi_1 - psi_2|^2, the B4 overlap
    is q / 2 and ||S rho S - rho||_F^2 = 2 q (2 - q); both come from the
    difference of the middle amplitudes, so neither loses precision near
    zero.
    """
    bell = _coerce_bell(bell)
    factors = KrausFactors.from_gamma(gamma)
    mixers = _mixer_stack(mixer)
    # row mu of mixer @ diagonals is the diagonal of E_mu
    amp = (mixers @ factors.diagonals()) * bell.vector
    prob = (amp.conj()[..., None, :] @ amp[..., :, None])[..., 0, 0].real
    live = prob >= PROB_FLOOR
    q = np.abs(amp[..., 1] - amp[..., 2]) ** 2 / np.where(live, prob, 1.0)
    asym = np.sqrt(np.maximum(0.0, 2.0 * q * (2.0 - q)))
    code = np.where(q / 2.0 >= 1.0 - SYMMETRY_TOL, _ANTISYMMETRIC,
                    np.where(asym <= SYMMETRY_TOL, _SYMMETRIC, _MIXED))
    code[~live] = _NEGLIGIBLE
    asym[~live] = np.nan
    return amp, prob, asym, code


def outcome_analysis(
    bell: Union[BellState, str],
    gamma: float,
    mixer,
) -> list[OutcomeReport]:
    """Probabilities, states and symmetry classes of all four outcomes.

    The decomposition is the canonical diagonal set remixed by ``mixer``;
    outcome mu uses E_mu = sum_j mixer[mu, j] K_j. Classification of a
    normalized outcome:

    * antisymmetric -- overlap with the B4 ray is 1 within ``SYMMETRY_TOL``;
    * symmetric     -- swap asymmetry (Frobenius) is at most ``SYMMETRY_TOL``;
    * mixed         -- anything else (the exchange symmetry is broken).
    """
    mixer = linalg.as_square_matrix(mixer, "mixer")
    (amp,), (prob,), (asym,), (code,) = _outcomes(bell, gamma, mixer)
    reports = []
    for mu in range(4):
        negligible = code[mu] == _NEGLIGIBLE
        state = None if negligible \
            else np.outer(amp[mu], amp[mu].conj()) / prob[mu]
        reports.append(OutcomeReport(
            outcome_index=mu + 1, probability=float(prob[mu]), state=state,
            symmetry_class=_CLASSES[code[mu]], asymmetry=float(asym[mu]),
            negligible=bool(negligible)))
    return reports


def symmetric_probability(
    bell: Union[BellState, str],
    gamma: float,
    mixer,
) -> Union[float, np.ndarray]:
    """Total probability of exchange-symmetric outcomes for one decomposition.

    ``mixer`` is one 4x4 unitary, giving a float, or a stack (N, 4, 4) of
    them, giving an array of N probabilities.
    """
    mixer = np.asarray(mixer, dtype=np.complex128)
    _, prob, _, code = _outcomes(bell, gamma, mixer)
    # numpy adds fewer than eight terms in order, as a running sum would
    p = np.where(code == _SYMMETRIC, prob, 0.0).sum(axis=-1)
    return float(p[0]) if mixer.ndim == 2 else p


@dataclass(frozen=True)
class ConstraintPattern:
    """Mixer rows forced to have a vanishing column-2 entry (1-based).

    At most three rows can be constrained: column 2 of a unitary is a unit
    vector, so its entries cannot all be zero.
    """

    zeroed_rows: frozenset[int]

    def __post_init__(self):
        rows = frozenset(int(r) for r in self.zeroed_rows)
        if not rows <= {1, 2, 3, 4}:
            raise ValueError(f"rows must be a subset of {{1,2,3,4}}, got {sorted(rows)}")
        if len(rows) > 3:
            raise ValueError("at most 3 rows can be constrained; column 2 "
                             "of a unitary cannot vanish entirely")
        object.__setattr__(self, "zeroed_rows", rows)

    @classmethod
    def from_rows(cls, rows: Iterable[int]) -> "ConstraintPattern":
        return cls(zeroed_rows=frozenset(rows))

    @property
    def rows_sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.zeroed_rows))

    @property
    def free_rows(self) -> tuple[int, ...]:
        return tuple(r for r in (1, 2, 3, 4) if r not in self.zeroed_rows)


def asymptotic_symmetric_probability(pattern: ConstraintPattern, mixer) -> float:
    """Closed-form symmetric probability at full decoherence (gamma = 0).

    With u_{mu 2} = 0 on each constrained row mu, the symmetric outcomes
    contribute sum_mu |u_{mu 3} + u_{mu 4}|^2 / 4.
    """
    (mixer,) = _mixer_stack(linalg.as_square_matrix(mixer, "mixer"))
    total = 0.0
    for row in pattern.rows_sorted:
        if abs(mixer[row - 1, 1]) > 1e-9:
            raise ValueError(
                f"closed form requires u_{{{row} 2}} = 0, got "
                f"{mixer[row - 1, 1]!r}")
        total += 0.25 * abs(mixer[row - 1, 2] + mixer[row - 1, 3]) ** 2
    return total


# ---------------------------------------------------------------------------
# unitary constructions
# ---------------------------------------------------------------------------

def _phase_fixed_q(g: np.ndarray) -> np.ndarray:
    """Q factor of each matrix of ``g`` (..., m, n), with column j multiplied
    by the phase of R's diagonal entry j.

    The phase fold makes Q of a complex Ginibre matrix exactly Haar
    distributed rather than merely orthonormal.
    """
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))[..., None, :]


def _haar_from_normals(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from standard normals of shape (..., 2, d, d): the real
    and imaginary parts of one complex Ginibre matrix each."""
    return _phase_fixed_q((z[..., 0, :, :] + 1j * z[..., 1, :, :])
                          / math.sqrt(2.0))


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed 4x4 unitary via QR of a complex Ginibre matrix."""
    return _haar_from_normals(rng.standard_normal((2, 4, 4)))


def hermitian_from_params(theta: Sequence[float], dim: int) -> np.ndarray:
    """Hermitian matrix from dim^2 real parameters (diagonal, then re/im pairs)."""
    theta = np.asarray(theta, dtype=float)
    if theta.size != dim * dim:
        raise ValueError(f"need {dim * dim} parameters, got {theta.size}")
    h = np.zeros((dim, dim), dtype=np.complex128)
    h[np.diag_indices(dim)] = theta[:dim]
    upper = np.triu_indices(dim, 1)
    h[upper] = theta[dim::2] + 1j * theta[dim + 1::2]
    h[upper[::-1]] = np.conj(h[upper])
    return h


def expi_hermitian(h) -> np.ndarray:
    """exp(i h) for Hermitian h, via its eigendecomposition."""
    h = linalg.as_square_matrix(h, "generator")
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T


def _orthonormal_complement(c: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis (4x3) of the subspace orthogonal to c."""
    pivot = int(np.argmax(np.abs(c)))
    cols = [j for j in range(4) if j != pivot]
    m = np.eye(4, dtype=np.complex128)[:, cols]
    m = m - np.outer(c, c.conj() @ m)
    q, _ = np.linalg.qr(m)
    return q


def _free_indices(pattern: ConstraintPattern) -> list[int]:
    return [r - 1 for r in pattern.free_rows]


def feasible_params_dim(pattern: ConstraintPattern) -> int:
    """Length of the parameter vector for :func:`feasible_unitary`."""
    return 2 * len(pattern.free_rows) + 9


def feasible_unitary(pattern: ConstraintPattern, params) -> np.ndarray:
    """Exactly-feasible mixer from real parameters.

    Column 2 is a unit vector supported only on the unconstrained rows (its
    constrained entries are exact zeros, so feasibility cannot erode); the
    remaining three columns are a deterministic orthonormal completion
    rotated by a U(3) element from the trailing 9 parameters.
    """
    free = _free_indices(pattern)
    m = len(free)
    x = np.asarray(params, dtype=float)
    if x.size != 2 * m + 9:
        raise ValueError(f"need {2 * m + 9} parameters for pattern "
                         f"{pattern.rows_sorted}, got {x.size}")
    c_free = x[:m] + 1j * x[m:2 * m]
    if np.linalg.norm(c_free) < 1e-12:
        c_free = c_free.copy()
        c_free[0] += 1.0
    c = np.zeros(4, dtype=np.complex128)
    c[free] = c_free / np.linalg.norm(c_free)

    basis = _orthonormal_complement(c)
    w = basis @ expi_hermitian(hermitian_from_params(x[2 * m:], 3))
    return np.concatenate([w[:, :1], c[:, None], w[:, 1:]], axis=1)


def _feasible_from_normals(pattern: ConstraintPattern,
                           z: np.ndarray) -> np.ndarray:
    """Feasible mixers (..., 4, 4) from normals (..., 2m + 24), m free rows:
    the real and imaginary parts of column 2 on the free rows, then those
    of a 4x3 Ginibre matrix for the orthogonal completion."""
    free = _free_indices(pattern)
    m = len(free)
    c_free = z[..., :m] + 1j * z[..., m:2 * m]
    # the 1-d np.linalg.norm computes exactly this; its axis form may not
    x, y = c_free.real[..., None], c_free.imag[..., None]
    norm = np.sqrt(np.swapaxes(x, -1, -2) @ x
                   + np.swapaxes(y, -1, -2) @ y)[..., 0]
    fallback = norm < 1e-12
    c = np.zeros(z.shape[:-1] + (4,), dtype=np.complex128)
    c[..., free] = (np.where(fallback, 1.0, c_free)
                    / np.where(fallback, math.sqrt(m), norm))
    g = z[..., 2 * m:].reshape(z.shape[:-1] + (2, 4, 3))
    g = (g[..., 0, :, :] + 1j * g[..., 1, :, :]) / math.sqrt(2.0)
    q = _phase_fixed_q(g - c[..., :, None] * (c.conj()[..., None, :] @ g))
    return np.concatenate([q[..., :1], c[..., None], q[..., 1:]], axis=-1)


def sample_feasible_unitary(pattern: ConstraintPattern,
                            rng: np.random.Generator) -> np.ndarray:
    """Random mixer respecting the pattern (column 2 Haar on the free rows,
    the orthogonal completion Haar on the remaining Stiefel freedom)."""
    m = len(pattern.free_rows)
    return _feasible_from_normals(pattern, rng.standard_normal(2 * m + 24))


# ---------------------------------------------------------------------------
# search for the maximal symmetric probability
# ---------------------------------------------------------------------------

def maximize_symmetric_probability(
    bell: Union[BellState, str],
    gamma: float,
    pattern: Union[ConstraintPattern, Iterable[int]],
    budget: int = 24000,
    seed: int = 0,
) -> tuple[float, np.ndarray]:
    """Maximize the symmetric probability over pattern-respecting mixers.

    Runs Nelder-Mead from ``N_RESTARTS`` starting points (one structured,
    the rest drawn from per-restart derived streams), spending roughly
    ``budget`` objective evaluations in total. Returns the best value found
    and the mixer attaining it. The iterates are exactly feasible by
    construction, so the search can never report probability leaked in
    through constraint violation.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    bell = _coerce_bell(bell)
    if not isinstance(pattern, ConstraintPattern):
        pattern = ConstraintPattern.from_rows(pattern)
    KrausFactors.from_gamma(gamma)      # validate early

    ndim = feasible_params_dim(pattern)

    def negative_objective(x):
        u = feasible_unitary(pattern, x)
        return -symmetric_probability(bell, gamma, u)

    per_restart = max(50, budget // N_RESTARTS)
    best_value = -np.inf
    best_params = None
    for restart in range(N_RESTARTS):
        if restart == 0:
            x0 = np.zeros(ndim)
            x0[0] = 1.0
        else:
            x0 = derived_rng(seed, OPT_RESTART, restart).standard_normal(ndim)
        result = minimize(
            negative_objective, x0, method="Nelder-Mead",
            options={"maxfev": per_restart, "xatol": 1e-9, "fatol": 1e-13,
                     "adaptive": True},
        )
        if -result.fun > best_value:
            best_value = -result.fun
            best_params = result.x
    return best_value, feasible_unitary(pattern, best_params)


@dataclass(frozen=True)
class ScanResult:
    """Summary of symmetric probabilities over random mixers."""

    bell: BellState
    gamma: float
    n_samples: int
    seed: int
    bin_width: float
    p_max: float
    p_min: float
    p_mean: float
    counts: tuple[int, ...]     # counts[k] covers values near k * bin_width

    def to_dict(self) -> dict:
        return {
            "schema": SCAN_REPORT_SCHEMA,
            "state": self.bell.value,
            "gamma": self.gamma,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "bin_width": self.bin_width,
            "p_max": self.p_max,
            "p_min": self.p_min,
            "p_mean": self.p_mean,
            "histogram": [
                {"bin": k * self.bin_width, "count": int(n)}
                for k, n in enumerate(self.counts)
            ],
        }


# Samples per chunk of a scan. A chunk's temporaries are a few arrays of
# (SCAN_CHUNK, 4, 4) complex numbers, so memory stays bounded for any sample
# count; the results do not depend on the chunk size.
SCAN_CHUNK = 256


def _scan(bell, gamma, n_samples, seed, stream, shape, build) -> ScanResult:
    """Histogram the symmetric probability of ``n_samples`` random mixers.

    Sample ``i`` fills an array of ``shape`` with standard normals from
    item ``i`` of ``stream`` under ``seed``; ``build`` turns a stack
    (m, *shape) of them into (m, 4, 4) mixers. Samples are evaluated
    ``SCAN_CHUNK`` at a time and the mean is a running sum in index order,
    so the result does not depend on the chunking.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    bell = _coerce_bell(bell)
    KrausFactors.from_gamma(gamma)
    n_bins = int(round(1.0 / BIN_WIDTH)) + 1
    counts = np.zeros(n_bins, dtype=np.int64)
    p_max = -np.inf
    p_min = np.inf
    total = 0.0
    rngs = item_rngs(seed, stream, range(n_samples))
    for start in range(0, n_samples, SCAN_CHUNK):
        z = np.empty((min(SCAN_CHUNK, n_samples - start),) + shape)
        for row, rng in zip(z, rngs):
            rng.standard_normal(out=row)
        p = symmetric_probability(bell, gamma, build(z))
        p_max = max(p_max, p.max())
        p_min = min(p_min, p.min())
        total = np.concatenate(([total], p)).cumsum()[-1]
        bins = np.clip(np.rint(p / BIN_WIDTH), 0, n_bins - 1).astype(np.int64)
        counts += np.bincount(bins, minlength=n_bins)
    return ScanResult(
        bell=bell, gamma=float(gamma), n_samples=n_samples, seed=seed,
        bin_width=BIN_WIDTH, p_max=float(p_max), p_min=float(p_min),
        p_mean=float(total / n_samples), counts=tuple(int(c) for c in counts),
    )


def brute_force_symmetry_scan(
    bell: Union[BellState, str],
    gamma: float,
    n_samples: int,
    seed: int,
) -> ScanResult:
    """Sample Haar-random mixers and histogram the symmetric probability.

    Sample ``i`` draws from a counter-based stream derived from the seed and
    the sample index, and the reduction runs in index order, so the result
    is deterministic for a fixed seed regardless of batching.
    """
    return _scan(bell, gamma, n_samples, seed, HAAR_SCAN, (2, 4, 4),
                 _haar_from_normals)


def feasible_symmetry_scan(
    bell: Union[BellState, str],
    gamma: float,
    pattern: ConstraintPattern,
    n_samples: int,
    seed: int,
) -> ScanResult:
    """Like :func:`brute_force_symmetry_scan`, over random mixers that
    respect ``pattern`` (:func:`sample_feasible_unitary`): an independent
    sampling check of :func:`maximize_symmetric_probability`."""
    return _scan(bell, gamma, n_samples, seed, FEASIBLE_SCAN,
                 (2 * len(pattern.free_rows) + 24,),
                 lambda z: _feasible_from_normals(pattern, z))
