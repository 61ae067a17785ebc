"""Two-qubit pure-dephasing channel under local classical white noise.

Each qubit couples to its own stochastic field through a sigma_z term, so
populations are frozen while coherences decay. The analytic map multiplies
the off-diagonal entries of the input state by products of the per-qubit
attenuation factors

    gamma_i(t) = exp(-t * Gamma_i / 2),          i in {A, B},

where Gamma_i is the damping rate of bath i. An entry (j, k) picks up one
factor of gamma_A if the two basis states differ on qubit A, and one factor
of gamma_B if they differ on qubit B; diagonal entries are untouched.

A Monte-Carlo realization of the same process is provided as an independent
cross-check: under white noise the phase each qubit accumulates by time t is
exactly Gaussian with variance Gamma_i * t, so each trajectory draws one
such phase per qubit, and the trajectory average converges to the analytic
map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import validate_density_matrix
from .rng import TRAJECTORY, check_range, fill_normals

__all__ = [
    "ChannelParams",
    "NoiseTrajectoryConfig",
    "gamma_factor",
    "attenuation_pattern",
    "dephase_with_factors",
    "apply_dephasing",
    "monte_carlo_dephasing",
]

# sigma_z eigenvalue of each qubit for the product basis |00>,|01>,|10>,|11>
_SIGN_A = np.array([1.0, 1.0, -1.0, -1.0])
_SIGN_B = np.array([1.0, -1.0, 1.0, -1.0])


@dataclass(frozen=True)
class ChannelParams:
    """Damping rates (inverse time) of the two local baths and the evaluation time."""

    gamma_rate_a: float
    gamma_rate_b: float
    time: float

    def __post_init__(self):
        for rate in (self.gamma_rate_a, self.gamma_rate_b):
            gamma_factor(rate, self.time)

    @classmethod
    def identical_rates(cls, rate: float, time: float) -> "ChannelParams":
        """Both baths share one damping rate."""
        return cls(gamma_rate_a=rate, gamma_rate_b=rate, time=time)

    @property
    def gamma_a(self) -> float:
        return gamma_factor(self.gamma_rate_a, self.time)

    @property
    def gamma_b(self) -> float:
        return gamma_factor(self.gamma_rate_b, self.time)


@dataclass(frozen=True)
class NoiseTrajectoryConfig:
    """Controls for the stochastic-trajectory average.

    ``dt`` is the time step of the noise. It is validated and echoed in
    reports but does not change the estimate: white noise makes each
    accumulated phase exactly Gaussian, so it is drawn in one step. ``mu``
    is the gyromagnetic ratio multiplying the noise fields; the field
    correlator scales as 1/mu^2 so physical results are independent of it.
    """

    n_trajectories: int
    dt: float
    seed: int
    mu: float = 1.0

    def __post_init__(self):
        if self.n_trajectories < 1:
            raise ValueError("n_trajectories must be >= 1, got "
                             f"{self.n_trajectories}")
        check_range(self.seed, TRAJECTORY, range(self.n_trajectories))
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if not np.isfinite(self.mu) or self.mu == 0.0:
            raise ValueError(f"mu must be finite and nonzero, got {self.mu}")


def gamma_factor(rate: float, time):
    """Coherence attenuation exp(-time * rate / 2) of a time or of an array."""
    t = np.asarray(time, dtype=float)
    for name, v in (("rate", rate), ("time", t)):
        if not np.all((0.0 <= v) & (v < np.inf)):
            raise ValueError(f"{name} must be finite and >= 0, got {v}")
    with np.errstate(over="ignore"):    # -t * rate may overflow to -inf
        g = np.exp(-t * rate / 2.0)
    return float(g) if g.ndim == 0 else g


def attenuation_pattern(gamma_a, gamma_b) -> np.ndarray:
    """4x4 entrywise attenuation factors for the dephasing map.

    Entry (i, j) is gamma_a**[qubit A differs] * gamma_b**[qubit B differs];
    the diagonal is identically 1. Arrays of factors broadcast together and
    give one pattern per factor pair, shape (..., 4, 4).
    """
    for name, g in (("gamma_a", gamma_a), ("gamma_b", gamma_b)):
        if not np.all(np.abs(g) <= 1.0):
            raise ValueError(f"{name} must lie in [-1, 1], got {g}")
    differ_a = _SIGN_A[:, None] != _SIGN_A[None, :]
    differ_b = _SIGN_B[:, None] != _SIGN_B[None, :]
    return (np.where(differ_a, np.asarray(gamma_a)[..., None, None], 1.0)
            * np.where(differ_b, np.asarray(gamma_b)[..., None, None], 1.0))


def dephase_with_factors(rho, gamma_a, gamma_b) -> np.ndarray:
    """Apply the dephasing map with explicitly given attenuation factors.

    Factors may lie anywhere in [-1, 1]; the induced map stays completely
    positive on that range. This entry point lets a real decoherence factor
    from a quantum bath stand in for exp(-t*Gamma/2) directly. Arrays of
    factors give the states (..., 4, 4) of one ``rho``, validated once.
    """
    rho = validate_density_matrix(rho)
    return attenuation_pattern(gamma_a, gamma_b) * rho


def apply_dephasing(rho0, params: ChannelParams) -> np.ndarray:
    """Evolve ``rho0`` under the analytic dephasing map at ``params.time``."""
    return dephase_with_factors(rho0, params.gamma_a, params.gamma_b)


# Doubles a chunk of Monte-Carlo trajectories may hold (8 B each, 512 KiB)
# in the two reductions: each trajectory takes its 2 phase normals and four
# 4x4 complex temporaries (32 doubles each) in _samples and _ordered_sum.
# Memory beyond a chunk is the (n_trajectories, 2) phases, 16 B per
# trajectory, whose draw rng bounds itself; the results do not depend on
# the chunk size.
MC_CHUNK_DOUBLES = 2**16
_TRAJECTORY_DOUBLES = 2 + 4 * 32
# Largest spread sqrt(rate * time) of a phase. No normal numpy draws exceeds
# 14 in magnitude, so phases stay below 14 * MAX_PHASE_SD, and the sum of
# two stays finite.
MAX_PHASE_SD = 1e300


def _samples(phases: np.ndarray, rho0: np.ndarray) -> np.ndarray:
    """States (m, 4, 4) of trajectories with accumulated phases (m, 2)."""
    angle = 0.5 * (np.outer(phases[:, 0], _SIGN_A)
                   + np.outer(phases[:, 1], _SIGN_B))
    u = np.exp(1j * angle)                               # (m, 4) diag unitaries
    return (u[:, :, None] * u[:, None, :].conj()) * rho0


def _ordered_sum(phases: np.ndarray, rho0: np.ndarray, term) -> np.ndarray:
    """Sum over trajectories of ``term(samples)``, added in trajectory order.

    Trajectories are taken a chunk at a time (``MC_CHUNK_DOUBLES``). numpy's
    axis-0 sum adds rows in order, so carrying the total in front of each
    chunk gives the bits of one sum over all rows; the first chunk is summed
    alone, as numpy starts the sum of all rows.
    """
    rows = MC_CHUNK_DOUBLES // _TRAJECTORY_DOUBLES
    total = term(_samples(phases[:rows], rho0)).sum(axis=0)
    for start in range(rows, len(phases), rows):
        chunk = term(_samples(phases[start:start + rows], rho0))
        total = np.concatenate((total[None], chunk)).sum(axis=0)
    return total


def monte_carlo_dephasing(
    rho0,
    params: ChannelParams,
    cfg: NoiseTrajectoryConfig,
) -> tuple[np.ndarray, float]:
    """Trajectory-averaged dephasing and the largest per-entry standard error.

    Each trajectory applies the random diagonal unitary
    exp(i*(phi_A*sz(x)I + phi_B*Ixsz)/2) to ``rho0``; averaging over
    trajectories estimates the channel output. The returned scalar is the
    maximum over the 16 entries of the standard errors of the mean, taken
    over real and imaginary components separately (a single conservative
    figure).

    Trajectory ``i`` draws two standard normals from a counter-based stream
    derived from the seed and the trajectory index, and scales them by
    sign(mu) * sqrt(Gamma_i * t): white noise makes each accumulated phase
    exactly Gaussian, so no time steps are taken and ``cfg.dt`` does not
    enter. mu only sets the sign, so mu^2 is never formed: it would overflow
    or underflow for |mu| beyond about 1e154 or below 1e-154. All phases
    are drawn with one ``rng.fill_normals``, bitwise what each trajectory's
    own stream draws, then scaled at once. The two passes the standard
    error needs run in chunks (``MC_CHUNK_DOUBLES``), the sums in
    trajectory order, and only the phases are kept between them, so memory
    is bounded for any trajectory count and the result is bitwise that of
    one pass over all trajectories at once. A phase spread
    above ``MAX_PHASE_SD`` raises ``ValueError``.
    """
    rho0 = validate_density_matrix(rho0)
    if params.time == 0.0:
        return rho0.copy(), 0.0

    # the root of each factor, not of the product: rate * time may overflow
    rates = np.array([params.gamma_rate_a, params.gamma_rate_b])
    sd = np.sqrt(rates) * np.sqrt(params.time)
    if sd.max() > MAX_PHASE_SD:
        raise ValueError(f"sqrt(rate * time) = {sd.max():g} exceeds the cap "
                         f"of {MAX_PHASE_SD:g}: the phases would overflow")
    sd = np.copysign(sd, cfg.mu)

    n = cfg.n_trajectories
    phases = fill_normals(np.empty((n, 2)), cfg.seed, TRAJECTORY, range(n))
    phases *= sd

    total = _ordered_sum(phases, rho0, lambda samples: samples)
    rho_est = total / n
    if n == 1:
        # one sample gives no spread estimate
        return rho_est, float("inf")

    # ddof=1 standard deviations of the real and imaginary parts, as
    # np.std computes them: squared deviations from the mean, summed in order
    mean = total.view(float) / n                         # (4, 8) re, im pairs

    def squared_deviations(samples):
        dev = samples.view(float) - mean
        return np.square(dev, out=dev)

    sq = _ordered_sum(phases, rho0, squared_deviations)
    sem = np.sqrt(sq / (n - 1)) / np.sqrt(n)
    return rho_est, float(sem.max())
