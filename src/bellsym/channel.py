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
cross-check: each trajectory accumulates random phases built as sums of
Gaussian Wiener increments, and the trajectory average converges to the
analytic map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import validate_density_matrix
from .rng import TRAJECTORY, item_rngs

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

_MAX_SEED = 2**64


@dataclass(frozen=True)
class ChannelParams:
    """Damping rates (inverse time) of the two local baths and the evaluation time."""

    gamma_rate_a: float
    gamma_rate_b: float
    time: float

    def __post_init__(self):
        for name in ("gamma_rate_a", "gamma_rate_b", "time"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")

    @classmethod
    def identical_rates(cls, rate: float, time: float) -> "ChannelParams":
        """Both baths share one damping rate."""
        return cls(gamma_rate_a=rate, gamma_rate_b=rate, time=time)

    def identical(self) -> bool:
        return self.gamma_rate_a == self.gamma_rate_b

    @property
    def gamma_a(self) -> float:
        return gamma_factor(self.gamma_rate_a, self.time)

    @property
    def gamma_b(self) -> float:
        return gamma_factor(self.gamma_rate_b, self.time)


@dataclass(frozen=True)
class NoiseTrajectoryConfig:
    """Controls for the stochastic-trajectory average.

    ``dt`` only sets how many Wiener increments build each accumulated phase;
    the phase distribution is exact for any step count. ``mu`` is the
    gyromagnetic ratio multiplying the noise fields; the field correlator
    scales as 1/mu^2 so physical results are independent of it.
    """

    n_trajectories: int
    dt: float
    seed: int
    mu: float = 1.0

    def __post_init__(self):
        if self.n_trajectories < 1:
            raise ValueError("n_trajectories must be >= 1, got "
                             f"{self.n_trajectories}")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if not (0 <= self.seed < _MAX_SEED):
            raise ValueError("seed must be an unsigned 64-bit integer")
        if not np.isfinite(self.mu) or self.mu == 0.0:
            raise ValueError(f"mu must be finite and nonzero, got {self.mu}")


def gamma_factor(rate: float, time: float) -> float:
    """Single-qubit coherence attenuation exp(-time * rate / 2)."""
    if rate < 0.0 or time < 0.0:
        raise ValueError(f"rate and time must be >= 0, got ({rate}, {time})")
    return float(np.exp(-time * rate / 2.0))


def attenuation_pattern(gamma_a: float, gamma_b: float) -> np.ndarray:
    """4x4 entrywise attenuation factors for the dephasing map.

    Entry (i, j) is gamma_a**[qubit A differs] * gamma_b**[qubit B differs];
    the diagonal is identically 1.
    """
    for name, g in (("gamma_a", gamma_a), ("gamma_b", gamma_b)):
        if not np.isfinite(g) or abs(g) > 1.0:
            raise ValueError(f"{name} must lie in [-1, 1], got {g}")
    differ_a = _SIGN_A[:, None] != _SIGN_A[None, :]
    differ_b = _SIGN_B[:, None] != _SIGN_B[None, :]
    pattern = np.ones((4, 4))
    pattern[differ_a] *= gamma_a
    pattern[differ_b] *= gamma_b
    return pattern


def dephase_with_factors(rho, gamma_a: float, gamma_b: float) -> np.ndarray:
    """Apply the dephasing map with explicitly given attenuation factors.

    Factors may lie anywhere in [-1, 1]; the induced map stays completely
    positive on that range. This entry point lets a real decoherence factor
    from a quantum bath stand in for exp(-t*Gamma/2) directly.
    """
    rho = validate_density_matrix(rho)
    return attenuation_pattern(gamma_a, gamma_b) * rho


def apply_dephasing(rho0, params: ChannelParams) -> np.ndarray:
    """Evolve ``rho0`` under the analytic dephasing map at ``params.time``."""
    return dephase_with_factors(rho0, params.gamma_a, params.gamma_b)


def _trajectory_phases(params: ChannelParams, cfg: NoiseTrajectoryConfig,
                       n_steps: int) -> np.ndarray:
    """Accumulated random phases, shape (n_trajectories, 2) for qubits A, B.

    Trajectory ``i`` draws from a counter-based stream derived from the seed
    and the trajectory index, so the result is independent of how
    trajectories are batched or scheduled.
    """
    dt_eff = params.time / n_steps
    # Field-integral increments have variance (Gamma / mu^2) * dt; the phase
    # is mu times their sum, hence exactly Gaussian with variance Gamma * t.
    step_std = np.sqrt(
        np.array([params.gamma_rate_a, params.gamma_rate_b]) / cfg.mu**2
        * dt_eff
    )
    phases = np.empty((cfg.n_trajectories, 2))
    increments = np.empty((2, n_steps))
    streams = item_rngs(cfg.seed, TRAJECTORY, range(cfg.n_trajectories))
    for i, rng in enumerate(streams):
        rng.standard_normal(out=increments)
        phases[i] = cfg.mu * step_std * increments.sum(axis=1)
    return phases


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
    """
    rho0 = validate_density_matrix(rho0)
    if params.time == 0.0:
        return rho0.copy(), 0.0

    n_steps = int(round(params.time / cfg.dt))
    if n_steps == 0:
        n_steps = 1
    if abs(n_steps * cfg.dt - params.time) > cfg.dt:
        raise ValueError(
            f"dt={cfg.dt} must divide time={params.time} to within one step")

    phases = _trajectory_phases(params, cfg, n_steps)
    angle = 0.5 * (np.outer(phases[:, 0], _SIGN_A)
                   + np.outer(phases[:, 1], _SIGN_B))
    u = np.exp(1j * angle)                               # (n, 4) diag unitaries
    samples = (u[:, :, None] * u[:, None, :].conj()) * rho0[None, :, :]
    rho_est = samples.mean(axis=0)

    n = cfg.n_trajectories
    if n > 1:
        sem_real = samples.real.std(axis=0, ddof=1) / np.sqrt(n)
        sem_imag = samples.imag.std(axis=0, ddof=1) / np.sqrt(n)
        stderr = float(max(sem_real.max(), sem_imag.max()))
    else:
        # one sample gives no spread estimate
        stderr = float("inf")
    return rho_est, stderr
