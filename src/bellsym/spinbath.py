"""Central-spin dephasing from two local baths of non-interacting spins.

Two central qubits couple diagonally (sigma_z - sigma_z) to their own bath of
N spins with frequencies omega_k. A bath prepared in the product state with
per-spin amplitudes (alpha_k, beta_k), |alpha_k|^2 + |beta_k|^2 = 1, produces
the decoherence factor

    r(t) = prod_k ( |alpha_k|^2 exp(-2i omega_k t)
                    + |beta_k|^2 exp(+2i omega_k t) ),

a product of unit-disk numbers, so |r(t)| <= 1 with r(0) = 1. The reduced
two-qubit state after tracing the baths multiplies each coherence of the
initial projector by the appropriate combination of r1, r2 and their
conjugates while leaving populations fixed.

When both baths are identical and every spin has equal amplitudes
(alpha_k = beta_k = 1/sqrt(2)), each factor collapses to cos(2 omega_k t) and
r(t) is real: the reduced state then coincides entry by entry with the
classical dephasing map evaluated at attenuation factor gamma = r(t). That
identification is what lets all symmetry conclusions for classical noise
carry over to the quantum bath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "BathSpec",
    "validate_central_state",
    "decoherence_factor",
    "decoherence_series",
    "reduced_density",
    "identical_bath",
    "random_bath",
]

# qubit bit value (0 = up, 1 = down) per product-basis index
_BIT_1 = np.array([0, 0, 1, 1])
_BIT_2 = np.array([0, 1, 0, 1])


@dataclass(frozen=True)
class BathSpec:
    """Per-spin amplitudes and coupling frequencies of one bath.

    The spec holds the physics only; ``bellsym spinbath --bath-file``
    reads a bath from JSON in :mod:`bellsym.cli`.
    """

    alphas: np.ndarray
    betas: np.ndarray
    omegas: np.ndarray

    def __post_init__(self):
        alphas = np.asarray(self.alphas, dtype=np.complex128)
        betas = np.asarray(self.betas, dtype=np.complex128)
        omegas = np.asarray(self.omegas, dtype=float)
        if not (alphas.shape == betas.shape == omegas.shape) or alphas.ndim != 1:
            raise ValueError("alphas, betas and omegas must be 1-d arrays of "
                             "equal length")
        if alphas.size < 1:
            raise ValueError("a bath needs at least one spin")
        bad = int(np.argmin(np.isfinite(omegas)))
        if not np.isfinite(omegas[bad]):
            raise ValueError(f"spin {bad}: omega = {float(omegas[bad])!r} "
                             "must be finite")
        # a huge amplitude squares to inf, which fails the check below
        with np.errstate(over="ignore"):
            norms = np.abs(alphas) ** 2 + np.abs(betas) ** 2
        worst = int(np.argmax(np.abs(norms - 1.0)))
        # written so that a NaN norm, which argmax picks, fails too
        if not abs(norms[worst] - 1.0) <= 1e-12:
            raise ValueError(
                f"spin {worst}: |alpha|^2 + |beta|^2 = {float(norms[worst])!r} "
                "must equal 1")
        for name, arr in (("alphas", alphas), ("betas", betas),
                          ("omegas", omegas)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_spins(self) -> int:
        return self.alphas.size


def validate_central_state(psi) -> np.ndarray:
    """Check a 4-component unit vector of central-spin amplitudes."""
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.shape != (4,):
        raise ValueError(f"central state must have 4 amplitudes, got {psi.shape}")
    norm = float(np.vdot(psi, psi).real)
    if not abs(norm - 1.0) <= 1e-12:
        raise ValueError(f"central state norm^2 = {norm!r} must equal 1")
    return psi


def decoherence_factor(bath: BathSpec, t):
    """r(t) for one bath; a finite product of unit-disk factors.

    ``t`` is one time, giving a complex, or an array of times, giving an
    array of r values of the same shape; each value is bitwise the one its
    time gives alone.

    At t = 0 every factor is |alpha_k|^2 + |beta_k|^2 = 1 by normalization,
    so 1 is returned exactly. For t > 0 the float product may overshoot the
    exact-arithmetic bound |r| <= 1 by a few ulp; it is rescaled back onto
    the unit disk in that case.
    """
    times = np.asarray(t, dtype=float)
    if not np.all((0.0 <= times) & (times < np.inf)):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    flat = times.reshape(-1)
    # omega * t may overflow; the phase factor, and r, are then NaN
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.exp(-2j * bath.omegas * flat[:, None])
    factors = np.abs(bath.alphas) ** 2 * phases \
        + np.abs(bath.betas) ** 2 * phases.conj()
    r = np.prod(factors, axis=1)
    r[flat == 0.0] = 1.0
    # np.hypot rounds like abs() of one complex scalar; dividing by 1 is exact
    scale = np.maximum(np.hypot(r.real, r.imag), 1.0)
    r.real /= scale
    r.imag /= scale
    return complex(r[0]) if times.ndim == 0 else r.reshape(times.shape)


def decoherence_series(bath: BathSpec, times) -> np.ndarray:
    """r(t) evaluated on a grid of times: :func:`decoherence_factor` of the
    grid as an array."""
    return decoherence_factor(bath, times)


def _qubit_factor(r, bits: np.ndarray) -> np.ndarray:
    """Per-entry factor r / conj(r) / 1 for one qubit's coherence pattern,
    one 4x4 block per value of ``r``."""
    r = np.asarray(r)[..., None, None]
    up_down = (bits[:, None] == 0) & (bits[None, :] == 1)
    down_up = (bits[:, None] == 1) & (bits[None, :] == 0)
    return np.where(up_down, r, np.where(down_up, np.conj(r), 1.0))


def reduced_density(bath_a: BathSpec, bath_b: BathSpec, psi0, t) -> np.ndarray:
    """Reduced two-qubit state after tracing out both baths at time t.

    Coherences of |psi0><psi0| pick up r1, r2, their conjugates and products
    according to which qubits flip between the bra and ket basis states;
    populations are untouched. ``t`` is one time, giving a 4x4 matrix, or a
    grid of T times, giving shape (T, 4, 4).
    """
    psi0 = validate_central_state(psi0)
    return _reduced_from_factors(psi0, decoherence_factor(bath_a, t),
                                 decoherence_factor(bath_b, t))


def _reduced_from_factors(psi0: np.ndarray, r1, r2) -> np.ndarray:
    """:func:`reduced_density` of a valid ``psi0`` from the decoherence
    factors ``r1``, ``r2`` of the two baths (one value or one per time)."""
    rho0 = np.outer(psi0, psi0.conj())
    return _qubit_factor(r1, _BIT_1) * _qubit_factor(r2, _BIT_2) * rho0


def identical_bath(spec: BathSpec) -> tuple[BathSpec, BathSpec]:
    """Two baths sharing the amplitudes and frequencies of ``spec``."""
    return replace(spec), replace(spec)


def random_bath(
    n_spins: int,
    seed: int,
    equal_amplitudes: bool,
    omega_range: tuple[float, float] = (0.0, 1.0),
) -> BathSpec:
    """Sample a bath: frequencies uniform on ``omega_range``; amplitudes
    either fixed at 1/sqrt(2) or with squared moduli uniform on the simplex
    and independent random phases."""
    if n_spins < 1:
        raise ValueError(f"n_spins must be >= 1, got {n_spins}")
    lo, hi = omega_range
    if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
        raise ValueError(f"invalid omega_range {omega_range}")
    rng = np.random.default_rng(seed)
    omegas = rng.uniform(lo, hi, n_spins)
    if equal_amplitudes:
        amp = 1.0 / math.sqrt(2.0)
        alphas = np.full(n_spins, amp, dtype=np.complex128)
        betas = np.full(n_spins, amp, dtype=np.complex128)
    else:
        weights = rng.uniform(0.0, 1.0, n_spins)
        phase_a = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n_spins))
        phase_b = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n_spins))
        alphas = np.sqrt(weights) * phase_a
        betas = np.sqrt(1.0 - weights) * phase_b
    return BathSpec(alphas=alphas, betas=betas, omegas=omegas)
