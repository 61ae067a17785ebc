"""Operator-sum representations of the two-qubit dephasing channel.

The channel admits a four-operator diagonal Kraus set built from the scalar
attenuation gamma = exp(-t*Gamma/2):

    K1 = diag(-w, 0, 0, w) / sqrt(2)      w = sqrt(1 - gamma^2)
    K2 = diag(0, -w, w, 0) / sqrt(2)
    K3 = diag(a, -a, -a, a) / 2           a = gamma - 1
    K4 = diag(b, b, b, b) / 2             b = gamma + 1

Any other set {E_mu} describes the same channel exactly when E_mu =
sum_j u_{mu j} K_j for a 4x4 unitary (u_{mu j}); this unitary freedom is what
the symmetry analysis sweeps over. The module also extracts Kraus sets from
the channel's Choi matrix and decides channel equality by comparing Choi
matrices.

Choi convention used throughout: C = sum_{ij} |i><j| (x) Phi(|i><j|), with a
channel operator K entering as the 16-vector whose block i (outer index, the
column of K) holds K's column i. Equivalently vec(K) stacks columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import linalg
from .channel import attenuation_pattern
from .linalg import validate_density_matrix

__all__ = [
    "CompletePositivityError",
    "KrausFactors",
    "KrausSet",
    "completeness_residual",
    "canonical_kraus",
    "apply_kraus",
    "choi_from_factors",
    "choi_of_kraus",
    "kraus_from_choi",
    "mix_kraus",
]

COMPLETENESS_TOL = 1e-10
CHOI_EIG_CUTOFF = 1e-12     # Choi eigenvalues at or below this are noise
CP_TOL = 1e-9               # a Choi eigenvalue below -CP_TOL is not CP


class CompletePositivityError(ArithmeticError):
    """A matrix that should describe a channel is not completely positive."""


@dataclass(frozen=True)
class KrausFactors:
    """Scalar factors (omega, alpha, beta) of the canonical set at a given gamma."""

    gamma: float
    omega: float
    alpha: float
    beta: float

    @classmethod
    def from_gamma(cls, gamma: float) -> "KrausFactors":
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
        return cls(
            gamma=float(gamma),
            omega=math.sqrt(1.0 - gamma * gamma),
            alpha=gamma - 1.0,
            beta=gamma + 1.0,
        )

    def diagonals(self) -> np.ndarray:
        """Rows hold the diagonals of K1..K4 (shape (4, 4))."""
        w = self.omega / math.sqrt(2.0)
        a = self.alpha / 2.0
        b = self.beta / 2.0
        return np.array([
            [-w, 0.0, 0.0, w],
            [0.0, -w, w, 0.0],
            [a, -a, -a, a],
            [b, b, b, b],
        ], dtype=np.complex128)


def _operators_of(kraus) -> np.ndarray:
    """The stack of a KrausSet, or a sequence or stack of 4x4 matrices as a
    new finite complex stack (k, 4, 4) with k >= 1."""
    if isinstance(kraus, KrausSet):
        return kraus.operators
    ops = np.array(kraus, dtype=np.complex128)
    if ops.size == 0:
        raise ValueError("a Kraus set needs at least one operator")
    if ops.shape[1:] != (4, 4):
        raise ValueError(f"Kraus operators must be 4x4, got shape {ops.shape}")
    if not np.all(np.isfinite(ops)):
        raise ValueError("Kraus operator has a NaN or an infinite entry")
    return ops


def completeness_residual(operators: Sequence[np.ndarray]) -> float:
    """||sum_mu K_mu^dag K_mu - I||_max."""
    ops = _operators_of(operators)
    return linalg.max_abs(np.einsum("kji,kjl->il", ops.conj(), ops)
                          - np.eye(4))


@dataclass(frozen=True, eq=False)
class KrausSet:
    """A read-only stack (k, 4, 4) of Kraus operators satisfying completeness.

    The set holds its operators only; the JSON document of ``bellsym
    kraus`` is written by :mod:`bellsym.cli`.
    """

    operators: np.ndarray

    def __post_init__(self):
        ops = _operators_of(self.operators)
        ops.setflags(write=False)
        object.__setattr__(self, "operators", ops)
        residual = completeness_residual(ops)
        if not residual <= COMPLETENESS_TOL:
            raise ValueError(
                "Kraus set violates completeness: residual "
                f"{residual:.3e} > {COMPLETENESS_TOL:g}")

    def __len__(self) -> int:
        return len(self.operators)

    def completeness_residual(self) -> float:
        return completeness_residual(self.operators)


def canonical_kraus(gamma: float) -> KrausSet:
    """The four diagonal Kraus operators of the dephasing channel at ``gamma``."""
    factors = KrausFactors.from_gamma(gamma)
    ops = np.zeros((4, 4, 4), dtype=np.complex128)
    ops[:, range(4), range(4)] = factors.diagonals()
    return KrausSet(operators=ops)


def apply_kraus(kraus: Union[KrausSet, Sequence[np.ndarray]], rho) -> np.ndarray:
    """sum_mu K_mu rho K_mu^dag for a complete set of operators (a raw
    sequence is checked here; a KrausSet was checked when it was built)."""
    ops = _operators_of(kraus)
    if not isinstance(kraus, KrausSet):
        residual = completeness_residual(ops)
        if not residual <= COMPLETENESS_TOL:
            raise ValueError(f"incomplete Kraus set: residual {residual:.3e}")
    rho = validate_density_matrix(rho)
    return (ops @ rho @ ops.conj().transpose(0, 2, 1)).sum(axis=0)


def choi_from_factors(gamma_a: float, gamma_b: float) -> np.ndarray:
    """16x16 Choi matrix of the dephasing map with the given factors.

    The map acts entrywise, Phi(|i><j|) = F_ij |i><j| with F the attenuation
    pattern, so the Choi matrix lives on the 4 doubled indices {0, 5, 10, 15}.
    """
    pattern = attenuation_pattern(gamma_a, gamma_b)
    choi = np.zeros((16, 16), dtype=np.complex128)
    doubled = 5 * np.arange(4)
    choi[np.ix_(doubled, doubled)] = pattern
    return choi


def choi_of_kraus(kraus: Union[KrausSet, Sequence[np.ndarray]]) -> np.ndarray:
    """Choi matrix induced by a Kraus set, sum_mu vec(K_mu) vec(K_mu)^dag."""
    # column-stacking: outer index of each 16-vector is the column of K_mu
    vecs = _operators_of(kraus).transpose(0, 2, 1).reshape(-1, 16)
    return np.einsum("ki,kj->ij", vecs, vecs.conj())


def kraus_from_choi(choi) -> KrausSet:
    """Extract a Kraus set from a Choi matrix by eigendecomposition.

    Each operator is sqrt(lambda_i) times the 4x4 un-stacking of eigenvector
    v_i (column-stacking convention, matching :func:`choi_of_kraus`).
    Eigenvalues up to ``CHOI_EIG_CUTOFF`` are dropped as numerical noise; an
    eigenvalue below ``-CP_TOL`` means the matrix is not completely positive.
    """
    choi = linalg.as_square_matrix(choi, "Choi matrix")
    if choi.shape != (16, 16):
        raise ValueError(f"Choi matrix must be 16x16, got {choi.shape}")
    vals, vecs = linalg.hermitian_eig(choi)
    if vals[-1] < -CP_TOL:
        raise CompletePositivityError(
            f"Choi matrix has eigenvalue {vals[-1]:.3e} < -{CP_TOL:g}; "
            "the map is not completely positive")
    keep = vals > CHOI_EIG_CUTOFF
    unstacked = vecs.T[keep].reshape(-1, 4, 4).transpose(0, 2, 1)
    return KrausSet(operators=np.sqrt(vals[keep])[:, None, None] * unstacked)


def _mixer_stack(mixer) -> np.ndarray:
    """``mixer`` as a validated stack (N, 4, 4) of unitaries; a single 4x4
    mixer becomes a stack of one."""
    stack = np.asarray(mixer, dtype=np.complex128)
    if stack.ndim == 2:
        stack = stack[None]
    if stack.ndim != 3 or stack.shape[1:] != (4, 4) \
            or not linalg.is_unitary(stack):
        raise ValueError("mixer must be a 4x4 unitary matrix or a stack "
                         "(N, 4, 4) of them")
    return stack


def mix_kraus(kraus: KrausSet, mixer) -> KrausSet:
    """Transform a four-operator set by a unitary: E_mu = sum_j u_{mu j} K_j.

    The output describes the same channel as the input; only the
    decomposition changes.
    """
    if len(kraus) != 4:
        raise ValueError(f"mixing requires exactly 4 operators, got {len(kraus)}")
    (mixer,) = _mixer_stack(linalg.as_square_matrix(mixer, "mixer"))
    mixed = np.einsum("ij,jkl->ikl", mixer, kraus.operators)
    return KrausSet(operators=mixed)

