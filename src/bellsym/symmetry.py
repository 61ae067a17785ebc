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

Both a Haar-random sampler (oracle) and an exact maximizer over the
unitary freedom are provided. The maximizer searches nothing: compressed to
the complement of the symmetry normal, the Gram matrix of the outcomes has
rank one, so one real orthogonal mixer, built in closed form from the
canonical diagonals, attains the ceiling for every state and pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Union

import numpy as np

from . import linalg
from .kraus import KrausFactors, _mixer_stack
from .rng import FEASIBLE_SCAN, HAAR_SCAN, check_range, fill_normals

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
    "sample_feasible_unitary",
    "maximize_symmetric_probability",
    "brute_force_symmetry_scan",
    "feasible_symmetry_scan",
    # the benchmark's tracer looks it up by name (perfbench/spans.py FOREIGN)
    "minimize",
]

SCAN_REPORT_SCHEMA = "bellsym/scan-report/v1"

SYMMETRY_TOL = 1e-9     # swap asymmetry of a symmetric outcome; B4 overlap
PROB_FLOOR = 1e-14      # outcomes less likely than this are negligible
NM_FATOL = 1e-13        # Nelder-Mead stops when its values span at most this
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


def _outcomes(bell: BellState, diagonals: np.ndarray, mixers: np.ndarray):
    """The four outcomes of each unitary of the stack ``mixers`` (N, 4, 4)
    remixing the canonical set whose diagonals are ``diagonals`` (see
    :meth:`KrausFactors.diagonals`). None is validated here: the public
    callers validate what a user passes, and the scans and the maximizer
    pass what the builders guarantee.

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
    # row mu of mixer @ diagonals is the diagonal of E_mu
    amp = (mixers @ diagonals) * bell.vector
    prob = (amp.conj()[..., None, :] @ amp[..., :, None])[..., 0, 0].real
    live = prob >= PROB_FLOOR
    q = np.abs(amp[..., 1] - amp[..., 2]) ** 2 / np.where(live, prob, 1.0)
    asym = np.sqrt(np.maximum(0.0, 2.0 * q * (2.0 - q)))
    code = np.where(q / 2.0 >= 1.0 - SYMMETRY_TOL, _ANTISYMMETRIC,
                    np.where(asym <= SYMMETRY_TOL, _SYMMETRIC, _MIXED))
    code[~live] = _NEGLIGIBLE
    asym[~live] = np.nan
    return amp, prob, asym, code


def _validated(bell, gamma, mixer):
    """``_outcomes``' arguments from a user's state, gamma and mixer (or
    stack of mixers), each checked."""
    bell = _coerce_bell(bell)
    diagonals = KrausFactors.from_gamma(gamma).diagonals()
    return bell, diagonals, _mixer_stack(mixer)


def _symmetric(bell: BellState, diagonals: np.ndarray,
               mixers: np.ndarray) -> np.ndarray:
    """Symmetric probability of each mixer of the stack; see _outcomes."""
    _, prob, _, code = _outcomes(bell, diagonals, mixers)
    # numpy adds fewer than eight terms in order, as a running sum would
    return np.where(code == _SYMMETRIC, prob, 0.0).sum(axis=-1)


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
    (amp,), (prob,), (asym,), (code,) = _outcomes(
        *_validated(bell, gamma, mixer))
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
    p = _symmetric(*_validated(bell, gamma, mixer))
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


def _norm(c: np.ndarray) -> np.ndarray:
    """Euclidean norms (..., 1) of the complex vectors (..., m), rounded as
    the 1-d np.linalg.norm rounds them; its axis form may not."""
    x, y = c.real[..., None], c.imag[..., None]
    return np.sqrt(np.swapaxes(x, -1, -2) @ x
                   + np.swapaxes(y, -1, -2) @ y)[..., 0]


def _feasible_from_normals(pattern: ConstraintPattern,
                           z: np.ndarray) -> np.ndarray:
    """Feasible mixers (..., 4, 4) from normals (..., 2m + 24), m free rows:
    the real and imaginary parts of column 2 on the free rows, then those
    of a 4x3 Ginibre matrix for the orthogonal completion."""
    free = [r - 1 for r in pattern.free_rows]
    m = len(free)
    c_free = z[..., :m] + 1j * z[..., m:2 * m]
    norm = _norm(c_free)
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
# the maximal symmetric probability
# ---------------------------------------------------------------------------

def maximize_symmetric_probability(
    bell: Union[BellState, str],
    gamma: float,
    pattern: Union[ConstraintPattern, Iterable[int]],
    budget: int = 24000,
    seed: int = 0,
) -> tuple[float, np.ndarray]:
    """Largest symmetric probability over pattern-respecting mixers, and a
    real orthogonal mixer attaining it.

    Compressed to the complement of the symmetry normal, the Gram matrix of
    the outcomes K_j psi has rank one, so single rows collect the whole
    ceiling: (1 + gamma^2)/2 for B3, (1 - gamma^2)/2 for B4 and 1 for B1 and
    B2. B3's row is (0, 0, d3, d4) / |(d3, d4)|, where d3 and d4 are entry 2
    of the diagonals of K3 and K4; B4's row is e2, the one row with a
    nonzero column-2 entry, which goes on the first free row. With e1 and
    (0, 0, -d4, d3) / |(d3, d4)| they form one mixer that respects the
    pattern and attains the ceiling for every state. ``budget`` and
    ``seed`` are checked but do not change the result.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    check_range(seed, FEASIBLE_SCAN, range(0))
    bell = _coerce_bell(bell)
    if not isinstance(pattern, ConstraintPattern):
        pattern = ConstraintPattern.from_rows(pattern)
    diagonals = KrausFactors.from_gamma(gamma).diagonals()
    d3, d4 = diagonals[2:, 1].real
    n = math.hypot(d3, d4)
    rows = np.array([[0.0, 1.0, 0.0, 0.0],
                     [0.0, 0.0, d3 / n, d4 / n],
                     [1.0, 0.0, 0.0, 0.0],
                     [0.0, 0.0, -d4 / n, d3 / n]])
    mixer = np.roll(rows, pattern.free_rows[0] - 1, axis=0)
    return _symmetric(bell, diagonals, mixer[None])[0], mixer


# ---------------------------------------------------------------------------
# adaptive Nelder-Mead: the package does not call it (see __all__)
# ---------------------------------------------------------------------------

def _sort_simplex(sim: np.ndarray, fsim: np.ndarray):
    ind = fsim.argsort()
    return sim[ind], fsim[ind]


def _nelder_mead(x0: np.ndarray, maxfev: int):
    """Adaptive Nelder-Mead from ``x0`` as a generator of evaluation requests.

    It yields stacks (k, n) of points and is sent their k values; it returns
    ``(sim, fsim, nfev)``: the final simplex (n + 1, n) sorted by value, so
    that ``sim[0]`` is the best point, its values and the number of values
    it was sent. Step for step this is scipy's ``_minimize_neldermead``
    with ``adaptive=True``, whose coefficients are those of Gao and Han,
    Comput. Optim. Appl. 51 (2012) 259. It stops once the simplex's values
    span at most ``NM_FATOL``, which is scipy's test at ``xatol=inf``, or
    when ``maxfev`` values are spent. A step that runs out of budget keeps
    what scipy keeps when its evaluation raises: in a shrink, the first
    vertex whose value is refused has already moved.
    """
    n = len(x0)
    rho, chi, psi, sigma = 1, 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    sim = np.tile(x0, (n + 1, 1))
    k = np.arange(n)
    sim[k + 1, k] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    fsim = np.full(n + 1, np.inf)
    nfev = min(n + 1, maxfev)
    fsim[:nfev] = yield sim[:nfev]
    # scipy sorts twice here; argsort is not stable, so ties may move twice
    sim, fsim = _sort_simplex(*_sort_simplex(sim, fsim))
    while (nfev < maxfev
           and not np.abs(fsim[0] - fsim[1:]).max() <= NM_FATOL):
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        (fxr,) = yield xr[None]
        nfev += 1
        if fxr < fsim[0]:
            if nfev < maxfev:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                (fxe,) = yield xe[None]
                nfev += 1
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif nfev < maxfev:
            if fxr < fsim[-1]:
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                (fxc,) = yield xc[None]
                shrink = not fxc <= fxr
            else:
                xc = (1 - psi) * xbar + psi * sim[-1]
                (fxc,) = yield xc[None]
                shrink = not fxc < fsim[-1]
            nfev += 1
            if not shrink:
                sim[-1], fsim[-1] = xc, fxc
            else:
                left = maxfev - nfev
                shrunk = sim[0] + sigma * (sim[1:] - sim[0])
                sim[1:left + 2] = shrunk[:left + 1]
                if left:
                    fsim[1:left + 1] = yield shrunk[:left]
                    nfev += min(left, n)
        sim, fsim = _sort_simplex(sim, fsim)
    return sim, fsim, nfev


def minimize(fun, starts, maxfev: int) -> list[tuple[np.ndarray, np.ndarray,
                                                     int]]:
    """Minimize ``fun`` by adaptive Nelder-Mead from each row of ``starts``
    (r, n), spending at most ``maxfev`` values per start.

    ``fun`` maps points (k, n) to their values (k,). The runs advance in
    lockstep: each round evaluates the points that every unfinished run asks
    for in one ``fun`` call. Returns ``(sim, fsim, nfev)`` of each start, in
    order (see :func:`_nelder_mead`): bitwise the ``final_simplex`` and
    ``nfev`` of scipy's Nelder-Mead with ``adaptive=True``, ``maxfev``,
    ``xatol=np.inf`` and ``fatol=NM_FATOL`` from that start alone, whose
    ``x`` and ``fun`` are ``sim[0]`` and ``fsim[0]``.
    """
    runs = [_nelder_mead(x0, maxfev) for x0 in starts]
    asks = [next(run) for run in runs]
    results = [None] * len(runs)
    live = list(range(len(runs)))
    while live:
        values = fun(np.concatenate([asks[i] for i in live]))
        end = 0
        for i in live:
            start, end = end, end + len(asks[i])
            try:
                asks[i] = runs[i].send(values[start:end])
            except StopIteration as done:
                results[i] = done.value
        live = [i for i in live if results[i] is None]
    return results


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
    diagonals = KrausFactors.from_gamma(gamma).diagonals()
    n_bins = int(round(1.0 / BIN_WIDTH)) + 1
    counts = np.zeros(n_bins, dtype=np.int64)
    p_max = -np.inf
    p_min = np.inf
    total = 0.0
    check_range(seed, stream, range(n_samples))
    for start in range(0, n_samples, SCAN_CHUNK):
        stop = min(n_samples, start + SCAN_CHUNK)
        z = fill_normals(np.empty((stop - start,) + shape), seed, stream,
                         range(start, stop))
        p = _symmetric(bell, diagonals, build(z))
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
