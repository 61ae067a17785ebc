import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellsym import linalg, spinbath, symmetry
from bellsym.channel import dephase_with_factors
from bellsym.kraus import (
    KrausFactors,
    canonical_kraus,
    choi_from_factors,
    kraus_from_choi,
    mix_kraus,
)
from bellsym.symmetry import (
    BellState,
    ConstraintPattern,
    SymmetryClass,
    asymptotic_symmetric_probability,
    brute_force_symmetry_scan,
    feasible_symmetry_scan,
    haar_unitary,
    is_exchange_symmetric,
    maximize_symmetric_probability,
    outcome_analysis,
    sample_feasible_unitary,
    swap_operator,
    symmetric_probability,
)
from bellsym.rng import FEASIBLE_SCAN, HAAR_SCAN, derived_rng
from bellsym.spinbath import decoherence_factor, identical_bath, random_bath

from conftest import assert_valid_for_schema

SQRT2 = math.sqrt(2.0)


def outcome_amplitudes(factors: KrausFactors, row: np.ndarray):
    """Per-slot amplitudes (e, r, s, f) of a remixed diagonal operator."""
    e = -factors.omega * row[0] / SQRT2 + factors.alpha * row[2] / 2 \
        + factors.beta * row[3] / 2
    r = -factors.omega * row[1] / SQRT2 - factors.alpha * row[2] / 2 \
        + factors.beta * row[3] / 2
    s = factors.omega * row[1] / SQRT2 - factors.alpha * row[2] / 2 \
        + factors.beta * row[3] / 2
    f = factors.omega * row[0] / SQRT2 + factors.alpha * row[2] / 2 \
        + factors.beta * row[3] / 2
    return e, r, s, f


def corner_state(e, f, sign):
    """Two-corner outcome form for the corner Bell states (sign=-1 for B2)."""
    norm = abs(e) ** 2 + abs(f) ** 2
    out = np.zeros((4, 4), dtype=complex)
    out[0, 0] = abs(e) ** 2
    out[3, 3] = abs(f) ** 2
    out[0, 3] = sign * e * np.conj(f)
    out[3, 0] = sign * np.conj(e) * f
    return out / norm


def central_state(r, s):
    """Middle-block outcome form for the central Bell states."""
    norm = abs(r) ** 2 + abs(s) ** 2
    out = np.zeros((4, 4), dtype=complex)
    out[1, 1] = abs(r) ** 2
    out[2, 2] = abs(s) ** 2
    out[1, 2] = r * np.conj(s)
    out[2, 1] = np.conj(r) * s
    return out / norm


class TestBellStates:
    def test_vectors(self):
        s = 1.0 / SQRT2
        assert np.allclose(BellState.B1.vector, [s, 0, 0, s], atol=0)
        assert np.allclose(BellState.B2.vector, [s, 0, 0, -s], atol=0)
        assert np.allclose(BellState.B3.vector, [0, s, s, 0], atol=0)
        assert np.allclose(BellState.B4.vector, [0, s, -s, 0], atol=0)

    def test_swap_eigenvectors(self):
        s = swap_operator()
        for state in (BellState.B1, BellState.B2, BellState.B3):
            assert np.array_equal(s @ state.vector, state.vector)
        assert np.array_equal(s @ BellState.B4.vector, -BellState.B4.vector)

    def test_densities_are_valid(self):
        for state in BellState:
            rho = state.density()
            assert abs(np.trace(rho) - 1.0) <= 1e-12


class TestSwapOperator:
    def test_involutory(self):
        s = swap_operator()
        assert np.array_equal(s @ s, np.eye(4).astype(complex))

    def test_fixes_symmetric_bell_density(self):
        s = swap_operator()
        rho = BellState.B3.density()
        assert np.array_equal(s @ rho @ s, rho)

    def test_fixes_antisymmetric_density_despite_sign_flip(self):
        s = swap_operator()
        rho = BellState.B4.density()
        assert np.allclose(s @ rho @ s, rho, atol=0)

    def test_exchanges_product_projectors(self):
        s = swap_operator()
        p01 = np.zeros((4, 4), dtype=complex)
        p01[1, 1] = 1.0
        p10 = np.zeros((4, 4), dtype=complex)
        p10[2, 2] = 1.0
        assert np.array_equal(s @ p01 @ s, p10)


class TestIsExchangeSymmetric:
    def test_bell_one_is_symmetric(self):
        ok, asym = is_exchange_symmetric(BellState.B1.density())
        assert ok and asym == 0.0

    def test_product_state_asymmetry_is_sqrt_two(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 1] = 1.0
        ok, asym = is_exchange_symmetric(rho)
        assert not ok
        assert asym == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_central_block_equal_weights(self):
        # all non-zero elements equal -> symmetric
        ok, asym = is_exchange_symmetric(central_state(0.5, 0.5))
        assert ok and asym <= 1e-15
        # unequal weights break the symmetry
        ok, asym = is_exchange_symmetric(central_state(1.0, 0.0))
        assert not ok and asym > 1.0

    def test_antisymmetric_ray_is_swap_invariant(self):
        ok, asym = is_exchange_symmetric(BellState.B4.density())
        assert ok and asym <= 1e-15

    def test_cross_sector_mixture(self):
        rho = 0.5 * BellState.B3.density() + 0.5 * BellState.B4.density()
        ok, _ = is_exchange_symmetric(rho)
        assert ok

    def test_pure_state_cross_check_runs_quietly(self, rng):
        for _ in range(200):
            z = rng.standard_normal((2, 4))
            v = z[0] + 1j * z[1]
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
            is_exchange_symmetric(rho)      # must not raise


@settings(derandomize=True, max_examples=200, deadline=None)
@given(parts=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8)
       .filter(lambda xs: sum(x * x for x in xs) > 1e-3))
def test_pure_state_asymmetry_closed_form(parts):
    # ||S rho S - rho||_F^2 = 2 q (2 - q) with q = |v_1 - v_2|^2
    v = np.array(parts[:4]) + 1j * np.array(parts[4:])
    v /= np.linalg.norm(v)
    _, asym = is_exchange_symmetric(np.outer(v, v.conj()))
    q = abs(v[1] - v[2]) ** 2
    assert abs(asym**2 - 2.0 * q * (2.0 - q)) <= 1e-7


class TestOutcomeAnalysis:
    def test_corner_state_all_outcomes_symmetric(self, rng):
        for gamma in (0.0, 0.4, 1.0):
            reports = outcome_analysis(BellState.B1, gamma, np.eye(4))
            for rep in reports:
                if rep.negligible:
                    continue
                assert rep.symmetry_class is SymmetryClass.SYMMETRIC
                assert rep.asymmetry <= 1e-12
                # middle block empty for corner states
                assert np.max(np.abs(rep.state[1:3, :])) <= 1e-15

    def test_central_state_fully_decohered_identity_mixer(self):
        reports = outcome_analysis(BellState.B3, 0.0, np.eye(4))
        assert reports[0].negligible and reports[0].probability <= 1e-14
        assert reports[1].probability == pytest.approx(0.5, abs=1e-12)
        assert reports[1].symmetry_class is SymmetryClass.ANTISYMMETRIC
        assert np.allclose(reports[1].state, BellState.B4.density(), atol=1e-12)
        for mu in (2, 3):
            assert reports[mu].probability == pytest.approx(0.25, abs=1e-12)
            assert reports[mu].symmetry_class is SymmetryClass.SYMMETRIC

    def test_central_state_identity_channel(self):
        reports = outcome_analysis(BellState.B3, 1.0, np.eye(4))
        live = [r for r in reports if not r.negligible]
        assert len(live) == 1
        assert live[0].probability == pytest.approx(1.0, abs=1e-12)
        assert live[0].symmetry_class is SymmetryClass.SYMMETRIC
        assert np.allclose(live[0].state, BellState.B3.density(), atol=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.8])
    def test_probabilities_sum_to_one(self, rng, gamma):
        for _ in range(50):
            mixer = haar_unitary(rng)
            for state in BellState:
                reports = outcome_analysis(state, gamma, mixer)
                total = sum(r.probability for r in reports)
                assert abs(total - 1.0) <= 1e-10

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.8])
    def test_average_outcome_reproduces_channel(self, rng, gamma):
        for _ in range(20):
            mixer = haar_unitary(rng)
            for state in (BellState.B1, BellState.B2, BellState.B3):
                reports = outcome_analysis(state, gamma, mixer)
                averaged = sum(r.probability * r.state for r in reports
                               if not r.negligible)
                expected = dephase_with_factors(state.density(), gamma, gamma)
                assert np.max(np.abs(averaged - expected)) <= 1e-12

    @pytest.mark.parametrize("bell,sign", [(BellState.B1, 1.0),
                                           (BellState.B2, -1.0)])
    def test_corner_states_match_two_corner_form(self, rng, bell, sign):
        for gamma in (0.0, 0.45, 0.9):
            factors = KrausFactors.from_gamma(gamma)
            mixer = haar_unitary(rng)
            reports = outcome_analysis(bell, gamma, mixer)
            for mu, rep in enumerate(reports):
                if rep.negligible:
                    continue
                e, _, _, f = outcome_amplitudes(factors, mixer[mu])
                assert rep.probability == pytest.approx(
                    (abs(e)**2 + abs(f)**2) / 2.0, abs=1e-12)
                assert np.max(np.abs(rep.state - corner_state(e, f, sign))) \
                    <= 1e-12

    def test_central_state_matches_middle_block_form(self, rng):
        for gamma in (0.0, 0.45, 0.9):
            factors = KrausFactors.from_gamma(gamma)
            mixer = haar_unitary(rng)
            reports = outcome_analysis(BellState.B3, gamma, mixer)
            for mu, rep in enumerate(reports):
                if rep.negligible:
                    continue
                _, r, s, _ = outcome_amplitudes(factors, mixer[mu])
                assert rep.probability == pytest.approx(
                    (abs(r)**2 + abs(s)**2) / 2.0, abs=1e-12)
                assert np.max(np.abs(rep.state - central_state(r, s))) <= 1e-12

    def test_corner_states_never_break(self, rng):
        # the corner form satisfies the symmetric pattern for every mixer
        for _ in range(100):
            mixer = haar_unitary(rng)
            for bell in (BellState.B1, BellState.B2):
                for rep in outcome_analysis(bell, 0.0, mixer):
                    assert rep.negligible or \
                        rep.symmetry_class is SymmetryClass.SYMMETRIC

    def test_central_state_canonical_set_never_mixed(self):
        # under the canonical (unmixed) diagonal operators every outcome is
        # symmetric or exactly the antisymmetric ray
        for gamma in np.linspace(0.0, 1.0, 11):
            for rep in outcome_analysis(BellState.B3, gamma, np.eye(4)):
                assert rep.negligible or \
                    rep.symmetry_class is not SymmetryClass.MIXED

    def test_central_state_generic_mixer_breaks_symmetry(self, rng):
        # a generic remixing produces symmetry-broken outcomes: that is the
        # mechanism behind the 0.5 bound
        mixer = haar_unitary(rng)
        classes = {r.symmetry_class
                   for r in outcome_analysis(BellState.B3, 0.0, mixer)
                   if not r.negligible}
        assert SymmetryClass.MIXED in classes

    def test_invalid_mixer_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            outcome_analysis(BellState.B1, 0.5, np.ones((4, 4)))

    def test_accepts_state_names(self):
        reports = outcome_analysis("B3", 0.0, np.eye(4))
        assert len(reports) == 4


class TestSymmetricProbability:
    def test_corner_states_always_unity(self, rng):
        for _ in range(50):
            mixer = haar_unitary(rng)
            for bell in (BellState.B1, BellState.B2):
                p = symmetric_probability(bell, rng.uniform(0, 1), mixer)
                assert abs(p - 1.0) <= 1e-10

    def test_central_state_identity_mixer(self):
        assert symmetric_probability(BellState.B3, 0.0, np.eye(4)) == \
            pytest.approx(0.5, abs=1e-12)

    def test_central_state_identity_channel(self, rng):
        mixer = haar_unitary(rng)
        assert symmetric_probability(BellState.B3, 1.0, mixer) == \
            pytest.approx(1.0, abs=1e-10)

    def test_explicit_one_row_mixer(self):
        s = 1.0 / SQRT2
        mixer = np.array([
            [0.0, 0.0, s, s],
            [0.0, 0.0, s, -s],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
        ], dtype=complex)
        p = symmetric_probability(BellState.B3, 0.0, mixer)
        assert p == pytest.approx(0.5, abs=1e-12)
        pattern = ConstraintPattern.from_rows([1])
        assert asymptotic_symmetric_probability(pattern, mixer) == \
            pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("fn", [symmetric_probability, outcome_analysis])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_public_entries_validate_what_the_core_does_not(self, fn, bad):
        mixer = np.eye(4, dtype=complex)
        mixer[0, 0] = bad
        with pytest.raises(ValueError, match="mixer"):
            fn(BellState.B3, 0.0, mixer)
        with pytest.raises(ValueError, match="gamma"):
            fn(BellState.B3, 1.5, np.eye(4))

    def test_rejects_stack_of_wrong_shape(self):
        with pytest.raises(ValueError, match="unitary"):
            symmetric_probability(BellState.B3, 0.0, np.eye(3)[None])
        with pytest.raises(ValueError, match="unitary"):
            symmetric_probability(BellState.B3, 0.0,
                                  np.stack([np.eye(4), np.ones((4, 4))]))


def _mixer(kind: int, index: int) -> np.ndarray:
    """A Haar mixer, or a feasible one whose exact zeros give exactly
    symmetric outcomes."""
    if kind == 0:
        return haar_unitary(derived_rng(17, HAAR_SCAN, index))
    pattern = ConstraintPattern.from_rows(range(1, kind + 1))
    return sample_feasible_unitary(pattern,
                                   derived_rng(17, FEASIBLE_SCAN, index))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(bell=st.sampled_from(BellState),
       gamma=st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                       st.floats(0.0, 1.0)),
       items=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2**20)),
                      min_size=1, max_size=9))
def test_stacked_symmetric_probability_equals_single_calls(bell, gamma, items):
    mixers = np.stack([_mixer(kind, index) for kind, index in items])
    stacked = symmetric_probability(bell, gamma, mixers)
    singles = np.array([symmetric_probability(bell, gamma, u) for u in mixers])
    assert stacked.shape == (len(items),)
    assert stacked.tobytes() == singles.tobytes()


class TestClosedForms:
    @pytest.mark.parametrize("rows", [(1,), (1, 2), (1, 2, 3)])
    def test_agree_with_classification(self, rows):
        pattern = ConstraintPattern.from_rows(rows)
        for i in range(200):
            mixer = sample_feasible_unitary(pattern, derived_rng(5, HAAR_SCAN, i))
            closed = asymptotic_symmetric_probability(pattern, mixer)
            full = symmetric_probability(BellState.B3, 0.0, mixer)
            assert abs(closed - full) <= 1e-12

    def test_requires_feasible_mixer(self, rng):
        pattern = ConstraintPattern.from_rows([1])
        mixer = haar_unitary(rng)          # u_{12} != 0 almost surely
        with pytest.raises(ValueError, match="closed form"):
            asymptotic_symmetric_probability(pattern, mixer)


class TestConstraintPattern:
    def test_rejects_four_rows(self):
        with pytest.raises(ValueError, match="at most 3"):
            ConstraintPattern.from_rows([1, 2, 3, 4])

    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError, match="subset"):
            ConstraintPattern.from_rows([0, 5])

    def test_free_rows(self):
        pattern = ConstraintPattern.from_rows([1, 3])
        assert pattern.rows_sorted == (1, 3)
        assert pattern.free_rows == (2, 4)


class TestUnitaryConstructions:
    def test_haar_unitary_is_unitary(self, rng):
        for _ in range(200):
            u = haar_unitary(rng)
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12

    def test_haar_determinism(self):
        u1 = haar_unitary(derived_rng(3, HAAR_SCAN, 0))
        u2 = haar_unitary(derived_rng(3, HAAR_SCAN, 0))
        assert np.array_equal(u1, u2)

    @pytest.mark.parametrize("rows", [(1,), (1, 2), (1, 2, 3)])
    def test_sample_feasible_unitary(self, rng, rows):
        pattern = ConstraintPattern.from_rows(rows)
        for _ in range(100):
            u = sample_feasible_unitary(pattern, rng)
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12
            for row in rows:
                assert u[row - 1, 1] == 0.0
            free = [r - 1 for r in pattern.free_rows]
            assert abs(np.linalg.norm(u[free, 1]) - 1.0) <= 1e-12

    # the maximizer's mixer, on every pattern: one real rotation for all
    # four states, whose only column-2 entry is a 1 on the first free row
    @pytest.mark.parametrize("rows", [rows for k in range(4) for rows in
                                      itertools.combinations((1, 2, 3, 4), k)])
    def test_feasible_unitary_construction(self, rows):
        pattern = ConstraintPattern.from_rows(rows)
        column_2 = np.zeros(4)
        column_2[pattern.free_rows[0] - 1] = 1.0
        for gamma in np.append(np.linspace(0.0, 1.0, 11), 1 - 1e-16):
            mixers = [maximize_symmetric_probability(bell, gamma, pattern)[1]
                      for bell in BellState]
            u = mixers[0]
            assert all(m.tobytes() == u.tobytes() for m in mixers)
            assert u.dtype == np.float64
            assert np.max(np.abs(u.T @ u - np.eye(4))) <= 1e-15
            assert np.array_equal(u[:, 1], column_2)

    @pytest.mark.parametrize("rows", [(), (1,), (1, 2), (1, 2, 3)])
    def test_feasible_from_normals_stack_matches_rows(self, rng, rows):
        pattern = ConstraintPattern.from_rows(rows)
        m = len(pattern.free_rows)
        z = rng.standard_normal((40, 2 * m + 24))
        z[7, :2 * m] = 0.0          # zero-norm column 2: the fallback
        stacked = symmetry._feasible_from_normals(pattern, z)
        singles = np.stack([symmetry._feasible_from_normals(pattern, row)
                            for row in z])
        assert stacked.tobytes() == singles.tobytes()
        free = [r - 1 for r in pattern.free_rows]
        assert np.array_equal(stacked[7, free, 1],
                              np.full(m, 1.0 / math.sqrt(m), dtype=complex))

    @pytest.mark.parametrize("rows", [(), (1,), (1, 2), (1, 2, 3), (2, 4)])
    def test_sample_feasible_unitary_matches_two_draw_reference(self, rows):
        """One (2m + 24)-normal draw gives the mixer of the former
        (2, m) draw followed by a (2, 4, 3) draw, bit for bit."""
        pattern = ConstraintPattern.from_rows(rows)
        free = [r - 1 for r in pattern.free_rows]
        for i in range(200):
            rng = derived_rng(17, FEASIBLE_SCAN, i)
            z = rng.standard_normal((2, len(free)))
            c_free = z[0] + 1j * z[1]
            c = np.zeros(4, dtype=complex)
            c[free] = c_free / np.linalg.norm(c_free)
            g = rng.standard_normal((2, 4, 3))
            g = (g[0] + 1j * g[1]) / SQRT2
            q, r = np.linalg.qr(g - np.outer(c, c.conj() @ g))
            d = np.diagonal(r).copy()
            expected = np.empty((4, 4), dtype=complex)
            expected[:, 1] = c
            expected[:, [0, 2, 3]] = q * (d / np.abs(d))
            got = sample_feasible_unitary(pattern,
                                          derived_rng(17, FEASIBLE_SCAN, i))
            assert got.tobytes() == expected.tobytes()


# The scans hand their mixers to the core unchecked, so the builders must
# guarantee unitarity themselves: for every pattern, on
# ordinary draws and on column-2 parts small enough to take the fallback.
_FALLBACK_SCALES = (0.0, 1e-14)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(rows=st.sets(st.integers(1, 4), max_size=3),
       seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from(_FALLBACK_SCALES + (1e-11, 1.0, 1e6)))
def test_built_mixers_are_unitary(rows, seed, scale):
    pattern = ConstraintPattern.from_rows(rows)
    m = len(pattern.free_rows)
    gen = np.random.default_rng(seed)
    z = gen.standard_normal((16, 2 * m + 24))
    z[:8, :2 * m] *= scale          # the first half of the feasible stack
    stacks = (symmetry._haar_from_normals(gen.standard_normal((16, 2, 4, 4))),
              symmetry._feasible_from_normals(pattern, z))
    for stack in stacks:
        assert linalg.is_unitary(stack)
    if scale in _FALLBACK_SCALES:
        free = [r - 1 for r in pattern.free_rows]
        assert np.array_equal(stacks[1][:8][:, free, 1],
                              np.full((8, m), 1.0 / math.sqrt(m)))


def run_alone(fun, x0, maxfev):
    """One vendored Nelder-Mead run, driven without the lockstep driver."""
    run = symmetry._nelder_mead(np.asarray(x0, dtype=float), maxfev)
    try:
        points = next(run)
        while True:
            points = run.send(fun(points))
    except StopIteration as done:
        return done.value


def scipy_minimize(fun, x0, maxfev, callback=None):
    optimize = pytest.importorskip("scipy.optimize")
    return optimize.minimize(
        lambda x: fun(x[None])[0], x0, method="Nelder-Mead",
        callback=callback,
        options={"maxfev": maxfev, "xatol": np.inf,
                 "fatol": symmetry.NM_FATOL, "adaptive": True})


def scipy_iteration_starts(fun, x0):
    """Values scipy has spent when each Nelder-Mead iteration starts, and
    how many each iteration spends: 1 for an accepted reflection, 2 with an
    expansion or a contraction, n + 2 with a shrink."""
    spent = []

    def counted(x):
        spent.extend(x)
        return fun(x)

    ends = [len(x0) + 1]
    scipy_minimize(counted, x0, 20_000,
                   callback=lambda xk: ends.append(len(spent)))
    return [(a, b - a) for a, b in zip(ends, ends[1:])]


def assert_matches_scipy(fun, x0, maxfev):
    """The lockstep driver from ``x0`` returns scipy's x, fun, nfev and
    final simplex."""
    expected = scipy_minimize(fun, x0, maxfev)
    ((sim, fsim, nfev),) = symmetry.minimize(fun, np.array([x0], float),
                                             maxfev)
    assert sim[0].tobytes() == expected.x.tobytes()
    assert fsim[0].tobytes() == np.float64(expected.fun).tobytes()
    assert nfev == expected.nfev
    assert sim.tobytes() == expected.final_simplex[0].tobytes()
    assert fsim.tobytes() == expected.final_simplex[1].tobytes()
    return nfev


def rosenbrock(x):
    return np.sum(100.0 * (x[:, 1:] - x[:, :-1] ** 2) ** 2
                  + (1.0 - x[:, :-1]) ** 2, axis=1)


def stepped_rosenbrock(x):
    """Rosenbrock on a grid of 0.5: its plateaus make Nelder-Mead shrink."""
    return np.floor(2.0 * rosenbrock(x)) / 2.0


def constant(x):
    return np.full(len(x), -0.5)


# objective and start; each run takes an expansion or a contraction, and
# the run of stepped-rosenbrock shrinks (at value 94)
OBJECTIVES = {
    "rosenbrock": (rosenbrock, [-1.2, 1.0]),
    "stepped-rosenbrock": (stepped_rosenbrock, [2.0, -1.5, 0.5]),
}
# more converged runs: stepped-rosenbrock stops on a plateau, and a constant
# objective stops at its first simplex
CONVERGED = {
    **OBJECTIVES,
    "stepped-rosenbrock-plateau": (stepped_rosenbrock, [-1.2, 1.0, 0.5]),
    "real-constant": (constant, [1e-6] * 11),
}


class TestNelderMead:
    """The vendored Nelder-Mead against scipy's, bit for bit."""

    @pytest.mark.parametrize("name", sorted(CONVERGED))
    def test_converged_run_matches_scipy(self, name):
        fun, x0 = CONVERGED[name]
        assert assert_matches_scipy(fun, x0, 20_000) < 20_000

    @pytest.mark.parametrize("name", sorted(OBJECTIVES))
    def test_budget_spent_after_a_reflection(self, name):
        fun, x0 = OBJECTIVES[name]
        # the reflection of the first iteration that wants another value
        start = next(start for start, cost in scipy_iteration_starts(fun, x0)
                     if cost >= 2)
        assert assert_matches_scipy(fun, x0, start + 1) == start + 1

    def test_budget_spent_inside_a_shrink(self):
        fun, x0 = OBJECTIVES["stepped-rosenbrock"]
        n = len(x0)
        start = next(start for start, cost in scipy_iteration_starts(fun, x0)
                     if cost == n + 2)
        # the reflection and the contraction, then 0 to n - 1 shrunk vertices
        for maxfev in range(start + 2, start + n + 2):
            assert assert_matches_scipy(fun, x0, maxfev) == maxfev

    def test_every_budget_matches_scipy(self):
        fun, x0 = stepped_rosenbrock, [-1.2, 1.0]
        _, _, nfev = run_alone(fun, x0, 20_000)
        for maxfev in range(1, nfev + 2):
            assert_matches_scipy(fun, x0, maxfev)

    def test_constant_objective_stops_at_the_first_simplex(self):
        fun, x0 = CONVERGED["real-constant"]
        starts = np.random.default_rng(7).standard_normal((8, len(x0)))
        runs = symmetry.minimize(fun, starts, 3000)
        assert [nfev for _, _, nfev in runs] == [len(x0) + 1] * len(starts)

    def test_lockstep_runs_match_runs_alone(self, rng):
        starts = rng.standard_normal((5, 3))
        runs = symmetry.minimize(stepped_rosenbrock, starts, 400)
        for x0, (sim, fsim, nfev) in zip(starts, runs):
            sim1, fsim1, nfev1 = run_alone(stepped_rosenbrock, x0, 400)
            assert (sim.tobytes(), fsim.tobytes(), nfev) \
                == (sim1.tobytes(), fsim1.tobytes(), nfev1)


class TestMaximize:
    def test_corner_state_attains_unity(self):
        p, mixer = maximize_symmetric_probability(
            BellState.B1, 0.0, (), budget=2000, seed=0)
        assert abs(p - 1.0) <= 1e-9
        assert np.max(np.abs(mixer.conj().T @ mixer - np.eye(4))) <= 1e-12

    def test_one_row_pattern_reaches_half(self):
        p, mixer = maximize_symmetric_probability(
            BellState.B3, 0.0, (1,), budget=24000, seed=0)
        assert p <= 0.5 + 1e-9
        assert abs(p - 0.5) <= 1e-6
        assert mixer[0, 1] == 0.0

    def test_three_row_pattern_constant_objective(self):
        pattern = ConstraintPattern.from_rows([1, 2, 3])
        for i in range(300):
            u = sample_feasible_unitary(pattern, derived_rng(11, HAAR_SCAN, i))
            p = symmetric_probability(BellState.B3, 0.0, u)
            assert abs(p - 0.5) <= 1e-12

    def test_non_finite_mixer_rejected_without_warning(self):
        m = np.eye(4)
        m[0, 0] = np.inf
        with pytest.raises(ValueError, match="unitary"):
            symmetric_probability(BellState.B3, 0.0, m)

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            maximize_symmetric_probability(BellState.B3, 0.0, (1,), budget=0)

    def test_budget_and_seed_do_not_change_the_result(self):
        p, mixer = maximize_symmetric_probability(BellState.B3, 0.0, (1, 2),
                                                  budget=1, seed=0)
        p_ref, mixer_ref = maximize_symmetric_probability(
            BellState.B3, 0.0, (1, 2), budget=24000, seed=505)
        assert (np.float64(p).tobytes(), mixer.tobytes()) == \
            (np.float64(p_ref).tobytes(), mixer_ref.tobytes())

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            maximize_symmetric_probability(BellState.B3, 0.0, (1,), seed=seed)


class TestBruteForceScan:
    def test_corner_state_concentrates_at_unity(self):
        res = brute_force_symmetry_scan(BellState.B1, 0.5, 300, seed=21)
        assert res.p_min >= 1.0 - 1e-10
        assert res.p_max <= 1.0 + 1e-10
        top_bin = len(res.counts) - 1
        assert res.counts[top_bin] == 300
        assert sum(res.counts) == 300

    def test_central_state_bounded_by_half(self):
        res = brute_force_symmetry_scan(BellState.B3, 0.0, 500, seed=22)
        assert res.p_max <= 0.5 + 1e-9

    def test_central_state_identity_channel_all_unity(self):
        res = brute_force_symmetry_scan(BellState.B3, 1.0, 200, seed=23)
        assert res.p_min >= 1.0 - 1e-10

    def test_determinism(self):
        res1 = brute_force_symmetry_scan(BellState.B3, 0.3, 100, seed=5)
        res2 = brute_force_symmetry_scan(BellState.B3, 0.3, 100, seed=5)
        assert res1 == res2
        res3 = brute_force_symmetry_scan(BellState.B3, 0.3, 100, seed=6)
        assert res1 != res3

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError, match="n_samples"):
            brute_force_symmetry_scan(BellState.B3, 0.0, 0, seed=0)

    # 1000 samples: enough that a chunk-wise pairwise sum would move the
    # last bit of the B1/B2 means (almost every B3 Haar sample has p = 0)
    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize("bell,gamma", [(BellState.B1, 0.5),
                                            (BellState.B2, 0.2),
                                            (BellState.B3, 0.7)])
    def test_chunk_size_does_not_change_result(self, monkeypatch, chunk,
                                               bell, gamma):
        default = brute_force_symmetry_scan(bell, gamma, 1000, seed=31)
        monkeypatch.setattr(symmetry, "SCAN_CHUNK", chunk)
        assert brute_force_symmetry_scan(bell, gamma, 1000, seed=31) \
            == default

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_feasible_scan_chunk_size_does_not_change_result(
            self, monkeypatch, chunk):
        pattern = ConstraintPattern.from_rows([1])
        default = feasible_symmetry_scan(BellState.B3, 0.0, pattern, 300,
                                         seed=32)
        monkeypatch.setattr(symmetry, "SCAN_CHUNK", chunk)
        assert feasible_symmetry_scan(BellState.B3, 0.0, pattern, 300,
                                      seed=32) == default

    def test_feasible_scan_three_row_pattern_is_constant(self):
        pattern = ConstraintPattern.from_rows([1, 2, 3])
        res = feasible_symmetry_scan(BellState.B3, 0.0, pattern, 200, seed=3)
        assert res.p_min == pytest.approx(0.5, abs=1e-12)
        assert res.p_max == pytest.approx(0.5, abs=1e-12)

    # Haar scans are exact. A B3 or B4 outcome is symmetric only on a row
    # with a zero column-2 entry, which a Haar row has with probability 0.
    # Gamma stays below 1 by far: at 1 - 1e-15, SYMMETRY_TOL absorbs a
    # middle-amplitude gap of about 1e-8 and B3's p_max is 0.848, while at
    # 1 - 1e-13 it is still exactly 0.
    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(bell=st.sampled_from([BellState.B3, BellState.B4]),
           gamma=st.floats(0.0, 0.999), seed=st.integers(0, 2**32 - 1))
    def test_haar_scan_of_central_state_is_zero(self, bell, gamma, seed):
        res = brute_force_symmetry_scan(bell, gamma, 200, seed=seed)
        assert res.p_max == res.p_min == res.p_mean == 0.0
        assert res.counts[0] == 200

    # every B1 or B2 outcome is symmetric, and so is B3's without dephasing
    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(case=st.one_of(st.tuples(st.sampled_from([BellState.B1,
                                                     BellState.B2]),
                                    st.floats(0.0, 1.0)),
                          st.just((BellState.B3, 1.0))),
           seed=st.integers(0, 2**32 - 1))
    def test_haar_scan_of_symmetric_case_is_one(self, case, seed):
        res = brute_force_symmetry_scan(*case, 200, seed=seed)
        assert abs(res.p_max - 1.0) <= 1e-14
        assert abs(res.p_min - 1.0) <= 1e-14
        assert res.counts[-1] == 200

    def test_report_validates_against_schema(self):
        res = brute_force_symmetry_scan(BellState.B3, 0.0, 50, seed=1)
        assert_valid_for_schema(res.to_dict(), "scan_report")


def _batched_feasible_max(rows, n_total, seed, chunk=100_000):
    """Vectorized sampling oracle: feasible mixers evaluated via the
    closed-form expression, independent of the per-sample library path."""
    free = [r - 1 for r in (1, 2, 3, 4) if r not in rows]
    m = len(free)
    rng = np.random.default_rng(seed)
    best = -np.inf
    remaining = n_total
    while remaining > 0:
        n = min(chunk, remaining)
        remaining -= n
        z = rng.standard_normal((n, 2, m))
        c_free = z[:, 0, :] + 1j * z[:, 1, :]
        c_free /= np.linalg.norm(c_free, axis=1, keepdims=True)
        c = np.zeros((n, 4), dtype=complex)
        c[:, free] = c_free
        z = rng.standard_normal((n, 2, 4, 3))
        g = z[:, 0] + 1j * z[:, 1]
        overlap = np.einsum("ni,nij->nj", c.conj(), g)
        g = g - c[:, :, None] * overlap[:, None, :]
        q, r = np.linalg.qr(g)
        d = np.diagonal(r, axis1=1, axis2=2).copy()
        d[d == 0] = 1.0
        q = q * (d / np.abs(d))[:, None, :]
        # unitary columns (1,3,4) = q columns (0,1,2); closed form needs
        # columns 3 and 4, i.e. q[..., 1] and q[..., 2]
        p_sym = np.zeros(n)
        for row in rows:
            p_sym += 0.25 * np.abs(q[:, row - 1, 1] + q[:, row - 1, 2]) ** 2
        best = max(best, float(p_sym.max()))
    return best


def test_optimizer_agrees_with_sampling_oracle():
    p_opt, _ = maximize_symmetric_probability(
        BellState.B3, 0.0, (1,), budget=24000, seed=0)
    oracle_max = _batched_feasible_max((1,), 1_000_000, seed=424242)
    assert oracle_max <= 0.5 + 1e-9
    assert abs(p_opt - oracle_max) <= 1e-3


def symmetric_ceiling(kset, bell: BellState) -> float:
    """Largest symmetric probability over every unitary remixing of ``kset``.

    With w_j = K_j psi, the outcome sum_j u_j w_j is exchange-symmetric
    exactly when u is orthogonal to n_j = conj(w_j[1] - w_j[2]), and its
    probability is the form of u on the Gram matrix G_jl = <w_j|w_l>. Rows
    of a unitary are orthonormal, so by Ky Fan's maximum principle the
    ceiling is the sum of the positive eigenvalues of G compressed to the
    complement of n. An n below 1e-12 is rounding and leaves G whole. This
    route shares no code with the builders, the core or the optimizer.
    """
    w = kset.operators @ bell.vector
    gram = w.conj() @ w.T
    n = (w[:, 1] - w[:, 2]).conj()
    proj = np.eye(len(w), dtype=complex)
    if np.linalg.norm(n) > 1e-12:
        proj -= np.outer(n, n.conj()) / np.vdot(n, n).real
    eig = np.linalg.eigvalsh(proj @ gram @ proj)
    return float(eig[eig > 0].sum())


CEILING_GAMMAS = (0.0, 0.3, 0.7, 1.0)
# patterns of one to three rows
PATTERNS = [rows for k in (1, 2, 3)
            for rows in itertools.combinations((1, 2, 3, 4), k)]


class TestCeiling:
    @pytest.mark.parametrize("gamma", CEILING_GAMMAS + (0.123456789,))
    def test_closed_forms(self, gamma):
        kset = canonical_kraus(gamma)
        expected = {BellState.B1: 1.0, BellState.B2: 1.0,
                    BellState.B3: (1 + gamma**2) / 2,
                    BellState.B4: (1 - gamma**2) / 2}
        for bell, value in expected.items():
            assert abs(symmetric_ceiling(kset, bell) - value) <= 1e-12

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(bell=st.sampled_from(BellState),
           gamma=st.one_of(st.sampled_from(CEILING_GAMMAS),
                           st.floats(0.0, 1.0)),
           index=st.integers(0, 2**20))
    def test_same_for_every_set_of_the_channel(self, bell, gamma, index):
        canonical = canonical_kraus(gamma)
        remixed = mix_kraus(canonical,
                            haar_unitary(derived_rng(3, HAAR_SCAN, index)))
        extracted = kraus_from_choi(choi_from_factors(gamma, gamma))
        ceiling = symmetric_ceiling(canonical, bell)
        for kset in (remixed, extracted):
            assert abs(symmetric_ceiling(kset, bell) - ceiling) <= 1e-12

    @pytest.mark.parametrize("t", (0.3, 1.0, 4.0))
    @pytest.mark.parametrize("equal_amplitudes", (True, False))
    def test_spin_bath_law(self, equal_amplitudes, t):
        # two identical 20-spin baths follow the classical law with gamma^2
        # replaced by |r(t)|^2; the set comes from the entrywise map alone
        bath_a, bath_b = identical_bath(
            random_bath(20, seed=8, equal_amplitudes=equal_amplitudes))
        r_a = decoherence_factor(bath_a, t)
        pattern = (spinbath._qubit_factor(r_a, spinbath._BIT_1)
                   * spinbath._qubit_factor(decoherence_factor(bath_b, t),
                                            spinbath._BIT_2))
        choi = np.zeros((16, 16), dtype=complex)
        doubled = 5 * np.arange(4)
        choi[np.ix_(doubled, doubled)] = pattern
        kset = kraus_from_choi(choi)
        r_sq = abs(r_a) ** 2
        assert abs(symmetric_ceiling(kset, BellState.B3)
                   - (1 + r_sq) / 2) <= 1e-12
        assert abs(symmetric_ceiling(kset, BellState.B4)
                   - (1 - r_sq) / 2) <= 1e-12

    @pytest.mark.parametrize("gamma", CEILING_GAMMAS)
    @pytest.mark.parametrize("bell", list(BellState))
    def test_haar_scan_stays_below(self, bell, gamma):
        scan = brute_force_symmetry_scan(bell, gamma, 500, seed=21)
        ceiling = symmetric_ceiling(canonical_kraus(gamma), bell)
        assert scan.p_max <= ceiling + 1e-12

    @pytest.mark.parametrize("gamma", CEILING_GAMMAS)
    @pytest.mark.parametrize("rows", PATTERNS)
    def test_feasible_scan_stays_below(self, rows, gamma):
        scan = feasible_symmetry_scan(
            BellState.B3, gamma, ConstraintPattern.from_rows(rows), 300,
            seed=22)
        ceiling = symmetric_ceiling(canonical_kraus(gamma), BellState.B3)
        assert scan.p_max <= ceiling + 1e-12

    # B3, the paper's state, on a fixed grid; the property below draws
    # every state
    @pytest.mark.parametrize("gamma", (0.0, 0.3, 0.7))
    @pytest.mark.parametrize("rows", [(1,), (1, 2), (1, 2, 3)])
    def test_optimizer_reaches_it(self, rows, gamma):
        p_opt, _ = maximize_symmetric_probability(
            BellState.B3, gamma, rows, budget=2400, seed=0)
        ceiling = symmetric_ceiling(canonical_kraus(gamma), BellState.B3)
        assert p_opt <= ceiling + 1e-12
        assert abs(p_opt - ceiling) <= 1e-6

    # every state and pattern, the empty one included: the one closed-form
    # mixer is feasible and the core's value of it is the ceiling
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(bell=st.sampled_from(BellState),
           gamma=st.one_of(st.sampled_from(CEILING_GAMMAS + (1 - 1e-16,)),
                           st.floats(0.0, 1.0)),
           rows=st.sets(st.integers(1, 4), max_size=3))
    def test_optimizer_reaches_it_for_every_state(self, bell, gamma, rows):
        p_opt, mixer = maximize_symmetric_probability(bell, gamma, rows)
        ceiling = symmetric_ceiling(canonical_kraus(gamma), bell)
        assert p_opt <= ceiling + 1e-12
        assert abs(p_opt - ceiling) <= 1e-12
        assert linalg.is_unitary(mixer)
        assert all(mixer[row - 1, 1] == 0.0 for row in rows)
        assert np.float64(p_opt).tobytes() == np.float64(
            symmetric_probability(bell, gamma, mixer)).tobytes()
