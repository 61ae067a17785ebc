import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellsym import symmetry
from bellsym.channel import dephase_with_factors
from bellsym.kraus import KrausFactors
from bellsym.symmetry import (
    BellState,
    ConstraintPattern,
    SymmetryClass,
    asymptotic_symmetric_probability,
    brute_force_symmetry_scan,
    expi_hermitian,
    feasible_params_dim,
    feasible_symmetry_scan,
    feasible_unitary,
    haar_unitary,
    hermitian_from_params,
    is_exchange_symmetric,
    maximize_symmetric_probability,
    outcome_analysis,
    sample_feasible_unitary,
    swap_operator,
    symmetric_probability,
)
from bellsym.rng import FEASIBLE_SCAN, HAAR_SCAN, derived_rng

from conftest import assert_valid_for_schema, random_hermitian

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

    def test_hermitian_from_params(self, rng):
        theta = rng.standard_normal(16)
        h = hermitian_from_params(theta, 4)
        assert np.max(np.abs(h - h.conj().T)) == 0
        with pytest.raises(ValueError, match="parameters"):
            hermitian_from_params(theta[:5], 4)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_hermitian_from_params_matches_loop_reference(self, rng, dim):
        theta = rng.standard_normal(dim * dim)
        theta[::3] = 0.0
        expected = np.diag(theta[:dim]).astype(complex)
        k = dim
        for i in range(dim):
            for j in range(i + 1, dim):
                expected[i, j] = theta[k] + 1j * theta[k + 1]
                expected[j, i] = np.conj(expected[i, j])
                k += 2
        got = hermitian_from_params(theta, dim)
        assert got.tobytes() == expected.tobytes()

    def test_expi_hermitian_unitary(self, rng):
        h = random_hermitian(rng, 4)
        u = expi_hermitian(h)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12

    @pytest.mark.parametrize("rows", [(), (1,), (2, 4), (1, 2, 3)])
    def test_feasible_unitary_construction(self, rng, rows):
        pattern = ConstraintPattern.from_rows(rows)
        ndim = feasible_params_dim(pattern)
        for _ in range(50):
            u = feasible_unitary(pattern, rng.standard_normal(ndim))
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12
            for row in rows:
                assert u[row - 1, 1] == 0.0      # exact zeros by construction

    def test_feasible_unitary_param_count(self):
        pattern = ConstraintPattern.from_rows([1])
        with pytest.raises(ValueError, match="parameters"):
            feasible_unitary(pattern, np.zeros(3))

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

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            maximize_symmetric_probability(BellState.B3, 0.0, (1,), budget=0)


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
