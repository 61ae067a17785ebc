import math

import numpy as np
import pytest

from bellsym.channel import dephase_with_factors
from bellsym.spinbath import (
    BathSpec,
    decoherence_factor,
    decoherence_series,
    identical_bath,
    random_bath,
    reduced_density,
    validate_central_state,
)
from bellsym.symmetry import BellState, symmetric_probability, haar_unitary

from conftest import random_state_vector


def single_spin_bath(omega=1.0):
    amp = 1.0 / math.sqrt(2.0)
    return BathSpec(
        alphas=np.array([amp], dtype=complex),
        betas=np.array([amp], dtype=complex),
        omegas=np.array([omega]),
    )


class TestBathSpec:
    def test_rejects_unnormalized_spin(self):
        with pytest.raises(ValueError, match="must equal 1"):
            BathSpec(alphas=np.array([1.0 + 0j]), betas=np.array([1.0 + 0j]),
                     omegas=np.array([0.5]))

    def test_rejects_nan_amplitude(self):
        # argmax picks the NaN norm, which must fail the check, not pass it
        amp = 1.0 / math.sqrt(2.0)
        with pytest.raises(ValueError, match="spin 1"):
            BathSpec(alphas=np.array([amp, np.nan]), betas=np.array([amp, amp]),
                     omegas=np.array([0.5, 0.5]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            BathSpec(alphas=np.array([], dtype=complex),
                     betas=np.array([], dtype=complex), omegas=np.array([]))

    def test_rejects_non_finite_omega(self):
        amp = 1.0 / math.sqrt(2.0)
        with pytest.raises(ValueError, match="finite"):
            BathSpec(alphas=np.array([amp + 0j]), betas=np.array([amp + 0j]),
                     omegas=np.array([np.inf]))


class TestDecoherenceFactor:
    def test_exactly_one_at_time_zero(self):
        for seed in range(5):
            bath = random_bath(20, seed=seed, equal_amplitudes=(seed % 2 == 0))
            assert decoherence_factor(bath, 0.0) == 1.0 + 0.0j

    def test_single_spin_cosine(self):
        bath = single_spin_bath(omega=1.0)
        # equal amplitudes reduce each factor to cos(2 omega t)
        assert abs(decoherence_factor(bath, math.pi / 4)) <= 1e-12
        for t in (0.1, 0.7, 2.3):
            r = decoherence_factor(bath, t)
            assert r.real == pytest.approx(math.cos(2.0 * t), abs=1e-12)
            assert r.imag == 0.0

    def test_modulus_bounded_by_one(self):
        for seed in range(20):
            bath = random_bath(20, seed=seed, equal_amplitudes=(seed % 2 == 0))
            for r in decoherence_series(bath, np.linspace(0.0, 50.0, 101)):
                assert abs(r) <= 1.0

    def test_large_bath_decoheres(self):
        bath = random_bath(20, seed=99, equal_amplitudes=True)
        values = np.abs(decoherence_series(bath, np.linspace(5.0, 50.0, 200)))
        assert values.min() < 0.05

    def test_product_is_order_independent(self, rng):
        bath = random_bath(15, seed=42, equal_amplitudes=False)
        perm = rng.permutation(15)
        shuffled = BathSpec(alphas=bath.alphas[perm], betas=bath.betas[perm],
                            omegas=bath.omegas[perm])
        for t in (0.3, 1.7, 9.2):
            assert abs(decoherence_factor(bath, t)
                       - decoherence_factor(shuffled, t)) <= 1e-13

    def test_equal_amplitudes_give_real_factor(self):
        bath = random_bath(20, seed=7, equal_amplitudes=True)
        for r in decoherence_series(bath, np.linspace(0.0, 20.0, 50)):
            assert abs(r.imag) <= 1e-13

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            decoherence_factor(single_spin_bath(), -1.0)

    @pytest.mark.parametrize("times", [np.nan, [0.0, np.nan], [1.0, -0.5]])
    def test_nan_or_negative_time_in_grid_rejected(self, times):
        with pytest.raises(ValueError, match=">= 0"):
            decoherence_factor(single_spin_bath(), times)

    @pytest.mark.parametrize("times", [np.inf, [0.0, np.inf]])
    def test_infinite_time_rejected(self, times):
        with pytest.raises(ValueError, match="finite"):
            decoherence_factor(single_spin_bath(), times)

    @pytest.mark.parametrize("equal", [True, False])
    def test_grid_is_bitwise_per_time_values(self, equal):
        bath = random_bath(12, seed=21, equal_amplitudes=equal)
        times = np.concatenate([[0.0], np.linspace(0.0, 40.0, 59), [1e-9]])
        grid = decoherence_factor(bath, times)
        singles = np.array([decoherence_factor(bath, float(t)) for t in times])
        assert grid.shape == times.shape and grid[0] == 1.0
        assert grid.tobytes() == singles.tobytes()
        square = decoherence_factor(bath, times[:-1].reshape(6, 10))
        assert square.tobytes() == grid[:-1].tobytes()

    def test_matches_scalar_loop_reference(self, rng):
        # amplitudes normalized up to 4e-13 make |r| overshoot 1, so the
        # rescaling is exercised too
        rescaled = 0
        for k in range(1, 9):
            w = rng.uniform(0.0, 1.0, k)
            bath = BathSpec(
                alphas=np.sqrt(w) * np.exp(2j * np.pi * rng.uniform(size=k))
                * (1 + 4e-13),
                betas=np.sqrt(1 - w) * np.exp(2j * np.pi * rng.uniform(size=k))
                * (1 + 4e-13),
                omegas=rng.uniform(0.0, 1.0, k))
            times = np.concatenate([[0.0], rng.uniform(0.0, 1e-8, 200),
                                    rng.uniform(0.0, 5.0, 40)])
            expected = []
            for t in times:
                value = 1.0 + 0.0j
                if t > 0.0:
                    phases = np.exp(-2j * bath.omegas * t)
                    value = complex(np.prod(
                        np.abs(bath.alphas) ** 2 * phases
                        + np.abs(bath.betas) ** 2 * phases.conj()))
                    if abs(value) > 1.0:
                        value /= abs(value)
                        rescaled += 1
                expected.append(value)
            got = decoherence_factor(bath, times)
            assert got.tobytes() == np.array(expected).tobytes()
        assert rescaled > 0

    def test_series_matches_scalar(self):
        bath = random_bath(10, seed=3, equal_amplitudes=False)
        times = np.linspace(0.0, 5.0, 11)
        series = decoherence_series(bath, times)
        for t, r in zip(times, series):
            assert r == decoherence_factor(bath, float(t))


class TestReducedDensity:
    def test_time_zero_is_projector(self, rng):
        psi0 = random_state_vector(rng)
        bath_a, bath_b = identical_bath(random_bath(8, seed=1,
                                                    equal_amplitudes=False))
        rho = reduced_density(bath_a, bath_b, psi0, 0.0)
        assert np.array_equal(rho, np.outer(psi0, psi0.conj()))

    def test_matches_classical_channel_for_real_factor(self, rng):
        bath_a, bath_b = identical_bath(random_bath(20, seed=5,
                                                    equal_amplitudes=True))
        for t in np.linspace(0.0, 10.0, 25):
            r = decoherence_factor(bath_a, float(t))
            assert r.imag == 0.0
            for _ in range(4):
                psi0 = random_state_vector(rng)
                rho = reduced_density(bath_a, bath_b, psi0, float(t))
                expected = dephase_with_factors(
                    np.outer(psi0, psi0.conj()), r.real, r.real)
                assert np.max(np.abs(rho - expected)) <= 1e-12

    def test_central_bell_state_pattern(self):
        bath_a, bath_b = identical_bath(random_bath(6, seed=8,
                                                    equal_amplitudes=False))
        psi0 = BellState.B3.vector
        t = 1.3
        r = decoherence_factor(bath_a, t)
        rho = reduced_density(bath_a, bath_b, psi0, t)
        rho0 = BellState.B3.density()
        # populations untouched, central coherence scaled by |r|^2
        assert rho[1, 1] == rho0[1, 1] and rho[2, 2] == rho0[2, 2]
        assert rho[1, 2] == pytest.approx(rho0[1, 2] * r * np.conj(r),
                                          abs=1e-15)

    def test_corner_entry_uses_r_squared(self):
        bath_a, bath_b = identical_bath(random_bath(6, seed=9,
                                                    equal_amplitudes=False))
        psi0 = BellState.B1.vector
        t = 0.9
        r = decoherence_factor(bath_a, t)
        rho = reduced_density(bath_a, bath_b, psi0, t)
        assert rho[0, 3] == pytest.approx(0.5 * r * r, abs=1e-15)
        assert rho[3, 0] == pytest.approx(0.5 * np.conj(r) ** 2, abs=1e-15)

    def test_diagonal_preserved_for_any_baths(self, rng):
        bath_a = random_bath(5, seed=10, equal_amplitudes=False)
        bath_b = random_bath(9, seed=11, equal_amplitudes=True)
        psi0 = random_state_vector(rng)
        rho0 = np.outer(psi0, psi0.conj())
        for t in (0.2, 1.1, 4.4):
            rho = reduced_density(bath_a, bath_b, psi0, t)
            assert np.array_equal(np.diagonal(rho), np.diagonal(rho0))

    def test_distinct_baths_use_both_factors(self, rng):
        bath_a = random_bath(5, seed=10, equal_amplitudes=False)
        bath_b = random_bath(5, seed=11, equal_amplitudes=False)
        psi0 = random_state_vector(rng)
        t = 0.8
        r1 = decoherence_factor(bath_a, t)
        r2 = decoherence_factor(bath_b, t)
        rho0 = np.outer(psi0, psi0.conj())
        rho = reduced_density(bath_a, bath_b, psi0, t)
        assert rho[0, 1] == pytest.approx(rho0[0, 1] * r2, abs=1e-15)
        assert rho[0, 2] == pytest.approx(rho0[0, 2] * r1, abs=1e-15)
        assert rho[1, 2] == pytest.approx(rho0[1, 2] * r1 * np.conj(r2),
                                          abs=1e-15)
        assert rho[0, 3] == pytest.approx(rho0[0, 3] * r1 * r2, abs=1e-15)

    @pytest.mark.parametrize("bell", list(BellState))
    def test_grid_is_bitwise_per_time_states(self, bell):
        bath_a = random_bath(7, seed=30, equal_amplitudes=False)
        bath_b = random_bath(4, seed=31, equal_amplitudes=True)
        times = np.concatenate([[0.0], np.linspace(0.0, 9.0, 23)])
        for pair in ((bath_a, bath_b), (bath_b, bath_a), (bath_a, bath_a)):
            grid = reduced_density(*pair, bell.vector, times)
            singles = np.stack([reduced_density(*pair, bell.vector, float(t))
                                for t in times])
            assert grid.shape == (times.size, 4, 4)
            assert grid.tobytes() == singles.tobytes()
            assert np.array_equal(grid[0], bell.density())

    def test_rejects_unnormalized_central_state(self):
        bath_a, bath_b = identical_bath(single_spin_bath())
        with pytest.raises(ValueError, match="norm"):
            reduced_density(bath_a, bath_b, np.array([1.0, 1.0, 0, 0]), 1.0)


class TestIdenticalBath:
    def test_copies_share_parameters(self):
        bath = random_bath(5, seed=2, equal_amplitudes=False)
        bath_a, bath_b = identical_bath(bath)
        assert np.array_equal(bath_a.alphas, bath_b.alphas)
        assert np.array_equal(bath_a.betas, bath_b.betas)
        assert np.array_equal(bath_a.omegas, bath_b.omegas)
        for t in np.linspace(0.0, 5.0, 11):
            assert decoherence_factor(bath_a, float(t)) == \
                decoherence_factor(bath_b, float(t))

    def test_distinct_baths_differ_generically(self):
        bath_a = random_bath(5, seed=2, equal_amplitudes=False)
        bath_b = random_bath(5, seed=3, equal_amplitudes=False)
        diffs = [abs(decoherence_factor(bath_a, t) - decoherence_factor(bath_b, t))
                 for t in (0.5, 1.0, 2.0)]
        assert max(diffs) > 1e-3


class TestRandomBath:
    def test_single_equal_amplitude_spin(self):
        bath = random_bath(1, seed=0, equal_amplitudes=True)
        amp = 1.0 / math.sqrt(2.0)
        assert bath.alphas[0] == amp and bath.betas[0] == amp
        assert 0.0 <= bath.omegas[0] <= 1.0

    def test_normalization_invariant(self):
        bath = random_bath(100, seed=1, equal_amplitudes=False)
        norms = np.abs(bath.alphas)**2 + np.abs(bath.betas)**2
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_omega_range_respected(self):
        bath = random_bath(50, seed=4, equal_amplitudes=True,
                           omega_range=(2.0, 3.0))
        assert np.all(bath.omegas >= 2.0) and np.all(bath.omegas <= 3.0)

    def test_rejects_zero_spins(self):
        with pytest.raises(ValueError, match="n_spins"):
            random_bath(0, seed=0, equal_amplitudes=True)

    def test_deterministic_per_seed(self):
        b1 = random_bath(10, seed=5, equal_amplitudes=False)
        b2 = random_bath(10, seed=5, equal_amplitudes=False)
        assert np.array_equal(b1.alphas, b2.alphas)
        assert np.array_equal(b1.omegas, b2.omegas)


class TestSymmetryTransfer:
    def test_corner_states_keep_unit_probability(self):
        # any real decoherence factor in [0, 1] feeds straight into the
        # mixer analysis as the dephasing parameter
        bath, _ = identical_bath(random_bath(20, seed=5,
                                             equal_amplitudes=True))
        mixer = haar_unitary(np.random.default_rng(17))
        checked = 0
        for t in np.linspace(0.0, 10.0, 40):
            r = decoherence_factor(bath, float(t))
            if not 0.0 <= r.real <= 1.0:
                continue
            checked += 1
            for bell in (BellState.B1, BellState.B2):
                assert abs(symmetric_probability(bell, r.real, mixer) - 1.0) \
                    <= 1e-10
        assert checked > 10

    def test_decohered_bath_realizes_asymptotic_channel(self, rng):
        bath_a, bath_b = identical_bath(random_bath(20, seed=99,
                                                    equal_amplitudes=True))
        times = np.linspace(5.0, 50.0, 400)
        mags = np.abs(decoherence_series(bath_a, times))
        idx = int(np.argmin(mags))
        assert mags[idx] < 1e-6
        t_dec = float(times[idx])
        psi0 = BellState.B3.vector
        rho = reduced_density(bath_a, bath_b, psi0, t_dec)
        fully_decohered = dephase_with_factors(BellState.B3.density(), 0.0, 0.0)
        assert np.max(np.abs(rho - fully_decohered)) <= 1e-6


def test_validate_central_state_shape():
    with pytest.raises(ValueError, match="4 amplitudes"):
        validate_central_state(np.array([1.0, 0.0]))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_validate_central_state_rejects_non_finite(value):
    with pytest.raises(ValueError, match="norm"):
        validate_central_state(np.array([value, 0.0, 0.0, 0.0]))
