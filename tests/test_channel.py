import tracemalloc

import numpy as np
import pytest

from bellsym import channel, rng as rng_module
from bellsym.channel import (
    ChannelParams,
    NoiseTrajectoryConfig,
    apply_dephasing,
    attenuation_pattern,
    dephase_with_factors,
    gamma_factor,
    monte_carlo_dephasing,
)
from bellsym.rng import TRAJECTORY, derived_rng
from bellsym.symmetry import BellState

from conftest import random_density_matrix


def bit_pattern_oracle(gamma_a, gamma_b):
    """Independent construction of the attenuation factors from basis bits."""
    bits = [(0, 0), (0, 1), (1, 0), (1, 1)]
    out = np.ones((4, 4))
    for i, (a_i, b_i) in enumerate(bits):
        for j, (a_j, b_j) in enumerate(bits):
            if a_i != a_j:
                out[i, j] *= gamma_a
            if b_i != b_j:
                out[i, j] *= gamma_b
    return out


class TestGammaFactor:
    def test_no_evolution(self):
        assert gamma_factor(1.0, 0.0) == 1.0

    def test_direct_evaluation(self):
        # exp(-t*Gamma/2) at Gamma=2, t=1
        assert gamma_factor(2.0, 1.0) == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_asymptotic_limit(self):
        assert 0.0 < gamma_factor(1.0, 100.0) < 1e-20

    @pytest.mark.parametrize("rate,time", [
        (-1.0, 1.0), (1.0, -2.0), (np.nan, 1.0), (1.0, np.nan),
        # -0 * inf is NaN, so an infinite rate at t = 0 must not pass
        pytest.param(np.inf, 0.0, id="inf-0.0"),
        pytest.param(1.0, np.inf, id="1.0-inf"),
        pytest.param(np.inf, np.array([0.0, 1.0]), id="inf-grid"),
        pytest.param(1.0, np.array([0.0, np.nan]), id="1.0-grid_nan"),
        pytest.param(1.0, np.array([0.0, np.inf]), id="1.0-grid_inf"),
        pytest.param(1.0, np.array([1.0, -2.0]), id="1.0-grid_negative"),
    ])
    def test_negative_inputs_raise(self, rate, time):
        with pytest.raises(ValueError):
            gamma_factor(rate, time)

    @pytest.mark.parametrize("rate", [0.0, 5e-324, 0.7, 2.1, 1e300])
    def test_grid_matches_per_time_calls(self, rate):
        times = np.concatenate(([0.0], np.linspace(1e-3, 40.0, 100)))
        grid = gamma_factor(rate, times)
        singles = np.array([gamma_factor(rate, float(t)) for t in times])
        assert grid.shape == times.shape
        assert grid.tobytes() == singles.tobytes()
        assert grid[0] == 1.0
        square = gamma_factor(rate, times[1:].reshape(20, 5))
        assert square.tobytes() == grid[1:].tobytes()

    def test_overflowing_product_is_silent(self):
        # -t * rate overflows to -inf; exp of it is an exact 0, no warning
        assert gamma_factor(1e300, 1e300) == 0.0
        assert np.array_equal(gamma_factor(1e300, np.array([0.0, 1e300])),
                              [1.0, 0.0])


class TestChannelParams:
    @pytest.mark.parametrize("kwargs", [
        {"gamma_rate_a": -1.0, "gamma_rate_b": 1.0, "time": 1.0},
        {"gamma_rate_a": 1.0, "gamma_rate_b": np.nan, "time": 1.0},
        {"gamma_rate_a": 1.0, "gamma_rate_b": 1.0, "time": -0.5},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ChannelParams(**kwargs)


class TestApplyDephasing:
    def test_time_zero_is_identity(self, rng):
        rho = random_density_matrix(rng)
        params = ChannelParams.identical_rates(3.0, 0.0)
        assert np.array_equal(apply_dephasing(rho, params), rho)

    def test_corner_state_half_decohered(self):
        # both corners pick up gamma^2 = 0.25; populations untouched
        rho = BellState.B1.density()
        out = dephase_with_factors(rho, 0.5, 0.5)
        expected = np.array([
            [0.5, 0, 0, 0.125],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [0.125, 0, 0, 0.5],
        ], dtype=complex)
        assert np.allclose(out, expected, atol=1e-15)

    def test_central_state_scaling(self):
        rho = BellState.B3.density()
        for g in (0.0, 0.3, 1.0):
            out = dephase_with_factors(rho, g, g)
            # populations bitwise untouched, central coherence scaled by g^2
            assert out[1, 1] == rho[1, 1] and out[2, 2] == rho[2, 2]
            assert out[1, 2] == pytest.approx(0.5 * g * g, abs=1e-15)

    def test_distinct_rates_match_bit_oracle(self, rng):
        params = ChannelParams(gamma_rate_a=0.7, gamma_rate_b=2.1, time=1.3)
        expected = bit_pattern_oracle(params.gamma_a, params.gamma_b)
        assert np.allclose(attenuation_pattern(params.gamma_a, params.gamma_b),
                           expected, atol=0)
        rho = random_density_matrix(rng)
        assert np.allclose(apply_dephasing(rho, params), expected * rho, atol=0)

    def test_rejects_invalid_density_matrix(self):
        params = ChannelParams.identical_rates(1.0, 1.0)
        with pytest.raises(ValueError):
            apply_dephasing(np.eye(4), params)

    def test_rejects_out_of_range_factor(self, rng):
        rho = random_density_matrix(rng)
        with pytest.raises(ValueError):
            dephase_with_factors(rho, 1.5, 0.5)

    def test_factor_grid_matches_per_factor_calls(self, rng):
        rho = random_density_matrix(rng)
        ga = np.array([1.0, 0.9, 0.5, 0.0, -0.3, 0.123456789])
        gb = np.array([1.0, 0.2, 0.5, 0.7, -0.8, 0.987654321])
        grid = dephase_with_factors(rho, ga, gb)
        singles = np.stack([dephase_with_factors(rho, float(a), float(b))
                            for a, b in zip(ga, gb)])
        assert grid.shape == (6, 4, 4)
        assert grid.tobytes() == singles.tobytes()
        assert np.array_equal(grid[0], rho)
        patterns = attenuation_pattern(ga, gb)
        assert patterns.tobytes() == np.stack(
            [bit_pattern_oracle(a, b) for a, b in zip(ga, gb)]).tobytes()

    def test_factor_grid_validated_entrywise(self, rng):
        rho = random_density_matrix(rng)
        with pytest.raises(ValueError, match="gamma_b"):
            dephase_with_factors(rho, np.array([0.5, 0.5]),
                                 np.array([0.5, np.nan]))

    def test_time_grid_matches_apply_dephasing(self, rng):
        rho = random_density_matrix(rng)
        times = np.array([0.0, 0.25, 1.0, 3.5])
        grid = dephase_with_factors(rho, gamma_factor(0.7, times),
                                    gamma_factor(2.1, times))
        singles = np.stack([apply_dephasing(rho, ChannelParams(0.7, 2.1, t))
                            for t in times])
        assert grid.tobytes() == singles.tobytes()

    def test_negative_factor_allowed(self, rng):
        # real decoherence factors from a quantum bath may be negative
        rho = random_density_matrix(rng)
        out = dephase_with_factors(rho, -0.8, -0.8)
        assert abs(np.trace(out) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(out)[0] >= -1e-10


class TestChannelProperties:
    def test_trace_and_positivity(self, rng):
        for _ in range(1000):
            rho = random_density_matrix(rng)
            params = ChannelParams(rng.uniform(0, 3), rng.uniform(0, 3),
                                   rng.uniform(0, 5))
            out = apply_dephasing(rho, params)
            assert abs(np.trace(out) - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(out)[0] >= -1e-10

    def test_monotone_offdiagonal_decay(self, rng):
        for _ in range(100):
            rho = random_density_matrix(rng)
            rate = rng.uniform(0.1, 2.0)
            t1 = rng.uniform(0.0, 2.0)
            t2 = t1 + rng.uniform(0.01, 2.0)
            out1 = apply_dephasing(rho, ChannelParams.identical_rates(rate, t1))
            out2 = apply_dephasing(rho, ChannelParams.identical_rates(rate, t2))
            off = ~np.eye(4, dtype=bool)
            assert np.all(np.abs(out2[off]) <= np.abs(out1[off]))

    def test_composition_semigroup(self, rng):
        for _ in range(200):
            rho = random_density_matrix(rng)
            rate = rng.uniform(0.1, 2.0)
            t1, t2 = rng.uniform(0.1, 2.0, size=2)
            step1 = apply_dephasing(rho, ChannelParams.identical_rates(rate, t1))
            step2 = apply_dephasing(step1, ChannelParams.identical_rates(rate, t2))
            direct = apply_dephasing(
                rho, ChannelParams.identical_rates(rate, t1 + t2))
            assert np.max(np.abs(step2 - direct)) <= 1e-12


class TestMonteCarlo:
    def test_time_zero_exact(self, rng):
        rho = random_density_matrix(rng)
        params = ChannelParams.identical_rates(1.0, 0.0)
        cfg = NoiseTrajectoryConfig(n_trajectories=10, dt=0.1, seed=1)
        est, stderr = monte_carlo_dephasing(rho, params, cfg)
        assert np.array_equal(est, rho)
        assert stderr == 0.0

    def test_diagonal_state_is_fixed(self):
        rho = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        params = ChannelParams.identical_rates(2.0, 1.5)
        cfg = NoiseTrajectoryConfig(n_trajectories=500, dt=0.05, seed=7)
        est, stderr = monte_carlo_dephasing(rho, params, cfg)
        # dephasing phases cancel exactly on the diagonal
        assert np.max(np.abs(est - rho)) <= 1e-12
        assert stderr <= 1e-12

    def test_corner_entry_matches_analytic(self):
        rho = BellState.B1.density()
        params = ChannelParams.identical_rates(1.0, 1.0)
        cfg = NoiseTrajectoryConfig(n_trajectories=5000, dt=0.01, seed=11)
        est, stderr = monte_carlo_dephasing(rho, params, cfg)
        assert 0 < stderr < 0.05
        # corner scales by gamma^2 = e^{-1}
        assert abs(abs(est[0, 3]) - 0.5 * np.exp(-1.0)) <= 3 * stderr

    def test_full_state_within_stderr(self):
        rho = BellState.B1.density()
        params = ChannelParams.identical_rates(1.0, 1.0)
        cfg = NoiseTrajectoryConfig(n_trajectories=20000, dt=0.01, seed=3)
        est, stderr = monte_carlo_dephasing(rho, params, cfg)
        analytic = apply_dephasing(rho, params)
        dev = np.maximum(np.abs((est - analytic).real),
                         np.abs((est - analytic).imag))
        assert np.max(dev) <= 4 * stderr

    def test_zero_trajectories_rejected(self):
        with pytest.raises(ValueError, match="n_trajectories"):
            NoiseTrajectoryConfig(n_trajectories=0, dt=0.1, seed=0)

    @pytest.mark.parametrize("seed,n", [(-1, 2), (2**64, 2), (0, 2**56 + 1)])
    def test_seed_and_count_checked_as_derived_rng_checks_them(self, seed, n):
        # the last trajectory of n = 2^56 + 1 has index 2^56
        with pytest.raises(ValueError) as derived:
            derived_rng(seed, TRAJECTORY, n - 1)
        with pytest.raises(ValueError) as config:
            NoiseTrajectoryConfig(n_trajectories=n, dt=0.1, seed=seed)
        assert str(config.value) == str(derived.value)

    @pytest.mark.parametrize("dt", [np.inf, np.nan, -np.inf])
    def test_non_finite_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt must be finite"):
            NoiseTrajectoryConfig(n_trajectories=2, dt=dt, seed=0)

    def test_seed_determinism(self, rng):
        rho = random_density_matrix(rng)
        params = ChannelParams.identical_rates(1.0, 0.7)
        cfg = NoiseTrajectoryConfig(n_trajectories=200, dt=0.05, seed=99)
        est1, err1 = monte_carlo_dephasing(rho, params, cfg)
        est2, err2 = monte_carlo_dephasing(rho, params, cfg)
        assert np.array_equal(est1, est2) and err1 == err2
        other = NoiseTrajectoryConfig(n_trajectories=200, dt=0.05, seed=100)
        est3, _ = monte_carlo_dephasing(rho, params, other)
        assert not np.array_equal(est1, est3)

    def test_mu_is_a_passthrough(self, rng):
        # the phase variance Gamma*t is independent of the gyromagnetic ratio;
        # with mu = 2 the scalings cancel exactly in floating point
        rho = random_density_matrix(rng)
        params = ChannelParams.identical_rates(1.3, 0.9)
        base = NoiseTrajectoryConfig(n_trajectories=100, dt=0.05, seed=5)
        scaled = NoiseTrajectoryConfig(n_trajectories=100, dt=0.05, seed=5,
                                       mu=2.0)
        est1, _ = monte_carlo_dephasing(rho, params, base)
        est2, _ = monte_carlo_dephasing(rho, params, scaled)
        assert np.array_equal(est1, est2)

    @pytest.mark.parametrize("mu", [3.0, 1e300, 1e-300, 5e-324, -3.0,
                                    -1e300, -5e-324])
    def test_mu_of_any_magnitude_matches_unit_mu(self, mu):
        # mu^2 would overflow or underflow here; only the sign of mu counts
        rho = BellState.B1.density()
        params = ChannelParams.identical_rates(1.0, 1.0)
        unit = NoiseTrajectoryConfig(n_trajectories=4, dt=0.5, seed=0,
                                     mu=np.sign(mu))
        cfg = NoiseTrajectoryConfig(n_trajectories=4, dt=0.5, seed=0, mu=mu)
        est, err = monte_carlo_dephasing(rho, params, cfg)
        expected, expected_err = monte_carlo_dephasing(rho, params, unit)
        assert est.tobytes() == expected.tobytes() and err == expected_err

    def test_overflowing_rate_times_time_is_silent(self):
        # rate * time overflows; its root does not, and gamma is exactly 0
        params = ChannelParams.identical_rates(1e308, 1e10)
        cfg = NoiseTrajectoryConfig(n_trajectories=4, dt=0.01, seed=0)
        est, err = monte_carlo_dephasing(BellState.B1.density(), params, cfg)
        assert np.all(np.isfinite(est)) and np.isfinite(err)

    def test_phase_spread_cap(self):
        # phases of spread sqrt(rate * time) = 1e300 stay finite and
        # silent; a spread above 1e300 is refused before any draw
        rho = BellState.B1.density()
        cfg = NoiseTrajectoryConfig(n_trajectories=4, dt=1e289, seed=0)
        est, err = monte_carlo_dephasing(rho, ChannelParams(1e308, 0.0, 1e292),
                                         cfg)
        assert np.all(np.isfinite(est)) and np.isfinite(err)
        with pytest.raises(ValueError, match=r"rate \* time"):
            monte_carlo_dephasing(rho, ChannelParams(0.0, 1e308, 1e293), cfg)

    def test_memory_is_16_bytes_per_trajectory(self):
        n = 200_000
        params = ChannelParams.identical_rates(1.0, 1.0)
        cfg = NoiseTrajectoryConfig(n_trajectories=n, dt=0.01, seed=0)
        rho = BellState.B1.density()
        tracemalloc.start()
        try:
            monte_carlo_dephasing(rho, params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * n + 2 * 2**20


def assert_equals_loop_reference(rho0, params, cfg):
    est, err = monte_carlo_dephasing(rho0, params, cfg)
    ref, ref_err = loop_reference(rho0, params, cfg)
    assert est.tobytes() == ref.tobytes()
    assert np.float64(err).tobytes() == np.float64(ref_err).tobytes()


def loop_reference(rho0, params, cfg):
    """Monte Carlo one trajectory at a time, then numpy's mean and std."""
    rates = np.array([params.gamma_rate_a, params.gamma_rate_b])
    sd = np.copysign(np.sqrt(rates) * np.sqrt(params.time), cfg.mu)
    phases = np.empty((cfg.n_trajectories, 2))
    for i in range(cfg.n_trajectories):
        phases[i] = sd * derived_rng(cfg.seed, TRAJECTORY,
                                     i).standard_normal(2)
    sign_a = np.array([1.0, 1.0, -1.0, -1.0])
    sign_b = np.array([1.0, -1.0, 1.0, -1.0])
    angle = 0.5 * (np.outer(phases[:, 0], sign_a)
                   + np.outer(phases[:, 1], sign_b))
    u = np.exp(1j * angle)
    samples = (u[:, :, None] * u[:, None, :].conj()) * rho0[None, :, :]
    n = cfg.n_trajectories
    if n == 1:
        return samples.mean(axis=0), float("inf")
    sem_real = samples.real.std(axis=0, ddof=1) / np.sqrt(n)
    sem_imag = samples.imag.std(axis=0, ddof=1) / np.sqrt(n)
    return samples.mean(axis=0), float(max(sem_real.max(), sem_imag.max()))


class TestMonteCarloChunks:
    @pytest.mark.parametrize("rows", [1, 7, None])
    @pytest.mark.parametrize("state", list(BellState))
    def test_chunked_equals_loop_reference(self, monkeypatch, rows, state):
        if rows is not None:
            monkeypatch.setattr(channel, "MC_CHUNK_DOUBLES",
                                rows * channel._TRAJECTORY_DOUBLES)
        else:
            rows = channel.MC_CHUNK_DOUBLES // channel._TRAJECTORY_DOUBLES
        rho = state.density()
        params = ChannelParams(0.7, 2.3, 1.0)
        for n in sorted({1, 2, max(1, rows - 1), rows + 1}):
            for mu in (1.0, -2.5):
                assert_equals_loop_reference(
                    rho, params, NoiseTrajectoryConfig(n, 0.05, seed=n, mu=mu))

    @pytest.mark.parametrize("rows,block", [(1, 8), (7, 56), (None, None)])
    def test_draw_block_edges_equal_loop_reference(self, monkeypatch, rows,
                                                   block):
        # phases are drawn in passes of rng._KERNEL_ROWS trajectories,
        # independent of the chunks of the two reductions
        if rows is not None:
            monkeypatch.setattr(channel, "MC_CHUNK_DOUBLES",
                                rows * channel._TRAJECTORY_DOUBLES)
            monkeypatch.setattr(rng_module, "_KERNEL_ROWS", block)
        block = rng_module._KERNEL_ROWS
        rho = BellState.B3.density()
        params = ChannelParams(0.7, 2.3, 1.0)
        for n in (block - 1, block, block + 1):
            for mu in (1.0, -2.5):
                assert_equals_loop_reference(
                    rho, params, NoiseTrajectoryConfig(n, 0.05, seed=n, mu=mu))

    def test_random_state_equals_loop_reference(self, monkeypatch, rng):
        monkeypatch.setattr(channel, "MC_CHUNK_DOUBLES",
                            3 * channel._TRAJECTORY_DOUBLES)
        rho = random_density_matrix(rng)
        params = ChannelParams(0.0, 1.9, 2.0)
        cfg = NoiseTrajectoryConfig(50, 0.4, seed=3)
        est, err = monte_carlo_dephasing(rho, params, cfg)
        ref, ref_err = loop_reference(rho, params, cfg)
        assert est.tobytes() == ref.tobytes() and err == ref_err
