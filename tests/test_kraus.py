import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bellsym import kraus, linalg
from bellsym.channel import dephase_with_factors
from bellsym.kraus import (
    CompletePositivityError,
    KrausFactors,
    KrausSet,
    apply_kraus,
    canonical_kraus,
    choi_from_factors,
    choi_of_kraus,
    completeness_residual,
    kraus_from_choi,
    mix_kraus,
)
from bellsym.symmetry import BellState, haar_unitary

from conftest import random_density_matrix

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def choi_distance(a, b) -> float:
    """Largest entry of the difference of two sets' Choi matrices: 0 for
    the same channel."""
    return np.max(np.abs(choi_of_kraus(a) - choi_of_kraus(b)))


def choi_oracle(gamma_a, gamma_b):
    """Independent Choi construction: kron over elementwise basis images."""
    bits = [(0, 0), (0, 1), (1, 0), (1, 1)]
    choi = np.zeros((16, 16), dtype=complex)
    for i, (ai, bi) in enumerate(bits):
        for j, (aj, bj) in enumerate(bits):
            factor = (gamma_a if ai != aj else 1.0) * \
                     (gamma_b if bi != bj else 1.0)
            e_ij = np.zeros((4, 4))
            e_ij[i, j] = 1.0
            choi += np.kron(e_ij, factor * e_ij)
    return choi


class TestKrausFactors:
    @pytest.mark.parametrize("gamma", np.linspace(0.0, 1.0, 21))
    def test_identities(self, gamma):
        f = KrausFactors.from_gamma(gamma)
        assert abs(f.omega**2 - (1.0 - gamma**2)) <= 1e-12
        assert f.alpha == gamma - 1.0
        assert f.beta == gamma + 1.0
        # per-slot completeness pre-check of the diagonal factors
        slot_outer = f.omega**2 / 2 + f.alpha**2 / 4 + f.beta**2 / 4
        assert abs(slot_outer - 1.0) <= 1e-12

    @pytest.mark.parametrize("gamma", [-0.1, 1.1, 2.0])
    def test_out_of_range_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            KrausFactors.from_gamma(gamma)


class TestCanonicalSet:
    def test_identity_channel_limit(self, rng):
        kset = canonical_kraus(1.0)
        assert np.allclose(kset.operators[0], 0, atol=0)
        assert np.allclose(kset.operators[1], 0, atol=0)
        assert np.allclose(kset.operators[2], 0, atol=0)
        assert np.allclose(kset.operators[3], np.eye(4), atol=0)
        rho = random_density_matrix(rng)
        assert np.allclose(apply_kraus(kset, rho), rho, atol=1e-15)

    def test_asymptotic_limit_matrices(self):
        kset = canonical_kraus(0.0)
        s = INV_SQRT2
        assert np.allclose(kset.operators[0], np.diag([-s, 0, 0, s]), atol=0)
        assert np.allclose(kset.operators[1], np.diag([0, -s, s, 0]), atol=0)
        assert np.allclose(kset.operators[2], np.diag([-0.5, 0.5, 0.5, -0.5]),
                           atol=0)
        assert np.allclose(kset.operators[3], 0.5 * np.eye(4), atol=0)

    def test_completeness_at_half(self):
        assert canonical_kraus(0.5).completeness_residual() <= 1e-15

    @pytest.mark.parametrize("gamma", np.linspace(0.0, 1.0, 21))
    def test_completeness_on_grid(self, gamma):
        assert canonical_kraus(gamma).completeness_residual() <= 1e-10


class TestKrausSetValidation:
    def test_incomplete_set_rejected(self):
        k1 = canonical_kraus(0.5).operators[0]
        with pytest.raises(ValueError, match="completeness"):
            KrausSet(operators=(k1,))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            KrausSet(operators=())

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_operator_rejected(self, value):
        with pytest.raises(ValueError, match="NaN or an infinite"):
            KrausSet(operators=(np.full((4, 4), value),))

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="4x4"):
            KrausSet(operators=(np.eye(2),))

    def test_operators_are_read_only(self):
        kset = canonical_kraus(0.5)
        with pytest.raises(ValueError):
            kset.operators[0][0, 0] = 1.0

    def test_replace_keeps_validation(self):
        kset = canonical_kraus(0.5)
        reordered = dataclasses.replace(kset, operators=kset.operators[::-1])
        assert reordered.completeness_residual() <= 1e-10
        with pytest.raises(ValueError, match="completeness"):
            dataclasses.replace(kset, operators=kset.operators[:1])


class TestApplyKraus:
    def test_channel_equivalence_on_random_states(self, rng):
        for _ in range(200):
            gamma = rng.uniform(0.0, 1.0)
            rho = random_density_matrix(rng)
            via_kraus = apply_kraus(canonical_kraus(gamma), rho)
            via_channel = dephase_with_factors(rho, gamma, gamma)
            assert np.max(np.abs(via_kraus - via_channel)) <= 1e-12

    def test_single_coherence_scaling(self):
        # entry (1,2) response: (beta^2 - alpha^2)/4 = gamma
        gamma = 0.37
        f = KrausFactors.from_gamma(gamma)
        assert abs((f.beta**2 - f.alpha**2) / 4.0 - gamma) <= 1e-15

    def test_full_decoherence_kills_corners(self):
        rho = BellState.B1.density()
        out = apply_kraus(canonical_kraus(0.0), rho)
        expected = 0.5 * np.diag([1.0, 0, 0, 1.0]).astype(complex)
        assert np.allclose(out, expected, atol=1e-15)

    def test_incomplete_operator_list_rejected(self, rng):
        k1 = canonical_kraus(0.5).operators[0]
        with pytest.raises(ValueError, match="incomplete"):
            apply_kraus([k1], random_density_matrix(rng))


class TestChoi:
    def test_identity_channel_is_rank_one(self):
        choi = choi_from_factors(1.0, 1.0)
        omega = np.zeros(16)
        omega[[0, 5, 10, 15]] = 1.0
        assert np.allclose(choi, np.outer(omega, omega), atol=0)
        vals = np.linalg.eigvalsh(choi)
        assert abs(vals[-1] - 4.0) <= 1e-12
        assert np.all(np.abs(vals[:-1]) <= 1e-12)

    def test_full_decoherence_is_diagonal_rank_four(self):
        choi = choi_from_factors(0.0, 0.0)
        assert np.allclose(choi, np.diag(np.diagonal(choi)), atol=0)
        vals = np.linalg.eigvalsh(choi)
        assert abs(vals.sum() - 4.0) <= 1e-12
        assert np.sum(vals > 1e-12) == 4

    def test_matches_independent_construction(self):
        for ga, gb in [(0.5, 0.5), (0.2, 0.9), (1.0, 0.3)]:
            assert np.allclose(choi_from_factors(ga, gb),
                               choi_oracle(ga, gb), atol=0)

    def test_frozen_entries_at_half(self):
        choi = choi_from_factors(0.5, 0.5)
        assert choi[0, 0] == 1.0 and choi[5, 5] == 1.0
        assert choi[0, 5] == 0.5 and choi[0, 10] == 0.5
        assert choi[0, 15] == 0.25 and choi[5, 10] == 0.25
        assert np.trace(choi) == 4.0

    def test_positive_semidefinite_over_grid(self):
        for gamma in np.arange(0.0, 1.0001, 0.01):
            vals = np.linalg.eigvalsh(choi_from_factors(gamma, gamma))
            assert vals[0] >= -1e-9


class TestKrausFromChoi:
    def test_identity_channel_single_operator(self):
        choi = choi_from_factors(1.0, 1.0)
        kset = kraus_from_choi(choi)
        assert len(kset) == 1
        # phase canonicalization pins the global phase, so exactly identity
        assert np.allclose(kset.operators[0], np.eye(4), atol=1e-12)

    def test_reconstructs_channel_at_half(self, rng):
        kset = kraus_from_choi(choi_from_factors(0.5, 0.5))
        assert len(kset) == 4
        for _ in range(100):
            rho = random_density_matrix(rng)
            expected = dephase_with_factors(rho, 0.5, 0.5)
            assert np.max(np.abs(apply_kraus(kset, rho) - expected)) <= 1e-9

    @pytest.mark.parametrize("gamma", np.linspace(0.0, 1.0, 11))
    def test_round_trip_over_grid(self, rng, gamma):
        kset = kraus_from_choi(choi_from_factors(gamma, gamma))
        assert kset.completeness_residual() <= 1e-10
        for _ in range(20):
            rho = random_density_matrix(rng)
            expected = dephase_with_factors(rho, gamma, gamma)
            assert np.max(np.abs(apply_kraus(kset, rho) - expected)) <= 1e-9

    def test_equivalent_but_not_equal_to_canonical(self):
        extracted = kraus_from_choi(choi_from_factors(0.5, 0.5))
        canonical = canonical_kraus(0.5)
        assert choi_distance(extracted, canonical) <= 1e-10
        elementwise = all(
            np.allclose(a, b, atol=1e-9)
            for a, b in zip(extracted.operators, canonical.operators))
        assert not elementwise

    def test_non_completely_positive_rejected(self):
        # transpose map: Choi is the 16x16 swap, eigenvalues +-1
        swap = np.zeros((16, 16))
        for i in range(4):
            for j in range(4):
                swap[4 * i + j, 4 * j + i] = 1.0
        with pytest.raises(CompletePositivityError):
            kraus_from_choi(swap)

    def test_non_hermitian_rejected(self):
        bad = np.zeros((16, 16), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            kraus_from_choi(bad)


class TestMixKraus:
    def test_identity_mixer_is_noop(self):
        kset = canonical_kraus(0.3)
        mixed = mix_kraus(kset, np.eye(4))
        for a, b in zip(mixed.operators, kset.operators):
            assert np.allclose(a, b, atol=1e-15)

    def test_permutation_mixer_reorders(self):
        kset = canonical_kraus(0.3)
        perm = np.eye(4)[[1, 0, 2, 3]]
        mixed = mix_kraus(kset, perm)
        assert np.allclose(mixed.operators[0], kset.operators[1], atol=0)
        assert np.allclose(mixed.operators[1], kset.operators[0], atol=0)
        assert choi_distance(mixed, kset) <= 1e-12

    def test_random_mixer_preserves_channel_action(self, rng):
        kset = canonical_kraus(0.3)
        mixed = mix_kraus(kset, haar_unitary(rng))
        for _ in range(100):
            rho = random_density_matrix(rng)
            expected = dephase_with_factors(rho, 0.3, 0.3)
            assert np.max(np.abs(apply_kraus(mixed, rho) - expected)) <= 1e-11

    def test_non_unitary_mixer_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            mix_kraus(canonical_kraus(0.5), 2.0 * np.eye(4))

    def test_only_one_4x4_unitary_is_a_mixer(self):
        kset = canonical_kraus(0.5)
        nearly = np.eye(4, dtype=complex)
        nearly[2, 1] = 1e-6
        with pytest.raises(ValueError, match="unitary"):
            mix_kraus(kset, nearly)
        with pytest.raises(ValueError, match="unitary"):
            mix_kraus(kset, np.eye(3))
        with pytest.raises(ValueError, match="square"):
            mix_kraus(kset, np.stack([np.eye(4), np.eye(4)]))

    def test_wrong_set_size_rejected(self):
        single = KrausSet(operators=(np.eye(4),))
        with pytest.raises(ValueError, match="exactly 4"):
            mix_kraus(single, np.eye(4))


class TestSameChannel:
    def test_same_set(self):
        kset = canonical_kraus(0.5)
        assert choi_distance(kset, kset) == 0.0

    def test_mixed_set_is_equal(self, rng):
        kset = canonical_kraus(0.5)
        mixed = mix_kraus(kset, haar_unitary(rng))
        assert choi_distance(kset, mixed) <= 1e-10

    def test_different_gamma_not_equal(self):
        # single-factor Choi entries differ by exactly 0.1
        assert choi_distance(canonical_kraus(0.5), canonical_kraus(0.6)) > 1e-6


def _haar(seed: int) -> np.ndarray:
    return haar_unitary(np.random.default_rng(seed))


def _kraus_set(kind: str, gamma: float, seed: int) -> KrausSet:
    """A canonical set, a Choi-extracted set or a remixed canonical set."""
    if kind == "canonical":
        return canonical_kraus(gamma)
    if kind == "choi":
        return kraus_from_choi(choi_from_factors(gamma, gamma))
    return mix_kraus(canonical_kraus(gamma), _haar(seed))


kraus_sets = st.builds(_kraus_set, st.sampled_from(["canonical", "choi",
                                                    "remixed"]),
                       st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(kset=kraus_sets)
def test_every_kraus_set_is_complete(kset):
    assert kset.completeness_residual() <= 1e-10


@settings(derandomize=True, max_examples=300, deadline=None)
@given(kset=kraus_sets, seed=st.integers(0, 2**32 - 1))
def test_remixing_keeps_the_choi_matrix(kset, seed):
    assume(len(kset) == 4)
    mixed = mix_kraus(kset, _haar(seed))
    assert mixed.completeness_residual() <= 1e-10
    assert np.max(np.abs(choi_of_kraus(mixed) - choi_of_kraus(kset))) <= 1e-10


@settings(derandomize=True, max_examples=200, deadline=None)
@given(kset=kraus_sets, seed=st.integers(0, 2**32 - 1))
def test_stack_expressions_match_per_operator_loops(kset, seed):
    # the sums run in another order, so they agree to a few ulps
    rho = random_density_matrix(np.random.default_rng(seed))
    vecs = [k.T.reshape(16) for k in kset.operators]
    choi = sum(np.outer(v, v.conj()) for v in vecs)
    out = sum(k @ rho @ k.conj().T for k in kset.operators)
    assert np.max(np.abs(choi_of_kraus(kset) - choi)) <= 1e-14
    assert np.max(np.abs(apply_kraus(kset, rho) - out)) <= 1e-14


@settings(derandomize=True, max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_choi_extraction_matches_per_eigenvector_loop(seed):
    # four Haar unitaries over 2 make a complete set that is not diagonal
    rng = np.random.default_rng(seed)
    choi = choi_of_kraus([haar_unitary(rng) / 2 for _ in range(4)])
    vals, vecs = linalg.hermitian_eig(choi)
    loop = [math.sqrt(lam) * v.reshape(4, 4).T
            for lam, v in zip(vals, vecs.T) if lam > kraus.CHOI_EIG_CUTOFF]
    assert kraus_from_choi(choi).operators.tobytes() == \
        np.array(loop).tobytes()


def test_completeness_residual_helper():
    ops = canonical_kraus(0.8).operators
    assert completeness_residual(ops) <= 1e-15
    assert completeness_residual([np.eye(4) * 0.5]) > 0.5
