import numpy as np
import pytest

from bellsym import linalg
from bellsym.kraus import canonical_kraus
from bellsym.symmetry import unitary_from_generator

from conftest import random_density_matrix, random_hermitian


SIGMA_Z = np.diag([1.0, -1.0])


class TestMatmul:
    def test_identity_leaves_matrix_unchanged(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.array_equal(linalg.matmul(np.eye(4), m), m)

    def test_sigma_z_tensor_product(self):
        za = np.kron(SIGMA_Z, np.eye(2))
        zb = np.kron(np.eye(2), SIGMA_Z)
        expected = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
        assert np.allclose(linalg.matmul(za, zb), expected, atol=0)

    def test_k3_squared_at_full_decoherence(self):
        # K3 at gamma=0 is +-1/2 on the diagonal, so its square is I/4
        k3 = canonical_kraus(0.0).operators[2]
        assert np.allclose(linalg.matmul(k3, k3), 0.25 * np.eye(4), atol=1e-15)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            linalg.matmul(np.eye(2), np.eye(4))

    def test_non_square_raises(self):
        with pytest.raises(ValueError, match="square"):
            linalg.matmul(np.ones((2, 3)), np.ones((3, 2)))


class TestDagger:
    def test_real_diagonal_fixed_point(self):
        m = np.diag([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(linalg.dagger(m), m.astype(complex))

    def test_single_entry(self):
        m = np.array([[0.0, 1j], [0.0, 0.0]])
        expected = np.array([[0.0, 0.0], [-1j, 0.0]])
        assert np.array_equal(linalg.dagger(m), expected)

    def test_involution(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.array_equal(linalg.dagger(linalg.dagger(m)), m)

    def test_product_rule(self, rng):
        for _ in range(1000):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            lhs = linalg.dagger(a @ b)
            rhs = linalg.dagger(b) @ linalg.dagger(a)
            assert linalg.max_abs(lhs - rhs) <= 1e-12

    def test_unitary_inverse(self, rng):
        for _ in range(50):
            u = unitary_from_generator(rng.standard_normal(16), dim=4)
            assert linalg.max_abs(linalg.dagger(u) @ u - np.eye(4)) <= 1e-12


class TestTrace:
    def test_cyclic_property(self, rng):
        for _ in range(1000):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            assert abs(np.trace(a @ b) - np.trace(b @ a)) <= 1e-12


class TestHermitianEig:
    def test_diagonal_matrix(self):
        vals, vecs = linalg.hermitian_eig(np.diag([3.0, 1.0, 2.0, 0.0]))
        assert np.allclose(vals, [3.0, 2.0, 1.0, 0.0], atol=0)
        recon = vecs @ np.diag(vals) @ vecs.conj().T
        assert np.allclose(recon, np.diag([3.0, 1.0, 2.0, 0.0]), atol=1e-12)

    def test_sigma_x_block(self):
        vals, _ = linalg.hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(vals, [1.0, -1.0], atol=1e-12)

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            linalg.hermitian_eig(m)

    @pytest.mark.parametrize("dim", [2, 4, 16])
    def test_reconstruction_properties(self, rng, dim):
        n_cases = 1000 if dim == 4 else 100
        for _ in range(n_cases):
            h = random_hermitian(rng, dim)
            vals, vecs = linalg.hermitian_eig(h)
            assert np.all(np.diff(vals) <= 1e-12)               # descending
            # eigenvalue equation and reconstruction
            assert linalg.max_abs(h @ vecs - vecs * vals) <= 1e-9
            recon = vecs @ np.diag(vals) @ vecs.conj().T
            assert np.linalg.norm(recon - h) <= 1e-9
            # orthonormal eigenvectors
            gram = vecs.conj().T @ vecs
            assert linalg.max_abs(gram - np.eye(dim)) <= 1e-9
            assert abs(vals.sum() - np.trace(h).real) <= 1e-9

    def test_phase_canonicalization(self, rng):
        for _ in range(100):
            h = random_hermitian(rng, 4)
            _, vecs = linalg.hermitian_eig(h)
            for k in range(4):
                pivot = vecs[np.argmax(np.abs(vecs[:, k])), k]
                assert pivot.real > 0
                assert abs(pivot.imag) <= 1e-12 * max(1.0, abs(pivot))


class TestIsUnitary:
    def test_identity(self):
        assert linalg.is_unitary(np.eye(4), 1e-10)

    def test_scaled_identity_fails(self):
        assert not linalg.is_unitary(2.0 * np.eye(4), 1e-10)

    def test_exponential_map(self, rng):
        for _ in range(100):
            u = unitary_from_generator(rng.standard_normal(16), dim=4)
            assert linalg.is_unitary(u, 1e-10)

    def test_stack_needs_every_matrix_unitary(self, rng):
        stack = np.stack([unitary_from_generator(rng.standard_normal(16))
                          for _ in range(5)])
        assert linalg.is_unitary(stack, 1e-10)
        stack[3, 0, 0] += 1e-6
        assert not linalg.is_unitary(stack, 1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            linalg.is_unitary(np.ones((2, 4, 3)))


class TestValidateDensityMatrix:
    def test_accepts_random_density_matrices(self, rng):
        for _ in range(100):
            rho = random_density_matrix(rng)
            out = linalg.validate_density_matrix(rho)
            assert out.dtype == np.complex128

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="4x4"):
            linalg.validate_density_matrix(np.eye(2) / 2)

    def test_rejects_non_hermitian(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            linalg.validate_density_matrix(rho)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            linalg.validate_density_matrix(np.eye(4) / 2)

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([0.7, 0.5, -0.2, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            linalg.validate_density_matrix(rho)
