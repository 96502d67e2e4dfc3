import math

import numpy as np
import pytest

from conftest import eig2_closed_form, kron_loops, random_hermitian

from qwitness.dense import chsh_element, witness_pair
from qwitness.ineq import chsh_optimal_settings
from qwitness.opalg import (
    anticommutator,
    commutator,
    frob_distance,
    hermitian_eigenvalues,
    is_psd,
    kron,
)
from qwitness.qobs import IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(IDENTITY_2, IDENTITY_2), np.eye(4))

    def test_diagonal_product(self):
        assert np.array_equal(kron(PAULI_Z, PAULI_Z), np.diag([1, -1, -1, 1.0]))

    def test_matches_bruteforce_definition(self):
        # Each entry is the single product a[i,j]*b[k,l]; numpy's vectorized
        # complex multiply may contract with FMA while the scalar loop does
        # not, so agreement is to one ulp rather than bitwise.
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(50):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            worst = max(worst, np.max(np.abs(kron(a, b) - kron_loops(a, b))))
        assert worst < 2e-15

    def test_mixed_product_rule(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a, b, c, d = (
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                for _ in range(4)
            )
            lhs = kron(a, b) @ kron(c, d)
            rhs = kron(a @ c, b @ d)
            assert frob_distance(lhs, rhs) < 1e-12


class TestCommutators:
    def test_pauli_anticommutation(self):
        assert np.allclose(anticommutator(PAULI_X, PAULI_X), 2 * IDENTITY_2)
        assert np.allclose(anticommutator(PAULI_X, PAULI_Y), np.zeros((2, 2)))

    def test_anticommutator_definition_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b = random_hermitian(4, rng), random_hermitian(4, rng)
            assert np.array_equal(anticommutator(a, b), a @ b + b @ a)

    def test_anticommutator_symmetric_exactly(self):
        rng = np.random.default_rng(4)
        a, b = random_hermitian(4, rng), random_hermitian(4, rng)
        assert np.array_equal(anticommutator(a, b), anticommutator(b, a))

    def test_pauli_commutator(self):
        assert np.allclose(commutator(PAULI_Z, PAULI_Z), np.zeros((2, 2)))
        assert np.allclose(commutator(PAULI_X, PAULI_Y), 2j * PAULI_Z)

    def test_commutator_antisymmetric_exactly(self):
        rng = np.random.default_rng(5)
        a, b = random_hermitian(4, rng), random_hermitian(4, rng)
        assert np.array_equal(commutator(a, b), -commutator(b, a))

    def test_disjoint_factors_commute(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a, b = random_hermitian(2, rng), random_hermitian(2, rng)
            c = commutator(kron(a, IDENTITY_2), kron(IDENTITY_2, b))
            assert np.linalg.norm(c) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            anticommutator(np.eye(2), np.eye(4))
        with pytest.raises(ValueError):
            commutator(np.eye(2), np.eye(4))


class TestEigenvalues:
    def test_diagonal_case(self):
        res = hermitian_eigenvalues(np.diag([3.0, -1.0, 2.0]).astype(complex))
        assert np.allclose(res.values, [-1.0, 2.0, 3.0])

    def test_pauli_x_spectrum(self):
        res = hermitian_eigenvalues(PAULI_X)
        assert np.allclose(res.values, [-1.0, 1.0])

    def test_closed_form_2x2_oracle(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            h = random_hermitian(2, rng)
            lo, hi = eig2_closed_form(h)
            values = hermitian_eigenvalues(h).values
            worst = max(worst, abs(values[0] - lo), abs(values[1] - hi))
        assert worst < 1e-12

    def test_trace_and_frobenius_invariants(self):
        rng = np.random.default_rng(8)
        for dim in (2, 8, 16, 64):
            h = random_hermitian(dim, rng)
            res = hermitian_eigenvalues(h)
            assert abs(np.sum(res.values) - np.trace(h).real) < 1e-9 * dim
            assert abs(np.sum(res.values**2) - np.linalg.norm(h) ** 2) < 1e-9 * dim
            assert np.all(np.diff(res.values) >= 0)
            assert res.residual < 1e-10 * dim * max(1.0, np.max(np.abs(res.values)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_rejects_oversized(self):
        with pytest.raises(ValueError, match="cap"):
            hermitian_eigenvalues(np.eye(512, dtype=complex))


class TestPsd:
    def test_identity_is_psd(self):
        assert is_psd(np.eye(4, dtype=complex), 1e-10)

    def test_negative_identity_is_not(self):
        assert not is_psd(-np.eye(2, dtype=complex), 1e-10)

    def test_witness_x_construction_is_psd(self):
        x = 2 * np.eye(4) - (kron(PAULI_Z, PAULI_Z) - kron(PAULI_X, PAULI_X))
        assert is_psd(x, 1e-10)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            is_psd(np.eye(2, dtype=complex), -1.0)

    def test_psd_pair_with_non_psd_anticommutator(self):
        # The whole point: PSD X and Y need not have a PSD anticommutator.
        pair = witness_pair(chsh_element(chsh_optimal_settings()))
        assert is_psd(pair.x, 1e-9) and is_psd(pair.y, 1e-9)
        assert not is_psd(anticommutator(pair.x, pair.y), 1e-9)


class TestFrobDistance:
    def test_zero_on_equal(self):
        assert frob_distance(np.eye(3, dtype=complex), np.eye(3, dtype=complex)) == 0.0

    def test_identity_to_zero(self):
        value = frob_distance(np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex))
        assert abs(value - math.sqrt(2.0)) < 1e-15

    def test_single_entry_perturbation(self):
        rng = np.random.default_rng(9)
        a = random_hermitian(3, rng)
        b = a.copy()
        b[0, 0] += 1e-3
        assert abs(frob_distance(a, b) - 1e-3) < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            frob_distance(np.eye(2), np.eye(3))

