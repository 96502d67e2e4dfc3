import numpy as np
import pytest

from conftest import SQRT2, random_hermitian, random_settings

from qwitness.dense import bloch_observable, embed, group_observable, parity_projector
from qwitness.opalg import commutator, frob_norm, hermitian_eigenvalues, kron
from qwitness.qobs import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    BlochVector,
    Grouping,
    NoisyGhz,
    ProductState,
    SettingsTable,
    expectation,
    ghz_state,
    maximally_mixed,
    noisy_mixture,
    product_state,
)


class TestBlochObservable:
    def test_z_axis(self):
        assert np.array_equal(bloch_observable(BlochVector(0, 0, 1)), np.diag([1, -1.0]))

    def test_x_axis(self):
        assert np.array_equal(
            bloch_observable(BlochVector(1, 0, 0)), np.array([[0, 1], [1, 0.0]])
        )

    def test_tilted_direction_is_involutory(self):
        n = BlochVector(1 / SQRT2, 0, 1 / SQRT2)
        values = hermitian_eigenvalues(bloch_observable(n)).values
        assert np.allclose(values, [-1.0, 1.0])

    def test_non_unit_vector_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            BlochVector(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            BlochVector(bad, 0.0, 1.0)

    def test_from_angles_is_unit(self):
        n = BlochVector.from_angles(1.234, -2.345)
        assert abs(n.x**2 + n.y**2 + n.z**2 - 1.0) <= 1e-12


class TestEmbed:
    def test_first_slot(self):
        assert np.array_equal(embed(PAULI_Z, 0, 2), kron(PAULI_Z, IDENTITY_2))

    def test_second_slot(self):
        assert np.array_equal(embed(PAULI_Z, 1, 2), kron(IDENTITY_2, PAULI_Z))

    def test_disjoint_slots_commute(self):
        c = commutator(embed(PAULI_X, 1, 3), embed(PAULI_Z, 2, 3))
        assert frob_norm(c) < 1e-12

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            embed(PAULI_Z, 2, 2)

    def test_requires_single_qubit(self):
        with pytest.raises(ValueError):
            embed(np.eye(4), 0, 3)


class TestGroupObservable:
    def test_single_member(self):
        table = SettingsTable(
            ((BlochVector(0, 0, 1), BlochVector(1, 0, 0)),) * 2
        )
        g = group_observable(table, {0}, {0: 0})
        assert np.array_equal(g, kron(PAULI_Z, IDENTITY_2))

    def test_two_members(self):
        table = SettingsTable(
            ((BlochVector(0, 0, 1), BlochVector(1, 0, 0)),) * 2
        )
        g = group_observable(table, {0, 1}, {0: 0, 1: 0})
        assert np.array_equal(g, np.diag([1, -1, -1, 1.0]))

    def test_squares_to_identity(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            table = random_settings(4, rng)
            g = group_observable(table, {0, 2, 3}, {0: 1, 2: 0, 3: 1})
            assert frob_norm(g @ g - np.eye(16)) < 1e-11 * 16

    def test_choice_for_non_member_rejected(self):
        rng = np.random.default_rng(11)
        table = random_settings(3, rng)
        with pytest.raises(ValueError, match="group members"):
            group_observable(table, {0}, {0: 0, 1: 1})


class TestParityProjector:
    def test_sigma_z_even(self):
        assert np.array_equal(parity_projector(PAULI_Z, 0), np.diag([1.0, 0.0]))

    def test_orthogonality(self):
        g = kron(PAULI_Z, PAULI_Z)
        prod = parity_projector(g, 0) @ parity_projector(g, 1)
        assert frob_norm(prod) < 1e-12

    def test_projector_algebra_randomized(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            table = random_settings(3, rng)
            g = group_observable(table, {0, 1}, {0: 0, 1: 1})
            p0, p1 = parity_projector(g, 0), parity_projector(g, 1)
            dim = g.shape[0]
            assert frob_norm(p0 @ p0 - p0) < 1e-12
            assert frob_norm(p0 @ p1) < 1e-12
            assert frob_norm(p0 + p1 - np.eye(dim)) < 1e-12
            assert frob_norm(p0 - p1 - g) < 1e-12

    def test_non_involutory_rejected(self):
        with pytest.raises(ValueError, match="involutory"):
            parity_projector(2.0 * np.eye(2), 0)

    def test_bad_parity_bit(self):
        with pytest.raises(ValueError):
            parity_projector(PAULI_Z, 2)


class TestStates:
    def test_bell_state_corners(self):
        rho = ghz_state(2)
        for i, j in ((0, 0), (0, 3), (3, 0), (3, 3)):
            assert abs(rho[i, j] - 0.5) < 1e-15
        assert abs(np.trace(rho) - 1.0) < 1e-15

    def test_ghz_is_pure(self):
        rho = ghz_state(3)
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12

    def test_ghz_xxx_correlation(self):
        xxx = kron(kron(PAULI_X, PAULI_X), PAULI_X)
        assert abs(expectation(xxx, ghz_state(3)) - 1.0) < 1e-12

    def test_ghz_needs_two_qubits(self):
        with pytest.raises(ValueError):
            ghz_state(1)

    def test_maximally_mixed_single_qubit(self):
        assert np.array_equal(maximally_mixed(1), np.diag([0.5, 0.5]))

    def test_maximally_mixed_trace(self):
        assert abs(np.trace(maximally_mixed(2)) - 1.0) < 1e-15

    def test_correlations_vanish_on_mixed(self):
        rng = np.random.default_rng(13)
        table = random_settings(2, rng)
        op = kron(table.observable(0, 0), table.observable(1, 1))
        assert abs(expectation(op, maximally_mixed(2))) < 1e-12

    def test_product_state_single(self):
        assert np.allclose(product_state([BlochVector(0, 0, 1)]), np.diag([1.0, 0.0]))

    def test_product_state_01(self):
        rho = product_state([BlochVector(0, 0, 1), BlochVector(0, 0, -1)])
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        assert np.allclose(rho, expected)

    def test_product_state_correlations_factorize(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            table = random_settings(2, rng)
            blochs = [table.parties[0][0], table.parties[1][1]]
            rho = product_state(blochs)
            a = table.observable(0, 0)
            b = table.observable(1, 1)
            joint = expectation(kron(a, b), rho)
            single_a = expectation(kron(a, IDENTITY_2), rho)
            single_b = expectation(kron(IDENTITY_2, b), rho)
            assert abs(joint - single_a * single_b) < 1e-10

    def test_noisy_mixture_endpoints(self):
        rho = ghz_state(2)
        assert np.array_equal(noisy_mixture(rho, 1.0), rho)
        assert np.allclose(noisy_mixture(rho, 0.0), maximally_mixed(2))

    def test_noisy_mixture_trace(self):
        assert abs(np.trace(noisy_mixture(ghz_state(2), 0.37)) - 1.0) < 1e-12

    def test_noisy_mixture_rejects_bad_visibility(self):
        with pytest.raises(ValueError):
            noisy_mixture(ghz_state(2), 1.5)


class TestStructuredStates:
    def test_noisy_ghz_matrices_are_the_dense_constructors(self):
        assert np.array_equal(NoisyGhz(3).matrix(), ghz_state(3))
        assert np.array_equal(NoisyGhz(3, 0.0).matrix(), maximally_mixed(3))
        assert np.array_equal(NoisyGhz(3, 0.4).matrix(), noisy_mixture(ghz_state(3), 0.4))

    def test_product_matrix_is_the_dense_constructor(self):
        blochs = (BlochVector(0, 0, 1), BlochVector(1, 0, 0))
        assert np.array_equal(ProductState(blochs).matrix(), product_state(blochs))

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: NoisyGhz(1), "two qubits"),
            (lambda: NoisyGhz(3, 1.5), "visibility"),
            (lambda: NoisyGhz(3, float("nan")), "visibility"),
            (lambda: ProductState(()), "Bloch vector"),
            (lambda: ProductState(([0.0, 0.0, 1.0],)), "Bloch vector"),
        ],
    )
    def test_invalid_states_rejected(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    @pytest.mark.parametrize(
        "state", [NoisyGhz(3), ProductState((BlochVector(0, 0, 1),) * 3)]
    )
    def test_factors_must_cover_the_state(self, state):
        with pytest.raises(ValueError, match="dimension"):
            state.trace_product([PAULI_Z, PAULI_Z])


class TestExpectation:
    def test_identity_operator(self):
        assert abs(expectation(np.eye(4, dtype=complex), ghz_state(2)) - 1.0) < 1e-15

    def test_sigma_z_on_zero_state(self):
        rho = product_state([BlochVector(0, 0, 1)])
        assert abs(expectation(PAULI_Z, rho) - 1.0) < 1e-15

    def test_bell_zz_correlation(self):
        assert abs(expectation(kron(PAULI_Z, PAULI_Z), ghz_state(2)) - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            expectation(np.eye(2, dtype=complex), ghz_state(2))

    def test_non_hermitian_rejected(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            expectation(bad, maximally_mixed(1))

    def test_equals_trace_of_product(self):
        rng = np.random.default_rng(21)
        for dim in (2, 8, 32):
            op = random_hermitian(dim, rng)
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            rho = a @ a.conj().T
            assert abs(expectation(op, rho) - np.trace(op @ rho).real) <= 1e-12 * np.abs(rho).sum()

    def test_imaginary_trace_rejected(self):
        # A Hermitian operator against a non-Hermitian "state": tr = 1j.
        not_a_state = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="imaginary part"):
            expectation(PAULI_Y, not_a_state)


class TestSettingsTable:
    def test_json_round_trip(self):
        rng = np.random.default_rng(15)
        table = random_settings(3, rng)
        again = SettingsTable.from_json_dict(table.to_json_dict())
        assert again == table

    def test_needs_two_parties(self):
        with pytest.raises(ValueError, match="two parties"):
            SettingsTable(((BlochVector(0, 0, 1), BlochVector(1, 0, 0)),))

    def test_observable_lookup(self):
        table = SettingsTable(
            (
                (BlochVector(0, 0, 1), BlochVector(1, 0, 0)),
                (BlochVector(1, 0, 0), BlochVector(0, 0, 1)),
            )
        )
        assert np.array_equal(table.observable(0, 0), PAULI_Z)
        assert np.array_equal(table.observable(1, 0), PAULI_X)

    def test_bloch_array_is_read_only_and_derived(self):
        table = random_settings(3, np.random.default_rng(17))
        assert table.bloch.shape == (3, 2, 3)
        assert table.bloch.tolist() == [[v.as_list() for v in pair] for pair in table.parties]
        with pytest.raises(ValueError, match="read-only"):
            table.bloch[0, 0, 0] = 1.0

    def test_from_bloch_round_trip(self):
        table = random_settings(4, np.random.default_rng(18))
        again = SettingsTable.from_bloch(table.bloch)
        assert again == table
        assert hash(again) == hash(table)
        assert np.array_equal(again.bloch, table.bloch)

    def test_from_bloch_rejects_non_unit_rows(self):
        with pytest.raises(ValueError, match="unit"):
            SettingsTable.from_bloch(np.full((2, 2, 3), 0.5))

    def test_random_settings_unit_norm(self):
        rng = np.random.default_rng(16)
        table = random_settings(5, rng)
        for pair in table.parties:
            for v in pair:
                assert abs(v.x**2 + v.y**2 + v.z**2 - 1.0) <= 1e-12


class TestGrouping:
    def test_valid(self):
        g = Grouping((2, 0, 1), (3,))
        assert g.group_a == (0, 1, 2)
        assert g.n_parties == 4

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="disjoint"):
            Grouping((0, 1), (1, 2))

    def test_rejects_gap(self):
        with pytest.raises(ValueError, match="cover"):
            Grouping((0,), (2,))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            Grouping((), (0, 1))
