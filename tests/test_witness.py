import dataclasses
import math

import numpy as np
import pytest

from conftest import SQRT2, planar_settings, random_settings, relabelled

from qwitness import dense
from qwitness.dense import (
    chsh_element,
    decompose_svetlichny,
    element_witness,
    total_defect,
    total_witness,
    witness_pair,
)
from qwitness.ineq import (
    PartyFactors,
    SignPattern,
    chsh_operator,
    svetlichny_operator,
    svetlichny_pattern,
)
from qwitness.opalg import anticommutator, frob_distance, is_psd
from qwitness.qobs import (
    BlochVector,
    NoisyGhz,
    ProductState,
    SettingsTable,
    expectation,
    ghz_state,
    maximally_mixed,
    product_state,
)
from qwitness.witness import (
    FactoredIdentities,
    _kron_pairs,
    evaluate_witness,
    factored_identities,
)


class TestWitnessPair:
    def test_three_party_sign_variants(self):
        rng = np.random.default_rng(40)
        elements = decompose_svetlichny(random_settings(3, rng))
        assert witness_pair(elements[0]).sign_variant == (1, 1)
        assert witness_pair(elements[1]).sign_variant == (1, -1)

    def test_pairs_are_psd(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            table = random_settings(4, rng)
            for e in decompose_svetlichny(table):
                pair = witness_pair(e)
                assert is_psd(pair.x, 1e-9)
                assert is_psd(pair.y, 1e-9)

    def test_all_four_sign_classes_appear_at_five_parties(self):
        rng = np.random.default_rng(42)
        elements = decompose_svetlichny(random_settings(5, rng))
        variants = {witness_pair(e).sign_variant for e in elements}
        assert variants == {(1, 1), (1, -1), (-1, -1), (-1, 1)}


class TestElementWitness:
    def test_three_party_identities(self):
        rng = np.random.default_rng(43)
        table = random_settings(3, rng)
        for e in decompose_svetlichny(table):
            q = element_witness(e)
            target = 4.0 * (2.0 * np.eye(8) - e.operator())
            assert frob_distance(q, target) < 1e-12

    def test_chsh_case_4e(self):
        rng = np.random.default_rng(44)
        table = random_settings(2, rng)
        q = element_witness(chsh_element(table))
        e_matrix = 2.0 * np.eye(4) - chsh_operator(table).matrix
        assert frob_distance(q, 4.0 * e_matrix) < 1e-12

    def test_maximally_mixed_expectation(self):
        rng = np.random.default_rng(45)
        table = random_settings(3, rng)
        q = element_witness(decompose_svetlichny(table)[0])
        assert abs(expectation(q, maximally_mixed(3)) - 8.0) < 1e-12

    def test_identity_holds_for_every_sign_class(self):
        rng = np.random.default_rng(46)
        table = random_settings(5, rng)
        dim = 32
        for e in decompose_svetlichny(table):
            q = element_witness(e)
            target = 4.0 * (2.0 * np.eye(dim) - e.operator())
            assert frob_distance(q, target) < 1e-11 * dim

    def test_anticommutator_order_irrelevant(self):
        rng = np.random.default_rng(47)
        e = decompose_svetlichny(random_settings(3, rng))[0]
        pair = witness_pair(e)
        assert np.array_equal(
            anticommutator(pair.x, pair.y), anticommutator(pair.y, pair.x)
        )


class TestTotalWitness:
    def test_reconstruction_identity(self):
        rng = np.random.default_rng(48)
        table = random_settings(3, rng)
        total = total_witness(table)
        svet = svetlichny_operator(table).matrix
        assert frob_distance(total, 4.0 * (4.0 * np.eye(8) - svet)) < 1e-12

    def test_maximally_mixed_value(self):
        rng = np.random.default_rng(49)
        for n in (3, 4):
            table = random_settings(n, rng)
            value = expectation(total_witness(table), maximally_mixed(n))
            assert abs(value - 4.0 * 2 ** (n - 1)) < 1e-10

    def test_ghz_at_planar_optimum(self):
        value = expectation(total_witness(planar_settings(3)), ghz_state(3))
        assert abs(value - 4.0 * (4.0 - 4.0 * SQRT2)) < 1e-12

    def test_two_parties_rejected(self):
        rng = np.random.default_rng(50)
        with pytest.raises(ValueError, match="CHSH"):
            total_witness(random_settings(2, rng))


class TestClassicalPositivity:
    def test_product_states_keep_witness_nonnegative(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            table = random_settings(3, rng)
            blochs = [
                BlochVector.from_angles(
                    rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
                )
                for _ in range(3)
            ]
            report = evaluate_witness(table, product_state(blochs))
            assert report.value >= -1e-9
            assert not report.negative


class TestEvaluateWitness:
    def test_ghz_violation_at_planar_optimum(self):
        report = evaluate_witness(planar_settings(3), ghz_state(3))
        assert report.negative
        assert abs(report.svet_value - 4.0 * SQRT2) < 1e-12
        assert abs(report.value - 4.0 * (4.0 - 4.0 * SQRT2)) < 1e-12
        assert report.bound_term == 16.0

    def test_maximally_mixed_report(self):
        rng = np.random.default_rng(52)
        table = random_settings(3, rng)
        report = evaluate_witness(table, maximally_mixed(3))
        assert abs(report.value - 16.0) < 1e-9
        assert not report.negative

    def test_value_matches_inequality_identity(self):
        rng = np.random.default_rng(53)
        for n in (2, 3, 4):
            table = random_settings(n, rng)
            report = evaluate_witness(table, maximally_mixed(n))
            bound = 2.0 ** (n - 1)
            assert abs(report.value - 4.0 * (bound - report.svet_value)) < 1e-9

    def test_values_equal_dense_oracle_on_complex_states(self):
        # A random complex state is not symmetric, so a transposed state or
        # factor table would change both values.
        rng = np.random.default_rng(57)
        for n in (3, 4, 5):
            table = random_settings(n, rng)
            a = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            report = evaluate_witness(table, rho)
            dense_svet = expectation(svetlichny_operator(table).matrix, rho)
            assert abs(report.svet_value - dense_svet) < 1e-12
            assert abs(report.value - expectation(total_witness(table), rho)) < 1e-12

    def test_residual_keys(self):
        rng = np.random.default_rng(54)
        table3 = random_settings(3, rng)
        report3 = evaluate_witness(table3, maximally_mixed(3))
        elements = factored_identities(PartyFactors.from_settings(table3)).element_residuals
        assert len(elements) == 2
        assert set(report3.identity_residuals) == {"element_max", "total"}
        report2 = evaluate_witness(random_settings(2, rng), maximally_mixed(2))
        assert set(report2.identity_residuals) == {"chsh_4e", "total"}
        assert all(v < 1e-12 for v in report2.identity_residuals.values())

    def test_negativity_sign_equivalence(self):
        cases = [
            (planar_settings(3), ghz_state(3)),
            (planar_settings(3), maximally_mixed(3)),
            (planar_settings(3), product_state([BlochVector(0, 0, 1)] * 3)),
        ]
        for table, rho in cases:
            report = evaluate_witness(table, rho)
            lhs = report.value < -1e-9
            rhs = 4.0 * (2.0 ** (report.n_parties - 1) - report.svet_value) < -1e-9
            assert lhs == rhs == report.negative

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            evaluate_witness(planar_settings(3), maximally_mixed(2))

    def test_structured_state_party_count_mismatch(self):
        with pytest.raises(ValueError, match="qubits"):
            evaluate_witness(planar_settings(3), NoisyGhz(4))

    def test_density_matrix_takes_the_coefficient_path(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("Kronecker-product path taken")

        monkeypatch.setattr(PartyFactors, "two_term_value", refuse)
        monkeypatch.setattr(FactoredIdentities, "defect_trace", refuse)
        report = evaluate_witness(planar_settings(3), ghz_state(3))
        assert abs(report.svet_value - 4.0 * SQRT2) < 1e-12

    def test_non_hermitian_density_matrix_is_rejected(self):
        # rho_{07} = rho_{70} = i/2 is symmetric but not Hermitian; its trace
        # against the Hermitian Svetlichny operator is i Re(I_{07}) with
        # I_{07} = 2 sqrt(2) at the planar optimum.
        rho = ghz_state(3)
        rho[0, 7] = rho[7, 0] = 0.5j
        with pytest.raises(ValueError, match="imaginary part"):
            evaluate_witness(planar_settings(3), rho)

    def test_relabelled_family_member_takes_the_kronecker_path(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("coefficient path taken")

        monkeypatch.setattr(PartyFactors, "expectation", refuse)
        monkeypatch.setattr(FactoredIdentities, "defect_expectation", refuse)
        rng = np.random.default_rng(58)
        for n in (3, 4, 5):
            # Party 0's settings swapped and its setting-1 outcome flipped.
            # Party 0 is a fixed party of every element, so the pattern
            # stays CHSH-type and in the two-term family, but its signs
            # differ.
            pattern = relabelled(
                svetlichny_pattern(n), [(True, False, True)] + [(False, False, False)] * (n - 1)
            )
            assert pattern != svetlichny_pattern(n)
            assert pattern.two_term is not None
            table = random_settings(n, rng)
            identities = factored_identities(PartyFactors.from_settings(table), pattern)
            assert identities.two_term == pattern.two_term
            blochs = tuple(random_settings(n, rng).parties[p][0] for p in range(n))
            for state in (NoisyGhz(n, 0.8), ProductState(blochs)):
                report = evaluate_witness(table, state, pattern)
                rho = state.matrix()
                dense_svet = expectation(svetlichny_operator(table, pattern).matrix, rho)
                assert abs(report.svet_value - dense_svet) < 1e-12
                assert abs(report.value - expectation(total_witness(table, pattern), rho)) < 1e-12

    @pytest.mark.parametrize("n", [4, 5])
    def test_chsh_type_pattern_outside_the_family_takes_the_coefficient_path(
        self, monkeypatch, n
    ):
        def refuse(*args):
            raise AssertionError("Kronecker-product path taken")

        monkeypatch.setattr(PartyFactors, "two_term_value", refuse)
        monkeypatch.setattr(FactoredIdentities, "defect_trace", refuse)
        rng = np.random.default_rng(60 + n)
        # One random (a_u, b_u) per element, laid out as (a, b, b, -a).
        a, b = rng.choice((-1, 1), size=(2, 2 ** (n - 2)))
        pattern = SignPattern(n, tuple(np.stack([a, b, b, -a], axis=1).ravel()))
        assert pattern.two_term is None
        table = random_settings(n, rng)
        assert factored_identities(PartyFactors.from_settings(table), pattern).two_term is None
        blochs = tuple(random_settings(n, rng).parties[p][0] for p in range(n))
        for state in (NoisyGhz(n, 0.8), ProductState(blochs)):
            report = evaluate_witness(table, state, pattern)
            rho = state.matrix()
            dense_svet = expectation(svetlichny_operator(table, pattern).matrix, rho)
            assert abs(report.svet_value - dense_svet) < 1e-12
            assert abs(report.value - expectation(total_witness(table, pattern), rho)) < 1e-12

    def test_report_json(self):
        report = evaluate_witness(planar_settings(3), ghz_state(3))
        data = report.to_json_dict()
        assert data["n_parties"] == 3
        assert data["negative"] is True
        identities = factored_identities(PartyFactors.from_settings(planar_settings(3)))
        assert len(identities.element_residuals) == 2
        assert set(data["identity_residuals"]) == {"element_max", "total"}
        assert data["worst_element"] == identities.worst_element


def pauli_settings(n):
    """Settings along the x, y and z axes, whose squares are exactly I."""
    axes = (BlochVector(1.0, 0.0, 0.0), BlochVector(0.0, 1.0, 0.0), BlochVector(0.0, 0.0, 1.0))
    return SettingsTable(tuple((axes[p % 3], axes[(p + 1) % 3]) for p in range(n)))


class TestFactoredIdentities:
    def test_exact_involutions_give_zero_residuals(self):
        for n in (2, 3, 5):
            identities = factored_identities(PartyFactors.from_settings(pauli_settings(n)))
            assert set(identities.residuals.values()) == {0.0}
            report = evaluate_witness(pauli_settings(n), ghz_state(n))
            assert set(report.identity_residuals.values()) == {0.0}

    def test_summary_is_the_largest_element(self):
        rng = np.random.default_rng(58)
        for n in range(3, 9):
            # Contracted factors, so every element's residual differs.
            observables = PartyFactors.from_settings(random_settings(n, rng)).observables
            factors = PartyFactors(observables * rng.uniform(0.9, 1.0, (n, 2, 1, 1)))
            identities = factored_identities(factors)
            elements = identities.element_residuals
            assert len(elements) == 2 ** (n - 2)
            assert identities.residuals == {"element_max": elements.max(), "total": identities.total}
            assert identities.worst_element == int(np.argmax(elements))
            report = evaluate_witness(random_settings(n, rng), NoisyGhz(n, 0.8))
            assert set(report.identity_residuals) == {"element_max", "total"}
            assert 0 <= report.worst_element < 2 ** (n - 2)

    def test_worst_element_is_the_first_maximum(self):
        table = random_settings(4, np.random.default_rng(59))
        identities = factored_identities(PartyFactors.from_settings(table))
        tied = dataclasses.replace(identities, element_residuals=np.array([1.0, 3.0, 3.0, 2.0]))
        assert tied.worst_element == 1
        assert tied.residuals["element_max"] == 3.0

    def test_kron_pairs_equal_np_kron(self):
        rng = np.random.default_rng(60)
        left, right = rng.standard_normal((2, 5, 2, 2)) + 1j * rng.standard_normal((2, 5, 2, 2))
        products = _kron_pairs(left, right)
        assert products.shape == (5, 4, 4)
        for k in range(5):
            assert np.array_equal(products[k], np.kron(left[k], right[k]))

    def test_total_defect_is_the_dense_defect(self):
        rng = np.random.default_rng(55)
        table = random_settings(4, rng)
        target = 4.0 * (8.0 * np.eye(16) - svetlichny_operator(table).matrix)
        defect = total_defect(factored_identities(PartyFactors.from_settings(table)))
        assert frob_distance(defect, total_witness(table) - target) < 1e-12

    def test_decomposition_builds_terms_on_first_use(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("kron called")

        monkeypatch.setattr(dense, "kron", refuse)
        elements = decompose_svetlichny(random_settings(4, np.random.default_rng(56)))
        assert len(elements) == 4
        with pytest.raises(AssertionError, match="kron called"):
            elements[0].terms
