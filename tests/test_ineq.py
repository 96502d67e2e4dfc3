import json
import math

import numpy as np
import pytest

from conftest import SQRT2, planar_settings, random_compatible_cycle, random_settings

from qwitness import cli
from qwitness.dense import chsh_element, correlation_operator, decompose_svetlichny, embed
from qwitness.ineq import (
    CertificationError,
    SignPattern,
    chsh_operator,
    chsh_optimal_settings,
    cycle_from_settings,
    noncontextual_cycle,
    svetlichny_operator,
    svetlichny_pattern,
    svetlichny_sign,
)
from qwitness.opalg import anticommutator, commutator, frob_distance, frob_norm
from qwitness.optimize import max_eigenvalue
from qwitness.qobs import (
    BlochVector,
    SettingsTable,
    expectation,
    maximally_mixed,
    product_state,
)


class TestSvetlichnySign:
    def test_three_qubit_display_values(self):
        assert svetlichny_sign(0b000) == 1
        assert svetlichny_sign(0b011) == -1
        assert svetlichny_sign(0b111) == -1

    def test_popcount_zero(self):
        assert svetlichny_sign(0b0000) == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            svetlichny_sign(-1)

    def test_three_qubit_pattern_frozen(self):
        assert svetlichny_pattern(3).coeffs == (1, 1, 1, -1, 1, -1, -1, -1)


class TestSignPattern:
    def test_json_round_trip(self):
        p = svetlichny_pattern(3)
        assert SignPattern.from_json_dict(p.to_json_dict()) == p
        assert p.to_json_dict() == {"n": 3, "coeffs": [1, 1, 1, -1, 1, -1, -1, -1]}

    def test_flipped(self):
        p = svetlichny_pattern(2).flipped(3)
        assert p.coeffs == (1, 1, 1, 1)

    def test_flipped_index_checked(self):
        p = svetlichny_pattern(3)
        assert p.flipped(0).coeffs[0] == -p.coeffs[0]
        assert p.flipped(7).coeffs[7] == -p.coeffs[7]
        for index in (-1, 8):
            with pytest.raises(ValueError, match="out of range"):
                p.flipped(index)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="coefficients"):
            SignPattern(3, (1, -1))

    def test_rejects_non_sign_entries(self):
        with pytest.raises(ValueError):
            SignPattern(2, (1, 2, 1, 1))


def count_recognizer(monkeypatch):
    """Every pattern SignPattern.two_term's recognizer runs on, in order."""
    prop = SignPattern.__dict__["two_term"]
    recognize, calls = prop.func, []

    def counting(pattern):
        calls.append(pattern)
        return recognize(pattern)

    monkeypatch.setattr(prop, "func", counting)
    return calls


class TestTwoTermForm:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_svetlichny_form(self, n):
        pattern = svetlichny_pattern(n)
        assert pattern.two_term == (1, -1, 0)
        data = json.loads(json.dumps(pattern.to_json_dict()))
        assert SignPattern.from_json_dict(data).two_term == (1, -1, 0)

    def test_recognizer_runs_once_per_pattern_on_first_read(self, monkeypatch):
        calls = count_recognizer(monkeypatch)
        pattern = SignPattern(4, svetlichny_pattern(4).coeffs)
        flipped = pattern.flipped(5)
        assert calls == []
        assert pattern.two_term == pattern.two_term == (1, -1, 0)
        assert flipped.two_term is None and flipped.two_term is None
        assert [id(p) for p in calls] == [id(pattern), id(flipped)]

    def test_bounds_command_recognizes_once_per_process(self, monkeypatch, capsys):
        calls = count_recognizer(monkeypatch)
        # A fresh cache, so the first call builds the pattern it reads.
        svetlichny_pattern.cache_clear()
        for _ in range(2):
            assert cli.main(["bounds", "--n", "4"]) == 0
        capsys.readouterr()
        assert len(calls) == 1


class TestChshOperator:
    def test_degenerate_settings_hit_classical_bound(self):
        z = BlochVector(0, 0, 1)
        table = SettingsTable(((z, z), (z, z)))
        op = chsh_operator(table)
        zz = np.diag([1.0, -1.0, -1.0, 1.0])
        assert np.array_equal(op.matrix, 2.0 * zz)
        assert abs(max_eigenvalue(op) - 2.0) < 1e-12
        assert op.classical_bound == 2.0

    def test_tsirelson_settings(self):
        op = chsh_operator(chsh_optimal_settings())
        assert abs(max_eigenvalue(op) - 2.0 * SQRT2) < 1e-12

    def test_traceless_on_maximally_mixed(self):
        rng = np.random.default_rng(20)
        op = chsh_operator(random_settings(2, rng))
        assert abs(expectation(op.matrix, maximally_mixed(2))) < 1e-12

    def test_wrong_party_count(self):
        rng = np.random.default_rng(21)
        with pytest.raises(ValueError, match="two parties"):
            chsh_operator(random_settings(3, rng))


class TestSvetlichnyOperator:
    def test_reduces_to_chsh_at_two_parties(self):
        rng = np.random.default_rng(22)
        table = random_settings(2, rng)
        assert frob_distance(
            svetlichny_operator(table).matrix, chsh_operator(table).matrix
        ) == 0.0

    def test_planar_optimum_three_parties(self):
        op = svetlichny_operator(planar_settings(3))
        assert abs(max_eigenvalue(op) - 4.0 * SQRT2) < 1e-12
        assert op.classical_bound == 4.0

    def test_matches_embedded_product_oracle(self):
        # Independent construction: each correlation operator as a product of
        # commuting single-slot embeddings instead of a kron chain.
        rng = np.random.default_rng(23)
        table = random_settings(3, rng)
        pattern = svetlichny_pattern(3)
        oracle = np.zeros((8, 8), dtype=complex)
        for word, coeff in enumerate(pattern.coeffs):
            term = np.eye(8, dtype=complex)
            for p in range(3):
                bit = (word >> (2 - p)) & 1
                term = term @ embed(table.observable(p, bit), p, 3)
            oracle += coeff * term
        assert frob_distance(svetlichny_operator(table).matrix, oracle) < 1e-12

    def test_product_states_respect_hybrid_bound(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            table = random_settings(3, rng)
            blochs = [
                BlochVector.from_angles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
                for _ in range(3)
            ]
            value = expectation(svetlichny_operator(table).matrix, product_state(blochs))
            assert value <= 4.0 + 1e-9

    def test_degenerate_settings_collapse(self):
        # With one observable per party the operator collapses to
        # (sum of signs) * T.  The sign sum is Re[(1-i) (1+i)^N]:
        # zero at N = 3, -4 at N = 4; either way |max eig| <= 2^(N-1).
        z = BlochVector(0, 0, 1)
        table3 = SettingsTable(((z, z),) * 3)
        assert frob_norm(svetlichny_operator(table3).matrix) < 1e-13
        table4 = SettingsTable(((z, z),) * 4)
        op4 = svetlichny_operator(table4).matrix
        t = correlation_operator(table4, 0)
        assert frob_distance(op4, -4.0 * t) < 1e-13
        assert abs(max_eigenvalue(op4)) <= 2.0 ** 3 + 1e-12


class TestNoncontextualCycle:
    def test_canonical_cycle_commutators_vanish_exactly(self):
        a, b, c, d = cycle_from_settings(chsh_optimal_settings())
        for x, y in ((a, b), (b, c), (c, d), (d, a)):
            assert frob_norm(commutator(x, y)) == 0.0

    def test_canonical_identities(self):
        a, b, c, d = cycle_from_settings(chsh_optimal_settings())
        x_op, y_op, ec = noncontextual_cycle(a, b, c, d)
        assert frob_distance(anticommutator(x_op, y_op), 4.0 * ec.matrix) < 1e-12
        target = 2.0 * ec.matrix + commutator(b, d) + commutator(c, a)
        assert frob_distance(x_op @ y_op, target) < 1e-12
        assert ec.classical_bound == 2.0

    def test_random_compatible_realizations(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            a, b, c, d = random_compatible_cycle(rng)
            x_op, y_op, ec = noncontextual_cycle(a, b, c, d)
            assert frob_distance(anticommutator(x_op, y_op), 4.0 * ec.matrix) < 1e-12
            target = 2.0 * ec.matrix + commutator(b, d) + commutator(c, a)
            assert frob_distance(x_op @ y_op, target) < 1e-12

    def test_incompatible_pair_named(self):
        a, b, c, d = cycle_from_settings(chsh_optimal_settings())
        bad = embed(np.array([[0, 1], [1, 0.0]]), 0, 2)  # acts on B's factor
        with pytest.raises(ValueError, match=r"\[A,B\]"):
            noncontextual_cycle(bad, b, c, d)

    def test_cycle_ec_matches_chsh_combination(self):
        table = chsh_optimal_settings()
        a, b, c, d = cycle_from_settings(table)
        _, _, ec = noncontextual_cycle(a, b, c, d)
        e_from_chsh = 2.0 * np.eye(4) - chsh_operator(table).matrix
        assert frob_distance(ec.matrix, e_from_chsh) < 1e-12


class TestDecomposition:
    def test_three_party_elements_match_display(self):
        rng = np.random.default_rng(26)
        elements = decompose_svetlichny(random_settings(3, rng))
        assert len(elements) == 2
        assert elements[0].signs == (1, 1, 1, -1)
        assert elements[1].signs == (1, -1, -1, -1)
        assert elements[0].grouping.group_a == (0, 1)
        assert elements[0].grouping.group_b == (2,)
        assert elements[0].fixed_choices == (0,)
        assert elements[1].fixed_choices == (1,)
        assert elements[0].sign_variant == (1, 1)
        assert elements[1].sign_variant == (1, -1)

    def test_signed_terms_layout(self):
        rng = np.random.default_rng(27)
        e = decompose_svetlichny(random_settings(3, rng))[1]
        assert e.signed_terms() == ((1, 0, 0), (-1, 0, 1), (-1, 1, 0), (-1, 1, 1))

    def test_four_party_reconstruction(self):
        rng = np.random.default_rng(28)
        table = random_settings(4, rng)
        elements = decompose_svetlichny(table)
        assert len(elements) == 4
        total = sum(e.operator() for e in elements)
        assert frob_distance(total, svetlichny_operator(table).matrix) < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_reconstruction_randomized(self, n):
        rng = np.random.default_rng(29 + n)
        table = random_settings(n, rng)
        total = sum(e.operator() for e in decompose_svetlichny(table))
        assert frob_distance(total, svetlichny_operator(table).matrix) < 1e-12

    def test_element_spectra_within_chsh_type_range(self):
        rng = np.random.default_rng(30)
        for n in (3, 4):
            table = random_settings(n, rng)
            for e in decompose_svetlichny(table):
                top = max_eigenvalue(e.operator())
                bottom = -max_eigenvalue(-e.operator())
                assert bottom >= -2.0 * SQRT2 - 1e-10
                assert top <= 2.0 * SQRT2 + 1e-10

    def test_corrupted_pattern_fails_certification(self):
        rng = np.random.default_rng(31)
        table = random_settings(3, rng)
        with pytest.raises(CertificationError, match="not CHSH-type"):
            decompose_svetlichny(table, svetlichny_pattern(3).flipped(1))

    def test_two_parties_rejected(self):
        rng = np.random.default_rng(32)
        with pytest.raises(ValueError, match="chsh_element"):
            decompose_svetlichny(random_settings(2, rng))


class TestChshElement:
    def test_signs_and_grouping(self):
        e = chsh_element(chsh_optimal_settings())
        assert e.signs == (1, 1, 1, -1)
        assert e.grouping.group_a == (0,)
        assert e.fixed_choices == ()

    def test_operator_matches_chsh(self):
        table = chsh_optimal_settings()
        assert frob_distance(
            chsh_element(table).operator(), chsh_operator(table).matrix
        ) == 0.0

    def test_corrupted_pattern_rejected(self):
        pattern = svetlichny_pattern(2).flipped(0)
        with pytest.raises(CertificationError):
            chsh_element(chsh_optimal_settings(), pattern)

    def test_needs_two_parties(self):
        rng = np.random.default_rng(33)
        with pytest.raises(ValueError):
            chsh_element(random_settings(3, rng))
