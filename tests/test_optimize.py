import math

import numpy as np
import pytest

from conftest import SQRT2, planar_settings

from qwitness import optimize
from qwitness.ineq import chsh_operator, chsh_optimal_settings, svetlichny_operator
from qwitness.optimize import (
    Lcg64,
    OptimizationConfig,
    _correlation_tensor,
    _expectation_see_saw,
    _structured_environments,
    _tensor_environments,
    _violation_see_saw,
    max_eigenvalue,
    maximize_expectation,
    maximize_violation,
    violation_threshold,
)
from qwitness.qobs import BlochVector, NoisyGhz, ProductState, SettingsTable, ghz_state

SMALL = OptimizationConfig(restarts=3, seed=71)


@pytest.fixture(scope="module")
def chsh_opt():
    return maximize_violation(2, "chsh", SMALL)


@pytest.fixture(scope="module")
def svet3_opt():
    return maximize_violation(3, "svetlichny", OptimizationConfig(restarts=3, seed=72))


class TestMaxEigenvalue:
    def test_scaled_zz(self):
        z = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
        assert abs(max_eigenvalue(2.0 * z) - 2.0) < 1e-12

    def test_zero_matrix(self):
        assert abs(max_eigenvalue(np.zeros((4, 4), dtype=complex))) < 1e-15

    def test_chsh_tsirelson_point(self):
        assert abs(max_eigenvalue(chsh_operator(chsh_optimal_settings())) - 2 * SQRT2) < 1e-12


class TestLcg64:
    def test_reproducible_stream(self):
        a, b = Lcg64(42), Lcg64(42)
        assert [a.next_uint() for _ in range(5)] == [b.next_uint() for _ in range(5)]

    def test_uniform_range(self):
        rng = Lcg64(7)
        values = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.3 < sum(values) / len(values) < 0.7

    def test_settings_are_valid(self):
        table = Lcg64(9).settings(3)
        assert table.n_parties == 3

    def test_settings_golden_stream(self):
        # Recorded from the angle-based draw (z, then phi, per slot) that
        # every seed's restarts and random tables follow.
        assert Lcg64(1).settings(3).to_json_dict() == {
            "parties": [
                [
                    [-0.986410267831925, -0.05837343371367868, -0.15358165825457343],
                    [-0.7077873448359252, 0.6410889449844893, 0.29671878792686107],
                ],
                [
                    [-0.8067439452115053, -0.0025916613714457113, 0.590895498507064],
                    [0.9113560711402853, 0.39723295280729765, 0.10787072262545855],
                ],
                [
                    [0.23356044821677088, 0.6955531602425273, 0.6794522192953778],
                    [-0.8489724964508041, -0.19401583951687962, 0.49153184463130134],
                ],
            ]
        }

    def test_bloch_draw_is_the_settings_draw(self):
        assert np.array_equal(Lcg64(4).bloch(5), Lcg64(4).settings(5).bloch)

    def test_documented_recurrence(self):
        rng = Lcg64(1)
        expected = (6364136223846793005 * 1 + 1442695040888963407) % 2**64
        assert rng.next_uint() == expected


class TestMaximizeViolation:
    def test_chsh_reaches_tsirelson(self, chsh_opt):
        assert abs(chsh_opt.best_value - 2.0 * SQRT2) < 1e-6
        assert chsh_opt.converged

    def test_history_monotone(self, chsh_opt):
        values = [v for _, v in chsh_opt.history]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_oracle_consistency(self, chsh_opt):
        check = max_eigenvalue(chsh_operator(chsh_opt.settings))
        assert abs(check - chsh_opt.best_value) < 1e-9

    def test_svetlichny_three_parties(self, svet3_opt):
        assert abs(svet3_opt.best_value - 4.0 * SQRT2) < 1e-6
        check = max_eigenvalue(svetlichny_operator(svet3_opt.settings))
        assert abs(check - svet3_opt.best_value) < 1e-9

    def test_upper_bound_sanity(self, svet3_opt):
        assert svet3_opt.best_value <= 4.0 * SQRT2 + 1e-6

    def test_deterministic_given_seed(self):
        cfg = OptimizationConfig(restarts=2, seed=5)
        first = maximize_violation(2, "chsh", cfg)
        second = maximize_violation(2, "chsh", cfg)
        assert first.history == second.history
        assert first.settings == second.settings
        assert first.best_value == second.best_value

    def test_kind_validation(self):
        with pytest.raises(ValueError, match="exactly two"):
            maximize_violation(3, "chsh", SMALL)
        with pytest.raises(ValueError, match="unknown"):
            maximize_violation(3, "mermin", SMALL)

    def test_result_json(self, chsh_opt):
        data = chsh_opt.to_json_dict()
        assert data["converged"] is True
        assert len(data["settings"]["parties"]) == 2
        assert data["history"][0][0] == 0


class TestRestartChoice:
    @staticmethod
    def chosen(gain):
        """Index of the restart _run_restarts keeps when restart 1 beats
        restart 0 by ``gain``."""
        values = iter((1.0, 1.0 + gain))

        def ascend(start, max_sweeps):
            value = next(values)
            return value, start, 1, True, [(0, value)]

        cfg = OptimizationConfig(restarts=2, seed=3)
        rng = Lcg64(cfg.seed)
        starts = [SettingsTable.from_bloch(rng.bloch(2)) for _ in range(2)]
        settings = optimize._run_restarts(2, ascend, cfg)[1]
        return starts.index(settings)

    def test_rounding_tie_keeps_the_earlier_restart(self):
        assert self.chosen(1e-12) == 0

    def test_real_gain_moves_the_choice(self):
        assert self.chosen(1e-9) == 1


class TestSettingRelabelingInvariance:
    def test_max_value_invariant_under_party_setting_swap(self, svet3_opt):
        # Swapping one party's two settings relabels the polynomial's words;
        # the best value over settings must be unchanged.  Re-optimize from
        # the swapped optimum and compare.
        table = svet3_opt.settings
        swapped = SettingsTable(
            ((table.parties[0][1], table.parties[0][0]),) + table.parties[1:]
        )
        cfg = OptimizationConfig(restarts=1, seed=1)
        value, _, _, _, _ = _violation_see_saw(swapped.bloch, cfg.max_iters)
        assert abs(value - svet3_opt.best_value) < 1e-6


class TestMaximizeExpectation:
    def test_ghz_three_parties(self):
        res = maximize_expectation(
            3, "svetlichny", ghz_state(3), OptimizationConfig(restarts=3, seed=73)
        )
        assert abs(res.best_value - 4.0 * SQRT2) < 1e-6

    def test_planar_settings_are_already_optimal(self):
        cfg = OptimizationConfig(restarts=1, seed=74)
        for environments in (
            _tensor_environments(_correlation_tensor(ghz_state(3))),
            _structured_environments(NoisyGhz(3)),
        ):
            value, _, _, _, _ = _expectation_see_saw(
                planar_settings(3).bloch, environments, cfg.max_iters
            )
            assert abs(value - 4.0 * SQRT2) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            maximize_expectation(3, "svetlichny", ghz_state(2), SMALL)
        with pytest.raises(ValueError, match="qubits"):
            maximize_expectation(3, "svetlichny", NoisyGhz(2), SMALL)

    @pytest.mark.parametrize("v", [1.0, 0.9, 0.0])
    def test_structured_state_equals_its_density_matrix(self, v):
        # The same restarts on the same state in two forms reach the same
        # optimum value.
        cfg = OptimizationConfig(restarts=2, seed=76)
        state = NoisyGhz(3, v)
        structured = maximize_expectation(3, "svetlichny", state, cfg)
        dense = maximize_expectation(3, "svetlichny", state.matrix(), cfg)
        assert abs(structured.best_value - dense.best_value) < 1e-9
        assert abs(structured.best_value - v * 4.0 * SQRT2) < 1e-6


class TestNoCorrelationTensor:
    """Only a plain density matrix needs the Pauli correlation tensor; the
    eigenvector and structured-state see-saws never build it."""

    @pytest.fixture(params=["state_sum", "_correlation_tensor"])
    def refuse_tensor(self, request, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("correlation tensor built")

        monkeypatch.setattr(optimize, request.param, refuse)

    def test_violation(self, refuse_tensor):
        assert abs(maximize_violation(3, "svetlichny", SMALL).best_value - 4.0 * SQRT2) < 1e-6

    @pytest.mark.parametrize(
        "state",
        [
            NoisyGhz(3),
            NoisyGhz(3, 0.9),
            NoisyGhz(3, 0.0),
            ProductState((BlochVector(0.0, 0.0, 1.0), BlochVector(1.0, 0.0, 0.0)) * 2),
        ],
        ids=["ghz", "noisy", "mixed", "product"],
    )
    def test_structured_expectation(self, refuse_tensor, state):
        maximize_expectation(state.n_parties, "svetlichny", state, SMALL)

    def test_threshold(self, refuse_tensor):
        assert abs(violation_threshold(3, SMALL) - 1.0 / SQRT2) < 1e-4

    def test_density_matrix_reaches_it(self, refuse_tensor):
        with pytest.raises(AssertionError, match="correlation tensor built"):
            maximize_expectation(3, "svetlichny", ghz_state(3), SMALL)


class TestViolationThreshold:
    def test_three_party_threshold(self):
        v = violation_threshold(3, OptimizationConfig(restarts=2, seed=75))
        assert abs(v - 1.0 / SQRT2) < 1e-4

    @pytest.mark.parametrize("n", [4, 5])
    def test_closed_form_on_default_config(self, n):
        assert abs(violation_threshold(n) - 1.0 / SQRT2) < 1e-9

    def test_needs_three_parties(self):
        with pytest.raises(ValueError, match="three"):
            violation_threshold(2, SMALL)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            violation_threshold(3, SMALL, state_family="werner")


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizationConfig(restarts=0)
        with pytest.raises(ValueError):
            OptimizationConfig(max_iters=0)

    def test_json_round_trip(self):
        cfg = OptimizationConfig(restarts=5, seed=99)
        assert OptimizationConfig.from_json_dict(cfg.to_json_dict()) == cfg

    def test_older_step_fields_ignored(self):
        old = {"restarts": 5, "step_init": 1e-8, "step_min": 1e-7, "seed": 99}
        assert OptimizationConfig.from_json_dict(old) == OptimizationConfig(restarts=5, seed=99)

    def test_angles_round_trip(self):
        table = planar_settings(3)
        angles = [[(math.acos(v.z), math.atan2(v.y, v.x)) for v in pair] for pair in table.parties]
        again = SettingsTable.from_bloch(
            [[BlochVector.from_angles(*a).as_list() for a in pair] for pair in angles]
        )
        for pair_a, pair_b in zip(table.parties, again.parties):
            for va, vb in zip(pair_a, pair_b):
                assert abs(va.x - vb.x) < 1e-12
                assert abs(va.y - vb.y) < 1e-12
                assert abs(va.z - vb.z) < 1e-12
