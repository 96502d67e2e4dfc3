import argparse
import gc
import json
import time
import tracemalloc

import numpy as np
import pytest

from conftest import SQRT2, planar_settings, random_settings

from qwitness import cli, dense, ineq, opalg, qobs, witness


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


SMALL_OPT = {"restarts": 2, "seed": 17}


class TestVerify:
    def test_two_party_random(self, capsys):
        code, report, _ = run_cli(capsys, ["verify", "--n", "2", "--random", "10", "--seed", "3"])
        assert code == 0
        results = report["results"]
        assert results["passed"] is True
        assert set(results["residuals"]) == {"chsh_4e", "noncontextual_xy", "noncontextual_4ec"}
        assert all(v < 1e-12 for v in results["residuals"].values())

    def test_four_party_random(self, capsys):
        code, report, _ = run_cli(capsys, ["verify", "--n", "4", "--random", "5", "--seed", "4"])
        assert code == 0
        residuals = report["results"]["residuals"]
        assert "total" in residuals
        assert all(
            residuals[k] <= report["results"]["thresholds"][k] for k in residuals
        )

    def test_settings_from_config(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"settings": planar_settings(3).to_json_dict()})
        code, report, _ = run_cli(capsys, ["verify", "--n", "3", "--config", cfg])
        assert code == 0
        assert report["results"]["trials"] == 1

    def test_corrupted_sign_fails_with_named_identity(self, capsys):
        code, report, _ = run_cli(
            capsys,
            ["verify", "--n", "3", "--random", "2", "--seed", "5", "--corrupt-sign", "3"],
        )
        assert code == 2
        failed = report["results"]["failed_identity"]
        assert failed["name"] == "chsh_type_certification"
        assert report["results"]["passed"] is False
        assert report["results"]["trials"] == 2

    def test_corrupt_sign_checked_before_any_draw(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("settings drawn")

        monkeypatch.setattr(cli.Lcg64, "settings", refuse)
        code, report, err = run_cli(
            capsys, ["verify", "--n", "3", "--random", "5", "--corrupt-sign", "8"]
        )
        assert code == 3
        assert report is None
        assert "corrupt-sign index 8 out of range" in err

    def test_random_tables_do_not_accumulate(self):
        def peak(k):
            tracemalloc.start()
            try:
                _, code = cli.cmd_verify({"n_parties": 3, "seed": 5, "random_trials": k})
                assert code == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        was_enabled = gc.isenabled()
        # A full collection empties the interpreter's free lists, and their
        # refill would show as a one-time rise; the warm-up fills them.
        gc.disable()
        try:
            cli.cmd_verify({"n_parties": 3, "seed": 5, "random_trials": 2000})
            small, large = peak(20), peak(2000)
        finally:
            if was_enabled:
                gc.enable()
        # One three-party settings table takes about 1.3 kB, so this fails
        # if even one drawn table outlives its check.
        assert large <= small + 1024

    def test_requires_settings_or_random(self, capsys):
        code, report, err = run_cli(capsys, ["verify", "--n", "3"])
        assert code == 3
        assert report is None
        assert "settings" in err


class TestBounds:
    def test_three_parties(self, capsys):
        code, report, _ = run_cli(capsys, ["bounds", "--n", "3"])
        assert code == 0
        results = report["results"]
        assert results["lhv"]["bound"] == 4
        assert results["hybrid"]["bound"] == 4
        assert results["noncontextual"]["bound"] == 2

    def test_two_parties(self, capsys):
        code, report, _ = run_cli(capsys, ["bounds", "--n", "2"])
        assert code == 0
        assert report["results"]["lhv"]["bound"] == 2
        assert report["results"]["hybrid"]["bound"] == 2

    def test_five_parties_skips_hybrid(self, capsys):
        code, report, _ = run_cli(capsys, ["bounds", "--n", "5"])
        assert code == 0
        results = report["results"]
        assert results["lhv"]["bound"] == 8
        assert results["hybrid"] is None
        assert "skipped" in results["hybrid_notice"]

    def test_cap_exceeded(self, capsys):
        code, report, err = run_cli(capsys, ["bounds", "--n", "9"])
        assert code == 4
        assert report is None
        assert err.count("\n") == 1
        assert "capped at N = 8" in err and "hybrid_bound is capped at N = 5" in err

    @pytest.mark.parametrize("n", [23, 30, 1000000])
    def test_cap_checked_before_the_pattern_is_built(self, capsys, n):
        started = time.perf_counter()
        code, report, err = run_cli(capsys, ["bounds", "--n", str(n)])
        assert time.perf_counter() - started < 1.0
        assert code == 4
        assert report is None
        assert err.count("\n") == 1 and "capped at N = 8" in err


class TestOptimize:
    def test_chsh(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"optimizer": SMALL_OPT})
        code, report, _ = run_cli(capsys, ["optimize", "--n", "2", "--config", cfg])
        assert code == 0
        results = report["results"]
        assert results["kind"] == "chsh"
        assert abs(results["best_value"] - 2.0 * SQRT2) < 1e-6
        assert len(results["settings"]["parties"]) == 2


class TestWitness:
    def test_mixed_state_with_settings(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"settings": planar_settings(3).to_json_dict()})
        code, report, _ = run_cli(
            capsys, ["witness", "--n", "3", "--state", "mixed", "--config", cfg]
        )
        assert code == 0
        payload = report["results"]["report"]
        assert abs(payload["value"] - 16.0) < 1e-9
        assert payload["negative"] is False

    def test_ghz_with_optimizer(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"optimizer": SMALL_OPT})
        code, report, _ = run_cli(
            capsys, ["witness", "--n", "3", "--state", "ghz", "--optimize", "--config", cfg]
        )
        assert code == 0
        payload = report["results"]["report"]
        assert payload["negative"] is True
        assert abs(payload["value"] - 4.0 * (4.0 - 4.0 * SQRT2)) < 1e-5

    def test_noisy_ghz_below_threshold(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"settings": planar_settings(3).to_json_dict()})
        code, report, _ = run_cli(
            capsys, ["witness", "--n", "3", "--state", "noisy-ghz:0.5", "--config", cfg]
        )
        assert code == 0
        assert report["results"]["report"]["negative"] is False

    def test_product_state(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"settings": planar_settings(3).to_json_dict()})
        code, report, _ = run_cli(
            capsys, ["witness", "--n", "3", "--state", "product", "--config", cfg]
        )
        assert code == 0
        assert report["results"]["report"]["value"] >= -1e-9

    def test_mixed_state_with_optimizer(self, capsys):
        # Every gradient vanishes on I/d: the see-saw keeps its start and stops.
        code, report, _ = run_cli(capsys, ["witness", "--n", "3", "--state", "mixed", "--optimize"])
        assert code == 0
        assert report["results"]["optimizer"]["best_value"] == 0
        assert report["results"]["optimizer"]["converged"] is True
        assert report["results"]["report"]["value"] == 16

    def test_product_state_with_optimizer(self, capsys):
        code, report, _ = run_cli(
            capsys, ["witness", "--n", "3", "--state", "product", "--optimize"]
        )
        assert code == 0
        assert report["results"]["report"]["value"] >= -1e-9

    def test_needs_settings_or_optimize(self, capsys):
        code, _, err = run_cli(capsys, ["witness", "--n", "3", "--state", "ghz"])
        assert code == 3
        assert "--optimize" in err

    @pytest.mark.parametrize(
        "payload, flags",
        [
            ({"settings": None}, ["--optimize"]),
            ({"settings": None, "optimize": True}, []),
        ],
        ids=["flag", "config"],
    )
    def test_settings_and_optimize_together_rejected(self, capsys, tmp_path, payload, flags):
        payload = dict(payload, settings=planar_settings(3).to_json_dict())
        cfg = write_config(tmp_path, payload)
        code, report, err = run_cli(
            capsys, ["witness", "--n", "3", "--state", "ghz", "--config", cfg] + flags
        )
        assert code == 3
        assert report is None
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("qwitness: invalid config:")
        assert "settings table" in lines[0] and "--optimize" in lines[0]

    def test_unknown_state_tag(self, capsys):
        code, _, err = run_cli(capsys, ["witness", "--n", "3", "--state", "werner"])
        assert code == 3
        assert "state tag" in err


class TestContextuality:
    def test_defaults_pass(self, capsys):
        code, report, _ = run_cli(capsys, ["contextuality"])
        assert code == 0
        results = report["results"]
        assert results["passed"] is True
        assert all(v < 1e-12 for v in results["identity_residuals"].values())
        assert all(v >= -1e-9 for v in results["min_eigenvalues"].values())

    def test_bell_state_expectation(self, capsys):
        code, report, _ = run_cli(capsys, ["contextuality", "--state", "ghz"])
        assert code == 0
        value = report["results"]["ec_expectation"]
        assert abs(value - (2.0 - 2.0 * SQRT2)) < 1e-9
        assert value < 0.0

    def test_product_state_expectation_nonnegative(self, capsys):
        code, report, _ = run_cli(capsys, ["contextuality", "--state", "product"])
        assert code == 0
        assert report["results"]["ec_expectation"] >= -1e-10

    def test_state_matrix_must_be_positive_semidefinite(self, capsys, tmp_path):
        # Hermitian with unit trace, but one eigenvalue is negative.
        diag = (1.5, -0.5, 0.0, 0.0)
        rho = [[[diag[i] if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        cfg = write_config(tmp_path, {"state_matrix": rho})
        code, report, err = run_cli(capsys, ["contextuality", "--config", cfg])
        assert code == 3
        assert report is None
        assert err.count("\n") == 1
        assert err.startswith("qwitness: invalid config: ")
        assert "positive semidefinite" in err

    def test_custom_incompatible_cycle(self, capsys, tmp_path):
        def as_pairs(m):
            return [[[z.real, z.imag] for z in row] for row in np.asarray(m, dtype=complex)]

        x = np.kron(np.array([[0, 1], [1, 0.0]]), np.eye(2))
        z = np.kron(np.array([[1, 0], [0, -1.0]]), np.eye(2))
        eye = np.eye(4)
        cfg = write_config(
            tmp_path,
            {"cycle": {"a": as_pairs(x), "b": as_pairs(z), "c": as_pairs(eye), "d": as_pairs(eye)}},
        )
        code, report, _ = run_cli(capsys, ["contextuality", "--config", cfg])
        assert code == 2
        assert "not compatible" in report["results"]["error"]

    def test_custom_compatible_cycle(self, capsys, tmp_path):
        from qwitness.ineq import cycle_from_settings, chsh_optimal_settings

        def as_pairs(m):
            return [[[z.real, z.imag] for z in row] for row in m]

        a, b, c, d = cycle_from_settings(chsh_optimal_settings())
        cfg = write_config(
            tmp_path,
            {"cycle": {"a": as_pairs(a), "b": as_pairs(b), "c": as_pairs(c), "d": as_pairs(d)}},
        )
        code, report, _ = run_cli(capsys, ["contextuality", "--config", cfg])
        assert code == 0
        assert report["results"]["passed"] is True


class TestReportContract:
    def test_round_trip_is_byte_identical(self, capsys):
        code, _, _ = run_cli(capsys, ["bounds", "--n", "3"])
        assert code == 0
        # rerun to grab raw stdout text
        cli_code = cli.main(["bounds", "--n", "3"])
        out = capsys.readouterr().out
        assert cli_code == 0
        assert cli.canonical_json(json.loads(out)) == out

    def test_seed_determinism_modulo_timing(self, capsys):
        argv = ["verify", "--n", "3", "--random", "4", "--seed", "11"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        first.pop("wall_time_ms")
        second.pop("wall_time_ms")
        assert cli.canonical_json(first) == cli.canonical_json(second)

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code = cli.main(["bounds", "--n", "2", "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert out_path.read_text(encoding="utf-8") == captured.out

    def test_out_write_failure_prints_no_report(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "report.json"
        code = cli.main(["bounds", "--n", "3", "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "cannot write report" in captured.err

    def test_report_envelope_fields(self, capsys):
        _, report, _ = run_cli(capsys, ["bounds", "--n", "2"])
        assert set(report) == {
            "artifact_version",
            "command",
            "inputs_digest",
            "results",
            "wall_time_ms",
        }
        assert report["artifact_version"] == "0.1.0"
        assert len(report["inputs_digest"]) == 64

    def test_bad_config_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, report, err = run_cli(capsys, ["bounds", "--config", str(bad)])
        assert code == 3
        assert report is None
        assert "config" in err

    def test_settings_party_count_mismatch(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"settings": planar_settings(3).to_json_dict()})
        code, _, err = run_cli(capsys, ["witness", "--n", "4", "--state", "ghz", "--config", cfg])
        assert code == 3
        assert "parties" in err


def tree_walk_json(payload) -> str:
    """canonical_json as it was before numpy values went through json's
    default hook: one recursive conversion of the whole payload first."""

    def plain(x):
        if isinstance(x, dict):
            return {str(k): plain(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [plain(v) for v in x]
        if isinstance(x, (bool, np.bool_)):
            return bool(x)
        if isinstance(x, (int, np.integer)):
            return int(x)
        if isinstance(x, (float, np.floating)):
            return float(x)
        if x is None or isinstance(x, str):
            return x
        if isinstance(x, np.ndarray):
            return [plain(v) for v in x.tolist()]
        raise TypeError(f"cannot serialize {type(x)!r}")

    return json.dumps(plain(payload), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


class TestCanonicalJson:
    """canonical_json writes every payload byte for byte as the recursive
    conversion it replaced."""

    def test_every_command_matches_the_tree_walk(self, capsys, tmp_path, monkeypatch):
        payloads = []
        original = cli.canonical_json

        def recording(payload):
            payloads.append(payload)
            return original(payload)

        monkeypatch.setattr(cli, "canonical_json", recording)
        settings = write_config(tmp_path, {"settings": planar_settings(3).to_json_dict()})
        optimizer = write_config(tmp_path, {"optimizer": SMALL_OPT}, name="opt.json")
        rho = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        state_matrix = write_config(tmp_path, {"state_matrix": rho}, name="rho.json")
        argvs = [
            ["verify", "--n", "2", "--random", "3"],
            ["verify", "--n", "4", "--random", "2", "--seed", "9"],
            ["verify", "--n", "3", "--random", "1", "--corrupt-sign", "3"],
            ["bounds", "--n", "2"],
            ["bounds", "--n", "4"],
            ["bounds", "--n", "5"],
            ["optimize", "--n", "3", "--config", optimizer],
            *(
                ["witness", "--n", "3", "--state", state, "--config", settings]
                for state in ("ghz", "mixed", "noisy-ghz:0.8", "product")
            ),
            ["witness", "--n", "2", "--state", "noisy-ghz:0.9", "--optimize",
             "--config", optimizer],
            ["contextuality"],
            ["contextuality", "--state", "product"],
            ["contextuality", "--config", state_matrix],
        ]
        for argv in argvs:
            assert cli.main(argv) in (0, 2)
            capsys.readouterr()
        # Each run serializes its config for inputs_digest, then its report.
        assert len(payloads) == 2 * len(argvs)
        for payload in payloads:
            assert original(payload) == tree_walk_json(payload)

    def test_numpy_values_match_the_tree_walk(self):
        payload = {
            "flag": np.bool_(True),
            "count": np.int64(3),
            "single": np.float32(0.1),
            "double": np.float64(1.0) / 3.0,
            "vector": np.arange(3),
            "matrix": np.array([[0.1, np.inf], [-0.0, 2.5e-300]]),
            "pair": (1, 2.5),
            "nested": [{"b": None, "a": "x"}],
        }
        assert cli.canonical_json(payload) == tree_walk_json(payload)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError, match="cannot serialize"):
            cli.canonical_json({"x": object()})


class TestSettingsPartySize:
    """A config party with other than two Bloch vectors is an invalid config."""

    @pytest.mark.parametrize("command", ["verify", "witness"])
    @pytest.mark.parametrize("count", [1, 3])
    def test_exits_three_with_one_line(self, capsys, tmp_path, command, count):
        parties = planar_settings(3).to_json_dict()["parties"]
        parties[1] = [parties[1][0]] * count
        cfg = write_config(tmp_path, {"settings": {"parties": parties}})
        code, report, err = run_cli(capsys, [command, "--n", "3", "--config", cfg])
        assert code == 3
        assert report is None
        assert err.count("\n") == 1
        assert "exactly two Bloch vectors" in err


class TestEigensolverCap:
    """Commands that need a 2^N eigensolve stop at once above the cap."""

    @staticmethod
    def exits_four_at_once(capsys, argv):
        started = time.perf_counter()
        code, report, err = run_cli(capsys, argv)
        assert time.perf_counter() - started < 1.0
        assert code == 4
        assert report is None
        assert "eigensolver cap" in err

    def test_verify(self, capsys):
        self.exits_four_at_once(capsys, ["verify", "--n", "9", "--random", "1"])

    def test_witness(self, capsys):
        self.exits_four_at_once(capsys, ["witness", "--n", "9", "--optimize"])

    def test_optimize(self, capsys):
        self.exits_four_at_once(capsys, ["optimize", "--n", "9"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--n", "1000000"],
            ["witness", "--n", "1000000", "--optimize"],
            ["verify", "--n", "1000000", "--random", "1"],
        ],
        ids=["optimize", "witness", "verify"],
    )
    def test_huge_party_count(self, capsys, argv):
        # 2^N has over 300000 digits here; the cap compares N itself.
        self.exits_four_at_once(capsys, argv)


class TestIntegerFields:
    @pytest.mark.parametrize(
        "payload",
        [
            {"optimizer": {"restarts": 1.5}},
            {"optimizer": {"max_iters": 10.0}},
            {"optimizer": {"seed": True}},
            {"optimizer": {"restarts": True}},
            {"seed": 2.5},
            {"random_trials": 2.7},
            {"random_trials": True},
            {"corrupt_sign": -0.5},
            {"corrupt_sign": 1.9},
        ],
    )
    def test_optimizer_fields_rejected(self, capsys, tmp_path, payload):
        cfg = write_config(tmp_path, payload)
        code, report, err = run_cli(capsys, ["optimize", "--n", "2", "--config", cfg])
        assert code == 3
        assert report is None
        assert "must be an integer" in err

    @pytest.mark.parametrize("value", [True, 3.0, "3"])
    def test_n_parties_rejected(self, capsys, tmp_path, value):
        cfg = write_config(tmp_path, {"n_parties": value})
        code, report, err = run_cli(capsys, ["bounds", "--config", cfg])
        assert code == 3
        assert report is None
        assert "n_parties must be an integer" in err

    @pytest.mark.parametrize("trials", ["-1", "0"])
    def test_random_trials_must_be_positive(self, capsys, trials):
        code, report, err = run_cli(capsys, ["verify", "--n", "3", "--random", trials])
        assert code == 3
        assert report is None
        assert "random_trials must be at least 1" in err


class TestWronglyTypedFields:
    @pytest.mark.parametrize(
        "payload, argv",
        [
            ({"state": 5}, ["witness", "--n", "3", "--optimize"]),
            ({"state": 5}, ["contextuality"]),
            ({"optimizer": [1, 2]}, ["optimize", "--n", "2"]),
            ({"optimizer": [1, 2]}, ["witness", "--n", "2", "--optimize"]),
            ({"cycle": 3}, ["contextuality"]),
        ],
        ids=[
            "state-witness",
            "state-contextuality",
            "optimizer-optimize",
            "optimizer-witness",
            "cycle-contextuality",
        ],
    )
    def test_exits_three_with_one_line(self, capsys, tmp_path, payload, argv):
        cfg = write_config(tmp_path, payload)
        code, report, err = run_cli(capsys, [*argv, "--config", cfg])
        assert code == 3
        assert report is None
        assert err.count("\n") == 1
        assert err.startswith("qwitness: invalid config: ")


def nan_settings():
    data = planar_settings(3).to_json_dict()
    data["parties"][0][0] = [float("nan"), 0.0, 1.0]
    return data


def nan_state_matrix():
    rho = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    rho[0][0] = [float("nan"), 0.0]
    return rho


class TestNonFiniteNumbers:
    """JSON accepts NaN and Infinity; no config number may be non-finite."""

    @pytest.mark.parametrize(
        "payload, argv",
        [
            (
                {"state": "product", "product_blochs": [[float("nan"), 0.0, 1.0]] * 3},
                ["witness", "--n", "3", "--optimize"],
            ),
            ({"state_matrix": nan_state_matrix()}, ["contextuality"]),
            ({"settings": nan_settings()}, ["verify", "--n", "3"]),
        ],
        ids=["product_blochs-witness", "state_matrix-contextuality", "settings-verify"],
    )
    def test_exits_three_with_one_line(self, capsys, tmp_path, payload, argv):
        cfg = write_config(tmp_path, payload)
        code, report, err = run_cli(capsys, [*argv, "--config", cfg])
        assert code == 3
        assert report is None
        assert err.count("\n") == 1
        assert err.startswith("qwitness: invalid config: ")
        assert "must be finite" in err


class TestParserReuse:
    ARGVS = (
        ["verify", "--n", "3", "--random", "2", "--seed", "5"],
        ["bounds", "--n", "3"],
        ["witness", "--n", "2", "--state", "mixed", "--optimize"],
    )

    @staticmethod
    def stdout_without_timing(capsys, argv):
        cli.main(argv)
        out = capsys.readouterr().out
        return [line for line in out.splitlines() if '"wall_time_ms"' not in line]

    def test_repeated_calls_print_identical_reports(self, capsys):
        assert cli._parser() is cli._parser()
        first = [self.stdout_without_timing(capsys, argv) for argv in self.ARGVS]
        assert cli.main(["verify", "--no-such-flag"]) == 3
        capsys.readouterr()
        second = [self.stdout_without_timing(capsys, argv) for argv in self.ARGVS]
        assert all(first)
        assert first == second


class TestCommandTable:
    """Each subcommand takes only the flags it reads, and the party count is
    checked once, before the command runs."""

    FLAGS = {
        "verify": {"--config", "--n", "--random", "--seed", "--corrupt-sign", "--out"},
        "bounds": {"--config", "--n", "--out"},
        "optimize": {"--config", "--n", "--seed", "--out"},
        "witness": {"--config", "--n", "--state", "--optimize", "--seed", "--out"},
        "contextuality": {"--config", "--state", "--out"},
    }

    @staticmethod
    def exits_with_one_line(capsys, argv, code, text):
        found, report, err = run_cli(capsys, argv)
        assert found == code
        assert report is None
        assert err.count("\n") == 1
        assert text in err
        return err

    def test_each_command_takes_only_the_flags_it_reads(self):
        (sub,) = (a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
        found = {
            name: {s for action in p._actions for s in action.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        assert found == self.FLAGS
        assert sum(map(len, found.values())) == 22

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["bounds", "--n", "3", "--seed", "7"], "unrecognized arguments: --seed 7"),
            (["bounds", "--n", "3", "--optimize"], "unrecognized arguments: --optimize"),
            (["bounds", "--n", "3", "--random", "5"], "unrecognized arguments: --random 5"),
            (["bounds", "--n", "3", "--state", "product"], "unrecognized arguments: --state"),
            (["contextuality", "--n", "7"], "unrecognized arguments: --n 7"),
            (["optimize", "--n", "2", "--state", "ghz"], "unrecognized arguments: --state"),
            (["verify", "--bogus"], "unrecognized arguments: --bogus"),
            (["verify", "--n", "abc"], "invalid int value: 'abc'"),
            (["frobnicate"], "invalid choice"),
            ([], "required: command"),
        ],
    )
    def test_usage_errors_exit_three(self, capsys, argv, text):
        err = self.exits_with_one_line(capsys, argv, 3, text)
        assert err.startswith("qwitness: invalid config: ")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bounds", "--help"])
        assert exc.value.code == 0
        assert "--n N" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["verify", "bounds", "optimize", "witness"])
    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_party_floor(self, capsys, tmp_path, command, n):
        self.exits_with_one_line(
            capsys, [command, "--n", str(n)], 3, f"{command} needs at least two parties"
        )
        cfg = write_config(tmp_path, {"n_parties": n})
        self.exits_with_one_line(
            capsys, [command, "--config", cfg], 3, f"{command} needs at least two parties"
        )

    @pytest.mark.parametrize("n", [1, 10**6])
    def test_contextuality_reads_no_party_count(self, capsys, tmp_path, n):
        cfg = write_config(tmp_path, {"n_parties": n})
        code, report, _ = run_cli(capsys, ["contextuality", "--config", cfg])
        assert code == 0 and report["results"]["passed"] is True

    def test_party_count_checked_before_the_optimizer_field(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"optimizer": [1, 2]})
        self.exits_with_one_line(capsys, ["optimize", "--n", "9", "--config", cfg], 4, "cap")
        self.exits_with_one_line(
            capsys, ["optimize", "--n", "1", "--config", cfg], 3, "at least two parties"
        )
        self.exits_with_one_line(
            capsys, ["optimize", "--n", "2", "--config", cfg], 3, "optimizer must be"
        )


class TestFactoredPath:
    """verify and witness never reach the dense per-element construction."""

    def test_dense_witness_path_unused(self, capsys, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense witness path reached")

        monkeypatch.setattr(dense, "term", refuse)
        monkeypatch.setattr(dense, "witness_pair", refuse)
        for module in (opalg, ineq, dense):
            monkeypatch.setattr(module, "anticommutator", refuse)
        code, report, _ = run_cli(capsys, ["verify", "--n", "7", "--random", "2"])
        assert code == 0 and report["results"]["passed"]
        table = random_settings(7, np.random.default_rng(8))
        cfg = write_config(tmp_path, {"settings": table.to_json_dict()})
        code, report, _ = run_cli(
            capsys, ["witness", "--n", "7", "--state", "noisy-ghz:0.8", "--config", cfg]
        )
        assert code == 0
        assert set(report["results"]["report"]["identity_residuals"]) == {
            *(f"element_xi{k}" for k in range(32)),
            "total",
        }

    def test_witness_builds_no_dense_operator(self, capsys, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense operator path reached")

        for module in (ineq, dense):
            monkeypatch.setattr(module, "svetlichny_operator", refuse)
            monkeypatch.setattr(module, "operator_sum", refuse)
        for module in (qobs, cli):
            monkeypatch.setattr(module, "expectation", refuse)
        table = random_settings(7, np.random.default_rng(9))
        cfg = write_config(tmp_path, {"settings": table.to_json_dict()})
        code, report, _ = run_cli(
            capsys, ["witness", "--n", "7", "--state", "noisy-ghz:0.8", "--config", cfg]
        )
        assert code == 0
        assert report["results"]["report"]["negative"] is False


    def test_witness_builds_no_dense_state(self, capsys, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense state built")

        for name in ("ghz_state", "noisy_mixture", "maximally_mixed", "product_state"):
            for module in (qobs, cli):
                monkeypatch.setattr(module, name, refuse, raising=False)
        table = random_settings(8, np.random.default_rng(10))
        cfg = write_config(tmp_path, {"settings": table.to_json_dict()})
        for state in ("ghz", "mixed", "noisy-ghz:0.8", "product"):
            code, report, _ = run_cli(
                capsys, ["witness", "--n", "8", "--state", state, "--config", cfg]
            )
            assert code == 0
            assert report["results"]["state"] == state
        # The optimizer's see-saw needs no dense state, but its oracle check
        # at N <= 8 does, so there the patch bites.
        with pytest.raises(AssertionError, match="dense state built"):
            cli.main(["witness", "--n", "3", "--state", "ghz", "--optimize"])


def flipped_svetlichny_pattern(n):
    # cli holds the unpatched function, so this does not recurse.
    return cli.svetlichny_pattern(n).flipped(0)


class TestIdentityFailureExit:
    """An identity failure in any command exits 2 with one named stderr line."""

    @pytest.mark.parametrize(
        "target, attribute, value, name",
        [
            (witness, "VALUE_CROSSCHECK_TOL", -1.0, "anticommutator_cancellation"),
            (ineq, "svetlichny_pattern", flipped_svetlichny_pattern, "chsh_type_certification"),
        ],
        ids=["value_crosscheck", "sign_certification"],
    )
    def test_witness_command(self, capsys, tmp_path, monkeypatch, target, attribute, value, name):
        monkeypatch.setattr(target, attribute, value)
        cfg = write_config(tmp_path, {"settings": planar_settings(3).to_json_dict()})
        code, report, err = run_cli(
            capsys, ["witness", "--n", "3", "--state", "ghz", "--config", cfg]
        )
        assert code == 2
        assert report is None
        assert err.count("\n") == 1
        assert err.startswith(f"qwitness: {name}: ")
