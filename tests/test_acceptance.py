"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one [PASS]/[FAIL] line (run pytest with -s to stream them).
Criterion 5 compares exact integers. Its local (LHV) entries are the true
maximum over deterministic strategies, 2^ceil(N/2); the hybrid entries are the
bipartition bound 2^(N-1), which is the Svetlichny right-hand side and bounds
every local value from above. The two coincide only for N <= 3.
"""

import json
import time

import numpy as np
import pytest

from conftest import (
    SQRT2,
    first_max_hybrid,
    first_max_lhv,
    random_compatible_cycle,
    random_settings,
)

from qwitness import cli
from qwitness.classical import hybrid_bound, lhv_bound, noncontextual_bound
from qwitness.dense import chsh_element, decompose_svetlichny, witness_pair
from qwitness.ineq import (
    chsh_operator,
    chsh_optimal_settings,
    cycle_from_settings,
    noncontextual_cycle,
    svetlichny_operator,
    svetlichny_pattern,
)
from qwitness.opalg import anticommutator, commutator, frob_distance
from qwitness.optimize import (
    OptimizationConfig,
    max_eigenvalue,
    maximize_expectation,
    maximize_violation,
    violation_threshold,
)
from qwitness.qobs import ghz_state, maximally_mixed
from qwitness.witness import evaluate_witness


def report_line(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


@pytest.fixture(scope="module")
def eig_optima():
    """State-free optimizer runs for criterion 6, with wall time."""
    t0 = time.perf_counter()
    results = {
        2: maximize_violation(2, "chsh", OptimizationConfig(restarts=4, seed=101)),
        3: maximize_violation(3, "svetlichny", OptimizationConfig(restarts=4, seed=202)),
        4: maximize_violation(4, "svetlichny", OptimizationConfig(restarts=3, seed=303)),
    }
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ghz3_expectation_opt():
    """GHZ-bound optimizer run for criterion 7, with wall time."""
    t0 = time.perf_counter()
    result = maximize_expectation(
        3, "svetlichny", ghz_state(3), OptimizationConfig(restarts=4, seed=404)
    )
    return result, time.perf_counter() - t0


def test_criterion_1_chsh_witness_identity():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        table = random_settings(2, rng)
        pair = witness_pair(chsh_element(table))
        q = anticommutator(pair.x, pair.y)
        e_matrix = 2.0 * np.eye(4) - chsh_operator(table).matrix
        worst = max(worst, frob_distance(q, 4.0 * e_matrix))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    report_line(
        "criterion 1 (CHSH witness identity {X,Y} = 4E)",
        ok,
        f"max residual {worst:.2e} over 100 draws in {elapsed:.2f}s",
    )
    assert worst < 1e-12
    assert elapsed < 1.0


def test_criterion_2_noncontextuality_identities():
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    worst_xy = 0.0
    worst_anti = 0.0
    cycles = [cycle_from_settings(chsh_optimal_settings())]
    cycles += [random_compatible_cycle(rng) for _ in range(100)]
    for a, b, c, d in cycles:
        x_op, y_op, ec = noncontextual_cycle(a, b, c, d)
        xy_target = 2.0 * ec.matrix + commutator(b, d) + commutator(c, a)
        worst_xy = max(worst_xy, frob_distance(x_op @ y_op, xy_target))
        worst_anti = max(
            worst_anti, frob_distance(anticommutator(x_op, y_op), 4.0 * ec.matrix)
        )
    elapsed = time.perf_counter() - t0
    ok = worst_xy < 1e-12 and worst_anti < 1e-12 and elapsed < 1.0
    report_line(
        "criterion 2 (noncontextuality identities)",
        ok,
        f"XY residual {worst_xy:.2e}, anticommutator residual {worst_anti:.2e} "
        f"over canonical + 100 random realizations in {elapsed:.2f}s",
    )
    assert worst_xy < 1e-12
    assert worst_anti < 1e-12
    assert elapsed < 1.0


def test_criterion_3_element_identity():
    rng = np.random.default_rng(1003)
    t0 = time.perf_counter()
    worst_scaled = 0.0
    for n in (3, 4, 5):
        dim = 2**n
        eye = np.eye(dim)
        for _ in range(20):
            table = random_settings(n, rng)
            for e in decompose_svetlichny(table):
                pair = witness_pair(e)
                q = anticommutator(pair.x, pair.y)
                residual = frob_distance(q, 4.0 * (2.0 * eye - e.operator()))
                worst_scaled = max(worst_scaled, residual / dim)
    elapsed = time.perf_counter() - t0
    ok = worst_scaled < 1e-11 and elapsed < 30.0
    report_line(
        "criterion 3 (element identity {X,Y} = 4(2I - I_elem), N = 3..5)",
        ok,
        f"max residual/dim {worst_scaled:.2e} in {elapsed:.1f}s",
    )
    assert worst_scaled < 1e-11
    assert elapsed < 30.0


def test_criterion_4_total_identity():
    rng = np.random.default_rng(1004)
    t0 = time.perf_counter()
    worst_scaled = 0.0
    for n in (3, 4, 5, 6):
        dim = 2**n
        eye = np.eye(dim)
        for _ in range(10):
            table = random_settings(n, rng)
            total = np.zeros((dim, dim), dtype=complex)
            for e in decompose_svetlichny(table):
                pair = witness_pair(e)
                total += anticommutator(pair.x, pair.y)
            svet = svetlichny_operator(table).matrix
            residual = frob_distance(total, 4.0 * (2 ** (n - 1) * eye - svet))
            worst_scaled = max(worst_scaled, residual / dim)
    elapsed = time.perf_counter() - t0
    ok = worst_scaled < 1e-11 and elapsed < 60.0
    report_line(
        "criterion 4 (total identity Q_tot = 4(2^(N-1) I - I_svet), N = 3..6)",
        ok,
        f"max residual/dim {worst_scaled:.2e} in {elapsed:.1f}s",
    )
    assert worst_scaled < 1e-11
    assert elapsed < 60.0


def test_criterion_5_classical_bounds():
    t0 = time.perf_counter()
    got = {
        "lhv_n2": lhv_bound(svetlichny_pattern(2)).bound,
        "lhv_n3": lhv_bound(svetlichny_pattern(3)).bound,
        "lhv_n4": lhv_bound(svetlichny_pattern(4)).bound,
        "lhv_n5": lhv_bound(svetlichny_pattern(5)).bound,
        "hybrid_n3": hybrid_bound(svetlichny_pattern(3)).bound,
        "hybrid_n4": hybrid_bound(svetlichny_pattern(4)).bound,
        "noncontextual": noncontextual_bound().bound,
    }
    stated = {
        "lhv_n2": 2,
        "lhv_n3": 4,
        "lhv_n4": 4,
        "lhv_n5": 8,
        "hybrid_n3": 4,
        "hybrid_n4": 8,
        "noncontextual": 2,
    }
    elapsed = time.perf_counter() - t0
    mismatches = {k: (got[k], stated[k]) for k in stated if got[k] != stated[k]}
    ok = not mismatches and elapsed < 10.0
    report_line(
        "criterion 5 (classical bounds, exact integers)",
        ok,
        f"enumerated {got} in {elapsed:.1f}s"
        + (f"; mismatches vs stated values: {mismatches}" if mismatches else ""),
    )
    assert elapsed < 10.0
    assert not mismatches, (
        f"enumerated bounds disagree with the stated table: {mismatches}. "
        "Every deterministic strategy gives value Re[(1-i) * prod_p z_p] with "
        "z_p = o_p(0) + i o_p(1) in sqrt(2)*exp(i*odd*pi/4), so the local "
        "maximum is 2^ceil(N/2): 2^(N/2) for even N and 2^((N+1)/2) for odd N. "
        "The hybrid (bipartition) bound 2^(N-1) is the Svetlichny right-hand "
        "side; local and hybrid coincide only for N <= 3.  The itertools "
        "oracle in tests/test_classical.py checks the local values up to N=5."
    )
    for n in (2, 3, 4, 5):
        lhv = got[f"lhv_n{n}"]
        assert lhv <= 2 ** (n - 1), f"local bound {lhv} exceeds 2^(N-1) at N={n}"
        hybrid = got.get(f"hybrid_n{n}")
        assert hybrid is None or lhv <= hybrid, (
            f"local bound {lhv} exceeds the hybrid bound {hybrid} at N={n}"
        )


def test_criterion_6_quantum_maxima(eig_optima):
    results, elapsed = eig_optima
    targets = {2: 2.0 * SQRT2, 3: 4.0 * SQRT2, 4: 8.0 * SQRT2}
    tols = {2: 1e-6, 3: 1e-6, 4: 1e-5}
    errs = {}
    cross = {}
    for n, result in results.items():
        errs[n] = abs(result.best_value - targets[n])
        op = chsh_operator(result.settings) if n == 2 else svetlichny_operator(result.settings)
        cross[n] = abs(max_eigenvalue(op) - result.best_value)
    ok = all(errs[n] <= tols[n] for n in errs) and all(v <= 1e-9 for v in cross.values()) and elapsed < 120.0
    report_line(
        "criterion 6 (quantum maxima 2*sqrt2, 4*sqrt2, 8*sqrt2)",
        ok,
        f"errors {errs[2]:.1e}/{errs[3]:.1e}/{errs[4]:.1e}, oracle gaps "
        f"{max(cross.values()):.1e}, in {elapsed:.1f}s",
    )
    for n in (2, 3, 4):
        assert errs[n] <= tols[n]
        assert cross[n] <= 1e-9
    assert elapsed < 120.0


def test_criterion_7_witness_negativity(ghz3_expectation_opt):
    opt, opt_elapsed = ghz3_expectation_opt
    t0 = time.perf_counter()
    ghz_report = evaluate_witness(opt.settings, ghz_state(3))
    mixed_report = evaluate_witness(opt.settings, maximally_mixed(3))
    elapsed = opt_elapsed + (time.perf_counter() - t0)
    target = 4.0 * (4.0 - 4.0 * SQRT2)
    ghz_err = abs(ghz_report.value - target)
    mixed_err = abs(mixed_report.value - 16.0)
    ok = (
        ghz_err <= 1e-5
        and ghz_report.value < 0.0
        and ghz_report.negative
        and mixed_err <= 1e-9
        and not mixed_report.negative
        and elapsed < 10.0
    )
    report_line(
        "criterion 7 (witness negativity on GHZ, positivity on mixed)",
        ok,
        f"ghz value {ghz_report.value:.7f} (err {ghz_err:.1e}), "
        f"mixed value {mixed_report.value} (err {mixed_err:.1e}), in {elapsed:.1f}s",
    )
    assert ghz_err <= 1e-5
    assert ghz_report.value < 0.0
    assert ghz_report.negative
    assert mixed_err <= 1e-9
    assert not mixed_report.negative
    assert elapsed < 10.0


def test_criterion_8_visibility_threshold():
    t0 = time.perf_counter()
    v_star = violation_threshold(3, OptimizationConfig(restarts=3, seed=505))
    elapsed = time.perf_counter() - t0
    err = abs(v_star - 1.0 / SQRT2)
    ok = err <= 1e-3 and elapsed < 120.0
    report_line(
        "criterion 8 (noisy-GHZ negativity threshold v* = 0.7071)",
        ok,
        f"v* = {v_star:.7f} (err {err:.1e}) in {elapsed:.1f}s",
    )
    assert err <= 1e-3
    assert elapsed < 120.0


def test_criterion_9_deterministic_reports(capsys, tmp_path):
    opt_cfg = tmp_path / "opt.json"
    opt_cfg.write_text(json.dumps({"optimizer": {"restarts": 2, "seed": 13}}), encoding="utf-8")
    commands = [
        ["verify", "--n", "3", "--random", "4", "--seed", "11"],
        ["bounds", "--n", "3"],
        ["witness", "--n", "3", "--state", "noisy-ghz:0.9", "--optimize", "--config", str(opt_cfg)],
        ["optimize", "--n", "2", "--config", str(opt_cfg)],
        ["contextuality", "--state", "ghz"],
    ]
    identical = True
    for argv in commands:
        outputs = []
        for _ in range(2):
            code = cli.main(argv)
            out = capsys.readouterr().out
            assert code == 0
            payload = json.loads(out)
            payload.pop("wall_time_ms")
            outputs.append(cli.canonical_json(payload))
        if outputs[0] != outputs[1]:
            identical = False
    report_line(
        "criterion 9 (seeded runs produce byte-identical reports)",
        identical,
        f"{len(commands)} commands run twice each, timing field excluded",
    )
    assert identical


def test_criterion_10_enumeration_partition_safety():
    identical = True
    for n in (3, 4):
        pattern = svetlichny_pattern(n)
        if lhv_bound(pattern) != first_max_lhv(pattern):
            identical = False
        if hybrid_bound(pattern) != first_max_hybrid(pattern):
            identical = False
    report_line(
        "criterion 10 (bounds equal the brute-force first maximizer)",
        identical,
        "lhv and hybrid at N = 3, 4",
    )
    assert identical
