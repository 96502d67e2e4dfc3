"""Workload schedules, seeded inputs and per-task correctness checks.

A workload is a fixed round-robin cycle of task positions.  The seed drives
only the input values (settings tables, sign-pattern relabellings, optimizer
seeds), never the mix, so the latency percentiles land on the same task
kinds in every run.  Every input is generated here, during set-up; the
program receives only argv lists, config files and sign patterns.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import qwitness
from qwitness import cli

WORKLOADS = ("certify", "bounds", "optimize")

# Distinct input sets generated per cycle position.  A run that completes
# more cycles than this reuses inputs in order; 40 s runs on a 2-core machine
# completed at most 43 certify cycles, 107 bounds cycles and 18 optimize
# cycles.
VARIANTS = {"certify": 128, "bounds": 256, "optimize": 64}

CERTIFY_NS = (3, 4, 5, 6, 7)
CERTIFY_VISIBILITY = 0.8
OPTIMIZE_NS = (2, 3, 4)
OPTIMIZE_VISIBILITY = 0.9
# One restart per task keeps a task a single ascent.  A minimum step of 1e-3
# still places every angle within ~1e-6 rad (the golden-section tolerance is
# step * 1e-3), far inside the 1e-6 relative hit criterion, and cuts the
# shrinking sweeps so a 40 s run completes more than 100 tasks.
OPTIMIZER_KNOBS = {"restarts": 1, "step_min": 1e-3}

# Warm-up runs the leading tasks of one extra cycle, on inputs the timed loop
# never sees.  certify and bounds run the whole cycle, so the first timed
# pass does not pay first-use costs of the large matrices; optimize runs its
# N = 2 tasks only, since its matrices stay 16 x 16 and a full cycle would
# quadruple set-up.
WARMUP_TASKS = {"certify": 10, "bounds": 11, "optimize": 3}

WITNESS_VALUE_TOL = 1e-9
OPT_EXCESS_TOL = 1e-9
OPT_HIT_REL = 1e-6


class CheckFailed(Exception):
    """A task's output disagreed with the expected value."""


@dataclass(frozen=True)
class Task:
    """One closed-loop request: a CLI argv or a library call, plus its check.

    ``check`` receives the parsed CLI report (or the library result) and
    raises CheckFailed on a wrong answer.  It returns True/False for whether
    an optimizer task reached the analytic optimum, and None otherwise.
    """

    name: str
    check: Callable
    argv: tuple[str, ...] | None = None
    call: Callable | None = None


# ---------------------------------------------------------------- expected


def lhv_expected(n: int) -> int:
    """Local bound of the Svetlichny polynomial: 2^(N/2) for even N, 2^((N+1)/2)
    for odd N (4 and 8 at N = 4, 5, as enumeration gives)."""
    return 2 ** (n // 2) if n % 2 == 0 else 2 ** ((n + 1) // 2)


def quantum_optimum(n: int, visibility: float = 1.0) -> float:
    """Largest Svetlichny value: 2^(N-1) sqrt(2), times v on noisy GHZ."""
    return visibility * 2 ** (n - 1) * math.sqrt(2.0)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------- checks


def _check_verify(n: int):
    def check(report: dict):
        res = report["results"]
        _expect(res["n_parties"] == n, f"n_parties {res['n_parties']} != {n}")
        _expect(res["passed"] is True, f"passed is {res['passed']!r}")
        for key, value in res["residuals"].items():
            limit = res["thresholds"][key]
            _expect(value <= limit, f"residual {key} = {value} > {limit}")
        return None

    return check


def _check_witness_report(rep: dict, n: int) -> None:
    bound = 2.0 ** (n - 1)
    _expect(rep["n_parties"] == n, f"n_parties {rep['n_parties']} != {n}")
    gap = abs(rep["value"] - 4.0 * (bound - rep["svet_value"]))
    _expect(gap <= WITNESS_VALUE_TOL, f"witness value off 4(2^(N-1) - S) by {gap:.3e}")
    _expect(
        rep["negative"] == (rep["svet_value"] > bound),
        f"negative={rep['negative']} but svet_value={rep['svet_value']}",
    )


def _check_witness(n: int):
    def check(report: dict):
        _check_witness_report(report["results"]["report"], n)
        return None

    return check


def _check_optimum(best: float, optimum: float) -> bool:
    _expect(
        best <= optimum + OPT_EXCESS_TOL,
        f"optimized value {best} exceeds analytic optimum {optimum}",
    )
    return abs(best - optimum) <= OPT_HIT_REL * optimum


def _check_optimize(n: int):
    def check(report: dict):
        res = report["results"]
        _expect(res["n_parties"] == n, f"n_parties {res['n_parties']} != {n}")
        return _check_optimum(res["best_value"], quantum_optimum(n))

    return check


def _check_witness_optimize(n: int, visibility: float):
    def check(report: dict):
        res = report["results"]
        _check_witness_report(res["report"], n)
        return _check_optimum(res["optimizer"]["best_value"], quantum_optimum(n, visibility))

    return check


def _check_bounds_cli(n: int):
    def check(report: dict):
        res = report["results"]
        lhv = res["lhv"]
        _expect(lhv["bound"] == lhv_expected(n), f"lhv {lhv['bound']} != {lhv_expected(n)}")
        _expect(lhv["evaluations"] == 4**n, f"lhv evaluations {lhv['evaluations']} != 4^{n}")
        if n <= 4:
            hyb = res["hybrid"]["bound"]
            _expect(hyb == 2 ** (n - 1), f"hybrid {hyb} != {2 ** (n - 1)}")
        else:
            _expect(res["hybrid"] is None, "hybrid bound reported above the CLI cap")
        nc = res["noncontextual"]["bound"]
        _expect(nc == 2, f"noncontextual {nc} != 2")
        return None

    return check


def _strategy_value(coeffs: tuple[int, ...], outcomes) -> int:
    """Polynomial value of a deterministic strategy, evaluated independently."""
    n = len(outcomes)
    total = 0
    for word, coeff in enumerate(coeffs):
        prod = coeff
        for p in range(n):
            prod *= outcomes[p][(word >> (n - 1 - p)) & 1]
        total += prod
    return total


def _check_lhv_lib(pattern):
    n = pattern.n_parties

    def check(result):
        _expect(result.bound == lhv_expected(n), f"lhv {result.bound} != {lhv_expected(n)}")
        _expect(result.evaluations == 4**n, f"lhv evaluations {result.evaluations} != 4^{n}")
        value = _strategy_value(pattern.coeffs, result.argmax_strategy.outcomes)
        _expect(value == result.bound, f"argmax strategy scores {value}, bound {result.bound}")
        return None

    return check


def _check_hybrid_lib(pattern):
    n = pattern.n_parties

    def check(result):
        _expect(result.bound == 2 ** (n - 1), f"hybrid {result.bound} != {2 ** (n - 1)}")
        return None

    return check


# ---------------------------------------------------------------- inputs


def _unit_vector(rng: np.random.Generator) -> list[float]:
    v = rng.standard_normal(3)
    return (v / np.linalg.norm(v)).tolist()


def _settings_config(n: int, rng: np.random.Generator) -> dict:
    return {"settings": {"parties": [[_unit_vector(rng), _unit_vector(rng)] for _ in range(n)]}}


def relabelled_svetlichny(n: int, rng: np.random.Generator):
    """Svetlichny pattern under per-party setting swaps and outcome flips.

    Both maps are bijections of the deterministic and hybrid strategy sets,
    so the local and hybrid bounds stay exact while the argmax moves.
    """
    coeffs = list(qwitness.svetlichny_pattern(n).coeffs)
    for p in range(n):
        shift = n - 1 - p
        if rng.integers(2):
            coeffs = [coeffs[w ^ (1 << shift)] for w in range(2**n)]
        for setting in (0, 1):
            if rng.integers(2):
                coeffs = [
                    -c if (w >> shift) & 1 == setting else c for w, c in enumerate(coeffs)
                ]
    return qwitness.SignPattern(n, tuple(coeffs))


def _write_config(workdir: str, name: str, payload: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def _lhv_call(pattern):
    # Resolved at call time so a traced run reaches the wrapped function.
    return lambda: qwitness.lhv_bound(pattern)


def _hybrid_call(pattern):
    return lambda: qwitness.hybrid_bound(pattern)


def _certify_cycle(c: int, rng, workdir: str) -> list[Task]:
    tasks = []
    for n in CERTIFY_NS:
        seed = str(int(rng.integers(1, 2**31)))
        tasks.append(
            Task(f"verify-n{n}", _check_verify(n),
                 argv=("verify", "--n", str(n), "--random", "1", "--seed", seed))
        )
        path = _write_config(workdir, f"certify-{c}-n{n}.json", _settings_config(n, rng))
        tasks.append(
            Task(f"witness-n{n}", _check_witness(n),
                 argv=("witness", "--n", str(n), "--state",
                       f"noisy-ghz:{CERTIFY_VISIBILITY}", "--config", path))
        )
    return tasks


def _bounds_cycle(c: int, rng, workdir: str) -> list[Task]:
    def cli_task(n):
        return Task(f"bounds-n{n}", _check_bounds_cli(n), argv=("bounds", "--n", str(n)))

    def lhv_task(n):
        p = relabelled_svetlichny(n, rng)
        return Task(f"lhv_bound-n{n}", _check_lhv_lib(p), call=_lhv_call(p))

    def hybrid_task(n):
        p = relabelled_svetlichny(n, rng)
        return Task(f"hybrid_bound-n{n}", _check_hybrid_lib(p), call=_hybrid_call(p))

    # lhv_bound at N = 7 runs twice so that, sorted by latency, four tasks
    # sit below it and five above: the median falls inside one task kind
    # instead of on the gap between two.
    return [
        cli_task(4), lhv_task(6), cli_task(5), lhv_task(7), cli_task(6), lhv_task(8),
        cli_task(7), hybrid_task(5), lhv_task(7), cli_task(8), hybrid_task(5),
    ]


def _optimize_cycle(c: int, rng, workdir: str) -> list[Task]:
    tasks = []
    for n in OPTIMIZE_NS:
        variants = (
            ("optimize", ("optimize",), _check_optimize(n)),
            ("witness-ghz", ("witness", "--state", "ghz", "--optimize"),
             _check_witness_optimize(n, 1.0)),
            ("witness-noisy",
             ("witness", "--state", f"noisy-ghz:{OPTIMIZE_VISIBILITY}", "--optimize"),
             _check_witness_optimize(n, OPTIMIZE_VISIBILITY)),
        )
        for label, head, check in variants:
            cfg = {"optimizer": dict(OPTIMIZER_KNOBS, seed=int(rng.integers(1, 2**31)))}
            path = _write_config(workdir, f"optimize-{c}-n{n}-{label}.json", cfg)
            tasks.append(
                Task(f"{label}-n{n}", check, argv=head + ("--n", str(n), "--config", path))
            )
    return tasks


_CYCLES = {"certify": _certify_cycle, "bounds": _bounds_cycle, "optimize": _optimize_cycle}


@dataclass(frozen=True)
class Schedule:
    """Pre-generated inputs: ``cycles[k]`` is the k-th pass over the positions."""

    cycles: tuple[tuple[Task, ...], ...]
    warmup: tuple[Task, ...]

    @property
    def cycle_len(self) -> int:
        return len(self.cycles[0])

    def task(self, i: int) -> Task:
        cycle = self.cycles[(i // self.cycle_len) % len(self.cycles)]
        return cycle[i % self.cycle_len]


def build_schedule(workload: str, seed: int, workdir: str) -> Schedule:
    """All inputs for a run, drawn from ``seed``; config files go to ``workdir``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    make = _CYCLES[workload]
    cycles = tuple(tuple(make(c, rng, workdir)) for c in range(VARIANTS[workload]))
    extra = make(VARIANTS[workload], rng, workdir)
    return Schedule(cycles, tuple(extra[: WARMUP_TASKS[workload]]))


def run_task(task: Task):
    """Execute one task; returns its check outcome or raises on a failure."""
    if task.call is not None:
        return task.check(task.call())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(task.argv))
    if code != 0:
        raise CheckFailed(f"exit code {code}: {err.getvalue().strip()[:200]}")
    return task.check(json.loads(out.getvalue()))
