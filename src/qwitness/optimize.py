"""Measurement-setting optimization.

Exact see-saw (Werner & Wolf, QIC 1, 2001; Pal & Vertesi, PRA 82, 022116,
2010).  On a fixed state every objective here is affine in each
measurement's Bloch vector, so with the other settings held fixed the best
direction has the closed form n = g/|g|.  A sweep updates every party once.
Restart points come from a fixed linear congruential generator so identical
seeds reproduce identical runs on any platform.

The state-free objective is the largest eigenvalue of the inequality
operator (its optimal state is the matching eigenvector): each sweep runs
on the current top eigenvector, which cannot lower the eigenvalue.  A
state-bound variant maximizes the expectation on a fixed density matrix.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .ineq import (
    InequalityOperator,
    correlation_sum,
    operator_sum,
    state_sum,
    svetlichny_operator,
    svetlichny_pattern,
    trace_table,
)
from .opalg import check_eig_parties, hermitian_eigenvalues
from .qobs import (
    PAULIS,
    BlochVector,
    SettingsTable,
    expectation,
    ghz_state,
    pauli_factors,
)

SWEEP_IMPROVEMENT_TOL = 1e-10
ORACLE_CHECK_TOL = 1e-9

INEQUALITY_KINDS = ("chsh", "svetlichny")

# The state_sum table of sigma_x, sigma_y, sigma_z: row 2r + c, column k
# holds sigma_k[c, r].
_PAULI_TABLE = trace_table(PAULIS)
_SETTING_IDENTITY = np.eye(2)


class Lcg64:
    """64-bit linear congruential generator with fixed constants.

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64,
    uniform doubles from the top 53 bits.  Used for restart points and random
    settings draws so that runs reproduce bit-for-bit across implementations.
    """

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = int(seed) & self.MASK

    def next_uint(self) -> int:
        self.state = (self.MULTIPLIER * self.state + self.INCREMENT) & self.MASK
        return self.state

    def uniform(self) -> float:
        return (self.next_uint() >> 11) * 2.0**-53

    def settings(self, n_parties: int) -> SettingsTable:
        """Uniform unit vectors by party, setting 0 first; each draws z, then phi."""
        points = []
        for _ in range(2 * n_parties):
            z = 2.0 * self.uniform() - 1.0
            phi = 2.0 * math.pi * self.uniform()
            points.append(BlochVector.from_angles(math.acos(z), phi))
        return SettingsTable(tuple(zip(points[::2], points[1::2])))

    def bloch(self, n_parties: int) -> np.ndarray:
        return self.settings(n_parties).bloch


@dataclass(frozen=True)
class OptimizationConfig:
    """Optimizer settings: restarts, see-saw sweeps per restart (max_iters),
    and the restart generator's seed."""

    restarts: int = 20
    max_iters: int = 500
    seed: int = 1

    def __post_init__(self):
        for name in ("restarts", "max_iters", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be positive")

    def to_json_dict(self) -> dict:
        return {"restarts": self.restarts, "max_iters": self.max_iters, "seed": self.seed}

    @classmethod
    def from_json_dict(cls, data: dict) -> "OptimizationConfig":
        """Unknown fields, such as the step sizes older configs carry, are
        ignored."""
        known = {f: data[f] for f in ("restarts", "max_iters", "seed") if f in data}
        return cls(**known)


@dataclass(frozen=True)
class OptimizationResult:
    """Best restart's value and settings; ``iterations`` and ``history``
    count its see-saw sweeps, with history entry 0 at the start point."""

    best_value: float
    settings: SettingsTable
    iterations: int
    converged: bool
    history: tuple[tuple[int, float], ...]

    def to_json_dict(self) -> dict:
        return {
            "best_value": self.best_value,
            "settings": self.settings.to_json_dict(),
            "iterations": self.iterations,
            "converged": self.converged,
            "history": [[i, v] for i, v in self.history],
        }


def _svetlichny_coeffs(n_parties: int) -> np.ndarray:
    return np.array(svetlichny_pattern(n_parties).coeffs, dtype=np.float64)


def _correlation_tensor(rho: np.ndarray) -> np.ndarray:
    """T[k_0, ..., k_{N-1}] = Re tr(rho sigma_k0 x ... x sigma_k{N-1}) for
    k_p in (x, y, z)."""
    n = rho.shape[0].bit_length() - 1
    return state_sum(rho, [_PAULI_TABLE] * n).real


def _value(coeffs: np.ndarray, bloch: np.ndarray, corr: np.ndarray) -> float:
    """Expectation sum_w c_w sum_k T_k prod_p B[p, w_p, k_p]."""
    return float(np.sum(correlation_sum(coeffs, bloch) * corr))


def _update_party(coeffs: np.ndarray, bloch: np.ndarray, corr: np.ndarray, party: int) -> float:
    """Set both of a party's directions to n = g/|g| in place; returns the
    value afterwards.

    The gradient G[s, k] is the kernel with the party's factor set to the
    identity on its setting bit, contracted with T over the other parties.
    No setting word uses both of a party's settings, so the value is
    sum_s G[s] . B[party, s] and both rows update at once.  A zero gradient
    row (the maximally mixed state) keeps its direction.
    """
    factors = list(bloch)
    factors[party] = _SETTING_IDENTITY
    others = [q for q in range(len(bloch)) if q != party]
    grad = np.tensordot(correlation_sum(coeffs, factors), corr, axes=(others, others))
    norms = np.linalg.norm(grad, axis=1)
    moved = norms > 0.0
    bloch[party, moved] = grad[moved] / norms[moved, None]
    return float(np.sum(norms))


def _sweep(coeffs: np.ndarray, bloch: np.ndarray, corr: np.ndarray) -> tuple[float, np.ndarray]:
    """One see-saw sweep over the parties on a copy; (value, new settings)."""
    bloch = bloch.copy()
    for party in range(len(bloch)):
        value = _update_party(coeffs, bloch, corr, party)
    return value, bloch


def _see_saw(value: float, bloch: np.ndarray, step, max_sweeps: int):
    """Repeat ``step`` (settings -> (value, settings)) from a start of known
    value.  A sweep is accepted only if the value did not fall, which guards
    against rounding; convergence is a sweep gaining less than
    SWEEP_IMPROVEMENT_TOL."""
    history = [(0, value)]
    for sweep in range(1, max_sweeps + 1):
        new_value, new_bloch = step(bloch)
        gain = new_value - value
        if gain >= 0.0:
            value, bloch = new_value, new_bloch
        history.append((sweep, value))
        if gain < SWEEP_IMPROVEMENT_TOL:
            return value, bloch, sweep, True, history
    return value, bloch, max_sweeps, False, history


def _expectation_see_saw(start: np.ndarray, corr: np.ndarray, max_sweeps: int):
    """See-saw on the Svetlichny expectation for correlation tensor ``corr``."""
    coeffs = _svetlichny_coeffs(len(start))
    return _see_saw(
        _value(coeffs, start, corr), start, lambda b: _sweep(coeffs, b, corr), max_sweeps
    )


def _top_eigenpair(coeffs: np.ndarray, bloch: np.ndarray) -> tuple[float, np.ndarray]:
    values, vectors = np.linalg.eigh(operator_sum(coeffs, pauli_factors(bloch)))
    return float(values[-1]), vectors[:, -1]


def _violation_see_saw(start: np.ndarray, max_sweeps: int):
    """See-saw on the largest eigenvalue.  Each sweep runs on the current top
    eigenvector psi, so lambda_max(S') >= <psi|S'|psi> >= <psi|S|psi> =
    lambda_max(S)."""
    coeffs = _svetlichny_coeffs(len(start))
    value, psi = _top_eigenpair(coeffs, start)

    def step(bloch):
        nonlocal psi
        _, new = _sweep(coeffs, bloch, _correlation_tensor(np.outer(psi, psi.conj())))
        # A rejected sweep ends the run, so psi may always move to the new
        # settings' eigenvector.
        new_value, psi = _top_eigenpair(coeffs, new)
        return new_value, new

    return _see_saw(value, start, step, max_sweeps)


def _run_restarts(n_parties: int, ascend, cfg: OptimizationConfig):
    """Independent restarts; best selected by (value, restart index).  Each
    start is drawn just before its ascent, which never touches the
    generator, so the draws follow the same stream as drawing all first."""
    rng = Lcg64(cfg.seed)
    best = None
    for _ in range(cfg.restarts):
        result = ascend(rng.bloch(n_parties), cfg.max_iters)
        if best is None or result[0] > best[0]:
            best = result
    value, bloch, sweeps, converged, history = best
    return value, SettingsTable.from_bloch(bloch), sweeps, converged, tuple(history)


def _validate_kind(n_parties: int, kind: str) -> None:
    if kind not in INEQUALITY_KINDS:
        raise ValueError(f"unknown inequality kind {kind!r}")
    if kind == "chsh" and n_parties != 2:
        raise ValueError("chsh optimization requires exactly two parties")
    if n_parties < 2:
        raise ValueError("optimization needs at least two parties")
    check_eig_parties(n_parties)


def max_eigenvalue(op: InequalityOperator | np.ndarray) -> float:
    """Largest eigenvalue of an inequality operator (or raw Hermitian matrix)."""
    matrix = op.matrix if isinstance(op, InequalityOperator) else op
    return float(hermitian_eigenvalues(matrix).values[-1])


def maximize_violation(
    n_parties: int, kind: str, cfg: OptimizationConfig | None = None
) -> OptimizationResult:
    """Settings maximizing the largest eigenvalue of the inequality operator."""
    cfg = cfg or OptimizationConfig()
    _validate_kind(n_parties, kind)
    value, settings, sweeps, converged, history = _run_restarts(
        n_parties, _violation_see_saw, cfg
    )
    # The CHSH pattern is the two-party Svetlichny one, so one oracle serves
    # both kinds.
    check = max_eigenvalue(svetlichny_operator(settings))
    if abs(check - value) > ORACLE_CHECK_TOL:  # pragma: no cover - internal consistency
        raise RuntimeError(f"optimizer value {value} disagrees with oracle {check}")
    return OptimizationResult(value, settings, sweeps, converged, history)


def maximize_expectation(
    n_parties: int, kind: str, rho: np.ndarray, cfg: OptimizationConfig | None = None
) -> OptimizationResult:
    """Settings maximizing the inequality expectation on a fixed state."""
    cfg = cfg or OptimizationConfig()
    _validate_kind(n_parties, kind)
    dim = 2**n_parties
    if rho.shape != (dim, dim):
        raise ValueError(f"state has shape {rho.shape}, expected {(dim, dim)}")
    corr = _correlation_tensor(rho)
    value, settings, sweeps, converged, history = _run_restarts(
        n_parties, lambda start, max_sweeps: _expectation_see_saw(start, corr, max_sweeps), cfg
    )
    check = expectation(svetlichny_operator(settings).matrix, rho)
    if abs(check - value) > ORACLE_CHECK_TOL:  # pragma: no cover - internal consistency
        raise RuntimeError(f"optimizer value {value} disagrees with oracle {check}")
    return OptimizationResult(value, settings, sweeps, converged, history)


def violation_threshold(
    n_parties: int,
    cfg: OptimizationConfig | None = None,
    state_family: str = "noisy-ghz",
) -> float:
    """Visibility at which the optimized inequality value crosses 2^(N-1)
    for the family v * ghz + (1 - v) * I/d.

    Every full-correlation operator is traceless, so on this family the value
    is exactly v times the GHZ value for any settings, and the crossing is
    2^(N-1) / max_GHZ: one optimization and one division.  An optimum that
    does not beat the bound gives 1.
    """
    if n_parties < 3:
        raise ValueError("threshold scans need at least three parties")
    if state_family != "noisy-ghz":
        raise ValueError(f"unsupported state family {state_family!r}")
    check_eig_parties(n_parties)
    cfg = cfg or OptimizationConfig()
    bound = 2.0 ** (n_parties - 1)
    best = maximize_expectation(n_parties, "svetlichny", ghz_state(n_parties), cfg).best_value
    return 1.0 if best <= bound else bound / best
