"""Measurement-setting optimization.

Deterministic coordinate ascent over the two sphere angles of every
measurement direction, with golden-section line searches and a shrinking
trust window.  Restart points come from a fixed linear congruential
generator so identical seeds reproduce identical runs on any platform.

The state-free objective is the largest eigenvalue of the inequality
operator (its optimal state is the matching eigenvector); a state-bound
variant maximizes the expectation on a fixed density matrix instead.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .ineq import InequalityOperator, chsh_operator, svetlichny_operator
from .opalg import check_eig_dim, hermitian_eigenvalues
from .qobs import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    BlochVector,
    SettingsTable,
    expectation,
    ghz_state,
    noisy_mixture,
)

SWEEP_IMPROVEMENT_TOL = 1e-10
LINESEARCH_TOL_FRACTION = 1e-3
STEP_SHRINK = 0.25
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

INEQUALITY_KINDS = ("chsh", "svetlichny")


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

    def sphere_angles(self) -> tuple[float, float]:
        """(theta, phi) of a uniform point on the unit sphere."""
        z = 2.0 * self.uniform() - 1.0
        phi = 2.0 * math.pi * self.uniform()
        return math.acos(z), phi

    def settings_angles(self, n_parties: int) -> np.ndarray:
        out = np.empty((n_parties, 2, 2))
        for p in range(n_parties):
            for s in (0, 1):
                out[p, s] = self.sphere_angles()
        return out

    def settings(self, n_parties: int) -> SettingsTable:
        return settings_from_angles(self.settings_angles(n_parties))


@dataclass(frozen=True)
class OptimizationConfig:
    restarts: int = 20
    max_iters: int = 500
    step_init: float = 0.3
    step_min: float = 1e-7
    seed: int = 1

    def __post_init__(self):
        for name in ("restarts", "max_iters", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be positive")
        if not 0.0 < self.step_min < self.step_init:
            raise ValueError("need 0 < step_min < step_init")

    def to_json_dict(self) -> dict:
        return {
            "restarts": self.restarts,
            "max_iters": self.max_iters,
            "step_init": self.step_init,
            "step_min": self.step_min,
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "OptimizationConfig":
        known = {f: data[f] for f in ("restarts", "max_iters", "step_init", "step_min", "seed") if f in data}
        return cls(**known)


@dataclass(frozen=True)
class OptimizationResult:
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


def settings_from_angles(angles: np.ndarray) -> SettingsTable:
    parties = []
    for p in range(angles.shape[0]):
        parties.append(
            tuple(BlochVector.from_angles(*angles[p, s]) for s in (0, 1))
        )
    return SettingsTable(tuple(parties))


def angles_from_settings(settings: SettingsTable) -> np.ndarray:
    out = np.empty((settings.n_parties, 2, 2))
    for p, pair in enumerate(settings.parties):
        for s, v in enumerate(pair):
            out[p, s, 0] = math.acos(max(-1.0, min(1.0, v.z)))
            out[p, s, 1] = math.atan2(v.y, v.x)
    return out


def _observables_from_angles(angles: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    obs = []
    for p in range(angles.shape[0]):
        pair = []
        for s in (0, 1):
            theta, phi = angles[p, s]
            st = math.sin(theta)
            pair.append(
                st * math.cos(phi) * PAULI_X
                + st * math.sin(phi) * PAULI_Y
                + math.cos(theta) * PAULI_Z
            )
        obs.append((pair[0], pair[1]))
    return obs


def _signed_sum(obs: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Sum of sign(word) * correlation operator over all setting words.

    Computed as the Hermitian part of (1 - i) * kron_p(O_p0 + i O_p1), which
    equals the word-by-word sum because
    (1 - i) i^k + (1 + i) (-i)^k = 2 * (-1)^floor(k/2).
    """
    acc = None
    for m0, m1 in obs:
        factor = m0 + 1j * m1
        acc = factor if acc is None else np.kron(acc, factor)
    m = (1.0 - 1.0j) * acc
    return (m + m.conj().T) / 2.0


def _eig_objective(angles: np.ndarray) -> float:
    m = _signed_sum(_observables_from_angles(angles))
    return float(np.linalg.eigvalsh(m)[-1])


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi]; returns the best sampled point."""
    a, b = lo, hi
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    if f1 >= f2:
        best_x, best_f = x1, f1
    else:
        best_x, best_f = x2, f2
    while (b - a) > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = f(x2)
            if f2 > best_f:
                best_x, best_f = x2, f2
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = f(x1)
            if f1 > best_f:
                best_x, best_f = x1, f1
    return best_x, best_f


def _coordinate_ascent(objective, start: np.ndarray, cfg: OptimizationConfig):
    """Sweep parties in order, line-searching each angle in a shrinking window.

    A sweep that improves by less than SWEEP_IMPROVEMENT_TOL shrinks the
    window; convergence is declared once that happens at the minimum step.
    """
    angles = start.copy()
    value = objective(angles)
    history = [(0, value)]
    step = cfg.step_init
    converged = False
    sweeps = 0
    for sweep in range(1, cfg.max_iters + 1):
        sweeps = sweep
        before = value
        for p in range(angles.shape[0]):
            for s in (0, 1):
                for k in (0, 1):
                    x0 = angles[p, s, k]

                    def f(x, p=p, s=s, k=k):
                        angles[p, s, k] = x
                        return objective(angles)

                    xb, fb = _golden_max(
                        f, x0 - step, x0 + step, step * LINESEARCH_TOL_FRACTION
                    )
                    if fb > value:
                        angles[p, s, k] = xb
                        value = fb
                    else:
                        angles[p, s, k] = x0
        history.append((sweep, value))
        if value - before < SWEEP_IMPROVEMENT_TOL:
            if step <= cfg.step_min:
                converged = True
                break
            step = max(step * STEP_SHRINK, cfg.step_min)
    return value, angles, sweeps, converged, history


def _run_restarts(n_parties: int, objective, cfg: OptimizationConfig):
    """Independent restarts; best selected by (value, restart index)."""
    rng = Lcg64(cfg.seed)
    starts = [rng.settings_angles(n_parties) for _ in range(cfg.restarts)]
    best = None
    for start in starts:
        result = _coordinate_ascent(objective, start, cfg)
        if best is None or result[0] > best[0]:
            best = result
    value, angles, sweeps, converged, history = best
    return value, settings_from_angles(angles), sweeps, converged, tuple(history)


def _validate_kind(n_parties: int, kind: str) -> None:
    if kind not in INEQUALITY_KINDS:
        raise ValueError(f"unknown inequality kind {kind!r}")
    if kind == "chsh" and n_parties != 2:
        raise ValueError("chsh optimization requires exactly two parties")
    if n_parties < 2:
        raise ValueError("optimization needs at least two parties")
    check_eig_dim(2**n_parties)


def _build_operator(n_parties: int, kind: str, settings: SettingsTable) -> InequalityOperator:
    if kind == "chsh":
        return chsh_operator(settings)
    return svetlichny_operator(settings)


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
        n_parties, _eig_objective, cfg
    )
    check = max_eigenvalue(_build_operator(n_parties, kind, settings))
    if abs(check - value) > 1e-9:  # pragma: no cover - internal consistency
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
    rho_t = rho.T.copy()

    def objective(angles):
        m = _signed_sum(_observables_from_angles(angles))
        return float(np.real(np.sum(m * rho_t)))

    value, settings, sweeps, converged, history = _run_restarts(
        n_parties, objective, cfg
    )
    check = expectation(_build_operator(n_parties, kind, settings).matrix, rho)
    if abs(check - value) > 1e-9:  # pragma: no cover - internal consistency
        raise RuntimeError(f"optimizer value {value} disagrees with oracle {check}")
    return OptimizationResult(value, settings, sweeps, converged, history)


def violation_threshold(
    n_parties: int,
    cfg: OptimizationConfig | None = None,
    state_family: str = "noisy-ghz",
) -> float:
    """Visibility at which the optimized inequality value crosses 2^(N-1).

    Bisection on v in [0, 1] for the family v * ghz + (1 - v) * I/d; at each
    step the settings are re-optimized, warm-started from the previous
    optimum, and the crossing is located to 1e-6 in v.
    """
    if n_parties < 3:
        raise ValueError("threshold scans need at least three parties")
    if state_family != "noisy-ghz":
        raise ValueError(f"unsupported state family {state_family!r}")
    check_eig_dim(2**n_parties)
    cfg = cfg or OptimizationConfig()
    base = ghz_state(n_parties)
    bound = 2.0 ** (n_parties - 1)

    top = maximize_expectation(n_parties, "svetlichny", base, cfg)
    warm = angles_from_settings(top.settings)
    # Warm restarts start at the previous optimum; a small window and a
    # coarser floor keep the per-step polish cheap.
    warm_cfg = replace(cfg, restarts=1, step_init=0.05, step_min=1e-4)

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        rho_t = noisy_mixture(base, mid).T.copy()

        def objective(angles):
            m = _signed_sum(_observables_from_angles(angles))
            return float(np.real(np.sum(m * rho_t)))

        value, warm, _, _, _ = _coordinate_ascent(objective, warm, warm_cfg)
        if value > bound:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
