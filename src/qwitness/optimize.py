"""Measurement-setting optimization.

Exact see-saw (Werner & Wolf, QIC 1, 2001; Pal & Vertesi, PRA 82, 022116,
2010) in the two-term form of the Svetlichny operator: the Hermitian part
of (1 - i) (x)_p G_p, with G_p = z_p.sigma and z_p = n_p0 + i n_p1.  With
the other settings held fixed, t = tr(rho (x)_p G_p) is linear in one
party's z_p through a 3-vector environment, so both of its directions have
a closed form.  A sweep updates every party once.  Restart points come
from a fixed linear congruential generator so identical seeds reproduce
identical runs on any platform.

The state-free objective is the largest eigenvalue of the inequality
operator, in closed form: its top eigenvector is GHZ under local rotations
(_ghz_frame).  Each sweep runs on that eigenvector, which cannot lower the
eigenvalue, so only the final oracle check builds a 2^N array or solves for
eigenvalues.  A state-bound variant maximizes the expectation on a fixed
state.  Only the environments depend on the state: leave-one-out products
of a structured state's product-sum form (qobs.NoisyGhz, qobs.ProductState;
GHZ at rotated settings for the eigenvector), and the Pauli correlation
tensor of a matrix.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .ineq import InequalityOperator, state_sum, svetlichny_operator
from .opalg import check_parties, hermitian_eigenvalues
from .qobs import (
    PAULI_TRACES,
    PAULIS,
    BlochVector,
    NoisyGhz,
    ProductState,
    SettingsTable,
    expectation,
)

SWEEP_IMPROVEMENT_TOL = 1e-10
ORACLE_CHECK_TOL = 1e-9

INEQUALITY_KINDS = ("chsh", "svetlichny")

# z = n_0 + i n_1 is _ONE_I @ (n_0, n_1).
_ONE_I = np.array([1.0, 1.0j])


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


def _correlation_tensor(rho: np.ndarray) -> np.ndarray:
    """T[k_0, ..., k_{N-1}] = Re tr(rho sigma_k0 x ... x sigma_k{N-1}) for
    k_p in (x, y, z)."""
    n = rho.shape[0].bit_length() - 1
    return state_sum(rho, [PAULI_TRACES[:, 1:]] * n).real


def _z(bloch: np.ndarray) -> np.ndarray:
    """z = n_0 + i n_1 from directions of shape (..., 2, 3); z.sigma is the
    factor G = A_0 + i A_1."""
    return _ONE_I @ bloch


def _set_party(bloch: np.ndarray, party: int, env: np.ndarray) -> float:
    """Set both of a party's directions from its environment ``env`` in
    place; returns the value afterwards.

    The Svetlichny operator is the Hermitian part of (1 - i) (x)_q G_q, so
    its value is Re t + Im t for t = tr(rho (x)_q G_q).  With the other
    parties fixed, t = z . e is linear in the party's z, where
    e_k = tr(rho (x)_{q != p} G_q (x) sigma_k at the party).  For
    w = (1 - i) e the value is n_0 . Re w - n_1 . Im w, so the best
    directions are Re w/|Re w| and -Im w/|Im w|, and the value is the sum of
    the two norms.  A zero row (the maximally mixed state) keeps its
    direction.  The 3-vectors are handled as Python floats: numpy's call
    overhead would cost more than the arithmetic.
    """
    w = [(1.0 - 1.0j) * e for e in env.tolist()]
    value = 0.0
    for setting, grad in enumerate(([x.real for x in w], [-x.imag for x in w])):
        norm = math.hypot(*grad)
        if norm > 0.0:
            bloch[party, setting] = [g / norm for g in grad]
        value += norm
    return value


def _sweep(environments, bloch: np.ndarray) -> tuple[float, np.ndarray]:
    """One see-saw sweep over the parties on a copy; (value, new settings).
    ``environments(bloch)`` yields party p's environment once parties
    0..p-1 have moved."""
    bloch = bloch.copy()
    for party, env in enumerate(environments(bloch)):
        value = _set_party(bloch, party, env)
    return value, bloch


def _structured_environments(state: NoisyGhz | ProductState):
    """Environments on a structured state, from its product-sum form.

    The state's trace against (x)_q X_q is sum_d w_d prod_q terms(X)[q, d],
    linear in each X_q.  With local[q, d, k] the d-th term of sigma_k at
    qubit q, G_q's terms are local_q @ z_q, and party p's environment is
    c @ local_p for c = w * prod_{q != p} local_q @ z_q: suffix products
    over the parties not yet moved times a running product over those that
    have, so a sweep costs O(N).
    """
    n = state.n_parties
    local = state.terms(np.broadcast_to(PAULIS, (n, 3, 2, 2))).swapaxes(1, 2)

    def environments(bloch):
        s = np.einsum("qdk,qk->qd", local, _z(bloch))
        # after[p] = prod_{q > p} s_q.
        after = np.ones_like(s)
        after[:-1] = np.cumprod(s[:0:-1], axis=0)[::-1]
        before = np.array(state.weights, dtype=np.complex128)
        for p in range(n):
            if p:
                before = before * (local[p - 1] @ _z(bloch[p - 1]))
            yield (before * after[p]) @ local[p]

    return environments


def _tensor_environments(corr: np.ndarray):
    """Environments from a density matrix's correlation tensor T: party p's
    is T contracted with z_q for every q != p.  The moved parties are
    contracted into ``left`` once each, so a sweep costs O(3^N)."""

    def environments(bloch):
        left = corr
        for p in range(corr.ndim):
            if p:
                left = np.tensordot(_z(bloch[p - 1]), left, axes=(0, 0))
            env = left
            for q in range(corr.ndim - 1, p, -1):
                env = env @ _z(bloch[q])
            yield env

    return environments


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


def _svetlichny_value(environments, bloch: np.ndarray) -> float:
    """Re t + Im t, with t = z_0 . e_0 from party 0's environment."""
    t = _z(bloch[0]) @ next(environments(bloch))
    return float(t.real + t.imag)


def _expectation_see_saw(start: np.ndarray, environments, max_sweeps: int):
    """See-saw on the Svetlichny expectation of a fixed state, given by its
    ``environments``."""
    return _see_saw(
        _svetlichny_value(environments, start),
        start,
        lambda b: _sweep(environments, b),
        max_sweeps,
    )


def _cross(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _ghz_frame(bloch: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of the Svetlichny operator, and rotations rot of
    shape (N, 3, 3) that take its eigenvector to GHZ: on the eigenvector,
    the value at settings n_pk is the GHZ value at rot[p] @ n_pk.

    In the right-handed frame (n_p0, e_2, n_p0 x e_2), with e_2 along n_p1's
    part orthogonal to n_p0, n_p1 = (cos t_p, sin t_p, 0) with 0 <= t_p <= pi,
    and G_p |x_p> = (1 + i e^{i s_p t_p}) |1 - x_p> for s_p = (-1)^x_p.  So
    the operator is block-diagonal on {|x>, |x bar>} with eigenvalues +-|c_x|
    (Werner & Wolf, PRA 64, 032112, 2001), where 2 c_x =
    (1 - i) prod_p (1 + i e^{i s_p t_p}) + (1 + i) prod_p (1 - i e^{i s_p t_p}).
    The factors are a_p e^{i(s_p t_p/2 + pi/4)} and b_p e^{i(s_p t_p/2 - pi/4)}
    with a_p = 2 cos(t_p/2 + pi/4) and b_p = 2 cos(t_p/2 - pi/4) >= |a_p|,
    swapped where x_p = 1.  With P, P' the products of a, b over the parties
    with x_p = 0 and Q, Q' over the rest, 2 |c_x|^2 is P^2 Q'^2 + P'^2 Q^2 at
    even N and (PQ' +- P'Q)^2 at odd N, which falls short of its value with
    Q and Q' exchanged, x = 0, by (P'^2 - P^2)(Q'^2 - Q^2) >= 0.  So
    lambda_max = |c_0|, and a turn by -arg c_0 about party 0's third axis
    takes its eigenvector (|0...0> + e^{i arg c_0} |1...1>)/sqrt(2) to GHZ.
    """
    frames = []
    plus = minus = 1.0 + 0.0j
    for n0, n1 in bloch.tolist():
        # e_2 = (n0 x n1) x n0 is orthogonal to n0 to rounding even for nearly
        # parallel directions.  If n0 x n1 is far from orthogonal to n0, it is
        # rounding noise of parallel ones, and any plane through n0 will do.
        normal = _cross(n0, n1)
        e2 = _cross(normal, n0)
        if not math.hypot(*e2) > 0.5 * math.hypot(*normal):
            axis = [0.0, 0.0, 1.0] if abs(n0[2]) < 0.5 else [1.0, 0.0, 0.0]
            e2 = _cross(_cross(n0, axis), n0)
        norm = math.hypot(*e2)
        e2 = [x / norm for x in e2]
        frames.append([n0, e2, _cross(n0, e2)])
        e_it = complex(sum(a * b for a, b in zip(n0, n1)), sum(a * b for a, b in zip(e2, n1)))
        plus *= 1.0 + 1.0j * e_it
        minus *= 1.0 - 1.0j * e_it
    c = ((1.0 - 1.0j) * plus + (1.0 + 1.0j) * minus) / 2.0
    rot = np.array(frames)
    # Party 0's turn by -arg c takes n_0 + i e_2 to e^{-i arg c} (n_0 + i e_2).
    turned = cmath.exp(-1j * cmath.phase(c)) * (rot[0, 0] + 1j * rot[0, 1])
    rot[0, :2] = turned.real, turned.imag
    return abs(c), rot


def _violation_see_saw(start: np.ndarray, max_sweeps: int):
    """See-saw on the largest eigenvalue.  Each sweep runs on the current top
    eigenvector psi, so lambda_max(S') >= <psi|S'|psi> >= <psi|S|psi> =
    lambda_max(S).  psi is GHZ under the rotations of _ghz_frame, so the
    sweep reads GHZ environments at the rotated settings and turns its
    result back."""
    ghz = _structured_environments(NoisyGhz(len(start)))
    value, rot = _ghz_frame(start)

    def step(bloch):
        nonlocal rot
        _, new = _sweep(ghz, bloch @ rot.swapaxes(1, 2))
        new = new @ rot
        # A rejected sweep ends the run, so the frame may always move to
        # the new settings.
        new_value, rot = _ghz_frame(new)
        return new_value, new

    return _see_saw(value, start, step, max_sweeps)


def _run_restarts(n_parties: int, ascend, cfg: OptimizationConfig):
    """Independent restarts; a later restart replaces the best only if it
    gains more than SWEEP_IMPROVEMENT_TOL, so near-ties keep the earliest.
    Each start is drawn just before its ascent, which never touches the
    generator, so the draws follow the same stream as drawing all first."""
    rng = Lcg64(cfg.seed)
    best = None
    for _ in range(cfg.restarts):
        result = ascend(rng.bloch(n_parties), cfg.max_iters)
        if best is None or result[0] > best[0] + SWEEP_IMPROVEMENT_TOL:
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
    check_parties(n_parties)


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
    n_parties: int,
    kind: str,
    rho: np.ndarray | NoisyGhz | ProductState,
    cfg: OptimizationConfig | None = None,
) -> OptimizationResult:
    """Settings maximizing the inequality expectation on a fixed state: a
    density matrix, or a qobs.NoisyGhz or qobs.ProductState, whose see-saw
    needs no 2^N array."""
    cfg = cfg or OptimizationConfig()
    _validate_kind(n_parties, kind)
    dense = isinstance(rho, np.ndarray)
    if dense:
        dim = 2**n_parties
        if rho.shape != (dim, dim):
            raise ValueError(f"state has shape {rho.shape}, expected {(dim, dim)}")
        environments = _tensor_environments(_correlation_tensor(rho))
    else:
        if rho.n_parties != n_parties:
            raise ValueError(f"state has {rho.n_parties} qubits, expected {n_parties}")
        environments = _structured_environments(rho)
    value, settings, sweeps, converged, history = _run_restarts(
        n_parties,
        lambda start, max_sweeps: _expectation_see_saw(start, environments, max_sweeps),
        cfg,
    )
    check = expectation(svetlichny_operator(settings).matrix, rho if dense else rho.matrix())
    if abs(check - value) > ORACLE_CHECK_TOL:  # pragma: no cover - internal consistency
        raise RuntimeError(f"optimizer value {value} disagrees with oracle {check}")
    return OptimizationResult(value, settings, sweeps, converged, history)


def violation_threshold(n_parties: int, cfg: OptimizationConfig | None = None) -> float:
    """Visibility at which the optimized inequality value crosses 2^(N-1)
    for the family v * ghz + (1 - v) * I/d.

    Every full-correlation operator is traceless, so on this family the value
    is exactly v times the GHZ value for any settings, and the crossing is
    2^(N-1) / max_GHZ: one optimization and one division.  An optimum that
    does not beat the bound gives 1.
    """
    if n_parties < 3:
        raise ValueError("threshold scans need at least three parties")
    cfg = cfg or OptimizationConfig()
    bound = 2.0 ** (n_parties - 1)
    best = maximize_expectation(n_parties, "svetlichny", NoisyGhz(n_parties), cfg).best_value
    return 1.0 if best <= bound else bound / best
