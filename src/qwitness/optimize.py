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
operator (its optimal state is the matching eigenvector): each sweep runs
on the current top eigenvector, which cannot lower the eigenvalue.  A
state-bound variant maximizes the expectation on a fixed state.  Only the
environments depend on the state: leave-one-out products for the
structured qobs.NoisyGhz and qobs.ProductState, partial products of the
eigenvector, and the Pauli correlation tensor of a plain density matrix.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .ineq import (
    InequalityOperator,
    operator_sum,
    state_sum,
    svetlichny_operator,
    svetlichny_pattern,
)
from .opalg import check_eig_parties, hermitian_eigenvalues
from .qobs import (
    PAULIS,
    BlochVector,
    NoisyGhz,
    ProductState,
    SettingsTable,
    expectation,
    pauli_factors,
)

SWEEP_IMPROVEMENT_TOL = 1e-10
ORACLE_CHECK_TOL = 1e-9

INEQUALITY_KINDS = ("chsh", "svetlichny")

# _PAULI_ENTRIES[k, 2a + b] = sigma_k[a, b], so sum_ab sigma_k[a, b] C[a, b]
# is _PAULI_ENTRIES @ C.reshape(4).
_PAULI_ENTRIES = PAULIS.reshape(3, 4)
# z = n_0 + i n_1 is _ONE_I @ (n_0, n_1).
_ONE_I = np.array([1.0, 1.0j])
# The state_sum table of sigma_x, sigma_y, sigma_z: row 2r + c, column k
# holds sigma_k[c, r], the conjugate of sigma_k[r, c].
_PAULI_TABLE = _PAULI_ENTRIES.T.conj()


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
    return state_sum(rho, [_PAULI_TABLE] * n).real


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
    """Environments on a structured state, from leave-one-out products.

    Against traceless factors x_q.sigma the state's trace is
    scale * sum_d prod_q (local_q @ x_q)[d].  GHZ: tr(GHZ (x)_q X_q) is
    1/2 sum_ab prod_q X_q[a, b], and local_q @ z_q is G_q's four entries;
    the maximally mixed part of a noisy GHZ state adds nothing, because
    G_q is traceless.  Product state: tr(rho_q x.sigma) = m_q . x for the
    party's Bloch vector m_q.

    Party p's environment is c @ local_p for c = scale * prod_{q != p}
    local_q @ z_q: suffix products over the parties not yet moved times a
    running product over those that have, so a sweep costs O(N).
    """
    if isinstance(state, NoisyGhz):
        scale = state.visibility / 2.0
        local = np.broadcast_to(_PAULI_ENTRIES.T, (state.n_parties, 4, 3))
    else:
        scale, local = 1.0, np.array([[v.as_list()] for v in state.blochs])

    def environments(bloch):
        s = np.einsum("qdk,qk->qd", local, _z(bloch))
        # after[p] = prod_{q > p} s_q.
        after = np.ones_like(s)
        after[:-1] = np.cumprod(s[:0:-1], axis=0)[::-1]
        before = np.full(s.shape[1], scale, dtype=np.complex128)
        for p in range(len(s)):
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


def _split(psi: np.ndarray, party: int) -> np.ndarray:
    """A 2^N vector as (parties before, party, parties after)."""
    return psi.reshape(2**party, 2, -1)


def _vector_environments(psi: np.ndarray):
    """Environments on the pure state psi, e_k = <L| sigma_k |R> at party p,
    with L = (x)_{q<p} G_q^dagger psi over the moved parties and
    R = (x)_{q>p} G_q psi over the rest.  The R of every party come from one
    backward pass and L takes one factor per party, so a sweep costs
    O(N 2^N), with no density matrix and no 3^N tensor."""
    n = psi.size.bit_length() - 1

    def environments(bloch):
        factors = pauli_factors(_z(bloch))
        right = [psi] * n
        for p in range(n - 1, 0, -1):
            right[p - 1] = (factors[p] @ _split(right[p], p)).reshape(-1)
        left = psi
        for p in range(n):
            if p:
                moved = pauli_factors(_z(bloch[p - 1])).conj().T
                left = (moved @ _split(left, p - 1)).reshape(-1)
            # C[a, b] = sum over the other parties of conj(L[.., a, ..]) R[.., b, ..].
            c = np.einsum("iaj,ibj->ab", _split(left, p).conj(), _split(right[p], p))
            yield _PAULI_ENTRIES @ c.reshape(4)

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


def _top_eigenpair(coeffs: np.ndarray, bloch: np.ndarray) -> tuple[float, np.ndarray]:
    values, vectors = np.linalg.eigh(operator_sum(coeffs, pauli_factors(bloch)))
    return float(values[-1]), vectors[:, -1]


def _violation_see_saw(start: np.ndarray, max_sweeps: int):
    """See-saw on the largest eigenvalue.  Each sweep runs on the current top
    eigenvector psi, so lambda_max(S') >= <psi|S'|psi> >= <psi|S|psi> =
    lambda_max(S)."""
    coeffs = np.array(svetlichny_pattern(len(start)).coeffs, dtype=np.float64)
    value, psi = _top_eigenpair(coeffs, start)

    def step(bloch):
        nonlocal psi
        _, new = _sweep(_vector_environments(psi), bloch)
        # A rejected sweep ends the run, so psi may always move to the new
        # settings' eigenvector.
        new_value, psi = _top_eigenpair(coeffs, new)
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
    structured = isinstance(rho, (NoisyGhz, ProductState))
    if structured:
        if rho.n_parties != n_parties:
            raise ValueError(f"state has {rho.n_parties} qubits, expected {n_parties}")
        environments = _structured_environments(rho)
    else:
        dim = 2**n_parties
        if rho.shape != (dim, dim):
            raise ValueError(f"state has shape {rho.shape}, expected {(dim, dim)}")
        environments = _tensor_environments(_correlation_tensor(rho))
    value, settings, sweeps, converged, history = _run_restarts(
        n_parties,
        lambda start, max_sweeps: _expectation_see_saw(start, environments, max_sweeps),
        cfg,
    )
    dense = rho.matrix() if structured else rho
    check = expectation(svetlichny_operator(settings).matrix, dense)
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
    best = maximize_expectation(n_parties, "svetlichny", NoisyGhz(n_parties), cfg).best_value
    return 1.0 if best <= bound else bound / best
