"""Dense complex operator algebra.

Products, Kronecker products, (anti)commutators, Hermitian eigenvalues and
positivity checks on plain complex numpy matrices.  Every function is pure:
no argument is mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The party cap of every dense or exhaustive path: 2^N x 2^N eigensolves and
# the 4^N local strategies of the classical bounds.
MAX_PARTIES = 8

# Hermiticity slack scales with dimension: roundoff from kron/product chains
# grows roughly linearly in matrix size.
HERMITICITY_TOL = 1e-10
# Eigenpair residual slack, scaled by dimension and by the spectral radius.
EIGENPAIR_RESIDUAL_TOL = 1e-9


class CapExceededError(ValueError):
    """Problem too large for the exhaustive or dense path."""


def check_parties(n_parties: int) -> None:
    """Refuse N above MAX_PARTIES before any work.  N itself is compared, so a
    huge N is never raised to a power."""
    if n_parties > MAX_PARTIES:
        raise CapExceededError(
            f"N = {n_parties} is capped at N = {MAX_PARTIES} "
            "(2^N x 2^N eigensolves, 4^N local strategies)"
        )


class ConvergenceError(RuntimeError):
    """Eigensolver could not certify its result."""


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conjugate(a.T)


def frob_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def hermiticity_defect(a: np.ndarray) -> float:
    """Frobenius distance to the conjugate transpose; zero iff Hermitian."""
    return frob_norm(a - dagger(a))


def _require_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product: entry ((i*db + k), (j*db + l)) = a[i,j] * b[k,l]."""
    return np.kron(a, b)


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """{a, b} = ab + ba."""
    _require_same_shape(a, b)
    return a @ b + b @ a


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] = ab - ba."""
    _require_same_shape(a, b)
    return a @ b - b @ a


def frob_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of a - b; zero iff the matrices agree entrywise."""
    _require_same_shape(a, b)
    return float(np.linalg.norm(a - b))


@dataclass(frozen=True)
class EigenResult:
    """Real spectrum of a Hermitian matrix, ascending, plus the largest
    per-eigenpair residual max_i ||H v_i - w_i v_i||_2 as a certificate."""

    values: np.ndarray
    residual: float


def hermitian_eigenvalues(h: np.ndarray) -> EigenResult:
    """Eigenvalues of a Hermitian matrix with an a-posteriori residual check.

    The input must be Hermitian within HERMITICITY_TOL * dim; anything worse
    is rejected as a construction bug rather than silently symmetrized.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    n = h.shape[0]
    if n > 2**MAX_PARTIES:
        raise CapExceededError(f"dimension {n} exceeds eigensolver cap {2**MAX_PARTIES}")
    defect = hermiticity_defect(h)
    if defect > HERMITICITY_TOL * n:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e}")
    sym = (h + dagger(h)) / 2.0
    try:
        values, vectors = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"eigensolver did not converge: {exc}")
    residual = float(np.max(np.linalg.norm(h @ vectors - vectors * values, axis=0)))
    scale = max(1.0, float(np.max(np.abs(values))))
    if residual > EIGENPAIR_RESIDUAL_TOL * n * scale:  # pragma: no cover - a LAPACK bug
        raise ConvergenceError(f"eigenpair residual {residual:.3e} too large")
    return EigenResult(values=values, residual=residual)


def is_psd(h: np.ndarray, tol: float) -> bool:
    """True iff the smallest eigenvalue of h is >= -tol."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return bool(hermitian_eigenvalues(h).values[0] >= -tol)
