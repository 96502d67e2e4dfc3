"""Witness pairs and their anticommutator identities.

Each CHSH-type element with signs (a, b, b, -a) yields positive operators

    X = 2 - a(Q00 - Q11),    Y = 2 - b(Q01 + Q10)

whose anticommutator satisfies {X, Y} = 4(2I - I_elem) exactly: the cross
terms cancel because the grouped observables square to the identity and the
two effective sides commute.  Summing over all elements gives the total
witness 4(2^(N-1) I - I_svet), nonnegative in expectation on classical
states and negative exactly when the Svetlichny inequality is violated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ineq import (
    ChshElement,
    InequalityOperator,
    SignPattern,
    chsh_element,
    decompose_svetlichny,
    svetlichny_operator,
)
from .opalg import anticommutator, frob_distance
from .qobs import SettingsTable, expectation

# Identity residual slack scales with dimension, like the hermiticity slack.
ELEMENT_RESIDUAL_TOL = 1e-11
PSD_TOL = 1e-9
# 1e-10 of eigensolver slack scaled by the factor 4 linking witness and
# inequality values, plus margin.
NEGATIVITY_MARGIN = 2.5e-10
VALUE_CROSSCHECK_TOL = 1e-9


class WitnessIdentityError(RuntimeError):
    """An anticommutator failed to reproduce its inequality target."""

    identity = "anticommutator_cancellation"


@dataclass(frozen=True)
class WitnessPair:
    """Positive operators whose anticommutator is the element witness."""

    x: np.ndarray
    y: np.ndarray
    sign_variant: tuple[int, int]


def positivity_bounds(e: ChshElement) -> tuple[float, float]:
    """Lower bounds on the smallest eigenvalues of the element's X and Y.

    By Weyl's inequality lambda_min(2I - a(Q00 - Q11)) >= 2 - ||Q00|| - ||Q11||
    (likewise Y with Q01, Q10), and each ||Q_w|| is a product of 2x2 factor
    norms, so no 2^N eigensolve is needed.
    """
    n00, n01, n10, n11 = e.term_norms
    return 2.0 - n00 - n11, 2.0 - n01 - n10


def witness_pair(e: ChshElement) -> WitnessPair:
    """Build (X, Y) for a certified CHSH-type element.

    Both operators are positive semidefinite since each correlation operator
    has spectrum in [-1, 1]; positivity_bounds certifies this, and a failure
    means some 2x2 factor has norm above 1, so it is no +/-1 observable.
    """
    a, b = e.sign_variant
    q00, q01, q10, q11 = e.terms
    for name, bound in zip("XY", positivity_bounds(e)):
        if bound < -PSD_TOL:
            raise WitnessIdentityError(
                f"element {e.index}: {name} is not certified positive semidefinite "
                f"(norm bound {bound:.3e})"
            )
    eye = np.eye(q00.shape[0])
    x = 2.0 * eye - a * (q00 - q11)
    y = 2.0 * eye - b * (q01 + q10)
    return WitnessPair(x=x, y=y, sign_variant=(a, b))


def _witness_matrix(e: ChshElement) -> tuple[np.ndarray, float]:
    """Anticommutator of the element's witness pair and its identity residual."""
    pair = witness_pair(e)
    q = anticommutator(pair.x, pair.y)
    dim = q.shape[0]
    target = 4.0 * (2.0 * np.eye(dim) - e.operator())
    return q, frob_distance(q, target)


def _require_residual(name: str, residual: float, dim: int) -> None:
    if residual > ELEMENT_RESIDUAL_TOL * dim:
        raise WitnessIdentityError(
            f"{name}: identity residual {residual:.3e} exceeds "
            f"{ELEMENT_RESIDUAL_TOL:.0e} * {dim}; cross-term cancellation failed"
        )


def element_witness(e: ChshElement) -> np.ndarray:
    """Q_elem = {X, Y}; certified equal to 4(2I - I_elem)."""
    q, residual = _witness_matrix(e)
    _require_residual(f"element {e.index}", residual, q.shape[0])
    return q


def _kahan_sum(mats: list[np.ndarray]) -> np.ndarray:
    """Compensated matrix summation, independent of small reorderings."""
    total = np.zeros_like(mats[0])
    comp = np.zeros_like(mats[0])
    for m in mats:
        y = m - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def witness_identities(
    settings: SettingsTable, pattern: SignPattern | None = None
) -> tuple[np.ndarray, InequalityOperator, dict[str, float]]:
    """Total witness, its inequality operator, and the Frobenius residual of
    every identity: ``chsh_4e`` (N = 2) or ``element_xi<k>`` per element, and
    ``total`` for Q_tot = 4(2^(N-1) I - I_op).  Thresholds are the caller's."""
    n = settings.n_parties
    if n == 2:
        elements, keys = [chsh_element(settings, pattern)], ["chsh_4e"]
    else:
        elements = decompose_svetlichny(settings, pattern)
        keys = [f"element_xi{e.index}" for e in elements]
    # At N = 2 the Svetlichny operator is the CHSH operator.
    ineq_op = svetlichny_operator(settings, pattern)

    residuals: dict[str, float] = {}
    witnesses = []
    for key, e in zip(keys, elements):
        q, residuals[key] = _witness_matrix(e)
        witnesses.append(q)
    total = _kahan_sum(witnesses)
    target = 4.0 * (2.0 ** (n - 1) * np.eye(total.shape[0]) - ineq_op.matrix)
    residuals["total"] = frob_distance(total, target)
    return total, ineq_op, residuals


def total_witness(
    settings: SettingsTable, pattern: SignPattern | None = None
) -> np.ndarray:
    """Q_tot = sum of element witnesses; certified equal to 4(2^(N-1) I - I_svet)."""
    if settings.n_parties < 3:
        raise ValueError(
            "total_witness needs at least three parties; use the CHSH element for N = 2"
        )
    total, _, residuals = witness_identities(settings, pattern)
    for key, residual in residuals.items():
        _require_residual(key, residual, total.shape[0])
    return total


@dataclass(frozen=True)
class WitnessReport:
    """Evaluated total witness together with its identity residuals."""

    n_parties: int
    value: float
    bound_term: float
    svet_value: float
    negative: bool
    identity_residuals: dict[str, float]

    def to_json_dict(self) -> dict:
        return {
            "n_parties": self.n_parties,
            "value": self.value,
            "bound_term": self.bound_term,
            "svet_value": self.svet_value,
            "negative": self.negative,
            "identity_residuals": dict(self.identity_residuals),
        }


def evaluate_witness(
    settings: SettingsTable, rho: np.ndarray, pattern: SignPattern | None = None
) -> WitnessReport:
    """Evaluate the total witness and the inequality operator on a state.

    The negativity flag fires iff the inequality expectation exceeds the
    classical bound 2^(N-1) by more than NEGATIVITY_MARGIN, equivalently iff
    the witness value drops below -4 * NEGATIVITY_MARGIN.
    """
    n = settings.n_parties
    dim = 2**n
    if rho.shape != (dim, dim):
        raise ValueError(f"state has shape {rho.shape}, expected {(dim, dim)}")
    total, ineq_op, residuals = witness_identities(settings, pattern)
    bound = float(2 ** (n - 1))
    value = expectation(total, rho)
    svet_value = expectation(ineq_op.matrix, rho)
    if abs(value - 4.0 * (bound - svet_value)) > VALUE_CROSSCHECK_TOL:
        raise WitnessIdentityError(
            "witness value and inequality value disagree beyond tolerance"
        )
    negative = bool(svet_value > bound + NEGATIVITY_MARGIN)
    return WitnessReport(
        n_parties=n,
        value=value,
        bound_term=4.0 * bound,
        svet_value=svet_value,
        negative=negative,
        identity_residuals=residuals,
    )
