"""Witness pairs and their anticommutator identities.

Each CHSH-type element with signs (a, b, b, -a) yields positive operators

    X = 2 - a(Q00 - Q11),    Y = 2 - b(Q01 + Q10)

whose anticommutator satisfies {X, Y} = 4(2I - I_elem) exactly: the cross
terms cancel because the grouped observables square to the identity and the
two effective sides commute.  Summing over all elements gives the total
witness 4(2^(N-1) I - I_svet), nonnegative in expectation on classical
states and negative exactly when the Svetlichny inequality is violated.

The identities are checked on the 2x2 Kronecker factors, never on 2^N x 2^N
matrices.  Write the element's terms as Q_ij = G (x) A_i (x) B_j, with G the
product of the fixed parties' factors, and S = F^2 for every factor F.  For
any factors, involutory or not,

    {X, Y} - 4(2I - I_elem) = ab {Q00 - Q11, Q01 + Q10} = ab G^2 (x) M,
    M = (S_A0 - S_A1) (x) {B0, B1} + {A0, A1} (x) (S_B0 - S_B1),

so an element's Frobenius residual is prod_p ||S_p||_F * ||M||_F, a 4 x 4
computation.  Summed over the elements the total witness misses its target
by R = (sum_u c_u (x)_p S_{p,u_p}) (x) M with c_u = a_u b_u.  On a pattern
of the two-term family (ineq.SignPattern.two_term) that element_signs
accepts, c_u = c_0 (-1)^popcount(u), so R = c_0 (x)_p (S_p0 - S_p1) (x) M
is one Kronecker product and ||R||_F the product of its factors' norms; on
any other CHSH-type pattern ||R||_F follows from the 2 x 2 Gram matrices
of each party's two squares.  Involutory factors give S = I and M = 0, so
the residuals are the exact residuals of the computed factors and are
often exactly 0.0.

State values come from the same factors.  The witness value on rho is
4(2^(N-1) - <I>) + tr(rho R), with I the pattern's operator.  On the family
both traces, R's as a sum of two, are traces of Kronecker products of 2x2
factors, which a state's trace_product evaluates in O(N) on the structured
states qobs.NoisyGhz and qobs.ProductState, never made dense.  A density
matrix, and any state under another pattern, takes the coefficient path:
one state_sum of rho against per-party factor tables for each trace, whose
imaginary part is checked.  No 2^N x 2^N operator is built on either path.
The dense construction these formulas are tested against (witness_pair,
element_witness, total_witness, total_defect) is in dense, which no program
module imports; svetlichny_operator with qobs.expectation checks the values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ineq import (
    PSD_TOL,
    PartyFactors,
    SignPattern,
    correlation_sum,
    element_signs,
    state_sum,
    svetlichny_pattern,
    trace_table,
)
from .opalg import frob_norm
from .qobs import SettingsTable, real_trace

# Identity residual slack scales with dimension, like the hermiticity slack.
ELEMENT_RESIDUAL_TOL = 1e-11
# 1e-10 of eigensolver slack scaled by the factor 4 linking witness and
# inequality values, plus margin.
NEGATIVITY_MARGIN = 2.5e-10
VALUE_CROSSCHECK_TOL = 1e-9


class WitnessIdentityError(RuntimeError):
    """An anticommutator failed to reproduce its inequality target."""

    identity = "anticommutator_cancellation"


def _reject_positivity(index: int, name: str, bound: float) -> None:
    raise WitnessIdentityError(
        f"element {index}: {name} is not certified positive semidefinite "
        f"(norm bound {bound:.3e})"
    )


def _prefix_products(values: np.ndarray) -> np.ndarray:
    """prod_p values[p, u_p] for every fixed-party word u, in binary counting
    order (party 0 most significant), multiplied left to right."""
    out = np.ones(1)
    for row in values:
        out = np.multiply.outer(out, row).ravel()
    return out


def _kron_pairs(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """np.kron(left[k], right[k]) for each pair of 2 x 2 factors, stacked:
    one broadcast product and a reshape, the same products bit for bit."""
    return (left[:, :, None, :, None] * right[:, None, :, None, :]).reshape(-1, 4, 4)


def _certify_positive(norms: np.ndarray) -> None:
    """dense.positivity_bounds for every element at once, from the (N, 2)
    factor norms; the first failing element is named, X before Y."""
    n = len(norms)
    prefix = _prefix_products(norms[: n - 2])
    n00, n01, n10, n11 = (prefix * a * b for a in norms[n - 2] for b in norms[n - 1])
    bounds = np.stack([2.0 - n00 - n11, 2.0 - n01 - n10], axis=1)
    failed = (bounds < -PSD_TOL).ravel()
    if failed.any():
        index, which = divmod(int(np.argmax(failed)), 2)
        _reject_positivity(index, "XY"[which], float(bounds[index, which]))


@dataclass(frozen=True)
class FactoredIdentities:
    """Identity defects of the element witnesses, in factored form.

    ``signs`` holds the certified (2^(N-2), 4) sign vectors (the pattern's
    coefficients in word order), ``coeffs`` c_u = a_u b_u per element,
    ``squares`` the fixed parties' S_{p,s} = F_{p,s}^2 with shape
    (N-2, 2, 2, 2), ``m`` the 4 x 4 factor M that every element shares, and
    ``m_terms`` its two Kronecker terms, M = sum_k m_terms[0, k] (x)
    m_terms[1, k].  ``element_residuals`` holds every element's defect and
    ``total`` the total witness's, as Frobenius norms.  ``two_term`` is
    the pattern's SignPattern.two_term form, None outside the family.
    """

    signs: np.ndarray
    coeffs: np.ndarray
    squares: np.ndarray
    m: np.ndarray
    m_terms: np.ndarray
    element_residuals: np.ndarray
    total: float
    two_term: tuple[int, int, int] | None = None

    @property
    def worst_element(self) -> int:
        """The first element whose residual is the largest."""
        return int(np.argmax(self.element_residuals))

    @property
    def residuals(self) -> dict[str, float]:
        """The report's summary, two keys at every N: ``chsh_4e``, the one
        element's residual, at N = 2, else ``element_max``, the largest; and
        ``total``."""
        key = "chsh_4e" if len(self.element_residuals) == 1 else "element_max"
        return {key: float(self.element_residuals.max()), "total": self.total}

    def defect_expectation(self, rho: np.ndarray) -> float:
        """tr(rho R) with R never built: one state_sum against the squares'
        tables for the fixed parties and M's 16 x 1 table for the last two,
        which act on rho as one party of dimension 4."""
        tables = [*trace_table(self.squares), trace_table(self.m[np.newaxis])]
        return real_trace(np.dot(self.coeffs, state_sum(rho, tables).reshape(-1)))

    def defect_trace(self, state) -> float:
        """tr(rho R) on the family, as c_0 times one trace_product of a
        structured state (qobs.NoisyGhz, qobs.ProductState) with c_0 R's two
        Kronecker terms stacked: the fixed parties' S_p0 - S_p1 with each
        term of M."""
        differences = self.squares[:, 0] - self.squares[:, 1]
        fixed = np.broadcast_to(differences[:, np.newaxis], (len(differences), 2, 2, 2))
        trace = real_trace(state.trace_product(np.concatenate([fixed, self.m_terms])).sum())
        return float(self.coeffs[0]) * trace


def factored_identities(
    factors: PartyFactors, pattern: SignPattern | None = None
) -> FactoredIdentities:
    """Certify every element and compute every identity residual from the
    2x2 factors: the sign vectors must be CHSH-type, X and Y must pass the
    norm certificate, and no 2^N x 2^N matrix is built.  Thresholds are the
    caller's."""
    obs = factors.observables
    n = len(obs)
    signs = element_signs(pattern, n)
    _certify_positive(factors.norms)

    squares = obs @ obs
    (a0, a1), (b0, b1) = obs[n - 2 :]
    (sa0, sa1), (sb0, sb1) = squares[n - 2 :]
    m_terms = np.array([[sa0 - sa1, a0 @ a1 + a1 @ a0], [b0 @ b1 + b1 @ b0, sb0 - sb1]])
    kron_terms = _kron_pairs(*m_terms)
    m = kron_terms[0] + kron_terms[1]
    m_norm = frob_norm(m)
    fixed = squares[: n - 2]

    element = _prefix_products(np.linalg.norm(fixed, axis=(-2, -1))) * m_norm
    coeffs = (signs[:, 0] * signs[:, 1]).astype(np.float64)
    two_term = (pattern or svetlichny_pattern(n)).two_term
    if two_term is not None:
        # Here c_u = c_0 (-1)^popcount(u), so R = c_0 (x)_p (S_p0 - S_p1) (x)
        # M and its Frobenius norm is the product of the factors' norms.
        prefix_norm = float(np.prod(np.linalg.norm(fixed[:, 0] - fixed[:, 1], axis=(-2, -1))))
    else:
        # ||sum_u c_u (x)_p S_{p,u_p}||_F^2 = c^T ((x)_p G_p) c, with G_p the
        # Gram matrix of party p's two squares.  Writing G_p = L_p L_p^H
        # makes it the squared 2-norm of one O(N 2^N) correlation_sum, which
        # cannot cancel below zero.  QR of V^H = [vec S_0, vec S_1] gives
        # G = V V^H = R^H R.
        flat = np.conj(fixed.reshape(n - 2, 2, 4)).swapaxes(-1, -2)
        gram_roots = np.conj(np.linalg.qr(flat, mode="r")).swapaxes(-1, -2)
        prefix_norm = float(np.linalg.norm(correlation_sum(coeffs, gram_roots)))
    return FactoredIdentities(
        signs=signs,
        coeffs=coeffs,
        squares=fixed,
        m=m,
        m_terms=m_terms,
        element_residuals=element,
        total=prefix_norm * m_norm,
        two_term=two_term,
    )


@dataclass(frozen=True)
class WitnessReport:
    """Evaluated total witness together with its identity residuals."""

    n_parties: int
    value: float
    bound_term: float
    svet_value: float
    negative: bool
    identity_residuals: dict[str, float]
    worst_element: int

    def to_json_dict(self) -> dict:
        return {**vars(self), "identity_residuals": dict(self.identity_residuals)}


def evaluate_witness(
    settings: SettingsTable, state, pattern: SignPattern | None = None
) -> WitnessReport:
    """Evaluate the total witness and the inequality on a state.

    ``state`` is a density matrix or a structured state (qobs.NoisyGhz,
    qobs.ProductState).  The witness value is 4(2^(N-1) - <I_svet>) +
    tr(rho R), with R the factored identity defect.  On a structured state
    under a two-term family pattern (the default Svetlichny one among them)
    both traces are one trace_product each (PartyFactors.two_term_value,
    FactoredIdentities.defect_trace), so the state is never made dense.  A
    density matrix, or another pattern, takes the coefficient path
    (PartyFactors.expectation, FactoredIdentities.defect_expectation) on
    rho, which rejects a trace with an imaginary part.  No 2^N x 2^N
    operator is built on either path.  The negativity flag fires iff the
    inequality expectation exceeds the classical bound 2^(N-1) by more than
    NEGATIVITY_MARGIN, equivalently iff the witness value drops below
    -4 * NEGATIVITY_MARGIN.
    """
    n = settings.n_parties
    dense = isinstance(state, np.ndarray)
    if dense:
        dim = 2**n
        if state.shape != (dim, dim):
            raise ValueError(f"state has shape {state.shape}, expected {(dim, dim)}")
    elif state.n_parties != n:
        raise ValueError(f"state has {state.n_parties} qubits, settings {n} parties")
    factors = PartyFactors.from_settings(settings)
    identities = factored_identities(factors, pattern)
    bound = float(2 ** (n - 1))
    if identities.two_term is not None and not dense:
        svet_value = factors.two_term_value(state, identities.two_term)
        defect = identities.defect_trace(state)
    else:
        rho = state if dense else state.matrix()
        svet_value = factors.expectation(identities.signs.reshape(-1), rho)
        defect = identities.defect_expectation(rho)
    value = 4.0 * (bound - svet_value) + defect
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
        identity_residuals=identities.residuals,
        worst_element=identities.worst_element,
    )
