"""Dense 2^N x 2^N reference constructions, the oracles the factored program
paths are tested against.  This module imports the program modules; no
program module imports it."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ineq import (
    PSD_TOL,
    PartyFactors,
    SignPattern,
    element_signs,
    operator_sum,
    svetlichny_operator,
)
from .opalg import anticommutator, frob_distance, frob_norm, kron
from .qobs import IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z, BlochVector, Grouping, SettingsTable
from .witness import (
    ELEMENT_RESIDUAL_TOL,
    FactoredIdentities,
    WitnessIdentityError,
    _reject_positivity,
)

INVOLUTION_TOL = 1e-11


def bloch_observable(n: BlochVector) -> np.ndarray:
    """n.sigma: the +/-1-valued qubit observable along direction n, one
    vector at a time; the oracle for qobs.pauli_factors."""
    return n.x * PAULI_X + n.y * PAULI_Y + n.z * PAULI_Z


def embed(obs: np.ndarray, party: int, n_parties: int) -> np.ndarray:
    """I x ... x obs x ... x I with obs in the given party slot."""
    if obs.shape != (2, 2):
        raise ValueError("embed expects a single-qubit (2x2) observable")
    if not 0 <= party < n_parties:
        raise ValueError(f"party index {party} out of range for {n_parties} parties")
    out = np.array([[1.0 + 0.0j]])
    for slot in range(n_parties):
        out = kron(out, obs if slot == party else IDENTITY_2)
    return out


def group_observable(settings: SettingsTable, group, choices: dict) -> np.ndarray:
    """Joint observable of a party group: the chosen observable on each member
    slot, identity elsewhere.  Its +/-1 outcome is the parity of the members'
    individual outcomes."""
    members = set(group)
    if set(choices) != members:
        raise ValueError("setting choices must be given exactly for the group members")
    out = np.array([[1.0 + 0.0j]])
    for party in range(settings.n_parties):
        if party in members:
            out = kron(out, settings.observable(party, choices[party]))
        else:
            out = kron(out, IDENTITY_2)
    return out


def parity_projector(g: np.ndarray, s: int) -> np.ndarray:
    """(I + (-1)^s g) / 2 for an involutory observable g.

    The two projectors are idempotent, mutually orthogonal, sum to I, and
    their difference recovers g.
    """
    if s not in (0, 1):
        raise ValueError("parity bit must be 0 or 1")
    dim = g.shape[0]
    eye = np.eye(dim)
    defect = frob_norm(g @ g - eye)
    if defect > INVOLUTION_TOL * dim:
        raise ValueError(f"observable is not involutory: ||g^2 - I|| = {defect:.3e}")
    sign = 1.0 if s == 0 else -1.0
    return (eye + sign * g) / 2.0


def _bits(factors: PartyFactors, word: int) -> list[int]:
    n = len(factors.observables)
    return [(word >> (n - 1 - party)) & 1 for party in range(n)]


def term(factors: PartyFactors, word: int) -> np.ndarray:
    """Kronecker product of the factors a setting word picks, party 0
    leftmost."""
    out = np.array([[1.0 + 0.0j]])
    for party, bit in enumerate(_bits(factors, word)):
        out = kron(out, factors.observables[party, bit])
    return out


def term_norm(factors: PartyFactors, word: int) -> float:
    """Spectral norm of term(factors, word): the product of its factors'
    norms."""
    norm = 1.0
    for party, bit in enumerate(_bits(factors, word)):
        norm *= float(factors.norms[party, bit])
    return norm


def correlation_operator(settings: SettingsTable, word: int) -> np.ndarray:
    """Tensor product of the chosen observables for one setting word."""
    return term(PartyFactors.from_settings(settings), word)


@dataclass(frozen=True)
class ChshElement:
    """Four signed full-correlation terms forming one CHSH-type block.

    The free setting indices (i, j) belong to an effective party pair: the
    merged group of parties 0..N-2 and the singleton {N-1}.  All remaining
    parties keep the fixed setting bits recorded in ``fixed_choices``.
    Certified sign vectors always take the form (a, b, b, -a), i.e. one of
    the two CHSH patterns (+,+,+,-) and (+,-,-,-) up to overall sign.

    ``terms`` (dense 2^N x 2^N, built on first use) and ``term_norms``
    come from ``factors``.
    """

    index: int
    grouping: Grouping
    fixed_choices: tuple[int, ...]
    signs: tuple[int, int, int, int]
    factors: PartyFactors
    words: tuple[int, int, int, int]

    @cached_property
    def terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return tuple(term(self.factors, w) for w in self.words)

    @property
    def term_norms(self) -> tuple[float, float, float, float]:
        return tuple(term_norm(self.factors, w) for w in self.words)

    @property
    def sign_variant(self) -> tuple[int, int]:
        """(a, b) such that X = 2 - a(Q00 - Q11) and Y = 2 - b(Q01 + Q10)."""
        return self.signs[0], self.signs[1]

    def signed_terms(self) -> tuple[tuple[int, int, int], ...]:
        """The four (sign, i, j) triples in (i, j) binary counting order."""
        return tuple(
            (self.signs[2 * i + j], i, j) for i in (0, 1) for j in (0, 1)
        )

    def operator(self) -> np.ndarray:
        """The element inequality operator: sum of the signed terms."""
        out = np.zeros_like(self.terms[0])
        for sign, matrix in zip(self.signs, self.terms):
            out += sign * matrix
        return out


def _elements(settings: SettingsTable, pattern: SignPattern | None) -> list[ChshElement]:
    n = settings.n_parties
    signs = element_signs(pattern, n)
    grouping = Grouping(tuple(range(n - 1)), (n - 1,))
    factors = PartyFactors.from_settings(settings)
    elements = []
    for prefix in range(2 ** (n - 2)):
        words = tuple(range(4 * prefix, 4 * prefix + 4))
        fixed = tuple((prefix >> (n - 3 - p)) & 1 for p in range(n - 2))
        elements.append(
            ChshElement(
                prefix, grouping, fixed, tuple(int(c) for c in signs[prefix]), factors, words
            )
        )
    return elements


def decompose_svetlichny(
    settings: SettingsTable, pattern: SignPattern | None = None
) -> list[ChshElement]:
    """Split the Svetlichny polynomial into 2^(N-2) CHSH-type elements.

    Element index runs over the joint setting word of parties 0..N-3; the
    free indices are the settings of parties N-2 and N-1.  Every four-term
    group is certified CHSH-type, which fails loudly if the sign rule is
    ever wrong; summing the element operators reconstructs the Svetlichny
    operator.
    """
    if settings.n_parties < 3:
        raise ValueError(
            "decomposition needs at least three parties; use chsh_element for N = 2"
        )
    return _elements(settings, pattern)


def chsh_element(
    settings: SettingsTable, pattern: SignPattern | None = None
) -> ChshElement:
    """The CHSH combination packaged as a single element (two parties): the
    N = 2 case of the decomposition, with no fixed parties."""
    if settings.n_parties != 2:
        raise ValueError("chsh_element needs exactly two parties")
    return _elements(settings, pattern)[0]


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
    """Build the dense 2^N x 2^N (X, Y) for a certified CHSH-type element.

    Both operators are positive semidefinite since each correlation operator
    has spectrum in [-1, 1]; positivity_bounds certifies this, and a failure
    means some 2x2 factor has norm above 1, so it is no +/-1 observable.
    witness.factored_identities certifies every element at once from the
    same norms.
    """
    a, b = e.sign_variant
    q00, q01, q10, q11 = e.terms
    for name, bound in zip("XY", positivity_bounds(e)):
        if bound < -PSD_TOL:
            _reject_positivity(e.index, name, bound)
    eye = np.eye(q00.shape[0])
    x = 2.0 * eye - a * (q00 - q11)
    y = 2.0 * eye - b * (q01 + q10)
    return WitnessPair(x=x, y=y, sign_variant=(a, b))


def _require_residual(name: str, residual: float, dim: int) -> None:
    if residual > ELEMENT_RESIDUAL_TOL * dim:
        raise WitnessIdentityError(
            f"{name}: identity residual {residual:.3e} exceeds "
            f"{ELEMENT_RESIDUAL_TOL:.0e} * {dim}; cross-term cancellation failed"
        )


def element_witness(e: ChshElement) -> np.ndarray:
    """Q_elem = {X, Y}; certified equal to 4(2I - I_elem).

    The oracle for the element residuals of witness.factored_identities.
    """
    pair = witness_pair(e)
    q = anticommutator(pair.x, pair.y)
    dim = q.shape[0]
    target = 4.0 * (2.0 * np.eye(dim) - e.operator())
    _require_residual(f"element {e.index}", frob_distance(q, target), dim)
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


def total_witness(
    settings: SettingsTable, pattern: SignPattern | None = None
) -> np.ndarray:
    """Q_tot = sum of element witnesses; certified equal to 4(2^(N-1) I - I_svet).

    Element by element: the oracle for witness.factored_identities.
    """
    n = settings.n_parties
    if n < 3:
        raise ValueError(
            "total_witness needs at least three parties; use the CHSH element for N = 2"
        )
    elements = decompose_svetlichny(settings, pattern)
    total = _kahan_sum([element_witness(e) for e in elements])
    dim = total.shape[0]
    target = 4.0 * (2.0 ** (n - 1) * np.eye(dim) - svetlichny_operator(settings, pattern).matrix)
    _require_residual("total", frob_distance(total, target), dim)
    return total


def total_defect(identities: FactoredIdentities) -> np.ndarray:
    """R = Q_tot - 4(2^(N-1) I - I_op) = (sum_u c_u (x)_p S_{p,u_p}) (x) M
    as a dense 2^N x 2^N matrix."""
    return operator_sum(identities.coeffs, [*identities.squares, identities.m[np.newaxis]])
