"""Inequality operators.

CHSH, the 4-cycle noncontextual expression, the N-qubit Svetlichny
polynomial, the two-term family of its relabellings (SignPattern.two_term,
decided once per pattern and read by the classical bounds and the witness),
and the certified sign vectors of its 2^(N-2) CHSH-type elements on an
effective party pair (element_signs; the dense elements are in dense).

Setting words are read with party 0 as the most significant bit, so word
indices follow binary counting: for N = 3 the word 011 means party 0 uses
setting 0 and parties 1, 2 use setting 1.  correlation_sum evaluates any
full-correlation sum over the setting words in this order; it builds the
inequality operators here and the classical strategy values in classical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .opalg import (
    HERMITICITY_TOL,
    anticommutator,
    commutator,
    frob_distance,
    frob_norm,
    is_psd,
    kron,
)
from .qobs import (
    IDENTITY_2,
    BlochVector,
    SettingsTable,
    pauli_factors,
    real_trace,
)

COMPATIBILITY_TOL = 1e-10
# How far below zero a smallest eigenvalue may lie in a positivity check.
PSD_TOL = 1e-9


class CertificationError(ValueError):
    """A four-term group whose sign vector is not CHSH-type."""

    identity = "chsh_type_certification"


def svetlichny_sign(index: int) -> int:
    """Coefficient of the full-correlation term at a setting word.

    (-1)^floor(k/2) with k the number of set bits; the sign sequence in k is
    +, +, -, -, repeating with period four.
    """
    if index < 0:
        raise ValueError("setting word must be nonnegative")
    k = int(index).bit_count()
    return -1 if (k >> 1) & 1 else 1


@dataclass(frozen=True)
class SignPattern:
    """One +/-1 coefficient per N-bit setting word (binary counting order)."""

    n_parties: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coeffs)
        if self.n_parties < 2:
            raise ValueError("sign patterns need at least two parties")
        if len(coeffs) != 2**self.n_parties:
            raise ValueError(
                f"expected {2 ** self.n_parties} coefficients, got {len(coeffs)}"
            )
        if any(c not in (-1, 1) for c in coeffs):
            raise ValueError("coefficients must be +1 or -1")
        object.__setattr__(self, "coeffs", coeffs)

    @cached_property
    def two_term(self) -> tuple[int, int, int] | None:
        """(a, b, neg) for a pattern of the two-term family, else None.

        The family is coeffs[w] = Re[kappa prod_p c_p(w_p)] with c_p in
        {+-1, +-i} and c_p(1)/c_p(0) = +-i: the Svetlichny pattern (kappa =
        1 - i, c_p = (1, i)) and its per-party setting swaps and outcome
        flips, whose operator is the Hermitian part of a Kronecker product
        (Werner & Wolf, PRA 64, 032112, 2001).  With every c_p(0) folded into
        kappa = a + ib and r_p = c_p(1)/c_p(0) = -i exactly where neg has bit
        N-1-p, coeffs[w] = Re[(a + ib) i^popcount(w) (-1)^popcount(w & neg)].
        Conjugating kappa and every r_p leaves the pattern unchanged, so r_0 = i
        is fixed; words 0 and 2^(N-1-p) read off a, b and neg, and the rest are
        checked in order up to the first mismatch.  Computed on first read.
        """
        n, coeffs = self.n_parties, self.coeffs
        # The first four words of a family pattern are (a', -s b', -t b', -st a')
        # for some a', b', s, t = +-1, so their product is -1; every two-party
        # pattern outside the family fails this.
        if coeffs[0] * coeffs[1] * coeffs[2] * coeffs[3] != -1:
            return None
        a, b = coeffs[0], -coeffs[1 << (n - 1)]
        neg = 0
        for p in range(1, n):
            bit = 1 << (n - 1 - p)
            if coeffs[bit] == b:
                neg |= bit
        # Re[(a + ib) i^j] for j = 0..3.
        real_parts = (a, -b, -a, b)
        for w, c in enumerate(coeffs):
            if c != real_parts[(w.bit_count() + 2 * (w & neg).bit_count()) & 3]:
                return None
        return a, b, neg

    def flipped(self, index: int) -> "SignPattern":
        """Copy with one coefficient negated (fault-injection hook)."""
        if not 0 <= index < len(self.coeffs):
            raise ValueError(f"sign index {index} out of range 0..{len(self.coeffs) - 1}")
        coeffs = list(self.coeffs)
        coeffs[index] = -coeffs[index]
        return SignPattern(self.n_parties, tuple(coeffs))

    def to_json_dict(self) -> dict:
        return {"n": self.n_parties, "coeffs": list(self.coeffs)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SignPattern":
        return cls(int(data["n"]), tuple(data["coeffs"]))


@cache
def svetlichny_pattern(n_parties: int) -> SignPattern:
    """The Svetlichny signs, built once per party count (a SignPattern is
    immutable, so every caller may share it)."""
    return SignPattern(
        n_parties, tuple(svetlichny_sign(w) for w in range(2**n_parties))
    )


def chsh_pattern() -> SignPattern:
    """The CHSH sign pattern (+, +, +, -); equals the two-party Svetlichny one."""
    return svetlichny_pattern(2)


@dataclass(frozen=True)
class InequalityOperator:
    matrix: np.ndarray
    classical_bound: float
    label: str


@dataclass(frozen=True)
class PartyFactors:
    """Each party's two Hermitian 2x2 Kronecker factors, stacked as (party,
    setting, 2, 2), and their spectral norms, computed once per table so that
    a term and its norm bound cannot disagree."""

    observables: np.ndarray
    norms: np.ndarray = field(init=False)

    def __post_init__(self):
        obs = np.asarray(self.observables, dtype=np.complex128)
        # A norm bound on a spectrum holds only for Hermitian operators.
        defect = frob_norm(obs - np.conj(np.swapaxes(obs, -1, -2)))
        if defect > HERMITICITY_TOL * 2:
            raise ValueError(f"factors are not Hermitian: defect {defect:.3e}")
        # The spectral norm of [[a, b], [b*, d]] in closed form: its
        # eigenvalues are (a + d)/2 +/- sqrt(((a - d)/2)^2 + |b|^2).
        a, d = obs[..., 0, 0].real, obs[..., 1, 1].real
        norms = np.abs((a + d) / 2.0) + np.hypot((a - d) / 2.0, np.abs(obs[..., 0, 1]))
        object.__setattr__(self, "observables", obs)
        object.__setattr__(self, "norms", norms)

    @classmethod
    def from_settings(cls, settings: SettingsTable) -> "PartyFactors":
        return cls(pauli_factors(settings.bloch))

    def expectation(self, coeffs, rho: np.ndarray) -> float:
        """Re tr(rho sum_w c_w (x)_p F_p[w_p]) with no product built: every
        word's trace is one entry of a state_sum against the factor tables."""
        words = state_sum(rho, list(trace_table(self.observables))).reshape(-1)
        return real_trace(np.dot(coeffs, words))

    def two_term_value(self, state, form: tuple[int, int, int]) -> float:
        """Value on a structured state (qobs.NoisyGhz, qobs.ProductState) of
        the family pattern whose SignPattern.two_term is ``form`` = (a, b,
        neg): Re((a + ib) t) = a Re t - b Im t for the Kronecker product
        t = tr(rho (x)_p (F_p0 + r_p F_p1)), r_p = -i where neg has bit N-1-p
        and i otherwise."""
        a, b, neg = form
        n = len(self.observables)
        r = np.array([-1j if (neg >> (n - 1 - p)) & 1 else 1j for p in range(n)])
        t = state.trace_product(self.observables[:, 0] + r[:, None, None] * self.observables[:, 1])
        return a * t.real - b * t.imag


def correlation_sum(coeffs, factors) -> np.ndarray:
    """Full-correlation sum  sum_w c_w (x)_p F_p[w_p]  over all setting words.

    ``coeffs`` holds one coefficient per N-bit setting word in binary
    counting order (party 0 most significant); ``factors[p]`` is an array
    of shape (2, *s_p) indexed first by party p's setting bit.  Returns the
    tensor of shape (*s_0, ..., *s_{N-1}) whose entry [i_0, ..., i_{N-1}] is
    sum_w c_w prod_p F_p[w_p, i_p].  A factor may lead with any size m_p in
    place of 2; ``coeffs`` then holds prod_p m_p entries, party 0's index
    most significant.

    The m_0 x ... x m_{N-1} coefficient tensor is contracted with one
    party's factor at a time, so the cost is O(N * size of the result)
    instead of 2^N products of that size.
    """
    factors = [np.asarray(factor) for factor in factors]
    out = np.asarray(coeffs)
    for factor in factors:
        # One matrix product contracts the leading setting axis and appends
        # the party's axes last, so after N steps the parties sit in order
        # 0..N-1.
        m = len(factor)
        out = out.reshape(m, -1).T @ factor.reshape(m, -1)
    return out.reshape([size for factor in factors for size in factor.shape[1:]])


def trace_table(factors) -> np.ndarray:
    """Square factors F[..., s, :, :] of size d laid out for state_sum: the
    (..., d^2, m) table whose row d r + c holds F[..., :, c, r], so that
    summing rho[r, c] against it gives tr(rho F[s]) for every s."""
    factors = np.asarray(factors)
    m, d = factors.shape[-3], factors.shape[-1]
    return factors.swapaxes(-1, -3).reshape(*factors.shape[:-3], d * d, m)


def state_sum(rho: np.ndarray, tables) -> np.ndarray:
    """correlation_sum of a density matrix against one table per party.

    ``tables[p]`` has shape (d_p^2, *s_p) with prod_p d_p the dimension of
    ``rho``, party 0 leftmost; row d_p r + c belongs to party p's (row,
    column) index pair (r, c).  With the tables of trace_table(F_p), entry
    [i_0, ..., i_{N-1}] is tr(rho (x)_p F_p[i_p]).  No array of rho's size
    is formed besides rho's reordered copy, and for tables of width 2 or 3
    the cost is O(d^2) with d the dimension of rho.
    """
    dims = [math.isqrt(len(table)) for table in tables]
    n = len(dims)
    # (row_0..row_{N-1}, col_0..col_{N-1}) -> (row_0, col_0, row_1, col_1, ...)
    pairs = np.asarray(rho).reshape(dims * 2).transpose(
        [axis for p in range(n) for axis in (p, n + p)]
    )
    return correlation_sum(pairs, tables)


def operator_sum(coeffs, factors) -> np.ndarray:
    """correlation_sum over square matrix factors, returned as the matrix
    sum_w c_w kron_p F_p[w_p] with party 0 leftmost.  With no factors it is
    the 1 x 1 matrix [[c]]."""
    out = correlation_sum(coeffs, factors)
    # Axes come out as (row_0, col_0, ..., row_{N-1}, col_{N-1}); the kron
    # layout puts every row index before every column index.
    rows_then_cols = list(range(0, out.ndim, 2)) + list(range(1, out.ndim, 2))
    dim = math.isqrt(out.size)
    return out.transpose(rows_then_cols).reshape(dim, dim)


def _pattern_operator(settings: SettingsTable, pattern: SignPattern) -> np.ndarray:
    n = settings.n_parties
    if pattern.n_parties != n:
        raise ValueError(f"pattern is for {pattern.n_parties} parties, settings for {n}")
    return operator_sum(
        np.asarray(pattern.coeffs, dtype=np.float64), pauli_factors(settings.bloch)
    )


def chsh_operator(settings: SettingsTable) -> InequalityOperator:
    """A1B1 + A1B2 + A2B1 - A2B2 with classical bound 2.

    This is the four-term combination forced by the anticommutator identity
    {X, Y} = 4E for X = 2 - (A1B1 - A2B2), Y = 2 - (A1B2 + A2B1).
    """
    if settings.n_parties != 2:
        raise ValueError("chsh_operator needs exactly two parties")
    return InequalityOperator(_pattern_operator(settings, chsh_pattern()), 2.0, "chsh")


def svetlichny_operator(
    settings: SettingsTable, pattern: SignPattern | None = None
) -> InequalityOperator:
    """Sum over all 2^N setting words of sign(word) times the correlation
    operator; classical and hybrid bound 2^(N-1).  Reduces to the CHSH
    operator for N = 2."""
    n = settings.n_parties
    matrix = _pattern_operator(settings, pattern or svetlichny_pattern(n))
    return InequalityOperator(matrix, float(2 ** (n - 1)), f"svetlichny-{n}")


CYCLE_PAIRS = (("A", "B"), ("B", "C"), ("C", "D"), ("D", "A"))


def noncontextual_cycle(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray
) -> tuple[np.ndarray, np.ndarray, InequalityOperator]:
    """Witness operators and 4-cycle expression for compatible observables.

    For pairwise-compatible dichotomic observables around the cycle
    ([A,B] = [B,C] = [C,D] = [D,A] = 0) returns

        X  = 2 - (BC - AD)          (positive semidefinite)
        Y  = 2 - (AB + CD)          (positive semidefinite)
        Ec = 2 - (AB + BC + CD - AD)

    which satisfy XY = 2Ec + [B,D] + [C,A] and {X, Y} = 4Ec exactly.
    Raises naming the first incompatible pair.
    """
    ops = {"A": a, "B": b, "C": c, "D": d}
    for name, m in ops.items():
        if m.shape != (4, 4):
            raise ValueError(f"cycle observable {name} must be 4x4, got {m.shape}")
    for x, y in CYCLE_PAIRS:
        defect = frob_norm(commutator(ops[x], ops[y]))
        if defect > COMPATIBILITY_TOL:
            raise ValueError(
                f"observables {x} and {y} are not compatible: ||[{x},{y}]|| = {defect:.3e}"
            )
    eye = np.eye(4)
    x_op = 2.0 * eye - (b @ c - a @ d)
    y_op = 2.0 * eye - (a @ b + c @ d)
    for name, m in (("X", x_op), ("Y", y_op)):
        if not is_psd(m, PSD_TOL):
            raise ValueError(
                f"{name} is not positive semidefinite; cycle observables must be involutory"
            )
    ec = 2.0 * eye - (a @ b + b @ c + c @ d - a @ d)
    return x_op, y_op, InequalityOperator(ec, 2.0, "noncontextual-cycle")


def noncontextual_identities(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray
) -> tuple[np.ndarray, np.ndarray, InequalityOperator, dict[str, float]]:
    """noncontextual_cycle plus the Frobenius residuals of its two identities,
    ``noncontextual_xy`` (XY = 2Ec + [B,D] + [C,A]) and ``noncontextual_4ec``
    ({X, Y} = 4Ec)."""
    x_op, y_op, ec = noncontextual_cycle(a, b, c, d)
    residuals = {
        "noncontextual_xy": frob_distance(
            x_op @ y_op, 2.0 * ec.matrix + commutator(b, d) + commutator(c, a)
        ),
        "noncontextual_4ec": frob_distance(anticommutator(x_op, y_op), 4.0 * ec.matrix),
    }
    return x_op, y_op, ec, residuals


def cycle_from_settings(
    settings: SettingsTable,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Canonical compatible 4-cycle (A, B, C, D) from two-party settings.

    B = A1 x I, D = A2 x I, C = I x B1, A = I x B2: neighbours around the
    cycle act on disjoint factors, so all four commutators vanish exactly,
    and Ec reproduces the CHSH combination.
    """
    if settings.n_parties != 2:
        raise ValueError("the canonical cycle needs a two-party settings table")
    a1, a2 = settings.observable(0, 0), settings.observable(0, 1)
    b1, b2 = settings.observable(1, 0), settings.observable(1, 1)
    b = kron(a1, IDENTITY_2)
    d = kron(a2, IDENTITY_2)
    c = kron(IDENTITY_2, b1)
    a = kron(IDENTITY_2, b2)
    return a, b, c, d


def chsh_optimal_settings() -> SettingsTable:
    """Settings reaching the CHSH quantum maximum 2*sqrt(2):
    A = (sigma_z, sigma_x), B = ((z+x)/sqrt2, (z-x)/sqrt2)."""
    r = 1.0 / math.sqrt(2.0)
    return SettingsTable(
        (
            (BlochVector(0.0, 0.0, 1.0), BlochVector(1.0, 0.0, 0.0)),
            (BlochVector(r, 0.0, r), BlochVector(-r, 0.0, r)),
        )
    )


def element_signs(pattern: SignPattern | None, n_parties: int) -> np.ndarray:
    """The certified (2^(N-2), 4) sign vectors of the CHSH-type elements of
    ``pattern`` (default: the Svetlichny pattern).

    Row u holds the coefficients of the words (u << 2) | (i << 1) | j in
    (i, j) binary counting order; each must have the form (a, b, b, -a).
    """
    pattern = pattern or svetlichny_pattern(n_parties)
    if pattern.n_parties != n_parties:
        raise ValueError(
            f"pattern is for {pattern.n_parties} parties, settings for {n_parties}"
        )
    signs = np.asarray(pattern.coeffs).reshape(-1, 4)
    bad = (signs[:, 1] != signs[:, 2]) | (signs[:, 3] != -signs[:, 0])
    if bad.any():
        index = int(np.argmax(bad))
        raise CertificationError(
            f"element {index}: sign vector {tuple(int(c) for c in signs[index])} "
            "is not CHSH-type (expected the form (a, b, b, -a))"
        )
    return signs
