"""Qubit observables and reference states.

Dichotomic observables are realized as Bloch-parametrized qubit operators
n.sigma (Hermitian, squaring to the identity).  Party 0 is always the
leftmost tensor factor; |0> is the +1 eigenvector of sigma_z.

The reference states come in two forms: dense 2^N x 2^N matrices
(ghz_state, maximally_mixed, product_state, noisy_mixture) and structured
states (NoisyGhz, ProductState) in one product-sum form, from which
trace_product evaluates tr(rho (x)_p X_p) in O(N), with matrix() for the
dense form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .opalg import HERMITICITY_TOL, hermiticity_defect, kron

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
IDENTITY_2 = np.eye(2, dtype=np.complex128)
PAULIS = np.stack([PAULI_X, PAULI_Y, PAULI_Z])
# Row 2r + c holds sigma_k[c, r] for sigma_k in (I, x, y, z), so the entries
# X[r, c] of a factor, at 2r + c, times this table give every tr(sigma_k X).
PAULI_TRACES = np.stack([IDENTITY_2, *PAULIS]).swapaxes(-1, -2).reshape(4, 4).T

UNIT_NORM_TOL = 1e-12
IMAGINARY_PART_TOL = 1e-10


@dataclass(frozen=True)
class BlochVector:
    """Unit direction on the Bloch sphere."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        norm2 = self.x * self.x + self.y * self.y + self.z * self.z
        # Written so that a NaN norm, from a NaN that JSON configs may hold,
        # fails the test too.
        if not abs(norm2 - 1.0) <= UNIT_NORM_TOL:
            if not all(math.isfinite(c) for c in (self.x, self.y, self.z)):
                raise ValueError(f"Bloch vector entries must be finite, got {self.as_list()!r}")
            raise ValueError(f"Bloch vector must be unit length, got |n|^2 = {norm2!r}")

    @classmethod
    def from_angles(cls, theta: float, phi: float) -> "BlochVector":
        s = math.sin(theta)
        return cls(s * math.cos(phi), s * math.sin(phi), math.cos(theta))

    def as_list(self) -> list[float]:
        return [self.x, self.y, self.z]


def pauli_factors(bloch) -> np.ndarray:
    """n.sigma for every Bloch vector in an array of shape (..., 3): the one
    map from settings to 2x2 factors, of shape (..., 2, 2).  Complex vectors
    z give z.sigma.  One matrix product against the Paulis' flattened
    entries, which equals np.tensordot's to the bit at a fraction of its
    call overhead."""
    bloch = np.asarray(bloch)
    return (bloch @ PAULIS.reshape(3, 4)).reshape(*bloch.shape[:-1], 2, 2)


@dataclass(frozen=True)
class SettingsTable:
    """Per party, two measurement directions indexed by a setting bit.

    ``bloch`` holds the same directions as a read-only (N, 2, 3) array, the
    form every computation uses; it is derived from ``parties``, so it takes
    no part in equality or hashing.
    """

    parties: tuple[tuple[BlochVector, BlochVector], ...]
    bloch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        parties = tuple(tuple(pair) for pair in self.parties)
        if len(parties) < 2:
            raise ValueError("a settings table needs at least two parties")
        for pair in parties:
            if len(pair) != 2 or not all(isinstance(v, BlochVector) for v in pair):
                raise ValueError("each party needs exactly two Bloch vectors")
        bloch = np.array([[v.as_list() for v in pair] for pair in parties])
        bloch.flags.writeable = False
        object.__setattr__(self, "parties", parties)
        object.__setattr__(self, "bloch", bloch)

    @classmethod
    def from_bloch(cls, bloch) -> "SettingsTable":
        """The table of an (N, 2, 3) array of unit vectors."""
        pairs = np.asarray(bloch).tolist()
        return cls(tuple(tuple(BlochVector(*v) for v in pair) for pair in pairs))

    @property
    def n_parties(self) -> int:
        return len(self.parties)

    def observable(self, party: int, setting: int) -> np.ndarray:
        return pauli_factors(self.bloch[party, setting])

    def to_json_dict(self) -> dict:
        return {"parties": [[v0.as_list(), v1.as_list()] for v0, v1 in self.parties]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SettingsTable":
        # Every vector of a party is read, so that the table rejects a party
        # with other than two.
        return cls(tuple(tuple(BlochVector(*v) for v in pair) for pair in data["parties"]))


@dataclass(frozen=True)
class Grouping:
    """Bipartition of parties 0..N-1 into two nonempty groups."""

    group_a: tuple[int, ...]
    group_b: tuple[int, ...]

    def __post_init__(self):
        a, b = set(self.group_a), set(self.group_b)
        if not a or not b:
            raise ValueError("both groups must be nonempty")
        if a & b:
            raise ValueError("groups must be disjoint")
        n = len(a) + len(b)
        if a | b != set(range(n)):
            raise ValueError("groups must cover parties 0..N-1 exactly")
        object.__setattr__(self, "group_a", tuple(sorted(a)))
        object.__setattr__(self, "group_b", tuple(sorted(b)))

    @property
    def n_parties(self) -> int:
        return len(self.group_a) + len(self.group_b)


def ghz_state(n: int) -> np.ndarray:
    """Projector onto (|0...0> + |1...1>)/sqrt(2)."""
    if n < 2:
        raise ValueError("ghz_state needs at least two qubits")
    dim = 2**n
    vec = np.zeros(dim, dtype=np.complex128)
    vec[0] = vec[-1] = 1.0 / math.sqrt(2.0)
    return np.outer(vec, vec.conj())


def maximally_mixed(n: int) -> np.ndarray:
    """I / 2^n."""
    if n < 1:
        raise ValueError("maximally_mixed needs at least one qubit")
    dim = 2**n
    return np.eye(dim, dtype=np.complex128) / dim


def product_state(blochs) -> np.ndarray:
    """Tensor product of pure single-qubit states (I + n.sigma)/2."""
    blochs = list(blochs)
    if not blochs:
        raise ValueError("product_state needs at least one Bloch vector")
    out = np.array([[1.0 + 0.0j]])
    for factor in pauli_factors([n.as_list() for n in blochs]):
        out = kron(out, (IDENTITY_2 + factor) / 2.0)
    return out


def noisy_mixture(rho: np.ndarray, v: float) -> np.ndarray:
    """v * rho + (1 - v) * I/d."""
    if not 0.0 <= v <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    dim = rho.shape[0]
    return v * rho + (1.0 - v) * np.eye(dim) / dim


class _ProductSum:
    """A structured state: ``weights`` (length D) and ``terms``, which maps
    2x2 factors of shape (N, ..., 2, 2) to (N, ..., D) linearly in each
    factor, give tr(rho (x)_p X_p) = sum_d weights[d] prod_p terms(X)[p, d]
    with no 2^N array."""

    def trace_product(self, factors):
        """tr(rho (x)_p X_p) for 2x2 factors of shape (N, ..., 2, 2), party 0
        first; the axes between give a stack of traces."""
        factors = np.asarray(factors)
        if factors.ndim < 3 or (len(factors), *factors.shape[-2:]) != (self.n_parties, 2, 2):
            raise ValueError(
                f"factors of shape {factors.shape} do not act on dimension 2^{self.n_parties}"
            )
        return self.terms(factors).prod(axis=0) @ self.weights


@dataclass(frozen=True)
class NoisyGhz(_ProductSum):
    """v GHZ + (1 - v) I/d on N qubits; the GHZ state is v = 1, the maximally
    mixed state v = 0.

    The GHZ projector's four nonzero entries pair |0...0> and |1...1>, so
    tr(GHZ (x)_p X_p) is 1/2 sum_ij prod_p X_p[i, j], and tr(I/d (x)_p X_p)
    is prod_p tr X_p / 2: five terms, each factor's four entries with weight
    v/2 and half its trace with weight 1 - v.
    """

    n_parties: int
    visibility: float = 1.0

    def __post_init__(self):
        if self.n_parties < 2:
            raise ValueError("a GHZ state needs at least two qubits")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must lie in [0, 1]")

    @property
    def weights(self) -> np.ndarray:
        v = self.visibility
        return np.array([v / 2.0] * 4 + [1.0 - v])

    def terms(self, factors) -> np.ndarray:
        entries = factors.reshape(*factors.shape[:-2], 4)
        return np.concatenate([entries, (entries[..., :1] + entries[..., 3:]) / 2.0], axis=-1)

    def matrix(self) -> np.ndarray:
        """The dense 2^N x 2^N density matrix."""
        if self.visibility == 0.0:
            return maximally_mixed(self.n_parties)
        rho = ghz_state(self.n_parties)
        return rho if self.visibility == 1.0 else noisy_mixture(rho, self.visibility)


@dataclass(frozen=True)
class ProductState(_ProductSum):
    """(x)_p (I + n_p.sigma)/2, one pure qubit state per party.

    One term: tr(rho (x)_p X_p) is prod_p tr(rho_p X_p), and
    tr(rho_p X) = (tr X + n_p . tr(sigma X))/2, exactly n_p's k-th entry for
    X = sigma_k.
    """

    blochs: tuple[BlochVector, ...]
    weights = (1.0,)

    def __post_init__(self):
        blochs = tuple(self.blochs)
        if not blochs or not all(isinstance(v, BlochVector) for v in blochs):
            raise ValueError("a product state needs one Bloch vector per qubit")
        object.__setattr__(self, "blochs", blochs)

    @property
    def n_parties(self) -> int:
        return len(self.blochs)

    def terms(self, factors) -> np.ndarray:
        coords = np.array([[1.0, *v.as_list()] for v in self.blochs])
        traces = factors.reshape(*factors.shape[:-2], 4) @ PAULI_TRACES
        return np.einsum("p...k,pk->p...", traces, coords)[..., np.newaxis] / 2.0

    def matrix(self) -> np.ndarray:
        """The dense 2^N x 2^N density matrix."""
        return product_state(self.blochs)


def real_trace(tr) -> float:
    """The real part of a trace that must be real.

    A trace against a Hermitian operator is real, so an imaginary part
    signals a non-Hermitian operator bug and is rejected.
    """
    tr = complex(tr)
    if abs(tr.imag) > IMAGINARY_PART_TOL:
        raise ValueError(f"expectation has imaginary part {tr.imag:.3e}")
    return float(tr.real)


def expectation(op: np.ndarray, rho: np.ndarray) -> float:
    """Re tr(op . rho) for a Hermitian operator, in O(d^2): the trace of a
    product is sum_ij op[i, j] rho[j, i], so the product is never formed."""
    if op.shape != rho.shape:
        raise ValueError(f"dimension mismatch: {op.shape} vs {rho.shape}")
    dim = op.shape[0]
    if hermiticity_defect(op) > HERMITICITY_TOL * dim:
        raise ValueError("operator must be Hermitian")
    return real_trace(np.einsum("ij,ji->", op, rho))
