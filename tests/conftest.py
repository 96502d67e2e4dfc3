"""Shared test helpers: analytic optimal settings, random settings tables
from numpy's Generator, random unitaries, random compatible 4-cycles,
relabelled sign patterns, and small brute-force, kernel, see-saw and
encoder oracles."""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from qwitness.classical import (
    BoundResult,
    DeterministicStrategy,
    HybridStrategy,
    _enumerated_argmax,
    _enumerated_hybrid,
    _hybrid_result,
    _lhv_result,
)
from qwitness.ineq import (
    SignPattern,
    correlation_sum,
    cycle_from_settings,
    state_sum,
    svetlichny_pattern,
    trace_table,
)
from qwitness.qobs import PAULIS, BlochVector, Grouping, SettingsTable

SQRT2 = math.sqrt(2.0)


def pure_python_json(payload) -> str:
    """cli.canonical_json's arguments through json's pure-Python encoder,
    which JSONEncoder.iterencode takes unless called one-shot."""
    encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return "".join(encoder.iterencode(payload)) + "\n"


def planar_settings(n: int, first_phase: float = math.pi / 4) -> SettingsTable:
    """Equatorial settings that maximize the Svetlichny operator.

    Setting 0 of party 0 sits at ``first_phase`` and all other setting-0
    directions at phase 0; every setting 1 lags its setting 0 by pi/2.  With
    the phases of the setting-0 directions summing to pi/4 the operator
    reaches its quantum maximum 2^(N-1) * sqrt(2), with the GHZ state as the
    top eigenvector.
    """
    parties = []
    for p in range(n):
        p0 = first_phase if p == 0 else 0.0
        p1 = p0 - math.pi / 2.0
        parties.append(
            (
                BlochVector(math.cos(p0), math.sin(p0), 0.0),
                BlochVector(math.cos(p1), math.sin(p1), 0.0),
            )
        )
    return SettingsTable(tuple(parties))


def random_settings(n_parties: int, rng: np.random.Generator) -> SettingsTable:
    """Settings table with uniform-sphere directions for every slot."""
    parties = []
    for _ in range(n_parties):
        pair = []
        for _ in range(2):
            z = rng.uniform(-1.0, 1.0)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            r = math.sqrt(max(0.0, 1.0 - z * z))
            pair.append(BlochVector(r * math.cos(phi), r * math.sin(phi), z))
        parties.append(tuple(pair))
    return SettingsTable(tuple(parties))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary from the QR of a complex Gaussian matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / SQRT2
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def random_compatible_cycle(rng: np.random.Generator):
    """Random involutory 4-cycle with all neighbour commutators zero.

    Starts from the alternating-factor construction (neighbours act on
    disjoint qubits) and conjugates by a random unitary, which preserves
    compatibility and involutions while scrambling the matrices.
    """
    a, b, c, d = cycle_from_settings(random_settings(2, rng))
    u = random_unitary(4, rng)
    ud = u.conj().T
    return tuple(u @ m @ ud for m in (a, b, c, d))


def correlation_sum_tensordot(coeffs, factors) -> np.ndarray:
    """The mode-product kernel as one np.tensordot per party: the oracle
    for ineq.correlation_sum, which must equal it exactly."""
    out = np.asarray(coeffs).reshape([len(factor) for factor in factors])
    for factor in factors:
        out = np.tensordot(out, factor, axes=(0, 0))
    return out


def pauli_correlation_tensor(rho: np.ndarray) -> np.ndarray:
    """T[k_0, ..., k_{N-1}] = Re tr(rho sigma_k0 x ... x sigma_k{N-1})."""
    n = rho.shape[0].bit_length() - 1
    return state_sum(rho, [trace_table(PAULIS)] * n).real


def correlation_update_party(bloch: np.ndarray, corr: np.ndarray, party: int) -> np.ndarray:
    """The coefficient-sum party update, the oracle for the see-saw's: set
    both of a party's directions to g/|g| in place and return the two row
    norms |g|, whose sum is the value afterwards.

    The gradient G[s, k] is the kernel with the party's factor set to the
    identity on its setting bit, contracted with T over the other parties.
    A zero gradient row keeps its direction.
    """
    coeffs = np.array(svetlichny_pattern(len(bloch)).coeffs, dtype=np.float64)
    factors = list(bloch)
    factors[party] = np.eye(2)
    others = [q for q in range(len(bloch)) if q != party]
    grad = np.tensordot(correlation_sum(coeffs, factors), corr, axes=(others, others))
    norms = np.linalg.norm(grad, axis=1)
    moved = norms > 0.0
    bloch[party, moved] = grad[moved] / norms[moved, None]
    return norms


def kron_loops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Four-nested-loop Kronecker product, the definitional oracle."""
    na, nb = a.shape[0], b.shape[0]
    out = np.empty((na * nb, na * nb), dtype=np.complex128)
    for i in range(na):
        for j in range(na):
            for k in range(nb):
                for l in range(nb):
                    out[i * nb + k, j * nb + l] = a[i, j] * b[k, l]
    return out


def eig2_closed_form(h: np.ndarray) -> tuple[float, float]:
    """Eigenvalues of a 2x2 Hermitian matrix from trace and determinant."""
    mean = (h[0, 0].real + h[1, 1].real) / 2.0
    gap = math.sqrt(((h[0, 0].real - h[1, 1].real) / 2.0) ** 2 + abs(h[0, 1]) ** 2)
    return mean - gap, mean + gap


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2.0


def relabelled(pattern, relabels) -> SignPattern:
    """The pattern after per-party relabellings: ``relabels[p]`` is
    (swap, flip0, flip1), swapping party p's two settings and then negating
    every word where party p uses setting 0 (flip0) or setting 1 (flip1).
    Each map is a bijection of the deterministic strategies, so the local
    bound stays the same while the argmax moves."""
    n = pattern.n_parties
    coeffs = list(pattern.coeffs)
    for p, (swap, flip0, flip1) in enumerate(relabels):
        bit = 1 << (n - 1 - p)
        if swap:
            coeffs = [coeffs[w ^ bit] for w in range(2**n)]
        if flip0 or flip1:
            coeffs = [-c if (flip1 if w & bit else flip0) else c for w, c in enumerate(coeffs)]
    return SignPattern(n, tuple(coeffs))


def strategy_value_words(pattern, strategy) -> int:
    """Polynomial value of a deterministic strategy, one word and one party
    at a time: the definitional oracle for classical.evaluate_strategy."""
    n = pattern.n_parties
    total = 0
    for word, coeff in enumerate(pattern.coeffs):
        prod = 1
        for p in range(n):
            prod *= strategy.outcomes[p][(word >> (n - 1 - p)) & 1]
        total += coeff * prod
    return total


def enumerated_lhv(pattern) -> BoundResult:
    """lhv_bound's enumeration path, called directly on any pattern: the
    oracle for its closed form where first_max_lhv is too slow."""
    return _lhv_result(pattern, *_enumerated_argmax(pattern))


def enumerated_hybrid(pattern) -> BoundResult:
    """hybrid_bound's loop over every bipartition, called directly on any
    pattern: the oracle for its one-bipartition path where first_max_hybrid
    is too slow."""
    return _hybrid_result(pattern, *_enumerated_hybrid(pattern))


def first_max_lhv(pattern) -> BoundResult:
    """Walk all deterministic strategies in lexicographic order (party 0
    first; per party the outcome pairs (1,1), (1,-1), (-1,1), (-1,-1)) and
    keep the first strategy reaching the maximum."""
    n = pattern.n_parties
    best, count = None, 0
    for outcomes in itertools.product(itertools.product((1, -1), repeat=2), repeat=n):
        count += 1
        strategy = DeterministicStrategy(outcomes)
        value = strategy_value_words(pattern, strategy)
        if best is None or value > best[0]:
            best = (value, strategy)
    return BoundResult(bound=best[0], argmax_strategy=best[1], evaluations=count)


def _responses(m: int):
    """Response functions of an m-party group in index order, each as the
    tuple of +/-1 answers to the group words 0..2^m - 1."""
    return [
        tuple(1 - 2 * ((f >> u) & 1) for u in range(2**m)) for f in range(2 ** (2**m))
    ]


def _group_word(word: int, members, n: int) -> int:
    """The members' setting bits of an N-bit word, first member most significant."""
    u = 0
    for p in members:
        u = 2 * u + ((word >> (n - 1 - p)) & 1)
    return u


def hybrid_value_words(pattern, strategy) -> int:
    """Polynomial value of a hybrid strategy, one word at a time with each
    group word read off bit by bit: the definitional oracle for
    classical.evaluate_hybrid."""
    n = pattern.n_parties
    total = 0
    for word, coeff in enumerate(pattern.coeffs):
        ua = _group_word(word, strategy.grouping.group_a, n)
        ub = _group_word(word, strategy.grouping.group_b, n)
        total += coeff * strategy.response_a[ua] * strategy.response_b[ub]
    return total


def first_max_hybrid(pattern) -> BoundResult:
    """Walk bipartitions (ascending mask, party 0 in group A), then f_a, then
    f_b, and keep the first hybrid strategy reaching the maximum."""
    n = pattern.n_parties
    best, count = None, 0
    for mask in range(1, 2**n - 1):
        if not mask & 1:
            continue
        group_a = tuple(p for p in range(n) if (mask >> p) & 1)
        group_b = tuple(p for p in range(n) if not (mask >> p) & 1)
        terms = [
            (c, _group_word(w, group_a, n), _group_word(w, group_b, n))
            for w, c in enumerate(pattern.coeffs)
        ]
        for ra in _responses(len(group_a)):
            for rb in _responses(len(group_b)):
                count += 1
                value = sum(c * ra[ua] * rb[ub] for c, ua, ub in terms)
                if best is None or value > best[0]:
                    best = (value, HybridStrategy(Grouping(group_a, group_b), ra, rb))
    return BoundResult(bound=best[0], argmax_strategy=best[1], evaluations=count)
