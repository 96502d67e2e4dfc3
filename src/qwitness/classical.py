"""Exhaustive classical baselines for full-correlation polynomials.

Everything here is exact integer combinatorics: strategies and coefficients
are +/-1, so bounds carry no float noise.  Each bound reports the first
maximizer in lexicographic strategy order, and its argmax is re-evaluated
by the word-by-word oracle (evaluate_strategy, evaluate_hybrid) on every
call.

Strategy encodings (lexicographic order = ascending index):

* deterministic: index in base 4, party 0 most significant; a party digit d
  encodes outcomes (1 - 2*(d >> 1), 1 - 2*(d & 1)) for settings (0, 1), so
  index 0 is the all-plus strategy.
* hybrid: group A always contains party 0; a response function with index f
  maps the group setting word u to 1 - 2*((f >> u) & 1).  Group setting
  words list member parties in ascending order, first member most
  significant.  Bipartitions are ordered by ascending mask (bit p set =
  party p in group A), then f_a, then f_b.

How the maxima are found:

* lhv_bound contracts the coefficient tensor with the 4 x 2 digit -> outcome
  table of every party (ineq.correlation_sum).  That yields all 4^N
  strategy values in index order at O(N 4^N) cost, and np.argmax returns
  the first maximizer.
* hybrid_bound, per bipartition with coefficient matrix C (rows: group A
  words, columns: group B words), enumerates the responses of the smaller
  group only.  Against a fixed response r the other group's best reply
  scores ||C^T r||_1 (or ||C r||_1), and its smallest index puts a -1
  exactly where that product is negative.  When group B is the enumerated
  side the tie-break still takes the smallest f_a first, then the smallest
  f_b.  ``evaluations`` counts the 2^(2^|A|) * 2^(2^|B|) response pairs
  the maximum ranges over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ineq import SignPattern, correlation_sum
from .opalg import CapExceededError
from .qobs import Grouping

LHV_MAX_PARTIES = 8
HYBRID_MAX_PARTIES = 5


@dataclass(frozen=True)
class DeterministicStrategy:
    """Per party, a +/-1 outcome for each setting bit."""

    outcomes: tuple[tuple[int, int], ...]

    def to_json_dict(self) -> dict:
        return {"type": "deterministic", "outcomes": [list(o) for o in self.outcomes]}


@dataclass(frozen=True)
class HybridStrategy:
    """Per group, a +/-1 response for every joint setting word of the group."""

    grouping: Grouping
    response_a: tuple[int, ...]
    response_b: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "type": "hybrid",
            "group_a": list(self.grouping.group_a),
            "group_b": list(self.grouping.group_b),
            "response_a": list(self.response_a),
            "response_b": list(self.response_b),
        }


@dataclass(frozen=True)
class CycleAssignment:
    """Outcome assignment (a, b, c, d) for the 4-cycle expression."""

    a: int
    b: int
    c: int
    d: int

    def to_json_dict(self) -> dict:
        return {"type": "assignment", "a": self.a, "b": self.b, "c": self.c, "d": self.d}


@dataclass(frozen=True)
class BoundResult:
    bound: int
    argmax_strategy: DeterministicStrategy | HybridStrategy | CycleAssignment
    evaluations: int

    def to_json_dict(self) -> dict:
        return {
            "bound": self.bound,
            "strategy": self.argmax_strategy.to_json_dict(),
            "evaluations": self.evaluations,
        }


def _decode_strategy(n: int, index: int) -> DeterministicStrategy:
    outcomes = []
    for p in range(n):
        d = (index >> (2 * (n - 1 - p))) & 3
        outcomes.append((1 - 2 * ((d >> 1) & 1), 1 - 2 * (d & 1)))
    return DeterministicStrategy(tuple(outcomes))


def evaluate_strategy(pattern: SignPattern, strategy: DeterministicStrategy) -> int:
    """Polynomial value of a deterministic strategy, in pure integers."""
    n = pattern.n_parties
    total = 0
    for word, coeff in enumerate(pattern.coeffs):
        prod = 1
        for p in range(n):
            prod *= strategy.outcomes[p][(word >> (n - 1 - p)) & 1]
        total += coeff * prod
    return total


# Outcomes of a party digit d (rows) for settings 0 and 1 (columns).
_DIGIT_OUTCOMES = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=np.int64)


def check_lhv_parties(n_parties: int) -> None:
    """Refuse a local enumeration above the party cap before any work."""
    if n_parties > LHV_MAX_PARTIES:
        raise CapExceededError(
            f"local enumeration is capped at N = {LHV_MAX_PARTIES} "
            f"(4^N strategies); group parties and use hybrid_bound, or sample"
        )


def lhv_bound(pattern: SignPattern) -> BoundResult:
    """Maximum over all 4^N deterministic local strategies."""
    n = pattern.n_parties
    check_lhv_parties(n)
    coeffs = np.asarray(pattern.coeffs, dtype=np.int64)
    values = correlation_sum(coeffs, [_DIGIT_OUTCOMES.T] * n).reshape(-1)
    best_idx = int(np.argmax(values))
    best_val = int(values[best_idx])
    strategy = _decode_strategy(n, best_idx)
    check = evaluate_strategy(pattern, strategy)
    if check != best_val:  # pragma: no cover - internal consistency
        raise RuntimeError(f"argmax re-evaluation {check} != bound {best_val}")
    return BoundResult(bound=best_val, argmax_strategy=strategy, evaluations=4**n)


def _group_word(word: int, members: tuple[int, ...], n: int) -> int:
    u = 0
    for p in members:
        u = (u << 1) | ((word >> (n - 1 - p)) & 1)
    return u


def _response_matrix(m: int) -> np.ndarray:
    """All 2^(2^m) response functions as rows of +/-1 over the 2^m words."""
    f = np.arange(2 ** (2**m), dtype=np.int64)[:, None]
    u = np.arange(2**m, dtype=np.int64)[None, :]
    return 1 - 2 * ((f >> u) & 1)


def _best_replies(products: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``products``, the best reply's value and its smallest index.

    Row k holds the correlation matrix contracted with one response of the
    enumerated group; the other group scores sum_u products[k, u] * r(u),
    maximized at ||products[k]||_1.  The smallest maximizing index sets the
    -1 bit exactly where the product is negative.
    """
    values = np.abs(products).sum(axis=1)
    bits = np.int64(1) << np.arange(products.shape[1], dtype=np.int64)
    replies = ((products < 0) * bits).sum(axis=1)
    return values, replies


def _hybrid_mask_best(tensor: np.ndarray, n: int, mask: int) -> tuple[int, int, int]:
    """First maximizer (value, f_a, f_b) for one bipartition mask."""
    members_a = tuple(p for p in range(n) if (mask >> p) & 1)
    members_b = tuple(p for p in range(n) if not (mask >> p) & 1)
    ma, mb = len(members_a), len(members_b)
    corr = tensor.transpose(members_a + members_b).reshape(2**ma, 2**mb)
    if ma <= mb:
        values, replies = _best_replies(_response_matrix(ma) @ corr)
        fa = int(np.argmax(values))
        return int(values[fa]), fa, int(replies[fa])
    values, replies = _best_replies(_response_matrix(mb) @ corr.T)
    tied = np.flatnonzero(values == values.max())
    # Smallest f_a first, then the smallest f_b reaching it.
    fb = int(tied[np.argmin(replies[tied])])
    return int(values[fb]), int(replies[fb]), fb


def evaluate_hybrid(pattern: SignPattern, strategy: HybridStrategy) -> int:
    """Polynomial value of a hybrid strategy, in pure integers."""
    n = pattern.n_parties
    total = 0
    for word, coeff in enumerate(pattern.coeffs):
        ua = _group_word(word, strategy.grouping.group_a, n)
        ub = _group_word(word, strategy.grouping.group_b, n)
        total += coeff * strategy.response_a[ua] * strategy.response_b[ub]
    return total


def hybrid_bound(pattern: SignPattern) -> BoundResult:
    """Maximum over all bipartitions and deterministic group responses.

    Inside each group the response may depend on the group's full joint
    setting word, which models arbitrary correlations within the group;
    only classical correlation crosses the split.
    """
    n = pattern.n_parties
    if n > HYBRID_MAX_PARTIES:
        raise CapExceededError(
            f"hybrid enumeration is capped at N = {HYBRID_MAX_PARTIES} "
            f"(2^(2^m) response functions per group)"
        )
    tensor = np.asarray(pattern.coeffs, dtype=np.int64).reshape((2,) * n)
    best = None  # (value, mask, fa, fb)
    evaluations = 0
    # Odd masks put party 0 in group A; ascending order is the tie-break.
    for mask in range(1, 2**n - 1, 2):
        ma = mask.bit_count()
        evaluations += 2 ** (2**ma) * 2 ** (2 ** (n - ma))
        val, fa, fb = _hybrid_mask_best(tensor, n, mask)
        if best is None or val > best[0]:
            best = (val, mask, fa, fb)
    val, mask, fa, fb = best
    members_a = tuple(p for p in range(n) if (mask >> p) & 1)
    members_b = tuple(p for p in range(n) if not (mask >> p) & 1)
    strategy = HybridStrategy(
        grouping=Grouping(members_a, members_b),
        response_a=tuple(1 - 2 * ((fa >> u) & 1) for u in range(2 ** len(members_a))),
        response_b=tuple(1 - 2 * ((fb >> u) & 1) for u in range(2 ** len(members_b))),
    )
    check = evaluate_hybrid(pattern, strategy)
    if check != val:  # pragma: no cover - internal consistency
        raise RuntimeError(f"argmax re-evaluation {check} != bound {val}")
    return BoundResult(bound=val, argmax_strategy=strategy, evaluations=evaluations)


def noncontextual_bound() -> BoundResult:
    """Maximum of ab + bc + cd - ad over the 16 outcome assignments."""
    best_val, best_assign = None, None
    count = 0
    for a in (1, -1):
        for b in (1, -1):
            for c in (1, -1):
                for d in (1, -1):
                    count += 1
                    val = a * b + b * c + c * d - a * d
                    if best_val is None or val > best_val:
                        best_val = val
                        best_assign = CycleAssignment(a, b, c, d)
    return BoundResult(bound=best_val, argmax_strategy=best_assign, evaluations=count)
