"""Classical baselines for full-correlation polynomials.

Everything here is exact integer combinatorics: strategies and coefficients
are +/-1, so bounds carry no float noise.  Each bound reports the first
maximizer in lexicographic strategy order, and its argmax is re-evaluated
by an independent integer evaluation (evaluate_strategy, evaluate_hybrid)
on every call.

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

* On the two-term family coeffs[w] = Re[kappa prod_p c_p(w_p)], whose form
  lhv_bound reads from ineq.SignPattern.two_term, a strategy scores
  Re[kappa prod_p c_p(0) (o_p(0) + o_p(1) r_p)] with r_p = c_p(1)/c_p(0),
  and the four digits of a party give sqrt(2) times the four phases
  (1 + i) i^t, t in Z_4.  The value depends only on the phase class
  J = sum_p t_p mod 4, and the last party alone reaches every class, so
  the first maximizer is digit 0 for parties 0..N-2 and, for the last
  party, the smallest digit reaching a maximal class.  This is the phase
  argument behind the Svetlichny pattern's local maximum 2^ceil(N/2)
  (Werner & Wolf, PRA 64, 032112, 2001), computed in Gaussian integers
  with no table of strategy values.
* Every other pattern contracts the coefficient tensor with the 4 x 2
  digit -> outcome table of every party (ineq.correlation_sum).  That
  yields all 4^N strategy values in index order at O(N 4^N) cost, and
  argmax returns the first maximizer.
* On both paths ``evaluations`` is 4^N, the size of the strategy space the
  maximum ranges over, not the work done.
* hybrid_bound, per bipartition with coefficient matrix C (rows: group A
  words, columns: group B words), enumerates the responses of the smaller
  group only.  Against a fixed response r the other group's best reply
  scores ||C^T r||_1 (or ||C r||_1), and its smallest index puts a -1
  exactly where that product is negative.  When group B is the enumerated
  side the tie-break still takes the smallest f_a first, then the smallest
  f_b.  Reply indices are Python ints, exact at any group size.
* On the two-term family hybrid_bound evaluates mask 1 (group A = {0})
  alone.  A hybrid strategy scores Re[kappa a_A a_B] with
  a_G = sum_u R_G(u) prod_{p in G} r_p^(u_p) and r_p = +-i; words of even
  popcount add +-1 to a_G and words of odd popcount +-i, 2^(m-1) of each,
  so a_A = x + iy with |x|, |y| <= 2^(|A|-1).  Group B's best reply scores
  2^(|B|-1) (|Re kappa a_A| + |Im kappa a_A|) = 2^(|B|-1) 2 max(|x|, |y|)
  <= 2^(N-1), the Svetlichny right-hand side (Svetlichny, PRD 35, 3066,
  1987), and A = {0} reaches it with |x| = |y| = 1.  Masks are tried in
  ascending order, so mask 1 is the first maximizing mask, and its own
  tie-break gives (f_a, f_b).  Every other pattern loops over all
  2^(N-1) - 1 bipartitions.  On both paths ``evaluations`` counts the
  2^(2^|A|) * 2^(2^|B|) response pairs of every bipartition, the space
  the maximum ranges over.  It stays that nominal count, not the work
  done: a Python int of 134 bits at N = 8.
* Both bounds refuse N above opalg.MAX_PARTIES (8) before any work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ineq import SignPattern, correlation_sum
from .opalg import check_parties
from .qobs import Grouping


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


# Outcomes of a party digit d (rows) for settings 0 and 1 (columns), and
# the same table as setting (rows) by digit (columns) for correlation_sum.
_DIGITS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
_DIGIT_OUTCOMES = np.array(_DIGITS, dtype=np.int64).T


def _decode_strategy(n: int, index: int) -> DeterministicStrategy:
    return DeterministicStrategy(
        tuple(_DIGITS[(index >> (2 * (n - 1 - p))) & 3] for p in range(n))
    )


def evaluate_strategy(pattern: SignPattern, strategy: DeterministicStrategy) -> int:
    """Polynomial value of a deterministic strategy, in pure integers.

    With neg0 (neg1) marking, at bit N-1-p, the parties whose setting-0
    (setting-1) outcome is -1, word w's outcome product is
    (-1)^popcount(((full ^ w) & neg0) | (w & neg1)).  The two parts are
    disjoint, so that is (-1)^popcount(neg0) (-1)^popcount(w & (neg0 ^ neg1)).
    """
    neg0 = neg1 = 0
    for o0, o1 in strategy.outcomes:
        neg0 = 2 * neg0 + (o0 < 0)
        neg1 = 2 * neg1 + (o1 < 0)
    flip = neg0 ^ neg1
    total = sum(
        -c if (w & flip).bit_count() & 1 else c for w, c in enumerate(pattern.coeffs)
    )
    return -total if neg0.bit_count() & 1 else total


def _factored_argmax(n: int, a: int, b: int, neg: int) -> tuple[int, int]:
    """(index, value) of the first maximizer of a two-term-family pattern.

    Parties 0..N-2 take digit 0, whose factor is 1 + r_p; their product with
    kappa is the Gaussian integer (x, y).  The last party's digit d then
    picks the value Re[(x + iy)(o_0 + o_1 r)], and its smallest maximizing
    digit is the first maximizer's index.
    """
    x, y = a, b
    for p in range(n - 1):
        s = -1 if (neg >> (n - 1 - p)) & 1 else 1
        x, y = x - s * y, y + s * x  # (x + iy)(1 + i s)
    s = -1 if neg & 1 else 1
    # Re[(x + iy)(o_0 + i s o_1)] = x o_0 - s y o_1 per digit.
    values = [x * o0 - s * y * o1 for o0, o1 in _DIGITS]
    best = max(values)
    return values.index(best), best


def _enumerated_argmax(pattern: SignPattern) -> tuple[int, int]:
    """(index, value) of the first maximizer over all 4^N strategy values."""
    n = pattern.n_parties
    coeffs = np.asarray(pattern.coeffs, dtype=np.int64)
    values = correlation_sum(coeffs, [_DIGIT_OUTCOMES] * n).reshape(-1)
    best_idx = int(values.argmax())
    return best_idx, int(values[best_idx])


def _lhv_result(pattern: SignPattern, index: int, value: int) -> BoundResult:
    n = pattern.n_parties
    strategy = _decode_strategy(n, index)
    check = evaluate_strategy(pattern, strategy)
    if check != value:  # pragma: no cover - internal consistency
        raise RuntimeError(f"argmax re-evaluation {check} != bound {value}")
    return BoundResult(bound=value, argmax_strategy=strategy, evaluations=4**n)


def lhv_bound(pattern: SignPattern) -> BoundResult:
    """Maximum over all 4^N deterministic local strategies: in closed form
    on the two-term family, by enumeration otherwise."""
    n = pattern.n_parties
    check_parties(n)
    if pattern.two_term is None:
        return _lhv_result(pattern, *_enumerated_argmax(pattern))
    return _lhv_result(pattern, *_factored_argmax(n, *pattern.two_term))


def _response_matrix(m: int) -> np.ndarray:
    """All 2^(2^m) response functions as rows of +/-1 over the 2^m words."""
    f = np.arange(2 ** (2**m), dtype=np.int64)[:, None]
    u = np.arange(2**m, dtype=np.int64)[None, :]
    return 1 - 2 * ((f >> u) & 1)


def _reply_indices(negative: np.ndarray) -> list[int]:
    """Per row of a boolean matrix, the reply index with bit u set exactly
    where column u is True.  Indices are Python ints, exact at any width,
    where an int64 would wrap past 63 columns."""
    packed = np.packbits(negative, axis=1, bitorder="little")
    width, data = packed.shape[1], packed.tobytes()
    return [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]


def _hybrid_mask_best(tensor: np.ndarray, n: int, mask: int) -> tuple[int, int, int]:
    """First maximizer (value, f_a, f_b) for one bipartition mask.

    Each row k of ``products`` holds the correlation matrix contracted with
    one response of the enumerated (smaller) group; the other group scores
    sum_u products[k, u] * r(u), maximized at ||products[k]||_1, and its
    smallest maximizing index sets the -1 bit exactly where the product is
    negative.  Only the replies the tie-break reads are encoded.
    """
    members_a = tuple(p for p in range(n) if (mask >> p) & 1)
    members_b = tuple(p for p in range(n) if not (mask >> p) & 1)
    ma, mb = len(members_a), len(members_b)
    corr = tensor.transpose(members_a + members_b).reshape(2**ma, 2**mb)
    if ma <= mb:
        products = _response_matrix(ma) @ corr
        values = np.abs(products).sum(axis=1)
        fa = int(values.argmax())
        return int(values[fa]), fa, _reply_indices(products[fa : fa + 1] < 0)[0]
    products = _response_matrix(mb) @ corr.T
    values = np.abs(products).sum(axis=1)
    tied = np.flatnonzero(values == values.max())
    # Smallest f_a first, then the smallest f_b reaching it.
    replies = _reply_indices(products[tied] < 0)
    fa = min(replies)
    return int(values[tied[0]]), fa, int(tied[replies.index(fa)])


def evaluate_hybrid(pattern: SignPattern, strategy: HybridStrategy) -> int:
    """Polynomial value of a hybrid strategy, in pure integers.

    Every word's two group words are built party by party in binary
    counting order: a member of a group doubles that group's word and adds
    its bit, so the first member ends most significant.
    """
    group_a = strategy.grouping.group_a
    words = [(0, 0)]
    for p in range(pattern.n_parties):
        if p in group_a:
            words = [w for ua, ub in words for w in ((2 * ua, ub), (2 * ua + 1, ub))]
        else:
            words = [w for ua, ub in words for w in ((ua, 2 * ub), (ua, 2 * ub + 1))]
    ra, rb = strategy.response_a, strategy.response_b
    return sum(c * ra[ua] * rb[ub] for c, (ua, ub) in zip(pattern.coeffs, words))


def _enumerated_hybrid(pattern: SignPattern) -> tuple[int, int, int, int]:
    """(value, mask, f_a, f_b) of the first maximizer over all bipartitions."""
    n = pattern.n_parties
    tensor = np.asarray(pattern.coeffs, dtype=np.int64).reshape((2,) * n)
    best = None
    # Odd masks put party 0 in group A; ascending order is the tie-break.
    for mask in range(1, 2**n - 1, 2):
        val, fa, fb = _hybrid_mask_best(tensor, n, mask)
        if best is None or val > best[0]:
            best = (val, mask, fa, fb)
    return best


def _hybrid_result(pattern: SignPattern, value: int, mask: int, fa: int, fb: int) -> BoundResult:
    n = pattern.n_parties
    members_a = tuple(p for p in range(n) if (mask >> p) & 1)
    members_b = tuple(p for p in range(n) if not (mask >> p) & 1)
    strategy = HybridStrategy(
        grouping=Grouping(members_a, members_b),
        response_a=tuple(1 - 2 * ((fa >> u) & 1) for u in range(2 ** len(members_a))),
        response_b=tuple(1 - 2 * ((fb >> u) & 1) for u in range(2 ** len(members_b))),
    )
    check = evaluate_hybrid(pattern, strategy)
    if check != value:  # pragma: no cover - internal consistency
        raise RuntimeError(f"argmax re-evaluation {check} != bound {value}")
    evaluations = sum(
        2 ** (2**ma + 2 ** (n - ma))
        for ma in (mask.bit_count() for mask in range(1, 2**n - 1, 2))
    )
    return BoundResult(bound=value, argmax_strategy=strategy, evaluations=evaluations)


def hybrid_bound(pattern: SignPattern) -> BoundResult:
    """Maximum over all bipartitions and deterministic group responses: from
    the bipartition {party 0} | rest on the two-term family, by enumeration
    otherwise.

    Inside each group the response may depend on the group's full joint
    setting word, which models arbitrary correlations within the group;
    only classical correlation crosses the split.
    """
    n = pattern.n_parties
    check_parties(n)
    if pattern.two_term is None:
        return _hybrid_result(pattern, *_enumerated_hybrid(pattern))
    tensor = np.asarray(pattern.coeffs, dtype=np.int64).reshape((2,) * n)
    value, fa, fb = _hybrid_mask_best(tensor, n, 1)
    if value != 2 ** (n - 1):  # pragma: no cover - internal consistency
        raise RuntimeError(f"two-term pattern scores {value} != 2^(N-1) on mask 1")
    return _hybrid_result(pattern, value, 1, fa, fb)


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
