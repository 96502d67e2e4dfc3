import itertools
import math

import numpy as np
import pytest

from conftest import (
    enumerated_hybrid,
    enumerated_lhv,
    first_max_hybrid,
    first_max_lhv,
    hybrid_value_words,
    relabelled,
)
from qwitness import classical, optimize
from qwitness.classical import (
    HybridStrategy,
    _reply_indices,
    evaluate_hybrid,
    evaluate_strategy,
    hybrid_bound,
    lhv_bound,
    noncontextual_bound,
)
from qwitness.ineq import SignPattern, chsh_pattern, svetlichny_pattern
from qwitness.opalg import MAX_PARTIES, CapExceededError
from qwitness.qobs import Grouping, NoisyGhz


def random_pattern(n, rng):
    return SignPattern(n, tuple(int(c) for c in rng.choice([-1, 1], size=2**n)))


def two_term_orbit(n):
    """The orbit of the Svetlichny pattern under every party's eight
    relabellings (setting swap, then outcome flips): the whole two-term
    family, 2^(N+1) patterns."""
    orbit = {svetlichny_pattern(n)}
    for p in range(n):
        orbit = {
            relabelled(pattern, [bits if q == p else (False,) * 3 for q in range(n)])
            for pattern in orbit
            for bits in itertools.product((False, True), repeat=3)
        }
    return orbit


class TestLhvBound:
    def test_chsh(self):
        res = lhv_bound(chsh_pattern())
        assert res.bound == 2
        assert res.evaluations == 16
        assert evaluate_strategy(chsh_pattern(), res.argmax_strategy) == 2

    def test_three_party_svetlichny(self):
        res = lhv_bound(svetlichny_pattern(3))
        assert res.bound == 4
        assert res.evaluations == 4**3

    def test_four_and_five_parties(self):
        # Deterministic products constrain the achievable phase: the local
        # maximum of this pattern is 2^ceil(N/2), i.e. 2^(N/2) for even N
        # and 2^((N+1)/2) for odd N.  It matches the hybrid bound 2^(N-1)
        # only up to N = 3.
        assert lhv_bound(svetlichny_pattern(4)).bound == 4
        assert lhv_bound(svetlichny_pattern(5)).bound == 8

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(60)
        for _ in range(10):
            pattern = random_pattern(3, rng)
            assert lhv_bound(pattern).bound == first_max_lhv(pattern).bound
        assert lhv_bound(svetlichny_pattern(4)).bound == first_max_lhv(svetlichny_pattern(4)).bound
        assert lhv_bound(svetlichny_pattern(5)).bound == first_max_lhv(svetlichny_pattern(5)).bound

    def test_argmax_reevaluates_exactly(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            pattern = random_pattern(3, rng)
            res = lhv_bound(pattern)
            assert evaluate_strategy(pattern, res.argmax_strategy) == res.bound

    def test_cap(self):
        with pytest.raises(CapExceededError, match="capped"):
            lhv_bound(svetlichny_pattern(9))


class TestHybridBound:
    def test_three_party_svetlichny(self):
        res = hybrid_bound(svetlichny_pattern(3))
        assert res.bound == 4
        assert res.evaluations == 3 * 4 * 16

    def test_four_party_svetlichny(self):
        assert hybrid_bound(svetlichny_pattern(4)).bound == 8

    def test_five_party_svetlichny(self):
        assert hybrid_bound(svetlichny_pattern(5)).bound == 16

    def test_chsh_trivial_bipartition(self):
        res = hybrid_bound(chsh_pattern())
        assert res.bound == 2
        assert res.argmax_strategy.grouping.group_a == (0,)
        assert res.argmax_strategy.grouping.group_b == (1,)

    def test_argmax_reevaluates_exactly(self):
        rng = np.random.default_rng(62)
        for _ in range(10):
            pattern = random_pattern(3, rng)
            res = hybrid_bound(pattern)
            assert evaluate_hybrid(pattern, res.argmax_strategy) == res.bound

    def test_dominates_lhv(self):
        rng = np.random.default_rng(63)
        for _ in range(50):
            pattern = random_pattern(3, rng)
            assert hybrid_bound(pattern).bound >= lhv_bound(pattern).bound

    def test_cap(self):
        with pytest.raises(CapExceededError, match="capped"):
            hybrid_bound(svetlichny_pattern(9))

    @pytest.mark.parametrize("columns", [1, 8, 63, 64, 128])
    def test_reply_indices_are_exact(self, columns):
        # Past 63 columns an int64 bit mask would wrap.
        rng = np.random.default_rng(columns)
        negative = rng.random((8, columns)) < 0.5
        negative[0] = True
        replies = _reply_indices(negative)
        assert replies[0] == 2**columns - 1
        for row, reply in zip(negative.tolist(), replies):
            assert reply == sum(1 << u for u, neg in enumerate(row) if neg)


class TestRelabelingSymmetry:
    @staticmethod
    def conjugated(pattern, party, setting):
        """Flip the coefficient of every word where the party uses the setting;
        equivalent to negating that single outcome in every strategy."""
        n = pattern.n_parties
        coeffs = [
            -c if ((w >> (n - 1 - party)) & 1) == setting else c
            for w, c in enumerate(pattern.coeffs)
        ]
        return SignPattern(n, tuple(coeffs))

    def test_bounds_invariant_under_outcome_relabeling(self):
        patterns = [svetlichny_pattern(3)]
        rng = np.random.default_rng(64)
        patterns += [random_pattern(3, rng) for _ in range(3)]
        for pattern in patterns:
            lhv = lhv_bound(pattern).bound
            hyb = hybrid_bound(pattern).bound
            for party in range(3):
                for setting in (0, 1):
                    flipped = self.conjugated(pattern, party, setting)
                    assert lhv_bound(flipped).bound == lhv
                    assert hybrid_bound(flipped).bound == hyb


class TestFirstMaximizer:
    @pytest.mark.parametrize("n", [3, 4])
    def test_lhv_matches_first_maximizer_oracle(self, n):
        pattern = svetlichny_pattern(n)
        assert lhv_bound(pattern) == first_max_lhv(pattern)

    @pytest.mark.parametrize("n", [3, 4])
    def test_hybrid_matches_first_maximizer_oracle(self, n):
        pattern = svetlichny_pattern(n)
        assert hybrid_bound(pattern) == first_max_hybrid(pattern)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_flipped_svetlichny_takes_the_enumeration(self, n):
        # One flipped sign leaves the two-term family, so the pattern goes
        # through the enumeration and still gives the first maximizer.
        pattern = svetlichny_pattern(n).flipped(2**n - 1)
        assert pattern.two_term is None
        assert lhv_bound(pattern) == first_max_lhv(pattern)
        if n <= 4:
            assert hybrid_bound(pattern) == first_max_hybrid(pattern)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_closed_form_on_every_relabelling(self, n):
        # 1016 patterns over N = 2..8.  Each takes the closed form and
        # equals the enumeration.
        orbit = two_term_orbit(n)
        assert len(orbit) == 2 ** (n + 1)
        for pattern in orbit:
            assert pattern.two_term is not None
            assert lhv_bound(pattern) == enumerated_lhv(pattern)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_one_bipartition_on_every_relabelling(self, n):
        # 120 patterns over N = 2..5.  Each reads its hybrid bound off the
        # bipartition {0} | rest and equals the loop over every bipartition:
        # bound, evaluations and first maximizer.
        for pattern in two_term_orbit(n):
            result = hybrid_bound(pattern)
            assert result.bound == 2 ** (n - 1)
            assert result == enumerated_hybrid(pattern)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_hybrid_bipartitions_evaluated(self, n, monkeypatch):
        masks = []
        mask_best = classical._hybrid_mask_best

        def counting(tensor, n_parties, mask):
            masks.append(mask)
            return mask_best(tensor, n_parties, mask)

        monkeypatch.setattr(classical, "_hybrid_mask_best", counting)
        hybrid_bound(relabelled(svetlichny_pattern(n), [(True, True, False)] * n))
        assert masks == [1]
        masks.clear()
        hybrid_bound(svetlichny_pattern(n).flipped(2**n - 1))
        assert masks == list(range(1, 2**n - 1, 2))

    def test_tie_break_is_first_found(self):
        # All-plus pattern: many strategies tie; the lexicographically first
        # (all-plus outcomes, index 0) must win.
        pattern = SignPattern(2, (1, 1, 1, 1))
        res = lhv_bound(pattern)
        assert res.argmax_strategy.outcomes == ((1, 1), (1, 1))
        assert res == first_max_lhv(pattern)


def random_relabelled(n, rng):
    """The Svetlichny pattern under a random setting swap and outcome flips
    at every party: a random member of the two-term family."""
    return relabelled(svetlichny_pattern(n), [tuple(rng.random(3) < 0.5) for _ in range(n)])


def nominal_hybrid_evaluations(n):
    """The response pairs of every bipartition with party 0 in group A."""
    return sum(
        2 ** (2**ma) * 2 ** (2 ** (n - ma))
        for ma in (mask.bit_count() for mask in range(1, 2**n - 1, 2))
    )


class TestHybridEvaluation:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_the_word_loop(self, n):
        # Random patterns, bipartitions and responses, group A holding
        # party 0 or not.
        rng = np.random.default_rng(70 + n)
        for _ in range(20):
            pattern = random_pattern(n, rng)
            mask = int(rng.integers(1, 2**n - 1))
            group_a = tuple(p for p in range(n) if (mask >> p) & 1)
            group_b = tuple(p for p in range(n) if not (mask >> p) & 1)
            strategy = HybridStrategy(
                Grouping(group_a, group_b),
                tuple(int(r) for r in rng.choice([-1, 1], size=2 ** len(group_a))),
                tuple(int(r) for r in rng.choice([-1, 1], size=2 ** len(group_b))),
            )
            assert evaluate_hybrid(pattern, strategy) == hybrid_value_words(pattern, strategy)


class TestPartyCap:
    """lhv_bound and hybrid_bound share opalg's party cap, N <= 8."""

    @pytest.mark.parametrize("n", [6, 7])
    def test_hybrid_family_matches_the_bipartition_loop(self, n):
        rng = np.random.default_rng(80 + n)
        for _ in range(3):
            pattern = random_relabelled(n, rng)
            assert hybrid_bound(pattern) == enumerated_hybrid(pattern)

    def test_hybrid_family_matches_the_bipartition_loop_at_the_cap(self):
        # The loop over every bipartition takes 1.5 s here; it is also
        # hybrid_bound's path outside the family.
        pattern = random_relabelled(MAX_PARTIES, np.random.default_rng(88))
        assert pattern.two_term is not None
        expected = enumerated_hybrid(pattern)
        assert expected.evaluations == nominal_hybrid_evaluations(MAX_PARTIES)
        assert hybrid_bound(pattern) == expected

    @pytest.mark.parametrize("n", [6, 7])
    def test_hybrid_outside_the_family_is_rechecked(self, n):
        pattern = random_pattern(n, np.random.default_rng(90 + n))
        assert pattern.two_term is None
        result = hybrid_bound(pattern)
        assert hybrid_value_words(pattern, result.argmax_strategy) == result.bound
        assert result.evaluations == nominal_hybrid_evaluations(n)

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_evaluations_are_nominal(self, n):
        family = svetlichny_pattern(n)
        assert hybrid_bound(family).evaluations == nominal_hybrid_evaluations(n)
        for pattern in (family, family.flipped(0)):
            assert lhv_bound(pattern).evaluations == 4**n

    @pytest.mark.parametrize("n", range(2, MAX_PARTIES + 1))
    def test_svetlichny_bounds(self, n):
        assert lhv_bound(svetlichny_pattern(n)).bound == 2 ** math.ceil(n / 2)
        assert hybrid_bound(svetlichny_pattern(n)).bound == 2 ** (n - 1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda n: lhv_bound(svetlichny_pattern(n)),
            lambda n: hybrid_bound(svetlichny_pattern(n)),
            lambda n: optimize.maximize_violation(n, "svetlichny"),
            lambda n: optimize.maximize_expectation(n, "svetlichny", NoisyGhz(n)),
        ],
        ids=["lhv_bound", "hybrid_bound", "maximize_violation", "maximize_expectation"],
    )
    def test_one_message_above_the_cap(self, call):
        with pytest.raises(CapExceededError) as info:
            call(MAX_PARTIES + 1)
        assert str(info.value) == (
            "N = 9 is capped at N = 8 (2^N x 2^N eigensolves, 4^N local strategies)"
        )


class TestNoncontextualBound:
    def test_bound_and_argmax(self):
        res = noncontextual_bound()
        assert res.bound == 2
        assert res.evaluations == 16
        strat = res.argmax_strategy
        assert (strat.a, strat.b, strat.c, strat.d) == (1, 1, 1, 1)

    def test_sixteen_case_sweep_is_symmetric(self):
        values = [
            a * b + b * c + c * d - a * d
            for a in (1, -1)
            for b in (1, -1)
            for c in (1, -1)
            for d in (1, -1)
        ]
        assert max(values) == 2
        assert min(values) == -2
