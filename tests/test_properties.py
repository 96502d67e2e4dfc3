"""Property tests: every fast path equals its brute-force or dense oracle.

Random +/-1 sign patterns and random measurement settings drive the
mode-product kernel (ineq.correlation_sum) through the classical bounds and
the inequality operators.  Example counts are bounded and derandomized so
the suite stays fast and repeatable.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import first_max_hybrid, first_max_lhv
from qwitness.classical import (
    DeterministicStrategy,
    evaluate_strategy,
    hybrid_bound,
    lhv_bound,
)
from qwitness.ineq import SignPattern, correlation_operator, correlation_sum, svetlichny_operator
from qwitness.optimize import _observables_from_angles, _signed_sum, settings_from_angles
from qwitness.qobs import BlochVector, SettingsTable

OPERATOR_TOL = 1e-12


def bounded(max_examples):
    return settings(max_examples=max_examples, deadline=None, derandomize=True, database=None)


def sign_patterns(n):
    return st.lists(st.sampled_from((1, -1)), min_size=2**n, max_size=2**n).map(
        lambda coeffs: SignPattern(n, tuple(coeffs))
    )


sphere_angles = st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi))


def settings_tables(n):
    vector = sphere_angles.map(lambda a: BlochVector.from_angles(*a))
    return st.lists(st.tuples(vector, vector), min_size=n, max_size=n).map(
        lambda parties: SettingsTable(tuple(parties))
    )


@pytest.mark.parametrize("n", [2, 3, 4])
@bounded(10)
@given(data=st.data())
def test_kernel_lhv_values_equal_every_strategy(n, data):
    pattern = data.draw(sign_patterns(n))
    # Setting bit (rows) by party digit (columns): digit d answers
    # (1 - 2*(d >> 1), 1 - 2*(d & 1)) to settings (0, 1).
    table = np.array([[1, 1, -1, -1], [1, -1, 1, -1]], dtype=np.int64)
    values = correlation_sum(np.array(pattern.coeffs), [table] * n).reshape(-1)
    # itertools.product walks the strategies in ascending index order.
    strategies = itertools.product(itertools.product((1, -1), repeat=2), repeat=n)
    expected = [evaluate_strategy(pattern, DeterministicStrategy(o)) for o in strategies]
    assert values.tolist() == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@bounded(10)
@given(data=st.data())
def test_lhv_bound_is_the_first_maximizer(n, data):
    pattern = data.draw(sign_patterns(n))
    assert lhv_bound(pattern) == first_max_lhv(pattern)


@pytest.mark.parametrize("n", [2, 3, 4])
@bounded(10)
@given(data=st.data())
def test_hybrid_bound_is_the_first_maximizer(n, data):
    pattern = data.draw(sign_patterns(n))
    assert hybrid_bound(pattern) == first_max_hybrid(pattern)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@bounded(6)
@given(data=st.data())
def test_kernel_operator_equals_word_sum(n, data):
    pattern = data.draw(sign_patterns(n))
    table = data.draw(settings_tables(n))
    dense = sum(c * correlation_operator(table, w) for w, c in enumerate(pattern.coeffs))
    fast = svetlichny_operator(table, pattern).matrix
    assert np.max(np.abs(fast - dense)) <= OPERATOR_TOL


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@bounded(6)
@given(data=st.data())
def test_signed_sum_equals_svetlichny_operator(n, data):
    pairs = data.draw(st.lists(st.tuples(sphere_angles, sphere_angles), min_size=n, max_size=n))
    angles = np.array(pairs, dtype=np.float64)
    phase_trick = _signed_sum(_observables_from_angles(angles))
    kernel = svetlichny_operator(settings_from_angles(angles)).matrix
    assert np.max(np.abs(phase_trick - kernel)) <= OPERATOR_TOL
