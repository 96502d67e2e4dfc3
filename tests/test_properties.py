"""Property tests: every fast path equals its brute-force or dense oracle.

Random +/-1 sign patterns, relabelled Svetlichny patterns and random
measurement settings drive the map from Bloch vectors to 2x2 factors
(qobs.pauli_factors), the mode-product kernel (ineq.correlation_sum)
through the classical bounds (enumerated and closed-form), the popcount
strategy evaluation against the word-by-word loop, the
inequality operators, the closed-form Svetlichny spectrum and its GHZ frame
against dense eigenpairs, the see-saw optimizer's values and updates, the
norm certificate for the witness pairs against dense eigenvalues, the
factored identity residuals and state values against the dense
anticommutators and expectations, the structured states' trace products
(also on a test-only state known only by its product-sum form) and the
Kronecker-product values of the Svetlichny pattern and of the relabellings
element_signs accepts (exactly those whose last two parties' two-term neg
bits agree) against dense traces, the
closed-form factor norms against the SVD, and the kernel itself against its
np.tensordot oracle.  A last property fuzzes the CLI boundary: every argv
and config file ends in a named exit code.  Example counts are bounded and
derandomized so the suite stays fast and repeatable; the explain phase is
skipped so that a failing property reports quickly.
"""

import contextlib
import dataclasses
import functools
import io
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import (
    correlation_sum_tensordot,
    correlation_update_party,
    enumerated_lhv,
    first_max_hybrid,
    first_max_lhv,
    pauli_correlation_tensor,
    planar_settings,
    pure_python_json,
    relabelled,
    strategy_value_words,
)
from qwitness import cli
from qwitness.classical import (
    DeterministicStrategy,
    evaluate_strategy,
    hybrid_bound,
    lhv_bound,
)
from qwitness.dense import (
    ChshElement,
    bloch_observable,
    chsh_element,
    correlation_operator,
    decompose_svetlichny,
    positivity_bounds,
    term,
    total_defect,
    witness_pair,
)
from qwitness.ineq import (
    PSD_TOL,
    CertificationError,
    PartyFactors,
    SignPattern,
    chsh_optimal_settings,
    correlation_sum,
    element_signs,
    operator_sum,
    svetlichny_operator,
    svetlichny_pattern,
)
from qwitness.opalg import anticommutator, frob_distance, hermitian_eigenvalues, is_psd
from qwitness.optimize import (
    ORACLE_CHECK_TOL,
    _correlation_tensor,
    _ghz_frame,
    _set_party,
    _structured_environments,
    _svetlichny_value,
    _sweep,
    _tensor_environments,
    max_eigenvalue,
)
from qwitness.qobs import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PAULIS,
    IDENTITY_2,
    BlochVector,
    Grouping,
    NoisyGhz,
    ProductState,
    SettingsTable,
    _ProductSum,
    expectation,
    ghz_state,
    maximally_mixed,
    noisy_mixture,
    pauli_factors,
    product_state,
)
from qwitness.witness import WitnessIdentityError, evaluate_witness, factored_identities

OPERATOR_TOL = 1e-12
# Slack of a dense eigenvalue of X or Y (norm <= 4, dimension <= 64) against
# the exact Weyl bound.
EIGENVALUE_TOL = 1e-12


def bounded(max_examples):
    return settings(
        max_examples=max_examples,
        deadline=None,
        derandomize=True,
        database=None,
        phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink),
    )


def sign_patterns(n):
    return st.lists(st.sampled_from((1, -1)), min_size=2**n, max_size=2**n).map(
        lambda coeffs: SignPattern(n, tuple(coeffs))
    )


def relabelled_patterns(n):
    """The Svetlichny pattern under a per-party setting swap and two outcome
    flips, one bit each."""
    bits = st.tuples(st.booleans(), st.booleans(), st.booleans())
    return st.lists(bits, min_size=n, max_size=n).map(
        lambda relabels: relabelled(svetlichny_pattern(n), relabels)
    )


outcome_pairs = st.tuples(st.sampled_from((1, -1)), st.sampled_from((1, -1)))


def deterministic_strategies(n):
    return st.lists(outcome_pairs, min_size=n, max_size=n).map(
        lambda outcomes: DeterministicStrategy(tuple(outcomes))
    )


sphere_angles = st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi))
unit_vectors = sphere_angles.map(lambda a: BlochVector.from_angles(*a))


def settings_tables(n):
    return st.lists(st.tuples(unit_vectors, unit_vectors), min_size=n, max_size=n).map(
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
    expected = [strategy_value_words(pattern, DeterministicStrategy(o)) for o in strategies]
    assert values.tolist() == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
@bounded(20)
@given(data=st.data())
def test_evaluate_strategy_equals_the_word_loop(n, data):
    pattern = data.draw(sign_patterns(n))
    strategy = data.draw(deterministic_strategies(n))
    assert evaluate_strategy(pattern, strategy) == strategy_value_words(pattern, strategy)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
@bounded(10)
@given(data=st.data())
def test_lhv_bound_is_the_first_maximizer(n, data):
    # Relabelled patterns take the closed form, random ones the enumeration.
    # Above N = 5 the brute-force walk is too slow, and the enumeration,
    # called directly, is the oracle.
    if n <= 5:
        pattern = data.draw(sign_patterns(n))
        assert lhv_bound(pattern) == first_max_lhv(pattern)
    family = data.draw(relabelled_patterns(n))
    oracle = first_max_lhv if n <= 5 else enumerated_lhv
    assert lhv_bound(family) == oracle(family)


@pytest.mark.parametrize("n", [2, 3, 4])
@bounded(10)
@given(data=st.data())
def test_hybrid_bound_is_the_first_maximizer(n, data):
    # Random patterns loop over every bipartition, relabelled ones read the
    # bipartition {0} | rest alone.
    pattern = data.draw(sign_patterns(n))
    assert hybrid_bound(pattern) == first_max_hybrid(pattern)
    family = data.draw(relabelled_patterns(n))
    assert hybrid_bound(family) == first_max_hybrid(family)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@bounded(10)
@given(data=st.data())
def test_pauli_factors_equal_bloch_observables(n, data):
    table = data.draw(settings_tables(n))
    oracle = np.array([[bloch_observable(v) for v in pair] for pair in table.parties])
    assert np.array_equal(pauli_factors(table.bloch), oracle)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@bounded(6)
@given(data=st.data())
def test_kernel_operator_equals_word_sum(n, data):
    pattern = data.draw(sign_patterns(n))
    table = data.draw(settings_tables(n))
    dense = sum(c * correlation_operator(table, w) for w, c in enumerate(pattern.coeffs))
    fast = svetlichny_operator(table, pattern).matrix
    assert np.max(np.abs(fast - dense)) <= OPERATOR_TOL


def _observables_from_angles(angles):
    """(setting-0, setting-1) observables per party from sphere angles."""
    obs = []
    for p in range(angles.shape[0]):
        pair = []
        for s in (0, 1):
            theta, phi = angles[p, s]
            sin_theta = math.sin(theta)
            pair.append(
                sin_theta * math.cos(phi) * PAULI_X
                + sin_theta * math.sin(phi) * PAULI_Y
                + math.cos(theta) * PAULI_Z
            )
        obs.append((pair[0], pair[1]))
    return obs


def _signed_sum(obs):
    """Sum of sign(word) * correlation operator over all setting words.

    Computed as the Hermitian part of (1 - i) * kron_p(O_p0 + i O_p1), which
    equals the word-by-word sum because
    (1 - i) i^k + (1 + i) (-i)^k = 2 * (-1)^floor(k/2).
    """
    acc = None
    for m0, m1 in obs:
        factor = m0 + 1j * m1
        acc = factor if acc is None else np.kron(acc, factor)
    m = (1.0 - 1.0j) * acc
    return (m + m.conj().T) / 2.0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@bounded(6)
@given(data=st.data())
def test_signed_sum_equals_svetlichny_operator(n, data):
    pairs = data.draw(st.lists(st.tuples(sphere_angles, sphere_angles), min_size=n, max_size=n))
    angles = np.array(pairs, dtype=np.float64)
    phase_trick = _signed_sum(_observables_from_angles(angles))
    table = SettingsTable(
        tuple(tuple(BlochVector.from_angles(*a) for a in pair) for pair in pairs)
    )
    kernel = svetlichny_operator(table).matrix
    assert np.max(np.abs(phase_trick - kernel)) <= OPERATOR_TOL


def density_matrices(n):
    """Random full-rank density matrices A A^dagger / tr, A complex Gaussian."""

    def build(seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        rho = a @ a.conj().T
        return rho / np.trace(rho).real

    return st.integers(0, 2**32 - 1).map(build)


def environments_of(state):
    """The see-saw's environments for a structured state or a density matrix."""
    if isinstance(state, np.ndarray):
        return _tensor_environments(_correlation_tensor(state))
    return _structured_environments(state)


def su2_of(rotation):
    """An SU(2) matrix U with U sigma_k U^dagger = sum_j R[j, k] sigma_j.

    For any 2x2 B, B + sum_jk R[j, k] sigma_j B sigma_k = 2 tr(U^dagger B) U,
    so U is that sum over the B of largest norm among I and i sigma_k,
    scaled to unit determinant."""
    sums = [
        b + np.einsum("jk,jab,bc,kcd->ad", rotation, PAULIS, b, PAULIS)
        for b in (IDENTITY_2, 1j * PAULI_X, 1j * PAULI_Y, 1j * PAULI_Z)
    ]
    m = max(sums, key=np.linalg.norm)
    return m / np.sqrt(np.linalg.det(m))


def frame_eigenvector(rot):
    """psi = V^dagger |GHZ> for V = (x)_p V_p, V_p the SU(2) of rot[p]."""
    ghz = np.zeros(2 ** len(rot), dtype=np.complex128)
    ghz[0] = ghz[-1] = 1.0 / math.sqrt(2.0)
    v_dagger = functools.reduce(np.kron, [su2_of(r).conj().T for r in rot])
    return v_dagger @ ghz


def frame_environments(rot):
    """Environments on the eigenvector of the frame rot: GHZ environments
    at the rotated settings, turned back.  The caller moves party p after
    its environment, so each moved party is rotated just before the next
    environment reads it."""
    ghz = _structured_environments(NoisyGhz(len(rot)))

    def environments(bloch):
        rotated = bloch @ rot.swapaxes(1, 2)
        inner = ghz(rotated)
        for p in range(len(rot)):
            if p:
                rotated[p - 1] = bloch[p - 1] @ rot[p - 1].T
            yield next(inner) @ rot[p]

    return environments


def see_saw_states(data, n):
    """(environments, dense matrix) for GHZ, noisy GHZ, mixed, a random
    product state, a random density matrix and the closed-form top
    eigenvector of the Svetlichny operator at random settings."""
    states = [
        NoisyGhz(n),
        NoisyGhz(n, data.draw(st.floats(0.0, 1.0))),
        NoisyGhz(n, 0.0),
        ProductState(tuple(data.draw(st.lists(unit_vectors, min_size=n, max_size=n)))),
        data.draw(density_matrices(n)),
    ]
    out = [(environments_of(s), s if isinstance(s, np.ndarray) else s.matrix()) for s in states]
    _, rot = _ghz_frame(data.draw(settings_tables(n)).bloch)
    psi = frame_eigenvector(rot)
    out.append((frame_environments(rot), np.outer(psi, psi.conj())))
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
@bounded(6)
@given(data=st.data())
def test_closed_form_spectrum_equals_dense_eigenpair(n, data):
    table = data.draw(settings_tables(n))
    value, rot = _ghz_frame(table.bloch)
    operator = svetlichny_operator(table).matrix
    assert abs(value - max_eigenvalue(operator)) <= ORACLE_CHECK_TOL
    psi = frame_eigenvector(rot)
    # The operator is exactly zero at some tables (N = 5 with every pair
    # antiparallel), where only the rounding of a zero matrix is left.
    assert np.linalg.norm(operator @ psi - value * psi) <= 1e-12 * max(value, 1.0)


@pytest.mark.parametrize("n", range(9, 17))
@bounded(3)
@given(first_phase=st.floats(0.0, 2.0 * math.pi))
def test_closed_form_reaches_the_quantum_maximum_above_the_cap(n, first_phase):
    # Orthogonal directions at every party, above the eigensolver cap.
    value, _ = _ghz_frame(planar_settings(n, first_phase).bloch)
    assert abs(value - 2.0 ** (n - 1) * math.sqrt(2.0)) <= ORACLE_CHECK_TOL


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@bounded(6)
@given(data=st.data())
def test_correlation_tensor_value_equals_dense_expectation(n, data):
    # Every environment path's value Re t + Im t against the dense operator.
    table = data.draw(settings_tables(n))
    operator = svetlichny_operator(table).matrix
    for environments, rho in see_saw_states(data, n):
        value = _svetlichny_value(environments, table.bloch)
        assert abs(value - expectation(operator, rho)) <= OPERATOR_TOL


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@bounded(6)
@given(data=st.data())
def test_party_update_picks_the_best_direction(n, data):
    bloch = data.draw(settings_tables(n)).bloch.copy()
    environments = environments_of(data.draw(density_matrices(n)))
    party = data.draw(st.integers(0, n - 1))
    rivals = data.draw(st.lists(st.tuples(st.integers(0, 1), unit_vectors), min_size=1, max_size=4))
    before = _svetlichny_value(environments, bloch)
    # The generator yields party p's environment before any party moves.
    env = next(itertools.islice(environments(bloch), party, None))
    after = _set_party(bloch, party, env)
    assert after >= before - OPERATOR_TOL
    assert abs(after - _svetlichny_value(environments, bloch)) <= OPERATOR_TOL
    for setting, rival in rivals:
        trial = bloch.copy()
        trial[party, setting] = rival.as_list()
        assert _svetlichny_value(environments, trial) <= after + OPERATOR_TOL


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@bounded(6)
@given(data=st.data())
def test_noisy_ghz_value_scales_with_visibility(n, data):
    # The fact behind violation_threshold's closed form, on the structured
    # state and on its density matrix.
    bloch = data.draw(settings_tables(n)).bloch
    v = data.draw(st.floats(0.0, 1.0))
    ghz = _svetlichny_value(environments_of(NoisyGhz(n)), bloch)
    for noisy_state in (NoisyGhz(n, v), noisy_mixture(ghz_state(n), v)):
        noisy = _svetlichny_value(environments_of(noisy_state), bloch)
        assert abs(noisy - v * ghz) <= OPERATOR_TOL


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@bounded(6)
@given(data=st.data())
def test_sweep_equals_correlation_tensor_sweep(n, data):
    # One sweep from the same start, each party's update checked against
    # the coefficient-sum update on the Pauli correlation tensor at the
    # same settings.  A gradient row that is zero in exact arithmetic (a
    # product state's last party, or a symmetric start) takes its direction
    # from rounding on either side, and later parties follow that choice;
    # so the oracle runs in lockstep on the swept settings, and directions
    # are compared weighted by the oracle's gradient norm, which compares
    # the gradients themselves.
    start = data.draw(settings_tables(n)).bloch
    for environments, rho in see_saw_states(data, n):
        corr = pauli_correlation_tensor(rho)
        bloch = start.copy()
        for party, env in enumerate(environments(bloch)):
            oracle = bloch.copy()
            norms = correlation_update_party(oracle, corr, party)
            value = _set_party(bloch, party, env)
            assert abs(value - np.sum(norms)) <= OPERATOR_TOL
            assert np.max(norms[:, None] * np.abs(bloch[party] - oracle[party])) <= OPERATOR_TOL
        swept_value, swept = _sweep(environments, start)
        assert swept_value == value and np.array_equal(swept, bloch)


def dense_xy(e):
    """X and Y built from the element's terms, for the dense oracle."""
    a, b = e.sign_variant
    q00, q01, q10, q11 = e.terms
    eye = np.eye(q00.shape[0])
    return 2.0 * eye - a * (q00 - q11), 2.0 * eye - b * (q01 + q10)


def elements_of(table, pattern=None):
    if table.n_parties == 2:
        return [chsh_element(table, pattern)]
    return decompose_svetlichny(table, pattern)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@bounded(6)
@given(data=st.data())
def test_norm_certificate_bounds_dense_min_eigenvalue(n, data):
    table = data.draw(settings_tables(n))
    # Scaled factors are no longer involutions, so the bound takes both signs.
    scales = data.draw(st.lists(st.floats(0.5, 1.5), min_size=2 * n, max_size=2 * n))
    observables = PartyFactors.from_settings(table).observables
    for scaled in (1.0, np.reshape(scales, (n, 2, 1, 1))):
        factors = PartyFactors(observables * scaled)
        for e in elements_of(table):
            e = dataclasses.replace(e, factors=factors)
            x, y = dense_xy(e)
            x_min = hermitian_eigenvalues(x).values[0]
            y_min = hermitian_eigenvalues(y).values[0]
            x_bound, y_bound = positivity_bounds(e)
            assert x_bound <= x_min + EIGENVALUE_TOL
            assert y_bound <= y_min + EIGENVALUE_TOL
            if min(x_bound, y_bound) >= -PSD_TOL:
                pair = witness_pair(e)
                assert is_psd(pair.x, PSD_TOL) and is_psd(pair.y, PSD_TOL)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@bounded(5)
@given(data=st.data())
def test_verify_and_evaluate_witness_share_residuals(n, data):
    table = data.draw(settings_tables(n))
    cfg = {"n_parties": n, "seed": 1, "settings": table.to_json_dict()}
    results, code = cli.cmd_verify(cfg)
    assert code == 0
    report = evaluate_witness(table, maximally_mixed(n))
    elements = factored_identities(PartyFactors.from_settings(table)).element_residuals
    assert len(elements) == 2 ** (n - 2)
    keys = {"chsh_4e"} if n == 2 else {"element_max"}
    assert keys <= set(results["residuals"])
    assert {k: results["residuals"][k] for k in keys} == {
        k: report.identity_residuals[k] for k in keys
    }
    assert results["worst_element"] == report.worst_element


def test_scaled_factor_rejected_naming_x():
    observables = PartyFactors.from_settings(chsh_optimal_settings()).observables.copy()
    observables[0, 0] *= 1.5
    factors = PartyFactors(observables)
    e = ChshElement(0, Grouping((0,), (1,)), (), (1, 1, 1, -1), factors, (0, 1, 2, 3))
    assert not is_psd(dense_xy(e)[0], PSD_TOL)
    with pytest.raises(WitnessIdentityError, match="X is not certified positive semidefinite"):
        witness_pair(e)


def chsh_type_patterns(n):
    """Sign patterns whose every element has the form (a, b, b, -a)."""
    pairs = st.lists(
        st.tuples(st.sampled_from((1, -1)), st.sampled_from((1, -1))),
        min_size=2 ** (n - 2),
        max_size=2 ** (n - 2),
    )
    return pairs.map(
        lambda ab: SignPattern(n, tuple(c for a, b in ab for c in (a, b, b, -a)))
    )


def contracted_factors(data, table, parties):
    """The table's factors, each replaced on ``parties`` by a Hermitian
    non-involution of norm <= 1: Bloch length 1 - delta, or
    alpha I + beta n.sigma with |alpha| + |beta| <= 1."""
    observables = PartyFactors.from_settings(table).observables.copy()
    for p in parties:
        for s in (0, 1):
            if data.draw(st.booleans()):
                observables[p, s] *= 1.0 - data.draw(st.floats(0.0, 0.5))
            else:
                alpha = data.draw(st.floats(-1.0, 1.0))
                beta = (1.0 - abs(alpha)) * data.draw(st.floats(-1.0, 1.0))
                observables[p, s] = alpha * IDENTITY_2 + beta * observables[p, s]
    return PartyFactors(observables)


def agrees(factored, dense, dim):
    return abs(factored - dense) <= 1e-12 * dim + 1e-9 * abs(dense)


def dense_witness_defects(table, pattern, factors):
    """The dense anticommutator construction on ``factors``: each element's
    Frobenius residual, in element order, and the total defect matrix
    Q_tot - 4(2^(N-1) I - I_op)."""
    n = table.n_parties
    dim = 2**n
    eye = np.eye(dim)
    elements = [dataclasses.replace(e, factors=factors) for e in elements_of(table, pattern)]
    residuals = []
    total = np.zeros((dim, dim), dtype=np.complex128)
    target = 2.0 ** (n - 1) * eye.astype(np.complex128)
    for e in elements:
        pair = witness_pair(e)
        q = anticommutator(pair.x, pair.y)
        residuals.append(frob_distance(q, 4.0 * (2.0 * eye - e.operator())))
        total += q
        target -= e.operator()
    return residuals, total - 4.0 * target


@pytest.mark.parametrize("perturbed", ["all", "last_two", "none"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@bounded(5)
@given(data=st.data())
def test_factored_identities_equal_dense_anticommutators(n, perturbed, data):
    table = data.draw(settings_tables(n))
    pattern = data.draw(chsh_type_patterns(n))
    parties = {"all": range(n), "last_two": range(n - 2, n), "none": ()}[perturbed]
    factors = contracted_factors(data, table, parties)
    identities = factored_identities(factors, pattern)

    dim = 2**n
    residuals, defect = dense_witness_defects(table, pattern, factors)
    assert len(identities.element_residuals) == len(residuals)
    for value, dense in zip(identities.element_residuals, residuals):
        assert agrees(value, dense, dim)
    assert agrees(identities.residuals["total"], float(np.linalg.norm(defect)), dim)

    rho = data.draw(density_matrices(n))
    dense_value = expectation(defect, rho)
    assert agrees(expectation(total_defect(identities), rho), dense_value, dim)


@pytest.mark.parametrize("perturbed", ["all", "last_two", "none"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@bounded(4)
@given(data=st.data())
def test_factored_state_values_equal_dense_expectation(n, perturbed, data):
    # The two traces evaluate_witness takes from the factors: <I> and tr(rho R).
    table = data.draw(settings_tables(n))
    pattern = data.draw(chsh_type_patterns(n))
    parties = {"all": range(n), "last_two": range(n - 2, n), "none": ()}[perturbed]
    factors = contracted_factors(data, table, parties)
    identities = factored_identities(factors, pattern)
    inequality = sum(c * term(factors, w) for w, c in enumerate(pattern.coeffs))
    _, defect = dense_witness_defects(table, pattern, factors)
    states = (
        ghz_state(n),
        product_state(data.draw(st.lists(unit_vectors, min_size=n, max_size=n))),
        data.draw(density_matrices(n)),
    )
    for rho in states:
        value = factors.expectation(identities.signs.reshape(-1), rho)
        assert abs(value - expectation(inequality, rho)) <= OPERATOR_TOL
        assert abs(identities.defect_expectation(rho) - expectation(defect, rho)) <= OPERATOR_TOL


def dense_trace(rho, factors):
    """tr(rho (x)_p X_p) with the Kronecker product built."""
    op = np.array([[1.0 + 0.0j]])
    for x in factors:
        op = np.kron(op, x)
    return np.einsum("ij,ji->", op, rho)


def square_factors(data, n):
    """Random complex 2 x 2 factors, one per qubit."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    return [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(n)]


def structured_states(data, n):
    """GHZ, maximally mixed, noisy GHZ and product states."""
    blochs = data.draw(st.lists(unit_vectors, min_size=n, max_size=n))
    return (
        NoisyGhz(n),
        NoisyGhz(n, 0.0),
        NoisyGhz(n, data.draw(st.floats(0.0, 1.0))),
        ProductState(tuple(blochs)),
    )


# |tr(rho (x)_p X_p)| <= prod_p ||X_p||_F for a state, so the traces are
# compared relative to that product; the Svetlichny values, bounded by
# 2^(N-1) sqrt(2), relative to 2^(N-1).
TRACE_PRODUCT_TOL = 1e-14


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
@bounded(4)
@given(data=st.data())
def test_trace_product_equals_dense_trace(n, data):
    factors = square_factors(data, n)
    scale = math.prod(float(np.linalg.norm(x)) for x in factors)
    for state in structured_states(data, n):
        dense = dense_trace(state.matrix(), factors)
        assert abs(state.trace_product(factors) - dense) <= TRACE_PRODUCT_TOL * scale


class ProductSumState(_ProductSum):
    """A state known only by its product-sum form: rho = sum_d w_d (x)_p
    L[p, d], with terms tr(L[p, d] X_p).  Each L[p, d] is Hermitian of unit
    Frobenius norm and sum_d |w_d| = 1, so rho is Hermitian, though not
    always positive, and |tr(rho (x)_p X_p)| <= prod_p ||X_p||_F."""

    def __init__(self, weights, local):
        self.weights, self.local, self.n_parties = weights, local, len(local)

    def terms(self, factors):
        return np.einsum("pdab,p...ba->p...d", self.local, factors)

    def matrix(self):
        terms = (functools.reduce(np.kron, self.local[:, d]) for d in range(len(self.weights)))
        return sum(w * term for w, term in zip(self.weights, terms))


def product_sum_states(n):
    def build(seed):
        rng = np.random.default_rng(seed)
        depth = int(rng.integers(1, 6))
        a = rng.standard_normal((n, depth, 2, 2)) + 1j * rng.standard_normal((n, depth, 2, 2))
        local = a + a.conj().swapaxes(-1, -2)
        local /= np.linalg.norm(local, axis=(-2, -1), keepdims=True)
        weights = rng.standard_normal(depth)
        return ProductSumState(weights / np.abs(weights).sum(), local)

    return st.integers(0, 2**32 - 1).map(build)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@bounded(6)
@given(data=st.data())
def test_product_sum_form_is_the_only_interface(n, data):
    # A state with random weights and terms, known to trace_product and to
    # the see-saw only through them, against its dense matrix: one trace,
    # a stack of three, and one sweep checked in lockstep as above.
    state = data.draw(product_sum_states(n))
    rho = state.matrix()
    factors = square_factors(data, n)
    scale = math.prod(float(np.linalg.norm(x)) for x in factors)
    trace = state.trace_product(factors)
    assert abs(trace - dense_trace(rho, factors)) <= TRACE_PRODUCT_TOL * scale
    stack = np.array([square_factors(data, n) for _ in range(3)]).swapaxes(0, 1)
    for x, trace in zip(stack.swapaxes(0, 1), state.trace_product(stack)):
        scale = math.prod(float(np.linalg.norm(f)) for f in x)
        assert abs(trace - dense_trace(rho, x)) <= TRACE_PRODUCT_TOL * scale
    corr = pauli_correlation_tensor(rho)
    bloch = data.draw(settings_tables(n)).bloch.copy()
    for party, env in enumerate(_structured_environments(state)(bloch)):
        oracle = bloch.copy()
        norms = correlation_update_party(oracle, corr, party)
        value = _set_party(bloch, party, env)
        assert abs(value - np.sum(norms)) <= OPERATOR_TOL
        assert np.max(norms[:, None] * np.abs(bloch[party] - oracle[party])) <= OPERATOR_TOL


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
@bounded(3)
@given(data=st.data())
def test_svetlichny_values_equal_dense_oracle(n, data):
    # evaluate_witness's Kronecker-product values against the dense
    # operator and the dense defect on each state's matrix.
    table = data.draw(settings_tables(n))
    operator = svetlichny_operator(table).matrix
    defect = total_defect(factored_identities(PartyFactors.from_settings(table)))
    bound = 2.0 ** (n - 1)
    for state in structured_states(data, n):
        report = evaluate_witness(table, state)
        rho = state.matrix()
        svet = expectation(operator, rho)
        assert abs(report.svet_value - svet) <= TRACE_PRODUCT_TOL * bound
        dense_value = 4.0 * (bound - svet) + expectation(defect, rho)
        assert abs(report.value - dense_value) <= 4.0 * TRACE_PRODUCT_TOL * bound


@pytest.mark.parametrize("perturbed", ["all", "last_two", "none"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
@bounded(3)
@given(data=st.data())
def test_kronecker_defect_equals_dense_defect(n, perturbed, data):
    # For the Svetlichny pattern R = (x)_p (S_p0 - S_p1) (x) M; the oracle is
    # dense.total_defect, the coefficient sum over the elements.
    table = data.draw(settings_tables(n))
    parties = {"all": range(n), "last_two": range(n - 2, n), "none": ()}[perturbed]
    factors = contracted_factors(data, table, parties)
    identities = factored_identities(factors)
    defect = total_defect(identities)
    assert agrees(identities.residuals["total"], float(np.linalg.norm(defect)), 2**n)
    coeffs = np.array(svetlichny_pattern(n).coeffs, dtype=np.float64)
    inequality = operator_sum(coeffs, factors.observables)
    bound = 2.0 ** (n - 1)
    for state in structured_states(data, n):
        rho = state.matrix()
        assert abs(identities.defect_trace(state) - expectation(defect, rho)) <= OPERATOR_TOL
        svet = expectation(inequality, rho)
        value = factors.two_term_value(state, svetlichny_pattern(n).two_term)
        assert abs(value - svet) <= TRACE_PRODUCT_TOL * bound


def last_two_neg_bits_agree(pattern):
    """Whether the neg bits of parties N-2 and N-1 (bits 1 and 0) of the
    pattern's two-term form agree."""
    neg = pattern.two_term[2]
    return (neg ^ (neg >> 1)) & 1 == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
@bounded(30)
@given(data=st.data())
def test_family_member_is_accepted_iff_last_two_neg_bits_agree(n, data):
    pattern = data.draw(relabelled_patterns(n))
    assert pattern.two_term is not None
    if last_two_neg_bits_agree(pattern):
        assert element_signs(pattern, n).shape == (2 ** (n - 2), 4)
    else:
        with pytest.raises(CertificationError):
            element_signs(pattern, n)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
@bounded(3)
@given(data=st.data())
def test_accepted_family_values_equal_dense_oracle(n, data):
    # The Kronecker-product path on a relabelled Svetlichny pattern against
    # the dense operator of that pattern and the dense defect.
    pattern = data.draw(relabelled_patterns(n).filter(last_two_neg_bits_agree))
    table = data.draw(settings_tables(n))
    identities = factored_identities(PartyFactors.from_settings(table), pattern)
    assert identities.two_term == pattern.two_term
    defect = total_defect(identities)
    assert agrees(identities.total, float(np.linalg.norm(defect)), 2**n)
    operator = svetlichny_operator(table, pattern).matrix
    bound = 2.0 ** (n - 1)
    for state in structured_states(data, n):
        rho = state.matrix()
        report = evaluate_witness(table, state, pattern)
        assert abs(report.svet_value - expectation(operator, rho)) <= TRACE_PRODUCT_TOL * bound
        assert abs(identities.defect_trace(state) - expectation(defect, rho)) <= OPERATOR_TOL


finite_entries = st.floats(-4.0, 4.0, allow_subnormal=False)


@bounded(50)
@given(matrices=st.lists(st.tuples(*[finite_entries] * 4), min_size=1, max_size=6))
def test_closed_form_norms_equal_svd_norms(matrices):
    # Hermitian [[a, b], [b*, d]] from (a, d, Re b, Im b), as a (k, 1, 2, 2) stack.
    obs = np.array([[[[a, re + 1j * im], [re - 1j * im, d]]] for a, d, re, im in matrices])
    svd = np.linalg.norm(obs, 2, axis=(-2, -1))
    assert np.all(np.abs(PartyFactors(obs).norms - svd) <= 8 * np.spacing(svd))


KERNEL_DTYPES = (np.int64, np.float64, np.complex128)


def _kernel_operand(rng, shape, dtype):
    if dtype is np.int64:
        return rng.integers(-3, 4, size=shape)
    out = rng.standard_normal(shape)
    return out + 1j * rng.standard_normal(shape) if dtype is np.complex128 else out


# Factor shapes as the callers pass them: the LHV outcome table (2, 4), the
# 2x2 operators (2, 2, 2) and (1, 4, 4), Gram roots (2, 2), Bloch rows
# (2, 3), and the state_sum tables (4, 2), (4, 3) and (16, 1).
KERNEL_CALLER_SHAPES = [
    [],
    [(2, 4)] * 5,
    [(2, 2, 2)] * 4,
    [(2, 2, 2), (2, 2, 2), (1, 4, 4)],
    [(2, 2)] * 6,
    [(2, 3), (2, 2), (2, 3), (2, 3)],
    [(4, 2)] * 5,
    [(4, 3)] * 3,
    [(16, 1)],
    [(4, 2), (4, 2), (16, 1)],
    [(2, 3), (16, 2, 2), (4,), (2, 1, 2)],
]


def _shape_id(shapes):
    return "x".join("-".join(map(str, s)) for s in shapes) or "no_factors"


def _kernel_cases(shapes, seed):
    rng = np.random.default_rng(seed)
    for coeff_dtype, factor_dtype in itertools.product(KERNEL_DTYPES, repeat=2):
        coeffs = _kernel_operand(rng, math.prod(s[0] for s in shapes), coeff_dtype)
        yield coeffs, [_kernel_operand(rng, s, factor_dtype) for s in shapes]


@pytest.mark.parametrize("shapes", KERNEL_CALLER_SHAPES, ids=_shape_id)
def test_kernel_matches_tensordot_oracle(shapes):
    # The matmul loop and np.tensordot hand BLAS the same products, so the
    # results must be bit-identical, not merely close.
    for coeffs, factors in _kernel_cases(shapes, len(shapes)):
        fast = correlation_sum(coeffs, factors)
        oracle = correlation_sum_tensordot(coeffs, factors)
        assert fast.shape == oracle.shape and fast.dtype == oracle.dtype
        assert np.array_equal(fast, oracle)


@pytest.mark.parametrize("shapes", [[(2,)] * 3, [(4,)] * 2, [(2, 1)] * 3], ids=_shape_id)
def test_kernel_vector_factors_within_rounding(shapes):
    # With factors of width 1 each step is a matrix-vector product, and
    # BLAS may pick another routine for the transposed view than for
    # tensordot's copy, so only the rounding bound of the sum is required.
    # No caller passes such factors.
    eps = np.finfo(np.float64).eps
    for coeffs, factors in _kernel_cases(shapes, len(shapes)):
        fast = correlation_sum(coeffs, factors)
        oracle = correlation_sum_tensordot(coeffs, factors)
        scale = correlation_sum_tensordot(np.abs(coeffs), [np.abs(f) for f in factors])
        assert fast.shape == oracle.shape and fast.dtype == oracle.dtype
        assert np.all(np.abs(fast - oracle) <= 4 * len(shapes) * eps * scale)


# The CLI boundary: fuzzed argv and config files.  Party counts straddle the
# N >= 2 floor and both caps; trial, restart and sweep counts stay at most 3
# so that no accepted run is long.
FUZZ_NS = (-1, 0, 1, 2, 3, 9, 10**6)
NAN = float("nan")


def _matrix_pairs(m):
    return [[[complex(z).real, complex(z).imag] for z in row] for row in m]


FUZZ_VALUES = {
    "--n": st.sampled_from((*map(str, FUZZ_NS), "abc")),
    "--random": st.sampled_from(("-1", "0", "1", "2", "3", "x")),
    "--seed": st.sampled_from(("1", "-5", "7", "1.5")),
    "--corrupt-sign": st.sampled_from(("-1", "0", "3", "8", "1.9")),
    "--state": st.sampled_from(
        ("ghz", "mixed", "product", "noisy-ghz:0.5", "noisy-ghz:2", "noisy-ghz:x", "werner")
    ),
    "--optimize": st.none(),
    "--out": st.sampled_from(("report.json", "missing/report.json", ".")),
    "--bogus": st.none(),
    "-x": st.just("1"),
    "7": st.none(),
}
# The flags each command takes; any other token is a usage error.
FUZZ_TAKES = {
    "verify": ("--n", "--random", "--seed", "--corrupt-sign", "--out"),
    "bounds": ("--n", "--out"),
    "optimize": ("--n", "--seed", "--out"),
    "witness": ("--n", "--state", "--optimize", "--seed", "--out"),
    "contextuality": ("--state", "--out"),
}

FUZZ_CONFIG = {
    "n_parties": st.sampled_from((*FUZZ_NS, True, 2.0, "3", None, NAN)),
    "seed": st.sampled_from((1, 7, -3, 2.5, True, "1")),
    "random_trials": st.sampled_from((1, 2, 3, 0, -1, 2.7, True, NAN)),
    "corrupt_sign": st.sampled_from((0, 3, 8, -1, 1.9, None)),
    "state": st.sampled_from(("ghz", "mixed", "product", "noisy-ghz:0.7", 5, None, "werner")),
    "optimize": st.sampled_from((True, False, 1, None)),
    "optimizer": st.fixed_dictionaries(
        {"restarts": st.integers(1, 3), "max_iters": st.integers(1, 3)},
        optional={"seed": st.sampled_from((1, 2.5, True, "x"))},
    )
    | st.sampled_from(
        ([1, 2], "fast", {"restarts": 0, "max_iters": 1}, {"restarts": 1.5, "max_iters": 2})
    ),
    "settings": st.sampled_from(
        (
            chsh_optimal_settings().to_json_dict(),
            SettingsTable.from_bloch(np.tile([[1.0, 0, 0], [0, 1.0, 0]], (3, 1, 1))).to_json_dict(),
            {"parties": [[[NAN, 0, 1], [1, 0, 0]]] * 3},
            {"parties": [[[1, 0, 0]]] * 3},
            {"parties": []},
            "x",
        )
    ),
    "product_blochs": st.sampled_from(
        ([[0, 0, 1]] * 3, [[NAN, 0, 1]] * 3, [[2, 0, 0]] * 3, [[0, 0, 1]], "x")
    ),
    "state_matrix": st.sampled_from(
        (
            _matrix_pairs(np.eye(4) / 4),
            _matrix_pairs(np.diag([1.5, -0.5, 0, 0])),
            _matrix_pairs(np.diag([NAN, 1, 0, 0])),
            [[[1, 0]]],
            "x",
        )
    ),
    "cycle": st.sampled_from(
        (
            # X and Z on one qubit do not commute: the cycle check fails (exit 2).
            {
                "a": _matrix_pairs(np.kron(PAULI_X, IDENTITY_2)),
                "b": _matrix_pairs(np.kron(PAULI_Z, IDENTITY_2)),
                "c": _matrix_pairs(np.eye(4)),
                "d": _matrix_pairs(np.eye(4)),
            },
            3,
            {"a": 1},
            {},
            None,
        )
    ),
}


@pytest.mark.parametrize("command", sorted(FUZZ_TAKES))
@bounded(100)
@given(data=st.data())
def test_cli_ends_in_a_named_exit_code(command, data, tmp_path_factory):
    workdir = tmp_path_factory.getbasetemp() / "cli_fuzz"
    workdir.mkdir(exist_ok=True)
    flags = data.draw(st.lists(st.sampled_from(FUZZ_TAKES[command]), max_size=4))
    # One time in three, a token the command may not take.
    foreign = data.draw(st.sampled_from((None,) * 20 + tuple(sorted(FUZZ_VALUES))))
    flags += [foreign] if foreign else []
    groups = []
    for flag in flags:
        value = data.draw(FUZZ_VALUES[flag])
        if flag == "--out":
            value = str(workdir / value)
        groups.append([flag] if value is None else [flag, value])
    keys = data.draw(st.lists(st.sampled_from(sorted(FUZZ_CONFIG)), max_size=3, unique=True))
    config = {key: data.draw(FUZZ_CONFIG[key]) for key in keys}
    # The optimizer defaults run 20 restarts; keep accepted runs short.
    config.setdefault("optimizer", {"restarts": 1, "max_iters": 3})
    files = {"config.json": json.dumps(config), "list.json": "[1]", "bad.json": "{not json"}
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    config_path = data.draw(st.sampled_from(("config.json",) * 8 + (*files, "absent.json")))
    groups.append(["--config", str(workdir / config_path)])
    argv = [command] + [arg for group in data.draw(st.permutations(groups)) for arg in group]

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert json.loads(out.getvalue())["command"] == command
        assert err.getvalue() == ""
    if code in (3, 4):
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.floats(allow_nan=False).map(np.float64),
    st.text(),
)
json_payloads = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@bounded(100)
@given(payload=json_payloads)
def test_canonical_json_is_the_pure_python_encoding(payload):
    assert cli.canonical_json(payload) == pure_python_json(payload)
