"""Anticommutator-based quantumness witnesses.

For positive operators X, Y from a commuting algebra, {X, Y} = XY + YX is
nonnegative; quantum mechanics violates this.  This package builds the
witness pairs behind the CHSH inequality, its 4-cycle noncontextual variant,
and the N-qubit Svetlichny inequality, verifies the operator identities that
tie witnesses to inequality operators, computes exact classical and hybrid
bounds, and optimizes measurement settings to certify
quantum violations.
"""

__version__ = "0.2.0"

from .qobs import (  # noqa: F401
    BlochVector,
    Grouping,
    NoisyGhz,
    ProductState,
    SettingsTable,
    expectation,
    ghz_state,
    maximally_mixed,
    noisy_mixture,
    product_state,
)
from .ineq import (  # noqa: F401
    CertificationError,
    InequalityOperator,
    SignPattern,
    chsh_operator,
    chsh_optimal_settings,
    cycle_from_settings,
    noncontextual_cycle,
    svetlichny_operator,
    svetlichny_pattern,
    svetlichny_sign,
)
from .witness import (  # noqa: F401
    WitnessIdentityError,
    WitnessReport,
    evaluate_witness,
)
from .classical import (  # noqa: F401
    BoundResult,
    DeterministicStrategy,
    HybridStrategy,
    hybrid_bound,
    lhv_bound,
    noncontextual_bound,
)
from .opalg import CapExceededError  # noqa: F401
from .optimize import (  # noqa: F401
    Lcg64,
    OptimizationConfig,
    OptimizationResult,
    max_eigenvalue,
    maximize_expectation,
    maximize_violation,
    violation_threshold,
)
from .dense import (  # noqa: F401
    ChshElement,
    WitnessPair,
    bloch_observable,
    chsh_element,
    decompose_svetlichny,
    element_witness,
    embed,
    group_observable,
    parity_projector,
    total_witness,
    witness_pair,
)
