"""Spectral Monte Carlo toolkit for stochastic control optimality studies.

Forward simulation of controlled evolution equations under a diagonal
spectral model, backward adjoint solvers (vector- and matrix-valued) via
least-squares Monte Carlo, duality-identity verification, and
maximum-principle style optimality checks with preset problem instances and
independent oracles.
"""

__version__ = "0.1.0"

from .adjoint import (
    AdjointPair,
    RegressionBasis,
    deterministic_first_adjoint,
    lsmc_regress,
    solve_first_adjoint,
)
from .duality import (
    IdentityReport,
    TupleSpec,
    lipschitz_probe,
    verify_first_identities,
    verify_first_identity,
    verify_second_identities,
    verify_second_identity,
)
from .forward import (
    Box,
    BrownianEnsemble,
    Feedback,
    FiniteGrid,
    OpenLoop,
    Scenario,
    StateEnsemble,
    TimeGrid,
    estimate_cost,
    sample_brownian,
    simulate_controlled,
    simulate_linear_test,
    simulate_linearized,
)
from .maximum_principle import (
    MPReport,
    SpikeTable,
    check_condition,
    convex_gradient,
    hamiltonian,
    projected_gradient,
    spike_experiment,
    spike_functional,
)
from .scenarios import (
    LqParams,
    OracleBundle,
    dp_oracle_scalar,
    load_preset,
    make_heat_scenario,
    make_lq_scalar,
    riccati_oracle,
)
from .second_order import (
    SecondOrderAdjoint,
    lyapunov_oracle,
    solve_second_adjoint,
    tensor_semigroup_apply,
)
from .spectral import (
    OperatorSpec,
    embed,
    inner,
    make_dirichlet_laplacian,
    norm,
    project,
    semigroup_apply,
    yosida_generator,
)
