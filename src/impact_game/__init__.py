"""Nash equilibria of a multi-agent market impact game.

n agents trade the same asset on a common time grid against a transient
price impact with decay kernel G, mean-variance (equivalently CARA)
preferences with risk aversion gamma, and quadratic transaction costs
theta.  The package computes the unique equilibrium in closed form via two
base vectors, locates the critical transaction-cost level at which the
equilibrium stops oscillating, solves the stationary infinite-horizon
problem, and validates the cost formulas by Monte Carlo.
"""

from .errors import (
    IllConditionedWarning,
    ImpactGameError,
    NumericalError,
    ParameterError,
)
from .finite_game import (
    EquilibriumSolution,
    KernelMatrices,
    Strategy,
    best_response,
    build_matrices,
    compute_v,
    compute_w,
    mv_cost,
    nash_equilibrium,
    optimality_gap,
    w_closed_form,
)
from .infinite_game import (
    InfiniteHorizonSolution,
    TruncatedSequence,
    alpha_closed_form_n1,
    alpha_residual,
    beta_residual,
    critical_theta_infinite,
    infinite_nash,
    infinite_v,
    infinite_w,
    solve_alpha,
    solve_beta,
    solve_stationary,
    v_identity_deviation,
    w_identity_deviation,
)
from .market_model import (
    BachelierVariance,
    ExponentialKernel,
    GameParams,
    PowerLawKernel,
    TabulatedVariance,
    TimeGrid,
    kernel_eval,
    variance_eval,
)
from .simulation import (
    CaraReport,
    CostBatch,
    MomentReport,
    PricePath,
    impacted_path,
    realized_costs,
    simulate_paths,
    validate_cara,
    validate_moments,
)
from .thresholds import (
    OscillationReport,
    ThresholdResult,
    critical_theta_v,
    critical_theta_w,
    oscillation_report,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ImpactGameError",
    "ParameterError",
    "NumericalError",
    "IllConditionedWarning",
    "TimeGrid",
    "ExponentialKernel",
    "PowerLawKernel",
    "BachelierVariance",
    "TabulatedVariance",
    "GameParams",
    "kernel_eval",
    "variance_eval",
    "KernelMatrices",
    "Strategy",
    "EquilibriumSolution",
    "build_matrices",
    "compute_v",
    "compute_w",
    "w_closed_form",
    "nash_equilibrium",
    "mv_cost",
    "best_response",
    "optimality_gap",
    "TruncatedSequence",
    "InfiniteHorizonSolution",
    "alpha_residual",
    "solve_alpha",
    "alpha_closed_form_n1",
    "beta_residual",
    "solve_beta",
    "infinite_v",
    "infinite_w",
    "solve_stationary",
    "infinite_nash",
    "critical_theta_infinite",
    "v_identity_deviation",
    "w_identity_deviation",
    "OscillationReport",
    "ThresholdResult",
    "oscillation_report",
    "critical_theta_v",
    "critical_theta_w",
    "sweep",
    "PricePath",
    "CostBatch",
    "MomentReport",
    "CaraReport",
    "impacted_path",
    "realized_costs",
    "simulate_paths",
    "validate_moments",
    "validate_cara",
]
