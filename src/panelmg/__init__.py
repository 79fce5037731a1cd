"""Mean-group and pooled slope estimation for short heterogeneous panels.

The package estimates unit-specific and pooled regression slopes in balanced
panels after removing additive unit and time effects, with exact
leave-one-out jackknife inference, a slope-homogeneity test, and a Monte
Carlo harness. The cross-section may be large while the number of periods
stays small and fixed.
"""

from __future__ import annotations

from .errors import (
    DataError,
    DegenerateJackknife,
    DuplicateCell,
    EstimationError,
    MalformedInput,
    MethodMismatch,
    NonFiniteValue,
    OutOfRange,
    PanelMgError,
    RankDeficient,
    SingularCapacitance,
    SingularOmegaDelta,
    SingularSystem,
    TooFewPeriods,
    TooSmall,
    UnbalancedPanel,
)
from .estimators import (
    Method,
    SlopeEstimates,
    compute_ridge_kappa,
)
from .inference import (
    ConfidenceInterval,
    JackknifeCovariance,
    PerCoefficientTest,
    PoolabilityReport,
    chi_square_upper_tail,
    confidence_interval,
    estimate,
    holm_adjust,
    jackknife,
    normal_quantile_upper,
    poolability_test,
)
from .panel import (
    DemeanedPanel,
    PanelData,
    double_demean,
    read_csv,
    validate_panel,
)
from .simulation import (
    DGP_N_REGRESSORS,
    DgpSpec,
    SimCell,
    SimReport,
    SimTruth,
    run_monte_carlo,
    simulate_dgp,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # panel
    "PanelData",
    "DemeanedPanel",
    "validate_panel",
    "double_demean",
    "read_csv",
    # estimators
    "Method",
    "SlopeEstimates",
    "estimate",
    "compute_ridge_kappa",
    # inference
    "JackknifeCovariance",
    "ConfidenceInterval",
    "PerCoefficientTest",
    "PoolabilityReport",
    "jackknife",
    "confidence_interval",
    "poolability_test",
    "holm_adjust",
    "chi_square_upper_tail",
    "normal_quantile_upper",
    # simulation
    "DgpSpec",
    "SimTruth",
    "SimCell",
    "SimReport",
    "simulate_dgp",
    "run_monte_carlo",
    "DGP_N_REGRESSORS",
    # errors
    "PanelMgError",
    "DataError",
    "UnbalancedPanel",
    "DuplicateCell",
    "NonFiniteValue",
    "TooSmall",
    "MalformedInput",
    "EstimationError",
    "SingularCapacitance",
    "RankDeficient",
    "TooFewPeriods",
    "SingularSystem",
    "MethodMismatch",
    "DegenerateJackknife",
    "SingularOmegaDelta",
    "OutOfRange",
]
