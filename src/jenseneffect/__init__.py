"""Penalized single-index models with smoothing-path tests for the sign of
the Jensen effect of covariate variability.

The usual flow: build a ModelSpec and Dataset, fit a smoothing path with
fit_path, then run jensen_test (or, for binary outcomes, compare against a
linear logistic model with alternative_null_test).
"""

from .basis import (
    FourierBasis,
    SplineBasis,
    basis_for_index,
    basis_matrix,
    fourier_design,
    greville_abscissae,
    make_spline_basis,
    penalty_matrix,
)
from .errors import (
    DegenerateIndexError,
    DegenerateVarianceError,
    DegreesOfFreedomError,
    InfeasibleScenarioError,
    NumericalError,
    NumericalOverflowError,
    SeparationError,
    TestInfeasibleError,
)
from .inference import (
    LambdaPath,
    coef_cov,
    effective_df,
    gcv,
    sigma2_hat,
    smoother_matrix,
)
from .jensen import (
    EvalSet,
    JensenTestResult,
    LinearReference,
    alternative_null_test,
    delta_cov,
    delta_hat,
    jensen_test,
    linear_logistic_reference,
    make_eval_set,
    null_critical_value,
    t_process,
)
from .model import (
    Coefficients,
    Dataset,
    FitResult,
    ModelSpec,
    default_lambda_grid,
    fit,
    fit_path,
    gradient,
    normalize_index,
    objective,
)
from .simlab import (
    CATALOG,
    PowerTable,
    ScenarioConfig,
    catalog_names,
    gen_dataset,
    power_study,
    true_delta,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # basis
    "FourierBasis",
    "SplineBasis",
    "basis_for_index",
    "basis_matrix",
    "fourier_design",
    "greville_abscissae",
    "make_spline_basis",
    "penalty_matrix",
    # errors
    "DegenerateIndexError",
    "DegenerateVarianceError",
    "DegreesOfFreedomError",
    "InfeasibleScenarioError",
    "NumericalError",
    "NumericalOverflowError",
    "SeparationError",
    "TestInfeasibleError",
    # model
    "Coefficients",
    "Dataset",
    "FitResult",
    "ModelSpec",
    "default_lambda_grid",
    "fit",
    "fit_path",
    "gradient",
    "normalize_index",
    "objective",
    # inference
    "LambdaPath",
    "coef_cov",
    "effective_df",
    "gcv",
    "sigma2_hat",
    "smoother_matrix",
    # jensen
    "EvalSet",
    "JensenTestResult",
    "LinearReference",
    "alternative_null_test",
    "delta_cov",
    "delta_hat",
    "jensen_test",
    "linear_logistic_reference",
    "make_eval_set",
    "null_critical_value",
    "t_process",
    # simlab
    "CATALOG",
    "PowerTable",
    "ScenarioConfig",
    "catalog_names",
    "gen_dataset",
    "power_study",
    "true_delta",
]
