"""Penalized B-spline smoothing of irregularly sampled time series.

Localized basis functions with a discrete coefficient-difference penalty,
GCV-selected hyperparameters, analytic derivatives, t-confidence bands,
two-level outlier rejection, comparator baselines, and a fusion pipeline
for reconstructing dense records from sparse observations.
"""

from .basis import (
    BasisMatrix,
    KnotVector,
    build_knot_vector,
    eval_basis,
    eval_basis_derivative,
)
from .core import (
    AlpsModel,
    FitConfig,
    PredictionBand,
    fit,
    load_model,
    predict,
    predict_derivative,
    save_model,
)
from .errors import AlpsError
from .fusion import (
    FusionInput,
    FusionResult,
    align_dense_model,
    compute_difference,
    cross_series_table,
    linear_trend,
    month_start_grid,
    reconstruct,
)
from .baselines import (
    PiecewiseLinearModel,
    PolyModel,
    fit_polynomial,
    linear_interpolation,
    windowed_linear,
)
from .outliers import OutlierReport, detect_and_refit
from .penalty import difference_matrix
from .solver import (
    FitResult,
    LambdaGrid,
    fit_penalized,
    minimize_gcv_lambda,
)
from .timeseries import TimeSeries, read_timeseries, write_timeseries

__version__ = "0.1.0"

__all__ = [
    "AlpsError",
    "AlpsModel",
    "BasisMatrix",
    "FitConfig",
    "FitResult",
    "FusionInput",
    "FusionResult",
    "KnotVector",
    "LambdaGrid",
    "OutlierReport",
    "PiecewiseLinearModel",
    "PolyModel",
    "PredictionBand",
    "TimeSeries",
    "align_dense_model",
    "build_knot_vector",
    "compute_difference",
    "cross_series_table",
    "detect_and_refit",
    "difference_matrix",
    "eval_basis",
    "eval_basis_derivative",
    "fit",
    "fit_penalized",
    "fit_polynomial",
    "linear_interpolation",
    "linear_trend",
    "load_model",
    "minimize_gcv_lambda",
    "month_start_grid",
    "predict",
    "predict_derivative",
    "read_timeseries",
    "reconstruct",
    "save_model",
    "windowed_linear",
    "write_timeseries",
]
