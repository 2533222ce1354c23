"""Monte Carlo uncertainty bands for regression predictions.

Estimate how much a regressor's predictions move under resampling of
the training data: generate many synthetic training sets, fit a linear
or random forest regressor to each, predict over a fixed grid, and
summarize the spread with interpolated quartiles and 1.5*IQR fences,
next to the classical analytical least squares bands.
"""

from .dataset import Dataset, GenConfig, Grid, generate_dataset, make_grid, split_train_test
from .forest import DecisionTreeRegressor, ForestParams, RandomForestRegressor
from .linear import LinearRegression, SingularFitError
from .metrics import mse
from .montecarlo import (
    CoefficientSamples,
    PredictionMatrix,
    ReplicationError,
    StudyConfig,
    StudyResult,
    WorkerError,
    run_study,
    single_sample_curve,
)
from .rng import Rng, derive_seed
from .stats import (
    BandCurve,
    BoxplotSummary,
    Histogram,
    QuartileBand,
    band_curve,
    band_slope,
    boxplot_summary,
    distribution_report,
    gaussian_overlay,
    histogram,
    mean_sd,
    quantile,
    quartile_band,
)

__version__ = "0.1.0"

__all__ = [
    "BandCurve",
    "BoxplotSummary",
    "CoefficientSamples",
    "Dataset",
    "DecisionTreeRegressor",
    "ForestParams",
    "GenConfig",
    "Grid",
    "Histogram",
    "LinearRegression",
    "PredictionMatrix",
    "QuartileBand",
    "RandomForestRegressor",
    "ReplicationError",
    "Rng",
    "SingularFitError",
    "StudyConfig",
    "StudyResult",
    "WorkerError",
    "band_curve",
    "band_slope",
    "boxplot_summary",
    "derive_seed",
    "distribution_report",
    "gaussian_overlay",
    "generate_dataset",
    "histogram",
    "make_grid",
    "mean_sd",
    "mse",
    "quantile",
    "quartile_band",
    "run_study",
    "single_sample_curve",
    "split_train_test",
]
