"""Monte Carlo uncertainty bands for regression predictions.

Estimate how much a regressor's predictions move under resampling of
the training data: generate many synthetic training sets, fit a linear
or random forest regressor to each, predict over a fixed grid, and
summarize the spread with interpolated quartiles and 1.5*IQR fences,
next to the classical analytical least squares bands.

The package is lazy (PEP 562): ``import predbands`` loads no submodule
and no numpy, and each exported name imports its submodule on first use.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_SOURCE = {
    name: module
    for module, names in {
        "base": ("ForestParams",),
        "dataset": ("Dataset", "GenConfig", "Grid", "generate_dataset", "make_grid"),
        "forest": ("DecisionTreeRegressor", "RandomForestRegressor"),
        "linear": ("LinearRegression", "SingularFitError"),
        "montecarlo": ("CoefficientSamples", "PredictionMatrix", "ReplicationError",
                       "StudyConfig", "StudyResult", "WorkerError", "run_study"),
        "rng": ("Rng",),
        "stats": ("BandCurve", "band_curve", "distribution_report"),
    }.items()
    for name in names
}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
