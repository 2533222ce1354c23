"""Estimator plumbing: parameter introspection, fitted check, input validation,
forest hyperparameters."""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np


class ParamsMixin:
    """scikit-learn style ``get_params`` / ``set_params``.

    Constructor arguments must be stored on attributes of the same name,
    which is all the introspection below relies on.  Each estimator
    names in ``_fitted_attr`` an attribute that only ``fit`` sets.
    """

    _fitted_attr: str

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [name for name in sig.parameters if name != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def _check_fitted(self):
        if not hasattr(self, self._fitted_attr):
            raise ValueError(f"this {type(self).__name__} instance is not fitted yet")

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


def as_float_vector(values, name: str = "values", min_len: int = 1) -> np.ndarray:
    """Coerce to a 1-D float64 array and reject NaN/Inf.

    Column vectors of shape (n, 1) are accepted and flattened, so the
    estimators compose with pipelines that feed 2-D single-feature X.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 2 and arr.shape[1] == 1:
        arr = arr[:, 0]
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D (or a single-column 2-D array), "
                         f"got shape {arr.shape}")
    if arr.size < min_len:
        raise ValueError(f"{name} must hold at least {min_len} value(s), got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or Inf")
    return arr


def check_xy(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Validate a paired (x, y) sample of equal length."""
    xs = as_float_vector(x, "x")
    ys = as_float_vector(y, "y")
    if len(xs) != len(ys):
        raise ValueError(f"x and y lengths differ: {len(xs)} != {len(ys)}")
    return xs, ys


# Here and not in forest.py, so a study config holds it without loading the
# forest code.
@dataclass(frozen=True)
class ForestParams:
    """Forest hyperparameters (seed excluded; it is scheduled separately)."""

    n_trees: int = 100
    max_depth: int | None = None
    min_samples_leaf: int = 5
    min_samples_split: int = 10
    bootstrap: bool = True

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0 or None, got {self.max_depth}")
        if self.min_samples_leaf < 1 or self.min_samples_split < 1:
            raise ValueError("min_samples_leaf and min_samples_split must be positive")
