"""Estimator plumbing: fitted check, input validation, forest hyperparameters.

Estimators are ``@dataclass(eq=False)`` classes whose fields are their
parameters; only ``fit`` sets the attributes with a trailing underscore.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def check_fitted(model, attr: str):
    """``model``'s attribute ``attr``, which only ``fit`` sets; ValueError before that."""
    try:
        return getattr(model, attr)
    except AttributeError:
        raise ValueError(f"this {type(model).__name__} instance is not fitted yet") from None


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
