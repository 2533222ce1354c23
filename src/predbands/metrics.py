"""Model quality metrics."""

from __future__ import annotations

import numpy as np

from .base import as_float_vector


def row_mse(y_true: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
    """Mean squared error along the last axis: one value per row of a batch."""
    diff = y_true - y_pred
    return np.mean(diff * diff, axis=-1)


def mse(y_true, y_pred) -> float:
    """Mean squared error between two equal-length vectors."""
    yt = as_float_vector(y_true, "y_true")
    yp = as_float_vector(y_pred, "y_pred")
    if len(yt) != len(yp):
        raise ValueError(f"length mismatch: {len(yt)} != {len(yp)}")
    return float(row_mse(yt, yp))
