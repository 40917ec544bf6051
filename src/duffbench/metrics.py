"""Error metrics the CLI scores every run with."""

from __future__ import annotations

import numpy as np


def rmse(estimate, truth):
    estimate = np.asarray(estimate, dtype=float)
    truth = np.asarray(truth, dtype=float)
    return float(np.sqrt(np.mean((estimate - truth) ** 2)))


def nmse(estimate, truth):
    """RMSE² normalized by the variance of the truth."""
    var = float(np.var(np.asarray(truth, dtype=float)))
    if var == 0.0:
        return float("inf") if rmse(estimate, truth) > 0 else 0.0
    return rmse(estimate, truth) ** 2 / var


def percent_error(estimate, truth):
    return 100.0 * abs(estimate - truth) / abs(truth)
