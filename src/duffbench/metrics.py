"""Error metrics the CLI scores every run with."""

from __future__ import annotations

import numpy as np


def rmse(estimate, truth):
    estimate = np.asarray(estimate, dtype=float)
    truth = np.asarray(truth, dtype=float)
    return float(np.sqrt(np.mean((estimate - truth) ** 2)))


def nmse(estimate, truth):
    """RMSE² normalized by the variance of the truth; None for a truth
    of zero variance, which has no normalized error."""
    var = float(np.var(np.asarray(truth, dtype=float)))
    return rmse(estimate, truth) ** 2 / var if var != 0.0 else None


def percent_error(estimate, truth):
    return 100.0 * abs(estimate - truth) / abs(truth)
