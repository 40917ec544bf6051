"""Sparse equation discovery from a candidate-function dictionary.

Builds Θ(x) from named features of (u, v, f), then recovers a sparse
coefficient vector Ξ with sequential thresholded least squares. With
the default target m·ü, a clean Duffing record yields support
{u, v, u³, f} with coefficients (−k, −c, −k3, +1) in force units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duffing import Trajectory
from .errors import ConfigError

_FEATURE_FUNCS = {
    "1": lambda u, v, f: np.ones_like(u),
    "u": lambda u, v, f: u,
    "v": lambda u, v, f: v,
    "u^2": lambda u, v, f: u ** 2,
    "u*v": lambda u, v, f: u * v,
    "v^2": lambda u, v, f: v ** 2,
    "u^3": lambda u, v, f: u ** 3,
    "u^2*v": lambda u, v, f: u ** 2 * v,
    "u*v^2": lambda u, v, f: u * v ** 2,
    "v^3": lambda u, v, f: v ** 3,
    "f": lambda u, v, f: f,
}
DEFAULT_FEATURES = tuple(_FEATURE_FUNCS)


class FeatureError(ConfigError):
    """The library cannot be built: a feature is non-finite on the
    given record."""


@dataclass
class CandidateLibrary:
    names: tuple
    theta: np.ndarray  # (n_samples, n_features)

    @property
    def n_features(self):
        return self.theta.shape[1]


@dataclass
class SparseCoefficients:
    names: tuple
    values: np.ndarray
    support: np.ndarray  # boolean mask

    def active(self):
        return {n: float(x) for n, x, s in
                zip(self.names, self.values, self.support) if s}

    def equation_string(self, target="m*du/dt_v"):
        if not np.any(self.support):
            return f"{target} = 0"
        terms = []
        for name, value in self.active().items():
            sign = "-" if value < 0 else "+"
            mag = abs(value)
            body = f"{mag:.6g}" if name == "1" else f"{mag:.6g}*{name}"
            terms.append((sign, body))
        first_sign, first_body = terms[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in terms[1:]:
            text += f" {sign} {body}"
        return f"{target} = {text}"

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write("feature,coefficient\n")
            for name, value in zip(self.names, self.values):
                fh.write(f"{name},{value:.17g}\n")


def build_library(traj: Trajectory) -> CandidateLibrary:
    """Evaluate each default feature of (u, v, f) row-per-sample."""
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    cols = []
    for name, func in _FEATURE_FUNCS.items():
        col = func(traj.u, traj.v, traj.f)
        bad = ~np.isfinite(col)
        if np.any(bad):
            row = int(np.argmax(bad))
            raise FeatureError(f"feature '{name}' non-finite at row {row}")
        cols.append(col)
    return CandidateLibrary(DEFAULT_FEATURES, np.column_stack(cols))


def stlsq(lib: CandidateLibrary, y, threshold: float,
          ridge: float = 0.0, max_iter: int = 20) -> SparseCoefficients:
    """Sequential thresholded least squares on unit-norm columns.

    Columns are scaled to unit l2 norm before thresholding and the
    surviving coefficients rescaled afterwards, so one threshold is
    meaningful across features of very different magnitudes.
    """
    if threshold < 0:
        raise ConfigError("threshold must be nonnegative")
    if ridge < 0:
        raise ConfigError("ridge must be nonnegative")
    y = np.asarray(y, dtype=float)
    theta = lib.theta
    norms = np.linalg.norm(theta, axis=0)
    norms = np.where(norms > 0, norms, 1.0)
    theta_n = theta / norms

    def solve(active):
        A = theta_n[:, active]
        if ridge > 0.0:
            gram = A.T @ A + ridge * np.eye(A.shape[1])
            return np.linalg.solve(gram, A.T @ y)
        return np.linalg.lstsq(A, y, rcond=None)[0]

    active = np.ones(lib.n_features, dtype=bool)
    xi_n = np.zeros(lib.n_features)
    xi_n[active] = solve(active)
    for _ in range(max_iter):
        keep = np.abs(xi_n) >= threshold
        keep &= active
        if not np.any(keep):
            return SparseCoefficients(lib.names, np.zeros(lib.n_features),
                                      keep)
        if np.array_equal(keep, active):
            break
        active = keep
        xi_n = np.zeros(lib.n_features)
        xi_n[active] = solve(active)
    values = xi_n / norms
    values[~active] = 0.0
    return SparseCoefficients(lib.names, values, active)
