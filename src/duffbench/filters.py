"""Joint state-parameter estimation with UKF and particle filters.

Both filters run on the augmented state (u, v, θ...) where θ is any
subset of {k, c, k3}, carried in log-space so stiffness and damping
stay positive under the random-walk evolution. The measurement is the
noisy acceleration, h(z, θ, f) = (f − c·v − k·u − k3·u³)/m, with m
known. Sigma points use the scaled unscented transform on the state
augmented with a scalar velocity process noise and a scalar
measurement noise, 2·(n_x + 2) + 1 points in total.

Both filters run through one loop over the record (`_run`): a filter
is its belief type, which reports raw-unit moments, and its step. A
step takes exp of the log-parameters once: the particle ensemble
carries the raw-unit θ for its measurement, moments and next
propagation. Both filters propagate (u, v) as contiguous (2, N) rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numkit as nk
from .duffing import (
    ForcingSpec,
    OscillatorParams,
    Trajectory,
    acceleration,
    noise_variance,
    rk4_increment,
    stage_forces,
    write_table,
)
from .errors import ConfigError, NumericFailure
from .numkit import linalg

PARAM_NAMES = ("k", "c", "k3")

# scaled unscented transform constants; the paper never states them
UKF_ALPHA = 1e-3
UKF_BETA = 2.0
UKF_KAPPA = 0.0


class FilterDivergenceError(NumericFailure):
    """Covariance lost positive definiteness beyond jitter repair, or a
    sigma point, a particle or every squared innovation went non-finite."""


class DegeneracyError(NumericFailure):
    """All particle weights vanished."""


@dataclass
class NoiseConfig:
    """Process/measurement noise variances.

    `q_velocity` is the per-step random-walk variance added to the
    velocity state, `q_param` the same for each log-parameter,
    `r_measurement` the acceleration measurement variance. The paper's
    literal preset is 1e-18 for everything; acceptance runs match
    `r_measurement` to the variance the noise injection actually used.
    """

    q_velocity: float = 1e-18
    q_param: float = 1e-18
    r_measurement: float = 1e-18

    @classmethod
    def matched(cls, clean_signal, ratio):
        return cls(r_measurement=max(noise_variance(clean_signal, ratio),
                                     1e-18))

    def validate(self):
        if min(self.q_velocity, self.q_param, self.r_measurement) < 0:
            raise ConfigError("noise variances must be nonnegative")


@dataclass
class AugmentedState:
    """Layout of the filter state: (u, v) then estimated parameters."""

    theta_names: tuple = PARAM_NAMES

    def __post_init__(self):
        bad = [n for n in self.theta_names if n not in PARAM_NAMES]
        if bad:
            raise ConfigError(f"cannot estimate {bad}; choose from {PARAM_NAMES}")

    @property
    def dim(self):
        return 2 + len(self.theta_names)

    def params(self, theta, base: OscillatorParams):
        """Oscillator parameters with the estimated ones read from
        `theta`, raw-unit rows in the order of `theta_names`."""
        values = {"m": base.m, "c": base.c, "k": base.k, "k3": base.k3}
        values.update(zip(self.theta_names, theta))
        return values


@dataclass
class GaussianBelief:
    """Mean and covariance of the augmented state. The covariance must
    be symmetric, as `ukf_step` builds it; the next step's Cholesky
    factorization checks that."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.cov = np.asarray(self.cov, dtype=float)

    def raw_moments(self):
        """Raw-unit mean/std; log-parameters mapped by exp with
        delta-method std."""
        mean = self.mean.copy()
        std = np.sqrt(np.maximum(np.diag(self.cov), 0.0))
        mean[2:] = np.exp(self.mean[2:])
        std[2:] = mean[2:] * std[2:]
        return mean, std


@dataclass
class ParticleEnsemble:
    """Weighted particles with `theta`, their raw-unit parameters
    exp(particles[:, 2:]) as rows (taken here when not given), and
    `ess`, the effective sample size of the normalized weights."""

    particles: np.ndarray  # (N, dim)
    weights: np.ndarray  # (N,)
    theta: np.ndarray = None  # (dim - 2, N)
    ess: float = field(init=False)

    def __post_init__(self):
        self.particles = np.asarray(self.particles, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        total = self.weights.sum()
        if not np.isfinite(total) or total <= 0:
            raise DegeneracyError("weights do not sum to a positive number")
        self.weights = self.weights / total
        if self.theta is None:
            self.theta = np.exp(self.particles[:, 2:].T, order="C")
        self.ess = 1.0 / float(np.sum(self.weights ** 2))

    def mean(self):
        return self.weights @ self.particles

    def raw_moments(self):
        """Weighted raw-unit mean/std, the parameters read from `theta`."""
        raw = self.particles.copy()
        raw[:, 2:] = self.theta.T
        mu = self.weights @ raw
        var = self.weights @ (raw - mu) ** 2
        return mu, np.sqrt(np.maximum(var, 0.0))


def _rk4_rows(z, p, h, f_stages):
    """The (u, v) rows z, shape (2, N), after one RK4 step under the
    oscillator parameters p (scalars or (N,) rows)."""

    def flow(z, f):
        dz = np.empty_like(z)
        dz[0] = z[1]
        dz[1] = acceleration(**p, u=z[0], v=z[1], f=f)
        return dz

    return z + rk4_increment(flow, z, f_stages, h)


def _sigma_points(mean_a, cov_a):
    n = len(mean_a)
    lam = UKF_ALPHA ** 2 * (n + UKF_KAPPA) - n
    try:
        L = linalg.cholesky_jittered((n + lam) * cov_a)
    except linalg.FactorizationError as err:
        raise FilterDivergenceError(str(err)) from None
    pts = np.empty((2 * n + 1, n))
    pts[0] = mean_a
    pts[1:n + 1] = mean_a + L.T
    pts[n + 1:] = mean_a - L.T
    w_mean = np.full(2 * n + 1, 1.0 / (2.0 * (n + lam)))
    w_cov = w_mean.copy()
    w_mean[0] = lam / (n + lam)
    w_cov[0] = w_mean[0] + (1.0 - UKF_ALPHA ** 2 + UKF_BETA)
    return pts, w_mean, w_cov


def ukf_step(belief: GaussianBelief, layout: AugmentedState,
             base: OscillatorParams, f_stages, f_next, y_next, h,
             noise: NoiseConfig) -> GaussianBelief:
    """One predict/update cycle of the augmented-state UKF.

    The augmented vector is [x; w; v]: the state, a scalar process
    noise entering the velocity after propagation, and a scalar
    measurement noise. Parameter random-walk noise is added to the
    predicted covariance diagonal.

    A sigma point whose state goes non-finite in propagation makes the
    innovation variance non-finite: a FilterDivergenceError, with no
    warning printed before it under `run_ukf`.
    """
    n_x = len(belief.mean)
    n_a = n_x + 2
    mean_a = np.concatenate([belief.mean, [0.0, 0.0]])
    cov_a = np.zeros((n_a, n_a))
    cov_a[:n_x, :n_x] = belief.cov
    cov_a[n_x, n_x] = max(noise.q_velocity, 1e-300)
    cov_a[n_x + 1, n_x + 1] = max(noise.r_measurement, 1e-300)
    pts, w_mean, w_cov = _sigma_points(mean_a, cov_a)

    p = layout.params(np.exp(pts[:, 2:n_x].T), base)
    z = _rk4_rows(pts[:, :2].T.copy(), p, h, f_stages)
    z[1] += pts[:, n_x]  # velocity process noise
    x_pts = np.empty((len(pts), n_x))
    x_pts[:, :2] = z.T
    x_pts[:, 2:] = pts[:, 2:n_x]
    x_mean = w_mean @ x_pts
    dx = x_pts - x_mean
    p_pred = (w_cov[:, None] * dx).T @ dx
    for i in range(2, n_x):
        p_pred[i, i] += noise.q_param
    p_pred = linalg.symmetrize(p_pred)

    y_pts = acceleration(**p, u=z[0], v=z[1], f=f_next) + pts[:, n_x + 1]
    y_mean = float(w_mean @ y_pts)
    dy = y_pts - y_mean
    s = float(w_cov @ (dy * dy))
    if not math.isfinite(s):
        raise FilterDivergenceError("sigma-point propagation went non-finite")
    p_xy = (w_cov * dy) @ dx
    gain = p_xy / s
    mean_new = x_mean + gain * (y_next - y_mean)
    cov_new = p_pred - np.outer(gain, gain) * s
    return GaussianBelief(mean_new, cov_new)


def pf_step(ensemble: ParticleEnsemble, layout: AugmentedState,
            base: OscillatorParams, f_stages, f_next, y_next, h,
            noise: NoiseConfig, stream: nk.RngStream) -> ParticleEnsemble:
    """Bootstrap particle-filter step with systematic resampling."""
    n, dim = ensemble.particles.shape
    # the RK4 stages turn an overflow into NaN, and a NaN particle makes
    # a NaN weight: the peak weight's check below also catches those
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z = _rk4_rows(ensemble.particles[:, :2].T.copy(),
                      layout.params(ensemble.theta, base), h, f_stages)
        if noise.q_velocity > 0:
            z[1] += stream.normal(size=n, scale=np.sqrt(noise.q_velocity))
        pts = np.empty_like(ensemble.particles)
        pts[:, :2] = z.T
        pts[:, 2:] = ensemble.particles[:, 2:]
        theta = ensemble.theta
        if noise.q_param > 0 and dim > 2:
            pts[:, 2:] += stream.normal(size=(n, dim - 2),
                                        scale=np.sqrt(noise.q_param))
            theta = np.exp(pts[:, 2:].T, order="C")
        innovation = y_next - acceleration(**layout.params(theta, base),
                                           u=z[0], v=z[1], f=f_next)
        squared = innovation ** 2
        log_lik = -0.5 * squared / noise.r_measurement
        log_lik = np.where(innovation == 0.0, 0.0, log_lik)
        log_w = np.where(ensemble.weights > 0.0,
                         np.log(ensemble.weights), -np.inf) + log_lik
    peak = log_w.max()
    if not np.isfinite(peak):
        if not np.isfinite(pts).all():
            raise FilterDivergenceError("particle propagation went non-finite")
        if not np.isfinite(squared).any():
            raise FilterDivergenceError("particle ensemble diverged: every "
                                        "squared innovation is non-finite")
        raise DegeneracyError("all particle weights vanished")
    w = np.exp(log_w - peak)
    total = w.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise DegeneracyError("all particle weights vanished")
    w = w / total
    new = ParticleEnsemble(pts, w, theta)
    if new.ess < n / 2.0:
        idx = systematic_resample(new.weights, stream)
        new = ParticleEnsemble(pts[idx], np.full(n, 1.0 / n), theta[:, idx])
    return new


def systematic_resample(weights, stream: nk.RngStream):
    n = len(weights)
    positions = (np.arange(n) + stream.uniform()) / n
    cumulative = np.cumsum(weights)
    cumulative[-1] = 1.0
    return np.searchsorted(cumulative, positions)


@dataclass
class FilterResult:
    t: np.ndarray
    mean: np.ndarray  # (n, dim) raw-unit (u, v, θ…)
    std: np.ndarray  # (n, dim)
    layout: AugmentedState
    diagnostics: dict = field(default_factory=dict)

    def final_params(self):
        return {name: float(self.mean[-1, 2 + i])
                for i, name in enumerate(self.layout.theta_names)}

    def to_csv(self, path):
        names = list(self.layout.theta_names)
        cols = ["u_hat", "v_hat"] + [f"{n}_hat" for n in names]
        sds = ["sd_u", "sd_v"] + [f"sd_{n}" for n in names]
        write_table(path, ",".join(["t"] + cols + sds),
                    zip(self.t, *self.mean.T, *self.std.T))


def _run(traj: Trajectory, forcing: ForcingSpec, y_meas,
         layout: AugmentedState, state, step) -> FilterResult:
    """Filter `state` along the record, one
    `step(state, f_stages, f_next, y_next, h)` per sample after the
    first, keeping the raw moments of the state at every sample."""
    h = 1.0 / traj.rate
    means = np.empty((len(traj), layout.dim))
    stds = np.empty((len(traj), layout.dim))
    means[0], stds[0] = state.raw_moments()
    stages = stage_forces(forcing, traj.t[:-1], h)
    for k, f_stages in enumerate(zip(*stages), start=1):
        state = step(state, f_stages, float(traj.f[k]), float(y_meas[k]), h)
        means[k], stds[k] = state.raw_moments()
    return FilterResult(traj.t.copy(), means, stds, layout)


def run_ukf(traj: Trajectory, forcing: ForcingSpec, y_meas,
            layout: AugmentedState, init: GaussianBelief,
            base: OscillatorParams, noise: NoiseConfig) -> FilterResult:
    """Sequential UKF over a trajectory of noisy acceleration measurements."""
    noise.validate()
    # once for the run: a step's own divergence check stands in for the
    # overflow and invalid-value warnings
    with np.errstate(over="ignore", invalid="ignore"):
        return _run(traj, forcing, y_meas, layout, init,
                    lambda belief, *inputs: ukf_step(belief, layout, base,
                                                     *inputs, noise))


def run_pf(traj: Trajectory, forcing: ForcingSpec, y_meas,
           layout: AugmentedState, init: ParticleEnsemble,
           base: OscillatorParams, noise: NoiseConfig,
           stream: nk.RngStream) -> FilterResult:
    """Sequential bootstrap PF over noisy acceleration measurements; the
    effective sample size at every sample is `diagnostics["ess"]`."""
    noise.validate()
    ess = [init.ess]

    def step(ensemble, *inputs):
        ensemble = pf_step(ensemble, layout, base, *inputs, noise, stream)
        ess.append(ensemble.ess)
        return ensemble

    result = _run(traj, forcing, y_meas, layout, init, step)
    result.diagnostics["ess"] = np.array(ess)
    return result


def default_ukf_init(layout: AugmentedState, z0,
                     theta0=None) -> GaussianBelief:
    """Paper's initial guesses with the pinned prior covariance.

    State prior N(z0, diag(1e-2, 1e-2)); parameter priors diag(25, 0.25,
    900) in raw (k, c, k3) units, mapped to log-space by the delta method
    at the initial guess, which must be positive. A guess whose
    log-variance raw_var/guess² is not a finite positive number (the
    quotient left the float range) is a config error naming its [ukf]
    key.
    """
    theta0 = dict({"k": 1.0, "c": 0.5, "k3": 40.0}, **(theta0 or {}))
    raw_var = {"k": 25.0, "c": 0.25, "k3": 900.0}
    var = [1e-2, 1e-2]
    for n in layout.theta_names:
        key, guess = f"[ukf] {n}0", theta0[n]
        with np.errstate(over="ignore", divide="ignore"):
            log_var = float(raw_var[n] / np.float64(guess) ** 2)
        if not 0.0 < log_var < math.inf:
            raise ConfigError(f"{key} = {guess} gives the prior "
                              f"log-variance {log_var}, which is not finite "
                              f"and positive")
        var.append(log_var)
    mean = np.concatenate([np.asarray(z0, dtype=float),
                           [np.log(theta0[n]) for n in layout.theta_names]])
    return GaussianBelief(mean, np.diag(var))


def default_pf_init(layout: AugmentedState, n_particles, z0,
                    stream: nk.RngStream) -> ParticleEnsemble:
    """Particles at z0, their parameters drawn from `stream` in the
    paper's uniform box: k∈[5,20], c∈[0.5,2], k3∈[50,160]."""
    box = {"k": (5.0, 20.0), "c": (0.5, 2.0), "k3": (50.0, 160.0)}
    cols = [np.full(n_particles, z0[0]), np.full(n_particles, z0[1])]
    for name in layout.theta_names:
        lo, hi = box[name]
        cols.append(np.log(stream.uniform(lo, hi, size=n_particles)))
    particles = np.column_stack(cols)
    return ParticleEnsemble(particles, np.full(n_particles, 1.0 / n_particles))
