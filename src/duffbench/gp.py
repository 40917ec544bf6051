"""Gaussian-process displacement regression with SE and oscillator kernels.

Two covariance functions: the scaled squared exponential
α²·exp(−τ²/2l²), and the physics-derived kernel of an underdamped
linear oscillator driven by white noise,

    k(τ) = σ_f²/(4 m² ζ ω_n³) · e^(−ζ ω_n |τ|) · (cos(ω_d τ)
           + ζ ω_n/ω_d · sin(ω_d |τ|)),

with ω_n = √(k/m), ζ = c/(2√(km)), ω_d = ω_n √(1−ζ²) fixed by the
known mass/damping/stiffness, leaving (σ_f, σ_n) as hyperparameters.
Hyperparameters are chosen by multi-start gradient ascent of the log
marginal likelihood, with its gradient in closed form and no autodiff
tape (SE: one Cholesky per evaluation; sdof: one eigendecomposition per
fit). Both kernels are K = s²B + σ_n²I, s the SE α or the oscillator's
σ_f, so `GpModel` conditions on the data through one eigendecomposition
of B, the unit-scale Gram matrix: the sdof fit hands over its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import numkit as nk
from .errors import ConfigError, NumericFailure
from .nets import TrainingDivergedError, adam
from .numkit import linalg


class KernelError(ConfigError):
    """Invalid hyperparameters (e.g. overdamped oscillator kernel)."""


@dataclass(frozen=True)
class KernelSpec:
    kind: str  # "se" | "sdof"
    lengthscale: float = 1.0
    signal_scale: float = 1.0
    sigma_f: float = 1.0
    m: float = 10.0
    c: float = 1.0
    k: float = 15.0
    noise_var: float = 1e-6

    def __post_init__(self):
        if self.kind not in ("se", "sdof"):
            raise KernelError(f"unknown kernel kind '{self.kind}'")
        if self.lengthscale <= 0 or self.signal_scale <= 0 or self.sigma_f <= 0:
            raise KernelError("kernel scales must be positive")
        if self.noise_var < 0:
            raise KernelError("noise variance must be nonnegative")
        if self.kind == "sdof":
            if not self.k > 0:
                raise KernelError(f"oscillator kernel requires stiffness "
                                  f"k > 0, got k = {self.k:g}")
            if not 0.0 < self.zeta < 1.0:
                raise KernelError(f"oscillator kernel requires a damped, "
                                  f"underdamped system (0 < zeta < 1), got "
                                  f"zeta = {self.zeta:g} from c = {self.c:g}")

    @property
    def omega_n(self):
        return math.sqrt(self.k / self.m)

    @property
    def zeta(self):
        return self.c / (2.0 * math.sqrt(self.k * self.m))

    @property
    def omega_d(self):
        return self.omega_n * math.sqrt(1.0 - self.zeta ** 2)


def kernel_eval(spec: KernelSpec, t, t_prime):
    """Covariance between time points; broadcasts over arrays."""
    tau = np.asarray(t, dtype=float) - np.asarray(t_prime, dtype=float)
    if spec.kind == "se":
        return spec.signal_scale ** 2 * np.exp(-tau ** 2
                                               / (2.0 * spec.lengthscale ** 2))
    zw = spec.zeta * spec.omega_n
    wd = spec.omega_d
    front = spec.sigma_f ** 2 / (4.0 * spec.m ** 2 * zw * spec.omega_n ** 2)
    return front * np.exp(-zw * np.abs(tau)) * (np.cos(wd * tau)
                                                + zw / wd * np.sin(wd * np.abs(tau)))


def kernel_matrix(spec: KernelSpec, t1, t2=None):
    t1 = np.asarray(t1, dtype=float)
    t2 = t1 if t2 is None else np.asarray(t2, dtype=float)
    return kernel_eval(spec, t1[:, None], t2[None, :])


@dataclass
class PredictiveDist:
    """Pointwise posterior mean and std of the latent function."""

    mean: np.ndarray
    std: np.ndarray

    def covers(self, truth):
        truth = np.asarray(truth, dtype=float)
        return ((truth >= self.mean - 2.0 * self.std)
                & (truth <= self.mean + 2.0 * self.std))


def _unit_spectrum(spec: KernelSpec, t):
    """(λ, Q) with B = QΛQᵀ, B the Gram matrix at unit signal scale, so
    that K = s²B + σ_n²I with s the SE α or the oscillator's σ_f."""
    unit = replace(spec, signal_scale=1.0, sigma_f=1.0)
    try:
        return np.linalg.eigh(kernel_matrix(unit, t))
    except np.linalg.LinAlgError as err:
        raise linalg.FactorizationError(str(err)) from None


def _spectral_lml(w, d):
    """(LML, d, w²/d) of a zero-mean GP whose K has eigenvalues d (jittered
    when some dᵢ ≤ 0) and whose targets are w in K's eigenbasis:
    LML = −½Σwᵢ²/dᵢ − ½Σlog dᵢ − (n/2)·log 2π."""
    d = linalg.jittered_spectrum(d)
    r = w * w / d
    lml = (-0.5 * np.sum(r) - 0.5 * np.sum(np.log(d))
           - 0.5 * len(w) * math.log(2.0 * math.pi))
    return float(lml), d, r


class GpModel:
    """Zero-mean GP conditioned through B = QΛQᵀ (`_unit_spectrum`, or the
    sdof fit's own): K = Q·diag(d)·Qᵀ, d = s²λ + σ_n², α = Q(Qᵀy/d), and
    K⁻¹ = WᵀW with W = diag(d)^-½·Qᵀ (Rasmussen & Williams 2006, §2.2)."""

    def __init__(self, inputs, targets, spec: KernelSpec, _spectrum=None):
        self.inputs = np.asarray(inputs, dtype=float)
        self.targets = np.asarray(targets, dtype=float)
        if len(self.inputs) < 2:
            raise ConfigError("need at least two training points")
        self.spec = spec
        lam, Q = _spectrum or _unit_spectrum(spec, self.inputs)
        scale = spec.signal_scale if spec.kind == "se" else spec.sigma_f
        w = Q.T @ self.targets
        self.log_marginal_likelihood, d, _ = _spectral_lml(
            w, scale ** 2 * lam + spec.noise_var)
        self.alpha = Q @ (w / d)
        self.whiten = Q.T / np.sqrt(d)[:, None]

    def predict(self, query) -> PredictiveDist:
        query = np.asarray(query, dtype=float)
        k_star = kernel_matrix(self.spec, self.inputs, query)  # (n, q)
        mean = k_star.T @ self.alpha
        white = self.whiten @ k_star
        prior_var = kernel_eval(self.spec, query, query)
        var = prior_var - np.sum(white ** 2, axis=0)
        return PredictiveDist(mean, np.sqrt(np.maximum(var, 0.0)))


def _per_fit(spec: KernelSpec, t, y):
    """What every LML evaluation of one fit shares, and the spectrum its
    model conditions through: (y, τ², None) for SE; (w = Qᵀy, λ, (λ, Q))
    for sdof, whose fit varies σ_f alone (K = σ_f²B + σ_n²I)."""
    if spec.kind == "se":
        return y, (t[:, None] - t[None, :]) ** 2, None
    lam, Q = _unit_spectrum(spec, t)
    return Q.T @ y, lam, (lam, Q)


def _lml_and_grad(kind, theta, y, base, noise_var):
    """LML and its gradient in θ = (log l, log α) for SE or (log σ_f,)
    for sdof, from `_per_fit`'s (y, base).

    sdof, in O(n): with dᵢ = σ_f²λᵢ + σ_n², `_spectral_lml` and
    ∂LML/∂log σ_f = Σ(wᵢ²/dᵢ − 1)·σ_f²λᵢ/dᵢ.
    SE, from one Cholesky factor L and L⁻¹ (K⁻¹ = L⁻ᵀL⁻¹):
    ∂LML/∂θ = ½ tr((ααᵀ − K⁻¹) ∂K/∂θ) (Rasmussen & Williams 2006,
    eq. 5.9), with ∂K/∂log α = 2K_f, ∂K/∂log l = K_f ⊙ d²/l².
    """
    if kind == "sdof":
        s = np.exp(2.0 * theta[0]) * base
        lml, d, r = _spectral_lml(y, s + noise_var)
        return lml, np.array([np.sum((r - 1.0) * s / d)])
    n = len(y)
    l2 = np.exp(2.0 * theta[0])
    Kf = np.exp(2.0 * theta[1]) * np.exp(-base / (2.0 * l2))
    L = linalg.cholesky_jittered(Kf + noise_var * np.eye(n))
    Linv = np.linalg.inv(L)
    w = Linv @ y
    alpha = Linv.T @ w
    lml = (-0.5 * (w @ w) - 0.5 * linalg.log_det(L)
           - 0.5 * n * math.log(2.0 * math.pi))
    WK = (np.outer(alpha, alpha) - Linv.T @ Linv) * Kf
    return float(lml), np.array([0.5 * np.sum(WK * base) / l2, np.sum(WK)])


def fit(inputs, targets, spec: KernelSpec, seed=7, restarts=8, steps=200,
        lr=0.05) -> GpModel:
    """Optimize the shape hyperparameters, then condition on data.

    Optimization is multi-start Adam ascent of the log marginal
    likelihood in log-space (8 restarts of 200 steps), over (l, α) for
    the SE kernel or σ_f for the oscillator kernel. The noise variance
    is taken from `spec.noise_var`, the characterized sensor noise: on
    this near-Nyquist record a freely optimized σ_n absorbs the entire
    signal into the white-noise explanation for every kernel family,
    which defeats the regression altogether.
    """
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if len(inputs) < 2:
        raise ConfigError("need at least two training points")
    if restarts < 1:
        raise KernelError("need at least one restart")
    if steps < 0:
        raise ConfigError(f"steps must be >= 0, got {steps}")
    stream = nk.RngStream(seed).substream(f"gp-{spec.kind}")
    span = float(inputs.max() - inputs.min())
    std_y = max(float(np.std(targets)), 1e-12)
    y, base, spectrum = _per_fit(spec, inputs, targets)

    def closure(theta):
        lml, grad = _lml_and_grad(spec.kind, theta, y, base, spec.noise_var)
        return -lml, -grad

    def random_start():
        if spec.kind == "se":
            return np.array([
                math.log(span) + stream.uniform(math.log(0.002),
                                                math.log(0.3)),
                math.log(std_y) + stream.uniform(-1.0, 1.0),
            ])
        scale = 2.0 * spec.m * math.sqrt(spec.zeta * spec.omega_n ** 3)
        return np.array([
            math.log(std_y * scale) + stream.uniform(-1.5, 1.5),
        ])

    best = None
    for _ in range(restarts):
        theta0 = random_start()
        try:
            theta, _ = adam(closure, theta0, steps, lr=lr)
            neg, _ = closure(theta)
        except (linalg.FactorizationError, TrainingDivergedError):
            continue
        if np.isfinite(neg) and (best is None or neg < best[0]):
            best = (neg, theta)
    if best is None:
        raise NumericFailure("hyperparameter search failed on every restart")
    theta = best[1]
    if spec.kind == "se":
        tuned = replace(spec, lengthscale=math.exp(theta[0]),
                        signal_scale=math.exp(theta[1]))
    else:
        tuned = replace(spec, sigma_f=math.exp(theta[0]))
    return GpModel(inputs, targets, tuned, spectrum)
