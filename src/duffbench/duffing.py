"""Duffing-oscillator ground truth.

Simulates m·ü + c·u̇ + k·u + k3·u³ = f(t) under random-phase multisine
forcing with classical RK4, producing the time/displacement/velocity/
acceleration/force record every learner in this package consumes.
Default setup: m=10 kg, c=1 N·s/m, k=15 N/m, k3=100 N/m³, forcing
frequencies {0.7, 0.85, 1.6, 1.8} rad/s, 1024 samples at 8.525 Hz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericFailure
from .numkit import RngStream, sobol_indices

DEFAULT_FREQUENCIES = (0.7, 0.85, 1.6, 1.8)
DEFAULT_N = 1024
DEFAULT_RATE = 8.525


class DivergenceError(NumericFailure):
    """Integration produced a non-finite state."""

    def __init__(self, step):
        super().__init__(f"non-finite state at step {step}")
        self.step = step


@dataclass(frozen=True)
class OscillatorParams:
    """Physical parameters of the oscillator."""

    m: float = 10.0
    c: float = 1.0
    k: float = 15.0
    k3: float = 100.0

    def __post_init__(self):
        if self.m <= 0:
            raise ConfigError("mass must be positive")
        if self.k < 0 or self.c < 0:
            raise ConfigError("stiffness and damping must be nonnegative")

    def acceleration(self, u, v, f):
        """ü from the equation of motion at the given state and force."""
        return acceleration(self.m, self.c, self.k, self.k3, u, v, f)


def acceleration(m, c, k, k3, u, v, f):
    """ü = (f - c·v - k·u - k3·u³)/m, elementwise.

    The float operations and their order are those of `simulate`'s
    scalar stage loop. The cube is written as products: numpy sends a
    power of 3 to libm `pow`, element by element.
    """
    return (f - c * v - k * u - k3 * u * u * u) / m


@dataclass(frozen=True)
class ForcingSpec:
    """Random-phase multisine force: f(t) = Σ A_i sin(ω_i t + φ_i)."""

    frequencies: tuple = DEFAULT_FREQUENCIES
    amplitudes: tuple | float = 1.0
    phase_seed: int = 101

    def __post_init__(self):
        if any(w <= 0 for w in self.frequencies):
            raise ConfigError("frequencies must be strictly positive")

    @property
    def amplitude_array(self):
        if np.isscalar(self.amplitudes):
            return np.full(len(self.frequencies), float(self.amplitudes))
        return np.asarray(self.amplitudes, dtype=float)

    @property
    def phases(self):
        stream = RngStream(self.phase_seed).substream("multisine-phase")
        return stream.uniform(0.0, 2.0 * math.pi, size=len(self.frequencies))


def multisine_force(spec: ForcingSpec, t):
    """Evaluate the multisine force at time(s) t; deterministic per seed."""
    t = np.asarray(t, dtype=float)
    amp = spec.amplitude_array
    phases = spec.phases
    out = np.zeros_like(t)
    for a, w, p in zip(amp, spec.frequencies, phases):
        out = out + a * np.sin(w * t + p)
    return out


def write_table(path, header, rows):
    """Write a CSV file: `header`, then one line per row of numbers, each
    value as f"{x:.17g}" gives it, through one %-template for the
    header's width."""
    line = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n" + "".join([line % tuple(row) for row in rows]))


@dataclass
class Trajectory:
    """Time-indexed record of t, u, u̇, ü and f, all equal length."""

    t: np.ndarray
    u: np.ndarray
    v: np.ndarray
    a: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        n = len(self.t)
        for name in ("u", "v", "a", "f"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"field {name} length differs from t")

    def __len__(self):
        return len(self.t)

    @property
    def rate(self):
        return 1.0 / float(self.t[1] - self.t[0])

    def select(self, indices):
        idx = np.asarray(indices)
        return Trajectory(self.t[idx], self.u[idx], self.v[idx],
                          self.a[idx], self.f[idx])

    def to_csv(self, path):
        write_table(path, "t,u,v,a,f",
                    zip(self.t, self.u, self.v, self.a, self.f))


DEFAULT_SUBSTEPS = 16
# RK4 substeps whose stage forces `simulate` evaluates in one call
FORCE_BLOCK = 4096


def simulate(params: OscillatorParams = None, forcing: ForcingSpec = None,
             n: int = DEFAULT_N, rate: float = DEFAULT_RATE,
             z0=(0.0, 0.0), substeps: int = DEFAULT_SUBSTEPS) -> Trajectory:
    """Integrate the oscillator with classical RK4, sampled at `rate`.

    The integrator takes `substeps` internal RK4 steps per stored
    sample (equivalent sample rate `rate`, internal step
    1/(rate·substeps)), keeping discretization error and energy drift
    far below every downstream tolerance. Forcing is evaluated
    analytically at the RK4 sub-stage times, one `stage_forces` call
    per block of samples. The returned acceleration `a` is
    reconstructed from the equation of motion by `acceleration`, the
    stage loop's own expression, so every `a[i]` equals the loop's
    `(f - c*v - k*u - k3*u*u*u)/m` at sample i bit for bit.

    `rate`, the parameters and `z0` enter the loop as Python floats
    whatever the caller passes: its ~62 operations per substep cost
    about 3× as much on numpy scalars, for the same IEEE float64 bits.
    """
    if params is None:
        params = OscillatorParams()
    if forcing is None:
        forcing = ForcingSpec()
    if rate <= 0:
        raise ConfigError("rate must be positive")
    if n < 2:
        raise ConfigError("need at least two samples")
    if substeps < 1:
        raise ConfigError("substeps must be >= 1")

    rate = float(rate)
    h = 1.0 / (rate * substeps)
    m, c, k, k3 = map(float, (params.m, params.c, params.k, params.k3))
    u = np.empty(n)
    v = np.empty(n)
    uk, vk = float(z0[0]), float(z0[1])
    u[0], v[0] = uk, vk
    half = 0.5 * h
    sixth = h / 6.0
    block = max(FORCE_BLOCK // substeps, 1)
    for start in range(0, n - 1, block):
        # the scalar loop's time arithmetic, t = i/rate + j*h, elementwise
        t = (np.arange(start, min(start + block, n - 1)) / rate)[:, None] \
            + np.arange(substeps) * h
        stages = [f.tolist() for f in stage_forces(forcing, t, h)]
        for i, sample in enumerate(zip(*stages), start):
            for f1, f2, f4 in zip(*sample):
                k1u = vk
                k1v = (f1 - c * vk - k * uk - k3 * uk * uk * uk) / m
                u2 = uk + half * k1u
                v2 = vk + half * k1v
                k2u = v2
                k2v = (f2 - c * v2 - k * u2 - k3 * u2 * u2 * u2) / m
                u3 = uk + half * k2u
                v3 = vk + half * k2v
                k3u = v3
                k3v = (f2 - c * v3 - k * u3 - k3 * u3 * u3 * u3) / m
                u4 = uk + h * k3u
                v4 = vk + h * k3v
                k4u = v4
                k4v = (f4 - c * v4 - k * u4 - k3 * u4 * u4 * u4) / m
                uk = uk + sixth * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
                vk = vk + sixth * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            if not (math.isfinite(uk) and math.isfinite(vk)):
                raise DivergenceError(i + 1)
            u[i + 1], v[i + 1] = uk, vk

    t = np.arange(n) / rate
    f = multisine_force(forcing, t)
    a = params.acceleration(u, v, f)
    return Trajectory(t, u, v, a, f)


def stage_forces(forcing: ForcingSpec, t, h):
    """Force at the RK4 stage times (t, t+h/2, t+h) of each step start t.

    One vectorised evaluation for a whole grid of steps; every value
    equals the scalar `multisine_force` call at that time bit for bit.
    """
    t = np.asarray(t, dtype=float)
    f1, f2, f4 = multisine_force(forcing, np.stack([t, t + 0.5 * h, t + h]))
    return f1, f2, f4


def rk4_increment(flow, z, f_stages, h):
    """One classical RK4 increment of ż = flow(z, f).

    `f_stages` holds the force at (t, t+h/2, t+h). Works on numpy
    states of any batch shape and on tape nodes alike, so every stepped
    loop in the package (filters, neural-ODE training and rollout)
    shares it; `simulate` keeps its own scalar loop as the fast path.
    """
    f1, f2, f4 = f_stages
    k1 = flow(z, f1)
    k2 = flow(z + 0.5 * h * k1, f2)
    k3 = flow(z + 0.5 * h * k2, f2)
    k4 = flow(z + h * k3, f4)
    return h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_step_vjp(stage_vjp, g, h):
    """Reverse of one step z + rk4_increment(flow, z, f_stages, h).

    `g` is the adjoint of the step's result; `stage_vjp(s, g_k)` maps the
    adjoint of stage s's slope k (s = 0..3, called from 3 down to 0) to
    that of the stage's input state. Returns the adjoint of z. The float
    operations and their order are those a tape's `backward` runs on the
    `rk4_increment` chain: k_s enters the increment times (1, 2, 2, 1)[s]
    and the next stage's input times (h/2, h/2, h)[s], and z's five uses
    are summed in reverse creation order, the step's own first.
    """
    g_inc = g * (h / 6.0)
    g_in = None  # adjoint of the next stage's input state
    gz = g
    for s in (3, 2, 1, 0):
        g_k = g_inc if s in (0, 3) else g_inc * 2.0
        if g_in is not None:
            g_k = g_k + g_in * (h if s == 2 else 0.5 * h)
        g_in = stage_vjp(s, g_k)
        gz = gz + g_in
    return gz


def rms(x):
    return float(np.sqrt(np.mean(np.square(np.asarray(x, dtype=float)))))


def noise_variance(signal, ratio):
    """(ratio · RMS(signal))², the variance of `add_noise`'s noise; inf
    where it is beyond the float range."""
    try:
        return (ratio * rms(signal)) ** 2
    except OverflowError:
        return math.inf


def add_noise(signal, ratio, stream: RngStream):
    """Add zero-mean Gaussian noise with std = ratio · RMS(signal)."""
    if ratio < 0:
        raise ConfigError("noise ratio must be nonnegative")
    signal = np.asarray(signal, dtype=float)
    if ratio == 0.0:
        return signal.copy()
    sigma = ratio * rms(signal)
    if sigma == 0.0:
        return signal.copy()
    return signal + stream.normal(size=signal.shape, scale=sigma)


def subsample(traj: Trajectory, stride: int = None, sobol_n: int = None):
    """Pick the observed subset of a trajectory.

    Either every `stride`-th sample or `sobol_n` Sobol-chosen samples;
    returns the observed rows.
    """
    if (stride is None) == (sobol_n is None):
        raise ValueError("give exactly one of stride or sobol_n")
    if stride is not None:
        if stride < 1:
            raise ConfigError("stride must be >= 1")
        idx = np.arange(0, len(traj), stride)
    else:
        idx = sobol_indices(sobol_n, len(traj))
    if len(idx) == 0:
        raise ConfigError("empty observation selection")
    return traj.select(idx)


def hamiltonian(params: OscillatorParams, u, v):
    """H = ½ m v² + ½ k u² + ¼ k3 u⁴, conserved when c=0 and f≡0."""
    return (0.5 * params.m * np.square(v) + 0.5 * params.k * np.square(u)
            + 0.25 * params.k3 * np.square(u) ** 2)
