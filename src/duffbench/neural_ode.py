"""Learned flows: one-step neural ODE predictors and Hamiltonian nets.

The neural ODE approximates ż from (u, v, f) and is trained through its
RK4 integrator (discretise-then-optimise), first as a k+1 predictor,
then on multi-step rollout windows. Each of those losses is one tape
node, `rk4_windows_loss`, whose backward rule is the discrete RK4
adjoint in numpy. Its slabs (stacks of all stage applications, which the
layer loops index, bias and input-scale rows, and one residual slab per
horizon) come from the tape's `empty`, so the one `nk.Workspace` of a
fit serves them, as it serves the tangent node; it takes the weight
adjoints of many applications in one batched product per layer. A
trained `OdeFunc` calls `nk.mlp_forward` directly on one array of scaled
(u, v, f) rows. The Hamiltonian route learns a separable
H(q, p) = T(p) + V(q) from conservative data by matching its partial
derivatives to observed rates, and is integrated symplectically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit as nk
from . import nets
from .duffing import (
    ForcingSpec,
    OscillatorParams,
    Trajectory,
    rk4_increment,
    rk4_step_vjp,
    stage_forces,
)
from .errors import ConfigError, NumericFailure


INTEGRATORS = ("euler", "rk4")

FLOW_NET = nets.MlpSpec(widths=(3, 32, 32, 2))
SCALAR_NET = nets.MlpSpec(widths=(1, 32, 32, 1))


@dataclass(frozen=True)
class IntegratorSpec:
    kind: str = "rk4"
    h: float = 1.0 / 8.525

    def __post_init__(self):
        if self.kind not in INTEGRATORS:
            raise ValueError(f"unknown integrator '{self.kind}'")
        if self.h <= 0:
            raise ValueError("step must be positive")


class OdeFunc:
    """Network flow estimate (u, v, f) -> (u̇, v̇) of states (..., 2) under
    forces that broadcast against their batch shape."""

    def __init__(self, spec: nets.MlpSpec, params, scale=None):
        if spec.n_in != 3 or spec.n_out != 2:
            raise ConfigError("flow network maps (u, v, f) to (u̇, v̇)")
        self.spec = spec
        self.params = params
        # input scaling keeps unit-ish activations; identity by default
        self.scale = np.ones(3) if scale is None else np.asarray(scale, float)

    def __call__(self, z, f):
        z = np.asarray(z, dtype=float)
        x = np.empty(z.shape[:-1] + (3,))
        x[..., :2] = z
        x[..., 2:] = f
        x /= self.scale
        return nk.mlp_forward(x.reshape(-1, 3), self.params,
                              self.spec.activation).reshape(z.shape)


class StepDivergenceError(NumericFailure, FloatingPointError):
    """A flow step produced a non-finite state; still the
    FloatingPointError that `node_step` has always raised."""


def _euler_increment(eval_fn, z, f_stages, h):
    return h * eval_fn(z, f_stages[0])


_INCREMENTS = {"euler": _euler_increment, "rk4": rk4_increment}


def node_step(func, z, f_stages, integ: IntegratorSpec):
    """One integrator step of the learned (or given) flow.

    `func(z, f)` must accept batched states; `f_stages` holds the force
    at (t, t+h/2, t+h) — the euler increment uses only the first.
    """
    z = np.asarray(z, dtype=float)
    out = z + _INCREMENTS[integ.kind](func, z, f_stages, integ.h)
    if not np.isfinite(out).all():
        raise StepDivergenceError("non-finite state after step")
    return out


@dataclass
class OneStepDataset:
    """All (z_k, stage forces, z_{k+1}) pairs of a trajectory."""

    z: np.ndarray        # (N, 2)
    z_next: np.ndarray   # (N, 2)
    f_stages: tuple      # arrays (N,) at t, t+h/2, t+h
    h: float

    @classmethod
    def from_trajectory(cls, traj: Trajectory, forcing: ForcingSpec):
        h = 1.0 / traj.rate
        z = np.column_stack([traj.u[:-1], traj.v[:-1]])
        z_next = np.column_stack([traj.u[1:], traj.v[1:]])
        return cls(z, z_next, stage_forces(forcing, traj.t[:-1], h), h)

    def __len__(self):
        return len(self.z)


def rollout_windows(dataset: OneStepDataset, starts, horizon):
    """(start states, forces (horizon, 3, N, 1) at (t, t+h/2, t+h),
    targets (horizon, N, 2)) of the `horizon`-step windows beginning at
    the pair indices `starts`."""
    starts = np.asarray(starts)
    steps = starts + np.arange(horizon)[:, None]
    forces = np.stack(dataset.f_stages)[:, steps].transpose(1, 0, 2)
    return dataset.z[starts], forces[..., None], dataset.z_next[steps]


# Rows of one chunk buffer of the window loss's backward sweep, which
# stacks the layer adjoints of as many stage applications as fit
ADJOINT_ROWS = 1024


def rk4_windows_loss(func: OdeFunc, pairs, windows, h):
    """Mean over the horizon of `nets.observation_loss` after every RK4
    step of the flow on all `windows` at once, as one tape node.

    `pairs` holds the flow's (W, b) nodes, the node's parents; `func`
    gives the activation and input scale. The value equals the per-op
    chain's (the network on the scaled (z, f) input inside
    `rk4_increment`, one observation loss per step, their mean) bit for
    bit. The VJP runs the discrete RK4 adjoint from the last step back:
    per stage application only the input-adjoint chain, writing each
    layer's adjoint into a chunk slab of at most ADJOINT_ROWS rows, then
    per chunk one batched weight product per layer
    (`nk.stacked_weight_adjoints`). It adds every contribution in the
    chain's order, so the weight adjoints are bit-identical too.

    Every slab comes from `tape.empty`, so a fit's workspace serves them
    again and again. The forward draws the scaled inputs and hidden
    outputs (and cosines, for sin) of the 4·horizon stage applications,
    in the order the sweep visits them, the last step's last stage
    first, which the layer loops index by application; (n, width) rows
    of the input scale and of each bias; and one (horizon, n, 2) slab of
    step states, then residuals, over which the step terms and residual
    adjoints are taken at once. The sweep draws its chunk slabs when it
    starts, so a sweep over a graph whose workspace went to a later tape
    raises RuntimeError.
    """
    z0, forces, targets = windows
    n, horizon, widths = len(z0), len(targets), func.spec.widths
    apps, tape = 4 * horizon, pairs[0][0].tape
    activation, scale = func.spec.activation, func.scale[:2]
    sin = activation == "sin"
    weights = [(W.value, b.value) for W, b in pairs]
    inputs = [tape.empty((apps, n, w)) for w in widths[:-1]]
    cos = [tape.empty((apps, n, w)) for w in widths[1:-1]] if sin else []
    # the input scale and each layer's bias as (n, width) rows: a
    # contiguous operand costs half a broadcast one, with the same bits
    rows = [tape.empty((n, w)) for w in (2, *widths[1:])]
    for row, b in zip(rows, (scale, *(b for _, b in weights))):
        row[...] = b
    scale_rows, slabs = rows[0], (inputs[1:], cos, rows[1:])
    states = inputs[0][..., :2]
    # each step's forces of stages k4, k3, k2, k1, the last step first
    np.divide(forces[::-1, [2, 1, 1, 0]], func.scale[2],
              out=inputs[0].reshape(horizon, 4, n, 3)[..., 2:])
    chunk = max(1, min(apps, ADJOINT_ROWS // max(n, *widths[:-1])))
    # the state after each step, then its residual
    residuals = tape.empty((horizon, n, 2))
    k = apps  # forward stage applications fill the slabs from the back

    def flow(z, f):  # the slab holds f / scale already
        nonlocal k
        k -= 1
        np.divide(z, scale_rows, out=states[k])
        return nk.mlp_forward(inputs[0][k], weights, activation, slabs, k)

    z = z0
    for state in residuals:
        z = np.add(z, rk4_increment(flow, z, (None,) * 3, h), out=state)
    np.subtract(residuals, targets, out=residuals)
    terms = np.add.reduce(residuals * residuals, axis=(1, 2)) / float(n)
    total = np.add.accumulate(terms)[-1]  # in step order, as the chain

    def backward(g):
        adjoints = [tape.empty((chunk, n, w)) for w in widths[1:]]
        # tanh's 1 - h * h of a chunk's applications, taken at once
        slopes = [] if sin else [tape.empty((chunk, n, w))
                                 for w in widths[1:-1]]
        products = [(tape.empty((chunk, a, b)), tape.empty((chunk, b)))
                    for a, b in zip(widths[:-1], widths[1:])]
        transposed = [W.T for W, _ in weights]
        grads = [np.full_like(a, -0.0) for pair in weights for a in pair]
        swept = done = 0  # applications reversed; of them, in `grads`
        chunk_slopes = slopes

        def flush():
            nonlocal done
            nk.stacked_weight_adjoints(
                [x[done:swept] for x in inputs],
                [slab[:swept - done] for slab in adjoints], products, grads)
            done = swept

        def stage_vjp(s, g_k):  # called in slab order, last stage first
            nonlocal swept, chunk_slopes
            k = swept - done
            if not k:  # the chunk starting here
                end = min(swept + chunk, apps)
                if sin:
                    chunk_slopes = [c[swept:end] for c in cos]
                for out, slope in zip(inputs[1:], slopes):
                    slope = np.multiply(out[swept:end], out[swept:end],
                                        out=slope[:end - swept])
                    np.subtract(1.0, slope, out=slope)
            out = adjoints[-1][k]
            out[...] = g_k
            gx = nk.mlp_vjp(out, transposed, chunk_slopes, adjoints, k)
            swept += 1
            if k + 1 == chunk:
                flush()
            return np.divide(gx[:, :2], scale_rows)

        # r * r's VJP adds g·r once per factor, as the chain does
        g_res = (g / float(horizon) / float(n)) * residuals
        g_res += g_res
        # the adjoint of the state before each step, the last step first
        gz = rk4_step_vjp(stage_vjp, g_res[-1], h)
        for g_step in g_res[-2::-1]:
            gz = rk4_step_vjp(stage_vjp, gz + g_step, h)
        if swept > done:
            flush()
        return tuple(grads)

    parents = tuple(node for pair in pairs for node in pair)
    return nk.Node(tape, total / float(horizon), parents, backward,
                   "rk4_windows")


def _fit_windows(func: OdeFunc, dataset, starts, horizon, train) -> tuple:
    """(fitted flow, loss history) of `func`'s parameters fitted to
    `rk4_windows_loss` on the windows at `starts`."""
    windows = rollout_windows(dataset, starts, horizon)

    def build(tape, leaves):
        return rk4_windows_loss(func, nets.arrays_to_pairs(leaves), windows,
                                dataset.h)

    arrays, history = nets.fit_arrays(nets.pairs_to_arrays(func.params),
                                      build, train)
    fitted = OdeFunc(func.spec, nets.arrays_to_pairs(arrays), func.scale)
    return fitted, history


def node_train(dataset: OneStepDataset, spec: nets.MlpSpec = FLOW_NET,
               seed=1234, train: nets.TrainConfig = None) -> tuple:
    """Fit the flow so one RK4 step reproduces z_{k+1}.

    The loss is `rk4_windows_loss` on one-step windows from every pair;
    the returned OdeFunc can be stepped or rolled out freely.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    scale = np.array([max(np.abs(dataset.z[:, 0]).max(), 1e-9),
                      max(np.abs(dataset.z[:, 1]).max(), 1e-9),
                      max(np.abs(dataset.f_stages[0]).max(), 1e-9)])
    stream = nk.RngStream(seed).substream("node-init")
    func = OdeFunc(spec, nets.init_params(spec, stream), scale)
    return _fit_windows(func, dataset, np.arange(len(dataset)), 1,
                        train or nets.TrainConfig())


def multistep_refine(func: OdeFunc, dataset: OneStepDataset, horizon: int,
                     train: nets.TrainConfig) -> OdeFunc:
    """Refine a trained flow on `horizon`-step rollout windows.

    Unrolls the integrator from every half-overlapping window start and
    penalizes the mean squared state error at each of the `horizon`
    steps; this damps the slow drift modes that the one-step objective
    cannot see.
    """
    n_pairs = len(dataset)
    if horizon < 1 or horizon >= n_pairs:
        raise ConfigError("horizon must fit inside the dataset")
    starts = np.arange(0, n_pairs - horizon, max(horizon // 2, 1))
    return _fit_windows(func, dataset, starts, horizon, train)[0]


REFINE_HORIZONS = (4, 16, 64)
REFINE_RATES = (1e-3, 5e-4, 2e-4)


def train_k1_predictor(dataset: OneStepDataset, spec: nets.MlpSpec = FLOW_NET,
                       seed=1234, train: nets.TrainConfig = None,
                       refine=True, refine_iters=250) -> tuple:
    """One-step training plus progressive multi-step refinement.

    The refinement stages lengthen the unrolled horizon (4, 16, 64
    steps) at decreasing learning rates; they roughly halve the
    free-run rollout error at every seed tried.
    """
    func, history = node_train(dataset, spec=spec, seed=seed, train=train)
    if refine:
        for horizon, lr in zip(REFINE_HORIZONS, REFINE_RATES):
            lbfgs = 50 if horizon == REFINE_HORIZONS[-1] else 0
            func = multistep_refine(
                func, dataset, horizon,
                nets.TrainConfig(adam_iters=refine_iters, adam_lr=lr,
                                 lbfgs_iters=lbfgs))
    return func, history


def rollout(func, z0, forcing: ForcingSpec, n, rate,
            integ: IntegratorSpec = None):
    """Free-run the learned flow from z0 over an n-sample grid."""
    h = 1.0 / rate
    integ = integ or IntegratorSpec(h=h)
    out = np.empty((n, 2))
    out[0] = z0
    stages = stage_forces(forcing, np.arange(n - 1) * h, h)
    for k, f_k in enumerate(zip(*stages)):
        out[k + 1] = node_step(func, out[k], f_k, integ)
    return out


# -- Hamiltonian networks -----------------------------------------------------


class HamiltonianNet:
    """Separable H(q, p) = T(p) + V(q) from two scalar-output MLPs.

    Inputs are scaled by (σ_q, σ_p) and each net carries an output
    scale chosen so its input-derivative starts O(1) against the rate
    targets; gradients come from tangent propagation.
    """

    def __init__(self, t_spec: nets.MlpSpec, v_spec: nets.MlpSpec,
                 t_params, v_params, sigma_q=1.0, sigma_p=1.0,
                 s_t=1.0, s_v=1.0):
        self.t_spec = t_spec
        self.v_spec = v_spec
        self.t_params = t_params
        self.v_params = v_params
        self.sigma_q = sigma_q
        self.sigma_p = sigma_p
        self.s_t = s_t
        self.s_v = s_v

    @classmethod
    def for_data(cls, q, p, qdot, pdot, seed=1234,
                 t_spec=SCALAR_NET, v_spec=SCALAR_NET):
        stream = nk.RngStream(seed)
        sigma_q = max(float(np.std(q)), 1e-9)
        sigma_p = max(float(np.std(p)), 1e-9)
        s_t = sigma_p * max(float(np.std(qdot)), 1e-9)
        s_v = sigma_q * max(float(np.std(pdot)), 1e-9)
        return cls(t_spec, v_spec,
                   nets.init_params(t_spec, stream.substream("hnn-T")),
                   nets.init_params(v_spec, stream.substream("hnn-V")),
                   sigma_q, sigma_p, s_t, s_v)

    def _partial(self, tangent, net, params, x):
        """∂H/∂q (net "V", x = q) or ∂H/∂p (net "T", x = p) by one pass
        of `tangent`: `nets.mlp_predict_tangent` or `mlp_apply_tangent`."""
        spec, sigma, scale = ((self.v_spec, self.sigma_q, self.s_v)
                              if net == "V" else
                              (self.t_spec, self.sigma_p, self.s_t))
        _, d = tangent(spec, params,
                       np.asarray(x, float).reshape(-1, 1) / sigma)
        return d[(slice(None), 0)] * (scale / sigma)

    def grads_nodes(self, t_pairs, v_pairs, q, p):
        """(∂H/∂q, ∂H/∂p) nodes at constant (q, p) columns, for the loss."""
        dH_dp = self._partial(nets.mlp_apply_tangent, "T", t_pairs, p)
        dH_dq = self._partial(nets.mlp_apply_tangent, "V", v_pairs, q)
        return dH_dq, dH_dp

    def arrays(self):
        return nets.pairs_to_arrays(self.t_params) \
            + nets.pairs_to_arrays(self.v_params)

    def with_arrays(self, arrays):
        n_t = 2 * len(self.t_params)
        return HamiltonianNet(self.t_spec, self.v_spec,
                              nets.arrays_to_pairs(arrays[:n_t]),
                              nets.arrays_to_pairs(arrays[n_t:]),
                              self.sigma_q, self.sigma_p, self.s_t, self.s_v)

    # numpy-side evaluation for integration and diagnostics
    def value(self, q, p):
        q = np.asarray(q, float).reshape(-1, 1) / self.sigma_q
        p = np.asarray(p, float).reshape(-1, 1) / self.sigma_p
        T = nets.mlp_predict(self.t_spec, self.t_params, p)[:, 0] * self.s_t
        V = nets.mlp_predict(self.v_spec, self.v_params, q)[:, 0] * self.s_v
        return T + V

    def dH_dq(self, q):
        return self._partial(nets.mlp_predict_tangent, "V", self.v_params, q)

    def dH_dp(self, p):
        return self._partial(nets.mlp_predict_tangent, "T", self.t_params, p)

    def grads(self, q, p):
        return self.dH_dq(q), self.dH_dp(p)


class AnalyticHamiltonian:
    """Closed-form H for the conservative oscillator; the test oracle
    and the reference flow for symplectic integration."""

    def __init__(self, params: OscillatorParams):
        self.params = params

    def value(self, q, p):
        q = np.asarray(q, float)
        p = np.asarray(p, float)
        return (p ** 2 / (2.0 * self.params.m) + 0.5 * self.params.k * q ** 2
                + 0.25 * self.params.k3 * q ** 4)

    def dH_dq(self, q):
        q = np.asarray(q, float)
        return self.params.k * q + self.params.k3 * q ** 3

    def dH_dp(self, p):
        return np.asarray(p, float) / self.params.m

    def grads(self, q, p):
        return self.dH_dq(q), self.dH_dp(p)


def conservative_batch(traj: Trajectory, mass):
    """(q, p, q̇, ṗ) from an unforced, undamped trajectory."""
    return (traj.u, mass * traj.v, traj.v, mass * traj.a)


def hnn_train(q, p, qdot, pdot, seed=1234,
              train: nets.TrainConfig = None) -> tuple:
    """Fit a separable Hamiltonian net to observed phase-space rates."""
    if len(q) == 0:
        raise ValueError("empty batch")
    hnet = HamiltonianNet.for_data(q, p, qdot, pdot, seed=seed)
    n_t = 2 * len(hnet.t_params)
    qd = np.asarray(qdot, float)
    pd = np.asarray(pdot, float)

    def build(tape, leaves):
        t_pairs = nets.arrays_to_pairs(leaves[:n_t])
        v_pairs = nets.arrays_to_pairs(leaves[n_t:])
        dH_dq, dH_dp = hnet.grads_nodes(t_pairs, v_pairs, q, p)
        r1 = dH_dp - tape.constant(qd)
        r2 = dH_dq + tape.constant(pd)
        n = float(len(qd))
        return (nk.vsum(r1 * r1) + nk.vsum(r2 * r2)) / n

    arrays, history = nets.fit_arrays(hnet.arrays(), build,
                                      train or nets.TrainConfig())
    return hnet.with_arrays(arrays), history


# -- symplectic stepping ------------------------------------------------------


def symplectic_step(hamiltonian, q, p, h, ordering="semi-implicit"):
    """First-order symplectic (semi-implicit) Euler step.

    Momentum first, then position from the updated momentum; the
    "explicit" ordering (both updates from step-k gradients, which is
    plain explicit Euler and not symplectic) is selectable for
    comparison.
    """
    p_new = p - h * hamiltonian.dH_dq(q)
    if ordering == "semi-implicit":
        dH_dp = hamiltonian.dH_dp(p_new)
    elif ordering == "explicit":
        dH_dp = hamiltonian.dH_dp(p)
    else:
        raise ValueError(f"unknown ordering '{ordering}'")
    q_new = q + h * dH_dp
    return q_new, p_new


def integrate_hamiltonian(hamiltonian, q0, p0, h, steps,
                          method="symplectic-euler"):
    """Roll a Hamiltonian flow; returns (q, p, H) arrays per step."""
    q = np.empty(steps + 1)
    p = np.empty(steps + 1)
    q[0], p[0] = q0, p0
    for k in range(steps):
        if method == "symplectic-euler":
            qn, pn = symplectic_step(hamiltonian, q[k], p[k], h)
        elif method == "explicit-euler":
            qn, pn = symplectic_step(hamiltonian, q[k], p[k], h,
                                     ordering="explicit")
        else:
            raise ValueError(f"unknown method '{method}'")
        q[k + 1] = np.asarray(qn).reshape(-1)[0]
        p[k + 1] = np.asarray(pn).reshape(-1)[0]
    H = hamiltonian.value(q, p)
    return q, p, np.asarray(H, float)
