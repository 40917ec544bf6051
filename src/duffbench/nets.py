"""Fully-connected network machinery shared by the learning modules.

A network is a list of (W, b) numpy pairs described by an MlpSpec.
Forward evaluation happens on the autodiff tape, one `mlp_tangent`
node per application: it returns the outputs and their derivative with
respect to the scalar input, which is what the physics losses
differentiate; a data-only loss reads the outputs alone, and the
derivative's adjoint path is then skipped. Frozen networks are
evaluated by plain-numpy twins. Training is Adam followed by an
optional L-BFGS refinement, both deterministic.

Both optimizers take a closure theta -> (loss, grad): `loss` is a float
and `grad` a zero-argument callable that returns the gradient at theta
as a flat array. Adam calls it at every step; L-BFGS only at its start
and at each trial point its Armijo test accepts, so a rejected trial
costs a forward pass alone. A callable may be called once, before the
closure is next called. L-BFGS backtracks from min(1, 1/‖g‖₁) on its
first iteration, where the direction is −g, and from 1 on every later
one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import numkit as nk
from .errors import ConfigError, NumericFailure

ACTIVATIONS = ("tanh", "sin")


class TrainingDivergedError(NumericFailure):
    """Loss or gradient became non-finite; carries the history up to the
    failure."""

    def __init__(self, history):
        super().__init__("training loss or gradient became non-finite")
        self.history = list(history)


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths from input to output, tanh or sin hidden activations.

    Sine activations carry an `omega0` first-layer frequency scale;
    they are what the shipped configs use on the 120 s working record,
    where tanh units cannot reach the ~30 oscillation cycles present.
    """

    widths: tuple = (1, 32, 32, 32, 2)
    activation: str = "tanh"
    omega0: float = 60.0

    def __post_init__(self):
        if len(self.widths) < 2:
            raise ConfigError("need at least input and output widths")
        if any(w < 1 for w in self.widths):
            raise ConfigError("layer widths must be positive")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}")

    @property
    def n_in(self):
        return self.widths[0]

    @property
    def n_out(self):
        return self.widths[-1]


def init_params(spec: MlpSpec, stream: nk.RngStream):
    """Deterministic init: Xavier for tanh, frequency-scaled for sin."""
    params = []
    for i, (n_in, n_out) in enumerate(zip(spec.widths[:-1], spec.widths[1:])):
        if spec.activation == "sin" and i == 0 and len(spec.widths) > 2:
            W = stream.uniform(-spec.omega0, spec.omega0, size=(n_in, n_out))
            b = stream.uniform(-np.pi, np.pi, size=n_out)
        else:
            bound = np.sqrt(6.0 / (n_in + n_out))
            W = stream.uniform(-bound, bound, size=(n_in, n_out))
            b = np.zeros(n_out)
        params.append((W, b))
    return params


def _tangent_input(x):
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != 1:
        raise ValueError("tangent propagation expects (N, 1) inputs")
    return x


def mlp_apply_tangent(spec: MlpSpec, param_nodes, x):
    """Forward pass plus d(output)/d(input) for single-input networks, on
    the tape of `param_nodes` at the constant (N, 1) input array x.

    Propagates the input tangent through each layer,
    s_l = (s_{l-1} W_l) ⊙ σ'(a_l), as one `mlp_tangent` node, so the
    returned derivative stays differentiable with respect to the
    parameters.
    """
    return nk.mlp_tangent(_tangent_input(x), param_nodes, spec.activation)


def mlp_predict(spec: MlpSpec, params, x):
    """Plain numpy forward pass for frozen parameters."""
    return nk.mlp_forward(np.asarray(x, dtype=float), params, spec.activation)


def mlp_predict_tangent(spec: MlpSpec, params, x):
    """Plain numpy twin of `mlp_apply_tangent` for frozen parameters;
    its values equal the tape's bit for bit."""
    return nk.mlp_tangent_forward(_tangent_input(x), params, spec.activation)


def observation_loss(pred, obs):
    """Mean squared residual norm over observed points.

    pred is a tape node of shape (N, d) or (N,), obs the matching
    measured values; the result is (1/N)·Σ‖pred − obs‖².
    """
    n = pred.value.shape[0]
    if n == 0:
        raise ValueError("empty observation set")
    obs = np.asarray(obs, dtype=float)
    if obs.shape != pred.value.shape:
        raise ValueError(f"shape mismatch: {pred.value.shape} vs {obs.shape}")
    r = pred - pred.tape.constant(obs)
    return nk.vsum(r * r) / float(n)


@dataclass(frozen=True)
class Normalization:
    """Affine input/output scaling: time to [-1, 1], outputs z-scored."""

    t_center: float
    t_half: float
    z_mean: np.ndarray
    z_std: np.ndarray

    @classmethod
    def from_data(cls, t, z=None, n_out=2):
        t = np.asarray(t, dtype=float)
        t_center = 0.5 * (t.max() + t.min())
        t_half = 0.5 * (t.max() - t.min())
        if t_half == 0.0:
            t_half = 1.0
        if z is None:
            z_mean = np.zeros(n_out)
            z_std = np.ones(n_out)
        else:
            z = np.asarray(z, dtype=float).reshape(len(z), -1)
            z_mean = z.mean(axis=0)
            z_std = z.std(axis=0)
            z_std = np.where(z_std > 0, z_std, 1.0)
        return cls(t_center, t_half, z_mean, z_std)

    def t_in(self, t):
        return (np.asarray(t, dtype=float) - self.t_center) / self.t_half

    def z_out(self, z_hat):
        return self.z_mean + self.z_std * z_hat


@dataclass
class TrainConfig:
    """Adam schedule plus optional L-BFGS refinement, fully pinned."""

    adam_iters: int = 5000
    adam_lr: float = 1e-3
    lbfgs_iters: int = 500

    def __post_init__(self):
        for name in ("adam_iters", "lbfgs_iters"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.adam_iters + self.lbfgs_iters < 1:
            raise ConfigError("iteration budget must be >= 1")


def flatten(arrays):
    metas = [(a.shape, a.size) for a in arrays]
    return np.concatenate([np.ravel(a) for a in arrays]), metas


def unflatten(theta, metas):
    out = []
    pos = 0
    for shape, size in metas:
        out.append(theta[pos:pos + size].reshape(shape))
        pos += size
    return out


def pairs_to_arrays(params):
    return [a for pair in params for a in pair]


def arrays_to_pairs(arrays):
    return [(arrays[i], arrays[i + 1]) for i in range(0, len(arrays), 2)]


def fit_arrays(arrays0, loss_builder, config: TrainConfig):
    """Train a list of arrays against a tape-loss builder.

    `loss_builder(tape, leaves)` gets one leaf per input array and must
    return a scalar loss node; a fresh tape is built per evaluation, and
    all of them share one `nk.Workspace`. Its graph is kept until the
    gradient is taken or the next evaluation starts, whichever comes
    first, and none outlives training. Returns (trained arrays, loss
    history).
    """
    arrays0 = [np.asarray(a, dtype=float) for a in arrays0]
    flat, metas = flatten(arrays0)
    workspace = nk.Workspace()
    # (token, loss node, leaves) of the one unreleased evaluation; a
    # gradient callable holds its token only, so a stale one keeps no
    # graph alive
    live = None

    def release():
        # nodes and their tape refer to each other; unlinking them frees
        # an evaluation's arrays now instead of at a later cyclic GC
        nonlocal live
        if live is not None:
            live[1].tape.nodes.clear()
            live = None

    def gradient(token):
        if live is None or live[0] is not token:
            raise RuntimeError("gradient requested after its evaluation "
                               "was released")
        _, loss, leaves = live
        gs = nk.backward(loss, leaves)
        release()
        return np.concatenate([np.ravel(g) for g in gs])

    def closure(theta):
        nonlocal live
        release()
        tape = nk.Tape(workspace)
        leaves = [tape.leaf(a) for a in unflatten(theta, metas)]
        loss = loss_builder(tape, leaves)
        token = object()
        live = (token, loss, leaves)
        return float(loss.value), functools.partial(gradient, token)

    # `_finite` turns an overflow or NaN into TrainingDivergedError
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            theta, history = train(closure, flat, config)
    finally:
        release()
    return unflatten(theta, metas), history


def _finite(loss, g):
    return np.isfinite(loss) and np.all(np.isfinite(g))


def adam(closure, theta0, iters, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8,
         history=None):
    """Deterministic Adam on a closure theta -> (loss, grad callable)."""
    theta = np.array(theta0, dtype=float)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    history = [] if history is None else history
    for t in range(1, iters + 1):
        loss, grad = closure(theta)
        g = grad()
        if not _finite(loss, g):
            raise TrainingDivergedError(history)
        history.append(float(loss))
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta, history


def lbfgs(closure, theta0, iters, memory=10, c1=1e-4, max_linesearch=25,
          gtol=1e-12, history=None):
    """Limited-memory BFGS with Armijo backtracking; deterministic.

    The backtracking test reads the loss alone (Nocedal & Wright 2006,
    Alg. 3.1), so the gradient is taken at the start and at each
    accepted point only. The first iteration, with no curvature pair
    yet, searches along −g from min(1, 1/‖g‖₁) (N&W §3.5, as
    `torch.optim.LBFGS` does); every later one from 1, also after a
    rejected pair, since a tiny step repeated keeps meeting the same
    negative curvature.
    """
    theta = np.array(theta0, dtype=float)
    history = [] if history is None else history
    loss, grad = closure(theta)
    g = grad()
    if not _finite(loss, g):
        raise TrainingDivergedError(history)
    history.append(float(loss))
    pairs = []
    for it in range(iters):
        q = g.copy()
        alphas = []
        for s, y, rho in reversed(pairs):
            a = rho * (s @ q)
            q -= a * y
            alphas.append(a)
        if pairs:
            s, y, _ = pairs[-1]
            q *= (s @ y) / (y @ y)
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            b = rho * (y @ q)
            q += (a - b) * s
        d = -q
        slope = g @ d
        if not np.isfinite(slope) or slope >= 0.0:
            d = -g
            slope = g @ d
        if slope >= 0.0:
            break
        step = 1.0 / max(1.0, np.abs(g).sum()) if it == 0 else 1.0
        accepted = False
        for _ in range(max_linesearch):
            theta_new = theta + step * d
            loss_new, grad = closure(theta_new)
            if np.isfinite(loss_new) and loss_new <= loss + c1 * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        g_new = grad()
        if not np.all(np.isfinite(g_new)):
            raise TrainingDivergedError(history)
        s_vec = theta_new - theta
        y_vec = g_new - g
        sy = s_vec @ y_vec
        if sy > 1e-10 * np.linalg.norm(s_vec) * np.linalg.norm(y_vec):
            pairs.append((s_vec, y_vec, 1.0 / sy))
            if len(pairs) > memory:
                pairs.pop(0)
        theta, loss, g = theta_new, loss_new, g_new
        history.append(float(loss))
        if np.linalg.norm(g) < gtol:
            break
    return theta, history


def train(closure, theta0, config: TrainConfig):
    """Adam then optional L-BFGS; returns (theta, loss history) with a
    finite loss at theta, so an unscored last Adam step is scored."""
    history = []
    theta = np.array(theta0, dtype=float)
    if config.adam_iters > 0:
        theta, history = adam(closure, theta, config.adam_iters,
                              lr=config.adam_lr, history=history)
    if config.lbfgs_iters > 0:
        theta, history = lbfgs(closure, theta, config.lbfgs_iters,
                               history=history)
    elif not np.isfinite(closure(theta)[0]):
        raise TrainingDivergedError(history)
    return theta, history


def save_loss_history(path, history):
    with open(path, "w", newline="") as fh:
        fh.write("iter,loss\n")
        for i, loss in enumerate(history):
            fh.write(f"{i},{loss:.17g}\n")
