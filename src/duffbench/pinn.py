"""Physics-informed training of the state network.

The total objective is λ_o·L_o + λ_p·L_p + λ_bc·L_bc from one network
pass over the collocation times, one `mlp_tangent` node whose
derivative half only the physics term reads. L_o is the mean squared
state residual on the pass's observed rows (in the z-scored outputs the
network is trained in); L_p is the first-order equation residual in
physical units,

    r_u = u̇ − v,   r_v = v̇ − (f − c·v − k·u − k3·u³)/m,

with the time derivative obtained from tangent propagation through the
network and the chain-rule factor of the normalized input applied;
L_bc is the squared initial-state mismatch in physical units on its
first row. A term with zero weight is skipped, so it is bit-exact equal
to omitting the term.

The mass is known; c, k and k3 are each known or trainable. A trainable
parameter is realized as ref·softplus(φ) with ref its initial guess in
DEFAULT_TRAINABLE_INIT and φ₀ such that softplus(φ₀) = 1, keeping it
positive while letting the optimizer move it O(1) per unit of φ
regardless of magnitude.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import numkit as nk
from . import nets
from .duffing import ForcingSpec, OscillatorParams, Trajectory, subsample
from .errors import ConfigError

PARAM_ORDER = ("m", "c", "k", "k3")
# initial guesses of the parameters that may be trainable
DEFAULT_TRAINABLE_INIT = {"c": 0.5, "k": 5.0, "k3": 30.0}

# shipped working-example network: sine activations to reach the ~30
# oscillation cycles in the 120 s record (see nets.MlpSpec)
WORKING_NET = nets.MlpSpec(widths=(1, 32, 32, 32, 2), activation="sin",
                           omega0=60.0)

_SOFTPLUS_ONE = float(np.log(np.e - 1.0))  # softplus(_SOFTPLUS_ONE) == 1


@dataclass(frozen=True)
class LossWeights:
    observation: float = 1.0
    physics: float = 1.0
    boundary: float = 1.0

    def __post_init__(self):
        if min(self.observation, self.physics, self.boundary) < 0:
            raise ConfigError("loss weights must be nonnegative")
        if self.observation == self.physics == self.boundary == 0:
            raise ConfigError("at least one loss weight must be nonzero")


@dataclass
class PinnConfig:
    """One PINN problem: the loss weights, the known parameters, and the
    names in `params` that are trained instead of known.

    `bc` is the initial state (u, u̇) the boundary term imposes at the
    first collocation time, needed when its weight is nonzero.
    """

    weights: LossWeights = field(default_factory=LossWeights)
    params: OscillatorParams = field(default_factory=OscillatorParams)
    trainable: tuple = ()
    net: nets.MlpSpec = WORKING_NET
    train: nets.TrainConfig = field(default_factory=nets.TrainConfig)
    bc: tuple | None = None
    seed: int = 1234

    def __post_init__(self):
        if not set(self.trainable) <= set(DEFAULT_TRAINABLE_INIT):
            raise ConfigError("only c, k and k3 may be trainable; the mass "
                              "is treated as known")
        self.trainable = tuple(n for n in PARAM_ORDER if n in self.trainable)
        if self.weights.boundary != 0 and self.bc is None:
            raise ConfigError("boundary weight set but no boundary "
                              "condition given")


class PinnProblem:
    """One training problem. `z_obs` holds the states observed at the
    rows `obs_rows` (an index or slice, every row by default) of t_col."""

    def __init__(self, config: PinnConfig, t_col, f_col, z_obs=None,
                 obs_rows=slice(None), norm: nets.Normalization = None):
        self.config = config
        self.t_col = np.asarray(t_col, dtype=float)
        self.f_col = np.asarray(f_col, dtype=float)
        self.obs_rows = obs_rows
        self.z_obs = None
        if config.weights.observation > 0:
            if z_obs is None or len(z_obs) == 0:
                raise ConfigError("observation loss requires observed data")
            self.z_obs = np.asarray(z_obs, dtype=float)
        if norm is None:
            norm = nets.Normalization.from_data(self.t_col, self.z_obs)
        self.norm = norm

    # -- trainable vector ---------------------------------------------------

    def init_arrays(self, stream: nk.RngStream):
        arrays = nets.pairs_to_arrays(nets.init_params(self.config.net, stream))
        return arrays + [np.full(len(self.config.trainable), _SOFTPLUS_ONE)]

    def _split(self, leaves):
        return nets.arrays_to_pairs(leaves[:-1]), leaves[-1]

    def _phys_values(self, phi):
        """Parameter table: the known floats, each trainable one a node."""
        values = {n: float(v) for n, v in asdict(self.config.params).items()}
        for i, name in enumerate(self.config.trainable):
            values[name] = (DEFAULT_TRAINABLE_INIT[name]
                            * nk.softplus(phi[np.array([i])]))
        return values

    def physical_estimates(self, arrays):
        """The parameter table in floats, trainable ones read off φ."""
        phys = self._phys_values(nk.Tape().constant(arrays[-1]))
        return {n: v if isinstance(v, float) else v.value.item()
                for n, v in phys.items()}

    # -- losses -------------------------------------------------------------

    def network_pass(self, pairs):
        """The one network application of a loss: (ẑ, dẑ/dτ) over t_col,
        one tangent pass; with no physics term dẑ/dτ goes unread, and
        its adjoint path is skipped."""
        tau = self.norm.t_in(self.t_col).reshape(-1, 1)
        return nets.mlp_apply_tangent(self.config.net, pairs, tau)

    def observation_term(self, z_hat):
        target = (self.z_obs - self.norm.z_mean) / self.norm.z_std
        return nets.observation_loss(z_hat[self.obs_rows], target)

    def physics_term(self, z_hat, dz_hat, phys):
        norm = self.norm
        su, sv = norm.z_std[0], norm.z_std[1]
        mu_u, mu_v = norm.z_mean[0], norm.z_mean[1]
        u = z_hat[(slice(None), 0)] * su + mu_u
        v = z_hat[(slice(None), 1)] * sv + mu_v
        du = dz_hat[(slice(None), 0)] * (su / norm.t_half)
        dv = dz_hat[(slice(None), 1)] * (sv / norm.t_half)
        f = z_hat.tape.constant(self.f_col)
        m, c, k, k3 = phys["m"], phys["c"], phys["k"], phys["k3"]
        r_u = du - v
        r_v = dv - (f - c * v - k * u - k3 * u * u * u) / m
        n = float(len(self.t_col))
        return (nk.vsum(r_u * r_u) + nk.vsum(r_v * r_v)) / n

    def boundary_term(self, z_hat):
        z0 = z_hat[(0,)] * self.norm.z_std + self.norm.z_mean
        r = z0 - np.asarray(self.config.bc, dtype=float)
        return nk.vsum(r * r)

    def total_loss(self, tape, leaves):
        pairs, phi = self._split(leaves)
        z_hat, dz_hat = self.network_pass(pairs)
        w = self.config.weights
        loss = None

        def acc(term, weight):
            nonlocal loss
            term = term if weight == 1.0 else weight * term
            loss = term if loss is None else loss + term

        if w.observation != 0:
            acc(self.observation_term(z_hat), w.observation)
        if w.physics != 0:
            acc(self.physics_term(z_hat, dz_hat, self._phys_values(phi)),
                w.physics)
        if w.boundary != 0:
            acc(self.boundary_term(z_hat), w.boundary)
        return loss

    # -- train / predict ----------------------------------------------------

    def fit(self):
        stream = nk.RngStream(self.config.seed).substream("pinn-init")
        arrays0 = self.init_arrays(stream)
        arrays, history = nets.fit_arrays(arrays0, self.total_loss,
                                          self.config.train)
        return arrays, history

    def predict(self, arrays, t):
        pairs = nets.arrays_to_pairs(arrays[:-1])
        tau = self.norm.t_in(np.asarray(t, dtype=float)).reshape(-1, 1)
        return self.norm.z_out(nets.mlp_predict(self.config.net, pairs, tau))


# -- the three working-example paradigms -------------------------------------


@dataclass
class DiscoveryResult:
    estimates: dict
    problem: PinnProblem
    arrays: list
    history: list

    def prediction(self, t):
        return self.problem.predict(self.arrays, t)


def run_equation_discovery(traj: Trajectory, nonlinear=True, seed=1234,
                           truth: OscillatorParams = None,
                           net: nets.MlpSpec = None,
                           train: nets.TrainConfig = None,
                           n_obs=256) -> DiscoveryResult:
    """Sobol-subsampled joint state/parameter estimation.

    The Sobol-chosen samples are the collocation grid and every row is
    observed; the mass is known, and (c, k) or (c, k, k3) are trainable
    from the pinned initial guesses.
    """
    truth = truth or OscillatorParams()
    obs = subsample(traj, sobol_n=n_obs)
    config = PinnConfig(
        weights=LossWeights(1.0, 1.0, 0.0),
        params=truth if nonlinear else replace(truth, k3=0.0),
        trainable=("c", "k", "k3") if nonlinear else ("c", "k"),
        net=net or WORKING_NET,
        train=train or nets.TrainConfig(),
        seed=seed,
    )
    z_obs = np.column_stack([obs.u, obs.v])
    problem = PinnProblem(config, t_col=obs.t, f_col=obs.f, z_obs=z_obs)
    arrays, history = problem.fit()
    return DiscoveryResult(problem.physical_estimates(arrays), problem,
                           arrays, history)


@dataclass
class EnhancedResult:
    informed_pred: np.ndarray
    baseline_pred: np.ndarray
    history: list


def run_enhanced_learning(traj: Trajectory, stride=16, seed=1234,
                          truth: OscillatorParams = None,
                          net: nets.MlpSpec = None,
                          train: nets.TrainConfig = None,
                          baseline_only=False) -> EnhancedResult:
    """Stride-subsampled observations, known physics, dense collocation.

    Trains the purely data-driven baseline and the physics-informed
    model on the same observations and predicts both on the dense grid.
    The informed model collocates on the record; the baseline, with no
    physics term, sees only the observed times. `baseline_only` skips
    the informed model (the black-box benchmark row).
    """
    truth = truth or OscillatorParams()
    obs = subsample(traj, stride=stride)
    z_obs = np.column_stack([obs.u, obs.v])
    net = net or WORKING_NET
    train = train or nets.TrainConfig()
    norm = nets.Normalization.from_data(traj.t, z_obs)

    baseline_cfg = PinnConfig(weights=LossWeights(1.0, 0.0, 0.0), net=net,
                              train=train, seed=seed)
    baseline = PinnProblem(baseline_cfg, t_col=obs.t, f_col=obs.f,
                           z_obs=z_obs, norm=norm)
    base_arrays, base_history = baseline.fit()
    base_pred = baseline.predict(base_arrays, traj.t)
    if baseline_only:
        return EnhancedResult(base_pred, base_pred, base_history)

    informed_cfg = PinnConfig(weights=LossWeights(1.0, 1.0, 1.0),
                              params=truth, net=net, train=train,
                              bc=(traj.u[0], traj.v[0]), seed=seed)
    informed = PinnProblem(informed_cfg, t_col=traj.t, f_col=traj.f,
                           z_obs=z_obs, obs_rows=slice(0, None, stride),
                           norm=norm)
    inf_arrays, history = informed.fit()
    return EnhancedResult(informed.predict(inf_arrays, traj.t), base_pred,
                          history)


@dataclass
class ForwardResult:
    pred: np.ndarray
    history: list


FORWARD_TRAIN = nets.TrainConfig(adam_iters=3000, adam_lr=2e-3,
                                 lbfgs_iters=2000)
FORWARD_BC_WEIGHT = 20.0


def run_forward_model(traj: Trajectory, params: OscillatorParams,
                      forcing: ForcingSpec, seed=1234,
                      net: nets.MlpSpec = None,
                      train: nets.TrainConfig = None,
                      windows=12, margin=6) -> ForwardResult:
    """No observations: solve the equation of motion from physics + IC.

    Of the record `traj`, simulated under `params` and `forcing`, only
    its time grid, forcing samples and initial state are read. It is
    solved in `windows` chained time windows: each trains a fresh network
    against the physics residual from the previous window's end state
    (the first from the record's) and hands its own end state to the
    next. A single global network cannot be optimized deeply enough over
    the whole lightly-damped record (residual error parks itself in the
    resonant mode and integrates to a large state error); ~10 s windows
    solve to ~1e-6 loss each and the handoff errors decay instead of
    compounding. Each window is trained on `margin` extra samples past
    its reporting range so the handoff state is read away from the fit's
    worst region, the domain edge.
    """
    base_net = net or WORKING_NET
    train = train or FORWARD_TRAIN
    t_grid = traj.t
    f_grid = traj.f
    n_grid = len(t_grid)
    if not 1 <= windows <= n_grid // 8:
        raise ConfigError(f"[pinn-forward] windows must be between 1 and "
                          f"n/8 = {n_grid // 8}, got {windows}")
    if margin < 0:
        raise ConfigError(f"[pinn-forward] margin must be >= 0, got {margin}")
    edges = np.linspace(0, n_grid, windows + 1).astype(int)
    stream = nk.RngStream(seed).substream("pinn-init")
    state0 = (float(traj.u[0]), float(traj.v[0]))
    pred = np.empty((n_grid, 2))
    history = []
    max_freq = max(forcing.frequencies) if len(forcing.frequencies) else 1.0
    for w in range(windows):
        lo, hi = int(edges[w]), int(edges[w + 1])
        top = min(hi + margin, n_grid)
        sub_t = t_grid[lo:top]
        norm = nets.Normalization.from_data(sub_t, None)
        omega0 = max(1.3 * max_freq * 0.5 * (sub_t[-1] - sub_t[0]), 6.0)
        wnet = nets.MlpSpec(widths=base_net.widths,
                            activation=base_net.activation, omega0=omega0)
        config = PinnConfig(weights=LossWeights(0.0, 1.0, FORWARD_BC_WEIGHT),
                            params=params, net=wnet, train=train, bc=state0,
                            seed=seed)
        problem = PinnProblem(config, t_col=sub_t, f_col=f_grid[lo:top],
                              norm=norm)
        arrays, hist = nets.fit_arrays(problem.init_arrays(stream),
                                       problem.total_loss, train)
        pred[lo:hi] = problem.predict(arrays, t_grid[lo:hi])
        history.extend(hist)
        if hi < n_grid:
            handoff = problem.predict(arrays, t_grid[hi:hi + 1])
            state0 = (float(handoff[0, 0]), float(handoff[0, 1]))
    return ForwardResult(pred, history)
