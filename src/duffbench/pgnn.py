"""Physics-guided residual learning on top of a fixed linear prior.

The prior is the known physics with the cubic term removed (k3 = 0),
simulated under the same forcing. A network learns the discrepancy
from displacement-only observations: its scalar output Δu corrects the
displacement, and the velocity correction is taken as d(Δu)/dt via
tangent propagation, so the unobserved velocity improves too. The
combined prediction is prior + correction, exactly.

The observations are rows of the collocation grid: a loss applies the
network once, over the grid, and reads the data term off those rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit as nk
from . import nets
from .duffing import ForcingSpec, OscillatorParams, Trajectory, simulate

RESIDUAL_NET = nets.MlpSpec(widths=(1, 32, 32, 32, 1), activation="sin",
                            omega0=60.0)
RESIDUAL_PENALTY = 1e-4  # keeps the prior dominant


@dataclass(frozen=True)
class PriorModel:
    """Linear prior: the true parameters with the cubic term dropped."""

    params: OscillatorParams
    forcing: ForcingSpec

    def __post_init__(self):
        if self.params.k3 != 0.0:
            raise ValueError("the prior model excludes the cubic term")

    @classmethod
    def from_known_physics(cls, params: OscillatorParams,
                           forcing: ForcingSpec):
        linear = OscillatorParams(m=params.m, c=params.c, k=params.k, k3=0.0)
        return cls(linear, forcing)


def prior_predict(prior: PriorModel, n=1024, rate=8.525,
                  z0=(0.0, 0.0)) -> Trajectory:
    """Simulate the linear prior over the collocation grid."""
    return simulate(prior.params, prior.forcing, n=n, rate=rate, z0=z0)


class ResidualNet:
    """State correction Δz(t) = (Δu, d Δu/dt) from a scalar-output MLP."""

    def __init__(self, spec: nets.MlpSpec, params, norm: nets.Normalization):
        if spec.n_out != 1:
            raise ValueError("the correction MLP has one output (Δu)")
        self.spec = spec
        self.params = params
        self.norm = norm

    def _correction(self, tangent, params, t):
        tau = self.norm.t_in(t).reshape(-1, 1)
        dz_hat, ddz_hat = tangent(self.spec, params, tau)
        su = self.norm.z_std[0]
        du = dz_hat[(slice(None), 0)] * su
        dv = ddz_hat[(slice(None), 0)] * (su / self.norm.t_half)
        return du, dv

    def correction_nodes(self, pairs, t):
        """Δu and Δv nodes on the tape of the parameter nodes `pairs`."""
        return self._correction(nets.mlp_apply_tangent, pairs, t)

    def correction(self, t):
        """Δz values on frozen parameters: columns (Δu, Δv)."""
        du, dv = self._correction(nets.mlp_predict_tangent, self.params, t)
        return np.column_stack([du, dv])


@dataclass
class GuidedResult:
    prior_traj: Trajectory
    combined: np.ndarray  # (n, 2) on the collocation grid
    residual: ResidualNet
    history: list


def guided_train(prior: PriorModel, t_col, rows, u_obs, z0, seed=1234,
                 spec: nets.MlpSpec = RESIDUAL_NET,
                 train: nets.TrainConfig = None,
                 penalty=RESIDUAL_PENALTY) -> GuidedResult:
    """Fit the discrepancy between prior and displacement observations.

    `u_obs` holds the displacements at the rows `rows` (index or slice)
    of the collocation grid `t_col`; the prior starts at the record's
    initial state `z0` = (u, v). Minimizes their mean squared mismatch
    plus `penalty` times the mean squared correction amplitude.
    """
    u_obs = np.asarray(u_obs, dtype=float)
    if len(u_obs) == 0:
        raise ValueError("needs at least one displacement observation")
    t_col = np.asarray(t_col, dtype=float)
    n_col = len(t_col)
    rate = 1.0 / (t_col[1] - t_col[0])
    prior_traj = prior_predict(prior, n=n_col, rate=rate, z0=z0)

    # scale of the correction: the prior's own displacement scale
    norm = nets.Normalization.from_data(
        t_col, np.column_stack([prior_traj.u, prior_traj.v]))
    norm = nets.Normalization(norm.t_center, norm.t_half,
                              np.zeros(1), np.array([norm.z_std[0]]))
    du_target = u_obs - prior_traj.u[rows]

    stream = nk.RngStream(seed).substream("pgnn-init")
    params0 = nets.init_params(spec, stream)
    residual = ResidualNet(spec, params0, norm)

    def build(tape, leaves):
        du, dv = residual.correction_nodes(nets.arrays_to_pairs(leaves), t_col)
        amp = (nk.vsum(du * du) + nk.vsum(dv * dv)) / float(n_col)
        return nets.observation_loss(du[rows], du_target) + penalty * amp

    arrays, history = nets.fit_arrays(nets.pairs_to_arrays(params0), build,
                                      train or nets.TrainConfig())
    residual = ResidualNet(spec, nets.arrays_to_pairs(arrays), norm)
    delta = residual.correction(t_col)
    combined = np.column_stack([prior_traj.u, prior_traj.v]) + delta
    return GuidedResult(prior_traj, combined, residual, history)


def run_guided(traj: Trajectory, forcing: ForcingSpec,
               truth: OscillatorParams, stride=1, seed=1234,
               train: nets.TrainConfig = None) -> GuidedResult:
    """Working-example run: linear prior vs every stride-th displacement."""
    prior = PriorModel.from_known_physics(truth, forcing)
    rows = slice(0, None, stride)
    return guided_train(prior, traj.t, rows, traj.u[rows],
                        (traj.u[0], traj.v[0]), seed=seed, train=train)
