"""PINN losses, config checks, and gradient checks."""

import numpy as np
import pytest

import oracles
from duffbench import nets, pinn
from duffbench import numkit as nk
from duffbench.duffing import (
    ForcingSpec,
    OscillatorParams,
    simulate,
    subsample,
)

TRUTH = OscillatorParams()


@pytest.fixture(scope="module")
def traj():
    return simulate()


def make_problem(traj, weights=None, trainable=(), bc=None, net=None,
                 n_obs=64):
    config = pinn.PinnConfig(
        weights=weights or pinn.LossWeights(1.0, 1.0, 0.0),
        trainable=trainable,
        net=net or nets.MlpSpec(widths=(1, 8, 2)),
        train=nets.TrainConfig(adam_iters=1, lbfgs_iters=0),
        bc=bc,
        seed=3,
    )
    idx = np.linspace(0, len(traj) - 1, n_obs).astype(int)
    z_obs = np.column_stack([traj.u[idx], traj.v[idx]])
    z = z_obs if config.weights.observation > 0 else None
    return pinn.PinnProblem(config, t_col=traj.t, f_col=traj.f,
                            z_obs=z, obs_rows=idx, norm=None
                            if config.weights.observation > 0
                            else nets.Normalization.from_data(traj.t, None))


def test_loss_weights_validation():
    with pytest.raises(pinn.ConfigError):
        pinn.LossWeights(0.0, 0.0, 0.0)
    with pytest.raises(pinn.ConfigError):
        pinn.LossWeights(-1.0, 1.0, 1.0)


def test_mode_table_constraints():
    with pytest.raises(pinn.ConfigError):
        pinn.PinnConfig(weights=pinn.LossWeights(0, 1, 1))
    with pytest.raises(pinn.ConfigError):
        pinn.PinnConfig(weights=pinn.LossWeights(1, 1, 0),
                        trainable=("m",))
    config = pinn.PinnConfig(weights=pinn.LossWeights(1, 1, 0),
                             trainable=("k3", "c"))
    assert config.trainable == ("c", "k3")  # φ follows PARAM_ORDER


def test_zero_network_unforced_physics_loss_is_zero(traj):
    prob = make_problem(traj, weights=pinn.LossWeights(0.0, 1.0, 1.0),
                        bc=(0.0, 0.0))
    prob.f_col = np.zeros_like(prob.f_col)
    spec = prob.config.net
    zero_pairs_arrays = []
    for w_in, w_out in zip(spec.widths[:-1], spec.widths[1:]):
        zero_pairs_arrays += [np.zeros((w_in, w_out)), np.zeros(w_out)]
    zero_pairs_arrays.append(np.zeros(0))
    tape = nk.Tape()
    leaves = [tape.leaf(a) for a in zero_pairs_arrays]
    pairs, phi = prob._split(leaves)
    loss = prob.physics_term(*prob.network_pass(pairs),
                             prob._phys_values(phi))
    assert loss.value == 0.0


def test_physics_loss_matches_direct_recomputation(traj):
    prob = make_problem(traj)
    stream = nk.RngStream(5).substream("rand-net")
    arrays = prob.init_arrays(stream)
    tape = nk.Tape()
    leaves = [tape.leaf(a) for a in arrays]
    pairs, phi = prob._split(leaves)
    loss = prob.physics_term(*prob.network_pass(pairs),
                             prob._phys_values(phi))

    # independent recomputation from the frozen network values
    norm = prob.norm
    tau = norm.t_in(traj.t).reshape(-1, 1)
    spec = prob.config.net
    net_pairs = nets.arrays_to_pairs(arrays[:-1])
    z_hat = nets.mlp_predict(spec, net_pairs, tau)
    h_fd = 1e-7
    dz_hat = (nets.mlp_predict(spec, net_pairs, tau + h_fd)
              - nets.mlp_predict(spec, net_pairs, tau - h_fd)) / (2 * h_fd)
    u = z_hat[:, 0] * norm.z_std[0] + norm.z_mean[0]
    v = z_hat[:, 1] * norm.z_std[1] + norm.z_mean[1]
    du = dz_hat[:, 0] * norm.z_std[0] / norm.t_half
    dv = dz_hat[:, 1] * norm.z_std[1] / norm.t_half
    r_u = du - v
    r_v = dv - (traj.f - TRUTH.c * v - TRUTH.k * u - TRUTH.k3 * u ** 3) / TRUTH.m
    ref = float(np.mean(r_u ** 2 + r_v ** 2))
    assert loss.value == pytest.approx(ref, rel=1e-6)


def test_residual_identity_on_true_trajectory(traj):
    """Finite-difference derivatives of the truth almost satisfy the
    equation residual; validates the loss independent of training."""
    t, u, v, f = traj.t, traj.u, traj.v, traj.f
    du = np.gradient(u, t)
    dv = np.gradient(v, t)
    r_u = du - v
    r_v = dv - (f - TRUTH.c * v - TRUTH.k * u - TRUTH.k3 * u ** 3) / TRUTH.m
    interior = slice(1, -1)  # np.gradient falls to first order at the ends
    mse = float(np.mean(r_u[interior] ** 2 + r_v[interior] ** 2))
    assert mse < 1e-3


def test_physics_loss_on_interpolated_truth_is_small(traj):
    """Substituting the simulator record (with FD derivatives) for the
    network drives the physics loss under 1e-4."""
    t, u, v = traj.t, traj.u, traj.v
    du = np.gradient(u, t)[1:-1]
    dv = np.gradient(v, t)[1:-1]
    tape = nk.Tape()
    r_u = tape.constant(du - v[1:-1])
    r_v = tape.constant(dv - (traj.f[1:-1] - TRUTH.c * v[1:-1]
                              - TRUTH.k * u[1:-1]
                              - TRUTH.k3 * u[1:-1] ** 3) / TRUTH.m)
    loss = (nk.vsum(r_u * r_u) + nk.vsum(r_v * r_v)) / float(len(du))
    assert loss.value < 1e-4


def test_bc_loss_values(traj):
    prob = make_problem(traj, weights=pinn.LossWeights(0.0, 1.0, 1.0),
                        bc=(0.0, 0.0))
    stream = nk.RngStream(6).substream("bc-net")
    arrays = prob.init_arrays(stream)
    tape = nk.Tape()
    leaves = [tape.leaf(a) for a in arrays]
    pairs, _ = prob._split(leaves)
    loss = prob.boundary_term(prob.network_pass(pairs)[0])
    z0 = prob.predict(arrays, traj.t[:1])[0]
    assert loss.value == pytest.approx(np.sum(z0 ** 2), rel=1e-10)


def test_bc_loss_squared_norm_arithmetic(traj):
    # residual (0, 2) at the boundary gives loss 4
    prob = make_problem(traj, weights=pinn.LossWeights(0.0, 1.0, 1.0),
                        bc=(0.0, 0.0))
    spec = prob.config.net
    arrays = []
    for w_in, w_out in zip(spec.widths[:-1], spec.widths[1:]):
        arrays += [np.zeros((w_in, w_out)), np.zeros(w_out)]
    arrays[-1] = np.array([0.0, 2.0])  # final bias -> constant output (0, 2)
    arrays.append(np.zeros(0))
    tape = nk.Tape()
    leaves = [tape.leaf(a) for a in arrays]
    pairs, _ = prob._split(leaves)
    loss = prob.boundary_term(prob.network_pass(pairs)[0])
    assert loss.value == pytest.approx(4.0, abs=1e-12)


def test_total_loss_mode_algebra(traj):
    """A zero weight is bit-identical to omitting the term."""
    full = make_problem(traj, weights=pinn.LossWeights(1.0, 0.0, 0.0),
                        bc=(traj.u[0], traj.v[0]))
    stream = nk.RngStream(8).substream("mode")
    arrays = full.init_arrays(stream)

    tape = nk.Tape()
    leaves = [tape.leaf(a) for a in arrays]
    total = full.total_loss(tape, leaves)
    pairs, _ = full._split(leaves)
    obs_only = full.observation_term(full.network_pass(pairs)[0])
    assert total.value == obs_only.value  # bitwise


def test_total_loss_gradient_wrt_physical_params(traj):
    prob = make_problem(traj, trainable=("c", "k", "k3"))
    stream = nk.RngStream(9).substream("grad-check")
    arrays = prob.init_arrays(stream)
    flat, metas = nets.flatten(arrays)

    def loss_np(theta):
        tape = nk.Tape()
        leaves = [tape.leaf(a) for a in nets.unflatten(theta, metas)]
        return float(prob.total_loss(tape, leaves).value)

    tape = nk.Tape()
    leaves = [tape.leaf(a) for a in nets.unflatten(flat, metas)]
    loss = prob.total_loss(tape, leaves)
    gs = nk.backward(loss, leaves)
    g_phi = gs[-1]  # trainable physical parameters
    h = 1e-6
    for i in range(3):
        hi = flat.copy()
        hi[-3 + i] += h
        lo = flat.copy()
        lo[-3 + i] -= h
        ref = (loss_np(hi) - loss_np(lo)) / (2 * h)
        assert abs(g_phi[i] - ref) / max(1.0, abs(ref)) < 1e-5


def test_known_parameters_frozen_by_training(traj):
    config = pinn.PinnConfig(
        weights=pinn.LossWeights(1.0, 1.0, 0.0),
        trainable=("c",),
        net=nets.MlpSpec(widths=(1, 6, 2)),
        train=nets.TrainConfig(adam_iters=20, lbfgs_iters=0),
        seed=2,
    )
    idx = np.arange(0, len(traj), 64)
    prob = pinn.PinnProblem(config, t_col=traj.t[idx], f_col=traj.f[idx],
                            z_obs=np.column_stack([traj.u[idx], traj.v[idx]]))
    before = prob.physical_estimates(prob.init_arrays(nk.RngStream(0)))
    arrays, _ = prob.fit()
    estimates = prob.physical_estimates(arrays)
    for name in ("m", "k", "k3"):
        assert estimates[name] == before[name]  # bit-identical
    assert estimates["c"] != before["c"]


def test_observation_requires_data(traj):
    with pytest.raises(pinn.ConfigError):
        config = pinn.PinnConfig(weights=pinn.LossWeights(1.0, 1.0, 0.0))
        pinn.PinnProblem(config, t_col=traj.t, f_col=traj.f)


def test_forward_model_starts_from_the_record_state(monkeypatch):
    """The first window's boundary term imposes the record's (u[0], v[0])."""
    record = simulate(TRUTH, ForcingSpec(), n=64, z0=(0.5, -0.25))
    boundaries, problem = [], pinn.PinnProblem

    def recording_problem(config, *args, **kwargs):
        boundaries.append(config.bc)
        return problem(config, *args, **kwargs)

    monkeypatch.setattr(pinn, "PinnProblem", recording_problem)
    res = pinn.run_forward_model(
        record, TRUTH, ForcingSpec(), net=nets.MlpSpec(widths=(1, 8, 2)),
        train=nets.TrainConfig(adam_iters=1, lbfgs_iters=0), windows=2)
    assert boundaries[0] == (0.5, -0.25)
    assert len(boundaries) == 2 and res.pred.shape == (64, 2)


@pytest.mark.parametrize("weights, expected", [
    ((1.0, 1.0, 0.0), {"tangent": 1}),
    ((1.0, 1.0, 1.0), {"tangent": 1}),
    ((0.0, 1.0, 20.0), {"tangent": 1}),
    ((1.0, 0.0, 0.0), {"tangent": 1}),
    ((1.0, 0.0, 1.0), {"tangent": 1}),
])
def test_total_loss_applies_the_network_once(traj, passes, weights,
                                             expected):
    prob = make_problem(traj, weights=pinn.LossWeights(*weights),
                        bc=(traj.u[0], traj.v[0]))
    tape = nk.Tape()
    prob.total_loss(tape, [tape.leaf(a) for a in
                           prob.init_arrays(nk.RngStream(4))])
    assert passes == expected


def working_problem(traj, shape):
    """A PINN problem shaped like one of the working-example runners."""
    if shape == "discovery":
        obs = subsample(traj, sobol_n=256)
        config = pinn.PinnConfig(weights=pinn.LossWeights(1.0, 1.0, 0.0),
                                 trainable=("c", "k", "k3"))
        return pinn.PinnProblem(config, obs.t, obs.f,
                                z_obs=np.column_stack([obs.u, obs.v]))
    if shape == "enhanced":
        obs = subsample(traj, stride=16)
        z_obs = np.column_stack([obs.u, obs.v])
        config = pinn.PinnConfig(bc=(traj.u[0], traj.v[0]))
        return pinn.PinnProblem(config, traj.t, traj.f, z_obs=z_obs,
                                obs_rows=slice(0, None, 16),
                                norm=nets.Normalization.from_data(traj.t,
                                                                  z_obs))
    # the first forward window: 1024 samples in 12 windows, margin 6
    t, f = traj.t[:91], traj.f[:91]
    omega0 = 1.3 * max(ForcingSpec().frequencies) * 0.5 * (t[-1] - t[0])
    net = nets.MlpSpec(widths=pinn.WORKING_NET.widths, activation="sin",
                       omega0=omega0)
    config = pinn.PinnConfig(
        weights=pinn.LossWeights(0.0, 1.0, pinn.FORWARD_BC_WEIGHT),
        net=net, bc=(traj.u[0], traj.v[0]))
    return pinn.PinnProblem(config, t, f,
                            norm=nets.Normalization.from_data(t, None))


@pytest.mark.parametrize("shape", ["discovery", "enhanced", "forward"])
def test_one_pass_loss_matches_the_per_term_oracle(traj, shape):
    prob = working_problem(traj, shape)
    arrays = prob.init_arrays(nk.RngStream(1234).substream("pinn-init"))
    arrays[-1] = arrays[-1] + 0.1  # trainable parameters off their guess
    # the oracle's boundary pass is a one-row product, which BLAS takes
    # through gemv: its sums round differently from row 0 of a gemm
    oracles.assert_loss_matches(
        prob.total_loss,
        lambda tape, leaves: oracles.pinn_loss_per_term(prob, tape, leaves),
        arrays, exact=prob.config.weights.boundary == 0)
