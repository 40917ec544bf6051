"""Physics-guided residual learner contracts."""

import numpy as np
import pytest

import oracles
from duffbench import nets, pgnn
from duffbench import numkit as nk
from duffbench.duffing import ForcingSpec, OscillatorParams, simulate
from duffbench.metrics import rmse

TRUTH = OscillatorParams()
FORCING = ForcingSpec()

FAST = nets.TrainConfig(adam_iters=800, adam_lr=3e-3, lbfgs_iters=150)


def test_prior_model_requires_zero_cubic():
    with pytest.raises(ValueError):
        pgnn.PriorModel(OscillatorParams(), FORCING)
    prior = pgnn.PriorModel.from_known_physics(TRUTH, FORCING)
    assert prior.params.k3 == 0.0
    assert prior.params.k == TRUTH.k


def test_prior_exact_when_truth_linear():
    linear = OscillatorParams(k3=0.0)
    prior = pgnn.PriorModel.from_known_physics(linear, FORCING)
    record = simulate(linear, FORCING, n=256)
    prior_traj = pgnn.prior_predict(prior, n=256)
    assert np.max(np.abs(prior_traj.u - record.u)) < 1e-9


def test_prior_deviates_for_nonlinear_truth():
    record = simulate(TRUTH, FORCING, n=512)
    prior = pgnn.PriorModel.from_known_physics(TRUTH, FORCING)
    prior_traj = pgnn.prior_predict(prior, n=512)
    assert rmse(prior_traj.u, record.u) > 0.01


def test_zero_forcing_prior_is_zero():
    prior = pgnn.PriorModel.from_known_physics(
        TRUTH, ForcingSpec(amplitudes=0.0))
    traj = pgnn.prior_predict(prior, n=128)
    assert np.all(traj.u == 0.0)


def test_additivity_contract():
    traj = simulate(TRUTH, FORCING, n=256)
    res = pgnn.run_guided(traj, FORCING, TRUTH, train=FAST)
    delta = res.residual.correction(traj.t)
    prior = np.column_stack([res.prior_traj.u, res.prior_traj.v])
    assert np.array_equal(res.combined, prior + delta)


def test_numpy_correction_equals_tape_correction_bitwise():
    spec = nets.MlpSpec(widths=(1, 16, 16, 1), activation="sin", omega0=3.0)
    stream = nk.RngStream(4).substream("correction")
    t = np.linspace(0.0, 30.0, 97)
    res = pgnn.ResidualNet(spec, nets.init_params(spec, stream),
                           nets.Normalization(15.0, 15.0, np.zeros(1),
                                              np.array([0.3])))
    tape = nk.Tape()
    pairs = [(tape.constant(W), tape.constant(b)) for W, b in res.params]
    du, dv = res.correction_nodes(pairs, t)
    assert np.array_equal(res.correction(t),
                          np.column_stack([du.value, dv.value]))


def test_prior_immutable_through_training():
    traj = simulate(TRUTH, FORCING, n=256)
    prior = pgnn.PriorModel.from_known_physics(TRUTH, FORCING)
    before = (prior.params.m, prior.params.c, prior.params.k, prior.params.k3)
    pgnn.guided_train(prior, traj.t, slice(None), traj.u,
                      (traj.u[0], traj.v[0]), train=FAST)
    assert (prior.params.m, prior.params.c,
            prior.params.k, prior.params.k3) == before


def test_displacement_only_training_is_velocity_blind():
    """Corrupting the velocity observations cannot change the result;
    only the initial velocity, v[0], reaches the prior."""
    traj = simulate(TRUTH, FORCING, n=256)
    res_a = pgnn.run_guided(traj, FORCING, TRUTH, train=FAST)
    hacked = simulate(TRUTH, FORCING, n=256)
    hacked.v[1:] = 999.0  # never read by the loss
    res_b = pgnn.run_guided(hacked, FORCING, TRUTH, train=FAST)
    assert np.array_equal(res_a.combined, res_b.combined)


def test_exact_prior_keeps_correction_small():
    linear = OscillatorParams(k3=0.0)
    traj = simulate(linear, FORCING, n=512)
    res = pgnn.run_guided(traj, FORCING, linear, train=FAST)
    assert np.max(np.abs(res.residual.correction(traj.t)[:, 0])) < 1e-2


def test_combined_improves_both_components():
    traj = simulate(TRUTH, FORCING)
    res = pgnn.run_guided(traj, FORCING, TRUTH,
                          train=nets.TrainConfig(adam_iters=1500,
                                                 adam_lr=2e-3,
                                                 lbfgs_iters=200))
    assert rmse(res.combined[:, 0], traj.u) < rmse(res.prior_traj.u, traj.u)
    assert rmse(res.combined[:, 1], traj.v) < rmse(res.prior_traj.v, traj.v)


def test_needs_observations():
    prior = pgnn.PriorModel.from_known_physics(TRUTH, FORCING)
    with pytest.raises(ValueError):
        pgnn.guided_train(prior, np.linspace(0, 10, 64), slice(0, 0),
                          np.empty(0), (0.0, 0.0))


def test_prior_starts_where_the_record_starts(monkeypatch):
    z0 = (0.5, -0.25)
    traj = simulate(TRUTH, FORCING, n=64, z0=z0)
    monkeypatch.setattr(nets, "fit_arrays",
                        lambda arrays0, build, config: (arrays0, []))
    prior_traj = pgnn.run_guided(traj, FORCING, TRUTH).prior_traj
    assert (prior_traj.u[0], prior_traj.v[0]) == z0
    ref = pgnn.prior_predict(pgnn.PriorModel.from_known_physics(TRUTH,
                                                                FORCING),
                             n=64, z0=z0)
    assert np.array_equal(prior_traj.u, ref.u)
    assert np.array_equal(prior_traj.v, ref.v)


def captured_loss(monkeypatch, traj, stride):
    """run_guided with training replaced by a capture of its initial
    arrays and loss builder; the result holds the untrained residual."""
    captured = {}

    def capture(arrays0, build, config):
        captured.update(arrays=arrays0, build=build)
        return arrays0, []

    monkeypatch.setattr(nets, "fit_arrays", capture)
    res = pgnn.run_guided(traj, FORCING, TRUTH, stride=stride)
    return res, captured["arrays"], captured["build"]


def test_loss_applies_the_network_once(monkeypatch, passes):
    traj = simulate(TRUTH, FORCING, n=256)
    _, arrays, build = captured_loss(monkeypatch, traj, 4)
    tape = nk.Tape()
    build(tape, [tape.leaf(a) for a in arrays])
    assert passes == {"tangent": 1}


@pytest.mark.parametrize("stride", [1, 4])
def test_one_pass_loss_matches_the_two_pass_oracle(monkeypatch, stride):
    traj = simulate(TRUTH, FORCING)
    res, arrays, build = captured_loss(monkeypatch, traj, stride)

    def oracle(tape, leaves):
        return oracles.pgnn_loss_two_pass(
            res.residual, res.prior_traj, traj.t, traj.t[::stride],
            traj.u[::stride], pgnn.RESIDUAL_PENALTY, tape, leaves)

    oracles.assert_loss_matches(build, oracle, arrays)

