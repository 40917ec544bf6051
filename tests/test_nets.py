"""Network forward/loss/training contracts."""

import gc
import weakref

import numpy as np
import pytest

import oracles
from duffbench import numkit as nk
from duffbench import nets, neural_ode, pgnn, pinn
from duffbench.duffing import (
    ForcingSpec,
    OscillatorParams,
    simulate,
    subsample,
)
from duffbench.metrics import rmse

TANH = nets.MlpSpec(widths=(1, 8, 2))
# shipped working-example architecture: sine activations reach the ~30
# oscillation cycles of the 120 s record where tanh units cannot
SIN_NET = nets.MlpSpec(widths=(1, 32, 32, 32, 2), activation="sin", omega0=60.0)


def test_zero_network_outputs_zero():
    params = [(np.zeros((1, 8)), np.zeros(8)), (np.zeros((8, 2)), np.zeros(2))]
    out = nets.mlp_predict(TANH, params, np.array([[0.3], [1.7]]))
    assert np.all(out == 0.0)


def test_single_affine_layer():
    spec = nets.MlpSpec(widths=(1, 1))
    params = [(np.array([[2.0]]), np.array([3.0]))]
    out = nets.mlp_predict(spec, params, np.array([[1.0]]))
    assert out[0, 0] == pytest.approx(5.0, abs=1e-15)


def test_batch_shape_contract():
    stream = nk.RngStream(5).substream("shape")
    spec = nets.MlpSpec(widths=(1, 16, 16, 2))
    params = nets.init_params(spec, stream)
    out = nets.mlp_predict(spec, params, stream.normal(size=(7, 1)))
    assert out.shape == (7, 2)


def test_bad_spec_rejected():
    with pytest.raises(ValueError):
        nets.MlpSpec(widths=(1,))
    with pytest.raises(ValueError):
        nets.MlpSpec(widths=(1, 0, 2))
    with pytest.raises(ValueError):
        nets.MlpSpec(activation="relu")


@pytest.mark.parametrize("spec", [nets.MlpSpec(), SIN_NET])
def test_tape_and_numpy_forward_agree(spec):
    stream = nk.RngStream(6).substream("agree")
    params = nets.init_params(spec, stream)
    x = stream.normal(size=(11, 1))
    tape = nk.Tape()
    nodes = [(tape.leaf(W), tape.leaf(b)) for W, b in params]
    before = len(tape.nodes)
    out = nets.mlp_apply_tangent(spec, nodes, x)[0]
    # one fused node and its output half, sharing mlp_predict's float order
    assert len(tape.nodes) == before + 3
    assert out.parents[0].op == "mlp_tangent"
    assert np.array_equal(out.value, nets.mlp_predict(spec, params, x))


@pytest.mark.parametrize("spec", [nets.MlpSpec(widths=(1, 16, 16, 2)),
                                  nets.MlpSpec(widths=(1, 16, 2), activation="sin",
                                               omega0=3.0)])
def test_tangent_matches_finite_difference_input_derivative(spec):
    stream = nk.RngStream(8).substream("tangent")
    params = nets.init_params(spec, stream)
    x = stream.normal(size=(9, 1))
    tape = nk.Tape()
    nodes = [(tape.leaf(W), tape.leaf(b)) for W, b in params]
    _, dz = nets.mlp_apply_tangent(spec, nodes, x)
    h = 1e-6
    fd = (nets.mlp_predict(spec, params, x + h)
          - nets.mlp_predict(spec, params, x - h)) / (2 * h)
    assert np.allclose(dz.value, fd, rtol=1e-5, atol=1e-8)


SCALAR_SPECS = [nets.MlpSpec(widths=(1, 16, 16, 2)),
                nets.MlpSpec(widths=(1, 16, 16, 2), activation="sin",
                             omega0=3.0)]


def _constant_input(apply, pairs, X):
    # a data-only fit's graph: the network at constant times
    return apply(pairs, X)


@pytest.mark.parametrize("spec", SCALAR_SPECS, ids=lambda s: s.activation)
@pytest.mark.parametrize("program", [_constant_input])
def test_fused_mlp_matches_per_op_chain_bitwise(spec, program):
    """The output half of the tangent node, read alone, and every
    parameter adjoint equal the per-op network chain's bit for bit."""
    stream = nk.RngStream(21).substream("fused-" + spec.activation)
    arrays = nets.pairs_to_arrays(nets.init_params(spec, stream))
    X = stream.normal(size=(13, 1))
    weights = stream.normal(size=(13, 2))
    applies = (lambda pairs, x: nets.mlp_apply_tangent(spec, pairs, x)[0],
               lambda pairs, x: oracles.mlp_apply_per_op(
                   spec, pairs, pairs[0][0].tape.constant(x)))
    runs = []
    for apply in applies:
        tape = nk.Tape()
        leaves = [tape.leaf(a) for a in arrays]
        out = program(apply, nets.arrays_to_pairs(leaves), X)
        loss = nk.vsum(out * tape.constant(weights))
        runs.append((out.value, nk.backward(loss, leaves)))
    (fused, fused_adj), (chain, chain_adj) = runs
    assert np.array_equal(fused, chain)
    assert len(fused_adj) == len(chain_adj)
    for a, b in zip(fused_adj, chain_adj):
        assert a.shape == b.shape and np.array_equal(a, b)
        assert np.any(a != 0.0)


@pytest.mark.parametrize("spec", [nets.MlpSpec(widths=(1, 16, 16, 2)),
                                  SIN_NET])
def test_numpy_tangent_equals_tape_tangent_bitwise(spec):
    stream = nk.RngStream(23).substream("tangent-twin")
    params = nets.init_params(spec, stream)
    x = stream.normal(size=(9, 1))
    tape = nk.Tape()
    pairs = [(tape.constant(W), tape.constant(b)) for W, b in params]
    z_node, dz_node = nets.mlp_apply_tangent(spec, pairs, x)
    z, dz = nets.mlp_predict_tangent(spec, params, x)
    assert z.shape == z_node.shape and z.tobytes() == z_node.value.tobytes()
    assert dz.shape == dz_node.shape
    assert dz.tobytes() == dz_node.value.tobytes()
    with pytest.raises(ValueError):
        nets.mlp_predict_tangent(spec, params, np.zeros((3, 2)))


def _tangent_loss(y, d, reads, wy, wd):
    """A scalar that reads y, d or both: tanh(y) and d² weighted."""
    tape = y.tape
    terms = []
    if "y" in reads:
        terms.append(nk.vsum(oracles.tanh(y) * tape.constant(wy)))
    if "d" in reads:
        terms.append(nk.vsum(d * d * tape.constant(wd)))
    return terms[0] if len(terms) == 1 else terms[0] + terms[1]


def _tangent_runs(spec, arrays, x, losses):
    """y, d and every parameter adjoint of each loss in `losses(y, d)`,
    in turn on one graph: through the fused node on a plain tape, again
    on the second of two tapes sharing a workspace (the first evaluated
    elsewhere, so every array is reused with other values in it), and
    through the per-op chain."""
    def run(apply, tape, arrays):
        leaves = [tape.leaf(a) for a in arrays]
        y, d = apply(spec, nets.arrays_to_pairs(leaves), x)
        out = [y.value, d.value]
        for loss in losses(y, d):
            out += nk.backward(loss, leaves)
        return out

    workspace = nk.Workspace()
    run(nets.mlp_apply_tangent, nk.Tape(workspace), [0.5 * a for a in arrays])
    return [run(nets.mlp_apply_tangent, nk.Tape(), arrays),
            run(nets.mlp_apply_tangent, nk.Tape(workspace), arrays),
            run(oracles.mlp_apply_tangent_per_op, nk.Tape(), arrays)]


TANGENT_WIDTHS = [(1, 32, 32, 1), (1, 32, 32, 32, 2), (1, 1, 1), (1, 2)]


@pytest.mark.parametrize("reads", ["d", "y", "yd"])
@pytest.mark.parametrize("n", [1, 1024])
@pytest.mark.parametrize("widths", TANGENT_WIDTHS,
                         ids=lambda w: "-".join(map(str, w)))
@pytest.mark.parametrize("activation", ["tanh", "sin"])
def test_fused_tangent_matches_per_op_chain_bitwise(activation, widths, n,
                                                    reads):
    """One `mlp_tangent` node against the per-op chain: y, d and every
    parameter adjoint byte for byte, reading d alone (HNN), y alone,
    or both (PINN, PGNN)."""
    spec = nets.MlpSpec(widths=widths, activation=activation, omega0=3.0)
    stream = nk.RngStream(29).substream(f"fused-tangent-{activation}")
    arrays = nets.pairs_to_arrays(nets.init_params(spec, stream))
    x = stream.normal(size=(n, 1))
    wy, wd = stream.normal(size=(2, n, widths[-1]))
    *fused, chain = _tangent_runs(
        spec, arrays, x, lambda y, d: [_tangent_loss(y, d, reads, wy, wd)])
    for run in fused:
        assert len(run) == len(chain) == 2 + len(arrays)
        for a, b in zip(run, chain):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("activation", ["tanh", "sin"])
def test_fused_tangent_sweeps_mark_their_own_readers(activation):
    """Two sweeps over one graph, from a loss reading y and d and then
    from one reading d alone, each give the per-op chain's adjoints;
    in the second the unread output's bias gets +0.0."""
    spec = nets.MlpSpec(widths=(1, 8, 8, 2), activation=activation,
                        omega0=3.0)
    stream = nk.RngStream(30).substream("tangent-sweeps")
    arrays = nets.pairs_to_arrays(nets.init_params(spec, stream))
    x = stream.normal(size=(6, 1))
    wy, wd = stream.normal(size=(2, 6, 2))
    *fused, chain = _tangent_runs(spec, arrays, x, lambda y, d: [
        _tangent_loss(y, d, "yd", wy, wd), _tangent_loss(y, d, "d", wy, wd)])
    for run in fused:
        for a, b in zip(run, chain):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert run[-1].tobytes() == np.zeros(2).tobytes()


@pytest.mark.parametrize("widths", [(1, 8, 2), (1, 2)],
                         ids=lambda w: "-".join(map(str, w)))
def test_tangent_graph_dies_when_a_later_tape_takes_the_workspace(widths):
    """A later tape overwrites the arrays of a graph on the same
    workspace, so a sweep over that graph raises instead of reading
    them; also with no hidden layer, whose sweep takes no product."""
    spec = nets.MlpSpec(widths=widths)
    arrays = nets.pairs_to_arrays(
        nets.init_params(spec, nk.RngStream(32).substream("dead-graph")))
    x = np.linspace(-1.0, 1.0, 5).reshape(-1, 1)
    workspace = nk.Workspace()
    losses = []
    for _ in range(2):
        tape = nk.Tape(workspace)
        leaves = [tape.leaf(a) for a in arrays]
        _, d = nets.mlp_apply_tangent(spec, nets.arrays_to_pairs(leaves), x)
        losses.append((nk.vsum(d * d), leaves))
    with pytest.raises(RuntimeError, match="later tape"):
        nk.backward(*losses[0])
    assert all(np.all(np.isfinite(g)) for g in nk.backward(*losses[1]))


def _hnn_loss(monkeypatch):
    params = OscillatorParams(c=0.0)
    traj = simulate(params, ForcingSpec(amplitudes=0.0), n=128, z0=(1.0, 0.0))
    return _captured_loss(monkeypatch, lambda: neural_ode.hnn_train(
        *neural_ode.conservative_batch(traj, params.m)))


def _pinn_loss(monkeypatch):
    traj = simulate(n=128)
    config = pinn.PinnConfig(weights=pinn.LossWeights(1.0, 1.0, 1.0),
                             trainable=("c", "k", "k3"), bc=(0.0, 0.0))
    prob = pinn.PinnProblem(config, traj.t, traj.f,
                            z_obs=np.column_stack([traj.u, traj.v]),
                            obs_rows=slice(None))
    return prob.init_arrays(nk.RngStream(3)), prob.total_loss


def _pgnn_loss(monkeypatch):
    traj = simulate(n=128)
    return _captured_loss(monkeypatch, lambda: pgnn.run_guided(
        traj, ForcingSpec(), OscillatorParams(), stride=4))


def _captured_loss(monkeypatch, run):
    """The initial arrays and loss builder that `run` hands to
    `fit_arrays`, with training replaced by returning them untrained."""
    captured = {}

    def capture(arrays0, build, config):
        captured.update(arrays=arrays0, build=build)
        return arrays0, []

    monkeypatch.setattr(nets, "fit_arrays", capture)
    run()
    return captured["arrays"], captured["build"]


@pytest.mark.parametrize("loss, applications", [
    (_hnn_loss, 2), (_pinn_loss, 1), (_pgnn_loss, 1)],
    ids=["hnn", "pinn", "pgnn"])
def test_physics_losses_record_one_tangent_node_per_application(
        monkeypatch, passes, loss, applications):
    """The HNN's ∂H/∂p and ∂H/∂q, the PINN's residual and the PGNN's
    Δu̇ each take one `mlp_tangent` node; no per-op activation or
    tangent chain is left on the tape."""
    arrays, build = loss(monkeypatch)
    passes["tangent"] = 0
    tape = nk.Tape()
    build(tape, [tape.leaf(a) for a in arrays])
    ops = [node.op for node in tape.nodes]
    assert passes["tangent"] == ops.count("mlp_tangent") == applications
    assert not {"tanh", "sin", "cos", "matmul"} & set(ops)


@pytest.mark.parametrize("activation", ["tanh", "sin"])
def test_fused_tangent_adjoints_match_central_differences(activation):
    spec = nets.MlpSpec(widths=(1, 6, 5, 2), activation=activation,
                        omega0=2.0)
    stream = nk.RngStream(31).substream("tangent-fd")
    arrays = nets.pairs_to_arrays(nets.init_params(spec, stream))
    x = stream.normal(size=(7, 1))
    wy, wd = stream.normal(size=(2, 7, 2))
    flat, metas = nets.flatten(arrays)

    def value(theta):
        params = nets.arrays_to_pairs(nets.unflatten(np.array(theta), metas))
        y, d = nets.mlp_predict_tangent(spec, params, x)
        return float(np.sum(np.tanh(y) * wy) + np.sum(d * d * wd))

    tape = nk.Tape()
    leaves = [tape.leaf(a) for a in arrays]
    y, d = nets.mlp_apply_tangent(spec, nets.arrays_to_pairs(leaves), x)
    grads = nk.backward(_tangent_loss(y, d, "yd", wy, wd), leaves)
    g = np.concatenate([np.ravel(a) for a in grads])
    ref = np.array(oracles.central_difference(value, flat))
    assert np.all(np.abs(g - ref) <= 1e-6 * np.maximum(1.0, np.abs(ref)))


def test_observation_loss_values():
    tape = nk.Tape()
    pred = tape.constant(np.array([[1.0, 2.0]]))
    assert nets.observation_loss(pred, np.array([[1.0, 2.0]])).value == 0.0
    pred = tape.constant(np.array([[1.0, 0.0]]))
    assert nets.observation_loss(pred, np.array([[0.0, 0.0]])).value == 1.0


def test_observation_loss_matches_direct_recomputation():
    stream = nk.RngStream(9).substream("loss")
    pred_val = stream.normal(size=(17, 2))
    obs = stream.normal(size=(17, 2))
    tape = nk.Tape()
    loss = nets.observation_loss(tape.constant(pred_val), obs)
    ref = np.mean(np.sum((pred_val - obs) ** 2, axis=1))
    assert loss.value == pytest.approx(ref, abs=1e-12)


def test_observation_loss_rejects_empty_and_mismatch():
    tape = nk.Tape()
    with pytest.raises(ValueError):
        nets.observation_loss(tape.constant(np.zeros((0, 2))), np.zeros((0, 2)))
    with pytest.raises(ValueError):
        nets.observation_loss(tape.constant(np.zeros((3, 2))), np.zeros((3, 1)))


def test_observation_loss_gradient_matches_fd():
    stream = nk.RngStream(10).substream("lossgrad")
    spec = nets.MlpSpec(widths=(1, 6, 2))
    params = nets.init_params(spec, stream)
    x = stream.normal(size=(5, 1))
    obs = stream.normal(size=(5, 2))
    flat, metas = nets.flatten(nets.pairs_to_arrays(params))

    def loss_np(theta):
        pairs = nets.arrays_to_pairs(nets.unflatten(theta, metas))
        out = nets.mlp_predict(spec, pairs, x)
        return np.mean(np.sum((out - obs) ** 2, axis=1))

    tape = nk.Tape()
    leaves = [tape.leaf(a) for a in nets.unflatten(flat, metas)]
    out = nets.mlp_apply_tangent(spec, nets.arrays_to_pairs(leaves), x)[0]
    loss = nets.observation_loss(out, obs)
    gs = nk.backward(loss, leaves)
    g_ad = np.concatenate([np.ravel(g) for g in gs])

    h = 1e-5
    for i in range(0, len(flat), 7):
        t_hi = flat.copy()
        t_hi[i] += h
        t_lo = flat.copy()
        t_lo[i] -= h
        ref = (loss_np(t_hi) - loss_np(t_lo)) / (2 * h)
        assert abs(g_ad[i] - ref) / max(1.0, abs(ref)) < 1e-5


def test_train_quadratic_bowl():
    def closure(theta):
        tape = nk.Tape()
        x = tape.leaf(theta[0])
        loss = (x - 3.0) * (x - 3.0)
        return float(loss.value), \
            lambda: np.array([float(nk.backward(loss, [x])[0])])

    cfg = nets.TrainConfig(adam_iters=3000, adam_lr=1e-2, lbfgs_iters=50)
    theta, history = nets.train(closure, np.array([0.0]), cfg)
    assert abs(theta[0] - 3.0) < 1e-4
    assert history[-1] < history[0]


def test_train_diverged_error_carries_history():
    calls = {"n": 0}

    def closure(theta):
        calls["n"] += 1
        if calls["n"] > 3:
            return float("nan"), lambda: np.zeros_like(theta)
        return 1.0, lambda: np.ones_like(theta)

    with pytest.raises(nets.TrainingDivergedError) as err:
        nets.adam(closure, np.zeros(2), 10)
    assert len(err.value.history) == 3


def _nan_gradient(theta):
    return 1.0, lambda: np.full_like(theta, np.nan)


def test_adam_rejects_non_finite_gradient():
    with pytest.raises(nets.TrainingDivergedError) as err:
        nets.adam(_nan_gradient, np.zeros(2), 10)
    assert err.value.history == []


def test_lbfgs_rejects_non_finite_first_gradient():
    with pytest.raises(nets.TrainingDivergedError) as err:
        nets.lbfgs(_nan_gradient, np.zeros(2), 10)
    assert err.value.history == []


def test_lbfgs_rejects_non_finite_gradient_at_accepted_step():
    calls = {"n": 0, "grad": 0}

    def closure(theta):
        calls["n"] += 1
        loss = float(np.sum((theta - 1.0) ** 2))
        n = calls["n"]

        def grad():
            calls["grad"] += 1
            if n > 1:  # every line-search point
                return np.full_like(theta, np.nan)
            return 2.0 * (theta - 1.0)
        return loss, grad

    # ‖g‖₁ = 0.5 < 1 at the start, so the first trial is the unit step
    with pytest.raises(nets.TrainingDivergedError) as err:
        nets.lbfgs(closure, np.full(2, 0.875), 10)
    assert err.value.history == [0.03125]
    # the full step is rejected by the Armijo test, the half step accepted
    assert calls["n"] == 3
    # gradients at the start and at the accepted half step only
    assert calls["grad"] == 2


ROSENBROCK_START = [np.array([-1.2]), np.array([1.0])]


def _rosenbrock(tape, leaves):
    x, y = leaves
    r = y - x * x
    return nk.vsum((1.0 - x) * (1.0 - x) + 100.0 * r * r)


def _eager_lbfgs(closure, theta0, iters, **kwargs):
    """The oracle L-BFGS on a lazy closure, its gradient forced at every
    evaluation."""
    def evaluate(theta):
        loss, grad = closure(theta)
        return loss, grad()
    return oracles.lbfgs_eager(evaluate, theta0, iters, **kwargs)


def _lbfgs_calls(monkeypatch, optimizer, run):
    """(θ, L-BFGS history, evaluations, accepted steps) of each L-BFGS
    call that `run()` makes, with `optimizer` as `nets.lbfgs`."""
    calls = []

    def recording(closure, theta0, iters, history=None):
        before = len(history) if history is not None else 0
        evals = []

        def counted(theta):
            evals.append(theta)
            return closure(theta)

        theta, history = optimizer(counted, theta0, iters, history=history)
        steps = len(history) - before - 1
        calls.append((theta, history[before:], len(evals), steps))
        return theta, history

    monkeypatch.setattr(nets, "lbfgs", recording)
    run()
    return calls


def _fit_forward_window():
    """The first of the shipped pinn-forward layout's 12 windows on the
    1024-sample record (85 samples plus a margin of 6), at the Adam budget
    of the benchmark's focus pinn-forward config. Its 5 L-BFGS iterations
    reject no trial since the first step is scaled; 30 reject some."""
    params, forcing = OscillatorParams(), ForcingSpec()
    pinn.run_forward_model(simulate(params, forcing, n=91), params, forcing,
                           seed=7, windows=1, margin=0,
                           train=nets.TrainConfig(adam_iters=8, adam_lr=2e-3,
                                                  lbfgs_iters=30))


@pytest.mark.parametrize("run", [
    lambda: nets.fit_arrays(ROSENBROCK_START, _rosenbrock,
                            nets.TrainConfig(adam_iters=0, lbfgs_iters=30)),
    _fit_forward_window,
], ids=["rosenbrock", "pinn-forward-window"])
def test_lbfgs_matches_eager_oracle_bit_for_bit(monkeypatch, run):
    """Taking no gradient at rejected trials changes no bit of θ or the
    history, and no evaluation count."""
    lazy = _lbfgs_calls(monkeypatch, nets.lbfgs, run)
    eager = _lbfgs_calls(monkeypatch, _eager_lbfgs, run)
    assert len(lazy) == len(eager) >= 1
    for (theta, history, evals, steps), ref in zip(lazy, eager):
        np.testing.assert_array_equal(theta, ref[0])
        assert history == ref[1]
        assert (evals, steps) == ref[2:]
    # some trial point was rejected: evaluated, neither start nor step
    assert sum(evals - 1 - steps for _, _, evals, steps in lazy) >= 1


@pytest.mark.parametrize("scale", [1e-3, 1e100],
                         ids=["l1-below-1", "l1-huge"])
def test_lbfgs_first_trial_is_gradient_scaled(scale):
    """The first iteration's first trial is θ₀ − min(1, 1/‖g‖₁)·g, also
    when that step is tiny or the unit step; no warning either way."""
    trials = []

    def closure(theta):  # scale·‖θ − 1‖²/2
        trials.append(theta.copy())
        r = theta - 1.0
        return 0.5 * scale * float(r @ r), lambda: scale * r

    theta0 = np.array([0.5, 3.0, -1.0])
    g = scale * (theta0 - 1.0)
    nets.lbfgs(closure, theta0, 4)
    step = min(1.0, 1.0 / np.sum(np.abs(g)))
    assert (step == 1.0) == (scale < 1.0)
    np.testing.assert_array_equal(trials[1], theta0 + step * -g)


def test_lbfgs_later_iterations_start_at_the_unit_step():
    """When the first step meets negative curvature, its pair is dropped
    and the next direction is −g again; its first trial is still the unit
    step, not another gradient-scaled one."""
    trials = []

    def closure(theta):  # 10·(1 − cos θ), concave for |θ| > π/2
        trials.append(theta.copy())
        return 10.0 * (1.0 - np.cos(theta[0])), lambda: 10.0 * np.sin(theta)

    theta0 = np.array([2.5])
    nets.lbfgs(closure, theta0, 2)
    # iteration 0 accepted its first trial θ₁ with sᵀy < 0
    theta1 = trials[1]
    s, y = theta1 - theta0, 10.0 * (np.sin(theta1) - np.sin(theta0))
    assert s @ y < 0.0
    assert np.sum(np.abs(10.0 * np.sin(theta1))) > 1.0
    np.testing.assert_array_equal(trials[2], theta1 - 10.0 * np.sin(theta1))


def test_scaled_first_step_saves_evaluations_not_steps(monkeypatch):
    """On a PINN window, the gradient-scaled first step needs fewer
    evaluations than a unit first step, for as many accepted steps."""
    scaled = _lbfgs_calls(monkeypatch, nets.lbfgs, _fit_forward_window)

    def unit(closure, theta0, iters, **kwargs):
        return _eager_lbfgs(closure, theta0, iters, scaled_first_step=False,
                            **kwargs)
    unit_calls = _lbfgs_calls(monkeypatch, unit, _fit_forward_window)
    assert sum(c[2] for c in scaled) < sum(c[2] for c in unit_calls)
    assert sum(c[3] for c in scaled) >= sum(c[3] for c in unit_calls)


def test_backward_runs_per_adam_step_and_accepted_lbfgs_point(monkeypatch):
    backwards, builds = [], []
    backward = nk.backward

    def counting(output, wrt):
        backwards.append(output)
        return backward(output, wrt)

    def build(tape, leaves):
        builds.append(tape)
        return _rosenbrock(tape, leaves)

    monkeypatch.setattr(nk, "backward", counting)
    cfg = nets.TrainConfig(adam_iters=7, adam_lr=1e-2, lbfgs_iters=30)
    _, history = nets.fit_arrays(ROSENBROCK_START, build, cfg)
    accepted = len(history) - cfg.adam_iters - 1
    assert accepted >= 1
    assert len(backwards) == cfg.adam_iters + 1 + accepted
    # the remaining evaluations were rejected line-search trials
    assert len(builds) > len(backwards)


def test_gradient_is_refused_once_its_graph_is_released(monkeypatch):
    """A gradient callable of `fit_arrays` serves its own evaluation once,
    and only until the next evaluation starts."""
    def misuse(closure, theta0, config):
        _, stale = closure(theta0)
        _, grad = closure(theta0)
        with pytest.raises(RuntimeError, match="released"):
            stale()
        grad()
        with pytest.raises(RuntimeError, match="released"):
            grad()
        return theta0, []

    monkeypatch.setattr(nets, "train", misuse)
    nets.fit_arrays(ROSENBROCK_START, _rosenbrock, nets.TrainConfig())


@pytest.mark.parametrize("diverge", [False, True],
                         ids=["converging", "line-search-fails"])
def test_fit_arrays_releases_every_graph(diverge):
    """Evaluation k's graph is gone when evaluation k+1 is built, and no
    tape keeps a node once `fit_arrays` returns, also when the last
    evaluation was a rejected trial whose gradient nobody took. All the
    evaluations' tapes share one workspace."""
    cfg = nets.TrainConfig(adam_iters=7, adam_lr=1e-2, lbfgs_iters=30)
    tapes, losses = [], []

    def build(tape, leaves):
        assert all(ref() is None for ref in losses)
        tapes.append(tape)
        loss = _rosenbrock(tape, leaves)
        if diverge and len(tapes) > cfg.adam_iters + 1:
            loss = loss * float("nan")
        losses.append(weakref.ref(loss))
        return loss

    _, history = nets.fit_arrays(ROSENBROCK_START, build, cfg)
    if diverge:  # Adam and the L-BFGS start, then 25 rejected trials
        assert len(history) == cfg.adam_iters + 1
        assert len(tapes) == cfg.adam_iters + 1 + 25
    assert all(not tape.nodes for tape in tapes)
    workspace = tapes[0].workspace
    assert workspace is not None
    assert all(tape.workspace is workspace for tape in tapes)


def test_fit_arrays_frees_its_workspace_without_the_cyclic_gc():
    """A workspace and its tape must not hold each other: the arrays of a
    finished fit go when it returns, not at some later collection."""
    workspaces = []

    def build(tape, leaves):
        workspaces.append(weakref.ref(tape.workspace))
        tape.empty((64, 64)).fill(0.0)
        return _rosenbrock(tape, leaves)

    gc.disable()
    try:
        nets.fit_arrays(ROSENBROCK_START, build,
                        nets.TrainConfig(adam_iters=3, lbfgs_iters=3))
        assert workspaces and all(ref() is None for ref in workspaces)
    finally:
        gc.enable()


def test_seed_determinism_of_training():
    def run():
        stream = nk.RngStream(77).substream("det")
        spec = nets.MlpSpec(widths=(1, 8, 1))
        params = nets.init_params(spec, stream)
        x = np.linspace(-1, 1, 16).reshape(-1, 1)
        y = np.sin(2 * x)

        def build(tape, leaves):
            out = nets.mlp_apply_tangent(spec, nets.arrays_to_pairs(leaves),
                                         x)[0]
            return nets.observation_loss(out, y)

        cfg = nets.TrainConfig(adam_iters=50, lbfgs_iters=5)
        return nets.fit_arrays(nets.pairs_to_arrays(params), build, cfg)

    arrays_a, hist_a = run()
    arrays_b, hist_b = run()
    for a, b in zip(arrays_a, arrays_b):
        assert np.array_equal(a, b)
    assert hist_a == hist_b


def test_normalization_round_trip():
    t = np.linspace(0.0, 120.0, 50)
    z = np.column_stack([np.sin(t), np.cos(t)])
    norm = nets.Normalization.from_data(t, z)
    tin = norm.t_in(t)
    assert tin.min() == pytest.approx(-1.0)
    assert tin.max() == pytest.approx(1.0)
    z_hat = (z - norm.z_mean) / norm.z_std
    assert np.allclose(norm.z_out(z_hat), z, atol=1e-10)


def test_normalization_is_affine_reparametrization():
    """Changing normalization constants and compensating the boundary
    layers leaves the de-normalized predictions unchanged."""
    stream = nk.RngStream(21).substream("reparam")
    spec = nets.MlpSpec(widths=(1, 12, 12, 2))
    params = nets.init_params(spec, stream)
    t = np.linspace(0.0, 120.0, 40)
    norm_a = nets.Normalization(60.0, 60.0, np.array([0.1, -0.2]),
                                np.array([0.5, 2.0]))
    norm_b = nets.Normalization(50.0, 40.0, np.array([-0.3, 0.4]),
                                np.array([1.5, 0.7]))

    def predict(params, norm):
        z_hat = nets.mlp_predict(spec, params, norm.t_in(t).reshape(-1, 1))
        return norm.z_out(z_hat)

    # input side: tau_a = (t-ca)/ha equals W'·tau_b + shift
    (W1, b1), *mid, (WL, bL) = params
    W1b = W1 * (norm_b.t_half / norm_a.t_half)
    b1b = b1 + W1[0] * (norm_b.t_center - norm_a.t_center) / norm_a.t_half
    WLb = WL * (norm_a.z_std / norm_b.z_std)
    bLb = (bL * norm_a.z_std + norm_a.z_mean - norm_b.z_mean) / norm_b.z_std
    params_b = [(W1b, b1b)] + mid + [(WLb, bLb)]
    assert np.allclose(predict(params, norm_a), predict(params_b, norm_b),
                       atol=1e-10)


def test_loss_history_csv(tmp_path):
    path = tmp_path / "history.csv"
    nets.save_loss_history(path, [3.0, 2.0, 1.0])
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,loss"
    assert lines[1].startswith("0,3")


def _fit_state(spec, t_obs, z_obs, norm, cfg, seed_label):
    stream = nk.RngStream(1234).substream(seed_label)
    params = nets.init_params(spec, stream)
    x_obs = norm.t_in(t_obs).reshape(-1, 1)
    z_hat = (z_obs - norm.z_mean) / norm.z_std

    def build(tape, leaves):
        out = nets.mlp_apply_tangent(spec, nets.arrays_to_pairs(leaves),
                                     x_obs)[0]
        return nets.observation_loss(out, z_hat)

    arrays, _ = nets.fit_arrays(nets.pairs_to_arrays(params), build, cfg)
    return nets.arrays_to_pairs(arrays)


def test_data_only_fit_of_full_trajectory():
    """Dense noise-free data: the shipped net reaches RMSE(u) < 1e-2."""
    traj = simulate()
    z = np.column_stack([traj.u, traj.v])
    norm = nets.Normalization.from_data(traj.t, z)
    cfg = nets.TrainConfig(adam_iters=2000, adam_lr=2e-3, lbfgs_iters=200)
    pairs = _fit_state(SIN_NET, traj.t, z, norm, cfg, "baseline-fit")
    pred = norm.z_out(nets.mlp_predict(SIN_NET, pairs, norm.t_in(traj.t).reshape(-1, 1)))
    assert rmse(pred[:, 0], traj.u) < 1e-2


def test_subsampled_data_only_fit_generalizes_poorly():
    """Stride-16 observations: dense-grid error far above train error."""
    traj = simulate()
    obs = subsample(traj, stride=16)
    z_obs = np.column_stack([obs.u, obs.v])
    norm = nets.Normalization.from_data(traj.t, z_obs)
    cfg = nets.TrainConfig(adam_iters=2000, adam_lr=2e-3, lbfgs_iters=200)
    pairs = _fit_state(SIN_NET, obs.t, z_obs, norm, cfg, "sparse-fit")
    pred_train = norm.z_out(
        nets.mlp_predict(SIN_NET, pairs, norm.t_in(obs.t).reshape(-1, 1)))[:, 0]
    pred_dense = norm.z_out(
        nets.mlp_predict(SIN_NET, pairs, norm.t_in(traj.t).reshape(-1, 1)))[:, 0]
    train_err = rmse(pred_train, obs.u)
    test_err = rmse(pred_dense, traj.u)
    assert test_err > 3.0 * train_err
