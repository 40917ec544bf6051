"""Neural-ODE stepping/training and Hamiltonian-network contracts."""

import numpy as np
import pytest

import oracles
from duffbench import filters as flt
from duffbench import nets
from duffbench import neural_ode as node
from duffbench import numkit as nk
from duffbench.duffing import (
    DEFAULT_RATE,
    ForcingSpec,
    OscillatorParams,
    simulate,
    stage_forces,
)
from duffbench.metrics import rmse

TRUTH = OscillatorParams()


def true_flow(params):
    def func(z, f):
        z = np.asarray(z, dtype=float)
        u, v = z[..., 0], z[..., 1]
        return np.stack([v, params.acceleration(u, v, f)], axis=-1)
    return func


def test_zero_flow_is_identity():
    func = lambda z, f: np.zeros_like(z)
    z = np.array([0.3, -0.7])
    out = node.node_step(func, z, (1.0, 1.0, 1.0), node.IntegratorSpec("rk4", 0.1))
    assert np.array_equal(out, z)


def test_rk4_step_matches_filter_propagation_bitwise():
    """The neural-ODE step and the filters' per-op propagation of the
    true flow (which the filter steps match bit for bit) agree bit for
    bit."""
    forcing = ForcingSpec()
    h = 1.0 / DEFAULT_RATE
    z = nk.RngStream(0).uniform(-1.0, 1.0, size=(200, 2))
    stages = stage_forces(forcing, 3.0, h)
    stepped = node.node_step(true_flow(TRUTH), z, stages,
                             node.IntegratorSpec("rk4", h))
    propagated = oracles.propagate(z, flt.AugmentedState(theta_names=()),
                                   TRUTH, h, stages)
    assert np.array_equal(stepped, propagated)


def test_rk4_step_matches_simulator_step():
    """One generic RK4 step reproduces simulate's scalar loop to rounding
    (it cubes as u*u*u where the generic flow takes u**3)."""
    forcing = ForcingSpec()
    z0 = (0.11, -0.23)
    traj = simulate(TRUTH, forcing, n=2, substeps=1, z0=z0)
    h = 1.0 / DEFAULT_RATE
    stepped = node.node_step(true_flow(TRUTH), np.array(z0),
                             stage_forces(forcing, 0.0, h),
                             node.IntegratorSpec("rk4", h))
    expected = np.array([traj.u[1], traj.v[1]])
    assert np.all(np.abs(stepped - expected) <= 1e-13 * np.abs(expected))


def test_euler_order_of_accuracy():
    """One-step error of explicit Euler scales like h² (ratio 4 per halving)."""
    z = np.array([0.2, 0.1])
    f = 0.7

    def exact(h):
        # tiny-step rk4 reference over the same horizon
        steps = 512
        out = z.copy()
        for _ in range(steps):
            out = node.node_step(true_flow(TRUTH), out, (f, f, f),
                                 node.IntegratorSpec("rk4", h / steps))
        return out

    errs = []
    for h in (0.2, 0.1):
        one = node.node_step(true_flow(TRUTH), z, (f, f, f),
                             node.IntegratorSpec("euler", h))
        errs.append(np.linalg.norm(one - exact(h)))
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5


def test_rk4_order_of_accuracy():
    """One-step error of RK4 scales like h⁵ vs the exact constant-f flow,
    so halving h divides the error by ~32; the spec's per-halving factor
    of 16 applies to the accumulated (global) error over a fixed horizon."""
    z = np.array([0.2, 0.1])
    f = 0.7

    def exact(h):
        steps = 512
        out = z.copy()
        for _ in range(steps):
            out = node.node_step(true_flow(TRUTH), out, (f, f, f),
                                 node.IntegratorSpec("rk4", h / steps))
        return out

    def global_err(h):
        steps = int(round(0.8 / h))
        out = z.copy()
        for _ in range(steps):
            out = node.node_step(true_flow(TRUTH), out, (f, f, f),
                                 node.IntegratorSpec("rk4", h))
        return np.linalg.norm(out - exact_horizon())

    def exact_horizon():
        steps = 4096
        out = z.copy()
        for _ in range(steps):
            out = node.node_step(true_flow(TRUTH), out, (f, f, f),
                                 node.IntegratorSpec("rk4", 0.8 / steps))
        return out

    ratio = global_err(0.2) / global_err(0.1)
    assert 14.0 < ratio < 18.0


def test_non_finite_step_raises():
    func = lambda z, f: np.full_like(z, np.inf)
    with pytest.raises(FloatingPointError):
        node.node_step(func, np.zeros(2), (0.0, 0.0, 0.0),
                       node.IntegratorSpec("euler", 0.1))


# -- the flow call ------------------------------------------------------------

FLOW_CALL_NETS = [node.FLOW_NET,
                  nets.MlpSpec(widths=(3, 16, 16, 2), activation="sin",
                               omega0=3.0)]


def _chain(func):
    return lambda z, f: oracles.ode_flow_chain(func, z, f)


@pytest.mark.parametrize("spec", FLOW_CALL_NETS, ids=lambda s: s.activation)
def test_flow_call_matches_wrapper_chain_bitwise(spec):
    func = _flow(spec)
    stream = nk.RngStream(5)
    z = stream.uniform(-1.0, 1.0, size=(40, 2))
    f = stream.uniform(-1.0, 1.0, size=(40, 1))
    cases = [(z[0], np.float64(0.3)), (z[0].tolist(), 2), (z, 0.3), (z, f),
             (z.reshape(5, 8, 2), f.reshape(5, 8, 1))]
    for zs, fs in cases:
        assert _same_bits(func(zs, fs), _chain(func)(zs, fs))


@pytest.mark.parametrize("kind", node.INTEGRATORS)
@pytest.mark.parametrize("spec", FLOW_CALL_NETS, ids=lambda s: s.activation)
def test_rollout_matches_wrapper_chain_at_every_step(spec, kind):
    func = _flow(spec)
    integ = node.IntegratorSpec(kind, 1.0 / DEFAULT_RATE)
    args = (np.array([0.1, -0.2]), ForcingSpec(), 96, DEFAULT_RATE, integ)
    path = node.rollout(func, *args)
    ref = node.rollout(_chain(func), *args)
    assert np.all(path[1:] != path[:-1])
    for k in range(len(path)):
        assert _same_bits(path[k], ref[k]), k


def _calls_until_divergence(flow, n):
    calls = []

    def counted(z, f):
        calls.append(None)
        return flow(z, f)

    with pytest.raises(node.StepDivergenceError), \
            np.errstate(over="ignore", invalid="ignore"):
        node.rollout(counted, np.zeros(2), ForcingSpec(), n, DEFAULT_RATE)
    return len(calls)


def test_diverging_flow_raises_at_the_same_step_as_the_wrapper_chain():
    """An output layer scaled by 1e306 around a 1e307 bias drives the
    state past the float range after some dozens of steps; both calls
    raise at the same one."""
    func = _flow(node.FLOW_NET)
    W, b = func.params[-1]
    params = func.params[:-1] + [(1e306 * W, 1e306 * b + 1e307)]
    func = node.OdeFunc(func.spec, params, func.scale)
    calls = _calls_until_divergence(func, 1024)
    assert calls == _calls_until_divergence(_chain(func), 1024)
    assert 4 < calls < 4 * 1023 and calls % 4 == 0


@pytest.fixture(scope="module")
def trained_flow():
    forcing = ForcingSpec()
    traj = simulate(TRUTH, forcing)
    dataset = node.OneStepDataset.from_trajectory(traj, forcing)
    func, history = node.node_train(
        dataset, seed=1234,
        train=nets.TrainConfig(adam_iters=2000, adam_lr=3e-3, lbfgs_iters=300))
    return traj, forcing, dataset, func, history


def test_single_pair_memorization():
    forcing = ForcingSpec()
    traj = simulate(TRUTH, forcing, n=3)
    dataset = node.OneStepDataset.from_trajectory(traj, forcing)
    one = node.OneStepDataset(dataset.z[:1], dataset.z_next[:1],
                              tuple(s[:1] for s in dataset.f_stages),
                              dataset.h)
    func, history = node.node_train(
        one, seed=5, spec=nets.MlpSpec(widths=(3, 16, 2)),
        train=nets.TrainConfig(adam_iters=2000, adam_lr=1e-2, lbfgs_iters=100))
    pred = node.node_step(func, one.z[0],
                          tuple(s[0] for s in one.f_stages),
                          node.IntegratorSpec(h=one.h))
    assert np.linalg.norm(pred - one.z_next[0]) < 1e-6


def test_trained_flow_one_step_error(trained_flow):
    traj, forcing, dataset, func, history = trained_flow
    integ = node.IntegratorSpec(h=dataset.h)
    errs = []
    for k in range(0, len(dataset), 100):
        stages = tuple(float(s[k]) for s in dataset.f_stages)
        out = node.node_step(func, dataset.z[k], stages, integ)
        errs.append(np.linalg.norm(out - dataset.z_next[k]))
    assert np.mean(errs) < 1e-3


def test_linear_flow_jacobian_matches_state_matrix():
    params = OscillatorParams(k3=0.0)
    forcing = ForcingSpec()
    traj = simulate(params, forcing)
    dataset = node.OneStepDataset.from_trajectory(traj, forcing)
    func, _ = node.node_train(
        dataset, seed=1234,
        train=nets.TrainConfig(adam_iters=1500, adam_lr=3e-3, lbfgs_iters=200))
    A = np.array([[0.0, 1.0], [-params.k / params.m, -params.c / params.m]])
    eps = 1e-5
    J = np.zeros((2, 2))
    for j in range(2):
        dz = np.zeros(2)
        dz[j] = eps
        J[:, j] = (func(dz, 0.0) - func(-dz, 0.0)) / (2 * eps)
    assert np.linalg.norm(J - A) / np.linalg.norm(A) < 0.10


def test_free_run_rollout(trained_flow):
    traj, forcing, dataset, func, _ = trained_flow
    refined = func
    for horizon, lr in zip(node.REFINE_HORIZONS, node.REFINE_RATES):
        lbfgs = 50 if horizon == node.REFINE_HORIZONS[-1] else 0
        refined = node.multistep_refine(
            refined, dataset, horizon,
            nets.TrainConfig(adam_iters=250, adam_lr=lr, lbfgs_iters=lbfgs))
    path = node.rollout(refined, np.array([traj.u[0], traj.v[0]]), forcing,
                        len(traj), traj.rate)
    rel = rmse(path[:, 0], traj.u) / np.sqrt(np.mean(traj.u ** 2))
    assert rel < 0.10


def test_multistep_refine_improves_undertrained_rollout():
    forcing = ForcingSpec()
    traj = simulate(TRUTH, forcing)
    dataset = node.OneStepDataset.from_trajectory(traj, forcing)
    func, _ = node.node_train(
        dataset, seed=7,
        train=nets.TrainConfig(adam_iters=500, adam_lr=3e-3, lbfgs_iters=0))
    base_path = node.rollout(func, np.array([traj.u[0], traj.v[0]]), forcing,
                             len(traj), traj.rate)
    refined = node.multistep_refine(
        func, dataset, 16,
        nets.TrainConfig(adam_iters=250, adam_lr=1e-3, lbfgs_iters=0))
    ref_path = node.rollout(refined, np.array([traj.u[0], traj.v[0]]),
                            forcing, len(traj), traj.rate)
    assert rmse(ref_path[:, 0], traj.u) < rmse(base_path[:, 0], traj.u)
    with pytest.raises(ValueError):
        node.multistep_refine(func, dataset, 0,
                              nets.TrainConfig(adam_iters=1, lbfgs_iters=0))


# -- the fused window loss ---------------------------------------------------

WINDOW_NETS = [nets.MlpSpec(widths=(3, 16, 16, 2)),
               nets.MlpSpec(widths=(3, 16, 16, 2), activation="sin",
                            omega0=3.0)]
# (window starts, horizon): every pair one step ahead as in node_train,
# the half-overlapping windows of multistep_refine, a single window
WINDOWS = {
    "one-step-all-pairs": (lambda n: np.arange(n), 1),
    "h4": (lambda n: np.arange(0, n - 4, 2), 4),
    "h16": (lambda n: np.arange(0, n - 16, 8), 16),
    "h64": (lambda n: np.arange(0, n - 64, 32), 64),
    "single-window": (lambda n: np.array([5]), 16),
}


@pytest.fixture(scope="module")
def short_dataset():
    forcing = ForcingSpec()
    return node.OneStepDataset.from_trajectory(
        simulate(TRUTH, forcing, n=160), forcing)


def _flow(spec, seed=3):
    return node.OdeFunc(spec, nets.init_params(spec, nk.RngStream(seed)),
                        np.array([1.5, 2.0, 0.7]))


def _loss_and_adjoints(build, func, windows, h, workspace=None):
    tape = nk.Tape(workspace)
    leaves = [tape.leaf(a) for a in nets.pairs_to_arrays(func.params)]
    loss = build(func, nets.arrays_to_pairs(leaves), windows, h)
    return loss, nk.backward(loss, leaves), len(tape.nodes) - len(leaves)


def _fused_on_second_tape(func, windows, h):
    """(loss, adjoints, node count, forward slabs, sweep slabs) of the
    fused loss on the second of two tapes sharing one workspace. The
    first evaluated other parameters, so every slab the second draws
    holds stale values."""
    workspace = nk.Workspace()
    _loss_and_adjoints(node.rk4_windows_loss, _flow(func.spec, seed=4),
                       windows, h, workspace)
    tape = nk.Tape(workspace)
    leaves = [tape.leaf(a) for a in nets.pairs_to_arrays(func.params)]
    loss = node.rk4_windows_loss(func, nets.arrays_to_pairs(leaves),
                                 windows, h)
    forward = workspace.used
    adjoints = nk.backward(loss, leaves)
    return (loss, adjoints, len(tape.nodes) - len(leaves),
            workspace.arrays[:forward], workspace.arrays[forward:])


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _case_windows(dataset, case):
    starts, horizon = WINDOWS[case]
    return node.rollout_windows(dataset, starts(len(dataset)), horizon)


# chunk row budgets: one stage application per chunk; three per chunk,
# which leaves a remainder chunk at every horizon
ROW_BUDGETS = {"one-row": (lambda rows: 1, 1),
               "remainder": (lambda rows: 3 * rows, 3)}


def _assert_matches_per_op_chain(windows, spec, h, nonzero=True):
    """The fused loss's value and adjoints equal the chain's bit for bit;
    returns the chunk size, read off the sweep's slabs."""
    func = _flow(spec)
    fused, fused_adj, fused_nodes, slabs, sweep = _fused_on_second_tape(
        func, windows, h)
    chain, chain_adj, _ = _loss_and_adjoints(
        oracles.rk4_windows_loss_per_op, func, windows, h)
    assert fused_nodes == 1 and fused.op == "rk4_windows"
    assert fused.value == chain.value
    for a, b in zip(fused_adj, chain_adj):
        assert _same_bits(a, b)
        assert np.any(a != 0.0) or not nonzero
    # forward slabs stack every stage application, then come the rows of
    # the input scale and of each layer's bias, and the steps' residuals;
    # sweep slabs a chunk
    n, horizon = len(windows[0]), len(windows[2])
    rows = [(n, w) for w in (2, *spec.widths[1:])] + [(horizon, n, 2)]
    assert {len(slab) for slab in slabs[:-len(rows)]} == {4 * horizon}
    assert [slab.shape for slab in slabs[-len(rows):]] == rows
    chunks = {len(slab) for slab in sweep}
    assert len(chunks) == 1
    return chunks.pop()


@pytest.mark.parametrize("spec", WINDOW_NETS, ids=lambda s: s.activation)
@pytest.mark.parametrize("case", sorted(WINDOWS))
def test_window_loss_matches_per_op_chain_bitwise(short_dataset, spec, case):
    _assert_matches_per_op_chain(_case_windows(short_dataset, case), spec,
                                 short_dataset.h)


@pytest.mark.parametrize("budget", sorted(ROW_BUDGETS))
@pytest.mark.parametrize("spec", WINDOW_NETS, ids=lambda s: s.activation)
@pytest.mark.parametrize("case", sorted(WINDOWS))
def test_window_loss_chunks_match_per_op_chain_bitwise(short_dataset, spec,
                                                       case, budget,
                                                       monkeypatch):
    windows = _case_windows(short_dataset, case)
    # a chunk of k applications holds k times this many rows
    rows = max(len(windows[0]), *spec.widths[:-1])
    budget_of, chunk = ROW_BUDGETS[budget]
    monkeypatch.setattr(node, "ADJOINT_ROWS", budget_of(rows))
    applications = 4 * len(windows[2])
    drawn = _assert_matches_per_op_chain(windows, spec, short_dataset.h)
    assert drawn == min(chunk, applications)
    assert applications % drawn or drawn == 1


def test_window_loss_with_unit_width_layers_matches_per_op_chain_bitwise(
        short_dataset):
    """One-unit layers make one-element weight and bias products, which a
    plain sum over the stack would add pairwise, not in order."""
    spec = nets.MlpSpec(widths=(3, 1, 1, 2))
    chunk = _assert_matches_per_op_chain(
        _case_windows(short_dataset, "h16"), spec, short_dataset.h,
        nonzero=False)
    assert chunk >= 8


@pytest.mark.parametrize("activation", ["tanh", "sin"])
def test_window_loss_without_hidden_layers_matches_per_op_chain_bitwise(
        short_dataset, activation):
    """`[node] widths = 3, 2` makes an affine flow: no hidden slabs."""
    spec = nets.MlpSpec(widths=(3, 2), activation=activation)
    _assert_matches_per_op_chain(_case_windows(short_dataset, "h4"), spec,
                                 short_dataset.h)


@pytest.mark.parametrize("spec", WINDOW_NETS, ids=lambda s: s.activation)
def test_workspace_reuse_matches_fresh_evaluations(short_dataset, spec):
    windows = _case_windows(short_dataset, "h16")
    funcs = [_flow(spec), _flow(spec, seed=4)]
    fresh = [_loss_and_adjoints(node.rk4_windows_loss, f, windows,
                                short_dataset.h)[:2] for f in funcs]
    workspace = nk.Workspace()
    graphs, results = [], []
    for func, (ref, ref_adj) in zip(funcs, fresh):
        tape = nk.Tape(workspace)
        leaves = [tape.leaf(a) for a in nets.pairs_to_arrays(func.params)]
        loss = node.rk4_windows_loss(func, nets.arrays_to_pairs(leaves),
                                     windows, short_dataset.h)
        if graphs:  # the second tape took the workspace over
            with pytest.raises(RuntimeError, match="later tape"):
                nk.backward(*graphs[-1])
        graphs.append((loss, leaves))
        assert loss.value == ref.value
        results.append(nk.backward(loss, leaves))
    assert fresh[0][0].value != fresh[1][0].value
    # the first adjoints are the caller's, not views of the workspace
    for adjoints, (_, ref_adj) in zip(results, fresh):
        assert all(_same_bits(a, b) for a, b in zip(adjoints, ref_adj))


def test_one_workspace_serves_other_windows_and_input_scales(short_dataset):
    """The loss writes its scaled force columns on every evaluation, so
    one workspace that served other windows of the same shape, then
    another input scale, gives a fresh evaluation's bits."""
    n, h = len(short_dataset), short_dataset.h
    func = _flow(node.FLOW_NET)
    shifted = node.rollout_windows(short_dataset, np.arange(1, n - 3, 2), 4)
    cases = [(func, _case_windows(short_dataset, "h4")), (func, shifted),
             (node.OdeFunc(func.spec, func.params, 2.0 * func.scale),
              shifted)]
    workspace, values = nk.Workspace(), []
    for f, windows in cases:
        loss, adjoints, _ = _loss_and_adjoints(node.rk4_windows_loss, f,
                                               windows, h, workspace)
        ref, ref_adj, _ = _loss_and_adjoints(node.rk4_windows_loss, f,
                                             windows, h)
        assert loss.value == ref.value
        assert all(_same_bits(a, b) for a, b in zip(adjoints, ref_adj))
        if values:  # the same slabs served the other case
            assert all(a is b for a, b in zip(workspace.arrays, arrays))
        arrays = list(workspace.arrays)
        values.append(loss.value)
    assert len(set(values)) == len(cases)


def test_neural_ode_fit_reuses_its_slabs(short_dataset, monkeypatch):
    """From its second evaluation on, a fit's workspace hands the window
    loss the array objects it handed the first."""
    served, loss = [], node.rk4_windows_loss

    def recording(func, pairs, windows, h):
        tape, drawn = pairs[0][0].tape, []
        draw = tape.empty
        tape.empty = lambda shape: drawn.append(draw(shape)) or drawn[-1]
        served.append(drawn)
        return loss(func, pairs, windows, h)

    monkeypatch.setattr(node, "rk4_windows_loss", recording)
    node.multistep_refine(_flow(node.FLOW_NET), short_dataset, 4,
                          nets.TrainConfig(adam_iters=4, lbfgs_iters=3))
    first = served[0]
    # three input stacks, the rows of the input scale and of the three
    # biases, and the residual slab; then eleven for the sweep
    assert len(first) == 19
    n = first[0].shape[1]
    assert [a.shape for a in first[3:8]] == [(n, 2), (n, 32), (n, 32),
                                             (n, 2), (4, n, 2)]
    assert len(served) > 5
    for drawn in served[1:]:
        assert len(drawn) in (8, 19)  # a rejected trial takes no gradient
        assert all(a is b for a, b in zip(drawn, first))


@pytest.mark.parametrize("case", sorted(WINDOWS))
def test_workspace_chunk_buffers_stay_within_the_row_budget(short_dataset,
                                                            case):
    *_, sweep = _fused_on_second_tape(
        _flow(node.FLOW_NET), _case_windows(short_dataset, case),
        short_dataset.h)
    assert sweep
    for slab in sweep:
        width = slab.shape[-1]
        assert slab.nbytes <= node.ADJOINT_ROWS * width * slab.itemsize


@pytest.mark.parametrize("spec", WINDOW_NETS, ids=lambda s: s.activation)
def test_window_loss_gradient_matches_finite_differences(short_dataset,
                                                         spec):
    windows = node.rollout_windows(short_dataset, np.arange(0, 100, 20), 8)
    func = _flow(spec)
    _, adjoints, _ = _loss_and_adjoints(node.rk4_windows_loss, func, windows,
                                        short_dataset.h)
    flat, metas = nets.flatten(nets.pairs_to_arrays(func.params))
    g_flat = np.concatenate([np.ravel(g) for g in adjoints])

    def value(theta):
        tape = nk.Tape()
        leaves = [tape.leaf(a) for a in nets.unflatten(theta, metas)]
        return float(node.rk4_windows_loss(
            func, nets.arrays_to_pairs(leaves), windows,
            short_dataset.h).value)

    for i in range(0, len(flat), 7):
        step = 1e-6 * max(1.0, abs(flat[i]))
        hi, lo = flat.copy(), flat.copy()
        hi[i] += step
        lo[i] -= step
        ref = (value(hi) - value(lo)) / (2.0 * step)
        assert abs(g_flat[i] - ref) / max(1.0, abs(ref)) < 1e-6


def test_refine_evaluation_records_one_node(short_dataset, monkeypatch):
    builds = []

    def capture(arrays0, loss_builder, config):
        builds.append(loss_builder)
        return arrays0, []

    monkeypatch.setattr(nets, "fit_arrays", capture)
    func = _flow(node.FLOW_NET)
    node.multistep_refine(func, short_dataset, 16,
                          nets.TrainConfig(adam_iters=1, lbfgs_iters=0))
    tape = nk.Tape()
    leaves = [tape.leaf(a) for a in nets.pairs_to_arrays(func.params)]
    loss = builds[0](tape, leaves)
    assert len(tape.nodes) == len(leaves) + 1
    assert loss.parents == tuple(leaves)


# -- Hamiltonian side ---------------------------------------------------------


@pytest.fixture(scope="module")
def conservative_traj():
    params = OscillatorParams(c=0.0)
    return params, simulate(params, ForcingSpec(amplitudes=0.0), z0=(1.0, 0.0))


def test_true_hamiltonian_nulls_loss(conservative_traj):
    params, traj = conservative_traj
    q, p, qd, pd = node.conservative_batch(traj, params.m)
    H = node.AnalyticHamiltonian(params)
    assert oracles.hnn_loss_value(H, q, p, qd, pd) < 1e-10


def test_zero_networks_loss_is_mean_squared_rates(conservative_traj):
    params, traj = conservative_traj
    q, p, qd, pd = node.conservative_batch(traj, params.m)

    class ZeroH:
        def grads(self, q, p):
            return np.zeros_like(q), np.zeros_like(p)

    expected = float(np.mean(qd ** 2) + np.mean(pd ** 2))
    assert oracles.hnn_loss_value(ZeroH(), q, p, qd, pd) == pytest.approx(expected)


def test_hnn_loss_gradient_matches_fd(conservative_traj):
    params, traj = conservative_traj
    q, p, qd, pd = node.conservative_batch(traj, params.m)
    q, p, qd, pd = q[:40], p[:40], qd[:40], pd[:40]
    hnet = node.HamiltonianNet.for_data(
        q, p, qd, pd, seed=3,
        t_spec=nets.MlpSpec(widths=(1, 8, 1)),
        v_spec=nets.MlpSpec(widths=(1, 8, 1)))
    arrays0 = hnet.arrays()
    flat, metas = nets.flatten(arrays0)
    n_t = 2 * len(hnet.t_params)

    def loss_of(theta):
        h2 = hnet.with_arrays(nets.unflatten(theta, metas))
        return oracles.hnn_loss_value(h2, q, p, qd, pd)

    tape = nk.Tape()
    leaves = [tape.leaf(a) for a in nets.unflatten(flat, metas)]
    dH_dq, dH_dp = hnet.grads_nodes(nets.arrays_to_pairs(leaves[:n_t]),
                                    nets.arrays_to_pairs(leaves[n_t:]), q, p)
    r1 = dH_dp - tape.constant(qd)
    r2 = dH_dq + tape.constant(pd)
    loss = (nk.vsum(r1 * r1) + nk.vsum(r2 * r2)) / float(len(qd))
    gs = nk.backward(loss, leaves)
    g_flat = np.concatenate([np.ravel(g) for g in gs])

    h = 1e-5
    for i in range(0, len(flat), 11):
        hi = flat.copy()
        hi[i] += h
        lo = flat.copy()
        lo[i] -= h
        ref = (loss_of(hi) - loss_of(lo)) / (2 * h)
        assert abs(g_flat[i] - ref) / max(1.0, abs(ref)) < 1e-5


def test_numpy_grads_equal_tape_grads_bitwise(conservative_traj):
    params, traj = conservative_traj
    q, p, qd, pd = node.conservative_batch(traj, params.m)
    hnet = node.HamiltonianNet.for_data(q, p, qd, pd, seed=3)
    tape = nk.Tape()
    t_pairs = [(tape.constant(W), tape.constant(b)) for W, b in hnet.t_params]
    v_pairs = [(tape.constant(W), tape.constant(b)) for W, b in hnet.v_params]
    dq_node, dp_node = hnet.grads_nodes(t_pairs, v_pairs, q, p)
    dq, dp = hnet.grads(q, p)
    assert np.array_equal(dq, dq_node.value)
    assert np.array_equal(dp, dp_node.value)


@pytest.fixture(scope="module")
def trained_hnn(conservative_traj):
    params, traj = conservative_traj
    q, p, qd, pd = node.conservative_batch(traj, params.m)
    hnet, history = node.hnn_train(
        q, p, qd, pd, seed=1234,
        train=nets.TrainConfig(adam_iters=3000, adam_lr=3e-3, lbfgs_iters=300))
    return params, traj, hnet, history


def test_learned_field_matches_analytic_on_grid(trained_hnn):
    params, traj, hnet, _ = trained_hnn
    q, p, *_ = node.conservative_batch(traj, params.m)
    qs = np.linspace(q.min(), q.max(), 20)
    ps = np.linspace(p.min(), p.max(), 20)
    QQ, PP = np.meshgrid(qs, ps)
    ref = node.AnalyticHamiltonian(params)
    dq_ref, dp_ref = ref.grads(QQ.ravel(), PP.ravel())
    dq_hat, dp_hat = hnet.grads(QQ.ravel(), PP.ravel())
    # field is (dH/dp, -dH/dq)
    num = np.sqrt(np.mean((dp_hat - dp_ref) ** 2 + (dq_hat - dq_ref) ** 2))
    den = np.sqrt(np.mean(dp_ref ** 2 + dq_ref ** 2))
    assert num / den < 0.05


def test_hnn_energy_drift_under_symplectic_euler(trained_hnn):
    params, traj, hnet, _ = trained_hnn
    q, p, *_ = node.conservative_batch(traj, params.m)
    _, _, H = node.integrate_hamiltonian(hnet, q[0], p[0], 5e-3, 1000)
    drift = np.max(np.abs(H - H[0])) / abs(H[0])
    assert drift < 0.01


def test_symplectic_step_reads_one_partial_per_half_step(conservative_traj,
                                                        monkeypatch):
    params, traj = conservative_traj
    small = nets.MlpSpec(widths=(1, 8, 1))
    hnet = node.HamiltonianNet.for_data(
        *node.conservative_batch(traj, params.m), seed=5, t_spec=small,
        v_spec=small)
    q, p, h = 0.3, -0.8, 0.01
    dH_dq, _ = hnet.grads(q, p)
    _, dH_dp = hnet.grads(q, p - h * dH_dq)
    passes = []
    tangent = nets.mlp_predict_tangent
    monkeypatch.setattr(nets, "mlp_predict_tangent",
                        lambda *args: passes.append(1) or tangent(*args))
    q1, p1 = node.symplectic_step(hnet, q, p, h)
    assert len(passes) == 2
    assert p1 == p - h * dH_dq and q1 == q + h * dH_dp


def test_symplectic_map_preserves_canonical_form():
    params = OscillatorParams(c=0.0, k3=0.0)
    H = node.AnalyticHamiltonian(params)
    h = 0.05
    # one-step map is linear; build its Jacobian exactly
    J = np.zeros((2, 2))
    for j, dz in enumerate(np.eye(2)):
        q1, p1 = node.symplectic_step(H, dz[0], dz[1], h)
        J[:, j] = (q1, p1)
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.max(np.abs(J.T @ omega @ J - omega)) < 1e-10


def test_identity_at_zero_step():
    H = node.AnalyticHamiltonian(OscillatorParams(c=0.0))
    q1, p1 = node.symplectic_step(H, 0.7, -0.2, 0.0)
    assert (q1, p1) == (0.7, -0.2)


def test_explicit_vs_semi_implicit_substitution():
    H = node.AnalyticHamiltonian(OscillatorParams(c=0.0))
    q, p, h = 0.4, 1.3, 0.07
    q_semi, p_semi = node.symplectic_step(H, q, p, h)
    q_expl, p_expl = node.symplectic_step(H, q, p, h, ordering="explicit")
    assert p_semi == p_expl  # same momentum kick
    # position differs exactly by using the updated momentum
    _, dH_dp_old = H.grads(q, p)
    _, dH_dp_new = H.grads(q, p_semi)
    assert q_expl == q + h * dH_dp_old
    assert q_semi == q + h * dH_dp_new


def test_long_run_energy_drift_symplectic_vs_explicit():
    params = OscillatorParams(c=0.0, k3=0.0)
    H = node.AnalyticHamiltonian(params)
    h, steps = 1e-3, 100_000
    _, _, H_symp = node.integrate_hamiltonian(H, 1.0, 0.0, h, steps)
    drift_symp = np.max(np.abs(H_symp - H_symp[0])) / abs(H_symp[0])
    _, _, H_expl = node.integrate_hamiltonian(H, 1.0, 0.0, h, steps,
                                              method="explicit-euler")
    drift_expl = np.max(np.abs(H_expl - H_expl[0])) / abs(H_expl[0])
    assert drift_symp < 1e-3
    assert drift_expl > 1e-2
    assert drift_expl > 10.0 * drift_symp
