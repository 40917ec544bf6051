"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line with the measured values; run
`pytest -rA` (the repo default) to see all lines in the summary.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from duffbench import cli, dictionary, gp, nets, pgnn, pinn
from duffbench import filters as flt
from duffbench import neural_ode as node
from duffbench import numkit as nk
from duffbench.duffing import (
    DEFAULT_SUBSTEPS,
    ForcingSpec,
    OscillatorParams,
    add_noise,
    hamiltonian,
    multisine_force,
    rms,
    simulate,
    subsample,
)
from duffbench.metrics import percent_error, rmse

import oracles

TRUTH = OscillatorParams()
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def gate(number, name, checks, elapsed=None, budget=None):
    """One acceptance line; `checks` is a list of (ok, detail)."""
    if elapsed is not None and budget is not None:
        checks = checks + [(elapsed < budget,
                            f"runtime {elapsed:.1f}s < {budget:.0f}s")]
    ok = all(c for c, _ in checks)
    detail = "; ".join(d for _, d in checks)
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def default_traj():
    return simulate()


def test_c01_simulator_fidelity(default_traj):
    params_lin = OscillatorParams(k3=0.0)
    start = time.time()
    coarse = simulate(params_lin)
    elapsed = time.time() - start
    fine = simulate(params_lin, substeps=100 * DEFAULT_SUBSTEPS)
    rel = rmse(coarse.u, fine.u) / rms(fine.u)

    cons = OscillatorParams(c=0.0)
    traj = simulate(cons, ForcingSpec(amplitudes=0.0), z0=(1.0, 0.0))
    H = hamiltonian(cons, traj.u, traj.v)
    drift = float(np.max(np.abs(H - H[0])) / abs(H[0]))

    gate(1, "simulator fidelity", [
        (rel < 1e-6, f"linear rel RMSE vs 100x oracle {rel:.2e} < 1e-6"),
        (drift < 1e-6, f"Hamiltonian drift {drift:.2e} < 1e-6"),
    ], elapsed, 1.0)


def test_c02_autodiff_suite(default_traj):
    start = time.time()
    checked = oracles.check_random_graphs(100, rel_tol=1e-6)

    # module losses vs finite differences at 1e-5
    worst = 0.0
    stream = nk.RngStream(31).substream("acceptance-losses")

    def fd_check(build_loss, arrays):
        nonlocal worst
        flat, metas = nets.flatten(arrays)
        tape = nk.Tape()
        leaves = [tape.leaf(a) for a in nets.unflatten(flat, metas)]
        loss = build_loss(tape, leaves)
        gs = nk.backward(loss, leaves)
        g_flat = np.concatenate([np.ravel(g) for g in gs])

        def val(theta):
            t2 = nk.Tape()
            lv = [t2.leaf(a) for a in nets.unflatten(theta, metas)]
            return float(build_loss(t2, lv).value)

        h = 1e-5
        for i in range(0, len(flat), max(len(flat) // 12, 1)):
            hi = flat.copy()
            hi[i] += h
            lo = flat.copy()
            lo[i] -= h
            ref = (val(hi) - val(lo)) / (2 * h)
            worst = max(worst, abs(g_flat[i] - ref) / max(1.0, abs(ref)))

    # observation loss through a small network
    spec = nets.MlpSpec(widths=(1, 8, 2))
    params = nets.init_params(spec, stream)
    x = stream.normal(size=(9, 1))
    obs = stream.normal(size=(9, 2))
    fd_check(lambda tape, leaves: nets.observation_loss(
        nets.mlp_apply_tangent(spec, nets.arrays_to_pairs(leaves), x)[0],
        obs), nets.pairs_to_arrays(params))

    # pinn total loss incl. trainable parameters
    idx = np.arange(0, 1024, 16)
    prob = pinn.PinnProblem(
        pinn.PinnConfig(weights=pinn.LossWeights(1.0, 1.0, 0.0),
                        trainable=("c", "k", "k3"),
                        net=nets.MlpSpec(widths=(1, 8, 2)),
                        train=nets.TrainConfig(adam_iters=1, lbfgs_iters=0)),
        t_col=default_traj.t[idx], f_col=default_traj.f[idx],
        z_obs=np.column_stack([default_traj.u[idx], default_traj.v[idx]]))
    fd_check(prob.total_loss, prob.init_arrays(stream))

    # hamiltonian-net loss
    cons = OscillatorParams(c=0.0)
    cons_traj = simulate(cons, ForcingSpec(amplitudes=0.0), n=64, z0=(1.0, 0.0))
    q, p, qd, pd = node.conservative_batch(cons_traj, cons.m)
    hnet = node.HamiltonianNet.for_data(q, p, qd, pd, seed=5,
                                        t_spec=nets.MlpSpec(widths=(1, 8, 1)),
                                        v_spec=nets.MlpSpec(widths=(1, 8, 1)))
    n_t = 2 * len(hnet.t_params)

    def hnn_build(tape, leaves):
        dq, dp = hnet.grads_nodes(nets.arrays_to_pairs(leaves[:n_t]),
                                  nets.arrays_to_pairs(leaves[n_t:]), q, p)
        r1 = dp - tape.constant(qd)
        r2 = dq + tape.constant(pd)
        return (nk.vsum(r1 * r1) + nk.vsum(r2 * r2)) / float(len(q))

    fd_check(hnn_build, hnet.arrays())
    elapsed = time.time() - start
    gate(2, "autodiff suite", [
        (checked == 100, f"{checked}/100 random graphs at 1e-6"),
        (worst < 1e-5, f"worst module-loss gradient error {worst:.2e} < 1e-5"),
    ], elapsed, 10.0)


def test_c03_filters(default_traj):
    start = time.time()
    # linear subproblem equivalence
    params = OscillatorParams(k3=0.0)
    forcing = ForcingSpec()
    lin = simulate(params, forcing, n=200)
    stream = nk.RngStream(7).substream("lin-noise")
    y = add_noise(lin.a, 0.05, stream)
    noise = flt.NoiseConfig(q_velocity=1e-8,
                            r_measurement=(0.05 * rms(lin.a)) ** 2)
    layout0 = flt.AugmentedState(theta_names=())
    h = 1.0 / lin.rate
    phi, affine, C, D = oracles.kf_matrices(params, h)
    Q = np.diag([0.0, noise.q_velocity])
    belief = flt.GaussianBelief(np.zeros(2), np.diag([1e-2, 1e-2]))
    mean, cov = np.zeros(2), np.diag([1e-2, 1e-2])
    ukf_worst = 0.0
    for k in range(1, len(lin)):
        t_prev = lin.t[k - 1]
        stages = (float(multisine_force(forcing, t_prev)),
                  float(multisine_force(forcing, t_prev + 0.5 * h)),
                  float(multisine_force(forcing, t_prev + h)))
        belief = flt.ukf_step(belief, layout0, params, stages,
                              float(lin.f[k]), float(y[k]), h, noise)
        mean, cov = oracles.kf_step(mean, cov, phi, affine(*stages), C, D,
                                    float(lin.f[k]), float(y[k]), Q,
                                    noise.r_measurement)
        ukf_worst = max(ukf_worst, float(np.max(np.abs(belief.mean - mean))))

    # PF within 3 posterior std of the KF
    stream = nk.RngStream(11)
    y2 = add_noise(lin.a, 0.05, stream.substream("lin-noise"))
    init_stream = stream.substream("pf-gauss-init")
    particles = init_stream.normal(size=(1000, 2)) @ np.linalg.cholesky(
        np.diag([1e-2, 1e-2])).T
    ensemble = flt.ParticleEnsemble(particles, np.full(1000, 1e-3))
    mean, cov = np.zeros(2), np.diag([1e-2, 1e-2])
    run_stream = stream.substream("pf-run")
    pf_ok = True
    for k in range(1, len(lin)):
        t_prev = lin.t[k - 1]
        stages = (float(multisine_force(forcing, t_prev)),
                  float(multisine_force(forcing, t_prev + 0.5 * h)),
                  float(multisine_force(forcing, t_prev + h)))
        ensemble = flt.pf_step(ensemble, layout0, params, stages,
                               float(lin.f[k]), float(y2[k]), h, noise,
                               run_stream)
        mean, cov = oracles.kf_step(mean, cov, phi, affine(*stages), C, D,
                                    float(lin.f[k]), float(y2[k]), Q,
                                    noise.r_measurement)
        sd = np.sqrt(np.diag(cov))
        pf_ok &= bool(np.all(np.abs(ensemble.mean() - mean) <= 3.0 * sd))

    # full nonlinear runs from the paper's initial guesses
    master = nk.RngStream(2025)
    y3 = add_noise(default_traj.a, 0.085, master.substream("sim-noise"))
    noise3 = flt.NoiseConfig.matched(default_traj.a, 0.085)
    layout = flt.AugmentedState()
    ukf_res = flt.run_ukf(default_traj, ForcingSpec(), y3, layout,
                          flt.default_ukf_init(layout, (0.0, 0.0)), TRUTH,
                          noise3)
    pf_res = flt.run_pf(default_traj, ForcingSpec(), y3, layout,
                        flt.default_pf_init(layout, 1000, (0.0, 0.0),
                                            master.substream("init")),
                        TRUTH, noise3, master.substream("filter"))
    target = {"k": 15.0, "c": 1.0, "k3": 100.0}
    ukf_err = max(abs(v - target[n]) / target[n]
                  for n, v in ukf_res.final_params().items())
    pf_err = max(abs(v - target[n]) / target[n]
                 for n, v in pf_res.final_params().items())
    elapsed = time.time() - start
    gate(3, "UKF/PF", [
        (ukf_worst < 1e-8, f"UKF vs KF oracle {ukf_worst:.1e} < 1e-8"),
        (pf_ok, "PF mean within 3 posterior std of KF"),
        (ukf_err < 0.10, f"UKF worst parameter error {100 * ukf_err:.2f}% < 10%"),
        (pf_err < 0.15, f"PF worst parameter error {100 * pf_err:.2f}% < 15%"),
    ], elapsed, 30.0)


def test_c04_sindy(default_traj):
    start = time.time()
    lib = dictionary.build_library(default_traj)
    out = dictionary.stlsq(lib, TRUTH.m * default_traj.a, threshold=0.1)
    expected = {"u": -15.0, "v": -1.0, "u^3": -100.0, "f": 1.0}
    support_ok = set(out.active()) == set(expected)
    coeff_err = max(abs(out.active().get(n, 0.0) - ref) / abs(ref)
                    for n, ref in expected.items())
    lin = simulate(OscillatorParams(k3=0.0))
    lin_out = dictionary.stlsq(dictionary.build_library(lin),
                               TRUTH.m * lin.a, threshold=0.1)
    cubic_zero = lin_out.values[lin_out.names.index("u^3")] == 0.0
    elapsed = time.time() - start
    gate(4, "SINDy recovery", [
        (support_ok, f"support {sorted(out.active())} == [f, u, u^3, v]"),
        (coeff_err < 0.01, f"worst coefficient error {100 * coeff_err:.3f}% < 1%"),
        (cubic_zero, "linear case excludes u^3 exactly"),
    ], elapsed, 1.0)


def test_c05_pinn_discovery(default_traj):
    start = time.time()
    res = pinn.run_equation_discovery(default_traj, nonlinear=True, seed=1234)
    elapsed = time.time() - start
    errors = {n: percent_error(res.estimates[n], getattr(TRUTH, n))
              for n in res.problem.config.trainable}
    worst = max(errors.values())
    details = ", ".join(f"{n}={res.estimates[n]:.3f} ({errors[n]:.2f}%)"
                        for n in errors)
    gate(5, "PINN equation discovery", [
        (worst < 5.0, f"{details}; worst {worst:.2f}% < 5%"),
    ], elapsed, 300.0)


def test_c06_pinn_enhanced(default_traj):
    start = time.time()
    res = pinn.run_enhanced_learning(default_traj, stride=16, seed=1234)
    elapsed = time.time() - start
    informed = rmse(res.informed_pred[:, 0], default_traj.u)
    baseline = rmse(res.baseline_pred[:, 0], default_traj.u)
    ratio = informed / baseline
    gate(6, "PINN enhanced learning", [
        (informed < baseline,
         f"informed RMSE(u) {informed:.4f} < baseline {baseline:.4f}"),
        (ratio < 0.5, f"ratio {ratio:.3f} < 0.5"),
    ], elapsed, 300.0)


def test_c07_pinn_forward(default_traj):
    start = time.time()
    res = pinn.run_forward_model(default_traj, TRUTH, ForcingSpec(),
                                 seed=1234)
    elapsed = time.time() - start
    rel = rmse(res.pred[:, 0], default_traj.u) / rms(default_traj.u)
    gate(7, "PINN forward modelling", [
        (rel < 0.05, f"rel RMSE(u) {rel:.4f} < 0.05"),
    ], elapsed, 300.0)


def test_c08_pgnn(default_traj):
    start = time.time()
    res = pgnn.run_guided(default_traj, ForcingSpec(), TRUTH, seed=1234,
                          train=nets.TrainConfig(adam_iters=2000,
                                                 adam_lr=2e-3,
                                                 lbfgs_iters=300))
    elapsed = time.time() - start
    combined = {"u": rmse(res.combined[:, 0], default_traj.u),
                "v": rmse(res.combined[:, 1], default_traj.v)}
    prior = {"u": rmse(res.prior_traj.u, default_traj.u),
             "v": rmse(res.prior_traj.v, default_traj.v)}
    gate(8, "PGNN guided residual", [
        (combined[x] < prior[x],
         f"RMSE({x}) {combined[x]:.4f} < prior {prior[x]:.4f}")
        for x in ("u", "v")
    ], elapsed, 180.0)


def test_c09_gp(default_traj):
    start = time.time()
    obs = subsample(default_traj, stride=12)
    master = nk.RngStream(2025)
    y = add_noise(obs.u, 0.085, master.substream("sim-noise"))
    nv = (0.085 * rms(default_traj.u)) ** 2
    se = gp.fit(obs.t, y, gp.KernelSpec(kind="se", noise_var=nv), seed=2025)
    sdof = gp.fit(obs.t, y, gp.KernelSpec(kind="sdof", noise_var=nv),
                  seed=2025)
    pred_se = se.predict(default_traj.t)
    pred_sdof = sdof.predict(default_traj.t)
    rmse_se = rmse(pred_se.mean, default_traj.u)
    rmse_sdof = rmse(pred_sdof.mean, default_traj.u)
    coverage = float(pred_sdof.covers(default_traj.u).mean())
    K = gp.kernel_matrix(se.spec, obs.t) + se.spec.noise_var * np.eye(len(obs))
    lml_ref = oracles.dense_lml(K, y)
    lml_err = abs(se.log_marginal_likelihood - lml_ref) / abs(lml_ref)
    elapsed = time.time() - start
    gate(9, "GP kernels", [
        (rmse_sdof < rmse_se,
         f"oscillator-kernel RMSE {rmse_sdof:.4f} < SE {rmse_se:.4f}"),
        (pred_sdof.std.mean() < pred_se.std.mean(),
         f"mean std {pred_sdof.std.mean():.4f} < {pred_se.std.mean():.4f}"),
        (coverage >= 0.90, f"2-sigma coverage {coverage:.3f} >= 0.90"),
        (lml_err < 1e-8, f"LML vs dense oracle rel err {lml_err:.1e} < 1e-8"),
    ], elapsed, 30.0)


def test_c10_neural_ode(default_traj):
    start = time.time()

    def true_flow(z, f):
        z = np.asarray(z, dtype=float)
        u, v = z[..., 0], z[..., 1]
        return np.stack([v, TRUTH.acceleration(u, v, f)], axis=-1)

    z = np.array([0.2, 0.1])
    f = 0.7

    def exact(h):
        steps = 512
        out = z.copy()
        for _ in range(steps):
            out = node.node_step(true_flow, out, (f, f, f),
                                 node.IntegratorSpec("rk4", h / steps))
        return out

    errs = []
    for h in (0.2, 0.1):
        one = node.node_step(true_flow, z, (f, f, f),
                             node.IntegratorSpec("euler", h))
        errs.append(np.linalg.norm(one - exact(h)))
    euler_ratio = errs[0] / errs[1]

    def exact_horizon():
        steps = 4096
        out = z.copy()
        for _ in range(steps):
            out = node.node_step(true_flow, out, (f, f, f),
                                 node.IntegratorSpec("rk4", 0.8 / steps))
        return out

    ref = exact_horizon()

    def global_err(h):
        steps = int(round(0.8 / h))
        out = z.copy()
        for _ in range(steps):
            out = node.node_step(true_flow, out, (f, f, f),
                                 node.IntegratorSpec("rk4", h))
        return np.linalg.norm(out - ref)

    rk4_ratio = global_err(0.2) / global_err(0.1)

    forcing = ForcingSpec()
    dataset = node.OneStepDataset.from_trajectory(default_traj, forcing)
    func, _ = node.train_k1_predictor(
        dataset, seed=1234,
        train=nets.TrainConfig(adam_iters=2000, adam_lr=3e-3,
                               lbfgs_iters=300))
    path = node.rollout(func, np.array([default_traj.u[0],
                                        default_traj.v[0]]),
                        forcing, len(default_traj), default_traj.rate)
    rel = rmse(path[:, 0], default_traj.u) / rms(default_traj.u)
    elapsed = time.time() - start
    gate(10, "neural ODE", [
        (3.5 < euler_ratio < 4.5, f"euler halving ratio {euler_ratio:.2f} in 4±0.5"),
        (14.0 < rk4_ratio < 18.0, f"rk4 halving ratio {rk4_ratio:.2f} in 16±2"),
        (rel < 0.10, f"free-run rollout rel RMSE(u) {rel:.4f} < 0.10"),
    ], elapsed, 300.0)


def test_c11_hamiltonian(default_traj):
    start = time.time()
    cons = OscillatorParams(c=0.0)
    traj = simulate(cons, ForcingSpec(amplitudes=0.0), z0=(1.0, 0.0))
    q, p, qd, pd = node.conservative_batch(traj, cons.m)
    hnet, _ = node.hnn_train(q, p, qd, pd, seed=1234,
                             train=nets.TrainConfig(adam_iters=3000,
                                                    adam_lr=3e-3,
                                                    lbfgs_iters=300))
    qs = np.linspace(q.min(), q.max(), 20)
    ps = np.linspace(p.min(), p.max(), 20)
    QQ, PP = np.meshgrid(qs, ps)
    ref = node.AnalyticHamiltonian(cons)
    dq_ref, dp_ref = ref.grads(QQ.ravel(), PP.ravel())
    dq_hat, dp_hat = hnet.grads(QQ.ravel(), PP.ravel())
    field_err = float(np.sqrt(np.mean((dp_hat - dp_ref) ** 2
                                      + (dq_hat - dq_ref) ** 2))
                      / np.sqrt(np.mean(dp_ref ** 2 + dq_ref ** 2)))

    harmonic = node.AnalyticHamiltonian(OscillatorParams(c=0.0, k3=0.0))
    h_step = 0.05
    J = np.zeros((2, 2))
    for j, dz in enumerate(np.eye(2)):
        q1, p1 = node.symplectic_step(harmonic, dz[0], dz[1], h_step)
        J[:, j] = (q1, p1)
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    symp_defect = float(np.max(np.abs(J.T @ omega @ J - omega)))

    _, _, H_symp = node.integrate_hamiltonian(harmonic, 1.0, 0.0, 1e-3,
                                              100_000)
    drift_symp = float(np.max(np.abs(H_symp - H_symp[0])) / abs(H_symp[0]))
    _, _, H_expl = node.integrate_hamiltonian(harmonic, 1.0, 0.0, 1e-3,
                                              100_000,
                                              method="explicit-euler")
    drift_expl = float(np.max(np.abs(H_expl - H_expl[0])) / abs(H_expl[0]))
    elapsed = time.time() - start
    gate(11, "Hamiltonian/symplectic", [
        (field_err < 0.05, f"field rel RMSE {field_err:.4f} < 0.05"),
        (symp_defect < 1e-10, f"J'ΩJ defect {symp_defect:.1e} < 1e-10"),
        (drift_symp < 1e-3, f"symplectic drift {drift_symp:.2e} < 1e-3"),
        (drift_expl > 1e-2, f"explicit-euler drift {drift_expl:.2e} > 1e-2"),
    ], elapsed, 300.0)


def test_c12_harness_determinism(tmp_path):
    checks = []
    for name in ("sindy.cfg", "ukf.cfg"):
        cfg_path = CONFIG_DIR / name
        out_a = tmp_path / (name + ".a")
        out_b = tmp_path / (name + ".b")
        assert cli.main(["run", str(cfg_path), "--out", str(out_a)]) == 0
        assert cli.main(["run", str(cfg_path), "--out", str(out_b)]) == 0
        same = True
        csvs = sorted(out_a.glob("*.csv"))
        for f in csvs:
            same &= f.read_bytes() == (out_b / f.name).read_bytes()
        checks.append((same and len(csvs) > 0,
                       f"{name}: {len(csvs)} CSVs byte-identical"))
    gate(12, "harness determinism", checks)
