"""UKF/PF contracts, anchored on a hand-built linear Kalman filter oracle."""

import math

import numpy as np
import pytest

from duffbench import numkit as nk
from duffbench import filters as flt
from duffbench import neural_ode as node
from duffbench.duffing import (
    ForcingSpec,
    OscillatorParams,
    add_noise,
    multisine_force,
    simulate,
    stage_forces,
)
from duffbench.metrics import rmse

import oracles

TRUTH = OscillatorParams()
TARGET = {"k": 15.0, "c": 1.0, "k3": 100.0}
REST = (0.0, 0.0)  # the initial state of every record here


@pytest.fixture(scope="module")
def default_setup():
    forcing = ForcingSpec()
    traj = simulate(TRUTH, forcing)
    stream = nk.RngStream(2025)
    y = add_noise(traj.a, 0.085, stream.substream("sim-noise"))
    noise = flt.NoiseConfig.matched(traj.a, 0.085)
    return traj, forcing, y, noise


def pack(layout, z, params):
    """Augmented state [u, v, log θ...] with θ read from `params`."""
    log_theta = [np.log(getattr(params, name)) for name in layout.theta_names]
    return np.concatenate([np.asarray(z, dtype=float), log_theta])


def test_measurement_model_identity(default_setup):
    traj, _, _, _ = default_setup
    layout = flt.AugmentedState(theta_names=())
    x = np.column_stack([traj.u, traj.v])
    y = oracles.measurement(x, layout, TRUTH, traj.f)
    assert np.array_equal(y, traj.a)


def test_sigma_point_count_and_weights():
    mean = np.zeros(7)  # 5 states + 2 noise dims
    cov = np.eye(7)
    pts, w_mean, w_cov = flt._sigma_points(mean, cov)
    assert pts.shape == (15, 7)  # 2·(n_x + 2) + 1 with n_x = 5
    # scaled-UT weights have magnitude ~1/alpha² = 1e6, so "sums to one
    # by construction" can only be checked at eps relative to that scale
    assert math.fsum(w_mean) == pytest.approx(1.0, abs=1e-9)
    assert w_mean[1] == pytest.approx(w_mean[-1], abs=0.0)


def test_ukf_equals_kf_on_linear_subproblem():
    params = OscillatorParams(k3=0.0)
    forcing = ForcingSpec()
    traj = simulate(params, forcing, n=200)
    stream = nk.RngStream(7).substream("lin-noise")
    y = add_noise(traj.a, 0.05, stream)
    noise = flt.NoiseConfig(q_velocity=1e-8,
                            r_measurement=(0.05 * np.sqrt(np.mean(traj.a ** 2))) ** 2)
    layout = flt.AugmentedState(theta_names=())
    h = 1.0 / traj.rate
    phi, affine_term, C, D = oracles.kf_matrices(params, h)
    Q = np.diag([0.0, noise.q_velocity])

    mean = np.zeros(2)
    cov = np.diag([1e-2, 1e-2])
    belief = flt.GaussianBelief(mean.copy(), cov.copy())
    for k in range(1, len(traj)):
        t_prev = traj.t[k - 1]
        f_stages = (float(multisine_force(forcing, t_prev)),
                    float(multisine_force(forcing, t_prev + 0.5 * h)),
                    float(multisine_force(forcing, t_prev + h)))
        belief = flt.ukf_step(belief, layout, params, f_stages,
                              float(traj.f[k]), float(y[k]), h, noise)
        mean, cov = oracles.kf_step(mean, cov, phi, affine_term(*f_stages),
                                    C, D, float(traj.f[k]), float(y[k]), Q,
                                    noise.r_measurement)
        assert np.max(np.abs(belief.mean - mean)) < 1e-8


def test_ukf_fixed_point_at_truth():
    # substeps=1 so the filter's one-step RK4 model reproduces the
    # generator exactly and the update has a true fixed point
    forcing = ForcingSpec()
    traj = simulate(TRUTH, forcing, n=600, substeps=1)
    noise = flt.NoiseConfig.matched(traj.a, 0.085)
    layout = flt.AugmentedState()
    h = 1.0 / traj.rate
    k = 500
    mean = pack(layout, (traj.u[k], traj.v[k]), TRUTH)
    belief = flt.GaussianBelief(mean, 1e-14 * np.eye(5))
    t_prev = traj.t[k]
    f_stages = (float(multisine_force(forcing, t_prev)),
                float(multisine_force(forcing, t_prev + 0.5 * h)),
                float(multisine_force(forcing, t_prev + h)))
    out = flt.ukf_step(belief, layout, TRUTH, f_stages,
                       float(traj.f[k + 1]), float(traj.a[k + 1]), h, noise)
    truth_next = pack(layout, (traj.u[k + 1], traj.v[k + 1]), TRUTH)
    assert np.max(np.abs(out.mean - truth_next)) < 1e-6


def test_ukf_default_run_converges(default_setup):
    traj, forcing, y, noise = default_setup
    layout = flt.AugmentedState()
    res = flt.run_ukf(traj, forcing, y, layout,
                      flt.default_ukf_init(layout, REST), TRUTH, noise)
    for name, est in res.final_params().items():
        assert abs(est - TARGET[name]) / TARGET[name] < 0.10, (name, est)


def test_pf_single_particle_at_truth_keeps_weight(default_setup):
    traj, forcing, _, _ = default_setup
    layout = flt.AugmentedState()
    h = 1.0 / traj.rate
    particle = pack(layout, (traj.u[0], traj.v[0]), TRUTH)
    ensemble = flt.ParticleEnsemble(particle[None, :], np.array([1.0]))
    noise = flt.NoiseConfig(q_velocity=0.0, q_param=0.0, r_measurement=1e-300)
    f_stages = (float(multisine_force(forcing, 0.0)),
                float(multisine_force(forcing, 0.5 * h)),
                float(multisine_force(forcing, h)))
    # measurement from the particle's own one-step prediction: residual 0
    pred = oracles.propagate(particle[None, :], layout, TRUTH, h, f_stages)
    y_next = float(oracles.measurement(pred, layout, TRUTH, traj.f[1])[0])
    out = flt.pf_step(ensemble, layout, TRUTH, f_stages, float(traj.f[1]),
                      y_next, h, noise, nk.RngStream(1))
    assert out.weights[0] == 1.0


def _stepped_inputs(traj, forcing, y, samples):
    """(f_stages, f_next, y_next, h) of the first `samples` - 1 steps, as
    `filters._run` hands them to a step."""
    h = 1.0 / traj.rate
    stages = stage_forces(forcing, traj.t[:samples - 1], h)
    return [(f_stages, float(traj.f[k]), float(y[k]), h)
            for k, f_stages in enumerate(zip(*stages), start=1)]


def test_pf_step_matches_per_op_chain_bitwise(default_setup):
    """One exp per step on the ensemble's θ and RK4 stages on rows give
    the bits of the chain that took exp at every use on strided columns:
    particles, weights, θ, raw moments, ESS and the stream's next draw,
    over 300 samples with resampling."""
    traj, forcing, y, noise = default_setup
    layout = flt.AugmentedState()
    ens = ref = flt.default_pf_init(layout, 500, REST,
                                    nk.RngStream(6).substream("init"))
    stream, ref_stream = nk.RngStream(8), nk.RngStream(8)
    resampled = 0
    for inputs in _stepped_inputs(traj, forcing, y, 300):
        ens = flt.pf_step(ens, layout, TRUTH, *inputs, noise, stream)
        ref = oracles.pf_step_per_op(ref, layout, TRUTH, *inputs, noise,
                                     ref_stream)
        assert np.array_equal(ens.particles, ref.particles)
        assert np.array_equal(ens.weights, ref.weights)
        assert np.array_equal(ens.theta, ref.theta)
        assert ens.ess == ref.ess
        for got, want in zip(ens.raw_moments(),
                             oracles.particle_raw_moments_per_op(ref)):
            assert np.array_equal(got, want)
        resampled += bool(np.all(ens.weights == ens.weights[0]))
    assert resampled > 0
    assert np.array_equal(stream.normal(size=4), ref_stream.normal(size=4))


def test_ukf_step_matches_per_op_chain_bitwise(default_setup):
    """One exp of the sigma points' log-parameters, shared by propagation
    and measurement, gives the bits of the chain that took it twice:
    mean, covariance and raw moments over 300 samples."""
    traj, forcing, y, noise = default_setup
    layout = flt.AugmentedState()
    belief = ref = flt.default_ukf_init(layout, REST)
    for inputs in _stepped_inputs(traj, forcing, y, 300):
        belief = flt.ukf_step(belief, layout, TRUTH, *inputs, noise)
        ref = oracles.ukf_step_per_op(ref, layout, TRUTH, *inputs, noise)
        assert np.array_equal(belief.mean, ref.mean)
        assert np.array_equal(belief.cov, ref.cov)
        for got, want in zip(belief.raw_moments(),
                             oracles.gaussian_raw_moments_per_op(ref)):
            assert np.array_equal(got, want)


def test_ensemble_theta_is_exp_of_the_log_parameters():
    """A given θ is kept as it is; a missing one is exp of the log
    columns, as contiguous rows, for any subset of the parameters."""
    stream = nk.RngStream(9)
    for names in ((), ("c",), ("k", "c", "k3")):
        layout = flt.AugmentedState(theta_names=names)
        ens = flt.default_pf_init(layout, 7, REST, stream)
        assert ens.theta.shape == (len(names), 7)
        assert ens.theta.flags["C_CONTIGUOUS"]
        assert np.array_equal(ens.theta, np.exp(ens.particles[:, 2:]).T)
    given = np.ones((3, 7))
    assert flt.ParticleEnsemble(ens.particles, ens.weights, given).theta \
        is given


def test_run_pf_records_each_ensembles_ess(default_setup, monkeypatch):
    """`diagnostics["ess"]` holds the ESS each step's ensemble keeps."""
    traj, forcing, y, noise = default_setup
    layout = flt.AugmentedState()
    init = flt.default_pf_init(layout, 100, REST, nk.RngStream(3))
    ensembles = []
    step = flt.pf_step
    monkeypatch.setattr(flt, "pf_step",
                        lambda *args: ensembles.append(step(*args))
                        or ensembles[-1])
    res = flt.run_pf(traj.select(np.arange(60)), forcing, y[:60], layout,
                     init, TRUTH, noise, nk.RngStream(5))
    assert len(ensembles) == 59
    assert list(res.diagnostics["ess"]) == [e.ess for e in [init] + ensembles]


def test_pf_init_box(default_setup):
    layout = flt.AugmentedState()
    ens = flt.default_pf_init(layout, 1000, REST,
                              nk.RngStream(3).substream("box"))
    k = np.exp(ens.particles[:, 2])
    c = np.exp(ens.particles[:, 3])
    k3 = np.exp(ens.particles[:, 4])
    assert np.all((k >= 5.0) & (k <= 20.0))
    assert np.all((c >= 0.5) & (c <= 2.0))
    assert np.all((k3 >= 50.0) & (k3 <= 160.0))
    assert ens.ess == pytest.approx(1000.0)


def test_pf_tracks_kf_on_linear_subproblem():
    params = OscillatorParams(k3=0.0)
    forcing = ForcingSpec()
    traj = simulate(params, forcing, n=300)
    stream = nk.RngStream(11)
    y = add_noise(traj.a, 0.05, stream.substream("lin-noise"))
    r = (0.05 * np.sqrt(np.mean(traj.a ** 2))) ** 2
    noise = flt.NoiseConfig(q_velocity=1e-8, r_measurement=r)
    layout = flt.AugmentedState(theta_names=())
    h = 1.0 / traj.rate
    phi, affine_term, C, D = oracles.kf_matrices(params, h)
    Q = np.diag([0.0, noise.q_velocity])

    init_stream = stream.substream("pf-gauss-init")
    cov0 = np.diag([1e-2, 1e-2])
    particles = init_stream.normal(size=(1000, 2)) @ np.linalg.cholesky(cov0).T
    ensemble = flt.ParticleEnsemble(particles, np.full(1000, 1e-3))

    mean = np.zeros(2)
    cov = cov0.copy()
    run_stream = stream.substream("pf-run")
    for k in range(1, len(traj)):
        t_prev = traj.t[k - 1]
        f_stages = (float(multisine_force(forcing, t_prev)),
                    float(multisine_force(forcing, t_prev + 0.5 * h)),
                    float(multisine_force(forcing, t_prev + h)))
        ensemble = flt.pf_step(ensemble, layout, params, f_stages,
                               float(traj.f[k]), float(y[k]), h, noise,
                               run_stream)
        mean, cov = oracles.kf_step(mean, cov, phi, affine_term(*f_stages),
                                    C, D, float(traj.f[k]), float(y[k]), Q,
                                    noise.r_measurement)
        sd = np.sqrt(np.diag(cov))
        assert np.all(np.abs(ensemble.mean() - mean) <= 3.0 * sd)


def test_pf_default_run_converges(default_setup):
    traj, forcing, y, noise = default_setup
    layout = flt.AugmentedState()
    stream = nk.RngStream(2025)
    init = flt.default_pf_init(layout, 1000, REST,
                               stream.substream("pf-init"))
    res = flt.run_pf(traj, forcing, y, layout, init, TRUTH, noise,
                     stream.substream("pf-run"))
    box = {"k": (5.0, 20.0), "c": (0.5, 2.0), "k3": (50.0, 160.0)}
    for name, est in res.final_params().items():
        assert abs(est - TARGET[name]) / TARGET[name] < 0.15, (name, est)
        lo, hi = box[name]
        assert lo <= est <= hi


def test_weights_stay_normalized(default_setup):
    traj, forcing, y, noise = default_setup
    layout = flt.AugmentedState()
    stream = nk.RngStream(4)
    ens = flt.default_pf_init(layout, 200, REST, stream.substream("init"))
    h = 1.0 / traj.rate
    for k in range(1, 40):
        t_prev = traj.t[k - 1]
        f_stages = (float(multisine_force(forcing, t_prev)),
                    float(multisine_force(forcing, t_prev + 0.5 * h)),
                    float(multisine_force(forcing, t_prev + h)))
        ens = flt.pf_step(ens, layout, TRUTH, f_stages, float(traj.f[k]),
                          float(y[k]), h, noise, stream.substream("run"))
        assert np.all(ens.weights >= 0.0)
        assert np.sum(ens.weights) == pytest.approx(1.0, abs=1e-12)


def test_covariance_stays_symmetric(default_setup):
    traj, forcing, y, noise = default_setup
    layout = flt.AugmentedState()
    belief = flt.default_ukf_init(layout, REST)
    h = 1.0 / traj.rate
    for k in range(1, 60):
        t_prev = traj.t[k - 1]
        f_stages = (float(multisine_force(forcing, t_prev)),
                    float(multisine_force(forcing, t_prev + 0.5 * h)),
                    float(multisine_force(forcing, t_prev + h)))
        belief = flt.ukf_step(belief, layout, TRUTH, f_stages,
                              float(traj.f[k]), float(y[k]), h, noise)
        assert np.max(np.abs(belief.cov - belief.cov.T)) < 1e-12


def test_degeneracy_error():
    layout = flt.AugmentedState(theta_names=())
    ens = flt.ParticleEnsemble(np.zeros((3, 2)), np.full(3, 1 / 3))
    noise = flt.NoiseConfig(r_measurement=1e-310)
    with pytest.raises(flt.DegeneracyError):
        flt.pf_step(ens, layout, TRUTH, (0.0, 0.0, 0.0), 0.0, 5.0,
                    0.1, noise, nk.RngStream(1))


def test_one_diverging_particle_is_a_filter_divergence():
    """u³ of one particle overflows in its RK4 step while the others
    stay at rest: a named divergence, not vanished weights or a warning."""
    layout = flt.AugmentedState(theta_names=())
    particles = np.zeros((50, 2))
    particles[3, 0] = 1e103
    ens = flt.ParticleEnsemble(particles, np.full(50, 1 / 50))
    with pytest.raises(flt.FilterDivergenceError, match="particle"):
        flt.pf_step(ens, layout, TRUTH, (0.0, 0.0, 0.0), 0.0, 0.1, 0.1,
                    flt.NoiseConfig(r_measurement=1.0), nk.RngStream(1))


def test_finite_particles_past_every_innovation_are_a_filter_divergence():
    """Particles far out at u = 1e70, stepped over a tiny interval, stay
    finite, but k3·u³ puts every predicted measurement near 1e210, whose
    squared innovation overflows: a named divergence, not vanished
    weights or a warning."""
    layout = flt.AugmentedState(theta_names=())
    particles = np.zeros((50, 2))
    particles[:, 0] = np.linspace(1e70, 2e70, 50)
    ens = flt.ParticleEnsemble(particles, np.full(50, 1 / 50))
    with pytest.raises(flt.FilterDivergenceError, match="innovation"):
        flt.pf_step(ens, layout, TRUTH, (0.0, 0.0, 0.0), 0.0, 0.1, 1e-100,
                    flt.NoiseConfig(r_measurement=1.0), nk.RngStream(1))


def test_zero_measurement_variance_with_finite_innovations_is_degeneracy():
    layout = flt.AugmentedState(theta_names=())
    ens = flt.ParticleEnsemble(np.zeros((4, 2)), np.full(4, 1 / 4))
    with pytest.raises(flt.DegeneracyError):
        flt.pf_step(ens, layout, TRUTH, (0.0, 0.0, 0.0), 0.0, 5.0, 0.1,
                    flt.NoiseConfig(q_velocity=0.0, q_param=0.0,
                                    r_measurement=0.0), nk.RngStream(1))


def test_state_estimates_track_truth(default_setup):
    traj, forcing, y, noise = default_setup
    layout = flt.AugmentedState()
    res = flt.run_ukf(traj, forcing, y, layout,
                      flt.default_ukf_init(layout, REST), TRUTH, noise)
    assert rmse(res.mean[:, 0], traj.u) < 0.2 * np.sqrt(np.mean(traj.u ** 2))


def test_result_csv_layout(tmp_path, default_setup):
    traj, forcing, y, noise = default_setup
    layout = flt.AugmentedState()
    res = flt.run_ukf(traj.select(np.arange(50)), forcing, y[:50], layout,
                      flt.default_ukf_init(layout, REST), TRUTH, noise)
    path = tmp_path / "ukf.csv"
    res.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t,u_hat,v_hat,k_hat,c_hat,k3_hat,sd_u,sd_v,sd_k,sd_c,sd_k3"


def test_stepped_runs_read_forcing_phases_at_most_three_times(monkeypatch):
    """Stage forces are evaluated once per run, not once per step."""
    forcing = ForcingSpec()
    traj = simulate(TRUTH, forcing, n=64)
    y = add_noise(traj.a, 0.085, nk.RngStream(3))
    noise = flt.NoiseConfig.matched(traj.a, 0.085)
    layout = flt.AugmentedState()
    reads = []
    phases = ForcingSpec.phases
    monkeypatch.setattr(ForcingSpec, "phases", property(
        lambda spec: reads.append(spec) or phases.fget(spec)))

    def flow(z, f):
        u, v = z[..., 0], z[..., 1]
        return np.stack([v, TRUTH.acceleration(u, v, f)], axis=-1)

    runs = {
        "ukf": lambda: flt.run_ukf(traj, forcing, y, layout,
                                   flt.default_ukf_init(layout, REST),
                                   TRUTH, noise),
        "pf": lambda: flt.run_pf(
            traj, forcing, y, layout,
            flt.default_pf_init(layout, 200, REST, nk.RngStream(4)),
            TRUTH, noise, nk.RngStream(5)),
        "rollout": lambda: node.rollout(flow, np.zeros(2), forcing,
                                        len(traj), traj.rate),
    }
    for name, run in runs.items():
        reads.clear()
        run()
        assert 1 <= len(reads) <= 3, (name, len(reads))
