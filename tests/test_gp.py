"""GP kernels, marginal likelihood against a dense oracle, predictions."""

import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from duffbench import gp
from duffbench import nets
from duffbench import numkit as nk
from duffbench.duffing import add_noise, rms, simulate, subsample
from duffbench.metrics import rmse


@pytest.fixture(scope="module")
def stride12_task():
    traj = simulate()
    obs = subsample(traj, stride=12)
    noise_std = 0.085 * rms(traj.u)
    y = add_noise(obs.u, 0.085, nk.RngStream(2025).substream("gp-noise"))
    return traj, obs, y, noise_std


def test_se_kernel_diagonal_value():
    spec = gp.KernelSpec(kind="se", lengthscale=2.0, signal_scale=1.5)
    assert gp.kernel_eval(spec, 3.0, 3.0) == pytest.approx(1.5 ** 2)


def test_sdof_kernel_diagonal_value():
    spec = gp.KernelSpec(kind="sdof", sigma_f=2.0)
    expected = 4.0 / (4.0 * spec.m ** 2 * spec.zeta * spec.omega_n ** 3)
    assert gp.kernel_eval(spec, 1.0, 1.0) == pytest.approx(expected, rel=1e-12)


def test_sdof_kernel_symmetry():
    spec = gp.KernelSpec(kind="sdof", sigma_f=1.3)
    stream = nk.RngStream(3).substream("sym")
    for _ in range(25):
        a, b = stream.uniform(0.0, 120.0, size=2)
        assert gp.kernel_eval(spec, a, b) == pytest.approx(
            gp.kernel_eval(spec, b, a), abs=1e-14)


def test_kernels_are_stationary():
    for spec in (gp.KernelSpec(kind="se", lengthscale=1.7),
                 gp.KernelSpec(kind="sdof", sigma_f=0.8)):
        assert gp.kernel_eval(spec, 5.0 + 3.0, 2.0 + 3.0) == pytest.approx(
            gp.kernel_eval(spec, 5.0, 2.0), abs=1e-15)


def test_overdamped_sdof_rejected():
    with pytest.raises(gp.KernelError):
        gp.KernelSpec(kind="sdof", c=30.0)  # zeta > 1
    with pytest.raises(gp.KernelError, match="zeta"):
        gp.KernelSpec(kind="sdof", c=0.0)  # undamped: zeta = 0
    with pytest.raises(gp.KernelError, match="stiffness"):
        gp.KernelSpec(kind="sdof", k=0.0)
    gp.KernelSpec(kind="se", c=0.0, k=0.0)  # the SE kernel reads neither


def test_sdof_kernel_decay_envelope():
    spec = gp.KernelSpec(kind="sdof", sigma_f=1.0)
    k0 = gp.kernel_eval(spec, 0.0, 0.0)
    zw = spec.zeta * spec.omega_n
    bound = 1.0 + zw / spec.omega_d
    taus = np.linspace(-60, 60, 601)
    vals = gp.kernel_eval(spec, taus, 0.0)
    assert np.all(np.abs(vals) <= k0 * np.exp(-zw * np.abs(taus)) * bound
                  + 1e-12)


def test_gram_matrices_positive_semidefinite():
    stream = nk.RngStream(11).substream("psd")
    t = np.sort(stream.uniform(0.0, 120.0, size=40))
    for _ in range(5):
        se = gp.KernelSpec(kind="se",
                           lengthscale=float(stream.uniform(0.3, 10.0)),
                           signal_scale=float(stream.uniform(0.05, 2.0)))
        sdof = gp.KernelSpec(kind="sdof",
                             sigma_f=float(stream.uniform(0.1, 5.0)))
        for spec in (se, sdof):
            K = gp.kernel_matrix(spec, t)
            w = np.linalg.eigvalsh(K)
            assert w.min() >= -1e-10


def test_lml_matches_dense_oracle(stride12_task):
    traj, obs, y, noise_std = stride12_task
    spec = gp.KernelSpec(kind="se", lengthscale=1.2, signal_scale=0.15,
                         noise_var=1e-4)
    model = gp.GpModel(obs.t, y, spec)
    K = gp.kernel_matrix(spec, obs.t) + spec.noise_var * np.eye(len(obs.t))
    ref = oracles.dense_lml(K, y)
    assert model.log_marginal_likelihood == pytest.approx(ref, rel=1e-8)


def test_zero_targets_zero_mean(stride12_task):
    traj, obs, _, _ = stride12_task
    spec = gp.KernelSpec(kind="se", lengthscale=2.0, signal_scale=0.2,
                         noise_var=1e-6)
    model = gp.GpModel(obs.t, np.zeros(len(obs.t)), spec)
    pred = model.predict(traj.t)
    assert np.max(np.abs(pred.mean)) < 1e-12


def test_interpolation_at_training_points():
    t = np.linspace(0.0, 10.0, 12)
    y = np.sin(t)
    spec = gp.KernelSpec(kind="se", lengthscale=2.0, signal_scale=1.0,
                         noise_var=0.0)
    model = gp.GpModel(t, y, spec)
    pred = model.predict(t)
    assert np.max(np.abs(pred.mean - y)) < 1e-8
    assert np.max(pred.std) < 1e-4


def test_reversion_to_prior_far_from_data():
    t = np.linspace(0.0, 5.0, 8)
    y = np.sin(t)
    spec = gp.KernelSpec(kind="se", lengthscale=0.8, signal_scale=1.2,
                         noise_var=1e-8)
    model = gp.GpModel(t, y, spec)
    pred = model.predict(np.array([500.0]))
    assert abs(pred.mean[0]) < 1e-10
    assert pred.std[0] == pytest.approx(1.2, rel=1e-6)


def test_fit_requires_two_points():
    with pytest.raises(ValueError):
        gp.GpModel(np.array([1.0]), np.array([2.0]),
                   gp.KernelSpec(kind="se"))


@pytest.fixture(scope="module")
def fitted_pair(stride12_task):
    traj, obs, y, noise_std = stride12_task
    nv = noise_std ** 2
    se = gp.fit(obs.t, y, gp.KernelSpec(kind="se", noise_var=nv), seed=7)
    sdof = gp.fit(obs.t, y, gp.KernelSpec(kind="sdof", noise_var=nv), seed=7)
    return traj, se, sdof


def test_fit_succeeds_for_both_kernels(fitted_pair):
    traj, se, sdof = fitted_pair
    assert np.isfinite(se.log_marginal_likelihood)
    assert np.isfinite(sdof.log_marginal_likelihood)


def test_physics_kernel_beats_se_on_stride12(fitted_pair):
    traj, se, sdof = fitted_pair
    pred_se = se.predict(traj.t)
    pred_sdof = sdof.predict(traj.t)
    assert rmse(pred_sdof.mean, traj.u) < rmse(pred_se.mean, traj.u)
    assert pred_sdof.std.mean() < pred_se.std.mean()


def test_physics_kernel_coverage(fitted_pair):
    traj, _, sdof = fitted_pair
    pred = sdof.predict(traj.t)
    assert pred.covers(traj.u).mean() >= 0.90


# log-hyperparameters on both sides of each kernel's optimum on stride12
LML_THETAS = {"se": ([-0.5, -2.5], [0.0, -1.5], [0.7, -3.0]),
              "sdof": ([0.5], [1.5], [2.5])}


def _lml_case(stride12_task, kind):
    """(t, y, spec, fit_y, base): the record, and what `gp._per_fit`
    shares between the LML evaluations of one fit."""
    _, obs, y, noise_std = stride12_task
    spec = gp.KernelSpec(kind=kind, noise_var=noise_std ** 2)
    return (obs.t, y, spec) + gp._per_fit(spec, obs.t, y)


@pytest.mark.parametrize("kind", sorted(LML_THETAS))
def test_closed_form_lml_matches_dense_oracle(stride12_task, kind):
    t, y, spec, fit_y, base = _lml_case(stride12_task, kind)
    for theta in LML_THETAS[kind]:
        lml, _ = gp._lml_and_grad(kind, np.array(theta), fit_y, base,
                                  spec.noise_var)
        if kind == "se":
            tuned = replace(spec, lengthscale=math.exp(theta[0]),
                            signal_scale=math.exp(theta[1]))
        else:
            tuned = replace(spec, sigma_f=math.exp(theta[0]))
        K = gp.kernel_matrix(tuned, t) + spec.noise_var * np.eye(len(t))
        assert lml == pytest.approx(oracles.dense_lml(K, y), rel=1e-10)


@pytest.mark.parametrize("kind", sorted(LML_THETAS))
def test_closed_form_lml_gradient_matches_central_differences(stride12_task,
                                                              kind):
    _, _, spec, fit_y, base = _lml_case(stride12_task, kind)

    def lml(theta):
        return gp._lml_and_grad(kind, theta, fit_y, base, spec.noise_var)[0]

    for theta in map(np.array, LML_THETAS[kind]):
        _, grad = gp._lml_and_grad(kind, theta, fit_y, base, spec.noise_var)
        assert grad.shape == theta.shape
        for i in range(len(theta)):
            step = np.zeros_like(theta)
            step[i] = 1e-6 * max(1.0, abs(theta[i]))
            ref = (lml(theta + step) - lml(theta - step)) / (2.0 * step[i])
            assert abs(grad[i] - ref) <= 1e-6 * abs(ref)


def counting(module, name, calls):
    """`module.name`, logging each call's name to `calls`."""
    real = getattr(module, name)

    def wrapper(*args):
        calls.append(name)
        return real(*args)
    return wrapper


def test_lml_gradient_evaluation_factorizes_once(monkeypatch):
    """One SE LML+gradient evaluation: one Cholesky factor, L⁻¹ from one
    LAPACK call and no row-loop solve. One sdof evaluation: no factor and
    no solve, since its fit decomposes B once, for every restart."""
    names = ("cholesky", "solve_lower", "solve_upper")
    calls, eighs = [], []
    counts = []

    def one_evaluation(closure, theta0, iters, lr):
        del calls[:]
        closure(theta0)
        counts.append(tuple(calls.count(name) for name in names))
        return theta0, []

    for name in names:
        monkeypatch.setattr(nk.linalg, name,
                            counting(nk.linalg, name, calls))
    monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg, "eigh", eighs))
    monkeypatch.setattr(gp, "adam", one_evaluation)
    t = np.linspace(0.0, 10.0, 20)
    for kind in ("se", "sdof"):
        gp.fit(t, np.sin(t), gp.KernelSpec(kind=kind, noise_var=1e-2),
               restarts=1)
    assert counts == [(1, 0, 0), (0, 0, 0)]
    monkeypatch.setattr(gp, "adam", nets.adam)
    del eighs[:]
    gp.fit(t, np.sin(t), gp.KernelSpec(kind="sdof", noise_var=1e-2),
           restarts=3, steps=5)
    assert eighs == ["eigh"]


# strides of the default 1024-sample record giving n = 20, 86 and 256
@pytest.mark.parametrize("stride", [52, 12, 4])
def test_eigen_lml_matches_dense_and_cholesky_oracles(stride12_task, stride):
    traj, _, _, noise_std = stride12_task
    obs = subsample(traj, stride=stride)
    y = add_noise(obs.u, 0.085, nk.RngStream(2025).substream("gp-noise"))
    spec = gp.KernelSpec(kind="sdof", noise_var=noise_std ** 2)
    fit_y, lam = gp._per_fit(spec, obs.t, y)
    B = gp.kernel_matrix(spec, obs.t)
    noise = spec.noise_var * np.eye(len(obs.t))
    for theta in map(np.array, LML_THETAS["sdof"]):
        lml, grad = gp._lml_and_grad("sdof", theta, fit_y, lam,
                                     spec.noise_var)
        Kf = np.exp(2.0 * theta[0]) * B
        assert lml == pytest.approx(oracles.dense_lml(Kf + noise, y),
                                    rel=1e-8)
        assert grad[0] == pytest.approx(
            oracles.dense_lml_grad(Kf + noise, 2.0 * Kf, y), rel=1e-8)
        ref_lml, ref_grad = oracles.sdof_lml_and_grad_cholesky(
            theta, y, B, spec.noise_var)
        assert lml == pytest.approx(ref_lml, rel=1e-8)
        assert grad == pytest.approx(ref_grad, rel=1e-8)


def test_singular_spectrum_takes_the_cholesky_jitter():
    """Thrice-sampled times make B singular (30 zero eigenvalues), and with
    noise_var = 0 some computed dᵢ is ≤ 0: the eigen path shifts the
    spectrum by the jitter the Cholesky oracle adds to the diagonal.
    K + jitter·I then has a condition number near 1e10, which bounds how
    closely any two solvers agree."""
    t = np.repeat(np.linspace(0.0, 10.0, 15), 3)
    y = np.sin(t)
    spec = gp.KernelSpec(kind="sdof", noise_var=0.0)
    fit_y, lam = gp._per_fit(spec, t, y)
    assert lam.min() <= 0.0
    B = gp.kernel_matrix(spec, t)
    for theta in map(np.array, ([-1.0], [0.0], [1.0], [2.0])):
        lml, grad = gp._lml_and_grad("sdof", theta, fit_y, lam, 0.0)
        ref_lml, ref_grad = oracles.sdof_lml_and_grad_cholesky(theta, y, B,
                                                               0.0)
        assert np.isfinite(lml)
        assert lml == pytest.approx(ref_lml, rel=1e-6)
        assert grad == pytest.approx(ref_grad, rel=1e-4)


def test_eigendecomposition_failure_is_a_factorization_error(monkeypatch):
    def no_convergence(A):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    t = np.linspace(0.0, 10.0, 20)
    with pytest.raises(nk.linalg.FactorizationError, match="converge"):
        gp.fit(t, np.sin(t), gp.KernelSpec(kind="sdof", noise_var=1e-2))


def test_sdof_fits_the_full_record_at_stride_1(stride12_task, monkeypatch):
    """All 1024 samples: one eigendecomposition, then O(n) steps."""
    traj, _, _, noise_std = stride12_task
    y = add_noise(traj.u, 0.085, nk.RngStream(2025).substream("gp-noise"))
    eighs = []
    monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg, "eigh", eighs))
    model = gp.fit(traj.t, y, gp.KernelSpec(kind="sdof",
                                            noise_var=noise_std ** 2),
                   restarts=1, steps=200)
    assert eighs == ["eigh"]
    lml = model.log_marginal_likelihood
    K = gp.kernel_matrix(model.spec, traj.t) \
        + model.spec.noise_var * np.eye(len(traj.t))
    assert np.isfinite(lml)
    assert lml == pytest.approx(oracles.dense_lml(K, y), rel=1e-8)


def test_diverged_restart_is_skipped(monkeypatch):
    attempts = []

    def diverge_first(closure, theta0, iters, lr):
        attempts.append(theta0)
        if len(attempts) == 1:
            raise nets.TrainingDivergedError([])
        return theta0, []

    monkeypatch.setattr(gp, "adam", diverge_first)
    t = np.linspace(0.0, 10.0, 20)
    model = gp.fit(t, np.sin(t), gp.KernelSpec(kind="se", noise_var=1e-2),
                   restarts=2)
    assert len(attempts) == 2
    assert np.isfinite(model.log_marginal_likelihood)
