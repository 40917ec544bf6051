"""Shared independent oracles for the test suite.

Everything here is deliberately written without touching the package's
computation paths: finite differences, random scalar graphs evaluated
with plain numpy, a hand-rolled discrete Kalman filter, and the earlier
forms of six fast paths (the per-op network on the tape, the per-op
neural-ODE loss on the tape, the simulator with scalar forcing, the
PINN and PGNN losses that applied their network once per term, and the
oscillator-kernel GP likelihood from a Cholesky factor per evaluation)
that the fast ones must match: bit for bit, or to rounding.
"""

import math

import numpy as np

from duffbench import nets
from duffbench import numkit as nk
from duffbench.duffing import rk4_increment
from duffbench.numkit import linalg

NP_LIB = {"tanh": np.tanh, "sin": np.sin}
TAPE_LIB = {"tanh": nk.tanh, "sin": nk.sin}


def central_difference(f, xs, h=1e-6):
    """Gradient of f(list of floats) -> float by central differences."""
    xs = [float(x) for x in xs]
    grads = []
    for i, x in enumerate(xs):
        step = h * max(1.0, abs(x))
        hi = list(xs)
        lo = list(xs)
        hi[i] = x + step
        lo[i] = x - step
        grads.append((f(hi) - f(lo)) / (2.0 * step))
    return grads


def random_graph(stream, n_leaves, size):
    """One random scalar graph over {+, ×, tanh, sin, pow}.

    Returns a closure evaluating the same graph on tape leaves or raw
    floats, so the reverse pass and the finite-difference oracle see
    identical programs.
    """
    ops = []
    pool = n_leaves
    for _ in range(size):
        kind = ["add", "mul", "tanh", "sin", "pow2", "pow3"][
            int(stream.integers(0, 6))]
        i = int(stream.integers(0, pool))
        j = int(stream.integers(0, pool))
        ops.append((kind, i, j))
        pool += 1

    def evaluate(leaves, lib):
        vals = list(leaves)
        for kind, i, j in ops:
            if kind == "add":
                vals.append(vals[i] + vals[j])
            elif kind == "mul":
                vals.append(vals[i] * vals[j])
            elif kind == "tanh":
                vals.append(lib["tanh"](vals[i]))
            elif kind == "sin":
                vals.append(lib["sin"](vals[i]))
            elif kind == "pow2":
                vals.append(vals[i] ** 2)
            else:
                vals.append(vals[i] ** 3)
        out = vals[0]
        for v in vals[1:]:
            out = out + v
        return out

    return evaluate


def check_random_graphs(count, seed_label="graph-suite", rel_tol=1e-6):
    """Run `count` random-graph gradient checks; returns #checked."""
    stream = nk.RngStream(2024).substream(seed_label)
    checked = 0
    attempts = 0
    while checked < count and attempts < 4 * count:
        attempts += 1
        n_leaves = int(stream.integers(2, 5))
        size = int(stream.integers(3, 13))
        graph = random_graph(stream, n_leaves, size)
        x0 = stream.uniform(-1.5, 1.5, size=n_leaves)
        out_val = graph(list(x0), NP_LIB)
        if not np.isfinite(out_val) or abs(out_val) > 1e4:
            continue
        tape = nk.Tape()
        leaves = [tape.leaf(x) for x in x0]
        out = graph(leaves, TAPE_LIB)
        grads = nk.grad(out, wrt=leaves)
        fd = central_difference(lambda xs: graph(xs, NP_LIB), x0)
        for leaf, ref in zip(leaves, fd):
            err = abs(grads[leaf] - ref) / max(1.0, abs(ref))
            assert err < rel_tol, f"graph {checked}: ad={grads[leaf]} fd={ref}"
        checked += 1
    return checked


def kf_matrices(params, h):
    """Discrete affine map of one RK4 step on the linear oscillator,
    derived from the stage expansion independent of package stepping."""
    A = np.array([[0.0, 1.0], [-params.k / params.m, -params.c / params.m]])
    B = np.array([0.0, 1.0 / params.m])
    hA = h * A
    phi = (np.eye(2) + hA + hA @ hA / 2.0 + hA @ hA @ hA / 6.0
           + hA @ hA @ hA @ hA / 24.0)

    def affine_term(f1, f2, f4):
        k1 = B * f1
        k2 = 0.5 * h * A @ k1 + B * f2
        k3 = 0.5 * h * A @ k2 + B * f2
        k4 = h * A @ k3 + B * f4
        return h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)

    C = np.array([-params.k / params.m, -params.c / params.m])
    D = 1.0 / params.m
    return phi, affine_term, C, D


def kf_step(mean, cov, phi, d, C, D, f_next, y_next, Q, R):
    mean_pred = phi @ mean + d
    cov_pred = phi @ cov @ phi.T + Q
    innov = y_next - (C @ mean_pred + D * f_next)
    s = C @ cov_pred @ C + R
    gain = cov_pred @ C / s
    mean_new = mean_pred + gain * innov
    cov_new = cov_pred - np.outer(gain, C @ cov_pred)
    return mean_new, 0.5 * (cov_new + cov_new.T)


def dense_lml(K, y):
    """Closed-form GP log marginal likelihood via dense solve/slogdet."""
    n = len(y)
    _, logdet = np.linalg.slogdet(K)
    return float(-0.5 * y @ np.linalg.solve(K, y) - 0.5 * logdet
                 - 0.5 * n * np.log(2 * np.pi))


def dense_posterior(K, k_star, prior_var, y):
    """Posterior mean, std and LML of a zero-mean GP by dense solves: K the
    training covariance with its noise, k_star the (n, q) covariance with
    the query points and prior_var their prior variance."""
    mean = k_star.T @ np.linalg.solve(K, y)
    var = prior_var - np.sum(k_star * np.linalg.solve(K, k_star), axis=0)
    return mean, np.sqrt(np.maximum(var, 0.0)), dense_lml(K, y)


def dense_lml_grad(K, dK, y):
    """∂LML/∂θ = ½ tr((ααᵀ − K⁻¹) ∂K/∂θ) via dense solves, α = K⁻¹y."""
    alpha = np.linalg.solve(K, y)
    return float(0.5 * (alpha @ dK @ alpha - np.trace(np.linalg.solve(K, dK))))


def sdof_lml_and_grad_cholesky(theta, y, base, noise_var):
    """The oscillator kernel's LML and its gradient in (log σ_f,) from one
    jittered Cholesky factor of K = σ_f²·B + σ_n²·I, B the unit-σ_f Gram
    matrix: the dense path `gp.fit` took before it decomposed B once per
    fit. ∂LML/∂log σ_f = ½ tr((ααᵀ − K⁻¹)·2σ_f²B)."""
    n = len(y)
    Kf = np.exp(2.0 * theta[0]) * base
    eye = np.eye(n)
    L = linalg.cholesky_jittered(Kf + noise_var * eye)
    Linv = linalg.solve_lower(L, eye)
    w = Linv @ y
    alpha = Linv.T @ w
    lml = -0.5 * (w @ w) - 0.5 * linalg.log_det(L) \
        - 0.5 * n * math.log(2.0 * math.pi)
    WK = (np.outer(alpha, alpha) - Linv.T @ Linv) * Kf
    return float(lml), np.array([np.sum(WK)])


def hnn_loss_value(hamiltonian, q, p, qdot, pdot):
    """Mean squared Hamilton-equation residual of any H with .grads."""
    dH_dq, dH_dp = hamiltonian.grads(q, p)
    return float(np.mean((dH_dp - qdot) ** 2) + np.mean((dH_dq + pdot) ** 2))


def mlp_apply_per_op(spec, param_nodes, x):
    """The network on the tape as a chain of primitive ops (matmul, add,
    activation per layer): the reference the fused `mlp` node must match
    bit for bit."""
    act = nk.sin if spec.activation == "sin" else nk.tanh
    h = x
    for W, b in param_nodes[:-1]:
        h = act(h @ W + b)
    W, b = param_nodes[-1]
    return h @ W + b


def concat(nodes, axis=0):
    """Concatenation on the tape; its VJP slices the adjoint apart."""
    sizes = [n.value.shape[axis] for n in nodes]
    offsets = np.cumsum([0] + sizes)
    ndim = nodes[0].value.ndim

    def backward(g):
        outs = []
        for i in range(len(nodes)):
            sl = [slice(None)] * ndim
            sl[axis] = slice(offsets[i], offsets[i + 1])
            outs.append(g[tuple(sl)])
        return tuple(outs)

    return nk.Node(nodes[0].tape,
                   np.concatenate([n.value for n in nodes], axis=axis),
                   tuple(nodes), backward, "concat")


def rk4_windows_loss_per_op(func, pairs, windows, h):
    """The neural-ODE window loss as a chain of tape ops: the per-op
    flow network on the scaled (z, f) input inside `rk4_increment`, one
    `observation_loss` per step, their mean over the horizon. The fused
    `rk4_windows_loss` node must match its value and weight adjoints bit
    for bit."""
    z0, forces, targets = windows
    tape = pairs[0][0].tape

    def flow(z, f):
        x = concat([z, f], axis=1) / func.scale
        return mlp_apply_per_op(func.spec, pairs, x)

    z = tape.constant(z0)
    loss = None
    for f_stages, target in zip(forces, targets):
        z = z + rk4_increment(flow, z, [tape.constant(f) for f in f_stages],
                              h)
        term = nets.observation_loss(z, target)
        loss = term if loss is None else loss + term
    return loss / float(len(targets))


def simulate_scalar_forcing(params, forcing, n, rate, z0=(0.0, 0.0),
                            substeps=16):
    """(u, v) of the simulator's RK4 loop with the force evaluated by
    scalar `math.sin` calls at every sub-stage time."""
    h = 1.0 / (rate * substeps)
    m, c, k, k3 = params.m, params.c, params.k, params.k3
    comps = list(zip((float(a) for a in forcing.amplitude_array),
                     (float(w) for w in forcing.frequencies),
                     forcing.phases))

    def force(t):
        s = 0.0
        for a, w, p in comps:
            s += a * math.sin(w * t + p)
        return s

    u = np.empty(n)
    v = np.empty(n)
    uk, vk = float(z0[0]), float(z0[1])
    u[0], v[0] = uk, vk
    half = 0.5 * h
    sixth = h / 6.0
    for i in range(n - 1):
        t0 = i / rate
        for j in range(substeps):
            t = t0 + j * h
            f1 = force(t)
            f2 = force(t + half)
            f4 = force(t + h)
            k1u = vk
            k1v = (f1 - c * vk - k * uk - k3 * uk * uk * uk) / m
            u2 = uk + half * k1u
            v2 = vk + half * k1v
            k2u = v2
            k2v = (f2 - c * v2 - k * u2 - k3 * u2 * u2 * u2) / m
            u3 = uk + half * k2u
            v3 = vk + half * k2v
            k3u = v3
            k3v = (f2 - c * v3 - k * u3 - k3 * u3 * u3 * u3) / m
            u4 = uk + h * k3u
            v4 = vk + h * k3v
            k4u = v4
            k4v = (f4 - c * v4 - k * u4 - k3 * u4 * u4 * u4) / m
            uk = uk + sixth * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
            vk = vk + sixth * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        u[i + 1], v[i + 1] = uk, vk
    return u, v


def pinn_loss_per_term(problem, tape, leaves):
    """A PINN total loss with one network application per term: the
    observed times (`t_col` at `obs_rows`) through an `mlp` node, the
    collocation times through a tangent pass, t_col[0] through a
    one-row `mlp` node."""
    spec, norm, w = problem.config.net, problem.norm, problem.config.weights
    pairs, phi = problem._split(leaves)
    terms = []
    if w.observation != 0:
        tau = norm.t_in(problem.t_col[problem.obs_rows]).reshape(-1, 1)
        z_hat = nets.mlp_apply(spec, pairs, tape.constant(tau))
        target = (problem.z_obs - norm.z_mean) / norm.z_std
        terms.append((nets.observation_loss(z_hat, target), w.observation))
    if w.physics != 0:
        tau = norm.t_in(problem.t_col).reshape(-1, 1)
        z_hat, dz_hat = nets.mlp_apply_tangent(spec, pairs, tau)
        su, sv = norm.z_std[0], norm.z_std[1]
        u = z_hat[(slice(None), 0)] * su + norm.z_mean[0]
        v = z_hat[(slice(None), 1)] * sv + norm.z_mean[1]
        du = dz_hat[(slice(None), 0)] * (su / norm.t_half)
        dv = dz_hat[(slice(None), 1)] * (sv / norm.t_half)
        f = tape.constant(problem.f_col)
        phys = problem._phys_values(phi)
        m, c, k, k3 = phys["m"], phys["c"], phys["k"], phys["k3"]
        r_u = du - v
        r_v = dv - (f - c * v - k * u - k3 * u * u * u) / m
        n = float(len(problem.t_col))
        terms.append(((nk.vsum(r_u * r_u) + nk.vsum(r_v * r_v)) / n,
                      w.physics))
    if w.boundary != 0:
        tau0 = np.array([[norm.t_in(problem.t_col[0])]])
        z_hat = nets.mlp_apply(spec, pairs, tape.constant(tau0))
        r = (z_hat[(0,)] * norm.z_std + norm.z_mean
             - np.asarray(problem.config.bc, dtype=float))
        terms.append((nk.vsum(r * r), w.boundary))
    loss = None
    for term, weight in terms:
        term = term if weight == 1.0 else weight * term
        loss = term if loss is None else loss + term
    return loss


def pgnn_loss_two_pass(residual, prior_traj, t_col, t_obs, u_obs, penalty,
                       tape, leaves):
    """The PGNN loss with the correction network applied twice: once at
    the observed times, against the prior interpolated there, and once
    over the collocation grid for the amplitude penalty."""
    pairs = nets.arrays_to_pairs(leaves)
    u_prior_obs = np.interp(t_obs, prior_traj.t, prior_traj.u)
    du_obs, _ = residual.correction_nodes(pairs, t_obs)
    r = du_obs + tape.constant(u_prior_obs - u_obs)
    data_term = nk.vsum(r * r) / float(len(t_obs))
    du_col, dv_col = residual.correction_nodes(pairs, t_col)
    amp = (nk.vsum(du_col * du_col)
           + nk.vsum(dv_col * dv_col)) / float(len(t_col))
    return data_term + penalty * amp


def assert_loss_matches(build, oracle, arrays, exact=True):
    """Two tape-loss builders agree at `arrays`: the loss bit for bit
    (to 1e-14 relative unless `exact`), every gradient array within
    1e-12 relative."""
    def loss_and_grads(loss_builder):
        tape = nk.Tape()
        leaves = [tape.leaf(a) for a in arrays]
        loss = loss_builder(tape, leaves)
        return loss.value, nk.backward(loss, leaves)

    value, grads = loss_and_grads(build)
    ref_value, ref_grads = loss_and_grads(oracle)
    if exact:
        assert value == ref_value
    else:
        assert abs(value - ref_value) <= 1e-14 * abs(ref_value)
    for g, ref in zip(grads, ref_grads):
        err = np.abs(g - ref).max(initial=0.0)
        assert err <= 1e-12 * np.abs(ref).max(initial=0.0)
