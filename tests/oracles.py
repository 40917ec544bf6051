"""Shared independent oracles for the test suite.

Everything here is deliberately written without touching the package's
computation paths: finite differences, random scalar graphs evaluated
with plain numpy, a checked gradient map over the tape (order and
finiteness checks, which the package's own sweep skips), a hand-rolled
discrete Kalman filter, and the earlier
forms of eleven fast paths (the per-op network on the tape, the per-op
tangent pass and its sin/cos pair on the tape, the per-op neural-ODE
loss on the tape, the neural-ODE flow call through its wrapper chain,
the simulator with scalar forcing, the
PINN and PGNN losses that applied their network once per term, the
oscillator-kernel GP likelihood from a Cholesky factor per evaluation,
L-BFGS with a gradient at every line-search trial, and the PF and UKF
steps that took exp of the log-parameters at every use) that the fast
ones must match: bit for bit, or to rounding.
"""

import math

import numpy as np

from duffbench import filters as flt
from duffbench import nets
from duffbench import numkit as nk
from duffbench.duffing import acceleration, rk4_increment
from duffbench.errors import NumericFailure
from duffbench.numkit import linalg


# -- tape ops no package loss records -----------------------------------------
# Built on `nk.Node` like the package's primitives; the per-op chains, the
# random graphs and the primitive tests record them.

def neg(a):
    return nk.Node(a.tape, -a.value, (a,), lambda g: (-g,), "neg")


def powc(a, exponent):
    c = float(exponent)
    return nk.Node(a.tape, a.value ** c, (a,),
                   lambda g: (g * (c * a.value ** (c - 1.0)),), "pow")


def tanh(a):
    out = nk.Node(a.tape, np.tanh(a.value), (a,), None, "tanh")
    out.vjp = lambda g: (g * (1.0 - out.value * out.value),)
    return out


def sin(a):
    return nk.Node(a.tape, np.sin(a.value), (a,),
                   lambda g: (g * np.cos(a.value),), "sin")


def matmul(a, b):
    """a @ b for (2D, 2D) and (2D, 1D) nodes."""
    def backward(g):
        ga = g @ b.value.T if b.value.ndim == 2 else np.outer(g, b.value)
        return (ga, a.value.T @ g)

    return nk.Node(a.tape, a.value @ b.value, (a, b), backward, "matmul")


NP_LIB = {"tanh": np.tanh, "sin": np.sin, "pow": lambda x, c: x ** c}
TAPE_LIB = {"tanh": tanh, "sin": sin, "pow": powc}


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


class NumericError(NumericFailure):
    """Non-finite value encountered on the tape."""

    def __init__(self, node_id, op):
        super().__init__(f"non-finite value at node {node_id} (op '{op}')")
        self.node_id = node_id
        self.op = op


def validate(tape):
    """TapeError unless every parent is on `tape` and created earlier."""
    for node in tape.nodes:
        for p in node.parents:
            if p.tape is not tape:
                raise nk.TapeError("node references a foreign tape")
            if p.idx >= node.idx:
                raise nk.TapeError(
                    f"topological order violated at node {node.idx}")


def grad(output, wrt=None):
    """Map every requested leaf to d(output)/d(leaf), after checking the
    tape's order and that every value up to the output is finite.

    With ``wrt=None`` all leaves of the tape are used; leaves the output
    never touched map to exactly zero.
    """
    tape = output.tape
    span = tape.nodes[: output.idx + 1]
    validate(tape)
    for node in span:
        if not np.all(np.isfinite(node.value)):
            raise NumericError(node.idx, node.op)
    if wrt is None:
        wrt = [n for n in span if n.op == "leaf"]
    return dict(zip(wrt, nk.backward(output, wrt)))


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
                vals.append(lib["pow"](vals[i], 2))
            else:
                vals.append(lib["pow"](vals[i], 3))
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
        grads = grad(out, wrt=leaves)
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


def lbfgs_eager(closure, theta0, iters, memory=10, c1=1e-4,
                max_linesearch=25, gtol=1e-12, history=None,
                scaled_first_step=True):
    """L-BFGS with Armijo backtracking on an eager closure theta ->
    (loss, gradient array): `nets.lbfgs` as it was when every trial
    point, rejected or not, ran its backward pass. The first iteration's
    backtracking starts at min(1, 1/‖g‖₁), as in `nets.lbfgs`, or at 1
    with `scaled_first_step=False`, as it did before that rule."""
    theta = np.array(theta0, dtype=float)
    history = [] if history is None else history
    loss, g = closure(theta)
    if not (np.isfinite(loss) and np.all(np.isfinite(g))):
        raise nets.TrainingDivergedError(history)
    history.append(float(loss))
    pairs = []
    for it in range(iters):
        q = g.copy()
        alphas = []
        for s, y, rho in reversed(pairs):
            a = rho * (s @ q)
            q -= a * y
            alphas.append(a)
        if pairs:
            s, y, _ = pairs[-1]
            q *= (s @ y) / (y @ y)
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            b = rho * (y @ q)
            q += (a - b) * s
        d = -q
        slope = g @ d
        if not np.isfinite(slope) or slope >= 0.0:
            d = -g
            slope = g @ d
        if slope >= 0.0:
            break
        step = 1.0
        if it == 0 and scaled_first_step:
            step = min(1.0, 1.0 / np.sum(np.abs(g)))
        accepted = False
        for _ in range(max_linesearch):
            theta_new = theta + step * d
            loss_new, g_new = closure(theta_new)
            if np.isfinite(loss_new) and loss_new <= loss + c1 * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        if not np.all(np.isfinite(g_new)):
            raise nets.TrainingDivergedError(history)
        s_vec = theta_new - theta
        y_vec = g_new - g
        sy = s_vec @ y_vec
        if sy > 1e-10 * np.linalg.norm(s_vec) * np.linalg.norm(y_vec):
            pairs.append((s_vec, y_vec, 1.0 / sy))
            if len(pairs) > memory:
                pairs.pop(0)
        theta, loss, g = theta_new, loss_new, g_new
        history.append(float(loss))
        if np.linalg.norm(g) < gtol:
            break
    return theta, history


def hnn_loss_value(hamiltonian, q, p, qdot, pdot):
    """Mean squared Hamilton-equation residual of any H with .grads."""
    dH_dq, dH_dp = hamiltonian.grads(q, p)
    return float(np.mean((dH_dp - qdot) ** 2) + np.mean((dH_dq + pdot) ** 2))


def mlp_apply_per_op(spec, param_nodes, x):
    """The network on the tape as a chain of primitive ops (matmul, add,
    activation per layer): the reference the output half of the fused
    `mlp_tangent` node must match bit for bit."""
    act = sin if spec.activation == "sin" else tanh
    h = x
    for W, b in param_nodes[:-1]:
        h = act(matmul(h, W) + b)
    W, b = param_nodes[-1]
    return matmul(h, W) + b


def ode_flow_chain(func, z, f):
    """`OdeFunc.__call__` as the wrapper chain it was: concatenate the
    broadcast force to z, divide by the scale, reshape to rows, then
    `nets.mlp_predict` and reshape back. The direct call must match it
    bit for bit."""
    z = np.asarray(z, dtype=float)
    x = np.concatenate([z, np.broadcast_to(np.asarray(f, float),
                                           z.shape[:-1] + (1,))], axis=-1)
    out = nets.mlp_predict(func.spec, func.params,
                           (x / func.scale).reshape(-1, 3))
    return out.reshape(z.shape)


def sincos(a):
    """sin(a) and cos(a) as two nodes; each VJP reuses the other's value."""
    s = nk.Node(a.tape, np.sin(a.value), (a,), None, "sin")
    c = nk.Node(a.tape, np.cos(a.value), (a,), None, "cos")
    s.vjp = lambda g: (g * c.value,)
    c.vjp = lambda g: (-(g * s.value),)
    return s, c


def mlp_apply_tangent_per_op(spec, param_nodes, x):
    """Output and d(output)/d(input) at the constant (N, 1) array x as a
    chain of primitive ops, the tangent s = (s @ W) * σ'(a) carried
    beside each layer from s = 1: the reference the fused
    `mlp_tangent` node must match bit for bit."""
    tape = param_nodes[0][0].tape
    h, s = tape.constant(x), tape.constant(np.ones_like(x))
    for W, b in param_nodes[:-1]:
        a = matmul(h, W) + b
        if spec.activation == "sin":
            h, cos_a = sincos(a)
            s = matmul(s, W) * cos_a
        else:
            h = tanh(a)
            s = matmul(s, W) * (1.0 - h * h)
    W, b = param_nodes[-1]
    return matmul(h, W) + b, matmul(s, W)


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
    observed times (`t_col` at `obs_rows`) through the per-op network,
    the collocation times through a tangent pass, t_col[0] through a
    one-row per-op network."""
    spec, norm, w = problem.config.net, problem.norm, problem.config.weights
    pairs, phi = problem._split(leaves)
    terms = []
    if w.observation != 0:
        tau = norm.t_in(problem.t_col[problem.obs_rows]).reshape(-1, 1)
        z_hat = mlp_apply_per_op(spec, pairs, tape.constant(tau))
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
        z_hat = mlp_apply_per_op(spec, pairs, tape.constant(tau0))
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


def filter_params(layout, x, base):
    """Oscillator parameters at augmented-state vector(s) x: each
    estimated one is exp of its log column."""
    values = {"m": base.m, "c": base.c, "k": base.k, "k3": base.k3}
    for i, name in enumerate(layout.theta_names):
        values[name] = np.exp(x[..., 2 + i])
    return values


def measurement(x, layout, base, f):
    """The filters' acceleration measurement at augmented state(s) x."""
    return acceleration(**filter_params(layout, x, base),
                        u=x[..., 0], v=x[..., 1], f=f)


def propagate(x, layout, base, h, f_stages):
    """One RK4 step of every augmented state row on strided (u, v)
    columns; the parameters ride along."""
    p = filter_params(layout, x, base)

    def flow(z, f):
        dz = np.empty_like(z)
        dz[..., 0] = z[..., 1]
        dz[..., 1] = acceleration(**p, u=z[..., 0], v=z[..., 1], f=f)
        return dz

    out = np.array(x, copy=True)
    z = x[..., :2]
    out[..., :2] = z + rk4_increment(flow, z, f_stages, h)
    return out


def particle_raw_moments_per_op(ensemble):
    """Weighted raw-unit mean/std of an ensemble, exp taken per particle."""
    raw = ensemble.particles.copy()
    raw[:, 2:] = np.exp(raw[:, 2:])
    mu = ensemble.weights @ raw
    var = ensemble.weights @ (raw - mu) ** 2
    return mu, np.sqrt(np.maximum(var, 0.0))


def gaussian_raw_moments_per_op(belief):
    """Raw-unit mean/std of a Gaussian belief, one log-parameter at a time."""
    mean = belief.mean.copy()
    std = np.sqrt(np.maximum(np.diag(belief.cov), 0.0))
    for i in range(2, len(mean)):
        mean[i] = np.exp(belief.mean[i])
        std[i] = mean[i] * std[i]
    return mean, std


def pf_step_per_op(ensemble, layout, base, f_stages, f_next, y_next, h,
                   noise, stream):
    """The bootstrap PF step as a chain that takes exp of the particles'
    log-parameters in propagation and again in the measurement, and
    steps strided (u, v) columns: the reference `filters.pf_step` must
    match bit for bit, draws included."""
    n, dim = ensemble.particles.shape
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pts = propagate(ensemble.particles, layout, base, h, f_stages)
        if noise.q_velocity > 0:
            pts[:, 1] += stream.normal(size=n,
                                       scale=np.sqrt(noise.q_velocity))
        if noise.q_param > 0 and dim > 2:
            pts[:, 2:] += stream.normal(size=(n, dim - 2),
                                        scale=np.sqrt(noise.q_param))
        innovation = y_next - measurement(pts, layout, base, f_next)
        squared = innovation ** 2
        log_lik = -0.5 * squared / noise.r_measurement
        log_lik = np.where(innovation == 0.0, 0.0, log_lik)
        log_w = np.where(ensemble.weights > 0.0,
                         np.log(ensemble.weights), -np.inf) + log_lik
    peak = log_w.max()
    if not np.isfinite(peak):
        raise flt.DegeneracyError("all particle weights vanished")
    w = np.exp(log_w - peak)
    w = w / w.sum()
    new = flt.ParticleEnsemble(pts, w)
    if new.ess < n / 2.0:
        idx = flt.systematic_resample(new.weights, stream)
        new = flt.ParticleEnsemble(new.particles[idx], np.full(n, 1.0 / n))
    return new


def ukf_step_per_op(belief, layout, base, f_stages, f_next, y_next, h,
                    noise):
    """The UKF step as a chain that takes exp of the sigma points'
    log-parameters in propagation and again in the measurement: the
    reference `filters.ukf_step` must match bit for bit."""
    n_x = len(belief.mean)
    n_a = n_x + 2
    mean_a = np.concatenate([belief.mean, [0.0, 0.0]])
    cov_a = np.zeros((n_a, n_a))
    cov_a[:n_x, :n_x] = belief.cov
    cov_a[n_x, n_x] = max(noise.q_velocity, 1e-300)
    cov_a[n_x + 1, n_x + 1] = max(noise.r_measurement, 1e-300)
    pts, w_mean, w_cov = flt._sigma_points(mean_a, cov_a)
    x_pts = propagate(pts[:, :n_x], layout, base, h, f_stages)
    x_pts[:, 1] += pts[:, n_x]
    x_mean = w_mean @ x_pts
    dx = x_pts - x_mean
    p_pred = (w_cov[:, None] * dx).T @ dx
    for i in range(2, n_x):
        p_pred[i, i] += noise.q_param
    p_pred = linalg.symmetrize(p_pred)
    y_pts = measurement(x_pts, layout, base, f_next) + pts[:, n_x + 1]
    y_mean = float(w_mean @ y_pts)
    dy = y_pts - y_mean
    s = float(w_cov @ (dy * dy))
    p_xy = (w_cov * dy) @ dx
    gain = p_xy / s
    mean_new = x_mean + gain * (y_next - y_mean)
    cov_new = p_pred - np.outer(gain, gain) * s
    return flt.GaussianBelief(mean_new, cov_new)
