"""Experiment harness: configure, run and compare every method.

Configs are INI files with an [experiment] section (method, seed, out)
plus optional [simulator] and per-method sections. One master seed
drives named substreams (sim-noise, init, filter, ...) so outputs are
byte-identical across reruns of the same config. Exit codes: 0 ok,
2 config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, dictionary, gp, nets, pgnn, pinn
from . import filters as flt
from . import neural_ode as node_mod
from . import numkit as nk
from .duffing import (
    ForcingSpec,
    OscillatorParams,
    add_noise,
    rms,
    simulate,
    subsample,
)
from .errors import ConfigError, NumericFailure
from .metrics import nmse, percent_error, rmse

METHODS = ("ukf", "pf", "sindy", "nn-baseline", "pinn-discovery",
           "pinn-enhanced", "pinn-forward", "pgnn", "gp-se", "gp-sdof",
           "node", "hnn")


class Config:
    """INI-backed config that tracks which keys a run consumed."""

    def __init__(self, parser: configparser.ConfigParser, path=None):
        self._parser = parser
        self.path = path
        self.consumed = {}

    @classmethod
    def from_file(cls, path):
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file '{path}'")
        return cls(parser, path)

    def get(self, section, key, default=None, cast=str):
        if self._parser.has_option(section, key):
            raw = self._parser.get(section, key).strip()
        elif default is not None:
            raw = str(default)
        else:
            raise ConfigError(f"missing required key [{section}] {key}")
        try:
            if cast is bool:
                value = raw.lower() in ("1", "true", "yes", "on")
            else:
                value = cast(raw)
        except ValueError:
            raise ConfigError(f"bad value for [{section}] {key}: '{raw}'")
        self.consumed[f"{section}.{key}"] = value
        return value

    def get_floats(self, section, key, default):
        raw = self.get(section, key, default=default)
        return tuple(float(x) for x in str(raw).replace(",", " ").split())

    def hash(self):
        lines = sorted(f"{sect}.{key}={self._parser.get(sect, key)}"
                       for sect in self._parser.sections()
                       for key in self._parser.options(sect))
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _fmt(x):
    return f"{x:.17g}"


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def write_metrics(path, metrics: dict):
    with open(path, "w", newline="") as fh:
        fh.write("metric,value\n")
        for key in sorted(metrics):
            fh.write(f"{key},{_fmt(metrics[key])}\n")


def read_metrics(path):
    out = {}
    with open(path) as fh:
        next(fh)
        for line in fh:
            key, value = line.strip().split(",", 1)
            out[key] = float(value)
    return out


def write_manifest(path, cfg: Config, seed, wall_clock):
    with open(path, "w", newline="") as fh:
        fh.write(f"duffbench {__version__}\n")
        fh.write(f"numpy {np.__version__}\n")
        fh.write(f"python {sys.version.split()[0]}\n")
        fh.write(f"config_hash {cfg.hash()}\n")
        fh.write(f"seed {seed}\n")
        fh.write(f"wall_clock_s {wall_clock:.3f}\n")
        fh.write("consumed:\n")
        for key in sorted(cfg.consumed):
            fh.write(f"  {key} = {cfg.consumed[key]}\n")


# -- shared experiment pieces -------------------------------------------------


def build_simulation(cfg: Config):
    params = OscillatorParams(
        m=cfg.get("simulator", "m", 10.0, float),
        c=cfg.get("simulator", "c", 1.0, float),
        k=cfg.get("simulator", "k", 15.0, float),
        k3=cfg.get("simulator", "k3", 100.0, float),
    )
    forcing = ForcingSpec(
        frequencies=cfg.get_floats("simulator", "frequencies",
                                   "0.7 0.85 1.6 1.8"),
        amplitudes=cfg.get("simulator", "amplitude", 1.0, float),
        phase_seed=cfg.get("simulator", "phase_seed", 101, int),
    )
    n = cfg.get("simulator", "n", 1024, int)
    rate = cfg.get("simulator", "rate", 8.525, float)
    z0 = (cfg.get("simulator", "u0", 0.0, float),
          cfg.get("simulator", "v0", 0.0, float))
    traj = simulate(params, forcing, n=n, rate=rate, z0=z0)
    return params, forcing, traj


def train_config(cfg: Config, section, adam_iters, adam_lr, lbfgs_iters):
    return nets.TrainConfig(
        adam_iters=cfg.get(section, "adam_iters", adam_iters, int),
        adam_lr=cfg.get(section, "adam_lr", adam_lr, float),
        lbfgs_iters=cfg.get(section, "lbfgs_iters", lbfgs_iters, int),
    )


def net_spec(cfg: Config, section, widths, activation="sin", omega0=60.0):
    raw = cfg.get(section, "widths", " ".join(str(w) for w in widths))
    widths = tuple(int(x) for x in str(raw).replace(",", " ").split())
    return nets.MlpSpec(
        widths=widths,
        activation=cfg.get(section, "activation", activation),
        omega0=cfg.get(section, "omega0", omega0, float),
    )


def state_csv_rows(t, truth_u, truth_v, pred):
    return zip(t, truth_u, pred[:, 0], truth_v, pred[:, 1])


# -- method runners -----------------------------------------------------------
# Every runner takes (method, cfg, out, seed): `method` names the config
# section its hyperparameters live in.


def run_filter_method(method, cfg, out, seed):
    params, forcing, traj = build_simulation(cfg)
    ratio = cfg.get(method, "noise_ratio", 0.085, float)
    master = nk.RngStream(seed)
    y = add_noise(traj.a, ratio, master.substream("sim-noise"))
    noise = flt.NoiseConfig.matched(traj.a, ratio)
    layout = flt.AugmentedState()
    if method == "ukf":
        init = flt.default_ukf_init(
            layout,
            theta0={"k": cfg.get(method, "k0", 1.0, float),
                    "c": cfg.get(method, "c0", 0.5, float),
                    "k3": cfg.get(method, "k30", 40.0, float)})
        result = flt.run_ukf(traj, forcing, y, layout, init, params, noise)
    else:
        n_particles = cfg.get(method, "particles", 1000, int)
        init = flt.default_pf_init(layout, n_particles,
                                   stream=master.substream("init"))
        result = flt.run_pf(traj, forcing, y, layout, init, params, noise,
                            master.substream("filter"))
    result.to_csv(out / "estimates.csv")
    metrics = {
        "rmse_u": rmse(result.mean[:, 0], traj.u),
        "rmse_v": rmse(result.mean[:, 1], traj.v),
        "nmse_u": nmse(result.mean[:, 0], traj.u),
        "nmse_v": nmse(result.mean[:, 1], traj.v),
    }
    truth = {"k": params.k, "c": params.c, "k3": params.k3}
    for name, est in result.final_params().items():
        metrics[f"param_{name}_estimate"] = est
        metrics[f"param_{name}_percent_error"] = percent_error(est, truth[name])
    with open(out / "params.csv", "w", newline="") as fh:
        fh.write("param,true,estimate,percent_error\n")
        for name, est in result.final_params().items():
            fh.write(f"{name},{_fmt(truth[name])},{_fmt(est)},"
                     f"{_fmt(percent_error(est, truth[name]))}\n")
    return metrics


def run_sindy(method, cfg, out, seed):
    params, forcing, traj = build_simulation(cfg)
    lib = dictionary.build_library(traj)
    target = params.m * traj.a
    coeffs = dictionary.stlsq(
        lib, target,
        threshold=cfg.get(method, "threshold", 0.1, float),
        ridge=cfg.get(method, "ridge", 0.0, float))
    coeffs.to_csv(out / "model.csv")
    (out / "equation.txt").write_text(coeffs.equation_string("m*dv/dt") + "\n")
    recon = lib.theta @ coeffs.values
    metrics = {"residual_rel": float(np.linalg.norm(recon - target)
                                     / np.linalg.norm(target)),
               "support_size": float(np.sum(coeffs.support))}
    truth = {"u": -params.k, "v": -params.c, "u^3": -params.k3, "f": 1.0}
    for name, ref in truth.items():
        est = coeffs.active().get(name, 0.0)
        metrics[f"param_{name}_estimate"] = est
        if ref != 0.0:
            metrics[f"param_{name}_percent_error"] = percent_error(est, ref)
    return metrics


def run_pinn_method(method, cfg, out, seed):
    params, forcing, traj = build_simulation(cfg)
    spec = net_spec(cfg, method, (1, 32, 32, 32, 2))
    if method == "pinn-discovery":
        tcfg = train_config(cfg, method, 5000, 1e-3, 500)
        nonlinear = cfg.get(method, "nonlinear", True, bool)
        res = pinn.run_equation_discovery(
            traj, nonlinear=nonlinear, seed=seed, truth=params, net=spec,
            train=tcfg, n_obs=cfg.get(method, "n_obs", 256, int))
        pred = res.prediction(traj.t)
        truth = res.truth
        with open(out / "params.csv", "w", newline="") as fh:
            fh.write("param,true,estimate,percent_error\n")
            for name in res.errors_percent:
                fh.write(f"{name},{_fmt(truth[name])},"
                         f"{_fmt(res.estimates[name])},"
                         f"{_fmt(res.errors_percent[name])}\n")
        metrics = {f"param_{n}_percent_error": res.errors_percent[n]
                   for n in res.errors_percent}
        metrics.update({f"param_{n}_estimate": res.estimates[n]
                        for n in res.errors_percent})
    elif method == "pinn-enhanced":
        tcfg = train_config(cfg, method, 5000, 1e-3, 500)
        res = pinn.run_enhanced_learning(
            traj, stride=cfg.get(method, "stride", 16, int), seed=seed,
            truth=params, net=spec, train=tcfg)
        pred = res.informed_pred
        write_csv(out / "baseline.csv", "t,u_true,u_hat,v_true,v_hat",
                  state_csv_rows(traj.t, traj.u, traj.v, res.baseline_pred))
        metrics = {
            "rmse_u": res.informed_rmse["u"],
            "rmse_v": res.informed_rmse["v"],
            "baseline_rmse_u": res.baseline_rmse["u"],
            "baseline_rmse_v": res.baseline_rmse["v"],
        }
    else:  # pinn-forward
        windows = cfg.get(method, "windows", 12, int)
        margin = cfg.get(method, "margin", 6, int)
        tcfg = train_config(cfg, method, 3000, 2e-3, 2000)
        res = pinn.run_forward_model(
            params=params, forcing=forcing, seed=seed, net=spec, train=tcfg,
            reference=traj, windows=windows, margin=margin)
        pred = res.pred
        metrics = {"rmse_u": res.rmse["u"], "rmse_v": res.rmse["v"],
                   "rel_rmse_u": res.rmse["u"] / rms(traj.u)}
    write_csv(out / "result.csv", "t,u_true,u_hat,v_true,v_hat",
              state_csv_rows(traj.t, traj.u, traj.v, pred))
    nets.save_loss_history(out / "history.csv", res.history)
    metrics.setdefault("rmse_u", rmse(pred[:, 0], traj.u))
    metrics.setdefault("rmse_v", rmse(pred[:, 1], traj.v))
    metrics["nmse_u"] = nmse(pred[:, 0], traj.u)
    metrics["nmse_v"] = nmse(pred[:, 1], traj.v)
    return metrics


def run_nn_baseline(method, cfg, out, seed):
    params, forcing, traj = build_simulation(cfg)
    spec = net_spec(cfg, method, (1, 32, 32, 32, 2))
    tcfg = train_config(cfg, method, 5000, 1e-3, 500)
    stride = cfg.get(method, "stride", 16, int)
    res = pinn.run_enhanced_learning(traj, stride=stride, seed=seed,
                                     truth=params, net=spec, train=tcfg,
                                     baseline_only=True)
    pred = res.baseline_pred
    nets.save_loss_history(out / "history.csv", res.history)
    write_csv(out / "result.csv", "t,u_true,u_hat,v_true,v_hat",
              state_csv_rows(traj.t, traj.u, traj.v, pred))
    return {"rmse_u": rmse(pred[:, 0], traj.u),
            "rmse_v": rmse(pred[:, 1], traj.v),
            "nmse_u": nmse(pred[:, 0], traj.u),
            "nmse_v": nmse(pred[:, 1], traj.v)}


def run_pgnn(method, cfg, out, seed):
    params, forcing, traj = build_simulation(cfg)
    tcfg = train_config(cfg, method, 2000, 2e-3, 300)
    res = pgnn.run_guided(traj, forcing, params,
                          stride=cfg.get(method, "stride", 1, int),
                          seed=seed, train=tcfg)
    nets.save_loss_history(out / "history.csv", res.history)
    write_csv(out / "result.csv",
              "t,u_true,u_prior,u_hat,v_true,v_prior,v_hat",
              zip(traj.t, traj.u, res.prior_traj.u, res.combined[:, 0],
                  traj.v, res.prior_traj.v, res.combined[:, 1]))
    return {
        "rmse_u": res.combined_rmse["u"],
        "rmse_v": res.combined_rmse["v"],
        "prior_rmse_u": res.prior_rmse["u"],
        "prior_rmse_v": res.prior_rmse["v"],
        "nmse_u": nmse(res.combined[:, 0], traj.u),
        "nmse_v": nmse(res.combined[:, 1], traj.v),
    }


def run_gp(method, cfg, out, seed):
    params, forcing, traj = build_simulation(cfg)
    stride = cfg.get(method, "stride", 12, int)
    ratio = cfg.get(method, "noise_ratio", 0.085, float)
    _, obs = subsample(traj, stride=stride)
    master = nk.RngStream(seed)
    y = add_noise(obs.u, ratio, master.substream("sim-noise"))
    noise_var = max((ratio * rms(traj.u)) ** 2, 1e-12)
    kind = "se" if method == "gp-se" else "sdof"
    spec = gp.KernelSpec(kind=kind, m=params.m, c=params.c, k=params.k,
                         noise_var=noise_var)
    model = gp.fit(obs.t, y, spec, seed=seed,
                   restarts=cfg.get(method, "restarts", 8, int),
                   steps=cfg.get(method, "steps", 200, int))
    pred = model.predict(traj.t)
    write_csv(out / "result.csv", "t,u_true,mean,sd",
              zip(traj.t, traj.u, pred.mean, pred.std))
    return {
        "rmse_u": rmse(pred.mean, traj.u),
        "nmse_u": nmse(pred.mean, traj.u),
        "mean_std": float(np.mean(pred.std)),
        "coverage_2sigma": float(np.mean(pred.covers(traj.u))),
        "log_marginal_likelihood": model.log_marginal_likelihood,
    }


def run_node(method, cfg, out, seed):
    params, forcing, traj = build_simulation(cfg)
    dataset = node_mod.OneStepDataset.from_trajectory(traj, forcing)
    spec = net_spec(cfg, method, (3, 32, 32, 2), activation="tanh")
    tcfg = train_config(cfg, method, 2000, 3e-3, 300)
    func, history = node_mod.train_k1_predictor(
        dataset, spec=spec, seed=seed, train=tcfg,
        refine=cfg.get(method, "refine", True, bool),
        refine_iters=cfg.get(method, "refine_iters", 250, int))
    path = node_mod.rollout(func, np.array([traj.u[0], traj.v[0]]), forcing,
                            len(traj), traj.rate)
    nets.save_loss_history(out / "history.csv", history)
    write_csv(out / "rollout.csv", "t,u_true,u_hat,v_true,v_hat",
              state_csv_rows(traj.t, traj.u, traj.v, path))
    return {
        "rmse_u": rmse(path[:, 0], traj.u),
        "rmse_v": rmse(path[:, 1], traj.v),
        "rel_rmse_u": rmse(path[:, 0], traj.u) / rms(traj.u),
        "one_step_loss": history[-1],
    }


def run_hnn(method, cfg, out, seed):
    h_step = cfg.get(method, "step", 5e-3, float)
    if not h_step > 0.0:
        raise ConfigError(f"[{method}] step must be positive, got {h_step}")
    steps = cfg.get(method, "steps", 1000, int)
    if steps < 1:
        raise ConfigError(f"[{method}] steps must be >= 1, got {steps}")
    u0 = cfg.get(method, "u0", 1.0, float)
    if u0 == 0.0:
        # the conservative record would rest at H = 0: nothing to learn,
        # and the energy drift is relative to H[0]
        raise ConfigError(f"[{method}] u0 must be nonzero")
    params, forcing, traj = build_simulation(cfg)
    cons = OscillatorParams(m=params.m, c=0.0, k=params.k, k3=params.k3)
    cons_traj = simulate(cons, ForcingSpec(amplitudes=0.0),
                         n=len(traj), rate=traj.rate, z0=(u0, 0.0))
    q, p, qd, pd = node_mod.conservative_batch(cons_traj, cons.m)
    tcfg = train_config(cfg, method, 3000, 3e-3, 300)
    hnet, history = node_mod.hnn_train(q, p, qd, pd, seed=seed, train=tcfg)
    nets.save_loss_history(out / "history.csv", history)
    qs, ps, H = node_mod.integrate_hamiltonian(hnet, q[0], p[0], h_step, steps)
    t = np.arange(steps + 1) * h_step
    ref = simulate(cons, ForcingSpec(amplitudes=0.0), n=steps + 1,
                   rate=1.0 / h_step, z0=(u0, 0.0))
    truth = node_mod.AnalyticHamiltonian(cons)
    write_csv(out / "rollout.csv", "t,u_true,u_hat,v_true,v_hat,H_hat",
              zip(t, ref.u, qs, ref.v, ps / cons.m, H))
    grid_q = np.linspace(q.min(), q.max(), 20)
    grid_p = np.linspace(p.min(), p.max(), 20)
    QQ, PP = np.meshgrid(grid_q, grid_p)
    dq_ref, dp_ref = truth.grads(QQ.ravel(), PP.ravel())
    dq_hat, dp_hat = hnet.grads(QQ.ravel(), PP.ravel())
    field_err = float(np.sqrt(np.mean((dp_hat - dp_ref) ** 2
                                      + (dq_hat - dq_ref) ** 2))
                      / np.sqrt(np.mean(dp_ref ** 2 + dq_ref ** 2)))
    return {
        "field_rel_rmse": field_err,
        "energy_drift": float(np.max(np.abs(H - H[0])) / abs(H[0])),
        "train_loss": history[-1],
    }


_RUNNERS = {
    "ukf": run_filter_method,
    "pf": run_filter_method,
    "sindy": run_sindy,
    "nn-baseline": run_nn_baseline,
    "pinn-discovery": run_pinn_method,
    "pinn-enhanced": run_pinn_method,
    "pinn-forward": run_pinn_method,
    "pgnn": run_pgnn,
    "gp-se": run_gp,
    "gp-sdof": run_gp,
    "node": run_node,
    "hnn": run_hnn,
}


def run_experiment(cfg: Config, seed_override=None, out_override=None):
    method = cfg.get("experiment", "method")
    if method not in METHODS:
        raise ConfigError(f"unknown method '{method}' for [experiment] "
                          f"method; choose from {', '.join(METHODS)}")
    seed = seed_override if seed_override is not None \
        else cfg.get("experiment", "seed", 1234, int)
    out = Path(out_override if out_override is not None
               else cfg.get("experiment", "out", f"results/{method}"))
    out.mkdir(parents=True, exist_ok=True)
    start = time.time()
    try:
        metrics = _RUNNERS[method](method, cfg, out, seed)
    except NumericFailure:
        write_manifest(out / "manifest.txt", cfg, seed, time.time() - start)
        raise
    metrics["config_hash_int"] = float(int(cfg.hash()[:8], 16))
    write_metrics(out / "metrics.csv", metrics)
    write_manifest(out / "manifest.txt", cfg, seed, time.time() - start)
    return out, metrics


def run_simulate(cfg: Config, out_override=None):
    _, _, traj = build_simulation(cfg)
    out = Path(out_override if out_override is not None
               else cfg.get("experiment", "out", "results/simulate"))
    out.mkdir(parents=True, exist_ok=True)
    traj.to_csv(out / "trajectory.csv")
    return out


def compare(dirs):
    """Align metrics of several result directories into one table."""
    rows = {}
    methods = []
    for d in dirs:
        path = Path(d) / "metrics.csv"
        if not path.exists():
            print(f"warning: {path} missing, skipped", file=sys.stderr)
            continue
        methods.append(Path(d).name)
        for key, value in read_metrics(path).items():
            rows.setdefault(key, {})[Path(d).name] = value
    lines = ["metric," + ",".join(methods)]
    for key in sorted(rows):
        cells = [("%s" % _fmt(rows[key][m])) if m in rows[key] else ""
                 for m in methods]
        lines.append(f"{key}," + ",".join(cells))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="duffbench",
        description="run oscillator estimation benchmarks from config files")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_sim = sub.add_parser("simulate", help="write the ground-truth record")
    p_sim.add_argument("config")
    p_sim.add_argument("--out", default=None)
    p_cmp = sub.add_parser("compare", help="tabulate result directories")
    p_cmp.add_argument("dirs", nargs="*")
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            cfg = Config.from_file(args.config)
            out, metrics = run_experiment(cfg, args.seed, args.out)
            for key in sorted(metrics):
                print(f"{key} = {metrics[key]:.6g}")
            print(f"artifacts in {out}")
        elif args.command == "simulate":
            cfg = Config.from_file(args.config)
            out = run_simulate(cfg, args.out)
            print(f"trajectory in {out}")
        else:
            print(compare(args.dirs))
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NumericFailure as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
