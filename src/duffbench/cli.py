"""Experiment harness: configure, run and compare every method.

Configs are INI files with an [experiment] section (method, seed, out),
an optional [simulator] section and a section for the method. The
{key: default} tables below are every key a run reads, each typed like
its default; a run rejects any other key or an unparsable value before
it simulates. One master seed drives named substreams (sim-noise, init,
filter, ...), so reruns are byte-identical. Exit codes: 0 ok, 2 config
error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import math
import sys
import time
from dataclasses import asdict
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

_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _parse(raw, default):
    """`raw` as the type of `default`; str when there is no default.
    A float must be finite."""
    if isinstance(default, tuple):
        return tuple(_parse(x, default[0])
                     for x in raw.replace(",", " ").split())
    if isinstance(default, bool):
        return _BOOLS[raw.lower()]
    value = raw if default is None else type(default)(raw)
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(raw)
    return value


class Config:
    """INI-backed config that tracks which keys a run consumed."""

    def __init__(self, parser: configparser.ConfigParser):
        self._parser = parser
        self.consumed = {}

    @classmethod
    def from_file(cls, path):
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        if not parser.read(path):
            raise ConfigError(f"cannot read config file '{path}'")
        return cls(parser)

    def get(self, section, key, default=None):
        """[section] key, typed like `default`; required without one."""
        if self._parser.has_option(section, key):
            raw = self._parser.get(section, key).strip()
            try:
                value = _parse(raw, default)
            except (ValueError, KeyError):
                raise ConfigError(f"bad value for [{section}] {key}: '{raw}'")
        elif default is not None:
            value = default
        else:
            raise ConfigError(f"missing required key [{section}] {key}")
        self.consumed[f"{section}.{key}"] = value
        return value

    def section(self, section, table):
        """{key: value} of [section] by its {key: default} table; the file
        may set no other key there."""
        if self._parser.has_section(section):
            for key in self._parser.options(section):
                if key not in table:
                    raise ConfigError(f"unknown key [{section}] {key}")
        return {key: self.get(section, key, default)
                for key, default in table.items()}

    def read(self, tables):
        """{section: {key: value}} of `tables`; the file may set no other."""
        for section in self._parser.sections():
            if section not in tables:
                raise ConfigError(f"unknown section [{section}]")
        return {section: self.section(section, table)
                for section, table in tables.items()}

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

SIMULATOR = {"m": 10.0, "c": 1.0, "k": 15.0, "k3": 100.0, "n": 1024,
             "rate": 8.525, "u0": 0.0, "v0": 0.0, "amplitude": 1.0,
             "frequencies": (0.7, 0.85, 1.6, 1.8), "phase_seed": 101}


def check_seed(key, value):
    """Seeds key Philox streams, which take [0, 2**128)."""
    if not 0 <= value < 2 ** 128:
        raise ConfigError(f"{key} must lie in [0, 2**128), got {value}")


def build_model(sim):
    """(params, forcing) of the parsed [simulator] section."""
    check_seed("[simulator] phase_seed", sim["phase_seed"])
    return (OscillatorParams(m=sim["m"], c=sim["c"], k=sim["k"],
                             k3=sim["k3"]),
            ForcingSpec(frequencies=sim["frequencies"],
                        amplitudes=sim["amplitude"],
                        phase_seed=sim["phase_seed"]))


def build_simulation(sim):
    """(params, forcing, trajectory) of the parsed [simulator] section."""
    params, forcing = build_model(sim)
    return params, forcing, simulate(params, forcing, n=sim["n"],
                                     rate=sim["rate"],
                                     z0=(sim["u0"], sim["v0"]))


def train_config(opts):
    return nets.TrainConfig(adam_iters=opts["adam_iters"],
                            adam_lr=opts["adam_lr"],
                            lbfgs_iters=opts["lbfgs_iters"])


def net_spec(opts):
    return nets.MlpSpec(widths=opts["widths"], activation=opts["activation"],
                        omega0=opts["omega0"])


def state_metrics(traj, pred, path=None):
    """rmse_*/nmse_* of a (u, v) prediction; written to `path` if given."""
    if path is not None:
        write_csv(path, "t,u_true,u_hat,v_true,v_hat",
                  zip(traj.t, traj.u, pred[:, 0], traj.v, pred[:, 1]))
    return {"rmse_u": rmse(pred[:, 0], traj.u),
            "rmse_v": rmse(pred[:, 1], traj.v),
            **nmse_metric("nmse_u", pred[:, 0], traj.u),
            **nmse_metric("nmse_v", pred[:, 1], traj.v)}


def nmse_metric(key, estimate, truth):
    """{key: nmse}, left out for a constant truth (no normalized error)."""
    value = nmse(estimate, truth)
    return {key: value} if value is not None else {}


def relative_rmse_u(rmse_u, traj):
    """rel_rmse_u, left out for a record at rest (no relative error)."""
    scale = rms(traj.u)
    return {"rel_rmse_u": rmse_u / scale} if scale != 0.0 else {}


def param_metrics(path, truth, estimates):
    """param_*_estimate/_percent_error metrics, also written to `path`.
    A parameter whose truth is 0 has no percent error: no metric, and an
    empty cell."""
    metrics = {}
    with open(path, "w", newline="") as fh:
        fh.write("param,true,estimate,percent_error\n")
        for name, est in estimates.items():
            metrics[f"param_{name}_estimate"] = est
            cell = ""
            if truth[name] != 0.0:
                err = percent_error(est, truth[name])
                metrics[f"param_{name}_percent_error"] = err
                cell = _fmt(err)
            fh.write(f"{name},{_fmt(truth[name])},{_fmt(est)},{cell}\n")
    return metrics


# -- method runners -----------------------------------------------------------
# Every runner takes (opts, sim, out, seed): its method's parsed section,
# the parsed [simulator] section, the output directory and the master
# seed, and returns the run's metrics.


def _noisy_filter_setup(opts, traj, seed):
    master = nk.RngStream(seed)
    y = add_noise(traj.a, opts["noise_ratio"], master.substream("sim-noise"))
    noise = flt.NoiseConfig.matched(traj.a, opts["noise_ratio"])
    return master, y, noise


def _filter_metrics(result, params, traj, out):
    result.to_csv(out / "estimates.csv")
    return {**state_metrics(traj, result.mean),
            **param_metrics(out / "params.csv", asdict(params),
                            result.final_params())}


def run_ukf(opts, sim, out, seed):
    params, forcing, traj = build_simulation(sim)
    _, y, noise = _noisy_filter_setup(opts, traj, seed)
    layout = flt.AugmentedState()
    theta0 = {"k": opts["k0"], "c": opts["c0"], "k3": opts["k30"]}
    init = flt.default_ukf_init(layout, (sim["u0"], sim["v0"]), theta0)
    result = flt.run_ukf(traj, forcing, y, layout, init, params, noise)
    return _filter_metrics(result, params, traj, out)


def run_pf(opts, sim, out, seed):
    params, forcing, traj = build_simulation(sim)
    master, y, noise = _noisy_filter_setup(opts, traj, seed)
    layout = flt.AugmentedState()
    init = flt.default_pf_init(layout, opts["particles"],
                               (sim["u0"], sim["v0"]),
                               master.substream("init"))
    result = flt.run_pf(traj, forcing, y, layout, init, params, noise,
                        master.substream("filter"))
    return _filter_metrics(result, params, traj, out)


def run_sindy(opts, sim, out, seed):
    params, forcing, traj = build_simulation(sim)
    lib = dictionary.build_library(traj)
    target = params.m * traj.a
    coeffs = dictionary.stlsq(lib, target, threshold=opts["threshold"],
                              ridge=opts["ridge"])
    coeffs.to_csv(out / "model.csv")
    (out / "equation.txt").write_text(coeffs.equation_string("m*dv/dt") + "\n")
    recon = lib.theta @ coeffs.values
    metrics = {"support_size": float(np.sum(coeffs.support))}
    scale = np.linalg.norm(target)
    if scale != 0.0:  # a record at rest has no relative residual
        metrics["residual_rel"] = float(np.linalg.norm(recon - target) / scale)
    truth = {"u": -params.k, "v": -params.c, "u^3": -params.k3, "f": 1.0}
    for name, ref in truth.items():
        est = coeffs.active().get(name, 0.0)
        metrics[f"param_{name}_estimate"] = est
        if ref != 0.0:
            metrics[f"param_{name}_percent_error"] = percent_error(est, ref)
    return metrics


def run_nn_baseline(opts, sim, out, seed):
    params, forcing, traj = build_simulation(sim)
    res = pinn.run_enhanced_learning(traj, stride=opts["stride"], seed=seed,
                                     truth=params, net=net_spec(opts),
                                     train=train_config(opts),
                                     baseline_only=True)
    nets.save_loss_history(out / "history.csv", res.history)
    return state_metrics(traj, res.baseline_pred, out / "result.csv")


def run_pinn_discovery(opts, sim, out, seed):
    params, forcing, traj = build_simulation(sim)
    res = pinn.run_equation_discovery(
        traj, nonlinear=opts["nonlinear"], seed=seed, truth=params,
        net=net_spec(opts), train=train_config(opts), n_obs=opts["n_obs"])
    nets.save_loss_history(out / "history.csv", res.history)
    estimates = {name: res.estimates[name]
                 for name in res.problem.config.trainable}
    return {**state_metrics(traj, res.prediction(traj.t), out / "result.csv"),
            **param_metrics(out / "params.csv", asdict(params), estimates)}


def run_pinn_enhanced(opts, sim, out, seed):
    params, forcing, traj = build_simulation(sim)
    res = pinn.run_enhanced_learning(traj, stride=opts["stride"], seed=seed,
                                     truth=params, net=net_spec(opts),
                                     train=train_config(opts))
    nets.save_loss_history(out / "history.csv", res.history)
    base = state_metrics(traj, res.baseline_pred, out / "baseline.csv")
    return {**state_metrics(traj, res.informed_pred, out / "result.csv"),
            "baseline_rmse_u": base["rmse_u"],
            "baseline_rmse_v": base["rmse_v"]}


def run_pinn_forward(opts, sim, out, seed):
    params, forcing, traj = build_simulation(sim)
    # the runner sets each window's omega0 itself
    net = nets.MlpSpec(widths=opts["widths"], activation=opts["activation"])
    res = pinn.run_forward_model(
        traj, params, forcing, seed=seed, net=net,
        train=train_config(opts), windows=opts["windows"],
        margin=opts["margin"])
    nets.save_loss_history(out / "history.csv", res.history)
    metrics = state_metrics(traj, res.pred, out / "result.csv")
    return {**metrics, **relative_rmse_u(metrics["rmse_u"], traj)}


def run_pgnn(opts, sim, out, seed):
    params, forcing, traj = build_simulation(sim)
    res = pgnn.run_guided(traj, forcing, params, stride=opts["stride"],
                          seed=seed, train=train_config(opts))
    nets.save_loss_history(out / "history.csv", res.history)
    write_csv(out / "result.csv",
              "t,u_true,u_prior,u_hat,v_true,v_prior,v_hat",
              zip(traj.t, traj.u, res.prior_traj.u, res.combined[:, 0],
                  traj.v, res.prior_traj.v, res.combined[:, 1]))
    return {**state_metrics(traj, res.combined),
            "prior_rmse_u": rmse(res.prior_traj.u, traj.u),
            "prior_rmse_v": rmse(res.prior_traj.v, traj.v)}


def run_gp(kind, opts, sim, out, seed):
    """Runner of gp-<kind> once `kind` is bound."""
    params, forcing, traj = build_simulation(sim)
    ratio = opts["noise_ratio"]
    obs = subsample(traj, stride=opts["stride"])
    master = nk.RngStream(seed)
    y = add_noise(obs.u, ratio, master.substream("sim-noise"))
    noise_var = max((ratio * rms(traj.u)) ** 2, 1e-12)
    spec = gp.KernelSpec(kind=kind, m=params.m, c=params.c, k=params.k,
                         noise_var=noise_var)
    model = gp.fit(obs.t, y, spec, seed=seed, restarts=opts["restarts"],
                   steps=opts["steps"])
    pred = model.predict(traj.t)
    write_csv(out / "result.csv", "t,u_true,mean,sd",
              zip(traj.t, traj.u, pred.mean, pred.std))
    return {
        "rmse_u": rmse(pred.mean, traj.u),
        **nmse_metric("nmse_u", pred.mean, traj.u),
        "mean_std": float(np.mean(pred.std)),
        "coverage_2sigma": float(np.mean(pred.covers(traj.u))),
        "log_marginal_likelihood": model.log_marginal_likelihood,
    }


def run_node(opts, sim, out, seed):
    params, forcing, traj = build_simulation(sim)
    dataset = node_mod.OneStepDataset.from_trajectory(traj, forcing)
    func, history = node_mod.train_k1_predictor(
        dataset, spec=net_spec(opts), seed=seed, train=train_config(opts),
        refine=opts["refine"], refine_iters=opts["refine_iters"])
    path = node_mod.rollout(func, np.array([traj.u[0], traj.v[0]]), forcing,
                            len(traj), traj.rate)
    nets.save_loss_history(out / "history.csv", history)
    metrics = state_metrics(traj, path, out / "rollout.csv")
    return {"rmse_u": metrics["rmse_u"], "rmse_v": metrics["rmse_v"],
            **relative_rmse_u(metrics["rmse_u"], traj),
            "one_step_loss": history[-1]}


def run_hnn(opts, sim, out, seed):
    h_step, steps, u0 = opts["step"], opts["steps"], opts["u0"]
    if not h_step > 0.0:
        raise ConfigError(f"[hnn] step must be positive, got {h_step}")
    if steps < 1:
        raise ConfigError(f"[hnn] steps must be >= 1, got {steps}")
    if u0 == 0.0:
        # the conservative record would rest at H = 0: nothing to learn,
        # and the energy drift is relative to H[0]
        raise ConfigError("[hnn] u0 must be nonzero")
    # trains and scores on its own unforced, undamped record
    params, _ = build_model(sim)
    cons = OscillatorParams(m=params.m, c=0.0, k=params.k, k3=params.k3)
    cons_traj = simulate(cons, ForcingSpec(amplitudes=0.0),
                         n=sim["n"], rate=sim["rate"], z0=(u0, 0.0))
    q, p, qd, pd = node_mod.conservative_batch(cons_traj, cons.m)
    hnet, history = node_mod.hnn_train(q, p, qd, pd, seed=seed,
                                       train=train_config(opts))
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


_GP = {"stride": 12, "noise_ratio": 0.085, "restarts": 8, "steps": 200}
# nn-baseline is pinn-enhanced's data-only twin
_ENHANCED = {"widths": (1, 32, 32, 32, 2), "activation": "sin",
             "omega0": 60.0, "adam_iters": 5000, "adam_lr": 1e-3,
             "lbfgs_iters": 500, "stride": 16}

# method -> (runner, {key: default}): the keys its section may set
METHODS = {
    "ukf": (run_ukf, {"noise_ratio": 0.085, "k0": 1.0, "c0": 0.5,
                      "k30": 40.0}),
    "pf": (run_pf, {"noise_ratio": 0.085, "particles": 1000}),
    "sindy": (run_sindy, {"threshold": 0.1, "ridge": 0.0}),
    "nn-baseline": (run_nn_baseline, _ENHANCED),
    "pinn-discovery": (run_pinn_discovery, {
        "widths": (1, 32, 32, 32, 2), "activation": "sin", "omega0": 60.0,
        "adam_iters": 5000, "adam_lr": 1e-3, "lbfgs_iters": 500,
        "nonlinear": True, "n_obs": 256}),
    "pinn-enhanced": (run_pinn_enhanced, _ENHANCED),
    "pinn-forward": (run_pinn_forward, {
        "widths": (1, 32, 32, 32, 2), "activation": "sin",
        "adam_iters": 3000, "adam_lr": 2e-3, "lbfgs_iters": 2000,
        "windows": 12, "margin": 6}),
    "pgnn": (run_pgnn, {"adam_iters": 2000, "adam_lr": 2e-3,
                        "lbfgs_iters": 300, "stride": 1}),
    "gp-se": (functools.partial(run_gp, "se"), _GP),
    "gp-sdof": (functools.partial(run_gp, "sdof"), _GP),
    "node": (run_node, {
        "widths": (3, 32, 32, 2), "activation": "tanh", "omega0": 60.0,
        "adam_iters": 2000, "adam_lr": 3e-3, "lbfgs_iters": 300,
        "refine": True, "refine_iters": 250}),
    "hnn": (run_hnn, {"adam_iters": 3000, "adam_lr": 3e-3, "lbfgs_iters": 300,
                      "step": 5e-3, "steps": 1000, "u0": 1.0}),
}


def run_experiment(cfg: Config, seed_override=None, out_override=None):
    method = cfg.get("experiment", "method")
    if method not in METHODS:
        raise ConfigError(f"unknown method '{method}' for [experiment] "
                          f"method; choose from {', '.join(METHODS)}")
    runner, keys = METHODS[method]
    tables = {"experiment": {"method": None, "seed": 1234,
                             "out": f"results/{method}"},
              "simulator": SIMULATOR, method: keys}
    exp, sim, opts = cfg.read(tables).values()
    # the method fixes what its network takes in and gives out
    ends = keys.get("widths")
    widths = opts.get("widths", ())
    if ends and widths[:1] + widths[-1:] != (ends[0], ends[-1]):
        raise ConfigError(f"[{method}] widths must run from {ends[0]} to "
                          f"{ends[-1]}")
    if opts.get("stride", 1) < 1:
        raise ConfigError(f"[{method}] stride must be >= 1, got "
                          f"{opts['stride']}")
    seed = seed_override if seed_override is not None else exp["seed"]
    check_seed("--seed" if seed_override is not None else "[experiment] seed",
               seed)
    out = Path(out_override if out_override is not None else exp["out"])
    out.mkdir(parents=True, exist_ok=True)
    start = time.time()
    try:
        metrics = runner(opts, sim, out, seed)
    except NumericFailure:
        write_manifest(out / "manifest.txt", cfg, seed, time.time() - start)
        raise
    metrics["config_hash_int"] = float(int(cfg.hash()[:8], 16))
    write_metrics(out / "metrics.csv", metrics)
    write_manifest(out / "manifest.txt", cfg, seed, time.time() - start)
    return out, metrics


def run_simulate(cfg: Config, out_override=None):
    _, _, traj = build_simulation(cfg.section("simulator", SIMULATOR))
    out = Path(out_override if out_override is not None
               else cfg.get("experiment", "out", "results/simulate"))
    out.mkdir(parents=True, exist_ok=True)
    traj.to_csv(out / "trajectory.csv")
    return out


def compare(dirs):
    """Align metrics of several result directories into one table, one
    column per directory in the order given."""
    names, columns = [], []
    for d in dirs:
        path = Path(d) / "metrics.csv"
        if not path.exists():
            print(f"warning: {path} missing, skipped", file=sys.stderr)
            continue
        names.append(Path(d).name)
        columns.append(read_metrics(path))
    lines = ["metric," + ",".join(names)]
    for key in sorted(set().union(*columns)):
        cells = [_fmt(col[key]) if key in col else "" for col in columns]
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
