"""Harness contracts: config validation, determinism, manifests, compare."""

import configparser
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from duffbench import cli

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


FAST_SINDY = """
[experiment]
method = sindy
seed = 11
out = {out}

[simulator]
n = 256
"""


def test_unknown_method_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
[experiment]
method = quantum-leap
""")
    code = cli.main(["run", cfg])
    assert code == 2
    assert "method" in capsys.readouterr().err


def test_missing_config_file_is_config_error(tmp_path, capsys):
    code = cli.main(["run", str(tmp_path / "nope.cfg")])
    assert code == 2


def test_bad_value_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
[experiment]
method = sindy
seed = not-a-number
""")
    code = cli.main(["run", cfg])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_sindy_run_and_artifacts(tmp_path):
    out = tmp_path / "sindy"
    cfg = write_cfg(tmp_path, FAST_SINDY.format(out=out))
    assert cli.main(["run", cfg]) == 0
    assert (out / "model.csv").exists()
    assert (out / "equation.txt").exists()
    assert (out / "metrics.csv").exists()
    manifest = (out / "manifest.txt").read_text()
    assert "config_hash" in manifest
    assert "seed 11" in manifest


def test_byte_identical_reruns(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg = write_cfg(tmp_path, """
[experiment]
method = ukf
seed = 5

[simulator]
n = 128

[ukf]
noise_ratio = 0.085
""")
    assert cli.main(["run", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["run", cfg, "--out", str(out_b)]) == 0
    for name in ("estimates.csv", "params.csv", "metrics.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_manifest_lists_every_consumed_key(tmp_path):
    out = tmp_path / "sindy"
    cfg_path = write_cfg(tmp_path, FAST_SINDY.format(out=out))
    cfg = cli.Config.from_file(cfg_path)
    cli.run_experiment(cfg)
    manifest = (out / "manifest.txt").read_text()
    listed = {line.strip().split(" = ")[0]
              for line in manifest.splitlines() if " = " in line}
    assert set(cfg.consumed) == listed
    assert "simulator.n" in listed


def test_seed_and_out_overrides(tmp_path):
    out = tmp_path / "override"
    cfg = write_cfg(tmp_path, FAST_SINDY.format(out=tmp_path / "ignored"))
    assert cli.main(["run", cfg, "--seed", "99", "--out", str(out)]) == 0
    assert "seed 99" in (out / "manifest.txt").read_text()
    assert not (tmp_path / "ignored").exists()


def test_simulate_command(tmp_path):
    out = tmp_path / "sim"
    cfg = write_cfg(tmp_path, f"""
[experiment]
method = sindy
out = {out}

[simulator]
n = 64
""")
    assert cli.main(["simulate", cfg]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,u,v,a,f"
    assert len(lines) == 65


def test_simulate_rejects_an_unknown_simulator_key(tmp_path, capsys):
    out = tmp_path / "sim"
    cfg = write_cfg(tmp_path, f"""
[experiment]
method = sindy
out = {out}

[simulator]
nn = 64
""")
    assert cli.main(["simulate", cfg]) == 2
    assert "unknown key [simulator] nn" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_reads_a_shipped_run_config(tmp_path):
    out = tmp_path / "truth"
    assert cli.main(["simulate", str(CONFIG_DIR / "sindy.cfg"),
                     "--out", str(out)]) == 0
    assert (out / "trajectory.csv").exists()


def test_compare_single_directory(tmp_path, capsys):
    out = tmp_path / "one"
    cfg = write_cfg(tmp_path, FAST_SINDY.format(out=out))
    cli.main(["run", cfg])
    capsys.readouterr()
    assert cli.main(["compare", str(out)]) == 0
    table = capsys.readouterr().out
    assert table.splitlines()[0] == "metric,one"
    assert "residual_rel" in table


def test_compare_skips_missing_with_warning(tmp_path, capsys):
    assert cli.main(["compare", str(tmp_path / "ghost")]) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert captured.out.strip() == "metric,"


def test_compare_keeps_directories_with_the_same_name_apart(tmp_path, capsys):
    for parent, value in (("a", 1.0), ("b", 2.0)):
        (tmp_path / parent / "x").mkdir(parents=True)
        cli.write_metrics(tmp_path / parent / "x" / "metrics.csv",
                          {"rmse": value})
    assert cli.main(["compare", str(tmp_path / "a" / "x"),
                     str(tmp_path / "b" / "x")]) == 0
    assert capsys.readouterr().out.splitlines() == ["metric,x,x", "rmse,1,2"]


def test_compare_empty_list(tmp_path, capsys):
    assert cli.main(["compare"]) == 0
    assert capsys.readouterr().out.strip() == "metric,"


def test_gp_methods_through_cli(tmp_path):
    outs = {}
    for method in ("gp-se", "gp-sdof"):
        out = tmp_path / method
        cfg = write_cfg(tmp_path, f"""
[experiment]
method = {method}
seed = 2025
out = {out}

[{method}]
stride = 12
restarts = 4
steps = 120
""", name=f"{method}.cfg")
        assert cli.main(["run", cfg]) == 0
        outs[method] = cli.read_metrics(out / "metrics.csv")
        header = (out / "result.csv").read_text().splitlines()[0]
        assert header == "t,u_true,mean,sd"
    assert outs["gp-sdof"]["rmse_u"] < outs["gp-se"]["rmse_u"]


def test_gp_sdof_without_sensor_noise(tmp_path):
    """noise_ratio = 0 leaves K = σ_f²·B + 1e-12·I, nearly singular."""
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, f"[experiment]\nmethod = gp-sdof\n"
                              f"out = {out}\n\n[gp-sdof]\nnoise_ratio = 0\n")
    assert cli.main(["run", cfg]) == 0
    metrics = cli.read_metrics(out / "metrics.csv")
    assert "log_marginal_likelihood" in metrics
    assert all(np.isfinite(value) for value in metrics.values())


class Simulated(Exception):
    """Raised by a patched `cli.simulate`: the run got past its config."""


def refuse_to_simulate(*args, **kwargs):
    raise Simulated


def test_shipped_configs_parse_and_name_valid_methods(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "simulate", refuse_to_simulate)
    for path in sorted(CONFIG_DIR.glob("*.cfg")):
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        assert parser.read(path)
        method = parser.get("experiment", "method")
        assert method in cli.METHODS, path.name
        # every key is in the method's table and parses
        with pytest.raises(Simulated):
            cli.run_experiment(cli.Config.from_file(path),
                               out_override=tmp_path / path.stem)


@pytest.mark.parametrize("method,line,key", [
    ("sindy", "treshold = 0.5", "[sindy] treshold"),
    ("gp-se", "restarts = x", "[gp-se] restarts"),
    ("nn-baseline", "activation = relu", "[nn-baseline] activation"),
    ("pgnn", "adam_iters = -1", "[pgnn] adam_iters"),
    ("node", "adam_iters = 0\nlbfgs_iters = 0", "[node] adam_iters"),
    ("gp-se", "steps = -1", "[gp-se] steps"),
    ("pinn-enhanced", "widths = 1 0 2", "[pinn-enhanced] widths"),
    ("pinn-forward", "windows = 0", "[pinn-forward] windows"),
    ("pf", "particles = 0", "[pf] particles"),
    ("ukf", "k0 = 0", "[ukf] k0")])
def test_config_errors_exit_before_simulating(tmp_path, capsys, monkeypatch,
                                              method, line, key):
    monkeypatch.setattr(cli, "simulate", refuse_to_simulate)
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, f"[experiment]\nmethod = {method}\n"
                              f"out = {out}\n\n[{method}]\n{line}\n")
    assert cli.main(["run", cfg]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line,key", [("rate = 0", "[simulator] rate"),
                                      ("n = 1", "[simulator] n")])
def test_simulate_checks_ranges_before_simulating(tmp_path, capsys,
                                                 monkeypatch, line, key):
    monkeypatch.setattr(cli, "simulate", refuse_to_simulate)
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, f"[experiment]\nmethod = sindy\nout = {out}\n"
                              f"\n[simulator]\n{line}\n")
    assert cli.main(["simulate", cfg]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra,keys", [
    ("[node]\nrefine_iters = 0\n", ["[node] refine_iters"]),
    ("[simulator]\nn = 65\n", ["[node] refine", "[simulator] n"])])
def test_node_refine_checks_come_before_simulating(tmp_path, capsys,
                                                   monkeypatch, extra, keys):
    monkeypatch.setattr(cli, "simulate", refuse_to_simulate)
    cfg = write_cfg(tmp_path, f"[experiment]\nmethod = node\n"
                              f"out = {tmp_path / 'out'}\n\n{extra}")
    assert cli.main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert all(key in err for key in keys), err


@pytest.mark.parametrize("method,line,key", [
    ("pinn-discovery", "n_obs = -3", "[pinn-discovery] n_obs"),
    ("pinn-discovery", "n_obs = 65", "[pinn-discovery] n_obs"),
    ("gp-se", "stride = 64", "[gp-se] stride"),
    ("gp-sdof", "stride = 100", "[gp-sdof] stride")])
def test_observation_counts_are_checked_before_simulating(
        tmp_path, capsys, monkeypatch, method, line, key):
    monkeypatch.setattr(cli, "simulate", refuse_to_simulate)
    cfg = write_cfg(tmp_path, f"[experiment]\nmethod = {method}\n"
                              f"out = {tmp_path / 'out'}\n\n[simulator]\n"
                              f"n = 64\n\n[{method}]\n{line}\n")
    assert cli.main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert key in err and "[simulator] n = 64" in err, err


@pytest.mark.parametrize("method,line", [
    ("pinn-discovery", "n_obs = 1"), ("pinn-discovery", "n_obs = 64"),
    ("gp-se", "stride = 63")])
def test_observation_counts_at_their_limits_reach_the_simulator(
        tmp_path, monkeypatch, method, line):
    monkeypatch.setattr(cli, "simulate", refuse_to_simulate)
    cfg = write_cfg(tmp_path, f"[experiment]\nmethod = {method}\n\n"
                              f"[simulator]\nn = 64\n\n[{method}]\n{line}\n")
    with pytest.raises(Simulated):
        cli.run_experiment(cli.Config.from_file(cfg),
                           out_override=tmp_path / "out")


def test_refine_runs_on_the_shortest_record(tmp_path):
    """66 samples make 65 pairs: one window for the 64-step stage."""
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, f"[experiment]\nmethod = node\nout = {out}\n\n"
                              "[simulator]\nn = 66\n\n[node]\nadam_iters = 1\n"
                              "lbfgs_iters = 0\nrefine_iters = 1\n")
    assert cli.main(["run", cfg]) == 0
    assert (out / "rollout.csv").exists()


# configs that once crashed with a traceback:
# (method, extra INI, exit code[, a word the one-line error must name])
HOSTILE = {
    "one-sample": ("sindy", "[simulator]\nn = 1\n", 2, "[simulator] n"),
    "diverging-simulation": ("sindy", "[simulator]\nk3 = -1e6\nu0 = 5\n", 3),
    # the 16-substep truth stays finite; the filter's one RK4 step does not
    "diverging-particle-step": ("pf", "[simulator]\nn = 64\namplitude = 3000\n"
                                "\n[pf]\nparticles = 50\n", 3,
                                "particle propagation went non-finite"),
    # finite particles whose every squared innovation overflows; at 1e5
    # the predicted measurement itself is inf
    "diverging-particle-ensemble": ("pf", "[simulator]\nn = 64\n"
                                    "amplitude = 1e4\n\n[pf]\n"
                                    "particles = 50\n", 3,
                                    "every squared innovation"),
    "overflowing-particle-measurement": ("pf", "[simulator]\nn = 64\n"
                                         "amplitude = 1e5\n\n[pf]\n"
                                         "particles = 50\n", 3,
                                         "every squared innovation"),
    "overdamped-gp-sdof": ("gp-sdof", "[simulator]\nn = 256\nc = 100\n", 2,
                           "[simulator] m, c and k"),
    "zero-forward-windows": ("pinn-forward",
                             "[simulator]\nn = 256\n\n"
                             "[pinn-forward]\nwindows = 0\n", 2,
                             "[pinn-forward] windows"),
    "relu-activation": ("nn-baseline",
                        "[simulator]\nn = 256\n\n"
                        "[nn-baseline]\nactivation = relu\n", 2,
                        "[nn-baseline] activation"),
    "zero-particles": ("pf", "[simulator]\nn = 64\n\n[pf]\nparticles = 0\n",
                       2, "[pf] particles"),
    "one-gp-observation": ("gp-se",
                           "[simulator]\nn = 256\n\n[gp-se]\nstride = 300\n",
                           2, "[gp-se] stride"),
    "one-gp-sdof-observation": ("gp-sdof", "[simulator]\nn = 64\n\n"
                                "[gp-sdof]\nstride = 64\n", 2,
                                "[gp-sdof] stride", "[simulator] n"),
    "zero-discovery-observations": ("pinn-discovery", "[simulator]\nn = 64\n"
                                    "\n[pinn-discovery]\nn_obs = 0\n", 2,
                                    "[pinn-discovery] n_obs",
                                    "[simulator] n"),
    "discovery-observations-over-n": ("pinn-discovery",
                                      "[simulator]\nn = 64\n\n"
                                      "[pinn-discovery]\nn_obs = 65\n", 2,
                                      "[pinn-discovery] n_obs",
                                      "[simulator] n"),
    "zero-gp-restarts": ("gp-se",
                         "[simulator]\nn = 256\n\n[gp-se]\nrestarts = 0\n",
                         2, "[gp-se] restarts"),
    "zero-hnn-step": ("hnn", "[simulator]\nn = 64\n\n[hnn]\nstep = 0\n", 2,
                      "[hnn] step"),
    "zero-ukf-stiffness-guess": ("ukf", "[simulator]\nn = 64\n\n"
                                 "[ukf]\nk0 = 0\n", 2, "[ukf] k0"),
    "negative-ukf-cubic-guess": ("ukf", "[simulator]\nn = 64\n\n"
                                 "[ukf]\nk30 = -40\n", 2, "[ukf] k30"),
    "negative-hnn-steps": ("hnn", "[simulator]\nn = 64\n\n"
                           "[hnn]\nsteps = -1\n", 2, "[hnn] steps"),
    "zero-hnn-steps": ("hnn", "[simulator]\nn = 64\n\n[hnn]\nsteps = 0\n",
                       2, "[hnn] steps"),
    "zero-hnn-amplitude": ("hnn", "[simulator]\nn = 64\n\n[hnn]\nu0 = 0\n",
                           2, "u0"),
    # ½k·u0² + ¼k3·u0⁴ underflows to 0, or overflows
    "tiny-hnn-amplitude": ("hnn", "[simulator]\nn = 64\n\n[hnn]\n"
                           "u0 = 1e-300\n", 2, "[hnn] u0"),
    "huge-hnn-amplitude": ("hnn", "[simulator]\nn = 64\n\n[hnn]\n"
                           "u0 = 1e100\n", 2, "[hnn] u0"),
    # the record energy comes from k and k3 as well as u0
    "negative-hnn-cubic-stiffness": ("hnn", "[simulator]\nn = 64\n"
                                     "k3 = -1e300\n", 2, "[simulator] k3",
                                     "[hnn] u0"),
    "negative-mass": ("sindy", "[simulator]\nn = 64\nm = -1\n", 2,
                      "[simulator] m"),
    "negative-stiffness": ("sindy", "[simulator]\nn = 64\nk = -1\n", 2,
                           "[simulator] k"),
    "negative-damping": ("sindy", "[simulator]\nn = 64\nc = -1\n", 2,
                         "[simulator] c"),
    "negative-gp-sdof-restarts": ("gp-sdof", "[simulator]\nn = 256\n\n"
                                  "[gp-sdof]\nrestarts = -1\n", 2,
                                  "[gp-sdof] restarts"),
    # the sine network's first layer draws from [-omega0, omega0]
    "negative-baseline-omega0": ("nn-baseline", "[simulator]\nn = 64\n\n"
                                 "[nn-baseline]\nomega0 = -1\n", 2,
                                 "[nn-baseline] omega0"),
    "negative-discovery-omega0": ("pinn-discovery", "[simulator]\nn = 64\n"
                                  "\n[pinn-discovery]\nomega0 = -1\n", 2,
                                  "[pinn-discovery] omega0"),
    "negative-enhanced-omega0": ("pinn-enhanced", "[simulator]\nn = 64\n\n"
                                 "[pinn-enhanced]\nomega0 = -1\n", 2,
                                 "[pinn-enhanced] omega0"),
    # config keys and values the run checks before it simulates; the
    # iteration counts only keep the run short where it would go on
    "misspelt-sindy-key": ("sindy", "[simulator]\nn = 64\n\n"
                           "[sindy]\ntreshold = 0.5\n", 2, "[sindy] treshold"),
    "unknown-boolean": ("node", "[simulator]\nn = 64\n\n[node]\n"
                        "adam_iters = 1\nlbfgs_iters = 0\nrefine = ture\n",
                        2, "[node] refine"),
    "non-integer-width": ("nn-baseline", "[simulator]\nn = 64\n\n"
                          "[nn-baseline]\nwidths = 1 32 x 2\n", 2,
                          "[nn-baseline] widths"),
    "non-numeric-frequency": ("sindy", "[simulator]\nn = 64\n"
                              "frequencies = 0.7 abc\n", 2,
                              "[simulator] frequencies"),
    "three-network-outputs": ("nn-baseline", "[simulator]\nn = 64\n\n"
                              "[nn-baseline]\nadam_iters = 1\n"
                              "lbfgs_iters = 0\nwidths = 1 8 3\n", 2,
                              "[nn-baseline] widths"),
    "two-network-inputs": ("pinn-enhanced", "[simulator]\nn = 64\n\n"
                           "[pinn-enhanced]\nadam_iters = 1\n"
                           "lbfgs_iters = 0\nwidths = 2 8 2\n", 2,
                           "[pinn-enhanced] widths"),
    "flow-network-inputs": ("node", "[simulator]\nn = 64\n\n[node]\n"
                            "adam_iters = 1\nlbfgs_iters = 0\nrefine = no\n"
                            "widths = 2 8 2\n", 2, "[node] widths"),
    "pgnn-widths": ("pgnn", "[simulator]\nn = 64\n\n[pgnn]\n"
                    "adam_iters = 1\nlbfgs_iters = 0\nwidths = 1 8 2\n", 2,
                    "[pgnn] widths"),
    "non-integer-gp-restarts": ("gp-se", "[simulator]\nn = 256\n\n"
                                "[gp-se]\nrestarts = x\n", 2,
                                "[gp-se] restarts"),
    "undamped-gp-sdof": ("gp-sdof", "[simulator]\nn = 256\nc = 0\n", 2,
                         "[simulator] m, c and k"),
    "unsprung-gp-sdof": ("gp-sdof", "[simulator]\nn = 256\nk = 0\n", 2,
                         "[simulator] k"),
    "infinite-rate": ("sindy", "[simulator]\nn = 64\nrate = inf\n", 2,
                      "[simulator] rate"),
    "nan-mass": ("sindy", "[simulator]\nn = 64\nm = nan\n", 2,
                 "[simulator] m"),
    "infinite-frequency": ("sindy", "[simulator]\nn = 64\n"
                           "frequencies = 0.7 inf\n", 2,
                           "[simulator] frequencies"),
    "forward-omega0": ("pinn-forward", "[simulator]\nn = 64\n\n"
                       "[pinn-forward]\nomega0 = 1\n", 2,
                       "[pinn-forward] omega0"),
    # seeds key Philox streams, which take [0, 2**128), whether or not
    # the method draws from them; lines before a header are [experiment]'s
    "negative-seed": ("ukf", "seed = -1\n[simulator]\nn = 64\n", 2,
                      "[experiment] seed"),
    "seed-at-2**128": ("ukf", f"seed = {2 ** 128}\n[simulator]\nn = 64\n",
                       2, "[experiment] seed"),
    "negative-unused-seed": ("sindy", "seed = -1\n[simulator]\nn = 64\n",
                             2, "[experiment] seed"),
    "negative-phase-seed": ("sindy", "[simulator]\nn = 64\nphase_seed = -5\n",
                            2, "[simulator] phase_seed"),
    "negative-unused-phase-seed": ("hnn", "[simulator]\nn = 64\n"
                                   "phase_seed = -1\n", 2,
                                   "[simulator] phase_seed"),
    "negative-forward-margin": ("pinn-forward", "[simulator]\nn = 256\n\n"
                                "[pinn-forward]\nwindows = 2\nmargin = -1\n"
                                "adam_iters = 1\nlbfgs_iters = 0\n", 2,
                                "[pinn-forward] margin"),
    "zero-pgnn-stride": ("pgnn", "[simulator]\nn = 64\n\n"
                         "[pgnn]\nstride = 0\n", 2, "[pgnn] stride"),
    "negative-pgnn-stride": ("pgnn", "[simulator]\nn = 64\n\n"
                             "[pgnn]\nstride = -2\n", 2, "[pgnn] stride"),
    "zero-enhanced-stride": ("pinn-enhanced", "[simulator]\nn = 64\n\n"
                             "[pinn-enhanced]\nstride = 0\n", 2,
                             "[pinn-enhanced] stride"),
    "negative-baseline-stride": ("nn-baseline", "[simulator]\nn = 64\n\n"
                                 "[nn-baseline]\nstride = -3\n", 2,
                                 "[nn-baseline] stride"),
    "zero-gp-se-stride": ("gp-se", "[simulator]\nn = 64\n\n"
                          "[gp-se]\nstride = 0\n", 2, "[gp-se] stride"),
    "zero-gp-sdof-stride": ("gp-sdof", "[simulator]\nn = 64\n\n"
                            "[gp-sdof]\nstride = 0\n", 2, "[gp-sdof] stride"),
    "negative-adam-iters": ("pgnn", "[simulator]\nn = 64\n\n[pgnn]\n"
                            "adam_iters = -5\nlbfgs_iters = 6\n", 2,
                            "[pgnn] adam_iters"),
    "negative-lbfgs-iters": ("hnn", "[simulator]\nn = 64\n\n[hnn]\n"
                             "adam_iters = 1\nlbfgs_iters = -2\nsteps = 4\n",
                             2, "[hnn] lbfgs_iters"),
    "negative-refine-iters": ("node", "[simulator]\nn = 64\n\n[node]\n"
                              "adam_iters = 1\nlbfgs_iters = 0\n"
                              "refine_iters = -1\n", 2,
                              "[node] refine_iters"),
    # the 64-step refinement windows need 65 pairs, so 66 samples
    "refine-on-short-record": ("node", "[simulator]\nn = 65\n\n[node]\n"
                               "adam_iters = 1\nlbfgs_iters = 0\n", 2,
                               "[node] refine", "[simulator] n"),
    "negative-gp-steps": ("gp-se", "[simulator]\nn = 256\n\n[gp-se]\n"
                          "restarts = 1\nsteps = -3\n", 2, "[gp-se] steps"),
    # Adam ascends on a negative rate and stands still at zero
    "negative-adam-lr": ("hnn", "[simulator]\nn = 64\n\n[hnn]\n"
                         "adam_iters = 1\nlbfgs_iters = 0\nsteps = 4\n"
                         "adam_lr = -1\n", 2, "[hnn] adam_lr"),
    "zero-adam-lr": ("pgnn", "[simulator]\nn = 64\n\n[pgnn]\n"
                     "adam_iters = 1\nlbfgs_iters = 0\nadam_lr = 0\n", 2,
                     "[pgnn] adam_lr"),
    # a prior log-variance raw_var/guess² that leaves the float range:
    # 0 past the top, inf past the bottom
    "huge-ukf-stiffness-guess": ("ukf", "[simulator]\nn = 64\n\n"
                                 "[ukf]\nk0 = 1e300\n", 2, "[ukf] k0"),
    "tiny-ukf-stiffness-guess": ("ukf", "[simulator]\nn = 64\n\n"
                                 "[ukf]\nk0 = 1e-300\n", 2, "[ukf] k0"),
    "huge-ukf-damping-guess": ("ukf", "[simulator]\nn = 64\n\n"
                               "[ukf]\nc0 = 1e300\n", 2, "[ukf] c0"),
    "tiny-ukf-damping-guess": ("ukf", "[simulator]\nn = 64\n\n"
                               "[ukf]\nc0 = 1e-300\n", 2, "[ukf] c0"),
    "huge-ukf-cubic-guess": ("ukf", "[simulator]\nn = 64\n\n"
                             "[ukf]\nk30 = 1e300\n", 2, "[ukf] k30"),
    "tiny-ukf-cubic-guess": ("ukf", "[simulator]\nn = 64\n\n"
                             "[ukf]\nk30 = 1e-300\n", 2, "[ukf] k30"),
    # a noise variance (ratio·rms)² beyond the float range
    "huge-ukf-noise-ratio": ("ukf", "[simulator]\nn = 64\n\n"
                             "[ukf]\nnoise_ratio = 1e300\n", 2,
                             "[ukf] noise_ratio"),
    "huge-pf-noise-ratio": ("pf", "[simulator]\nn = 64\n\n"
                            "[pf]\nnoise_ratio = 1e300\n", 2,
                            "[pf] noise_ratio"),
    "huge-gp-se-noise-ratio": ("gp-se", "[simulator]\nn = 64\n\n"
                               "[gp-se]\nnoise_ratio = 1e300\n", 2,
                               "[gp-se] noise_ratio"),
    "huge-gp-sdof-noise-ratio": ("gp-sdof", "[simulator]\nn = 64\n\n"
                                 "[gp-sdof]\nnoise_ratio = 1e300\n", 2,
                                 "[gp-sdof] noise_ratio"),
    "negative-pf-noise-ratio": ("pf", "[simulator]\nn = 64\n\n"
                                "[pf]\nnoise_ratio = -0.1\n", 2,
                                "[pf] noise_ratio"),
    "negative-gp-se-noise-ratio": ("gp-se", "[simulator]\nn = 64\n\n"
                                   "[gp-se]\nnoise_ratio = -0.1\n", 2,
                                   "[gp-se] noise_ratio"),
    "negative-sindy-ridge": ("sindy", "[simulator]\nn = 64\n\n"
                             "[sindy]\nridge = -1\n", 2, "[sindy] ridge"),
    "negative-sindy-threshold": ("sindy", "[simulator]\nn = 64\n\n"
                                 "[sindy]\nthreshold = -1\n", 2,
                                 "[sindy] threshold"),
    # an oscillator-kernel constant beyond the float range: m² at this
    # mass, ω_n³ at this stiffness (whose record stays at rest)
    "huge-gp-sdof-mass": ("gp-sdof", "[simulator]\nn = 96\nm = 1e300\n\n"
                          "[gp-sdof]\nrestarts = 1\nsteps = 2\n", 2,
                          "[simulator] m"),
    "huge-gp-sdof-stiffness": ("gp-sdof", "[simulator]\nn = 96\nk = 1e300\n"
                               "amplitude = 0\n\n[gp-sdof]\nrestarts = 1\n"
                               "steps = 2\n", 2, "[simulator] k"),
    # at this rate the lengthscale underflows and the kernel is 0/0: the
    # restart fails with no RuntimeWarning
    "huge-gp-se-rate": ("gp-se", "[simulator]\nn = 96\nrate = 1e300\n\n"
                        "[gp-se]\nrestarts = 1\nsteps = 2\n", 3,
                        "hyperparameter search failed"),
    # a rate that overflows the weights: exit 3 with no RuntimeWarning
    "huge-baseline-adam-lr": ("nn-baseline", "[simulator]\nn = 64\n\n"
                              "[nn-baseline]\nadam_iters = 3\n"
                              "lbfgs_iters = 2\nadam_lr = 1e300\n", 3,
                              "non-finite"),
    "huge-node-adam-lr": ("node", "[simulator]\nn = 64\n\n[node]\n"
                          "adam_iters = 3\nlbfgs_iters = 2\nrefine = no\n"
                          "adam_lr = 1e300\n", 3, "non-finite"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_config_exits_with_contract_code(tmp_path, capsys, case):
    method, extra, expected, *named = HOSTILE[case]
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, f"[experiment]\nmethod = {method}\n"
                              f"out = {out}\n\n{extra}")
    assert cli.main(["run", cfg]) == expected
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    assert all(word in err for word in named), err
    if expected == 3:
        assert (out / "manifest.txt").exists()


# every key of SIMULATOR and of the method's table is set, one at a time,
# to each value of its type's set, on a 96-sample record at token budgets
BOUNDARY_VALUES = {float: ("0", "-1", "1e300", "-1e300", "1e-300"),
                   int: ("0", "-1", "1"),
                   tuple: ("", "0", "-1", "1e300", "1 0 2"),
                   bool: ("maybe",), str: ("bogus",)}
_NET = {"adam_iters": "1", "lbfgs_iters": "0"}
_GP_BUDGET = {"restarts": "1", "steps": "2"}
TOKEN_BUDGETS = {
    "ukf": {}, "pf": {"particles": "50"}, "sindy": {},
    "nn-baseline": _NET, "pinn-discovery": {**_NET, "n_obs": "16"},
    "pinn-enhanced": _NET, "pinn-forward": {**_NET, "windows": "2"},
    "pgnn": _NET, "gp-se": _GP_BUDGET, "gp-sdof": _GP_BUDGET,
    "node": {**_NET, "refine_iters": "1"}, "hnn": {**_NET, "steps": "4"}}


def names_key(err, section, key):
    """Whether `err` names [section] key, alone or in a list such as
    '[simulator] m, c and k'."""
    return re.search(rf"\[{section}\] (\w+, )*(\w+ and )?{key}\b", err)


@pytest.mark.parametrize("method", sorted(cli.METHODS))
def test_every_key_at_its_boundaries(tmp_path, capsys, method):
    cases = [(section, key, value)
             for section, table in (("simulator", cli.SIMULATOR),
                                    (method, cli.METHODS[method][1]))
             for key, default in table.items()
             for value in BOUNDARY_VALUES[type(default)]]
    wrong = []
    for i, (section, key, value) in enumerate(cases):
        sections = {"simulator": {"n": "96"},
                    method: dict(TOKEN_BUDGETS[method])}
        sections[section][key] = value
        out = tmp_path / str(i)
        text = f"[experiment]\nmethod = {method}\nout = {out}\n" + "".join(
            f"\n[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
            for name, keys in sections.items())
        case = f"[{section}] {key} = {value!r}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.main(["run", write_cfg(tmp_path, text)])
            except Exception as exc:  # a traceback: record it, go on
                code = repr(exc)
        err = capsys.readouterr().err.strip()
        wrong += [f"{case}: {w.message}" for w in caught
                  if issubclass(w.category, RuntimeWarning)]
        if code == 0:
            metrics = cli.read_metrics(out / "metrics.csv")
            if not all(np.isfinite(v) for v in metrics.values()):
                wrong.append(f"{case}: non-finite metric {metrics}")
        elif code == 2:
            if len(err.splitlines()) != 1 or not names_key(err, section, key):
                wrong.append(f"{case}: {err}")
        elif code == 3:
            if not (out / "manifest.txt").exists():
                wrong.append(f"{case}: exit 3 without manifest.txt")
        else:
            wrong.append(f"{case}: exit {code}")
    assert not wrong, "\n".join(wrong)


def test_overflowing_ukf_sigma_point_is_a_named_divergence(tmp_path, capsys):
    """At this seed a sigma point of the 128-sample record's UKF overflows
    in its RK4 step: the run exits 3 and says so, with no overflow warning
    and no NaN left to reach the covariance's Cholesky factor."""
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, f"[experiment]\nmethod = ukf\nseed = 1520\n"
                              f"out = {out}\n\n[simulator]\nphase_seed = 101\n"
                              f"n = 128\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["run", cfg]) == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "sigma-point propagation went non-finite" in err, err
    assert (out / "manifest.txt").exists()


@pytest.mark.parametrize("seed", ["-1", str(2 ** 128)])
def test_seed_flag_outside_philox_range_exits_2(tmp_path, capsys, seed):
    cfg = write_cfg(tmp_path, FAST_SINDY.format(out=tmp_path / "out"))
    assert cli.main(["run", cfg, "--seed", seed]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("method,bound", [("ukf", 10.0), ("pf", 15.0)])
def test_filters_start_from_the_record_state(tmp_path, method, bound):
    """c03's bounds hold for the shipped filters on a record that does
    not start at rest."""
    text = (CONFIG_DIR / f"{method}.cfg").read_text()
    cfg = write_cfg(tmp_path, text + "\n[simulator]\nu0 = 0.5\n")
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--seed", "2025", "--out", str(out)]) == 0
    metrics = cli.read_metrics(out / "metrics.csv")
    worst = max(metrics[f"param_{n}_percent_error"] for n in ("k", "c", "k3"))
    assert worst < bound


# short runs of the methods that report an error relative to the record:
# rmse_u relative to rms(u), or SINDy's residual relative to |m·a|; each
# with a metric that is written at rest too
RELATIVE = {
    "node": ("[node]\nadam_iters = 1\nlbfgs_iters = 0\nrefine = no\n",
             "rmse_u"),
    "pinn-forward": ("[pinn-forward]\nwindows = 2\nadam_iters = 1\n"
                     "lbfgs_iters = 0\n", "rmse_u"),
    "sindy": ("", "support_size"),
}


@pytest.mark.parametrize("method", sorted(RELATIVE))
@pytest.mark.parametrize("forcing", ["amplitude = 0", "frequencies ="])
def test_record_at_rest_has_no_relative_error(tmp_path, method, forcing):
    out = tmp_path / "out"
    section, absolute = RELATIVE[method]
    cfg = write_cfg(tmp_path, f"[experiment]\nmethod = {method}\n"
                              f"out = {out}\n\n[simulator]\nn = 64\n"
                              f"{forcing}\n\n{section}")
    assert cli.main(["run", cfg]) == 0
    metrics = cli.read_metrics(out / "metrics.csv")
    assert absolute in metrics
    # a constant truth has no relative error or nmse either: left out,
    # not written as nan or inf
    assert all(np.isfinite(value) for value in metrics.values())
    relative = {"rel_rmse_u", "residual_rel", "nmse_u", "nmse_v"}
    assert not relative & set(metrics)


# a true parameter of 0 has no percent error: the metric is left out and
# the params.csv cell is empty
ZERO_TRUTH = {
    "ukf-linear": ("ukf", "[simulator]\nn = 64\nk3 = 0\n", "k3"),
    "pf-linear": ("pf", "[simulator]\nn = 64\nk3 = 0\n\n"
                  "[pf]\nparticles = 50\n", "k3"),
    "pinn-discovery-undamped": ("pinn-discovery",
                                "[simulator]\nn = 64\nc = 0\n\n"
                                "[pinn-discovery]\nwidths = 1 8 2\n"
                                "n_obs = 16\nadam_iters = 2\n"
                                "lbfgs_iters = 0\n", "c"),
}


@pytest.mark.parametrize("case", sorted(ZERO_TRUTH))
def test_zero_true_parameter_has_no_percent_error(tmp_path, case):
    method, extra, name = ZERO_TRUTH[case]
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, f"[experiment]\nmethod = {method}\n"
                              f"out = {out}\n\n{extra}")
    assert cli.main(["run", cfg]) == 0
    metrics = cli.read_metrics(out / "metrics.csv")
    assert f"param_{name}_estimate" in metrics
    assert f"param_{name}_percent_error" not in metrics
    rows = dict(line.split(",", 1)
                for line in (out / "params.csv").read_text().splitlines())
    true, _, error = rows[name].split(",")
    assert float(true) == 0.0 and error == ""
    assert all(cell for row in rows.values() if row != rows[name]
               for cell in row.split(","))


def test_hnn_checks_but_does_not_simulate_the_forced_record(
        tmp_path, monkeypatch):
    forcings, real_simulate = [], cli.simulate

    def recording_simulate(params, forcing, **kwargs):
        forcings.append(forcing)
        return real_simulate(params, forcing, **kwargs)

    monkeypatch.setattr(cli, "simulate", recording_simulate)
    hnn = ("[simulator]\nn = 64\n{line}\n[hnn]\nadam_iters = 1\n"
           "lbfgs_iters = 0\nsteps = 4\n")
    cfg = write_cfg(tmp_path, "[experiment]\nmethod = hnn\n"
                              f"out = {tmp_path / 'ok'}\n\n"
                              + hnn.format(line=""))
    assert cli.main(["run", cfg]) == 0
    assert forcings and all(f.amplitudes == 0.0 for f in forcings)
    # the [simulator] section is still checked in full
    cfg = write_cfg(tmp_path, "[experiment]\nmethod = hnn\n"
                              f"out = {tmp_path / 'bad'}\n\n"
                              + hnn.format(line="frequencies = -1"))
    assert cli.main(["run", cfg]) == 2
