"""Harness contracts: config validation, determinism, manifests, compare."""

import configparser
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
    ("gp-se", "restarts = x", "[gp-se] restarts")])
def test_config_errors_exit_before_simulating(tmp_path, capsys, monkeypatch,
                                              method, line, key):
    monkeypatch.setattr(cli, "simulate", refuse_to_simulate)
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, f"[experiment]\nmethod = {method}\n"
                              f"out = {out}\n\n[{method}]\n{line}\n")
    assert cli.main(["run", cfg]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


# configs that once crashed with a traceback:
# (method, extra INI, exit code[, a word the one-line error must name])
HOSTILE = {
    "one-sample": ("sindy", "[simulator]\nn = 1\n", 2),
    "diverging-simulation": ("sindy", "[simulator]\nk3 = -1e6\nu0 = 5\n", 3),
    "overdamped-gp-sdof": ("gp-sdof", "[simulator]\nn = 256\nc = 100\n", 2),
    "zero-forward-windows": ("pinn-forward",
                             "[simulator]\nn = 256\n\n"
                             "[pinn-forward]\nwindows = 0\n", 2,
                             "[pinn-forward] windows"),
    "relu-activation": ("nn-baseline",
                        "[simulator]\nn = 256\n\n"
                        "[nn-baseline]\nactivation = relu\n", 2),
    "zero-particles": ("pf", "[simulator]\nn = 64\n\n[pf]\nparticles = 0\n",
                       2),
    "one-gp-observation": ("gp-se",
                           "[simulator]\nn = 256\n\n[gp-se]\nstride = 300\n",
                           2),
    "zero-gp-restarts": ("gp-se",
                         "[simulator]\nn = 256\n\n[gp-se]\nrestarts = 0\n",
                         2),
    "zero-hnn-step": ("hnn", "[simulator]\nn = 64\n\n[hnn]\nstep = 0\n", 2,
                      "step"),
    "zero-ukf-stiffness-guess": ("ukf", "[simulator]\nn = 64\n\n"
                                 "[ukf]\nk0 = 0\n", 2, "k0"),
    "negative-ukf-cubic-guess": ("ukf", "[simulator]\nn = 64\n\n"
                                 "[ukf]\nk30 = -40\n", 2, "k30"),
    "negative-hnn-steps": ("hnn", "[simulator]\nn = 64\n\n"
                           "[hnn]\nsteps = -1\n", 2, "steps"),
    "zero-hnn-steps": ("hnn", "[simulator]\nn = 64\n\n[hnn]\nsteps = 0\n",
                       2, "steps"),
    "zero-hnn-amplitude": ("hnn", "[simulator]\nn = 64\n\n[hnn]\nu0 = 0\n",
                           2, "u0"),
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
                         "zeta"),
    "unsprung-gp-sdof": ("gp-sdof", "[simulator]\nn = 256\nk = 0\n", 2,
                         "stiffness"),
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
                                "margin"),
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
                            "adam_iters"),
    "negative-lbfgs-iters": ("hnn", "[simulator]\nn = 64\n\n[hnn]\n"
                             "adam_iters = 1\nlbfgs_iters = -2\nsteps = 4\n",
                             2, "lbfgs_iters"),
    "negative-refine-iters": ("node", "[simulator]\nn = 64\n\n[node]\n"
                              "adam_iters = 1\nlbfgs_iters = 0\n"
                              "refine_iters = -1\n", 2, "refine_iters"),
    "negative-gp-steps": ("gp-se", "[simulator]\nn = 256\n\n[gp-se]\n"
                          "restarts = 1\nsteps = -3\n", 2, "steps"),
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
