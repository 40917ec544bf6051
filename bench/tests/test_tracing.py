"""The tracer counts exactly, restores every binding and leaves the
program's outputs unchanged."""

import contextlib
import io

import pytest

from duffbench import cli, duffing, filters, nets, pinn
from duffbench import numkit as nk
from duffbench.numkit import tape

import checks
import tracing
import workloads

METHODS = ("pinn-discovery", "node", "ukf", "pf", "gp-sdof", "sindy")


def traced_pass(configs, out):
    tracer = tracing.Tracer().install()
    try:
        for method in METHODS:
            tracer.context = method
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["run", str(configs[method]), "--out",
                                 str(out / method)]) == 0
    finally:
        tracer.uninstall()
    return tracer


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("traced")
    (root / "configs").mkdir()
    configs = dict(workloads.generate("train-wide-estimators", 5,
                                         root / "configs"))
    first = traced_pass(configs, root / "a")
    second = traced_pass(configs, root / "b")
    for method in METHODS:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["run", str(configs[method]), "--out",
                      str(root / "plain" / method)])
    return root, first, second


def test_exact_counts_repeat(runs):
    _, first, second = runs
    a, b = first.metrics(), second.metrics()
    for key in tracing.EXACT:
        assert a[key] == b[key], key
    assert a["tape.evals"] > 0 and a["duffing.multisine_force_calls"] > 0
    assert a["nets.lbfgs_evals"] >= a["nets.lbfgs_steps"] > 0


def test_every_layer_metric_is_reported(runs):
    _, first, _ = runs
    assert set(first.metrics()) == set(tracing.UNITS)


def test_tracing_leaves_outputs_unchanged(runs):
    root, _, _ = runs
    for method in METHODS:
        plain = checks.csv_digests(root / "plain" / method)
        assert plain and plain == checks.csv_digests(root / "a" / method)


def test_uninstall_restores_every_binding(runs):
    assert nk.backward is tape.backward
    assert nets.adam.__module__ == "duffbench.nets"
    assert not hasattr(nets.adam, "__wrapped__")
    for module in (filters, pinn, duffing):
        assert not hasattr(module.multisine_force, "__wrapped__")
    assert cli.simulate is duffing.simulate
    assert not hasattr(pinn.PinnProblem.fit, "__wrapped__")


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()

    def inner():
        return sum(range(20000))

    inner_t = tracer.wrap("x.inner", inner)
    outer_t = tracer.wrap("y.outer", lambda: [inner_t() for _ in range(3)])
    outer_t()
    inner_key, outer_key = ("", "x.inner"), ("", "y.outer")
    assert tracer.calls[inner_key] == 3
    assert tracer.self_time[outer_key] == pytest.approx(
        tracer.total[outer_key] - tracer.total[inner_key], abs=1e-12)
    assert 0 < tracer.self_time[outer_key] < tracer.total[outer_key]
