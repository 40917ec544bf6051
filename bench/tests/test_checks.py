"""Output checks feed the failure count; times are normalised by the
reference kernel around each run; the benchmark refuses to run without
the program's sources."""

import contextlib
import io
import shutil
import subprocess
import sys

import pytest

from duffbench import cli

import hostref
import run
import workloads

WORKLOAD = "train-deep"
METHODS = ("sindy", "ukf", "gp-se")  # fast runs: shipped sindy, light rest


@pytest.fixture(scope="module")
def two_passes(tmp_path_factory):
    """Two passes of the same seed over a few fast configs."""
    root = tmp_path_factory.mktemp("passes")
    (root / "configs").mkdir()
    configs = dict(workloads.generate(WORKLOAD, 3, root / "configs"))
    for index in range(2):
        for method in METHODS:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", str(configs[method]), "--out",
                                 str(root / f"pass{index}" / method)])
            assert code == 0
    return root


def copy_passes(src, dst):
    shutil.copytree(src, dst)
    return [({"runs": [{"method": m, "dir": m, "code": 0, "seconds": 0.1}
                       for m in METHODS]}, dst / f"pass{i}")
            for i in range(2)]


def test_clean_passes_have_no_failures(two_passes, tmp_path):
    passes = copy_passes(two_passes, tmp_path / "p")
    attempted, failed, problems = run.score(WORKLOAD, passes)
    assert (attempted, failed, problems) == (6, 0, [])


def test_changed_csv_byte_counts_as_failure(two_passes, tmp_path):
    passes = copy_passes(two_passes, tmp_path / "p")
    path = passes[1][1] / "ukf" / "estimates.csv"
    data = path.read_bytes()
    path.write_bytes(data.replace(b"1", b"2", 1))
    attempted, failed, problems = run.score(WORKLOAD, passes)
    assert failed == 1
    assert "estimates.csv" in problems[0]


def test_truncated_metrics_csv_counts_as_failure(two_passes, tmp_path):
    passes = copy_passes(two_passes, tmp_path / "p")
    path = passes[0][1] / "sindy" / "metrics.csv"
    path.write_text(path.read_text()[:40])
    attempted, failed, problems = run.score(WORKLOAD, passes)
    # pass 0 cannot be read; pass 1 differs from pass 0
    assert failed == 2


def test_non_finite_metric_counts_as_failure(two_passes, tmp_path):
    passes = copy_passes(two_passes, tmp_path / "p")
    for _, out in passes:
        path = out / "gp-se" / "metrics.csv"
        lines = path.read_text().splitlines()
        lines = [line if not line.startswith("rmse_u,") else "rmse_u,nan"
                 for line in lines]
        path.write_text("\n".join(lines) + "\n")
    attempted, failed, problems = run.score(WORKLOAD, passes)
    assert failed == 2
    assert all("rmse_u" in p for p in problems)


def test_nonzero_exit_counts_as_failure(two_passes, tmp_path):
    passes = copy_passes(two_passes, tmp_path / "p")
    passes[1][0]["runs"][0]["code"] = 3
    attempted, failed, problems = run.score(WORKLOAD, passes)
    assert failed == 1 and "exit code 3" in problems[0]


def test_times_are_normalised_by_the_reference_around_each_run():
    nominal = hostref.NOMINAL_S
    # kernel timings at 0, 1, 2, 3 s; a short run at 1.1 s sees only
    # those next to it, a 3-s run from 3.1 s sees every one
    ref = [(0.0, [nominal] * 3), (1.0, [nominal] * 3),
           (2.0, [3 * nominal] * 3), (3.0, [3 * nominal] * 3),
           (6.2, [3 * nominal] * 3)]
    runs = [{"start": 0.1, "seconds": 0.8}, {"start": 1.1, "seconds": 0.8},
            {"start": 2.1, "seconds": 0.8}, {"start": 3.1, "seconds": 3.0}]
    run.normalise(runs, ref)
    assert runs[0]["norm_s"] == pytest.approx(0.8)
    assert runs[1]["norm_s"] == pytest.approx(0.8 / 2)
    assert runs[2]["norm_s"] == pytest.approx(0.8 / 3)
    assert runs[3]["norm_s"] == pytest.approx(3.0 / 3)


def test_fails_without_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOAD, "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
    assert not (tmp_path / ".bench_tmp").exists()


def test_configs_follow_the_seed_and_keep_the_forcing():
    for workload in workloads.WORKLOADS:
        text = workloads.config_text(workload, "node", 42)
        assert "seed = 42" in text and "phase_seed = 101" in text
    assert workloads.config_text("train-deep", "node", 1) \
        != workloads.config_text("train-wide-estimators", "node", 1)
