"""Dictionary build and STLSQ recovery contracts."""

import numpy as np
import pytest

from duffbench import dictionary as dct
from duffbench.duffing import OscillatorParams, Trajectory, simulate
from duffbench.errors import ConfigError


@pytest.fixture(scope="module")
def default_traj():
    return simulate()


@pytest.fixture(scope="module")
def linear_traj():
    return simulate(OscillatorParams(k3=0.0))


def test_constant_feature_column_of_ones(default_traj):
    lib = dct.build_library(default_traj)
    assert np.all(lib.theta[:, lib.names.index("1")] == 1.0)


def test_cube_feature_value():
    traj = Trajectory(np.array([0.0]), np.array([2.0]), np.array([0.0]),
                      np.array([0.0]), np.array([0.0]))
    lib = dct.build_library(traj)
    assert lib.theta[0, lib.names.index("u^3")] == 8.0


def test_default_library_shape(default_traj):
    lib = dct.build_library(default_traj)
    assert lib.theta.shape == (1024, 11)


def test_non_finite_feature_named():
    traj = Trajectory(np.array([0.0, 1.0]), np.array([1.0, np.inf]),
                      np.zeros(2), np.zeros(2), np.zeros(2))
    with pytest.raises(dct.FeatureError, match="'u' non-finite at row 1"):
        dct.build_library(traj)


@pytest.mark.parametrize("threshold,ridge,key", [(-0.1, 0.0, "threshold"),
                                                 (0.1, -1e-3, "ridge")])
def test_stlsq_rejects_negative_settings(default_traj, threshold, ridge, key):
    lib = dct.build_library(default_traj)
    with pytest.raises(ConfigError, match=f"{key} must be nonnegative"):
        dct.stlsq(lib, default_traj.a, threshold=threshold, ridge=ridge)


def test_zero_target_gives_zero_coefficients(default_traj):
    lib = dct.build_library(default_traj)
    out = dct.stlsq(lib, np.zeros(len(default_traj)), threshold=0.1)
    assert np.all(out.values == 0.0)


def test_exact_recovery_on_clean_data(default_traj):
    lib = dct.build_library(default_traj)
    y = 10.0 * default_traj.a  # m·ü, force units
    out = dct.stlsq(lib, y, threshold=0.1)
    expected = {"u": -15.0, "v": -1.0, "u^3": -100.0, "f": 1.0}
    assert set(out.active()) == set(expected)
    for name, ref in expected.items():
        assert abs(out.active()[name] - ref) / abs(ref) < 0.01


def test_linear_case_excludes_cubic(linear_traj):
    lib = dct.build_library(linear_traj)
    out = dct.stlsq(lib, 10.0 * linear_traj.a, threshold=0.1)
    assert out.values[lib.names.index("u^3")] == 0.0
    assert set(out.active()) == {"u", "v", "f"}


def test_fixed_point_of_stlsq(default_traj):
    lib = dct.build_library(default_traj)
    y = 10.0 * default_traj.a
    first = dct.stlsq(lib, y, threshold=0.1)
    again = dct.stlsq(lib, y, threshold=0.1)
    assert np.max(np.abs(first.values - again.values)) <= 1e-12


def test_scale_consistency(default_traj):
    lib = dct.build_library(default_traj)
    y = 10.0 * default_traj.a
    base = dct.stlsq(lib, y, threshold=0.1)
    scaled = dct.stlsq(lib, 7.0 * y, threshold=0.7)
    assert np.allclose(scaled.values, 7.0 * base.values, rtol=1e-10)


def test_residual_bound_on_clean_data(default_traj):
    lib = dct.build_library(default_traj)
    y = 10.0 * default_traj.a
    out = dct.stlsq(lib, y, threshold=0.1)
    resid = np.linalg.norm(lib.theta @ out.values - y) / np.linalg.norm(y)
    assert resid < 1e-3


def test_empty_support_flag(default_traj):
    lib = dct.build_library(default_traj)
    out = dct.stlsq(lib, 10.0 * default_traj.a, threshold=1e9)
    assert not out.support.any()
    assert np.all(out.values == 0.0)


def test_equation_string_and_csv(tmp_path, default_traj):
    lib = dct.build_library(default_traj)
    out = dct.stlsq(lib, 10.0 * default_traj.a, threshold=0.1)
    text = out.equation_string("m*a")
    assert text.startswith("m*a = ")
    assert "u^3" in text and "f" in text
    path = tmp_path / "model.csv"
    out.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "feature,coefficient"
    assert len(lines) == 12
