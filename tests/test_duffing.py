"""Simulator contracts: forcing, RK4 fidelity, noise, subsampling, CSV."""

import inspect
import math
import re
import warnings

import numpy as np
import pytest

import oracles
from duffbench import duffing, filters
from duffbench import numkit as nk
from duffbench.duffing import (
    FORCE_BLOCK,
    DivergenceError,
    ForcingSpec,
    OscillatorParams,
    add_noise,
    hamiltonian,
    multisine_force,
    rk4_increment,
    rk4_step_vjp,
    rms,
    simulate,
    stage_forces,
    subsample,
)


@pytest.fixture(scope="module")
def default_traj():
    return simulate()


def test_zero_amplitude_force_is_zero():
    spec = ForcingSpec(amplitudes=0.0)
    t = np.linspace(0.0, 50.0, 101)
    assert np.all(multisine_force(spec, t) == 0.0)


def test_single_component_sine_identity():
    spec = ForcingSpec(frequencies=(1.0,), amplitudes=1.0)
    phase = spec.phases[0]
    # evaluate where the sine argument hits pi/2
    t = (math.pi / 2.0 - phase) / 1.0
    assert multisine_force(spec, t) == pytest.approx(1.0, abs=1e-12)


def test_stage_forces_match_scalar_calls_bitwise(default_traj):
    forcing = ForcingSpec()
    h = 1.0 / default_traj.rate
    starts = default_traj.t[:-1]
    assert len(starts) == 1023
    ref = np.array([[multisine_force(forcing, t) for t in starts],
                    [multisine_force(forcing, t + 0.5 * h) for t in starts],
                    [multisine_force(forcing, t + h) for t in starts]])
    assert np.array_equal(np.array(stage_forces(forcing, starts, h)), ref)


def test_forcing_spectrum_peaks_at_stated_frequencies(default_traj):
    f = default_traj.f
    t = default_traj.t
    freqs_hz = np.fft.rfftfreq(len(t), d=t[1] - t[0])
    mags = np.abs(np.fft.rfft(f))
    # the four dominant bins must be the nearest bins to the stated rad/s
    expected_bins = sorted(
        int(np.argmin(np.abs(freqs_hz - w / (2 * math.pi))))
        for w in (0.7, 0.85, 1.6, 1.8)
    )
    top4 = sorted(np.argsort(mags)[-4:])
    assert top4 == expected_bins


def test_equilibrium_stays_at_rest():
    traj = simulate(forcing=ForcingSpec(amplitudes=0.0), z0=(0.0, 0.0), n=64)
    assert np.all(traj.u == 0.0)
    assert np.all(traj.v == 0.0)


def test_linear_case_matches_fine_step_oracle():
    params = OscillatorParams(k3=0.0)
    coarse = simulate(params, n=256)
    fine = simulate(params, n=256, substeps=100 * coarse_substeps())
    rel = rms(coarse.u - fine.u) / rms(fine.u)
    assert rel < 1e-6


def coarse_substeps():
    from duffbench.duffing import DEFAULT_SUBSTEPS
    return DEFAULT_SUBSTEPS


def test_default_run_shape_and_span(default_traj):
    assert len(default_traj) == 1024
    assert default_traj.t[-1] == pytest.approx(1023 / 8.525)
    assert 119.0 < default_traj.t[-1] < 121.0


def test_acceleration_consistent_with_equation_of_motion(default_traj):
    p = OscillatorParams()
    recon = p.acceleration(default_traj.u, default_traj.v, default_traj.f)
    assert np.array_equal(recon, default_traj.a)


@pytest.mark.parametrize("params", [OscillatorParams(),
                                    OscillatorParams(2.5, 0.3, 7.1, 33.3)])
def test_record_acceleration_is_the_stage_loop_expression(params):
    """Every a[i] equals `simulate`'s scalar stage expression evaluated
    with Python floats at sample i, bit for bit."""
    traj = simulate(params, n=256, z0=(0.4, -0.2))
    m, c, k, k3 = params.m, params.c, params.k, params.k3
    stage = [(f - c * v - k * u - k3 * u * u * u) / m
             for u, v, f in zip(traj.u.tolist(), traj.v.tolist(),
                                traj.f.tolist())]
    assert traj.a.tolist() == stage


def test_acceleration_cube_is_written_as_products():
    """numpy sends a power of 3 to libm pow, one call per element."""
    for module in (duffing, filters):
        assert not re.search(r"\*\*\s*3\b", inspect.getsource(module))


def test_hamiltonian_conserved_unforced_undamped():
    params = OscillatorParams(c=0.0)
    traj = simulate(params, ForcingSpec(amplitudes=0.0), z0=(1.0, 0.0))
    H = hamiltonian(params, traj.u, traj.v)
    assert np.max(np.abs(H - H[0])) / abs(H[0]) < 1e-6


def test_linear_superposition():
    params = OscillatorParams(k3=0.0)
    f1 = ForcingSpec(frequencies=(0.7, 0.85), phase_seed=3)
    f2 = ForcingSpec(frequencies=(1.6, 1.8), phase_seed=4)
    both = ForcingSpec(frequencies=(0.7, 0.85, 1.6, 1.8), phase_seed=5)
    # build the sum case from explicit phases so the signals match exactly
    phases = np.concatenate([f1.phases, f2.phases])

    class FixedPhases(ForcingSpec):
        @property
        def phases(self):  # noqa: D102 - test shim
            return phases

    combined = FixedPhases(frequencies=(0.7, 0.85, 1.6, 1.8))
    t1 = simulate(params, f1, n=512)
    t2 = simulate(params, f2, n=512)
    t12 = simulate(params, combined, n=512)
    scale = max(rms(t12.u), 1e-12)
    assert rms(t12.u - (t1.u + t2.u)) / scale < 1e-9


def test_determinism_bitwise():
    a = simulate()
    b = simulate()
    for name in ("t", "u", "v", "a", "f"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize("case", [
    {},
    {"substeps": 1},
    {"forcing": ForcingSpec(amplitudes=0.0), "z0": (1.0, 0.0)},
    {"n": FORCE_BLOCK // 16 + 37, "z0": (0.2, -0.1)},
], ids=["default", "one-substep", "zero-amplitude", "partial-block"])
def test_vectorised_forcing_matches_scalar_loop_bitwise(case, default_traj):
    kw = {"params": OscillatorParams(), "forcing": ForcingSpec(),
          "n": 1024, "rate": 8.525, "z0": (0.0, 0.0), "substeps": 16}
    kw.update(case)
    traj = default_traj if not case else simulate(**kw)
    u, v = oracles.simulate_scalar_forcing(**kw)
    assert np.array_equal(traj.u, u) and np.array_equal(traj.v, v)


def test_rk4_step_vjp_matches_tape_backward_bitwise():
    # a linear flow z @ A + f, reversed on the tape and by rk4_step_vjp
    rng = np.random.default_rng(3)
    A, W = rng.normal(size=(2, 2)), rng.normal(size=(5, 2))
    f_stages = [rng.normal(size=(5, 1)) for _ in range(3)]
    h = 0.117
    tape = nk.Tape()
    z = tape.leaf(rng.normal(size=(5, 2)))

    def flow(zn, f):
        return oracles.matmul(zn, tape.constant(A)) + tape.constant(f)

    out = z + rk4_increment(flow, z, f_stages, h)
    (expected,) = nk.backward(nk.vsum(out * tape.constant(W)), [z])
    stages = []

    def stage_vjp(s, g_k):
        stages.append(s)
        return g_k @ A.T

    assert np.array_equal(rk4_step_vjp(stage_vjp, W, h), expected)
    assert stages == [3, 2, 1, 0]


def test_divergence_error_names_step():
    params = OscillatorParams(m=1e-3, c=0.0, k=0.0, k3=-1e9)
    with pytest.raises(DivergenceError) as err:
        simulate(params, ForcingSpec(amplitudes=100.0), n=64, z0=(1.0, 0.0))
    assert err.value.step >= 1


@pytest.mark.parametrize("kind", [np.float64, int])
def test_scalar_input_types_give_the_python_float_record_bitwise(kind):
    # integral values, so that int() keeps every one of them
    m, c, k, k3, rate, u0, v0 = 10, 1, 15, 100, 8, 1, 0

    def run(cast):
        params = OscillatorParams(cast(m), cast(c), cast(k), cast(k3))
        return simulate(params, ForcingSpec(), n=300, rate=cast(rate),
                        z0=(cast(u0), cast(v0)))

    expected, traj = run(float), run(kind)
    for name in ("t", "u", "v", "a", "f"):
        # int64 views, so that a zero's sign counts
        assert np.array_equal(getattr(traj, name).view(np.int64),
                              getattr(expected, name).view(np.int64)), name
    assert type(traj.rate) is float and traj.rate == expected.rate


def test_divergence_on_a_numpy_rate_raises_without_a_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DivergenceError):
            simulate(forcing=ForcingSpec(amplitudes=1e200), n=64,
                     rate=np.float64(8.525))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_add_noise_zero_ratio_identity(default_traj):
    out = add_noise(default_traj.a, 0.0, nk.RngStream(1))
    assert np.array_equal(out, default_traj.a)


def test_add_noise_ratio_in_band(default_traj):
    stream = nk.RngStream(99).substream("noise")
    noisy = add_noise(default_traj.a, 0.085, stream)
    eps = noisy - default_traj.a
    ratio = rms(eps) / rms(default_traj.a)
    assert 0.075 <= ratio <= 0.095


def test_add_noise_zero_signal(default_traj):
    out = add_noise(np.zeros(100), 0.5, nk.RngStream(7))
    assert np.all(out == 0.0)


def test_subsample_stride_one_is_identity(default_traj):
    obs = subsample(default_traj, stride=1)
    assert np.array_equal(obs.t, default_traj.t)
    assert np.array_equal(obs.u, default_traj.u)


def test_subsample_stride_sixteen_rate(default_traj):
    obs = subsample(default_traj, stride=16)
    eff_rate = 1.0 / (obs.t[1] - obs.t[0])
    assert eff_rate == pytest.approx(0.5328, abs=2e-4)
    assert obs.t[0] == 0.0


def test_subsample_sobol_distinct(default_traj):
    obs = subsample(default_traj, sobol_n=256)
    assert len(np.unique(obs.t)) == 256
    assert len(obs) == 256


def test_subsample_validation(default_traj):
    with pytest.raises(ValueError):
        subsample(default_traj)
    with pytest.raises(ValueError):
        subsample(default_traj, stride=0)


def test_csv_round_trip_lossless(tmp_path, default_traj):
    path = tmp_path / "traj.csv"
    default_traj.to_csv(path)
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    for col, name in enumerate(("t", "u", "v", "a", "f")):
        assert np.array_equal(back[:, col], getattr(default_traj, name))
    header = path.read_text().splitlines()[0]
    assert header == "t,u,v,a,f"


def test_table_writer_matches_per_value_fstring(tmp_path):
    """Every CSV table goes through one %-template; its bytes are those
    of joining f"{x:.17g}" per value, special and non-float values too."""
    stream = nk.RngStream(11)
    table = stream.normal(size=(1024, 12)) * 10.0 ** stream.uniform(
        -300.0, 300.0, size=(1024, 12))
    table[0, :6] = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 2.5e-310]
    rows = [tuple(r) for r in table]
    rows.append((1, -2, True, False, 2 ** 60, np.int64(-7), np.float32(0.1),
                 np.float64(1 / 3), np.bool_(True), 0, 1e16, -1e-5))
    header = ",".join(f"c{i}" for i in range(12))
    path = tmp_path / "table.csv"
    duffing.write_table(path, header, iter(rows))
    expected = header + "\n" + "".join(
        ",".join(f"{x:.17g}" for x in row) + "\n" for row in rows)
    assert path.read_bytes() == expected.encode()
