"""Cholesky solves vs an elimination oracle, RNG and Sobol contracts."""

import numpy as np
import pytest

from duffbench import numkit as nk
from duffbench.numkit import linalg


def gaussian_elimination_solve(A, b):
    """Independent dense solve: partial-pivot Gaussian elimination."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    n = len(b)
    for col in range(n):
        piv = col + np.argmax(np.abs(A[col:, col]))
        if piv != col:
            A[[col, piv]] = A[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
        for row in range(col + 1, n):
            factor = A[row, col] / A[col, col]
            A[row, col:] -= factor * A[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - A[row, row + 1:] @ x[row + 1:]) / A[row, row]
    return x


def random_spd(stream, n):
    M = stream.normal(size=(n, n))
    return M @ M.T + n * np.eye(n)


def cholesky_solve(A, b):
    """x with A x = b through A's Cholesky factor L: L⁻ᵀ (L⁻¹ b)."""
    L = linalg.cholesky(A)
    return linalg.solve_upper(L.T, linalg.solve_lower(L, b))


def test_identity_solve():
    x = cholesky_solve(np.eye(3), [1.0, 2.0, 3.0])
    assert np.allclose(x, [1.0, 2.0, 3.0], atol=1e-15)


def test_solve_matches_elimination_oracle():
    A = np.array([[4.0, 2.0], [2.0, 3.0]])
    b = np.array([2.0, 1.0])
    x = cholesky_solve(A, b)
    ref = gaussian_elimination_solve(A, b)
    assert np.allclose(x, ref, atol=1e-12)


def test_indefinite_matrix_raises():
    with pytest.raises(linalg.FactorizationError):
        linalg.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_asymmetric_matrix_raises():
    with pytest.raises(linalg.FactorizationError):
        linalg.cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))


def symmetry_cases():
    """Matrices near the symmetry check's edges: finite entries off
    their mirror by less and by more than the tolerance, and ±inf and
    NaN entries opposite finite, equal and opposite-signed ones."""
    base = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 2.0]])
    offsets = (0.0, 1e-12, 3.9e-8, 4.1e-8, 1e-3)
    specials = (np.inf, -np.inf, np.nan, 1e308, -1e308)
    for off in offsets:
        A = base.copy()
        A[0, 1] += off
        yield A
    for x in specials:
        for y in specials + (1.0,):
            A = base.copy()
            A[0, 1], A[1, 0] = x, y
            yield A
            B = A.copy()
            B[2, 2] = np.inf  # an infinite tolerance
            yield B


def test_symmetry_check_agrees_with_allclose():
    """cholesky rejects as asymmetric exactly the matrices that
    np.allclose(A, A.T, rtol=0, atol=1e-8·max(1, max|A|)) rejects."""
    for A in symmetry_cases():
        atol = 1e-8 * max(1.0, np.abs(A).max())
        with np.errstate(invalid="ignore", over="ignore"):
            symmetric = np.allclose(A, A.T, rtol=0.0, atol=atol)
        try:
            linalg.cholesky(A)
            rejected = False
        except linalg.FactorizationError as err:
            rejected = "symmetric" in str(err)
        assert rejected == (not symmetric), A


def test_residual_bound_random_spd_up_to_64():
    stream = nk.RngStream(42).substream("spd")
    for n in (2, 5, 16, 33, 64):
        A = random_spd(stream, n)
        b = stream.normal(size=n)
        x = cholesky_solve(A, b)
        res = np.max(np.abs(A @ x - b))
        assert res < 1e-10 * max(1.0, np.max(np.abs(b)))


def test_log_det_matches_slogdet():
    stream = nk.RngStream(43).substream("logdet")
    A = random_spd(stream, 12)
    _, ref = np.linalg.slogdet(A)
    assert linalg.log_det(linalg.cholesky(A)) == pytest.approx(ref, rel=1e-12)


def test_jitter_recovers_near_singular():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank deficient
    assert np.all(np.isfinite(linalg.cholesky_jittered(A)))
    with pytest.raises(linalg.FactorizationError):
        # indefinite
        linalg.cholesky_jittered(np.array([[1.0, 3.0], [3.0, 1.0]]))


def test_jittered_spectrum_follows_the_cholesky_schedule():
    d = np.array([1.0, 2.0])
    assert linalg.jittered_spectrum(d) is d  # positive: left alone
    # the jitters are j, 2j, 4j, ... with j = 1e-10·Σd/n; 4j is the first
    # that lifts -3e-10, and the Cholesky of diag(d) takes the same one
    d = np.array([-3e-10, 1.0, 2.0])
    shifted = d + 4.0 * (1e-10 * d.sum() / 3)
    np.testing.assert_array_equal(linalg.jittered_spectrum(d), shifted)
    L = linalg.cholesky_jittered(np.diag(d))
    np.testing.assert_allclose(np.diag(L) ** 2, shifted, rtol=1e-12)
    for hopeless in ([-1.0, 1.0, 2.0], [np.nan, 1.0, 2.0]):
        with pytest.raises(linalg.FactorizationError):
            linalg.jittered_spectrum(np.array(hopeless))
        with pytest.raises(linalg.FactorizationError):
            linalg.cholesky_jittered(np.diag(hopeless))


def test_rng_equal_seeds_equal_draws():
    a = nk.RngStream(123)
    b = nk.RngStream(123)
    assert np.array_equal(a.normal(size=10_000), b.normal(size=10_000))


def test_rng_substreams_differ_and_reproduce():
    a = nk.RngStream(123).substream("noise")
    b = nk.RngStream(123).substream("noise")
    c = nk.RngStream(123).substream("init")
    draw_a = a.uniform(size=100)
    assert np.array_equal(draw_a, b.uniform(size=100))
    assert not np.array_equal(draw_a, c.uniform(size=100))


# first eight points of the base-2 Sobol sequence, dimension 1
SOBOL_DIM1_TABLE = [0.0, 0.5, 0.75, 0.25, 0.375, 0.875, 0.625, 0.125]


def test_sobol_first_point_is_zero():
    assert nk.sobol_sequence(1).tolist() == [0.0]


def test_sobol_matches_reference_table():
    assert np.allclose(nk.sobol_sequence(8), SOBOL_DIM1_TABLE, atol=0.0)


def test_sobol_range_and_distinct():
    pts = nk.sobol_sequence(256)
    assert np.all((pts >= 0.0) & (pts < 1.0))
    assert len(np.unique(pts)) == 256


def test_sobol_indices_distinct():
    idx = nk.sobol_indices(256, 1024)
    assert len(np.unique(idx)) == 256
    assert idx.min() >= 0 and idx.max() < 1024
