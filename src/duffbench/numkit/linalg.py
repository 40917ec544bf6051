"""Dense SPD linear algebra: Cholesky factorization, solves, log-dets.

Matrices are plain float64 numpy arrays in row-major layout. `cholesky`
returns the lower-triangular factor L with A = L Lᵀ as a bare array;
`solve_lower`, `solve_upper` and `log_det` work on it. A successful
factorization is the package's certificate that a matrix is symmetric
positive definite; `FactorizationError` is raised otherwise so callers
can decide whether to add jitter. `jittered_spectrum` gives the same
certificate for a matrix's eigenvalues, on the same jitter schedule.
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericFailure


class FactorizationError(NumericFailure):
    """Cholesky hit a non-positive pivot: matrix not positive definite."""


def cholesky(A):
    """Lower-triangular L with A = L Lᵀ."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise FactorizationError("matrix must be square")
    # np.allclose(A, A.T, rtol=0, atol=atol) written out: an entry passes
    # if it equals its mirror, or is within atol of a finite mirror
    close = A == A.T
    if not close.all():
        atol = 1e-8 * max(1.0, np.abs(A).max())
        with np.errstate(invalid="ignore", over="ignore"):
            close |= (np.abs(A - A.T) <= atol) & np.isfinite(A.T)
        if not close.all():
            raise FactorizationError("matrix must be symmetric")
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError as err:
        raise FactorizationError(str(err)) from None


_MAX_TRIES = 8


def _jitters(trace, n):
    """The diagonal jitters to try in turn: 1e-10·trace/n, doubling."""
    jitter = 1e-10 * trace / n
    if jitter <= 0.0:
        jitter = 1e-12
    return jitter * 2.0 ** np.arange(_MAX_TRIES)


def cholesky_jittered(A):
    """Factorize, retrying with doubling diagonal jitter 1e-10·tr(A)/n."""
    try:
        return cholesky(A)
    except FactorizationError:
        pass
    eye = np.eye(A.shape[0])
    for jitter in _jitters(np.trace(A), A.shape[0]):
        try:
            return cholesky(A + jitter * eye)
        except FactorizationError:
            pass
    raise FactorizationError(f"not positive definite after {_MAX_TRIES} jitter retries")


def jittered_spectrum(d):
    """The eigenvalues d of a symmetric A; when some dᵢ is not positive,
    d plus the first jitter of `cholesky_jittered`'s schedule (tr A = Σd)
    that leaves every one positive."""
    if d.min() > 0.0:
        return d
    for jitter in _jitters(d.sum(), len(d)):
        if (d + jitter).min() > 0.0:
            return d + jitter
    raise FactorizationError(f"not positive definite after {_MAX_TRIES} jitter retries")


def solve_lower(L, b):
    """Forward substitution for lower-triangular L."""
    b = np.asarray(b, dtype=float)
    x = b.copy()
    for i in range(L.shape[0]):
        if i:
            x[i] = x[i] - L[i, :i] @ x[:i]
        x[i] = x[i] / L[i, i]
    return x


def solve_upper(U, b):
    """Back substitution for upper-triangular U."""
    b = np.asarray(b, dtype=float)
    n = U.shape[0]
    x = b.copy()
    for i in range(n - 1, -1, -1):
        if i < n - 1:
            x[i] = x[i] - U[i, i + 1:] @ x[i + 1:]
        x[i] = x[i] / U[i, i]
    return x


def log_det(L):
    """log|A| from the diagonal of A's Cholesky factor L."""
    return 2.0 * float(np.sum(np.log(np.diag(L))))


def symmetrize(A):
    return 0.5 * (A + A.T)

