"""Shared numeric substrate: autodiff tape, SPD linear algebra, seeded
random streams and quasi-random sampling."""

from .tape import (
    Tape,
    Node,
    TapeError,
    NumericError,
    grad,
    backward,
    add,
    sub,
    mul,
    div,
    neg,
    powc,
    tanh,
    sin,
    sincos,
    softplus,
    matmul,
    mlp,
    mlp_forward,
    mlp_vjp,
    vsum,
    take,
)
from .linalg import (
    FactorizationError,
    cholesky,
    cholesky_jittered,
    log_det,
    solve_lower,
    solve_upper,
    symmetrize,
)
from .rng import RngStream
from .sobol import sobol_sequence, sobol_indices

__all__ = [
    "Tape", "Node", "TapeError", "NumericError", "grad", "backward",
    "add", "sub", "mul", "div", "neg", "powc", "tanh", "sin", "sincos",
    "softplus", "matmul", "mlp", "mlp_forward", "mlp_vjp", "vsum", "take",
    "FactorizationError", "cholesky", "cholesky_jittered", "log_det",
    "solve_lower", "solve_upper", "symmetrize",
    "RngStream", "sobol_sequence", "sobol_indices",
]
