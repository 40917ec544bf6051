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
from .rng import RngStream
from .sobol import sobol_sequence, sobol_indices

__all__ = [
    "Tape", "Node", "TapeError", "NumericError", "grad", "backward",
    "add", "sub", "mul", "div", "neg", "powc", "tanh", "sin", "sincos",
    "softplus", "matmul", "mlp", "mlp_forward", "mlp_vjp", "vsum", "take",
    "RngStream", "sobol_sequence", "sobol_indices",
]
