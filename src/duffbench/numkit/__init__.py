"""Shared numeric substrate: autodiff tape, SPD linear algebra, seeded
random streams and quasi-random sampling."""

from .tape import (
    Tape,
    Workspace,
    Node,
    TapeError,
    backward,
    add,
    sub,
    mul,
    div,
    softplus,
    mlp_forward,
    mlp_vjp,
    mlp_tangent,
    mlp_tangent_forward,
    stacked_weight_adjoints,
    vsum,
    take,
)
from .rng import RngStream
from .sobol import sobol_sequence, sobol_indices

__all__ = [
    "Tape", "Workspace", "Node", "TapeError", "backward",
    "add", "sub", "mul", "div", "softplus", "mlp_forward", "mlp_vjp",
    "mlp_tangent",
    "mlp_tangent_forward", "stacked_weight_adjoints", "vsum", "take",
    "RngStream", "sobol_sequence", "sobol_indices",
]
