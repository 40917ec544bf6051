"""Fixtures shared across the test modules."""

import pytest

from duffbench import nets
from duffbench import numkit as nk


@pytest.fixture
def passes(monkeypatch):
    """Counts of the tape-side tangent passes and `mlp` nodes made
    through `nets` while the test runs."""
    counts = {"tangent": 0, "mlp": 0}
    tangent, mlp = nets.mlp_apply_tangent, nk.mlp

    def counted_tangent(*args):
        counts["tangent"] += 1
        return tangent(*args)

    def counted_mlp(*args):
        counts["mlp"] += 1
        return mlp(*args)

    monkeypatch.setattr(nets, "mlp_apply_tangent", counted_tangent)
    monkeypatch.setattr(nk, "mlp", counted_mlp)
    return counts
