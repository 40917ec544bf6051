"""Fixtures shared across the test modules."""

import pytest

from duffbench import nets


@pytest.fixture
def passes(monkeypatch):
    """Counts of the tape-side tangent passes made through `nets` while
    the test runs."""
    counts = {"tangent": 0}
    tangent = nets.mlp_apply_tangent

    def counted_tangent(*args):
        counts["tangent"] += 1
        return tangent(*args)

    monkeypatch.setattr(nets, "mlp_apply_tangent", counted_tangent)
    return counts
