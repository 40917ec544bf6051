"""The benchmark's tracer wraps package functions by name; every name it
lists must exist, or `Tracer.install()` fails with a KeyError."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("module,qualname,span", tracing.SPANS)
def test_traced_name_resolves(module, qualname, span):
    owner, attr = tracing._resolve(qualname, importlib.import_module(module))
    assert callable(vars(owner)[attr]), (module, qualname)
