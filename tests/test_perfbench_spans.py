"""The traced benchmark wraps gridlab functions by name; keep them resolvable."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # standard library imports only
    return tracer.SPANS


@pytest.mark.parametrize("name", _spans())
def test_traced_function_exists(name):
    module_name, attr = name.split(".")
    module = importlib.import_module(f"gridlab.{module_name}")
    assert callable(getattr(module, attr, None)), f"{name} is gone; --trace would crash"
