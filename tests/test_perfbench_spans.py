"""The traced benchmark wraps gridlab functions by name; keep them resolvable."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import gridlab

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
SRC = Path(gridlab.__file__).resolve().parent


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # standard library imports only
    return tracer.SPANS


def _references(module_name: str, attr: str) -> list[str]:
    """Where code in ``src/gridlab`` reads ``module_name.attr``, outside
    the function's own definition: by its bare name in its own module,
    through a module alias (``dsp.net_demand``) or a name imported from
    it elsewhere.  Import statements alone do not count."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases, names = set(), set()
        if path.stem == module_name:
            names.add(attr)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "gridlab":
                aliases |= {a.asname or a.name for a in node.names if a.name == module_name}
            elif isinstance(node, ast.ImportFrom) and node.module == f"gridlab.{module_name}":
                names |= {a.asname or a.name for a in node.names if a.name == attr}
        own = set()
        if path.stem == module_name:
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == attr:
                    own |= {id(inner) for inner in ast.walk(node)}
        for node in ast.walk(tree):
            if id(node) in own:
                continue
            if isinstance(node, ast.Name) and node.id in names:
                found.append(f"{path.stem}:{node.lineno}")
            elif (isinstance(node, ast.Attribute) and node.attr == attr
                  and isinstance(node.value, ast.Name) and node.value.id in aliases):
                found.append(f"{path.stem}:{node.lineno}")
    return found


@pytest.mark.parametrize("name", _spans())
def test_traced_function_exists(name):
    module_name, attr = name.split(".")
    module = importlib.import_module(f"gridlab.{module_name}")
    assert callable(getattr(module, attr, None)), f"{name} is gone; --trace would crash"


@pytest.mark.parametrize("name", _spans())
def test_traced_function_is_used(name):
    # a span name that no program code reaches would survive only to
    # keep --trace from crashing, and its span would read 0
    module_name, attr = name.split(".")
    assert _references(module_name, attr), f"no code in src/gridlab calls {name}"
