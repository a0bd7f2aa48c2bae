"""Where each kind of error may be raised and caught.

A ``GridlabError`` is refused input or a scenario the model cannot
solve; a broken internal invariant raises ``InvariantError``, which is
not a ``GridlabError``, so it ends the run as a bug instead of being
filed in ``failures.csv``.  These tests read the source, so a new
``ParameterError`` deep in the model, or a broad catch that would
swallow a bug, fails here.
"""

import ast
from pathlib import Path

import gridlab
from gridlab import errors
from gridlab.errors import GridlabError, InvariantError

SOURCES = sorted(Path(gridlab.__file__).parent.glob("*.py"))

#: every GridlabError subclass, by name
GRIDLAB_ERRORS = {name for name, obj in vars(errors).items()
                  if isinstance(obj, type) and issubclass(obj, GridlabError)}

#: Every function that raises a GridlabError subclass, and the classes it
#: raises: the config parser and its checks, the loaders and the
#: base-year containers they fill, the price-path checks parse_config
#: runs, the balance check, and three model limits.  ``raise
#: stage.error`` in ``pipeline.evaluate_scenario`` names no class: it
#: raises what an option stage caught.
ALLOWED_RAISES = {
    # config parsing
    "cli.parse_config": {"ParameterError"},
    "cli.load_inputs": {"ParameterError"},
    "cli._dispatch_years": {"ParameterError"},
    "cli.run": {"ParameterError"},
    "cli.main": {"ParameterError"},
    "scenario.check_bounds": {"ParameterError"},
    "scenario.check_field_types": {"ParameterError"},
    "scenario.ScenarioParams.__post_init__": {"ParameterError"},
    "scenario.params_from_config": {"ParameterError"},
    "scenario.ParamGrid.__post_init__": {"ParameterError"},
    "scenario.expand_param_grid": {"ParameterError"},
    "economics.build_price_path": {"ParameterError"},
    # loaders and the containers they fill
    "shapes.BaseYearData.__post_init__": {"ParameterError"},
    "shapes.BaseYearData._checked": {"ParameterError"},
    "shapes.PerMwShape.__post_init__": {"ParameterError"},
    "shapes._timeseries_row": {"TimeseriesParseError", "CadenceError"},
    "shapes.load_timeseries_csv": {"DataIntegrityError", "TimeseriesParseError"},
    "shapes.load_shape_csv": {"TimeseriesParseError", "CadenceError", "DataIntegrityError"},
    "shapes._fill_gaps": {"DataIntegrityError"},
    "shapes.clean_series": {"ParameterError", "DataIntegrityError"},
    "shapes.derive_wind_shape": {"ParameterError", "DegenerateShapeError"},
    "shapes.synth_shapes": {"ParameterError"},
    # model limits
    "dispatch.DispatchYear.check_balance": {"DataIntegrityError"},
    "newsupply._search_smallest": {"InfeasibleError"},
    "economics.levelized_cost": {"UndefinedCostError"},
    "shapes.rescale_to_cuf": {"InfeasibleError"},
}


def _scoped(tree):
    """``(qualified name of the enclosing function, node)`` for every
    node of ``tree``; nested scopes join with dots."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                yield scope or "<module>", child
                yield from walk(child, scope)

    return walk(tree, "")


def _sites(kind):
    """``(module.function, node)`` for every ``kind`` node in ``src/gridlab``."""
    for path in SOURCES:
        for scope, node in _scoped(ast.parse(path.read_text())):
            if isinstance(node, kind):
                yield f"{path.stem}.{scope}", node


def _names(node):
    """The class names in an exception expression or a tuple of them."""
    if node is None:
        return set()
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Tuple):
        return set().union(*(_names(e) for e in node.elts))
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return {node.id} if isinstance(node, ast.Name) else set()


def test_invariant_error_is_a_bug_not_a_scenario_failure():
    assert not issubclass(InvariantError, GridlabError)
    assert "InvariantError" not in GRIDLAB_ERRORS
    assert {"ParameterError", "InfeasibleError", "DataIntegrityError"} <= GRIDLAB_ERRORS


def test_gridlab_errors_are_raised_only_where_allowed():
    raised: dict[str, set[str]] = {}
    for where, node in _sites(ast.Raise):
        for name in _names(node.exc) & GRIDLAB_ERRORS:
            raised.setdefault(where, set()).add(name)
    assert raised == ALLOWED_RAISES


def test_no_broad_catches():
    handlers: dict[str, set[str]] = {}
    for where, node in _sites(ast.ExceptHandler):
        assert node.type is not None, f"bare except in {where}"
        for name in _names(node.type) & {"Exception", "BaseException", "GridlabError"}:
            handlers.setdefault(name, set()).add(where)
    assert handlers == {
        "Exception": {"cli.main"},
        "GridlabError": {"cli._run_one", "pipeline.OptionStage.step", "cli.main"},
    }
