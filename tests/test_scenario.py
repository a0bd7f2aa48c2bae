"""Parameter validation, config parsing, grids, and capacity trajectories."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import gridlab
from gridlab.dispatch import BufferReport, DispatchYear
from gridlab.economics import ScenarioResult
from gridlab.errors import ParameterError
from gridlab.newsupply import NewSupplyPlan, size_battery
from gridlab.pipeline import Decade, ScenarioOutcome, YearDetail
from gridlab.scenario import (
    BASE_YEAR,
    FINAL_YEAR,
    ParamGrid,
    ScenarioParams,
    build_capacity_path,
    default_tech_costs,
    expand_param_grid,
    params_from_config,
    project_demand,
)
from gridlab.shapes import synth_shapes


def test_defaults_are_valid():
    p = ScenarioParams()
    assert p.new_option == "battery_re"
    assert p.flex_limit == 0.60


@pytest.mark.parametrize("overrides", [
    {"flex_limit": 0.45},
    {"flex_limit": 0.85},
    {"re_2030": 50.0},
    {"solar_share": 0.0},
    {"solar_share": 1.2},
    {"new_option": "fusion"},
    {"battery_size_fraction": 0.0},
    {"new_coal_size_fraction": 1.5},
    {"dedicated_solar_extra": -0.1},
    {"battery_dod_buffer": 1.0},
    {"battery_roundtrip_eff": 0.0},
    {"battery_eff_split": "thirds"},
    {"battery_cycle_boundary_hour": 24},
    {"demand_growth": -0.01},
    {"fgd_start": 2028, "fgd_end": 2024},
    {"solar_cuf": 1.0},
    {"aux_coal": 0.6},
    {"coal_2019_price": 0.0},
])
def test_parameter_validation(overrides):
    with pytest.raises(ParameterError):
        dataclasses.replace(ScenarioParams(), **overrides)


def test_missing_tech_cost_row_rejected():
    table = default_tech_costs()
    del table["ocgt"]
    with pytest.raises(ParameterError):
        dataclasses.replace(ScenarioParams(), tech_costs=table)


def test_efficiency_split_properties():
    # the split is defined once, on BatterySpec; the parameters reach it
    # through battery sizing
    unmet = np.zeros(48)
    unmet[40] = 100.0
    p = ScenarioParams()
    root = np.sqrt(0.90)
    b = size_battery(unmet, p)
    assert b.charge_eff == pytest.approx(root)
    assert b.discharge_eff == pytest.approx(root)
    q = size_battery(unmet, dataclasses.replace(p, battery_eff_split="charge_only"))
    assert q.charge_eff == pytest.approx(0.90)
    assert q.discharge_eff == 1.0


def test_cycle_boundary_slot():
    assert ScenarioParams().cycle_boundary_slot == 34  # 17:00
    assert dataclasses.replace(ScenarioParams(), battery_cycle_boundary_hour=0).cycle_boundary_slot == 0


def _attributes_read(tree):
    """Names read as attributes, outside ScenarioParams.__post_init__.

    Filling an element, ``x.name[i] = v`` or ``x.name[i] += v``, is not
    a read of ``name``.
    """
    names = set()

    def visit(node, filled):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and not filled:
            names.add(node.attr)
        for child in ast.iter_child_nodes(node):
            if (isinstance(node, ast.ClassDef) and node.name == "ScenarioParams"
                    and isinstance(child, ast.FunctionDef) and child.name == "__post_init__"):
                continue
            visit(child, isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                  and child is node.value)

    visit(tree, False)
    return names


#: Result dataclasses whose every field some production code must read.
#: ``SocTrace`` is left out: its ``served_mw`` is the column the SoC tests
#: compare with ``_oracles.reference_soc``.
RESULT_CLASSES = (
    NewSupplyPlan, Decade, YearDetail, ScenarioOutcome, ScenarioResult,
    DispatchYear, BufferReport,
)


def test_every_param_field_is_read():
    # a parameter only validated, never read, is a config key that
    # changes no output; a result field nobody reads is dead weight
    read = set()
    for path in sorted(Path(gridlab.__file__).parent.glob("*.py")):
        read |= _attributes_read(ast.parse(path.read_text()))
    unread = {
        cls.__name__: [f.name for f in dataclasses.fields(cls) if f.name not in read]
        for cls in (ScenarioParams, *RESULT_CLASSES)
    }
    assert {name: fields for name, fields in unread.items() if fields} == {}


# --- config parsing ----------------------------------------------------------


def test_config_rejects_unknown_keys():
    with pytest.raises(ParameterError) as err:
        params_from_config({"demand_groth": 0.05})
    assert "demand_groth" in str(err.value)


def test_config_overrides_scalars():
    p = params_from_config({"flex_limit": 0.55, "re_2030": 300.0})
    assert p.flex_limit == 0.55
    assert p.re_2030 == 300.0
    assert p.demand_growth == ScenarioParams().demand_growth


def test_config_merges_tech_cost_rows():
    p = params_from_config({"tech_costs": {"coal": {"fuel_2021": 3.1}}})
    assert p.tech_costs["coal"].fuel_2021 == 3.1
    # untouched fields and rows keep their defaults
    assert p.tech_costs["coal"].life_years == default_tech_costs()["coal"].life_years
    assert p.tech_costs["ocgt"] == default_tech_costs()["ocgt"]


def test_config_tech_cost_errors():
    with pytest.raises(ParameterError):
        params_from_config({"tech_costs": "coal"})
    with pytest.raises(ParameterError):
        params_from_config({"tech_costs": {"coal": {"not_a_field": 1}}})
    with pytest.raises(ParameterError):
        params_from_config({"tech_costs": {"coal": 4}})


# --- parameter grids ---------------------------------------------------------


def test_paper_grid_has_189_points():
    grid = ParamGrid.paper_grid()
    assert grid.size == 3 * 3 * 7 * 3 == 189
    scenarios = expand_param_grid(grid)
    assert len(scenarios) == 189
    assert len({(s.demand_growth, s.flex_limit, s.re_2030, s.solar_share)
                for s in scenarios}) == 189


def test_grid_expansion_order_is_deterministic():
    grid = ParamGrid(axes={"re_2030": (250.0, 300.0), "flex_limit": (0.55, 0.60)})
    combos = [(s.re_2030, s.flex_limit) for s in expand_param_grid(grid)]
    # declaration order, last axis fastest
    assert combos == [(250.0, 0.55), (250.0, 0.60), (300.0, 0.55), (300.0, 0.60)]


def test_grid_expansion_keeps_base_overrides():
    base = dataclasses.replace(ScenarioParams(), new_option="ocgt")
    out = expand_param_grid(ParamGrid(axes={"re_2030": (250.0,)}), base)
    assert out[0].new_option == "ocgt"
    assert out[0].re_2030 == 250.0


def test_grid_validation():
    with pytest.raises(ParameterError):
        ParamGrid(axes={"not_a_param": (1,)})
    with pytest.raises(ParameterError):
        ParamGrid(axes={"re_2030": ()})


# --- capacity trajectories ---------------------------------------------------


def test_re_path_hits_2030_target_exactly():
    path = build_capacity_path(ScenarioParams())
    assert path.re_total[0] == pytest.approx(98.0)
    assert path.re_total[-1] == pytest.approx(450.0)
    ratios = path.re_total[1:] / path.re_total[:-1]
    np.testing.assert_allclose(ratios, ratios[0])  # compound growth


def test_solar_wind_split_follows_share():
    p = ScenarioParams()
    path = build_capacity_path(p)
    growth = path.re_total - p.re_2021
    np.testing.assert_allclose(path.solar_new[1:], p.solar_share * growth[1:])
    np.testing.assert_allclose(path.solar_new + path.wind_new, growth)


def test_hydro_nuclear_compound():
    p = ScenarioParams()
    path = build_capacity_path(p)
    assert path.hydro[-1] == pytest.approx(35.5 * 1.03 ** 9)
    assert path.nuclear[-1] == pytest.approx(5.4 * 1.039 ** 9)


def test_coal_retirement_and_fgd_penalty():
    p = ScenarioParams()
    path = build_capacity_path(p)
    # FGD programme has not started in the base year
    assert path.coal_total[0] == pytest.approx(162.6)
    assert path.coal_total[-1] == pytest.approx((162.6 - 20.0) * (1 - 0.025))
    # halfway through the 2023-2027 retrofit ramp
    i2025 = path.index(2025)
    expected = (162.6 - 20.0 * 4 / 9) * (1 - 0.025 * 0.5)
    assert path.coal_total[i2025] == pytest.approx(expected)


def test_gas_holds_constant():
    path = build_capacity_path(ScenarioParams())
    np.testing.assert_allclose(path.gas_total, 21.3)


def test_tranche_split_against_base_peaks():
    base = synth_shapes(7)
    p = ScenarioParams()
    path = build_capacity_path(p, base)
    coal_peak_gw = float(np.max(base.supply_by_fuel["coal"].values)) / 1e3
    np.testing.assert_allclose(
        path.coal_2019_tranche, np.minimum(path.coal_total, coal_peak_gw))
    assert np.all(path.coal_slack_tranche >= -1e-12)
    assert np.all(path.gas_slack_tranche >= -1e-12)
    np.testing.assert_allclose(
        path.coal_2019_tranche + path.coal_slack_tranche, path.coal_total)


def test_tranches_without_base_have_no_slack():
    path = build_capacity_path(ScenarioParams())
    np.testing.assert_allclose(path.coal_slack_tranche, 0.0, atol=1e-12)
    np.testing.assert_allclose(path.gas_slack_tranche, 0.0, atol=1e-12)


def test_path_index():
    path = build_capacity_path(ScenarioParams())
    assert path.index(2021) == 0
    assert path.index(2030) == 9
    with pytest.raises(ParameterError):
        path.index(2031)


# --- demand projection -------------------------------------------------------


def test_project_demand_base_year_is_identity():
    base = synth_shapes(7)
    out = project_demand(ScenarioParams(), base, BASE_YEAR)
    np.testing.assert_allclose(out, base.demand.values)


def test_project_demand_compound_growth():
    base = synth_shapes(7)
    p = ScenarioParams()
    out = project_demand(p, base, FINAL_YEAR)
    np.testing.assert_allclose(out, base.demand.values * 1.0525 ** 9)
    # the 2030 energy lands within half a percent of 2,160 BU
    assert float(out.sum()) * 0.5 / 1e6 == pytest.approx(2160.0, rel=0.005)


def test_project_demand_horizon_check():
    base = synth_shapes(7)
    with pytest.raises(ParameterError):
        project_demand(ScenarioParams(), base, 2031)
