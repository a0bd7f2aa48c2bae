"""Parameter validation, config parsing, grids, and capacity trajectories."""

import ast
import dataclasses
import importlib
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import gridlab
from gridlab import newsupply, scenario
from gridlab.errors import InvariantError, ParameterError
from gridlab.newsupply import CycleYear, size_battery
from gridlab.scenario import (
    BASE_YEAR,
    FINAL_YEAR,
    PARAM_BOUNDS,
    TECH_BOUNDS,
    ParamGrid,
    ScenarioParams,
    TechCost,
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
    year = CycleYear.pad(unmet, np.zeros(48), np.zeros(48), p.cycle_boundary_slot)
    root = np.sqrt(0.90)
    b = size_battery(year, p, 100.0)
    assert b.charge_eff == pytest.approx(root)
    assert b.discharge_eff == pytest.approx(root)
    q = size_battery(year, dataclasses.replace(p, battery_eff_split="charge_only"), 100.0)
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


def _dataclasses():
    """Every dataclass defined in a ``gridlab`` module, but
    ``RunManifest``: it is written whole, through ``dataclasses.asdict``,
    so no field of it is read by name."""
    for info in pkgutil.iter_modules(gridlab.__path__):
        module = importlib.import_module(f"gridlab.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__ and obj.__name__ != "RunManifest"):
                yield obj


def test_every_param_field_is_read():
    # a parameter only validated, never read, is a config key that
    # changes no output; a dataclass field nobody reads is dead weight
    read = set()
    for path in sorted(Path(gridlab.__file__).parent.glob("*.py")):
        read |= _attributes_read(ast.parse(path.read_text()))
    unread = {
        cls.__name__: [f.name for f in dataclasses.fields(cls) if f.name not in read]
        for cls in _dataclasses()
    }
    assert "ScenarioParams" in unread and "CostReport" in unread
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


#: A complete cost row under a name the model has no option for.
SMR_ROW = dataclasses.asdict(default_tech_costs()["coal"])


@pytest.mark.parametrize("config, key", [
    pytest.param({"tech_costs": {"ocgt": {"aux": 1.0}}}, "tech_costs['ocgt'].aux", id="aux-1"),
    pytest.param({"tech_costs": {"ocgt": {"aux": -0.5}}}, "tech_costs['ocgt'].aux",
                 id="aux-negative"),
    pytest.param({"tech_costs": {"diesel_gen": {"aux": 1.0}}}, "tech_costs['diesel_gen'].aux",
                 id="diesel-aux-1"),
    pytest.param({"tech_costs": {"ocgt": {"life_years": 0}}}, "tech_costs['ocgt'].life_years",
                 id="row-life-0"),
    pytest.param({"battery_life_years": 0}, "battery_life_years", id="battery-life-0"),
    pytest.param({"inverter_life_years": 0}, "inverter_life_years", id="inverter-life-0"),
    pytest.param({"solar_life_years": 0}, "solar_life_years", id="solar-life-0"),
    pytest.param({"wind_life_years": -3}, "wind_life_years", id="wind-life-negative"),
    pytest.param({"discount_rate": -1.0}, "discount_rate", id="discount-minus-1"),
    pytest.param({"om_inflation": -1.0}, "om_inflation", id="om-inflation-minus-1"),
    pytest.param({"wacc": -1.0}, "wacc", id="wacc-minus-1"),
    pytest.param({"wacc": -2.0}, "wacc", id="wacc-minus-2"),
    pytest.param({"tech_costs": {"smr": SMR_ROW}}, "smr", id="unknown-row"),
    pytest.param({"inverter_capex_rs_per_kw": -1e4}, "inverter_capex_rs_per_kw",
                 id="inverter-capex-negative"),
    pytest.param({"battery_om_fraction": -1}, "battery_om_fraction", id="battery-om-negative"),
    pytest.param({"solar_om_rs_per_mw": -1e9}, "solar_om_rs_per_mw", id="solar-om-negative"),
    pytest.param({"wind_capex_2021": 0}, "wind_capex_2021", id="wind-capex-0"),
    pytest.param({"wind_capex_2030": -1.0}, "wind_capex_2030", id="wind-capex-2030-negative"),
    pytest.param({"solar_capex_2021": 0}, "solar_capex_2021", id="solar-capex-0"),
    pytest.param({"solar_capex_change": -1.0}, "solar_capex_change", id="solar-change-minus-1"),
    pytest.param({"battery_learning_rate": 1}, "battery_learning_rate", id="learning-rate-1"),
    pytest.param({"coal_escalation": -1}, "coal_escalation", id="coal-escalation-minus-1"),
    pytest.param({"gas_escalation": -1.5}, "gas_escalation", id="gas-escalation-below-minus-1"),
    pytest.param({"forex_escalation": -1}, "forex_escalation", id="forex-escalation-minus-1"),
    pytest.param({"tech_costs": {"ocgt": {"capex_2021": -1.0}}}, "tech_costs['ocgt'].capex_2021",
                 id="row-capex-negative"),
    pytest.param({"tech_costs": {"coal": {"fuel_2021": -2.0}}}, "tech_costs['coal'].fuel_2021",
                 id="row-fuel-negative"),
    pytest.param({"tech_costs": {"ccgt": {"om_fraction": -0.1}}},
                 "tech_costs['ccgt'].om_fraction", id="row-om-negative"),
    pytest.param({"tech_costs": {"gas_ic": {"capex_escalation": -1.0}}},
                 "tech_costs['gas_ic'].capex_escalation", id="row-capex-escalation-minus-1"),
    pytest.param({"tech_costs": {"diesel_gen": {"fuel_escalation": -2.0}}},
                 "tech_costs['diesel_gen'].fuel_escalation", id="row-fuel-escalation-minus-2"),
    pytest.param({"re_2021": 0, "re_2030": 0}, "re_2021", id="re-0"),
    pytest.param({"hydro_2021": 0}, "hydro_2021", id="hydro-0"),
    pytest.param({"nuclear_2021": 0}, "nuclear_2021", id="nuclear-0"),
    pytest.param({"hydro_growth": -1}, "hydro_growth", id="hydro-growth-minus-1"),
    pytest.param({"nuclear_growth": -2.0}, "nuclear_growth", id="nuclear-growth-minus-2"),
    pytest.param({"gas_2021": -5}, "gas_2021", id="gas-negative"),
    pytest.param({"coal_2021": 0}, "coal_retirement_2030", id="coal-0"),
    pytest.param({"coal_retirement_2030": -5.0}, "coal_retirement_2030", id="retirement-negative"),
    pytest.param({"coal_retirement_2030": 200.0}, "coal_retirement_2030",
                 id="retirement-above-fleet"),
])
def test_cost_inputs_are_checked_at_config_time(config, key):
    # unchecked, each cost or capacity-path input reaches the model: nan
    # cells, negative costs or output, an internal error, or a failure of
    # every scenario rather than one config error
    with pytest.raises(ParameterError) as err:
        params_from_config(config)
    assert key in str(err.value)


def test_cost_inputs_at_their_bounds_pass():
    p = params_from_config({
        "tech_costs": {"ocgt": {"aux": 0.0, "life_years": 1}},
        "battery_life_years": 1, "solar_life_years": 1, "discount_rate": -0.49,
        "wacc": -0.99, "om_inflation": -0.99,
        "inverter_capex_rs_per_kw": 0.0, "battery_om_fraction": 0.0, "solar_om_rs_per_mw": 0.0,
        "wind_om_rs_per_mw": 0.0, "battery_learning_rate": 0.99, "coal_escalation": -0.99,
        "gas_escalation": -0.99, "forex_escalation": -0.99, "solar_capex_change": -0.99,
    })
    assert p.tech_costs["ocgt"].aux == 0.0
    assert p.tech_costs["ocgt"].life_years == 1
    row = {"capex_2021": 0.0, "fuel_2021": 0.0, "om_fraction": 0.0,
           "capex_escalation": -0.99, "fuel_escalation": -0.99}
    assert params_from_config({"tech_costs": {"ocgt": row}}).tech_costs["ocgt"].capex_2021 == 0.0
    p = params_from_config({"hydro_growth": -0.99, "nuclear_growth": -0.99, "gas_2021": 0.0,
                            "coal_retirement_2030": 162.6, "coal_2021": 162.6})
    assert build_capacity_path(p).coal_total[-1] == 0.0


# --- the rulebook of parameter bounds ----------------------------------------


#: The cross-field rules that an edge value of a key would otherwise trip.
_COMPANIONS = {"coal_2021": {"coal_retirement_2030": 0.0}}


def _edge_cases():
    """``(cls, key, value, admitted)`` for every declared interval, read
    from the declaration text: each closed finite end and the value just
    inside each open one are admitted; the value just outside each end,
    an infinite end itself, and NaN are not.  Integer fields step by 1."""
    for cls in (ScenarioParams, TechCost):
        for f in dataclasses.fields(cls):
            rule = f.metadata.get("bound")
            if not isinstance(rule, str):
                continue
            step = ((lambda e, way: e + way) if f.type == "int"
                    else (lambda e, way: float(np.nextafter(e, way * np.inf))))
            as_type = int if f.type == "int" else float
            ends = [float(end) for end in rule[1:-1].split(",")]
            for end, closed, outward in ((ends[0], rule[0] == "[", -1), (ends[1], rule[-1] == "]", 1)):
                if math.isinf(end):
                    yield cls, f.name, end, False
                elif closed:
                    yield cls, f.name, as_type(end), True
                    yield cls, f.name, step(as_type(end), outward), False
                else:
                    yield cls, f.name, as_type(end), False
                    yield cls, f.name, step(as_type(end), -outward), True
            yield cls, f.name, math.nan, False


@pytest.mark.parametrize("cls, key, value, admitted", [
    pytest.param(*case, id=f"{case[0].__name__}.{case[1]}={case[2]!r}") for case in _edge_cases()
])
def test_each_declared_bound_at_and_beyond_its_edges(cls, key, value, admitted):
    def build():
        if cls is TechCost:
            return TechCost(**{**dataclasses.asdict(default_tech_costs()["ocgt"]), key: value})
        return ScenarioParams(**{**_COMPANIONS.get(key, {}), key: value})

    if admitted:
        assert getattr(build(), key) == value
    else:
        with pytest.raises(ParameterError) as err:
            build()
        assert str(err.value).startswith(f"{key} {value!r} outside ")


def test_a_cost_row_bound_names_its_row():
    with pytest.raises(ParameterError) as err:
        params_from_config({"tech_costs": {"ocgt": {"life_years": 0}}})
    assert str(err.value) == "tech_costs['ocgt'].life_years 0 outside [1, 100]"


def _compared_names(function):
    """Attribute names that ``function`` compares with a literal."""
    names = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(o, ast.Constant) for o in operands):
                names |= {o.attr for o in operands if isinstance(o, ast.Attribute)}
    return names


def _post_init(module, cls_name):
    tree = ast.parse(Path(module.__file__).read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls_name)
    return next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__post_init__")


def test_every_param_field_declares_one_bound():
    # a field added without a bound fails here; the bool and the cost
    # table are checked by their type alone
    unbounded = ("bool", "Mapping[str, TechCost]")
    for cls in (ScenarioParams, TechCost):
        for f in dataclasses.fields(cls):
            assert ("bound" in f.metadata) == (f.type not in unbounded), f"{cls.__name__}.{f.name}"
    # BatterySpec is sized from parameters the rulebook has checked and
    # compares none of their four values itself
    assert not _compared_names(_post_init(newsupply, "BatterySpec")) & {
        "dod_buffer", "roundtrip_eff", "size_fraction", "eff_split"}
    # the parameters' own checks compare fields with each other only
    assert not _compared_names(_post_init(scenario, "ScenarioParams"))
    assert not _compared_names(_post_init(scenario, "TechCost"))


#: What the model assumes of a parameter and does not check again: the
#: range the rulebook admits must lie inside it.
_MODEL_ASSUMES = [
    ("flex_limit", "[0, 1)", "dispatch.apply_coal_flex"),
    ("grid_buffer", "[0, inf)", "dispatch.buffer_check"),
    ("dedicated_solar_extra", "[0, 1]", "newsupply.dedicated_solar_gw"),
    ("battery_cycle_boundary_hour", "[0, 23]", "newsupply._pad_cycles, slots 0..47"),
    ("battery_dod_buffer", "[0, 1)", "newsupply.BatterySpec"),
    ("battery_roundtrip_eff", "(0, 1]", "newsupply.BatterySpec"),
    ("battery_size_fraction", "(0, 1]", "newsupply.BatterySpec.scaled"),
    ("new_coal_size_fraction", "[0, inf)", "newsupply.displace_gas_with_new_coal"),
    ("battery_life_years", "[1, inf)", "economics.annuity_payment"),
    ("inverter_life_years", "[1, inf)", "economics.annuity_payment"),
    ("solar_life_years", "[1, inf)", "economics.annuity_payment"),
    ("wind_life_years", "[1, inf)", "economics.annuity_payment"),
    ("tech_costs[row].life_years", "[1, inf)", "economics.annuity_payment"),
    ("tech_costs[row].aux", "[0, 1)", "newsupply.size_new_capacity"),
    ("solar_cuf", "(0, 1)", "shapes.rescale_to_cuf"),
    ("wind_cuf", "(0, 1)", "shapes.rescale_to_cuf"),
]


@pytest.mark.parametrize("key, assumed, where", _MODEL_ASSUMES,
                         ids=[key for key, *_ in _MODEL_ASSUMES])
def test_the_rulebook_keeps_inside_what_the_model_assumes(key, assumed, where):
    row, _, name = key.rpartition("].")
    low, high, *_ = (TECH_BOUNDS[name] if row else PARAM_BOUNDS[key])
    least, most, *_ = scenario._admitted(assumed)
    assert least <= low and high <= most, where


def _readme_ranges():
    """``{key: range}`` from the README's table of parameter ranges."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    return dict(re.findall(r"^\| `([\w\[\].]+)` \| `([^`]+)` \|", text, flags=re.M))


def test_readme_table_matches_the_rulebook():
    rulebook = {**{key: shown for key, (*_, shown) in PARAM_BOUNDS.items()},
                **{f"tech_costs[row].{key}": shown for key, (*_, shown) in TECH_BOUNDS.items()}}
    assert _readme_ranges() == rulebook


# --- parameter grids ---------------------------------------------------------


def test_paper_grid_has_189_points():
    grid = ParamGrid.paper_grid()
    assert math.prod(len(values) for values in grid.axes.values()) == 3 * 3 * 7 * 3 == 189
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
    p = ScenarioParams()
    path = build_capacity_path(p)
    re_total = p.re_2021 + path.solar_new + path.wind_new
    assert re_total[0] == pytest.approx(98.0)
    assert re_total[-1] == pytest.approx(450.0)
    ratios = re_total[1:] / re_total[:-1]
    np.testing.assert_allclose(ratios, ratios[0])  # compound growth


def test_solar_wind_split_follows_share():
    p = ScenarioParams()
    path = build_capacity_path(p)
    t = np.arange(FINAL_YEAR - BASE_YEAR + 1)
    growth = p.re_2021 * (p.re_2030 / p.re_2021) ** (t / (FINAL_YEAR - BASE_YEAR)) - p.re_2021
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
    coal_peak_gw = float(np.max(base.supply_by_fuel["coal"])) / 1e3
    np.testing.assert_allclose(
        path.coal_2019_tranche, np.minimum(path.coal_total, coal_peak_gw))
    assert np.all(path.coal_2019_tranche <= path.coal_total)
    assert np.all(path.gas_2019_tranche <= path.gas_total)


def test_tranches_without_base_have_no_slack():
    path = build_capacity_path(ScenarioParams())
    np.testing.assert_allclose(path.coal_total - path.coal_2019_tranche, 0.0, atol=1e-12)
    np.testing.assert_allclose(path.gas_total - path.gas_2019_tranche, 0.0, atol=1e-12)


def test_path_index():
    path = build_capacity_path(ScenarioParams())
    assert path.index(2021) == 0
    assert path.index(2030) == 9
    with pytest.raises(InvariantError):
        path.index(2031)


# --- demand projection -------------------------------------------------------


def test_project_demand_base_year_is_identity():
    base = synth_shapes(7)
    out = project_demand(ScenarioParams(), base.demand, BASE_YEAR)
    np.testing.assert_allclose(out, base.demand)


def test_project_demand_compound_growth():
    base = synth_shapes(7)
    p = ScenarioParams()
    out = project_demand(p, base.demand, FINAL_YEAR)
    np.testing.assert_allclose(out, base.demand * 1.0525 ** 9)
    # the 2030 energy lands within half a percent of 2,160 BU
    assert float(out.sum()) * 0.5 / 1e6 == pytest.approx(2160.0, rel=0.005)


def test_project_demand_horizon_check():
    base = synth_shapes(7)
    with pytest.raises(InvariantError):
        project_demand(ScenarioParams(), base.demand, 2031)
