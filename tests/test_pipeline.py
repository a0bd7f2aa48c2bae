"""End-to-end scenario evaluation on the synthetic base year."""

import ast
import inspect

import numpy as np
import pytest

import _oracles
from gridlab import dispatch as dsp
from gridlab.economics import COMPONENTS
from gridlab.pipeline import (
    _battery_plan,
    _thermal_plan,
    _tranche_caps,
    _year_supplies,
    despatch_decade,
    dispatch_year,
    evaluate_scenario,
    year_shapes,
)
from gridlab.scenario import (
    DESPATCH_FIELDS,
    YEARS,
    ScenarioParams,
    build_capacity_path,
    project_demand,
)
from gridlab.shapes import (
    SLOT_HOURS,
    BaseYearData,
    derive_wind_shape,
    rescale_to_cuf,
    slots_in_year,
    synth_solar_shape,
)

GROWTH = 1.0525


def despatch(params, base, solar, wind):
    return despatch_decade(params, base, year_shapes(base, solar), year_shapes(base, wind))


@pytest.fixture(scope="module")
def decade(base_year, solar_shape, wind_shape):
    """The base-case despatch; every scenario below shares its key."""
    return despatch(ScenarioParams(), base_year, solar_shape, wind_shape)


@pytest.fixture(scope="module")
def outcome(decade):
    """Base-case battery scenario with slot detail for every year."""
    return evaluate_scenario(ScenarioParams(), decade, detail_years=tuple(YEARS))


@pytest.fixture(scope="module")
def plan(decade):
    return _battery_plan(ScenarioParams(), decade)[0]


@pytest.fixture(scope="module")
def outcome_half(decade):
    return evaluate_scenario(
        ScenarioParams(battery_size_fraction=0.5), decade, detail_years=(2030,))


@pytest.fixture(scope="module")
def plan_half(decade):
    return _battery_plan(ScenarioParams(battery_size_fraction=0.5), decade)[0]


@pytest.fixture(scope="module")
def outcome_coal(decade):
    return evaluate_scenario(
        ScenarioParams(new_option="coal"), decade, detail_years=(2030,))


@pytest.fixture(scope="module")
def plan_coal(decade):
    return _thermal_plan(ScenarioParams(new_option="coal"), decade)


@pytest.fixture(scope="module")
def outcome_ocgt(decade):
    return evaluate_scenario(ScenarioParams(new_option="ocgt"), decade)


@pytest.fixture(scope="module")
def plan_ocgt(decade):
    return _thermal_plan(ScenarioParams(new_option="ocgt"), decade)


class TestDecade:
    def test_arrays_are_read_only(self, decade):
        # scenarios sharing a decade cannot write into each other's inputs
        dy, extras = decade.years[2030]
        arrays = [
            dy.demand, dy.unmet, dy.curtailment, dy.flex_re_cut, dy.coal_flex_floor,
            dy.supply["coal_2019"], dy.supply["re"], dy.capacity["gas_slack"],
            extras["busbar"], extras["buffer"].shortfall, extras["curtailed_re"],
            decade.path.coal_total,
        ]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] += 1.0

    def test_despatch_stage_reads_only_despatch_fields(self):
        """The grouping key must hold every parameter despatch depends on."""
        stage = (despatch_decade, dispatch_year, _tranche_caps, _year_supplies,
                 build_capacity_path, project_demand)
        names = {fn.__name__ for fn in stage}
        read = set()
        for fn in stage:
            (func,) = ast.parse(inspect.getsource(fn)).body
            (arg,) = [a.arg for a in func.args.args
                      if ast.unparse(a.annotation) == "ScenarioParams"]
            for node in ast.walk(func):
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id == arg):
                    read.add(node.attr)
                if isinstance(node, ast.Call) and any(
                        isinstance(a, ast.Name) and a.id == arg for a in node.args):
                    callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                    assert callee in names, f"{fn.__name__} hands the params to {callee}"
        assert read <= set(DESPATCH_FIELDS), sorted(read - set(DESPATCH_FIELDS))
        # an unread field in the key would only split groups for nothing
        assert read == set(DESPATCH_FIELDS)


    @pytest.mark.parametrize("kind", ["battery", "thermal"])
    def test_totals_equal_the_slot_sums_bit_for_bit(
        self, kind, decade, base_year, solar_shape, wind_shape
    ):
        if kind == "thermal":
            params = ScenarioParams(new_option="ocgt", re_2030=550.0, flex_limit=0.7)
            decade = despatch(params, base_year, solar_shape, wind_shape)
        totals = decade.totals
        assert set(totals) == set(dsp.SUPPLY_KEYS) | {
            "unmet_twh", "curtailment_twh", "peak_unmet_mw", "demand_twh"}
        assert all(column.shape == (len(YEARS),) for column in totals.values())
        for i, year in enumerate(YEARS):
            dy, extras = decade.years[year]
            for key in dsp.SUPPLY_KEYS:
                assert totals[key][i] == dy.energy_twh(key), (year, key)
            assert totals["unmet_twh"][i] == dy.unmet_twh()
            assert totals["curtailment_twh"][i] == dy.curtailment_twh()
            assert totals["peak_unmet_mw"][i] == dy.peak_unmet_mw()
            assert totals["demand_twh"][i] == float(np.sum(extras["busbar"])) * SLOT_HOURS / 1e6


class TestYearRows:
    def test_one_row_per_year(self, outcome):
        assert [r["year"] for r in outcome.year_rows] == list(YEARS)

    def test_base_year_busbar_demand(self, outcome, base_year):
        periphery_twh = float(np.sum(base_year.demand.values)) * 0.5 / 1e6
        expected = periphery_twh * 1.0339
        assert outcome.year_rows[0]["demand_twh"] == pytest.approx(
            expected, rel=1e-12)

    def test_demand_compounds_across_the_decade(self, outcome):
        first = outcome.year_rows[0]["demand_twh"]
        last = outcome.year_rows[-1]["demand_twh"]
        assert last / first == pytest.approx(GROWTH ** 9, rel=1e-9)
        demands = [r["demand_twh"] for r in outcome.year_rows]
        assert all(a < b for a, b in zip(demands, demands[1:]))

    def test_base_year_is_fully_served(self, outcome):
        assert outcome.year_rows[0]["unmet_twh"] == 0.0
        assert outcome.year_rows[0]["curtailment_twh"] == 0.0

    def test_unmet_grows_with_demand(self, outcome):
        unmet = [r["unmet_twh"] for r in outcome.year_rows]
        assert all(a <= b + 1e-12 for a, b in zip(unmet, unmet[1:]))
        assert unmet[-1] > 0

    def test_capacity_requirement_covers_peak_unmet(self, outcome):
        for row in outcome.year_rows:
            assert (row["capacity_requirement_gw"]
                    >= row["peak_unmet_gw"] - 1e-9)

    def test_curtailment_total_matches_result(self, outcome):
        total = sum(r["curtailment_twh"] for r in outcome.year_rows)
        assert outcome.result.curtailment_twh == pytest.approx(total, rel=1e-12)


class TestBatteryPlan:
    def test_sizes_only_grow(self, plan):
        for seq in (plan.energy_mwh, plan.capacity_mw, plan.dedicated_solar_gw):
            assert all(a <= b + 1e-12 for a, b in zip(seq, seq[1:]))

    def test_full_battery_leaves_no_secondary_unmet(self, plan):
        assert np.all(plan.secondary_unmet_twh == 0.0)
        assert np.all(plan.biodiesel_capacity_mw == 0.0)

    def test_minimum_sizing_needs_no_dedicated_solar(self, plan):
        # cycle-reset sizing covers the worst cycle from a full charge,
        # so with extra=0 the dedicated solar stays at zero
        assert np.all(plan.dedicated_solar_gw == 0.0)

    def test_new_capacity_is_the_final_inverter(self, outcome, plan):
        assert outcome.result.new_capacity_mw == pytest.approx(
            outcome.details[2030].trace.battery.inverter_capacity_mw)
        assert outcome.result.new_capacity_mw == pytest.approx(
            plan.capacity_mw[-1])
        assert outcome.result.new_capacity_mw > 0

    def test_displacement_volumes_present_and_consistent(self, outcome, plan):
        coal = plan.displaced_coal_2019_twh + plan.displaced_coal_slack_twh
        for i, row in enumerate(outcome.year_rows):
            assert row["displaced_gas_twh"] == plan.displaced_gas_twh[i]
            assert row["displaced_coal_twh"] == pytest.approx(coal[i])
            assert plan.bonus_curtailment_avoided_twh[i] >= 0.0
        assert coal[-1] > 0
        assert plan.displaced_gas_twh[-1] > 0
        assert plan.bonus_curtailment_avoided_twh[-1] > 0

    def test_plan_validates(self, plan):
        plan.validate()


class TestEconomicsWiring:
    def test_npv_positive_and_component_sum(self, outcome):
        report = outcome.result.report
        assert report.npv_total > 0
        assert report.npv_total == pytest.approx(
            sum(report.npv_by_component.values()))
        assert set(report.npv_by_component) == set(COMPONENTS)

    def test_levelized_costs_defined(self, outcome):
        report = outcome.result.report
        assert report.levelized_existing is not None
        assert report.levelized_existing > 0
        assert report.levelized_new is not None
        assert report.levelized_new > 0


class TestDetails:
    def test_detail_years_filter(self, outcome, outcome_half):
        assert set(outcome.details) == set(YEARS)
        assert set(outcome_half.details) == {2030}

    def test_dispatch_balances_every_year(self, outcome):
        for y in YEARS:
            outcome.details[y].dispatch.check_balance()

    def test_flex_pass_ran(self, outcome):
        for y in YEARS:
            dy = outcome.details[y].dispatch
            assert dy.flex_re_cut is not None
            assert dy.coal_flex_floor is not None

    def test_reporting_dispatch_balances_exactly(self, outcome):
        for y in (2022, 2026, 2030):
            rep = outcome.details[y].reporting
            imbalance = sum(rep.supply.values()) + rep.unmet - rep.demand
            assert float(np.abs(imbalance).max()) < 1e-6

    def test_fully_served_battery_year_reports_zero_unmet(self, outcome, plan):
        # the export takes the trace's snapped secondary unmet, so eta
        # round-trip dust on served slots never reaches the tables
        for i, y in enumerate(YEARS):
            assert plan.secondary_unmet_twh[i] == 0.0
            rep = outcome.details[y].reporting
            assert np.all(rep.unmet == 0.0)
            assert rep.unmet_twh() == 0.0
            rep.check_balance(tolerance=1.0)

    def test_reporting_folds_new_supply_in(self, outcome):
        detail = outcome.details[2030]
        rep, dy = detail.reporting, detail.dispatch
        assert rep.energy_twh("new") > 0
        assert rep.unmet_twh() <= dy.unmet_twh() + 1e-12
        assert rep.energy_twh("gas_slack") <= dy.energy_twh("gas_slack") + 1e-12
        # the coal-peak bonus hands curtailed energy back to RE and hydro
        assert rep.curtailment_twh() < dy.curtailment_twh()

    def test_detail_arrays_are_consistent(self, outcome, decade, plan):
        detail = outcome.details[2030]
        n = detail.dispatch.n_slots
        _, extras = decade.years[2030]
        assert extras["busbar"].shape == (n,)
        assert extras["curtailed_re"].shape == (n,)
        assert np.all(extras["buffer"].shortfall >= 0)
        assert np.all(extras["curtailed_re"] >= -1e-9)
        assert plan.dedicated_solar_gw[-1] == 0.0  # extra=0, no dedicated solar
        assert detail.trace is not None


class TestUndersizedBattery:
    def test_battery_is_exactly_half(self, plan, plan_half):
        assert plan_half.energy_mwh[-1] == pytest.approx(
            plan.energy_mwh[-1] / 2, rel=1e-12)
        assert plan_half.capacity_mw[-1] == pytest.approx(
            plan.capacity_mw[-1] / 2, rel=1e-12)

    def test_secondary_unmet_is_strongly_sublinear(self, outcome_half, plan_half):
        sec = plan_half.secondary_unmet_twh[-1]
        unmet = outcome_half.year_rows[-1]["unmet_twh"]
        assert sec > 0
        # half the battery serves far more than half the load
        assert sec < 0.5 * unmet

    def test_biodiesel_covers_peak_secondary(self, outcome_half, plan_half):
        detail = outcome_half.details[2030]
        peak = float(detail.trace.secondary_unmet_mw.max())
        diesel_aux = 0.005
        bios = plan_half.biodiesel_capacity_mw
        assert bios[-1] == pytest.approx(peak / (1 - diesel_aux))
        assert all(a <= b + 1e-12 for a, b in zip(bios, bios[1:]))

    def test_matches_undersize_residual_of_full_design(self, decade, outcome,
                                                       outcome_half, plan_half):
        detail = outcome_half.details[2030]
        dy, extras = decade.years[2030]
        solar_gen = decade.solar_by_year[2030] * plan_half.dedicated_solar_gw[-1] * 1e3
        twh, peak = _oracles.undersize_residual(
            outcome.details[2030].trace.battery, 0.5, dy.unmet, extras["curtailed_re"],
            solar_gen, boundary_slot=34)
        assert twh == pytest.approx(
            plan_half.secondary_unmet_twh[-1], rel=1e-9)
        assert peak == pytest.approx(
            float(detail.trace.secondary_unmet_mw.max()), rel=1e-9)


class TestThermalOptions:
    def test_new_coal_displaces_nonapm_gas(self, outcome_coal, plan_coal):
        assert plan_coal.displaced_gas_twh[-1] > 0
        detail = outcome_coal.details[2030]
        assert (detail.reporting.energy_twh("gas_slack")
                < detail.dispatch.energy_twh("gas_slack"))

    def test_coal_has_no_battery_style_lines(self, plan_coal):
        plan = plan_coal
        assert np.all(plan.energy_mwh == 0.0)
        assert np.all(plan.displaced_coal_2019_twh + plan.displaced_coal_slack_twh == 0.0)
        assert np.all(plan.bonus_curtailment_avoided_twh == 0.0)
        assert np.all(plan.secondary_unmet_twh == 0.0)

    def test_ocgt_displaces_nothing(self, outcome_ocgt, plan_ocgt):
        assert np.all(plan_ocgt.displaced_gas_twh == 0.0)
        assert outcome_ocgt.result.report.npv_by_component["new_fuel"] > 0

    def test_thermal_options_net_to_the_same_requirement(self, plan_coal,
                                                         plan_ocgt):
        coal_net = plan_coal.capacity_mw[-1] * (1 - 0.08)
        ocgt_net = plan_ocgt.capacity_mw[-1] * (1 - 0.025)
        assert coal_net == pytest.approx(ocgt_net, rel=1e-9)

    def test_undersized_coal_leaves_secondary(self, decade):
        plan = _thermal_plan(
            ScenarioParams(new_option="coal", new_coal_size_fraction=0.5), decade)
        assert plan.secondary_unmet_twh[-1] > 0
        assert plan.biodiesel_capacity_mw[-1] > 0


class TestTrancheCaps:
    def test_tranches_partition_available_capacity(self, base_year):
        params = ScenarioParams()
        path = build_capacity_path(params, base_year)
        for year in (2021, 2025, 2030):
            caps = _tranche_caps(base_year, path, params, year)
            i = path.index(year)
            coal_avail = path.coal_total[i] * 1e3 * 0.9
            assert np.allclose(caps["coal_2019"] + caps["coal_slack"],
                               coal_avail)
            assert np.allclose(caps["gas_2019"] + caps["gas_slack"],
                               path.gas_total[i] * 1e3)
            for key in ("coal_2019", "gas_2019", "coal_slack", "gas_slack"):
                assert np.all(caps[key] >= -1e-9)
            assert np.all(caps["coal_2019"] <= coal_avail + 1e-9)

    def test_single_year_dispatch_contract(self, base_year, solar_shape,
                                           wind_shape):
        params = ScenarioParams()
        path = build_capacity_path(params, base_year)
        solar = solar_shape.values
        wind = wind_shape.values
        dy, extras = dispatch_year(params, base_year, path, 2021, solar, wind)
        dy.check_balance()
        assert dy.n_slots == slots_in_year(2021)
        assert set(extras) == {"busbar", "buffer", "capacity_requirement_mw",
                               "curtailed_re"}
        assert np.all(extras["buffer"].shortfall >= 0)
        assert np.all(extras["curtailed_re"] >= -1e-9)
        # curtailed RE is one part of all curtailment
        assert np.all(extras["curtailed_re"] <= dy.curtailment + 1e-9)


@pytest.mark.parametrize("year", range(2019, 2025))
def test_any_base_year_evaluates(year, base_year, outcome, outcome_ocgt):
    """The base-year data may come from any year, leap years included."""
    base = BaseYearData(
        year=year,
        demand=_oracles.series_to_year(base_year.demand, year),
        supply_by_fuel={
            k: _oracles.series_to_year(s, year) for k, s in base_year.supply_by_fuel.items()
        },
    )
    raw = synth_solar_shape(year)
    solar = rescale_to_cuf(raw, 0.27)
    wind = derive_wind_shape(base.supply_by_fuel["re"], raw, 35_000.0, wind_cuf=0.35)
    for reference in (outcome_ocgt, outcome):
        decade = despatch(reference.params, base, solar, wind)
        got = evaluate_scenario(reference.params, decade, detail_years=(2024,))
        assert decade.years[2024][1]["busbar"].shape == (slots_in_year(2024),)
        if slots_in_year(year) == slots_in_year(base_year.year):
            # same slot grid as the 2021 fixture: nothing may change
            assert got.result.report.npv_total == reference.result.report.npv_total
            assert got.year_rows == reference.year_rows
        else:
            assert got.result.report.npv_total == pytest.approx(
                reference.result.report.npv_total, rel=0.02)
