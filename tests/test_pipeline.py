"""End-to-end scenario evaluation on the synthetic base year."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import _oracles
from gridlab import dispatch as dsp
from gridlab import newsupply as new
from gridlab import pipeline
from gridlab.cli import DataOptions, load_inputs
from gridlab.economics import COMPONENTS
from gridlab.pipeline import (
    GroupYear,
    OptionStage,
    YearRecord,
    _tranche_caps,
    _year_mix,
    _year_supplies,
    despatch_group,
    dispatch_year,
    evaluate_scenario,
    year_series,
)
from gridlab.scenario import (
    DESPATCH_FIELDS,
    NEW_OPTIONS,
    YEARS,
    ScenarioParams,
    build_capacity_path,
    project_demand,
)
from gridlab.shapes import (
    SLOT_HOURS,
    SLOTS_PER_DAY,
    derive_wind_shape,
    rescale_to_cuf,
    slots_in_year,
    synth_solar_shape,
)

GROWTH = 1.0525


class RecordKeeper:
    """A stand-in option stage that keeps every year record it is
    stepped on, and the per-MW solar shape that came with it."""

    def __init__(self):
        self.records = {}
        self.solar = {}

    def step(self, i, group_year):
        self.records[YEARS[i]] = group_year.record
        self.solar[YEARS[i]] = group_year.solar


def step_through(stage, records, solar_by_year):
    """Step one option stage through kept year records."""
    for i, year in enumerate(YEARS):
        stage.step(i, GroupYear(records[year], solar_by_year[year]))
    return stage


@pytest.fixture(scope="module")
def inputs(base_year, solar_shape, wind_shape):
    return base_year, solar_shape, wind_shape


#: The members of the base-case despatch group, with their detail years;
#: every scenario below shares their key.
MEMBERS = {
    "base": (ScenarioParams(), tuple(YEARS)),
    "half": (ScenarioParams(battery_size_fraction=0.5), (2030,)),
    "coal": (ScenarioParams(new_option="coal"), (2030,)),
    "ocgt": (ScenarioParams(new_option="ocgt"), ()),
}


@pytest.fixture(scope="module")
def group(inputs):
    """The base-case group, despatched year-major once: its members'
    stepped stages, the group's summary, and every year's record and
    per-MW solar shape."""
    stages = {name: OptionStage.start(p, years) for name, (p, years) in MEMBERS.items()}
    keeper = RecordKeeper()
    summary = despatch_group(ScenarioParams(), *inputs, [keeper, *stages.values()])
    return stages, summary, keeper.records, keeper.solar


@pytest.fixture(scope="module")
def records(group):
    return group[2]


@pytest.fixture(scope="module")
def solar_by_year(group):
    """The per-MW solar shape each year's stages were stepped with."""
    return group[3]


def priced(group, name):
    stages, summary, *_ = group
    return evaluate_scenario(stages[name], summary)


@pytest.fixture(scope="module")
def outcome(group):
    """Base-case battery scenario with slot detail for every year."""
    return priced(group, "base")


@pytest.fixture(scope="module")
def plan(group):
    return group[0]["base"].plan


@pytest.fixture(scope="module")
def outcome_half(group):
    return priced(group, "half")


@pytest.fixture(scope="module")
def plan_half(group):
    return group[0]["half"].plan


@pytest.fixture(scope="module")
def outcome_coal(group):
    return priced(group, "coal")


@pytest.fixture(scope="module")
def plan_coal(group):
    return group[0]["coal"].plan


@pytest.fixture(scope="module")
def outcome_ocgt(group):
    return priced(group, "ocgt")


@pytest.fixture(scope="module")
def plan_ocgt(group):
    return group[0]["ocgt"].plan


class TestDecade:
    def test_arrays_are_read_only(self, group):
        # scenarios sharing a year cannot write into each other's inputs
        _, summary, records, solar = group
        dy = records[2030].dispatch
        arrays = [
            dy.demand, dy.unmet, dy.curtailment, dy.flex_re_cut, dy.flex_hydro_cut,
            dy.supply["coal_2019"], dy.supply["re"], dy.capacity["gas_slack"],
            records[2030].curtailed_re, summary.totals["capacity_requirement_mw"],
            summary.path.coal_total,
            solar[2024],  # mapped onto the leap year's grid for this group
        ]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] += 1.0

    def test_despatch_stage_reads_only_despatch_fields(self):
        """The grouping key must hold every parameter despatch depends on."""
        stage = (despatch_group, dispatch_year, _tranche_caps, _year_supplies,
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
        self, kind, group, inputs
    ):
        params = ScenarioParams()
        _, summary, records, _ = group
        if kind == "thermal":
            params = ScenarioParams(new_option="ocgt", re_2030=550.0, flex_limit=0.7)
            keeper = RecordKeeper()
            summary = despatch_group(params, *inputs, [keeper])
            records = keeper.records
        totals, path = summary.totals, summary.path
        assert set(totals) == set(dsp.SUPPLY_KEYS) | {
            "unmet_twh", "curtailment_twh", "peak_unmet_mw", "capacity_requirement_mw",
            "demand_twh", "flex_relaxed_slots"}
        assert all(column.shape == (len(YEARS),) for column in totals.values())
        for i, year in enumerate(YEARS):
            dy = records[year].dispatch
            for key in dsp.SUPPLY_KEYS:
                assert totals[key][i] == dy.energy_twh(key), (year, key)
            assert totals["unmet_twh"][i] == dy.unmet_twh()
            assert totals["curtailment_twh"][i] == dy.curtailment_twh()
            assert totals["peak_unmet_mw"][i] == dy.peak_unmet_mw()
            assert totals["flex_relaxed_slots"][i] == dy.relaxed_slots
            # the busbar and shortfall series are not kept: rebuild them
            series = year_series(*inputs, year)
            busbar = project_demand(params, series["demand"], year) * (1.0 + params.ists_loss)
            caps = _tranche_caps(series, path, params, year)
            despatchable = (caps["coal_avail"] + caps["gas_avail"]
                            + path.hydro[i] * 1e3 + path.nuclear[i] * 1e3)
            shortfall = dsp.buffer_check(dy, busbar, despatchable, params.grid_buffer)
            assert totals["capacity_requirement_mw"][i] == dsp.compute_unmet(dy, shortfall)
            assert totals["demand_twh"][i] == float(np.sum(busbar)) * SLOT_HOURS / 1e6


#: one point per NEW option, and the undersized battery (with dedicated
#: solar) and undersized coal variants
PARITY_POINTS = [ScenarioParams(new_option=option) for option in NEW_OPTIONS] + [
    ScenarioParams(battery_size_fraction=0.5, dedicated_solar_extra=1.0),
    ScenarioParams(new_option="coal", new_coal_size_fraction=0.5),
]


class TestYearMajorParity:
    @pytest.fixture(scope="class")
    def decade(self, inputs):
        return _oracles.despatch_decade(ScenarioParams(), *inputs)

    def test_matches_the_whole_decade_reference_bit_for_bit(self, inputs, decade):
        # the sweep's shape: every point steps on one despatch of the key
        stages = [OptionStage.start(p, (2024, 2030)) for p in PARITY_POINTS]
        summary = despatch_group(ScenarioParams(), *inputs, stages)
        assert _oracles.bits(summary.totals) == _oracles.bits(decade.totals)
        for stage in stages:
            got = evaluate_scenario(stage, summary)
            want = _oracles.reference_evaluate_scenario(
                stage.params, decade, detail_years=(2024, 2030))
            assert set(got.details) == {2024, 2030}
            assert list(got.annual_mix) == list(YEARS)
            assert _oracles.bits(got) == _oracles.bits(want), stage.params.new_option

    def test_points_reach_solar_secondary_and_displacement(self, decade):
        # the parity above is only worth the branches its points reach
        half = _oracles.reference_evaluate_scenario(PARITY_POINTS[-2], decade)
        coal = _oracles.reference_evaluate_scenario(PARITY_POINTS[-1], decade)
        assert half.year_rows[-1]["dedicated_solar_gw"] > 0
        assert half.year_rows[-1]["secondary_unmet_twh"] > 0
        assert half.year_rows[-1]["bonus_curtailment_twh"] > 0
        assert coal.year_rows[-1]["secondary_unmet_twh"] > 0
        assert coal.year_rows[-1]["displaced_gas_twh"] > 0


class TestYearRows:
    def test_one_row_per_year(self, outcome):
        assert [r["year"] for r in outcome.year_rows] == list(YEARS)

    def test_base_year_busbar_demand(self, outcome, base_year):
        periphery_twh = float(np.sum(base_year.demand)) * 0.5 / 1e6
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

    @pytest.mark.parametrize("option", ["battery_re", "coal"])
    def test_mix_years_keep_no_slot_arrays(self, inputs, option):
        # the figure exports' evaluation: every year's annual mix, slot
        # arrays only for the exported years, the same as keeping all
        params = ScenarioParams(new_option=option)
        full = _oracles.evaluate_alone(params, *inputs, detail_years=tuple(YEARS))
        lean = _oracles.evaluate_alone(params, *inputs, detail_years=(2024, 2030))
        assert set(lean.details) == {2024, 2030}
        assert list(lean.annual_mix) == list(YEARS)
        assert lean.annual_mix == full.annual_mix
        assert _oracles.evaluate_alone(params, *inputs).annual_mix == {}
        for y in YEARS:
            assert lean.annual_mix[y] == _year_mix(full.details[y].dispatch,
                                                   full.details[y].reporting)
        for y in (2024, 2030):
            got, want = lean.details[y], full.details[y]
            for key in want.reporting.supply:
                np.testing.assert_array_equal(got.reporting.supply[key],
                                              want.reporting.supply[key])
            np.testing.assert_array_equal(got.reporting.unmet, want.reporting.unmet)
            assert (got.trace is None) == (option != "battery_re")

    def test_dispatch_balances_every_year(self, outcome):
        for y in YEARS:
            outcome.details[y].dispatch.check_balance()

    def test_flex_pass_ran(self, outcome):
        for y in YEARS:
            dy = outcome.details[y].dispatch
            assert dy.flex_re_cut is not None
            assert dy.flex_hydro_cut is not None

    def test_reporting_dispatch_balances_exactly(self, outcome):
        for y in (2022, 2026, 2030):
            rep = outcome.details[y].reporting
            imbalance = sum(rep.supply.values()) + rep.unmet - rep.demand
            assert float(np.abs(imbalance).max()) < 1e-6

    def test_fully_served_battery_year_reports_zero_unmet(self, outcome, plan):
        # the export takes the trace's secondary unmet, zero below
        # RESIDUE, so eta round-trip dust on served slots never reaches
        # the tables
        for i, y in enumerate(YEARS):
            assert plan.secondary_unmet_twh[i] == 0.0
            rep = outcome.details[y].reporting
            assert np.all(rep.unmet == 0.0)
            assert rep.unmet_twh() == 0.0
            rep.check_balance()

    def test_reporting_folds_new_supply_in(self, outcome):
        detail = outcome.details[2030]
        rep, dy = detail.reporting, detail.dispatch
        assert rep.energy_twh("new") > 0
        assert rep.unmet_twh() <= dy.unmet_twh() + 1e-12
        assert rep.energy_twh("gas_slack") <= dy.energy_twh("gas_slack") + 1e-12
        # the coal-peak bonus hands curtailed energy back to RE and hydro
        assert rep.curtailment_twh() < dy.curtailment_twh()

    def test_detail_arrays_are_consistent(self, outcome, records, plan):
        detail = outcome.details[2030]
        n = detail.dispatch.n_slots
        record = records[2030]
        assert record.dispatch is detail.dispatch
        assert record.curtailed_re.shape == (n,)
        # the buffer shortfall is >= 0, so it can only raise the requirement
        assert record.capacity_requirement_mw >= record.dispatch.peak_unmet_mw()
        assert np.all(record.curtailed_re >= -1e-9)
        assert plan.dedicated_solar_gw[-1] == 0.0  # extra=0, no dedicated solar
        assert detail.trace is not None

    def test_each_day_folds_in_the_volumes_its_bonus_was_computed_on(self):
        # the exports' coal and curtailment follow the option stage's
        # per-day split, day by day, on a run that displaces coal and
        # earns a bonus (the CLI's inputs for --synthetic 3)
        params = ScenarioParams(battery_size_fraction=0.5, re_2030=300.0)
        years = (2022, 2023, 2024, 2025)
        inputs = load_inputs(None, 3, params, DataOptions())
        outcome = _oracles.evaluate_alone(params, *inputs, detail_years=years)
        bonus_days = 0
        for year in years:
            detail = outcome.details[year]
            dy, rep = detail.dispatch, detail.reporting
            tranches = new.tranche_cycle_mwh(dy, detail.trace.year)
            disp = new.displace_with_battery(detail.trace, tranches)
            per_day = disp.per_day_mwh["coal_2019"] + disp.per_day_mwh["coal_slack"]
            bonus = new.coal_peak_bonus(dy, per_day, params.flex_limit)

            def by_day(series):
                return series.reshape(dy.n_days, SLOTS_PER_DAY).sum(axis=1) * SLOT_HOURS

            day_coal = by_day(dy.coal_total())
            removed = day_coal - by_day(rep.coal_total())
            np.testing.assert_allclose(removed, np.minimum(per_day, day_coal) + bonus,
                                       rtol=0, atol=1e-6, err_msg=str(year))
            np.testing.assert_allclose(by_day(dy.curtailment) - by_day(rep.curtailment), bonus,
                                       rtol=0, atol=1e-6, err_msg=str(year))
            bonus_days += np.count_nonzero(bonus)
        assert bonus_days > 0


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

    def test_matches_undersize_residual_of_full_design(self, records, solar_by_year, outcome,
                                                       outcome_half, plan_half):
        detail = outcome_half.details[2030]
        record = records[2030]
        twh, peak = _oracles.undersize_residual(
            outcome.details[2030].trace.battery, 0.5, record.dispatch.unmet, record.curtailed_re,
            solar_by_year[2030], plan_half.dedicated_solar_gw[-1], boundary_slot=34)
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

    def test_undersized_coal_leaves_secondary(self, records, solar_by_year):
        stage = OptionStage.start(ScenarioParams(new_option="coal", new_coal_size_fraction=0.5))
        plan = step_through(stage, records, solar_by_year).plan
        assert plan.secondary_unmet_twh[-1] > 0
        assert plan.biodiesel_capacity_mw[-1] > 0


class TestTrancheCaps:
    def test_tranches_partition_available_capacity(self, inputs):
        params = ScenarioParams()
        path = build_capacity_path(params, inputs[0])
        for year in (2021, 2024, 2025, 2030):
            caps = _tranche_caps(year_series(*inputs, year), path, params, year)
            i = path.index(year)
            coal_avail = path.coal_total[i] * 1e3 * 0.9
            assert np.allclose(caps["coal_2019"] + caps["coal_slack"],
                               coal_avail)
            assert np.allclose(caps["gas_2019"] + caps["gas_slack"],
                               path.gas_total[i] * 1e3)
            for key in ("coal_2019", "gas_2019", "coal_slack", "gas_slack"):
                assert np.all(caps[key] >= -1e-9)
            assert np.all(caps["coal_2019"] <= coal_avail + 1e-9)

    @pytest.mark.parametrize("year", [2021, 2024])
    def test_single_year_dispatch_contract(self, inputs, year):
        params = ScenarioParams()
        path = build_capacity_path(params, inputs[0])
        record = dispatch_year(params, path, year, year_series(*inputs, year))
        dy = record.dispatch
        dy.check_balance()
        assert dy.n_slots == slots_in_year(year)
        assert isinstance(record, YearRecord)
        assert record.capacity_requirement_mw >= dy.peak_unmet_mw()
        assert np.all(record.curtailed_re >= -1e-9)
        # curtailed RE is one part of all curtailment
        assert np.all(record.curtailed_re <= dy.curtailment + 1e-9)


def _synthetic_evaluation(seed, params, detail_years=()):
    base, solar, wind = load_inputs(None, seed, params, DataOptions())
    stage = OptionStage.start(params, detail_years)
    despatch = despatch_group(params, base, solar, wind, [stage])
    return stage, despatch, evaluate_scenario(stage, despatch)


class TestResidue:
    """NEW-supply rounding dust is zero by one rule, ``newsupply.RESIDUE``."""

    def test_battery_with_nothing_spare_displaces_exactly_zero_gas(self):
        # synthetic seed 26, 2021: in one cycle the lowest SoC sits 1.7e-13
        # MWh above the floor, under one ulp of the energy capacity, and
        # gas_slack runs in that cycle; the spare energy is residue
        params = ScenarioParams(new_option="battery_re", demand_growth=0.0525,
                                flex_limit=0.55, re_2030=300.0, solar_share=7 / 12,
                                battery_size_fraction=1.0, dedicated_solar_extra=1.0)
        stage, _, outcome = _synthetic_evaluation(26, params)
        assert stage.plan.displaced_gas_twh[0] == 0.0
        assert outcome.year_rows[0]["displaced_gas_twh"] == 0.0

    def test_thermal_build_an_ulp_short_of_peak_leaves_no_unmet(self):
        # synthetic seed 4, 2024: the build grossed up by aux and netted
        # back down falls one ulp short of the peak unmet it was sized on
        params = ScenarioParams(new_option="coal", demand_growth=0.05, flex_limit=0.55,
                                re_2030=250.0, solar_share=7 / 12)
        stage, despatch, outcome = _synthetic_evaluation(4, params, (2024,))
        i = YEARS.index(2024)
        net_cap = stage.plan.capacity_mw[i] * (1.0 - params.tech_costs["coal"].aux)
        assert np.nextafter(net_cap, np.inf) == despatch.totals["peak_unmet_mw"][i]
        assert stage.plan.secondary_unmet_twh[i] == 0.0
        assert stage.plan.biodiesel_capacity_mw[i] == 0.0
        assert outcome.annual_mix[2024]["unmet_twh"] == 0.0
        assert np.all(outcome.details[2024].reporting.unmet == 0.0)

    @pytest.mark.parametrize("module", [new, pipeline], ids=lambda m: m.__name__)
    def test_no_second_residue_threshold(self, module):
        # a float literal this small is a residue rule; the one rule is
        # RESIDUE, and _EPS is the plan's tolerance for a negative volume
        tree = ast.parse(Path(module.__file__).read_text())
        allowed = {id(node.value) for node in ast.walk(tree)
                   if isinstance(node, ast.Assign)
                   and [ast.unparse(t) for t in node.targets] in (["RESIDUE"], ["_EPS"])}
        small = [(node.lineno, node.value) for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and isinstance(node.value, float)
                 and 0.0 < node.value < 1e-3 and id(node) not in allowed]
        assert small == []


def test_only_year_series_maps_the_base_year():
    # the base year and the per-MW shapes reach a horizon year's slot
    # grid by one path; every other use of the calendar mapping is a
    # second one
    users = []
    for path in sorted(Path(pipeline.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        scope = {}
        for node in ast.walk(tree):  # outer functions first, so the innermost wins
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                scope.update((id(inner), getattr(node, "name", "<lambda>"))
                             for inner in ast.walk(node))
        users += [f"{path.stem}.{scope.get(id(node), '<module>')}" for node in ast.walk(tree)
                  if "map_values_to_year" in (getattr(node, "id", None), getattr(node, "attr", None))]
    assert users == ["pipeline.year_series"]


@pytest.mark.parametrize("year", range(2019, 2025))
def test_any_base_year_evaluates(year, base_year, outcome, outcome_ocgt):
    """The base-year data may come from any year, leap years included."""
    base = _oracles.base_in_year(base_year, year)
    raw = synth_solar_shape(year)
    solar = rescale_to_cuf(raw, 0.27)
    wind = derive_wind_shape(base.supply_by_fuel["re"], raw, 35_000.0, wind_cuf=0.35)
    for reference in (outcome_ocgt, outcome):
        got = _oracles.evaluate_alone(reference.params, base, solar, wind, detail_years=(2024,))
        assert got.details[2024].dispatch.demand.shape == (slots_in_year(2024),)
        if slots_in_year(year) == slots_in_year(base_year.year):
            # same slot grid as the 2021 fixture: nothing may change
            assert got.result.report.npv_total == reference.result.report.npv_total
            assert got.year_rows == reference.year_rows
        else:
            assert got.result.report.npv_total == pytest.approx(
                reference.result.report.npv_total, rel=0.02)
