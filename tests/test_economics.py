"""Price paths, annuities, NPV assembly, and frontier ranking."""

from dataclasses import replace

import numpy as np
import pytest

from gridlab.dispatch import DispatchYear
from gridlab.economics import (
    COMPONENTS,
    CostReport,
    ScenarioResult,
    annuity_payment,
    build_price_path,
    discount_factors,
    frontier,
    levelized_cost,
    npv_system_cost,
)
from gridlab.errors import DataIntegrityError, ParameterError, UndefinedCostError
from gridlab.newsupply import NewSupplyPlan
from gridlab.pipeline import decade_totals
from gridlab.scenario import (
    BASE_YEAR,
    FINAL_YEAR,
    N_YEARS,
    YEARS,
    ScenarioParams,
    build_capacity_path,
)


def flat_dispatch_year(year, re=10.0, coal=4.0, gas_slack=2.0, unmet=0.0):
    """48 slots of perfectly flat output; energies are easy closed forms."""
    n = 48
    supply = {k: np.zeros(n) for k in
              ("re", "hydro", "nuclear", "coal_2019", "gas_2019",
               "coal_slack", "gas_slack")}
    supply["re"] = np.full(n, re)
    supply["coal_2019"] = np.full(n, coal)
    supply["gas_slack"] = np.full(n, gas_slack)
    return DispatchYear(
        demand=np.full(n, re + coal + gas_slack + unmet),
        supply=supply,
        capacity={},
        curtailment=np.zeros(n),
        unmet=np.full(n, unmet),
    )


def flat_decade(**kwargs):
    """Per-year totals of a decade of flat despatch years."""
    years = [flat_dispatch_year(y, **kwargs) for y in YEARS]
    return decade_totals((dy, dy.demand) for dy in years)


def every_year(value):
    return np.full(N_YEARS, value)


def battery_plan(builds, **extra):
    """A battery plan from ``{build year: (energy MWh, inverter MW)}``;
    each size holds until the next build."""
    energy, inverter = np.zeros(N_YEARS), np.zeros(N_YEARS)
    for year, (mwh, mw) in sorted(builds.items()):
        energy[year - BASE_YEAR:] = mwh
        inverter[year - BASE_YEAR:] = mw
    return NewSupplyPlan(option="battery_re", energy_mwh=energy, capacity_mw=inverter, **extra)


def no_growth_params(**overrides):
    """RE frozen at the base-year level: the RE cost lines stay zero."""
    return ScenarioParams(re_2030=98.0, **overrides)


def empty_thermal_plan():
    return NewSupplyPlan(option="ocgt")


# --- closed-form prices ---------------------------------------------------


class TestAnnuity:
    def test_mortgage_example(self):
        # 25 equal payments on 1,000,000 at 8.5%
        assert annuity_payment(1_000_000.0, 0.085, 25) == pytest.approx(
            97_712.0, abs=0.5)

    def test_zero_rate_is_straight_line(self):
        assert annuity_payment(1000.0, 0.0, 4) == pytest.approx(250.0)

    def test_single_year_repays_with_interest(self):
        assert annuity_payment(1000.0, 0.1, 1) == pytest.approx(1100.0)

    def test_rejects_zero_years(self):
        with pytest.raises(ParameterError):
            annuity_payment(1000.0, 0.08, 0)


class TestFuelPrice:
    def test_coal_compounds_to_2030(self):
        path = build_price_path(ScenarioParams())
        got = path.fuel_rs_per_kwh["coal_2019"][path.index(2030)]
        assert got == pytest.approx(2.6 * 1.05 ** 9)
        assert got == pytest.approx(4.03, abs=0.01)

    def test_base_year_is_the_base_price(self):
        path = build_price_path(ScenarioParams())
        assert path.fuel_rs_per_kwh["gas_slack"][path.index(2021)] == 5.0

    @pytest.mark.parametrize("year", [2020, 2031])
    def test_horizon_bounds(self, year):
        with pytest.raises(ParameterError):
            build_price_path(ScenarioParams()).index(year)


class TestBatteryPrice:
    def test_learning_curve_usd(self):
        cell = build_price_path(ScenarioParams()).battery_cell_usd_per_kwh
        assert cell[0] == pytest.approx(175.0)
        assert cell[9] == pytest.approx(175.0 * 0.93 ** 9)
        assert cell[9] == pytest.approx(91.1, abs=0.1)

    def test_rupee_path_adds_forex_drift(self):
        cell = build_price_path(ScenarioParams()).battery_cell_rs_per_kwh
        assert cell[0] == pytest.approx(175.0 * 73.65)
        expected = 175.0 * 0.93 ** 5 * 73.65 * 1.03 ** 5
        assert cell[5] == pytest.approx(expected)


class TestBuildPricePath:
    def test_wind_capex_interpolates_linearly(self):
        path = build_price_path(ScenarioParams())
        wind = path.wind_capex_rs_per_mw
        assert wind[0] == pytest.approx(75e6)
        assert wind[-1] == pytest.approx(70.5e6)
        assert wind[3] == pytest.approx(75e6 + (70.5e6 - 75e6) * 3 / 9)
        assert np.allclose(np.diff(wind), wind[1] - wind[0])

    def test_solar_capex_declines_geometrically(self):
        p = ScenarioParams()
        path = build_price_path(p)
        t = np.arange(N_YEARS)
        assert np.allclose(path.solar_capex_rs_per_mw, 43e6 * 0.98 ** t)

    def test_om_inflation_multiplier(self):
        path = build_price_path(ScenarioParams())
        assert path.om_inflation[0] == 1.0
        assert path.om_inflation[9] == pytest.approx(1.04 ** 9)

    def test_fuel_paths_match_point_formula(self):
        p = ScenarioParams()
        path = build_price_path(p)
        for name, base, esc in [
            ("coal_2019", 2.6, 0.05), ("coal_slack", 3.0, 0.05),
            ("gas_2019", 3.5, 0.03), ("gas_slack", 5.0, 0.03),
        ]:
            for i in range(N_YEARS):
                assert path.fuel_rs_per_kwh[name][i] == pytest.approx(
                    base * (1.0 + esc) ** i)

    def test_tech_rows_present(self):
        path = build_price_path(ScenarioParams())
        assert path.tech_capex_rs_per_mw["diesel_gen"][0] == pytest.approx(20e6)
        assert path.tech_fuel_rs_per_kwh["ocgt"][0] == pytest.approx(6.8)

    def test_index_lookup(self):
        path = build_price_path(ScenarioParams())
        assert path.index(2021) == 0
        assert path.index(2030) == 9
        with pytest.raises(ParameterError):
            path.index(2031)

    def test_degenerate_escalation_rejected(self):
        with pytest.raises(ParameterError):
            build_price_path(ScenarioParams(gas_escalation=-1.5))
        with pytest.raises(ParameterError):
            build_price_path(ScenarioParams(solar_capex_change=-1.0))


class TestDiscountAndLevelized:
    def test_discount_factors(self):
        f = discount_factors(0.06, 4)
        assert np.allclose(f, [1.0, 1.06, 1.06 ** 2, 1.06 ** 3])
        assert discount_factors(0.06).shape == (N_YEARS,)

    def test_levelized_undiscounted(self):
        assert levelized_cost([100.0, 0.0], [50.0, 50.0], 0.0) == pytest.approx(1.0)

    def test_levelized_discounting_both_streams(self):
        got = levelized_cost([100.0, 106.0], [50.0, 53.0], 0.06)
        assert got == pytest.approx(200.0 / 100.0)

    def test_zero_energy_is_undefined(self):
        with pytest.raises(UndefinedCostError):
            levelized_cost([100.0], [0.0], 0.06)

    def test_stream_length_mismatch(self):
        with pytest.raises(ParameterError):
            levelized_cost([100.0, 1.0], [50.0], 0.06)


# --- NPV assembly ---------------------------------------------------------


class TestNpvFuelOnly:
    """Frozen RE, zero NEW capacity: only existing-fleet fuel costs flow."""

    def setup_method(self):
        self.params = no_growth_params()
        self.capacity = build_capacity_path(self.params)
        self.report = npv_system_cost(
            flat_decade(), empty_thermal_plan(), self.params, self.capacity)

    def expected_flows(self):
        t = np.arange(N_YEARS)
        coal = 96e3 * 2.6 * 1.05 ** t / 0.92
        gas = 48e3 * 5.0 * 1.03 ** t / 0.95
        return coal, gas

    def test_fuel_components_match_closed_form(self):
        coal, gas = self.expected_flows()
        disc = 1.06 ** np.arange(N_YEARS)
        assert self.report.npv_by_component["coal_fuel"] == pytest.approx(
            float(np.sum(coal / disc)))
        assert self.report.npv_by_component["gas_fuel_nonapm"] == pytest.approx(
            float(np.sum(gas / disc)))

    def test_everything_else_is_zero(self):
        for name in COMPONENTS:
            if name in ("coal_fuel", "gas_fuel_nonapm"):
                continue
            assert self.report.npv_by_component[name] == pytest.approx(0.0)

    def test_total_is_the_component_sum(self):
        assert self.report.npv_total == pytest.approx(
            sum(self.report.npv_by_component.values()))

    def test_levelized_existing(self):
        coal, gas = self.expected_flows()
        disc = 1.06 ** np.arange(N_YEARS)
        delivered = np.full(N_YEARS, 384e3)  # kWh: 240 + 96 + 48 MWh
        expected = float(np.sum((coal + gas) / disc) / np.sum(delivered / disc))
        assert self.report.levelized_existing == pytest.approx(expected)

    def test_levelized_new_undefined_without_new_energy(self):
        assert self.report.levelized_new is None

    def test_cash_flows_exported_per_component(self):
        coal, _ = self.expected_flows()
        assert set(self.report.cash_by_component) == set(COMPONENTS)
        assert np.allclose(self.report.cash_by_component["coal_fuel"], coal)

    def test_missing_year_rejected(self):
        decade = flat_decade()
        decade["coal_2019"] = decade["coal_2019"][:-1]
        with pytest.raises(DataIntegrityError):
            npv_system_cost(decade, empty_thermal_plan(), self.params, self.capacity)


class TestNpvBatteryCohorts:
    def test_single_cohort_annuities_and_om(self):
        params = no_growth_params()
        capacity = build_capacity_path(params)
        plan = battery_plan({2021: (1000.0, 400.0)})
        report = npv_system_cost(flat_decade(), plan, params, capacity)

        cell_cost = 1000.0 * 1e3 * 175.0 * 73.65
        inv_cost = 400.0 * 1e3 * 7500.0
        pay = (annuity_payment(cell_cost, 0.085, 15)
               + annuity_payment(inv_cost, 0.085, 13))
        t = np.arange(N_YEARS)
        assert np.allclose(report.cash_by_component["new_capex"],
                           np.full(N_YEARS, pay))
        assert np.allclose(report.cash_by_component["new_om"],
                           0.015 * (cell_cost + inv_cost) * 1.04 ** t)
        assert report.npv_by_component["new_fuel"] == 0.0
        assert report.levelized_new is None  # no unmet served, nothing displaced

    def test_full_life_counting_adds_the_post_2030_tail(self):
        base = no_growth_params()
        plan = battery_plan({2021: (1000.0, 400.0)})
        truncated = npv_system_cost(flat_decade(), plan, base, build_capacity_path(base))
        full = replace(base, count_full_life_annuities=True)
        counted = npv_system_cost(flat_decade(), plan, full, build_capacity_path(full))

        cell_cost = 1000.0 * 1e3 * 175.0 * 73.65
        inv_cost = 400.0 * 1e3 * 7500.0
        tail = (
            sum(annuity_payment(cell_cost, 0.085, 15) / 1.06 ** k
                for k in range(10, 15))
            + sum(annuity_payment(inv_cost, 0.085, 13) / 1.06 ** k
                  for k in range(10, 13))
        )
        diff = (counted.npv_by_component["new_capex"]
                - truncated.npv_by_component["new_capex"])
        assert diff == pytest.approx(tail, rel=1e-12)

    def test_second_cohort_prices_at_build_year(self):
        params = no_growth_params()
        paths = build_price_path(params)
        plan = battery_plan({2021: (1000.0, 400.0), 2025: (1600.0, 700.0)})
        report = npv_system_cost(flat_decade(), plan, params, build_capacity_path(params))

        cell0 = 1000.0 * 1e3 * paths.battery_cell_rs_per_kwh[0]
        inv0 = 400.0 * 1e3 * 7500.0
        cell4 = 600.0 * 1e3 * paths.battery_cell_rs_per_kwh[4]
        inv4 = 300.0 * 1e3 * 7500.0
        expected = np.zeros(N_YEARS)
        expected += (annuity_payment(cell0, 0.085, 15)
                     + annuity_payment(inv0, 0.085, 13))
        expected[4:] += (annuity_payment(cell4, 0.085, 15)
                         + annuity_payment(inv4, 0.085, 13))
        assert np.allclose(report.cash_by_component["new_capex"], expected)

        om = 0.015 * (cell0 + inv0) * 1.04 ** np.arange(N_YEARS)
        om[4:] += 0.015 * (cell4 + inv4) * 1.04 ** np.arange(6)
        assert np.allclose(report.cash_by_component["new_om"], om)

    def test_dedicated_solar_rides_the_new_lines(self):
        params = no_growth_params()
        paths = build_price_path(params)
        plan = battery_plan({2021: (1000.0, 400.0)}, dedicated_solar_gw=every_year(2.0))
        bare = battery_plan({2021: (1000.0, 400.0)})
        with_solar = npv_system_cost(flat_decade(), plan, params, build_capacity_path(params))
        without = npv_system_cost(flat_decade(), bare, params, build_capacity_path(params))

        sol_cost = 2000.0 * paths.solar_capex_rs_per_mw[0]
        extra_capex = np.full(N_YEARS, annuity_payment(sol_cost, 0.085, 25))
        extra_om = 2000.0 * 600_000.0 * 1.04 ** np.arange(N_YEARS)
        assert np.allclose(
            with_solar.cash_by_component["new_capex"]
            - without.cash_by_component["new_capex"], extra_capex)
        assert np.allclose(
            with_solar.cash_by_component["new_om"]
            - without.cash_by_component["new_om"], extra_om)


class TestDisplacementCredits:
    def base_plan(self, **extra):
        return battery_plan({2021: (100.0, 50.0)}, **extra)

    def run(self, plan):
        params = no_growth_params()
        return npv_system_cost(flat_decade(), plan, params, build_capacity_path(params))

    def test_credits_price_displaced_fuel_gross_of_aux(self):
        plan = self.base_plan(
            displaced_gas_twh=every_year(0.001),
            displaced_coal_slack_twh=every_year(0.002),
            bonus_curtailment_avoided_twh=every_year(0.0005),
        )
        report = self.run(plan)
        t = np.arange(N_YEARS)
        expected = -(
            1e6 * 5.0 * 1.03 ** t / 0.95
            + 2e6 * 3.0 * 1.05 ** t / 0.92
            + 0.5e6 * 3.0 * 1.05 ** t / 0.92
        )
        assert np.allclose(report.cash_by_component["new_fuel"], expected)
        assert report.npv_by_component["new_fuel"] < 0

    def test_per_tranche_split_prices_each_tranche(self):
        plan = self.base_plan(
            displaced_coal_2019_twh=every_year(0.0015),
            displaced_coal_slack_twh=every_year(0.0005),
        )
        report = self.run(plan)
        t = np.arange(N_YEARS)
        expected = -(1.5e6 * 2.6 + 0.5e6 * 3.0) * 1.05 ** t / 0.92
        assert np.allclose(report.cash_by_component["new_fuel"], expected)

    def test_displaced_energy_enters_the_new_denominator(self):
        # no battery cohorts: the displacement credit is the only NEW flow
        plan = NewSupplyPlan(
            option="battery_re",
            displaced_gas_twh=every_year(0.001))
        report = self.run(plan)
        assert report.levelized_new is not None
        assert report.levelized_new < 0


class TestThermalFuelAndBiodiesel:
    def test_ocgt_burn_covers_served_and_displaced(self):
        params = no_growth_params()
        plan = NewSupplyPlan(
            option="ocgt",
            capacity_mw=every_year(100.0),
            displaced_gas_twh=every_year(0.002),
        )
        decade = flat_decade(unmet=1.0)  # 24 MWh of unmet each year
        report = npv_system_cost(decade, plan, params, build_capacity_path(params))
        t = np.arange(N_YEARS)
        served_kwh = 24e3
        gen = served_kwh + 2e6
        burn = gen * 6.8 * 1.03 ** t / (1 - 0.025)
        credit = 2e6 * 5.0 * 1.03 ** t / 0.95
        assert np.allclose(report.cash_by_component["new_fuel"], burn - credit)

        capex = 100.0 * 50e6
        pay = annuity_payment(capex, 0.085, 25)
        assert np.allclose(report.cash_by_component["new_capex"],
                           np.full(N_YEARS, pay))
        assert np.allclose(report.cash_by_component["new_om"],
                           0.015 * capex * 1.04 ** t)

    def test_biodiesel_backstop_costing(self):
        params = no_growth_params()
        plan = NewSupplyPlan(
            option="ocgt",
            biodiesel_capacity_mw=every_year(50.0),
            secondary_unmet_twh=every_year(0.0001),
        )
        report = npv_system_cost(
            flat_decade(unmet=1.0), plan, params, build_capacity_path(params))
        t = np.arange(N_YEARS)
        capex = 50.0 * 20e6
        pay = annuity_payment(capex, 0.085, 15)
        om = 0.015 * capex * 1.04 ** t
        fuel = 1e5 / (1 - 0.005) * 20.0 * 1.03 ** t
        assert np.allclose(report.cash_by_component["biodiesel"],
                           pay + om + fuel)


# --- frontier ranking -----------------------------------------------------


def result(npv, capacity=0.0, curtailment=0.0):
    report = CostReport(npv_total=npv, npv_by_component={},
                        levelized_existing=None, levelized_new=None)
    return ScenarioResult(report=report, new_capacity_mw=capacity, curtailment_twh=curtailment)


class TestFrontier:
    def test_cheapest_first(self):
        rs = [result(3.0), result(1.0), result(2.0)]
        assert [r.report.npv_total for r in frontier(rs)] == [1.0, 2.0, 3.0]

    def test_npv_tie_prefers_less_capacity(self):
        rs = [result(1.0, capacity=5.0), result(1.0, capacity=3.0)]
        assert frontier(rs)[0].new_capacity_mw == 3.0

    def test_capacity_tie_prefers_less_curtailment(self):
        rs = [result(1.0, curtailment=9.0), result(1.0, curtailment=2.0)]
        assert frontier(rs)[0].curtailment_twh == 2.0

    def test_full_tie_keeps_input_order(self):
        first, second = result(1.0), result(1.0)
        assert frontier([first, second])[0] is first

    def test_empty_input_rejected(self):
        with pytest.raises(ParameterError):
            frontier([])
