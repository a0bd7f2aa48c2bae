"""End-to-end evaluation of one scenario, in two stages.

The despatch stage, ``despatch_decade``, runs for each year 2021-2030:

1. scale demand and capacities (scenario),
2. net demand after must-run, merit despatch, coal flex (dispatch),
3. buffer audit and capacity requirement (dispatch).

It reads only the ``DESPATCH_FIELDS`` of the parameters and returns a
read-only ``Decade``, which also carries each year's energy totals,
summed once when the decade is built.  Scenarios that differ only in
the NEW option, its sizing or prices share one decade and read those
totals instead of summing the slot arrays again.  The option stage,
``evaluate_scenario``, prices one scenario on such a decade:

4. NEW supply sizing, SoC simulation, displacement loops (newsupply),
5. cash flows and NPV (economics).

Heavy slot-level arrays stay inside the worker; what comes back per
scenario is a flat summary suitable for CSV rows, so a grid sweep can
fan out across processes and still merge deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

import numpy as np

from gridlab import dispatch as dsp
from gridlab import economics as eco
from gridlab import newsupply as new
from gridlab.errors import InfeasibleError
from gridlab.scenario import (
    N_YEARS,
    YEARS,
    CapacityPath,
    ScenarioParams,
    build_capacity_path,
    project_demand,
)
from gridlab.shapes import SLOT_HOURS, SLOTS_PER_DAY, BaseYearData, PerMwShape, map_values_to_year


@dataclass(frozen=True)
class Decade:
    """One despatch key's decade: capacity path, despatch and solar shape.

    Every array ``despatch_decade`` built is read-only, so the scenarios
    sharing a decade cannot write into each other's inputs.  ``totals``
    is ``decade_totals``: one array per key, indexed by horizon position.
    """

    path: CapacityPath
    years: dict[int, tuple[dsp.DispatchYear, dict]]
    solar_by_year: Mapping[int, np.ndarray]
    totals: dict[str, np.ndarray]


@dataclass
class YearDetail:
    """Slot-level leftovers for one year, kept only when asked for."""

    dispatch: dsp.DispatchYear  # post-flex, pre-displacement
    reporting: dsp.DispatchYear  # NEW supply and displacement folded in
    trace: new.SocTrace | None


@dataclass
class ScenarioOutcome:
    """Everything a sweep needs back from one evaluated scenario."""

    params: ScenarioParams
    result: eco.ScenarioResult
    year_rows: list[dict]
    details: dict[int, YearDetail] = field(default_factory=dict)


def _snap(value: float, epsilon: float = 1e-9) -> float:
    """Zero out float dust so downstream reports stay clean."""
    return 0.0 if abs(value) < epsilon else value


def _tranche_caps(
    base: BaseYearData, path: CapacityPath, p: ScenarioParams, year: int
) -> dict[str, np.ndarray]:
    """Per-slot tranche capacities for one year.

    The 2019 tranches follow the base-year output shape, shrunk when
    retirement eats into them; slack is whatever available capacity
    remains above that.  Coal availability carries the maintenance
    derate.
    """
    i = path.index(year)
    coal_avail = path.coal_total[i] * 1e3 * (1.0 - p.coal_peak_derate)
    gas_avail = path.gas_total[i] * 1e3

    base_coal = map_values_to_year(base.supply_by_fuel["coal"].values, base.year, year)
    base_gas = map_values_to_year(base.supply_by_fuel["gas"].values, base.year, year)
    coal_peak = float(np.max(base_coal))
    gas_peak = float(np.max(base_gas))

    f_coal = min(path.coal_2019_tranche[i] * 1e3 / coal_peak, 1.0) if coal_peak > 0 else 0.0
    f_gas = min(path.gas_2019_tranche[i] * 1e3 / gas_peak, 1.0) if gas_peak > 0 else 0.0

    cap_c19 = np.minimum(base_coal * f_coal, coal_avail)
    cap_g19 = np.minimum(base_gas * f_gas, gas_avail)
    return {
        "coal_2019": cap_c19,
        "gas_2019": cap_g19,
        "coal_slack": coal_avail - cap_c19,
        "gas_slack": gas_avail - cap_g19,
        "coal_avail": np.full(base_coal.shape, coal_avail),
        "gas_avail": np.full(base_gas.shape, gas_avail),
    }


def _year_supplies(
    base: BaseYearData,
    path: CapacityPath,
    p: ScenarioParams,
    year: int,
    solar_shape: np.ndarray,
    wind_shape: np.ndarray,
) -> dict[str, np.ndarray]:
    """Must-run supply series for one year, scaled pro rata."""
    i = path.index(year)

    def base_values(fuel: str) -> np.ndarray:
        return map_values_to_year(base.supply_by_fuel[fuel].values, base.year, year)

    return {
        "re": (
            base_values("re")
            + path.solar_new[i] * 1e3 * solar_shape
            + path.wind_new[i] * 1e3 * wind_shape
        ),
        "hydro": base_values("hydro") * (path.hydro[i] / p.hydro_2021),
        "nuclear": base_values("nuclear") * (path.nuclear[i] / p.nuclear_2021),
    }


def dispatch_year(
    params: ScenarioParams,
    base: BaseYearData,
    path: CapacityPath,
    year: int,
    solar_shape: np.ndarray,
    wind_shape: np.ndarray,
) -> tuple[dsp.DispatchYear, dict]:
    """Steps 2-4 for one year: net demand, merit order, flex, buffer."""
    i = path.index(year)
    demand = project_demand(params, base, year)
    busbar = demand * (1.0 + params.ists_loss)
    supplies = _year_supplies(base, path, params, year, solar_shape, wind_shape)

    net, interim = dsp.net_demand(busbar, supplies["re"], supplies["hydro"], supplies["nuclear"])
    must = dsp.split_must_run(busbar, supplies["re"], supplies["hydro"], supplies["nuclear"])
    caps = _tranche_caps(base, path, params, year)
    dy = dsp.merit_dispatch(net, [(k, caps[k]) for k in dsp.TRANCHES])
    dy = dsp.attach_must_run(dy, must, interim)
    dy = dsp.apply_coal_flex(dy, params.flex_limit)
    dy.check_balance()

    despatchable = (
        caps["coal_avail"] + caps["gas_avail"]
        + path.hydro[i] * 1e3 + path.nuclear[i] * 1e3
    )
    buffer = dsp.buffer_check(dy, busbar, despatchable, params.grid_buffer)
    cap_req = dsp.compute_unmet(dy, buffer)
    curtailed_re = (supplies["re"] - must["re"]) + dy.flex_re_cut
    extras = {
        "busbar": busbar,
        "buffer": buffer,
        "capacity_requirement_mw": cap_req,
        "curtailed_re": curtailed_re,
    }
    return dy, extras


def year_shapes(base: BaseYearData, shape: PerMwShape) -> dict[int, np.ndarray]:
    """A per-MW shape mapped onto every horizon year's slot grid."""
    return {y: map_values_to_year(shape.values, base.year, y) for y in YEARS}


def decade_totals(years: Iterable[tuple[dsp.DispatchYear, np.ndarray]]) -> dict[str, np.ndarray]:
    """Each despatch year's totals, given its busbar demand, one array
    entry per year: TWh under each supply key, ``unmet_twh``,
    ``curtailment_twh``, ``peak_unmet_mw`` and the busbar ``demand_twh``."""
    rows = []
    for dy, busbar in years:
        row = {key: dy.energy_twh(key) for key in dy.supply}
        row["unmet_twh"] = dy.unmet_twh()
        row["curtailment_twh"] = dy.curtailment_twh()
        row["peak_unmet_mw"] = dy.peak_unmet_mw()
        row["demand_twh"] = float(np.sum(busbar)) * SLOT_HOURS / 1e6
        rows.append(row)
    return {key: np.array([row[key] for row in rows]) for key in rows[0]}


def despatch_decade(
    params: ScenarioParams,
    base: BaseYearData,
    solar_by_year: Mapping[int, np.ndarray],
    wind_by_year: Mapping[int, np.ndarray],
) -> Decade:
    """The despatch stage: capacity path and ``dispatch_year`` for 2021-2030."""
    path = build_capacity_path(params, base)
    years = {
        y: dispatch_year(params, base, path, y, solar_by_year[y], wind_by_year[y])
        for y in YEARS
    }
    totals = decade_totals((dy, extras["busbar"]) for dy, extras in years.values())
    arrays = [v for v in vars(path).values() if isinstance(v, np.ndarray)]
    arrays += totals.values()
    for dy, extras in years.values():
        arrays += [v for v in vars(dy).values() if isinstance(v, np.ndarray)]
        arrays += [*dy.supply.values(), *dy.capacity.values(), *vars(extras["buffer"]).values()]
        arrays += [extras["busbar"], extras["curtailed_re"]]
    for array in arrays:
        array.setflags(write=False)
    return Decade(path=path, years=years, solar_by_year=solar_by_year, totals=totals)


def _battery_plan(
    params: ScenarioParams, decade: Decade
) -> tuple[new.NewSupplyPlan, dict[int, new.SocTrace]]:
    """Size and simulate the battery option year by year.

    Battery and dedicated solar only ever grow; each year re-simulates
    at the cumulative size under the daily-full-recharge assumption.
    """
    plan = new.NewSupplyPlan(option="battery_re")
    boundary = params.cycle_boundary_slot
    traces: dict[int, new.SocTrace] = {}
    peak_secondary = np.zeros(N_YEARS)
    run_energy = run_inverter = run_solar_gw = 0.0

    for i, year in enumerate(YEARS):
        dy, extras = decade.years[year]
        unmet = dy.unmet
        shortfall = extras["buffer"].shortfall
        sized = new.size_battery(unmet, params, buffer_shortfall=shortfall)
        run_energy = max(run_energy, sized.energy_capacity_mwh)
        run_inverter = max(run_inverter, sized.inverter_capacity_mw)
        battery = replace(sized, energy_capacity_mwh=run_energy, inverter_capacity_mw=run_inverter)
        plan.energy_mwh[i] = run_energy
        plan.capacity_mw[i] = run_inverter

        shape = decade.solar_by_year[year]
        curtailed = extras["curtailed_re"]
        if battery.energy_capacity_mwh > 0:
            try:
                gw = new.size_dedicated_solar(
                    battery, curtailed, unmet, shape,
                    extra=params.dedicated_solar_extra, boundary_slot=boundary,
                )
            except InfeasibleError:
                # an undersized battery can never zero out secondary
                # unmet; build the solar its full-size design needed and
                # let the rest of the profile fall through to biodiesel
                gw = new.size_dedicated_solar(
                    battery.scaled(1.0), curtailed, unmet, shape,
                    extra=params.dedicated_solar_extra, boundary_slot=boundary,
                )
        else:
            gw = 0.0
        run_solar_gw = max(run_solar_gw, gw)
        plan.dedicated_solar_gw[i] = run_solar_gw
        solar_gen = shape * run_solar_gw * 1e3

        trace = new.simulate_soc(battery, unmet, curtailed, solar_gen, boundary_slot=boundary)
        traces[year] = trace
        plan.secondary_unmet_twh[i] = _snap(trace.secondary_unmet_twh())
        peak_secondary[i] = _snap(float(np.max(trace.secondary_unmet_mw)) if unmet.size else 0.0)

        disp = new.displace_with_battery(trace, dy)
        per_day_coal = disp.per_day_mwh["coal_2019"] + disp.per_day_mwh["coal_slack"]
        bonus = new.coal_peak_bonus(dy, per_day_coal, params.flex_limit)
        plan.displaced_gas_twh[i] = disp.displaced_twh["gas_slack"]
        plan.displaced_coal_2019_twh[i] = disp.displaced_twh["coal_2019"]
        plan.displaced_coal_slack_twh[i] = disp.displaced_twh["coal_slack"]
        plan.bonus_curtailment_avoided_twh[i] = float(np.sum(bonus)) / 1e6

    diesel_aux = params.tech_costs["diesel_gen"].aux
    plan.biodiesel_capacity_mw = np.maximum.accumulate(peak_secondary / (1.0 - diesel_aux))
    return plan, traces


def _thermal_plan(params: ScenarioParams, decade: Decade) -> new.NewSupplyPlan:
    """Size a thermal NEW option; coal may be undersized deliberately."""
    option = params.new_option
    tech = params.tech_costs[option]
    unmets = [decade.years[y][0].unmet for y in YEARS]
    shortfalls = [decade.years[y][1]["buffer"].shortfall for y in YEARS]
    installed_mw = new.size_new_capacity(unmets, shortfalls, option, tech.aux)

    size_fraction = params.new_coal_size_fraction if option == "coal" else 1.0
    plan = new.NewSupplyPlan(option=option, capacity_mw=installed_mw * size_fraction)
    net_caps = plan.capacity_mw * (1.0 - tech.aux)
    peak_secondary = np.zeros(N_YEARS)
    for i, (unmet, net_cap) in enumerate(zip(unmets, net_caps)):
        secondary = np.maximum(unmet - net_cap, 0.0)
        plan.secondary_unmet_twh[i] = _snap(float(np.sum(secondary)) * SLOT_HOURS / 1e6)
        peak_secondary[i] = _snap(float(np.max(secondary)) if secondary.size else 0.0)
        if option == "coal":
            dy = decade.years[YEARS[i]][0]
            served = np.minimum(unmet, net_cap)
            rep = replace(dy, supply={**dy.supply, "new": served}, unmet=unmet - served)
            plan.displaced_gas_twh[i] = new.displace_gas_with_new_coal(net_cap, rep)

    diesel_aux = params.tech_costs["diesel_gen"].aux
    plan.biodiesel_capacity_mw = np.maximum.accumulate(peak_secondary / (1.0 - diesel_aux))
    return plan


def _reporting_dispatch(
    params: ScenarioParams,
    dy: dsp.DispatchYear,
    plan: new.NewSupplyPlan,
    trace: new.SocTrace | None,
    i: int,
) -> dsp.DispatchYear:
    """Fold NEW supply and displacement into a new despatch year, for exports.

    ``i`` is the year's horizon position in ``plan``.  ``dy`` is left as
    it is: every changed series is a new array.  Every
    reduction is matched by an increase elsewhere, so slot sums against
    demand stay exact.  Displaced coal comes off each day's peak, one
    water-fill per row of the (days, 48) coal matrix; the bonus lowers
    floor-bound slots and hands the energy back to RE (curtailment
    shrinks by the same amount).
    """
    rep = replace(dy, supply=dict(dy.supply))
    if plan.option == "battery_re" and trace is not None:
        # the trace's secondary unmet is already snapped, so a fully
        # served slot leaves exactly zero rather than eta round-trip dust
        rep.unmet = trace.secondary_unmet_mw
        served = trace.unmet_mw - rep.unmet
    else:
        tech = params.tech_costs[plan.option]
        net_cap = plan.capacity_mw[i] * (1.0 - tech.aux)
        served = np.minimum(rep.unmet, net_cap)
        rep.unmet = np.maximum(rep.unmet - served, 0.0)
    rep.supply["new"] = rep.supply["new"] + served

    coal_disp_twh = plan.displaced_coal_2019_twh[i] + plan.displaced_coal_slack_twh[i]
    gas_disp_twh = plan.displaced_gas_twh[i]
    bonus_twh = plan.bonus_curtailment_avoided_twh[i]

    if gas_disp_twh > 0:
        gas = rep.supply["gas_slack"]
        total = float(np.sum(gas)) * SLOT_HOURS
        if total > 0:
            cut = min(gas_disp_twh * 1e6 / total, 1.0)
            rep.supply["new"] = rep.supply["new"] + gas * cut
            rep.supply["gas_slack"] = gas * (1.0 - cut)

    if coal_disp_twh > 0 or bonus_twh > 0:
        coal = rep.supply["coal_2019"] + rep.supply["coal_slack"]
        coal_days = coal.reshape(rep.n_days, SLOTS_PER_DAY)
        # spread recorded volumes over days proportional to coal energy
        day_energy = coal_days.sum(axis=1) * SLOT_HOURS
        total = float(day_energy.sum())
        if total > 0:
            per_day = (coal_disp_twh * 1e6) * day_energy / total
            level = new._lowered_daily_max(coal_days, per_day)
            cut = np.maximum(coal - np.repeat(level, SLOTS_PER_DAY), 0.0)
            slack = rep.supply["coal_slack"]
            take_slack = np.minimum(cut, slack)
            rep.supply["coal_slack"] = slack - take_slack
            rep.supply["coal_2019"] = rep.supply["coal_2019"] - (cut - take_slack)
            rep.supply["new"] = rep.supply["new"] + cut
        if bonus_twh > 0 and rep.flex_re_cut is not None:
            cut_profile = rep.flex_re_cut + rep.flex_hydro_cut
            weight = float(np.sum(cut_profile)) * SLOT_HOURS
            if weight > 0:
                scale = min(bonus_twh * 1e6 / weight, 1.0)
                give_back = cut_profile * scale
                slack = rep.supply["coal_slack"]
                take_slack = np.minimum(give_back, slack)
                rep.supply["coal_slack"] = slack - take_slack
                rep.supply["coal_2019"] = rep.supply["coal_2019"] - (give_back - take_slack)
                re_part = np.minimum(give_back, rep.flex_re_cut)
                rep.supply["re"] = rep.supply["re"] + re_part
                rep.supply["hydro"] = rep.supply["hydro"] + (give_back - re_part)
                rep.curtailment = np.maximum(rep.curtailment - give_back, 0.0)
    return rep


def evaluate_scenario(
    params: ScenarioParams,
    decade: Decade,
    detail_years: tuple[int, ...] = (),
) -> ScenarioOutcome:
    """The option stage: price one scenario on its despatch key's decade."""
    traces: dict[int, new.SocTrace | None] = dict.fromkeys(YEARS)
    if params.new_option == "battery_re":
        plan, traces = _battery_plan(params, decade)
    else:
        plan = _thermal_plan(params, decade)
    plan.validate()

    totals = decade.totals
    result = eco.ScenarioResult(
        report=eco.npv_system_cost(totals, plan, params, decade.path),
        new_capacity_mw=float(plan.capacity_mw.max()),
        curtailment_twh=sum(totals["curtailment_twh"].tolist()),
    )

    columns = {
        "demand_twh": totals["demand_twh"],
        "re_twh": totals["re"],
        "hydro_twh": totals["hydro"],
        "nuclear_twh": totals["nuclear"],
        "coal_twh": totals["coal_2019"] + totals["coal_slack"],
        "gas_twh": totals["gas_2019"] + totals["gas_slack"],
        "curtailment_twh": totals["curtailment_twh"],
        "unmet_twh": totals["unmet_twh"],
        "peak_unmet_gw": totals["peak_unmet_mw"] / 1e3,
        "new_capacity_gross_mw": plan.capacity_mw,
        "dedicated_solar_gw": plan.dedicated_solar_gw,
        "secondary_unmet_twh": plan.secondary_unmet_twh,
        "displaced_gas_twh": plan.displaced_gas_twh,
        "displaced_coal_twh": plan.displaced_coal_2019_twh + plan.displaced_coal_slack_twh,
        "bonus_curtailment_twh": plan.bonus_curtailment_avoided_twh,
    }
    year_rows = []
    details: dict[int, YearDetail] = {}
    for i, year in enumerate(YEARS):
        dy, extras = decade.years[year]
        row = {name: float(column[i]) for name, column in columns.items()}
        row["year"] = year
        row["capacity_requirement_gw"] = extras["capacity_requirement_mw"] / 1e3
        row["flex_relaxed_slots"] = dy.relaxed_slots
        year_rows.append(row)
        if year in detail_years:
            trace = traces[year]
            rep = _reporting_dispatch(params, dy, plan, trace, i)
            rep.check_balance(tolerance=1.0)
            details[year] = YearDetail(dispatch=dy, reporting=rep, trace=trace)

    return ScenarioOutcome(params=params, result=result, year_rows=year_rows, details=details)
