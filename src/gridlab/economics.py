"""Price paths, annuities, NPV of non-sunk system cost, and the frontier.

Costing follows the incremental-cost convention: capital of the fleet
existing in the base year is sunk and excluded, RE expansion carries
annuitized build cost plus O&M, existing fossil tranches carry fuel
only, and NEW supply carries everything.  Every build, whether RE
expansion, NEW supply or the biodiesel backstop, is costed by one
cohort rule: each year's additions pay an annuity over the asset's life
and O&M from their build year on.  Fossil displaced by NEW supply is
credited to the NEW cost line, never to the displaced fuel's own line,
so the existing-fleet components stay comparable across scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from gridlab.errors import InvariantError, ParameterError, UndefinedCostError
from gridlab.newsupply import NewSupplyPlan
from gridlab.scenario import N_YEARS, CapacityPath, ScenarioParams

COMPONENTS = (
    "re_capex", "re_om", "coal_fuel", "gas_fuel_2019", "gas_fuel_nonapm",
    "new_capex", "new_fuel", "new_om", "biodiesel",
)

KWH_PER_TWH = 1e9
KWH_PER_MWH = 1e3


def annuity_payment(principal: float, rate: float, n_years: int) -> float:
    """Level yearly payment amortizing a principal, mortgage-style."""
    growth = (1.0 + rate) ** n_years
    if growth == 1.0:  # a zero rate, or one too small to move the growth
        return principal / n_years
    return principal * rate * growth / (growth - 1.0)


@dataclass(frozen=True)
class PricePath:
    """Every per-year price the cost model consumes, 2021 through 2030."""

    fuel_rs_per_kwh: Mapping[str, np.ndarray]  # coal_2019, coal_slack, gas_2019, gas_slack
    tech_capex_rs_per_mw: Mapping[str, np.ndarray]
    tech_fuel_rs_per_kwh: Mapping[str, np.ndarray]
    battery_cell_rs_per_kwh: np.ndarray
    solar_capex_rs_per_mw: np.ndarray
    wind_capex_rs_per_mw: np.ndarray
    om_inflation: np.ndarray  # multiplier on 2021 price levels


def build_price_path(p: ScenarioParams) -> PricePath:
    t = np.arange(N_YEARS, dtype=float)
    fuel = {
        "coal_2019": p.coal_2019_price * (1.0 + p.coal_escalation) ** t,
        "coal_slack": p.coal_slack_price * (1.0 + p.coal_escalation) ** t,
        "gas_2019": p.gas_2019_price * (1.0 + p.gas_escalation) ** t,
        "gas_slack": p.gas_nonapm_price * (1.0 + p.gas_escalation) ** t,
    }
    tech_capex = {}
    tech_fuel = {}
    for name, tech in p.tech_costs.items():
        tech_capex[name] = tech.capex_2021 * (1.0 + tech.capex_escalation) ** t
        tech_fuel[name] = tech.fuel_2021 * (1.0 + tech.fuel_escalation) ** t
    cell_usd = p.battery_price_2021_usd * (1.0 - p.battery_learning_rate) ** t
    cell_rs = cell_usd * p.inr_per_usd_2021 * (1.0 + p.forex_escalation) ** t
    solar = p.solar_capex_2021 * (1.0 + p.solar_capex_change) ** t
    wind = p.wind_capex_2021 + (p.wind_capex_2030 - p.wind_capex_2021) * t / (N_YEARS - 1)
    path = PricePath(
        fuel_rs_per_kwh=fuel,
        tech_capex_rs_per_mw=tech_capex,
        tech_fuel_rs_per_kwh=tech_fuel,
        battery_cell_rs_per_kwh=cell_rs,
        solar_capex_rs_per_mw=solar,
        wind_capex_rs_per_mw=wind,
        om_inflation=(1.0 + p.om_inflation) ** t,
    )
    for name, arr in fuel.items():
        if np.any(arr <= 0):
            raise ParameterError(f"fuel price path for {name} not positive")
    if np.any(cell_rs <= 0) or np.any(solar <= 0):
        raise ParameterError("capex price paths must stay positive")
    if np.any(wind <= 0):
        raise ParameterError(
            f"wind capex path from wind_capex_2021 {p.wind_capex_2021!r} to "
            f"wind_capex_2030 {p.wind_capex_2030!r} must stay positive"
        )
    return path


@dataclass
class CostReport:
    """NPV of non-sunk system cost and its component breakdown."""

    npv_total: float
    npv_by_component: dict[str, float]
    levelized_existing: float | None
    levelized_new: float | None


def discount_factors(discount: float, n: int = N_YEARS) -> np.ndarray:
    return (1.0 + discount) ** np.arange(n, dtype=float)


def levelized_cost(costs, energy, discount: float) -> float:
    """Discounted cost over discounted energy, positionally from 2021."""
    costs = np.asarray(costs, dtype=float)
    energy = np.asarray(energy, dtype=float)
    if costs.shape != energy.shape:
        raise InvariantError("cost and energy streams must have equal lengths")
    f = discount_factors(discount, costs.shape[0])
    denominator = float(np.sum(energy / f))
    if denominator <= 0:
        raise UndefinedCostError("discounted energy is zero; levelized cost undefined")
    return float(np.sum(costs / f)) / denominator


def _additions(capacity: np.ndarray) -> np.ndarray:
    """What each year adds to a cumulative capacity path."""
    return np.maximum(np.diff(capacity, prepend=0.0), 0.0)


def _cohorts(p: ScenarioParams, inflation: np.ndarray, capex, om=()):
    """Annuity and O&M flows of one cost line's yearly build cohorts.

    ``capex`` holds ``(cost of each year's additions, life)`` streams:
    the cohort built in year ``i`` pays ``annuity_payment(cost[i],
    p.wacc, life)`` from year ``i`` for its life.  The horizon rule cuts
    the payments at 2030; with ``count_full_life_annuities`` the later
    ones are discounted into the returned tail instead.  ``om`` holds
    ``(first-year O&M, price index)`` streams: cohort ``i`` pays
    ``om[i] * inflation[i:] / index[i]``, so an index of ``inflation``
    prices the O&M at build-year levels and an index of ones at 2021
    levels.  Returns the in-horizon annuity flows, the tail NPV and the
    O&M flows.  Cohorts add in build-year order, and within a year in
    stream order.
    """
    annuities, tail, om_flows = np.zeros(N_YEARS), 0.0, np.zeros(N_YEARS)
    for i in range(N_YEARS):
        for cost, life in capex:
            if cost[i] <= 0:
                continue
            payment = annuity_payment(cost[i], p.wacc, life)
            last = i + life - 1
            annuities[i:min(last, N_YEARS - 1) + 1] += payment
            if p.count_full_life_annuities and last >= N_YEARS:
                ks = np.arange(N_YEARS, last + 1, dtype=float)
                tail += float(np.sum(payment / (1.0 + p.discount_rate) ** ks))
        for amount, index in om:
            om_flows[i:] += amount[i] * inflation[i:] / index[i]
    return annuities, tail, om_flows


def cash_flows(
    totals: Mapping[str, np.ndarray],
    plan: NewSupplyPlan,
    params: ScenarioParams,
    capacity_path: CapacityPath,
) -> tuple[dict[str, np.ndarray], dict[str, float], np.ndarray, np.ndarray]:
    """The decade's undiscounted cash flows, one entry per horizon year.

    Takes the arguments of ``npv_system_cost`` and returns ``(flows,
    tails, existing_kwh, new_kwh)``: the flows of each component, each
    component's post-2030 annuity NPV (zero unless full-life annuities
    are counted), and the energy delivered by the existing fleet and by
    NEW supply, the denominators of the two levelized costs.
    """
    short = sorted(k for k, v in totals.items() if np.shape(v) != (N_YEARS,))
    if short:
        raise InvariantError(f"despatch totals {short} do not cover the {N_YEARS} years")

    p = params
    paths = build_price_path(p)
    inflation = paths.om_inflation
    flows = {}
    tails = dict.fromkeys(COMPONENTS, 0.0)

    # --- RE expansion: annuitized capex plus inflating O&M ---
    solar_mw = capacity_path.solar_new * 1e3
    wind_mw = capacity_path.wind_new * 1e3
    flows["re_capex"], tails["re_capex"], _ = _cohorts(p, inflation, [
        (_additions(solar_mw) * paths.solar_capex_rs_per_mw, p.solar_life_years),
        (_additions(wind_mw) * paths.wind_capex_rs_per_mw, p.wind_life_years),
    ])
    flows["re_om"] = (
        solar_mw * p.solar_om_rs_per_mw + wind_mw * p.wind_om_rs_per_mw
    ) * inflation

    # --- existing-fleet fuel ---
    fuel = paths.fuel_rs_per_kwh
    unmet_kwh = totals["unmet_twh"] * KWH_PER_TWH
    existing = ("re", "hydro", "nuclear", "coal_2019", "coal_slack", "gas_2019", "gas_slack")
    existing_delivered_kwh = sum(totals[k] for k in existing) * KWH_PER_TWH

    gross_coal = 1.0 / (1.0 - p.aux_coal)
    gross_gas = 1.0 / (1.0 - p.aux_gas)
    flows["coal_fuel"] = (
        totals["coal_2019"] * KWH_PER_TWH * fuel["coal_2019"]
        + totals["coal_slack"] * KWH_PER_TWH * fuel["coal_slack"]
    ) * gross_coal
    flows["gas_fuel_2019"] = totals["gas_2019"] * KWH_PER_TWH * fuel["gas_2019"] * gross_gas
    flows["gas_fuel_nonapm"] = totals["gas_slack"] * KWH_PER_TWH * fuel["gas_slack"] * gross_gas

    # --- NEW supply: capex, O&M, fuel less displacement credits ---
    secondary_kwh = plan.secondary_unmet_twh * KWH_PER_TWH
    served_by_new_kwh = np.maximum(unmet_kwh - secondary_kwh, 0.0)
    displaced_gas_kwh = plan.displaced_gas_twh * KWH_PER_TWH

    if plan.option == "battery_re":
        cell_cost = _additions(plan.energy_mwh) * KWH_PER_MWH * paths.battery_cell_rs_per_kwh
        inv_cost = _additions(plan.capacity_mw) * KWH_PER_MWH * p.inverter_capex_rs_per_kw
        sol_inc = _additions(plan.dedicated_solar_gw * 1e3)
        capex = [
            (cell_cost, p.battery_life_years),
            (inv_cost, p.inverter_life_years),
            (sol_inc * paths.solar_capex_rs_per_mw, p.solar_life_years),
        ]
        om = [  # dedicated-solar O&M is priced at 2021 levels
            (p.battery_om_fraction * (cell_cost + inv_cost), inflation),
            (sol_inc * p.solar_om_rs_per_mw, np.ones(N_YEARS)),
        ]
        burn = np.zeros(N_YEARS)  # charging is free curtailed RE / owned solar
    else:
        tech = p.tech_costs[plan.option]
        cost = _additions(plan.capacity_mw) * paths.tech_capex_rs_per_mw[plan.option]
        capex, om = [(cost, tech.life_years)], [(tech.om_fraction * cost, inflation)]
        gross_tech = 1.0 / (1.0 - tech.aux)
        gen_kwh = served_by_new_kwh + displaced_gas_kwh
        burn = gen_kwh * paths.tech_fuel_rs_per_kwh[plan.option] * gross_tech
    flows["new_capex"], tails["new_capex"], flows["new_om"] = _cohorts(p, inflation, capex, om)

    displaced_kwh = (
        displaced_gas_kwh
        + (plan.displaced_coal_2019_twh + plan.displaced_coal_slack_twh) * KWH_PER_TWH
    )
    coal_credit = (
        plan.displaced_coal_2019_twh * fuel["coal_2019"]
        + plan.displaced_coal_slack_twh * fuel["coal_slack"]
    ) * KWH_PER_TWH * gross_coal
    credits = (
        displaced_gas_kwh * fuel["gas_slack"] * gross_gas
        + coal_credit
        + plan.bonus_curtailment_avoided_twh * KWH_PER_TWH * fuel["coal_slack"] * gross_coal
    )
    flows["new_fuel"] = burn - credits

    # --- biodiesel backstop for deliberate undersizing ---
    diesel = p.tech_costs["diesel_gen"]
    bio_cost = _additions(plan.biodiesel_capacity_mw) * paths.tech_capex_rs_per_mw["diesel_gen"]
    bio_capex, tails["biodiesel"], bio_om = _cohorts(
        p, inflation, [(bio_cost, diesel.life_years)], [(diesel.om_fraction * bio_cost, inflation)])
    bio_fuel = (
        secondary_kwh / (1.0 - diesel.aux) * paths.tech_fuel_rs_per_kwh["diesel_gen"]
    )
    flows["biodiesel"] = bio_capex + bio_om + bio_fuel

    new_energy_kwh = served_by_new_kwh + displaced_kwh + secondary_kwh
    return flows, tails, existing_delivered_kwh, new_energy_kwh


def npv_system_cost(
    totals: Mapping[str, np.ndarray],
    plan: NewSupplyPlan,
    params: ScenarioParams,
    capacity_path: CapacityPath,
) -> CostReport:
    """Assemble the decade's cash flows and discount them to 2021.

    ``totals`` are the post-flex despatch totals, one array entry per
    horizon year (displacement untouched; see ``pipeline.year_totals``).
    ``plan`` carries the NEW build and the displacement volumes in the
    same layout.  Prices come from ``build_price_path(params)`` and cash
    flows are discounted at ``params.discount_rate``.  Every build (RE
    expansion, NEW supply, the biodiesel backstop) is costed by one
    cohort rule: each year's additions pay an annuity over the asset's
    life plus O&M from their build year on (see ``_cohorts``).
    """
    flows, tails, existing_kwh, new_kwh = cash_flows(totals, plan, params, capacity_path)
    discount = params.discount_rate
    factors = discount_factors(discount)
    npv_by_component = {
        name: float(np.sum(flows[name] / factors)) + tails[name] for name in COMPONENTS
    }
    npv_total = float(sum(npv_by_component.values()))

    existing_cost = (
        flows["re_capex"] + flows["re_om"] + flows["coal_fuel"]
        + flows["gas_fuel_2019"] + flows["gas_fuel_nonapm"]
    )
    new_cost = flows["new_capex"] + flows["new_om"] + flows["new_fuel"] + flows["biodiesel"]

    def _levelized(costs, energy):
        try:
            return levelized_cost(costs, energy, discount)
        except UndefinedCostError:
            return None

    return CostReport(
        npv_total=npv_total,
        npv_by_component=npv_by_component,
        levelized_existing=_levelized(existing_cost, existing_kwh),
        levelized_new=_levelized(new_cost, new_kwh),
    )


@dataclass(frozen=True)
class ScenarioResult:
    """One evaluated grid point, ready for frontier ranking."""

    report: CostReport
    new_capacity_mw: float
    curtailment_twh: float


def frontier(results: Sequence[ScenarioResult]) -> list[int]:
    """Positions into ``results``, ranked cheapest first.

    Ties on NPV break toward less NEW capacity, then less curtailment,
    then input order, which keeps the ranking deterministic.
    """
    return sorted(range(len(results)), key=lambda i: (
        results[i].report.npv_total,
        results[i].new_capacity_mw,
        results[i].curtailment_twh,
        i,
    ))
