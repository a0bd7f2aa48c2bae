"""End-to-end evaluation of a despatch group, one year at a time.

A despatch group is the scenarios that share a despatch key: their
values of ``DESPATCH_FIELDS``.  ``despatch_group`` builds the group's
capacity path and then, for each year 2021-2030 in turn,

1. puts the base year and the per-MW shapes on the year's slot grid
   (``year_series``, the one caller of ``map_values_to_year``) and
   scales demand and capacities (scenario),
2. builds the pre-flex year (``preflex``: net demand after must-run
   and the merit order) and runs the coal flex on it (dispatch),
3. audits the buffer and takes the capacity requirement (dispatch),

which ends the year as a frozen ``YearRecord``; the busbar and buffer
series die with ``dispatch_year``.  Every member's ``OptionStage`` then
advances one year on that record, read through the year's ``GroupYear``:

4. NEW supply sizing, SoC simulation, displacement loops (newsupply).
   The battery members share what depends only on the year, their
   cycle boundary and their exact battery: the cycle pad and the
   tranche outputs per cycle, and, for each distinct battery, its 0 GW
   trace and its minimum-service and full-recharge solar searches, so
   an undersized member's retry at full size reads its full-size
   sibling's search.  Each member works out its own running-maximum
   battery, its trace at its own solar GW, its displacement and its
   coal-peak bonus.

The group keeps the year's totals row and drops the record, the
``GroupYear`` and the year's series before the next year is despatched,
so no more than one year's slot arrays are held at a time.  The option
stage is causal in years: sizes carry over as running maxima, so
stepping the years in order gives the plan a whole decade would.
``evaluate_scenario`` then prices each finished plan on the group's
``DespatchSummary``:

5. cash flows and NPV (economics), and the year rows.

Heavy slot-level arrays stay inside the worker; what comes back per
scenario is a flat summary suitable for CSV rows, so a grid sweep can
fan out across processes and still merge deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from gridlab import dispatch as dsp
from gridlab import economics as eco
from gridlab import newsupply as new
from gridlab.errors import GridlabError, InfeasibleError
from gridlab.scenario import (
    YEARS,
    CapacityPath,
    ScenarioParams,
    build_capacity_path,
    project_demand,
)
from gridlab.shapes import SLOT_HOURS, SLOTS_PER_DAY, BaseYearData, PerMwShape, map_values_to_year


@dataclass(frozen=True)
class YearRecord:
    """One despatched year, as the option stage reads it."""

    dispatch: dsp.DispatchYear  # post-flex, pre-displacement
    curtailed_re: np.ndarray  # MW per slot a battery may charge from
    capacity_requirement_mw: float  # ``dispatch.compute_unmet``
    demand_twh: float  # busbar demand


@dataclass(frozen=True)
class DespatchSummary:
    """What a despatch group keeps once its years are dropped.

    ``totals`` holds one read-only array per ``year_totals`` key,
    indexed by horizon position; ``path`` is the group's capacity path,
    read-only too.
    """

    path: CapacityPath
    totals: dict[str, np.ndarray]


#: The fuel groups of ``ScenarioOutcome.annual_mix``.
MIX_KEYS = ("re", "hydro", "nuclear", "coal", "gas", "new")


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
    annual_mix: dict[int, dict[str, float]] = field(default_factory=dict)


def year_series(
    base: BaseYearData, solar: PerMwShape, wind: PerMwShape, year: int
) -> dict[str, np.ndarray]:
    """The base year on ``year``'s slot grid: ``demand`` and each fuel's
    supply in MW, and the ``solar`` and ``wind`` per-MW shapes."""
    series = {"demand": base.demand, **base.supply_by_fuel,
              "solar": solar.values, "wind": wind.values}
    return {key: map_values_to_year(values, base.year, year) for key, values in series.items()}


def _tranche_caps(
    series: Mapping[str, np.ndarray], path: CapacityPath, p: ScenarioParams, year: int
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

    base_coal, base_gas = series["coal"], series["gas"]
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
    series: Mapping[str, np.ndarray], path: CapacityPath, p: ScenarioParams, year: int
) -> dict[str, np.ndarray]:
    """Must-run supply series for one year, scaled pro rata."""
    i = path.index(year)
    return {
        "re": (
            series["re"]
            + path.solar_new[i] * 1e3 * series["solar"]
            + path.wind_new[i] * 1e3 * series["wind"]
        ),
        "hydro": series["hydro"] * (path.hydro[i] / p.hydro_2021),
        "nuclear": series["nuclear"] * (path.nuclear[i] / p.nuclear_2021),
    }


def preflex(
    busbar: np.ndarray, supplies: Mapping[str, np.ndarray], caps: Mapping[str, np.ndarray]
) -> dsp.DispatchYear:
    """The pre-flex despatch year of ``busbar``: net demand, the must-run
    split of ``supplies`` and the merit order through the ``TRANCHES``
    capacities in ``caps``, each series worked out once."""
    sources = supplies["re"], supplies["hydro"], supplies["nuclear"]
    net, surplus = dsp.net_demand(busbar, *sources)
    must_run = dsp.split_must_run(surplus, *sources)
    served, unmet = dsp.merit_dispatch(net, caps)
    return dsp.attach_must_run(net, surplus, must_run, served, unmet, caps)


def dispatch_year(
    params: ScenarioParams, path: CapacityPath, year: int, series: Mapping[str, np.ndarray]
) -> YearRecord:
    """Steps 2-3 for one year, on its ``year_series``: net demand,
    merit order, flex, buffer."""
    i = path.index(year)
    demand = project_demand(params, series["demand"], year)
    busbar = demand * (1.0 + params.ists_loss)
    supplies = _year_supplies(series, path, params, year)
    caps = _tranche_caps(series, path, params, year)
    dy = preflex(busbar, supplies, caps)
    preflex_re_cut = supplies["re"] - dy.supply["re"]
    dy = dsp.apply_coal_flex(dy, params.flex_limit)
    dy.check_balance()

    despatchable = (
        caps["coal_avail"] + caps["gas_avail"]
        + path.hydro[i] * 1e3 + path.nuclear[i] * 1e3
    )
    shortfall = dsp.buffer_check(dy, busbar, despatchable, params.grid_buffer)
    return YearRecord(
        dispatch=dy,
        curtailed_re=preflex_re_cut + dy.flex_re_cut,
        capacity_requirement_mw=dsp.compute_unmet(dy, shortfall),
        demand_twh=float(np.sum(busbar)) * SLOT_HOURS / 1e6,
    )


def year_totals(record: YearRecord) -> dict[str, float]:
    """One year record's totals row: TWh under each supply key,
    ``unmet_twh``, ``curtailment_twh``, ``peak_unmet_mw``,
    ``capacity_requirement_mw``, ``demand_twh`` and the flex pass's
    ``flex_relaxed_slots``."""
    dy = record.dispatch
    row = {key: dy.energy_twh(key) for key in dy.supply}
    row["unmet_twh"] = dy.unmet_twh()
    row["curtailment_twh"] = dy.curtailment_twh()
    row["peak_unmet_mw"] = dy.peak_unmet_mw()
    row["capacity_requirement_mw"] = record.capacity_requirement_mw
    row["demand_twh"] = record.demand_twh
    row["flex_relaxed_slots"] = dy.relaxed_slots
    return row


def _freeze(arrays: Iterable[np.ndarray]) -> None:
    for array in arrays:
        array.setflags(write=False)


class GroupYear:
    """One despatched year as the option stages of its group read it.

    ``record`` and ``solar``, the year's per-MW solar shape, are what a
    stage reads.  The rest is battery work the battery members share,
    each piece worked out on first use, made read-only, and dropped with
    the year: per cycle boundary slot, the ``CycleYear`` pad and the
    displaceable tranches' output per cycle; per boundary slot and
    distinct ``BatterySpec``, the 0 GW trace and the minimum-service and
    full-recharge solar searches.  Each piece is a pure function of the
    record, the boundary slot and the exact battery, so a member reads
    what it would have worked out alone.  A search that raised
    ``InfeasibleError`` keeps that exception, without its traceback,
    whose frames would hold the year's arrays.
    """

    def __init__(self, record: YearRecord, solar: np.ndarray):
        self.record = record
        self.solar = solar
        self._work: dict[tuple, object] = {}

    def _once(self, key: tuple, make):
        if key not in self._work:
            made = make()
            fields = made.values() if isinstance(made, dict) else vars(made).values()
            _freeze(v for v in fields if isinstance(v, np.ndarray))
            self._work[key] = made
        return self._work[key]

    def cycles(self, slot: int) -> new.CycleYear:
        return self._once(("pad", slot), lambda: new.CycleYear.pad(
            self.record.dispatch.unmet, self.record.curtailed_re, self.solar, slot))

    def tranche_mwh(self, slot: int) -> dict[str, np.ndarray]:
        return self._once(("tranches", slot), lambda: new.tranche_cycle_mwh(
            self.record.dispatch, self.cycles(slot)))

    def zero_trace(self, slot: int, battery: new.BatterySpec) -> new.SocTrace:
        return self._once(("zero", slot, battery), lambda: new.simulate_soc(
            battery, self.cycles(slot), 0.0))

    def dedicated_solar(self, slot: int, battery: new.BatterySpec,
                        extra: float) -> float | InfeasibleError:
        """The dedicated solar GW a member with ``battery`` builds at
        ``extra`` (``newsupply.dedicated_solar_gw`` of the two
        searches), or the ``InfeasibleError`` a search raised.

        An undersized battery can never zero out secondary unmet: when
        a search fails for it, it builds the solar its full-size design
        needed, and the rest of its profile falls through to biodiesel.
        """
        gw = self._blend(slot, battery, extra)
        if isinstance(gw, InfeasibleError):
            gw = self._blend(slot, battery.scaled(1.0), extra)
        return gw

    def _blend(self, slot: int, battery: new.BatterySpec,
               extra: float) -> float | InfeasibleError:
        minimum = self._search(("minimum", slot, battery), lambda: new.size_dedicated_solar(
            battery, self.cycles(slot), zero_gw=self.zero_trace(slot, battery)))
        if extra == 0.0 or isinstance(minimum, InfeasibleError):
            return minimum
        maximum = self._search(("recharge", slot, battery), lambda: new.size_for_full_recharge(
            battery, self.cycles(slot)))
        if isinstance(maximum, InfeasibleError):
            return maximum
        return new.dedicated_solar_gw(minimum, maximum, extra)

    def _search(self, key: tuple, search) -> float | InfeasibleError:
        if key not in self._work:
            try:
                self._work[key] = search()
            except InfeasibleError as exc:
                self._work[key] = exc.with_traceback(None)
        return self._work[key]


class OptionStage:
    """One scenario's option stage, advanced one despatched year at a time.

    ``step`` sizes and simulates the NEW option on one year's record
    and fills that year's entries of ``plan``.  With ``detail_years``,
    every year gets its row of ``annual_mix``, and each of
    ``detail_years`` keeps a ``YearDetail``, with the reporting despatch
    and the SoC trace; the other years' reporting despatch is dropped
    once their row is taken.  A ``GridlabError`` in a step is kept in
    ``error``, without its traceback, and the stage takes no further
    step.
    """

    def __init__(self, params: ScenarioParams, detail_years: tuple[int, ...] = ()):
        self.params = params
        self.plan = new.NewSupplyPlan(option=params.new_option)
        self.detail_years = detail_years
        self.details: dict[int, YearDetail] = {}
        self.annual_mix: dict[int, dict[str, float]] = {}
        self.error: GridlabError | None = None
        self._diesel_gross = 1.0 - params.tech_costs["diesel_gen"].aux
        self._biodiesel_mw = 0.0

    @staticmethod
    def start(params: ScenarioParams, detail_years: tuple[int, ...] = ()) -> OptionStage:
        """The stage of ``params.new_option``."""
        kind = BatteryStage if params.new_option == "battery_re" else ThermalStage
        return kind(params, detail_years)

    def step(self, i: int, group_year: GroupYear) -> None:
        """Advance the plan by horizon year ``i``, despatched as
        ``group_year``."""
        if self.error is not None:
            return
        try:
            self._step(i, group_year)
        except GridlabError as exc:
            # its frames would keep this year's arrays alive
            self.error = exc.with_traceback(None)

    def _step(self, i: int, group_year: GroupYear) -> None:
        plan, year, record = self.plan, YEARS[i], group_year.record
        served, secondary_mw, trace, days = self._size(i, group_year)
        plan.secondary_unmet_twh[i] = float(np.sum(secondary_mw)) * SLOT_HOURS / 1e6
        peak_secondary = float(np.max(secondary_mw)) if secondary_mw.size else 0.0
        self._biodiesel_mw = np.maximum(self._biodiesel_mw, peak_secondary / self._diesel_gross)
        plan.biodiesel_capacity_mw[i] = self._biodiesel_mw
        if self.detail_years:
            dy = record.dispatch
            rep = _reporting_dispatch(dy, served, secondary_mw, plan.displaced_gas_twh[i], days)
            rep.check_balance()
            self.annual_mix[year] = _year_mix(dy, rep)
            if year in self.detail_years:
                self.details[year] = YearDetail(dispatch=dy, reporting=rep, trace=trace)

    def _size(self, i: int, group_year: GroupYear) -> tuple[
            np.ndarray, np.ndarray, new.SocTrace | None,
            tuple[np.ndarray, np.ndarray] | None]:
        """Fill year ``i`` of the plan but for its secondary unmet, and
        return what NEW supply did in the year: the slots it serves and
        the secondary unmet it leaves, by ``newsupply.secondary_unmet``,
        the SoC trace, and each day's displaced coal and coal-peak bonus
        in MWh (the last two None for a thermal option)."""
        raise NotImplementedError


class BatteryStage(OptionStage):
    """The battery option: battery and dedicated solar only ever grow,
    and each year re-simulates at the cumulative size under the
    daily-full-recharge assumption.  The year's cycle pad, the 0 GW
    trace and the solar searches come from the ``GroupYear``; the trace
    at 0 GW of dedicated solar is both the minimum-service search's
    first probe and, while no solar is built, the year's trace."""

    def __init__(self, *args):
        super().__init__(*args)
        self._energy_mwh = self._inverter_mw = self._solar_gw = 0.0

    def _size(self, i, group_year):
        params, plan = self.params, self.plan
        record, slot = group_year.record, params.cycle_boundary_slot
        dy = record.dispatch
        cycles = group_year.cycles(slot)
        sized = new.size_battery(cycles, params, record.capacity_requirement_mw)
        self._energy_mwh = max(self._energy_mwh, sized.energy_capacity_mwh)
        self._inverter_mw = max(self._inverter_mw, sized.inverter_capacity_mw)
        battery = replace(sized, energy_capacity_mwh=self._energy_mwh,
                          inverter_capacity_mw=self._inverter_mw)
        plan.energy_mwh[i] = self._energy_mwh
        plan.capacity_mw[i] = self._inverter_mw

        gw = 0.0
        if battery.energy_capacity_mwh > 0:
            gw = group_year.dedicated_solar(slot, battery, params.dedicated_solar_extra)
            if isinstance(gw, InfeasibleError):
                raise gw
        self._solar_gw = max(self._solar_gw, gw)
        plan.dedicated_solar_gw[i] = self._solar_gw
        if self._solar_gw > 0:
            trace = new.simulate_soc(battery, cycles, self._solar_gw)
        else:
            trace = group_year.zero_trace(slot, battery)

        disp = new.displace_with_battery(trace, group_year.tranche_mwh(slot))
        per_day_coal = disp.per_day_mwh["coal_2019"] + disp.per_day_mwh["coal_slack"]
        bonus = new.coal_peak_bonus(dy, per_day_coal, params.flex_limit)
        plan.displaced_gas_twh[i] = disp.displaced_twh["gas_slack"]
        plan.displaced_coal_2019_twh[i] = disp.displaced_twh["coal_2019"]
        plan.displaced_coal_slack_twh[i] = disp.displaced_twh["coal_slack"]
        plan.bonus_curtailment_avoided_twh[i] = float(np.sum(bonus)) / 1e6
        secondary = trace.secondary_unmet_mw
        return dy.unmet - secondary, secondary, trace, (per_day_coal, bonus)


class ThermalStage(OptionStage):
    """A thermal NEW option; coal may be undersized deliberately."""

    def __init__(self, *args):
        super().__init__(*args)
        self._tech = self.params.tech_costs[self.params.new_option]
        self._installed_mw = 0.0

    def _size(self, i, group_year):
        params, plan, record = self.params, self.plan, group_year.record
        self._installed_mw = new.size_new_capacity(
            record.capacity_requirement_mw, self._tech.aux, self._installed_mw)
        coal = params.new_option == "coal"
        plan.capacity_mw[i] = self._installed_mw * (params.new_coal_size_fraction if coal else 1.0)
        net_cap = plan.capacity_mw[i] * (1.0 - self._tech.aux)
        dy = record.dispatch
        served = np.minimum(dy.unmet, net_cap)
        secondary = new.secondary_unmet(dy.unmet, served)
        if coal:
            rep = replace(dy, supply={**dy.supply, "new": served}, unmet=secondary)
            plan.displaced_gas_twh[i] = new.displace_gas_with_new_coal(net_cap, rep)
        return served, secondary, None, None


def despatch_group(params: ScenarioParams, base: BaseYearData, solar: PerMwShape,
                   wind: PerMwShape, stages: Sequence[OptionStage]) -> DespatchSummary:
    """The despatch stage, year-major: put the base year and the per-MW
    ``solar`` and ``wind`` shapes on each year of ``params``'s key,
    despatch the year once, step every stage on its ``GroupYear``, keep
    its totals row, drop it.

    Every array of a year's series and record is read-only, so the
    stages sharing them cannot write into each other's inputs.  A
    ``GridlabError`` of the despatch propagates; one of a stage stays in
    that stage.
    """
    path = build_capacity_path(params, base)
    _freeze(v for v in vars(path).values() if isinstance(v, np.ndarray))
    rows = []
    for i, year in enumerate(YEARS):
        series = year_series(base, solar, wind, year)
        record = dispatch_year(params, path, year, series)
        dy = record.dispatch
        _freeze([*series.values(), *(v for v in vars(dy).values() if isinstance(v, np.ndarray)),
                 *dy.supply.values(), *dy.capacity.values(), record.curtailed_re])
        rows.append(year_totals(record))
        group_year = GroupYear(record, series["solar"])
        for stage in stages:
            stage.step(i, group_year)
        del series, record, dy, group_year  # before the next year is despatched
    totals = {key: np.array([row[key] for row in rows]) for key in rows[0]}
    _freeze(totals.values())
    return DespatchSummary(path=path, totals=totals)


def _cut_coal(supply: dict[str, np.ndarray], cut: np.ndarray) -> None:
    """Take ``cut`` MW per slot off coal, coal_slack ahead of coal_2019."""
    take_slack = np.minimum(cut, supply["coal_slack"])
    supply["coal_slack"] = supply["coal_slack"] - take_slack
    supply["coal_2019"] = supply["coal_2019"] - (cut - take_slack)


def _reporting_dispatch(
    dy: dsp.DispatchYear,
    served: np.ndarray,
    secondary: np.ndarray,
    gas_twh: float,
    days: tuple[np.ndarray, np.ndarray] | None,
) -> dsp.DispatchYear:
    """Fold NEW supply and displacement into a new despatch year, for exports.

    ``served`` and ``secondary`` are the slots of ``dy.unmet`` NEW
    supply serves and leaves, ``gas_twh`` the displaced gas, and
    ``days`` (None for a thermal option) each day's displaced coal and
    coal-peak bonus in MWh, as the option stage computed them.  ``dy``
    is left as it is: every changed series is a new array.  Every
    reduction is matched by an increase elsewhere, so slot sums against
    demand stay exact.  A day's displaced coal comes off its peak, by
    the same water-fill the bonus lowered the floor with; the day's
    bonus lowers its flex-raised slots and hands the energy back to RE
    and hydro (curtailment shrinks by the same amount).
    """
    rep = replace(dy, supply=dict(dy.supply), unmet=secondary)
    rep.supply["new"] = rep.supply["new"] + served

    if gas_twh > 0:
        gas = rep.supply["gas_slack"]
        total = float(np.sum(gas)) * SLOT_HOURS
        if total > 0:
            cut = min(gas_twh * 1e6 / total, 1.0)
            rep.supply["new"] = rep.supply["new"] + gas * cut
            rep.supply["gas_slack"] = gas * (1.0 - cut)

    if days is not None:
        per_day_coal, bonus = days
        coal = rep.coal_total()
        level = new._lowered_daily_max(coal.reshape(rep.n_days, SLOTS_PER_DAY), per_day_coal)
        cut = np.maximum(coal - np.repeat(level, SLOTS_PER_DAY), 0.0)
        _cut_coal(rep.supply, cut)
        rep.supply["new"] = rep.supply["new"] + cut

        cut_profile = rep.flex_re_cut + rep.flex_hydro_cut
        weight = cut_profile.reshape(rep.n_days, SLOTS_PER_DAY).sum(axis=1) * SLOT_HOURS
        scale = np.divide(bonus, weight, out=np.zeros(rep.n_days), where=weight > 0)
        give_back = cut_profile * np.repeat(np.minimum(scale, 1.0), SLOTS_PER_DAY)
        _cut_coal(rep.supply, give_back)
        re_part = np.minimum(give_back, rep.flex_re_cut)
        rep.supply["re"] = rep.supply["re"] + re_part
        rep.supply["hydro"] = rep.supply["hydro"] + (give_back - re_part)
        rep.curtailment = np.maximum(rep.curtailment - give_back, 0.0)
    return rep


def _year_mix(dy: dsp.DispatchYear, rep: dsp.DispatchYear) -> dict[str, float]:
    """The annual figures of one year's reporting despatch that the
    figure exports read, by ``MIX_KEYS``, plus the coal fleet's peak
    capacity before NEW supply."""
    coal_mw = dy.capacity["coal_2019"] + dy.capacity["coal_slack"]
    return {
        "re_twh": rep.energy_twh("re"),
        "hydro_twh": rep.energy_twh("hydro"),
        "nuclear_twh": rep.energy_twh("nuclear"),
        "coal_twh": rep.energy_twh("coal_2019") + rep.energy_twh("coal_slack"),
        "gas_twh": rep.energy_twh("gas_2019") + rep.energy_twh("gas_slack"),
        "new_twh": rep.energy_twh("new"),
        "unmet_twh": rep.unmet_twh(),
        "curtailment_twh": rep.curtailment_twh(),
        "coal_capacity_mw": float(coal_mw.max()),
    }


def evaluate_scenario(stage: OptionStage, despatch: DespatchSummary) -> ScenarioOutcome:
    """Price one scenario's finished option stage on its group's totals:
    the NPV and the year rows.  A ``GridlabError`` the stage kept is
    raised here."""
    if stage.error is not None:
        raise stage.error
    plan = stage.plan
    plan.validate()

    totals = despatch.totals
    result = eco.ScenarioResult(
        report=eco.npv_system_cost(totals, plan, stage.params, despatch.path),
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
        "capacity_requirement_gw": totals["capacity_requirement_mw"] / 1e3,
        "new_capacity_gross_mw": plan.capacity_mw,
        "dedicated_solar_gw": plan.dedicated_solar_gw,
        "secondary_unmet_twh": plan.secondary_unmet_twh,
        "displaced_gas_twh": plan.displaced_gas_twh,
        "displaced_coal_twh": plan.displaced_coal_2019_twh + plan.displaced_coal_slack_twh,
        "bonus_curtailment_twh": plan.bonus_curtailment_avoided_twh,
    }
    year_rows = []
    for i, year in enumerate(YEARS):
        row = {name: float(column[i]) for name, column in columns.items()}
        row["year"] = year
        row["flex_relaxed_slots"] = int(totals["flex_relaxed_slots"][i])
        year_rows.append(row)

    return ScenarioOutcome(params=stage.params, result=result, year_rows=year_rows,
                           details=stage.details, annual_mix=stage.annual_mix)

