"""Slow, independent reference computations for cross-checking fast paths.

Everything in here favours obviousness over speed: literal recursions,
bisection instead of closed forms, an LP solver instead of the greedy
merit stack, one ``csv.writer`` row per slot or one ``%`` per row
instead of byte-block formatting, one input row (or gap slot) at a
time instead of block-wise array checks, and a whole despatched decade
held at once instead of one year at a time.
"""

import csv
import dataclasses
import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from datetime import datetime
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from gridlab.dispatch import (
    SUPPLY_KEYS,
    TRANCHES,
    _TOL,
    DispatchYear,
    apply_coal_flex,
    load_duration_curve,
)
from gridlab.economics import (
    COMPONENTS,
    KWH_PER_MWH,
    KWH_PER_TWH,
    CostReport,
    ScenarioResult,
    annuity_payment,
    build_price_path,
    discount_factors,
    levelized_cost,
    npv_system_cost,
)
from gridlab.errors import (
    CadenceError,
    DataIntegrityError,
    InfeasibleError,
    ParameterError,
    TimeseriesParseError,
    UndefinedCostError,
)
from gridlab.newsupply import (
    DISPLACEMENT_ORDER,
    RESIDUE,
    CycleYear,
    Displacement,
    NewSupplyPlan,
    _lowered_daily_max,
    _pad_cycles,
    _simulate_cycles,
    coal_peak_bonus,
    dedicated_solar_gw,
    displace_gas_with_new_coal,
    displace_with_battery,
    simulate_soc,
    size_battery,
    size_dedicated_solar,
    size_for_full_recharge,
    tranche_cycle_mwh,
)
from gridlab.pipeline import (
    OptionStage,
    ScenarioOutcome,
    YearDetail,
    _reporting_dispatch,
    _year_mix,
    despatch_group,
    dispatch_year,
    evaluate_scenario,
    preflex,
    year_series,
)
from gridlab.scenario import N_YEARS, YEARS, CapacityPath, build_capacity_path
from gridlab.shapes import (
    FUELS,
    SLOT_HOURS,
    SLOTS_PER_DAY,
    TIMESERIES_COLUMNS,
    BaseYearData,
    PerMwShape,
    _gap_runs,
    map_values_to_year,
    slots_in_year,
)

UNMET_PRICE = 1.0e5  # Rs/kWh-scale penalty, far above any fuel


def base_in_year(base, year):
    """``base`` as the base year ``year``: every series mapped onto that
    year's slot grid (leap aware)."""
    return BaseYearData(
        year, map_values_to_year(base.demand, base.year, year),
        {fuel: map_values_to_year(mw, base.year, year) for fuel, mw in base.supply_by_fuel.items()},
    )


def random_flex_instance(rng, n_slots=SLOTS_PER_DAY):
    """A random despatch instance with strictly increasing tranche prices."""
    n = n_slots
    caps = {
        "coal_2019": rng.uniform(20.0, 70.0, n),
        "gas_2019": rng.uniform(5.0, 25.0, n),
        "coal_slack": rng.uniform(0.0, 40.0, n),
        "gas_slack": rng.uniform(0.0, 20.0, n),
    }
    prices = dict(zip(TRANCHES, np.sort(rng.uniform(2.0, 8.0, 4)) + np.arange(4) * 0.05))
    demand = rng.uniform(10.0, 200.0, n)
    re = rng.uniform(0.0, 60.0, n)
    hydro = rng.uniform(0.0, 15.0, n)
    nuclear = rng.uniform(0.0, 5.0, n)
    flex = rng.uniform(0.5, 0.8)
    return demand, re, hydro, nuclear, caps, prices, flex


def model_flex_dispatch(demand, re, hydro, nuclear, caps, flex):
    """The production path: the pre-flex year, then the flex floor."""
    pre = preflex(demand, {"re": re, "hydro": hydro, "nuclear": nuclear}, caps)
    return pre, apply_coal_flex(pre, flex)


def reference_preflex(demand, re, hydro, nuclear, caps):
    """The pre-flex year by the four-step chain of an earlier release.

    Must-run is summed and the surplus taken twice, once for net demand
    and once for the split; the merit order builds a partial year on
    net demand with zero must-run, NEW and curtailment arrays, and the
    must-run supplies are folded in after.
    """
    if len({a.shape[0] for a in (demand, re, hydro, nuclear)}) != 1:
        raise ParameterError("inputs must have equal lengths")
    must_run = re + hydro + nuclear
    net = np.maximum(demand - must_run, 0.0)
    interim = np.maximum(must_run - demand, 0.0)

    surplus = np.maximum(re + hydro + nuclear - demand, 0.0)
    re_cut = np.minimum(surplus, re)
    hydro_cut = np.minimum(surplus - re_cut, hydro)
    nuclear_cut = surplus - re_cut - hydro_cut
    must = {"re": re - re_cut, "hydro": hydro - hydro_cut, "nuclear": nuclear - nuclear_cut}

    n_slots = net.shape[0]
    supply = {k: np.zeros(n_slots) for k in ("re", "hydro", "nuclear")}
    capacity = {}
    remaining = net.copy()
    for name in TRANCHES:
        cap = np.asarray(caps[name], dtype=float)
        if cap.ndim == 0:
            cap = np.full(n_slots, float(cap))
        if cap.shape != (n_slots,) or np.any(cap < 0):
            raise ParameterError(f"bad capacity for {name!r}")
        take = np.minimum(remaining, cap)
        supply[name] = take
        capacity[name] = cap
        remaining -= take
    supply["new"] = np.zeros(n_slots)
    partial = DispatchYear(demand=net, supply=supply, capacity=capacity,
                           curtailment=np.zeros(n_slots), unmet=remaining)

    supply = {**partial.supply, **must}
    return replace(
        partial,
        demand=partial.demand + supply["re"] + supply["hydro"] + supply["nuclear"],
        supply=supply,
        curtailment=partial.curtailment + interim,
    )


def reference_apply_coal_flex(dy, flex_limit, floor_day=None):
    """``dispatch.apply_coal_flex`` on every slot of the year at once.

    Each step of the re-despatch runs over the full-length series, and
    ``np.where`` keeps the result only where the slot binds.
    """
    if not 0.0 <= flex_limit < 1.0:
        raise ParameterError(f"flex_limit {flex_limit} outside [0, 1)")
    if dy.n_slots % SLOTS_PER_DAY:
        raise ParameterError(f"{dy.n_slots} slots is not a whole number of days")

    coal_pre = dy.coal_total()
    if floor_day is None:
        floor_day = flex_limit * coal_pre.reshape(dy.n_days, SLOTS_PER_DAY).max(axis=1)
    else:
        floor_day = np.asarray(floor_day, dtype=float)
        if floor_day.shape != (dy.n_days,):
            raise ParameterError(
                f"floor_day has shape {floor_day.shape}, want ({dy.n_days},)"
            )

    supply = dict(dy.supply)
    cap1 = dy.capacity["coal_2019"]
    cap2 = dy.capacity["gas_2019"]
    cap3 = dy.capacity["coal_slack"]
    cap4 = dy.capacity["gas_slack"]

    net = (
        supply["coal_2019"] + supply["gas_2019"]
        + supply["coal_slack"] + supply["gas_slack"] + dy.unmet
    )
    floor = np.repeat(floor_day, SLOTS_PER_DAY)
    floor_slot = np.minimum.reduce([floor, net + supply["re"] + supply["hydro"], cap1 + cap3])

    binding = coal_pre < floor_slot - _TOL
    relaxed = int(np.sum((coal_pre < floor - _TOL) & (floor_slot < floor - _TOL)))

    target = np.maximum(net, floor_slot)
    x1 = np.minimum(cap1, target)
    forced_slack = np.maximum(floor_slot - x1, 0.0)
    rest = target - x1 - forced_slack
    x2 = np.minimum(cap2, np.maximum(rest, 0.0))
    rest -= x2
    x3 = forced_slack + np.minimum(np.maximum(cap3 - forced_slack, 0.0), np.maximum(rest, 0.0))
    rest = target - x1 - x2 - x3
    x4 = np.minimum(cap4, np.maximum(rest, 0.0))
    unmet_new = np.maximum(target - x1 - x2 - x3 - x4, 0.0)

    pushed_out = np.maximum(floor_slot - net, 0.0)
    re_cut = np.minimum(pushed_out, supply["re"])
    hydro_cut = pushed_out - re_cut

    for key, new_vals in (
        ("coal_2019", x1), ("gas_2019", x2), ("coal_slack", x3), ("gas_slack", x4),
    ):
        supply[key] = np.where(binding, new_vals, supply[key])
    re_cut = np.where(binding, re_cut, 0.0)
    hydro_cut = np.where(binding, hydro_cut, 0.0)
    supply["re"] = supply["re"] - re_cut
    supply["hydro"] = supply["hydro"] - hydro_cut

    return replace(
        dy,
        supply=supply,
        unmet=np.where(binding, unmet_new, dy.unmet),
        curtailment=dy.curtailment + re_cut + hydro_cut,
        flex_re_cut=re_cut,
        flex_hydro_cut=hydro_cut,
        relaxed_slots=relaxed,
    )


def dispatch_cost(dy, prices, unmet_price=UNMET_PRICE):
    cost = sum(float(np.sum(dy.supply[k])) * prices[k] for k in TRANCHES)
    return (cost + float(np.sum(dy.unmet)) * unmet_price) * SLOT_HOURS


def effective_floor(dy_pre):
    """Per-slot coal floor inputs implied by a pre-flex despatch."""
    net = sum(dy_pre.supply[k] for k in TRANCHES) + dy_pre.unmet
    absorb = dy_pre.supply["re"] + dy_pre.supply["hydro"]
    coal_cap = dy_pre.capacity["coal_2019"] + dy_pre.capacity["coal_slack"]
    coal_pre = dy_pre.coal_total()
    day_max = coal_pre.reshape(-1, SLOTS_PER_DAY).max(axis=1)
    return net, absorb, coal_cap, day_max


def lp_flex_cost(dy_pre, prices, flex, unmet_price=UNMET_PRICE):
    """Least-cost despatch honouring the same per-slot coal floor.

    Variables per slot: the four tranche outputs, unmet demand, and
    pushed-out must-run (free to curtail, bounded by what RE and hydro
    are supplying).  One block LP over the whole instance.
    """
    net, absorb, coal_cap, day_max = effective_floor(dy_pre)
    floor_day = np.repeat(flex * day_max, SLOTS_PER_DAY)
    floor_slot = np.minimum.reduce([floor_day, net + absorb, coal_cap])

    n = net.shape[0]
    c = np.concatenate([
        np.full(n, prices["coal_2019"]),
        np.full(n, prices["gas_2019"]),
        np.full(n, prices["coal_slack"]),
        np.full(n, prices["gas_slack"]),
        np.full(n, unmet_price),
        np.zeros(n),
    ]) * SLOT_HOURS
    eye = np.eye(n)
    zero = np.zeros((n, n))
    # balance: x1 + x2 + x3 + x4 + unmet - pushed == net
    a_eq = np.hstack([eye, eye, eye, eye, eye, -eye])
    # floor: x1 + x3 >= floor_slot
    a_ub = np.hstack([-eye, zero, -eye, zero, zero, zero])
    bounds = (
        [(0.0, caps) for caps in dy_pre.capacity["coal_2019"]]
        + [(0.0, caps) for caps in dy_pre.capacity["gas_2019"]]
        + [(0.0, caps) for caps in dy_pre.capacity["coal_slack"]]
        + [(0.0, caps) for caps in dy_pre.capacity["gas_slack"]]
        + [(0.0, None)] * n
        + [(0.0, float(a)) for a in absorb]
    )
    res = linprog(c, A_ub=a_ub, b_ub=-floor_slot, A_eq=a_eq, b_eq=net,
                  bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"LP failed: {res.message}")
    return float(res.fun)


def reference_soc(battery, unmet, re_src, solar_src):
    """Literal slot-by-slot transcription of the battery state machine.

    Returns an array with columns soc, charge, discharge, served,
    charge_re, charge_solar.
    """
    e_cap = battery.energy_capacity_mwh
    soc = e_cap
    floor = battery.floor_mwh
    rows = []
    for u, r, s in zip(unmet, re_src, solar_src):
        if u > 0:
            want = min(u / battery.discharge_eff, battery.inverter_capacity_mw)
            avail = max(soc - floor, 0.0) / SLOT_HOURS
            served = min(want, avail) * battery.discharge_eff
            soc -= want * SLOT_HOURS
            rows.append((soc, 0.0, want, served, 0.0, 0.0))
        else:
            head = max(e_cap - soc, 0.0) / (battery.charge_eff * SLOT_HOURS)
            cap = min(battery.inverter_capacity_mw, e_cap, head)
            take_re = min(r, cap)
            take_sol = min(s, cap - take_re)
            soc += (take_re + take_sol) * battery.charge_eff * SLOT_HOURS
            rows.append((soc, take_re + take_sol, 0.0, 0.0, take_re, take_sol))
    return np.array(rows)


def reference_search_smallest(predicate, tolerance_gw, max_gw, what):
    """The full doubling ladder, ``min(1, max_gw)``, then twice that and
    so on, then bisection.

    Walks every rung up to ``max_gw`` before giving up, so it calls the
    predicate about ``log2(max_gw)`` times on an infeasible search.
    """
    if predicate(0.0):
        return 0.0
    first = hi = min(1.0, max_gw)
    while not predicate(hi):
        hi *= 2.0
        if hi > max_gw:
            raise InfeasibleError(
                f"no dedicated solar capacity below {max_gw:g} GW achieves {what}"
            )
    lo = hi / 2.0 if hi > first else 0.0
    while hi - lo > tolerance_gw:
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return hi


# --- whole-series dedicated solar sizing ------------------------------------
#
# Every probe simulates, or budgets, every cycle of the year: the
# references for ``newsupply``'s searches, which re-test only the cycles
# still failing.


def _solar_gen(solar_shape, capacity_gw, n):
    if solar_shape.shape[0] != n:
        raise ParameterError("solar shape length must match the unmet series")
    return solar_shape * capacity_gw * 1e3


def _cycle_secondary_unmet(battery, unmet, re_src, solar, boundary_slot):
    """Secondary unmet MW summed over a simulation of every cycle, with
    ``solar`` MW of dedicated solar."""
    unmet_m, front = _pad_cycles(unmet, boundary_slot)
    served = _simulate_cycles(battery, unmet_m, _pad_cycles(re_src, boundary_slot)[0],
                              _pad_cycles(solar, boundary_slot)[0])[2]
    secondary = (unmet_m - served).reshape(-1)[front:front + unmet.shape[0]]
    secondary[secondary < RESIDUE] = 0.0
    return float(np.sum(secondary))


def _cycle_full_recharge(battery, re_src, solar, boundary_slot):
    """Could every full cycle's sources refill one usable battery load?"""
    cap = min(battery.inverter_capacity_mw, battery.energy_capacity_mwh)
    src_m, front = _pad_cycles(np.minimum(re_src + solar, cap), boundary_slot)
    budget = src_m.sum(axis=1) * battery.charge_eff * SLOT_HOURS

    starts = np.arange(src_m.shape[0]) * SLOTS_PER_DAY - front
    full = (starts >= 0) & (starts + SLOTS_PER_DAY <= re_src.shape[0])
    return bool(np.all(budget[full] >= battery.usable_mwh - RESIDUE))


def reference_size_for_full_recharge(battery, curtailed_re, unmet, solar_shape,
                                     boundary_slot=34, tolerance_gw=0.1, max_gw=10_000.0):
    """``newsupply.size_for_full_recharge`` on whole series."""
    if battery.energy_capacity_mwh <= 0:
        return 0.0
    n = unmet.shape[0]

    def ok(gw):
        return _cycle_full_recharge(battery, curtailed_re,
                                    _solar_gen(solar_shape, gw, n), boundary_slot)

    return reference_search_smallest(ok, tolerance_gw, max_gw, "full daily recharge")


def sized_dedicated_solar(battery, year, extra, zero_gw=None):
    """The dedicated solar of ``battery`` at ``extra`` from the two
    production searches, one battery alone: the minimum-service search
    and, for ``extra`` above 0, the full-recharge one.  An
    InfeasibleError of either is raised."""
    minimum = size_dedicated_solar(battery, year, zero_gw=zero_gw)
    if extra == 0.0:
        return minimum
    return dedicated_solar_gw(minimum, size_for_full_recharge(battery, year), extra)


def reference_size_dedicated_solar(battery, curtailed_re, unmet, solar_shape, extra,
                                   boundary_slot=34, tolerance_gw=0.1, max_gw=10_000.0):
    """``sized_dedicated_solar`` on whole series."""
    if battery.energy_capacity_mwh <= 0:
        return 0.0
    n = unmet.shape[0]

    def served(gw):
        gap = _cycle_secondary_unmet(battery, unmet, curtailed_re,
                                     _solar_gen(solar_shape, gw, n), boundary_slot)
        return gap == 0.0

    minimum = reference_search_smallest(served, tolerance_gw, max_gw, "zero secondary unmet")
    if extra == 0.0:
        return minimum
    maximum = reference_size_for_full_recharge(battery, curtailed_re, unmet, solar_shape,
                                               boundary_slot, tolerance_gw, max_gw)
    maximum = max(maximum, minimum)
    return minimum + extra * (maximum - minimum)


def cycle_windows(n_slots, boundary_slot):
    """Half-open 24h windows split at the daily cycle boundary.

    The leading (and trailing) partial window is kept, so every slot
    belongs to exactly one cycle.  Window ``i`` is row ``i`` of
    ``newsupply._pad_cycles``.
    """
    edges = list(range(boundary_slot, n_slots, SLOTS_PER_DAY))
    if boundary_slot > 0:
        edges = [0] + edges
    edges.append(n_slots)
    return [(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def reference_displacement(soc, dy):
    """Spare battery throughput displacing fossil output, one window at a time.

    The literal per-window loop behind ``newsupply.displace_with_battery``:
    spare energy is the lesser of the unused depth and the untapped
    charging, zero below ``RESIDUE``, spent on the tranches in
    ``DISPLACEMENT_ORDER`` and booked to the calendar day the window
    starts in.
    """
    battery = soc.battery
    eta_c = battery.charge_eff
    eta_d = battery.discharge_eff
    windows = cycle_windows(soc.year.n_slots, soc.year.boundary_slot)
    n_days = soc.year.n_slots // SLOTS_PER_DAY

    sources = soc.year.flat(soc.year.curtailed_re), soc.year.flat(soc.year.solar(soc.solar_gw))
    leftover = (sources[0] - soc.charge_re_mw) + (sources[1] - soc.charge_solar_mw)
    headroom = min(battery.inverter_capacity_mw, battery.energy_capacity_mwh) - soc.charge_mw
    extra_charge = np.where(soc.year.flat(soc.year.unmet) <= 0,
                            np.minimum(leftover, np.maximum(headroom, 0.0)), 0.0)

    per_day = {name: np.zeros(n_days) for name in DISPLACEMENT_ORDER}
    displaced_total = {name: 0.0 for name in DISPLACEMENT_ORDER}
    for a, b in windows:
        min_soc = min(battery.energy_capacity_mwh, float(np.min(soc.soc_mwh[a:b])))
        depth_margin = max(min_soc - battery.floor_mwh, 0.0) * eta_d
        charge_margin = float(np.sum(extra_charge[a:b])) * SLOT_HOURS * eta_c * eta_d
        spare = min(depth_margin, charge_margin)
        if spare < RESIDUE:
            spare = 0.0

        day = min(a // SLOTS_PER_DAY, n_days - 1)
        for name in DISPLACEMENT_ORDER:
            if spare <= 0:
                break
            output_mwh = float(np.sum(dy.supply[name][a:b])) * SLOT_HOURS
            take = min(spare, max(output_mwh, 0.0))
            per_day[name][day] += take
            displaced_total[name] += take
            spare -= take

    return Displacement(
        displaced_twh={k: v / 1e6 for k, v in displaced_total.items()},
        per_day_mwh=per_day,
    )


def shaved_level(day, energy_mwh):
    """Bisect the coal level that shaves ``energy_mwh`` off the day's top."""
    if energy_mwh <= 0:
        return float(day.max())
    if energy_mwh >= float(day.sum()) * SLOT_HOURS:
        return 0.0
    lo, hi = 0.0, float(day.max())
    for _ in range(150):
        mid = 0.5 * (lo + hi)
        removed = float(np.maximum(day - mid, 0.0).sum()) * SLOT_HOURS
        if removed > energy_mwh:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def brute_force_bonus(dy_pre, dy_flexed, displaced_mwh, flex):
    """Avoided curtailment per day by literally re-running the flex pass.

    The displaced energy is shaved off the top of each day's post-flex
    coal curve (bisected water-fill), the daily floor recomputed from
    the lowered maximum, and the flex re-despatch repeated against the
    pre-flex state with that floor.
    """
    coal = dy_flexed.coal_total()
    n_days = dy_flexed.n_days
    new_floor = np.empty(n_days)
    for d in range(n_days):
        day = coal[d * SLOTS_PER_DAY:(d + 1) * SLOTS_PER_DAY]
        shaved = min(float(displaced_mwh[d]), float(day.sum()) * SLOT_HOURS)
        new_floor[d] = flex * shaved_level(day, shaved)
    rerun = reference_apply_coal_flex(dy_pre, flex, floor_day=new_floor)
    old_cut = dy_flexed.flex_re_cut + dy_flexed.flex_hydro_cut
    new_cut = rerun.flex_re_cut + rerun.flex_hydro_cut
    per_day = (old_cut - new_cut).reshape(n_days, SLOTS_PER_DAY).sum(axis=1)
    return per_day * SLOT_HOURS


def reference_coal_peak_bonus(dy, coal_displaced_in_day, flex_limit):
    """``newsupply.coal_peak_bonus`` on every day of the year at once.

    The same slot arithmetic on full (days, 48) matrices, including the
    days without displaced coal, which are zeroed at the end.
    """
    days = (dy.n_days, SLOTS_PER_DAY)
    coal = dy.coal_total().reshape(days)
    cut = (dy.flex_re_cut + dy.flex_hydro_cut).reshape(days)
    n_pre = (
        dy.supply["coal_2019"] + dy.supply["gas_2019"]
        + dy.supply["coal_slack"] + dy.supply["gas_slack"] + dy.unmet
    ).reshape(days) - cut
    absorb = (dy.supply["re"] + dy.supply["hydro"]).reshape(days) + cut
    coal_cap = (dy.capacity["coal_2019"] + dy.capacity["coal_slack"]).reshape(days)

    day_disp = np.minimum(coal_displaced_in_day, coal.sum(axis=1) * SLOT_HOURS)
    new_floor = flex_limit * _lowered_daily_max(coal, day_disp)
    floor_slot = np.minimum(np.minimum(new_floor[:, None], n_pre + absorb), coal_cap)
    new_cut = np.maximum(floor_slot - n_pre, 0.0)
    avoided = np.maximum(cut - new_cut, 0.0).sum(axis=1) * SLOT_HOURS
    return np.where(day_disp > 0, avoided, 0.0)


def undersize_residual(
    battery,
    size_fraction,
    unmet,
    curtailed_re=None,
    solar_shape=None,
    solar_gw=0.0,
    net_capacity_mw=None,
    boundary_slot=34,
):
    """Secondary unmet when NEW supply is undersized, and its peak MW.

    ``battery`` is the full-size BatterySpec, or None for thermal.
    Batteries re-simulate at the reduced size, with ``solar_gw`` of
    dedicated solar on ``solar_shape``; thermal capacity simply
    truncates slot-wise.  The peak is what a biodiesel backstop must be
    able to serve.
    """
    if not 0.0 < size_fraction <= 1.0:
        raise ParameterError("size_fraction must lie in (0, 1]")
    unmet = np.asarray(unmet, dtype=float)
    if battery is not None:
        zeros = np.zeros(unmet.shape[0])
        year = CycleYear.pad(
            unmet,
            zeros if curtailed_re is None else curtailed_re,
            zeros if solar_shape is None else solar_shape,
            boundary_slot,
        )
        secondary = simulate_soc(battery.scaled(size_fraction), year, solar_gw).secondary_unmet_mw
    else:
        if net_capacity_mw is None:
            raise ParameterError("thermal undersizing needs net_capacity_mw")
        secondary = np.maximum(unmet - net_capacity_mw * size_fraction, 0.0)
    twh = float(np.sum(secondary)) * SLOT_HOURS / 1e6
    peak = float(np.max(secondary)) if secondary.size else 0.0
    return twh, peak


# --- slot tables, one csv.writer row per slot ---------------------------------
#
# dispatch_*.csv and soc_trace_*.csv use the csv module's default "\r\n";
# the figure tables use "\n".


def reference_write_table(path, header, columns, formats, newline):
    """``dispatch.write_table`` one row at a time: ``line % row`` on each
    row's Python values, the definition of its bytes."""
    line = ",".join(formats) + newline
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + newline)
        for row in zip(*[col.tolist() for col in columns]):
            fh.write(line % row)


def slot_dispatch_csv(dy, path):
    """``dispatch.to_csv``: demand, every supply key, curtailment, unmet."""
    keys = [k for k in SUPPLY_KEYS if k in dy.supply]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "demand_mw", *[f"{k}_mw" for k in keys],
                         "curtailment_mw", "unmet_mw"])
        for s in range(dy.n_slots):
            writer.writerow(
                [s, f"{dy.demand[s]:.3f}"]
                + [f"{dy.supply[k][s]:.3f}" for k in keys]
                + [f"{dy.curtailment[s]:.3f}", f"{dy.unmet[s]:.3f}"]
            )


def slot_soc_trace_csv(trace, path):
    """``SocTrace.to_csv``: SoC, charge, discharge and the charge source."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "soc_mwh", "charge_mw", "discharge_mw", "source"])
        for s in range(trace.year.n_slots):
            if trace.charge_re_mw[s] > 0 and trace.charge_solar_mw[s] > 0:
                source = "re+solar"
            elif trace.charge_re_mw[s] > 0:
                source = "re"
            elif trace.charge_solar_mw[s] > 0:
                source = "solar"
            else:
                source = ""
            writer.writerow([
                s, f"{trace.soc_mwh[s]:.3f}", f"{trace.charge_mw[s]:.3f}",
                f"{trace.discharge_mw[s]:.3f}", source,
            ])


def slot_ldc_csv(yd, path):
    """``ldc_unmet_<year>.csv``: the pre-NEW unmet duration curve."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["rank", "unmet_mw"])
        for rank, value in enumerate(load_duration_curve(yd.dispatch.unmet)):
            writer.writerow([rank, f"{value:.3f}"])


def slot_chronological_mix_csv(yd, path):
    """``chronological_mix_<year>.csv``: the reporting despatch by fuel."""
    rep = yd.reporting
    coal = rep.coal_total()
    gas = rep.gas_total()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["slot", "demand_mw", "re_mw", "hydro_mw", "nuclear_mw",
                         "coal_mw", "gas_mw", "new_mw", "unmet_mw"])
        for s in range(rep.n_slots):
            writer.writerow(
                [s, f"{rep.demand[s]:.3f}"]
                + [
                    f"{rep.supply['re'][s]:.3f}",
                    f"{rep.supply['hydro'][s]:.3f}",
                    f"{rep.supply['nuclear'][s]:.3f}",
                    f"{coal[s]:.3f}",
                    f"{gas[s]:.3f}",
                    f"{rep.supply['new'][s]:.3f}",
                ]
                + [f"{rep.unmet[s]:.3f}"]
            )


def slot_coal_output_csv(yd, path):
    """``coal_output_<year>.csv``: coal before and after NEW supply."""
    pre = yd.dispatch.coal_total()
    post = yd.reporting.coal_total()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["slot", "pre_new_mw", "post_new_mw"])
        for s in range(pre.shape[0]):
            writer.writerow([s, f"{pre[s]:.3f}", f"{post[s]:.3f}"])


# --- input files and gap fill, one row or slot at a time ----------------------


def _parse_slot(stamp, year, line):
    try:
        ts = datetime.fromisoformat(stamp)
    except ValueError as exc:
        raise TimeseriesParseError(f"bad timestamp {stamp!r}: {exc}", line) from None
    if ts.year != year:
        raise TimeseriesParseError(f"timestamp {stamp!r} outside year {year}", line)
    if ts.minute not in (0, 30) or ts.second or ts.microsecond:
        raise CadenceError(f"line {line}: timestamp {stamp!r} is not on a 30-minute grid")
    day = ts.timetuple().tm_yday - 1
    return day * SLOTS_PER_DAY + ts.hour * 2 + ts.minute // 30


def load_timeseries_csv(path, year):
    """``shapes.load_timeseries_csv``: every check on one row, then the next row."""
    path = Path(path)
    n = slots_in_year(year)
    columns = {name: np.full(n, np.nan) for name in TIMESERIES_COLUMNS[1:]}
    seen = np.zeros(n, dtype=bool)

    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataIntegrityError(f"{path}: empty file") from None
        if [h.strip() for h in header] != list(TIMESERIES_COLUMNS):
            raise TimeseriesParseError(
                f"unexpected header {header!r}; expected {','.join(TIMESERIES_COLUMNS)}",
                line=1,
            )
        prev_slot = -1
        for line, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(TIMESERIES_COLUMNS):
                raise TimeseriesParseError(
                    f"expected {len(TIMESERIES_COLUMNS)} fields, got {len(row)}", line
                )
            slot = _parse_slot(row[0].strip(), year, line)
            if slot <= prev_slot:
                raise CadenceError(
                    f"line {line}: timestamp {row[0]!r} does not advance the 30-minute grid"
                )
            prev_slot = slot
            seen[slot] = True
            for name, cell in zip(TIMESERIES_COLUMNS[1:], row[1:]):
                cell = cell.strip()
                if not cell:
                    continue  # gap
                try:
                    value = float(cell)
                except ValueError:
                    raise TimeseriesParseError(
                        f"bad value {cell!r} in column {name}", line
                    ) from None
                if math.isnan(value) or math.isinf(value):
                    raise TimeseriesParseError(f"non-finite value in column {name}", line)
                if value < 0:
                    raise TimeseriesParseError(
                        f"negative MW ({value}) in column {name}", line
                    )
                columns[name][slot] = value

    missing_rows = int(n - seen.sum())
    if missing_rows > 0.05 * n:
        raise DataIntegrityError(
            f"{path}: {missing_rows} of {n} rows missing ({missing_rows / n:.1%} > 5%)"
        )

    gaps = {
        name.removesuffix("_mw"): _gap_runs(np.isnan(values))
        for name, values in columns.items()
    }
    return BaseYearData(
        year=year,
        demand=columns["demand_mw"],
        supply_by_fuel={fuel: columns[f"{fuel}_mw"] for fuel in FUELS},
        gaps={k: v for k, v in gaps.items() if v},
    )


def load_shape_csv(path):
    """``shapes.load_shape_csv``: one row at a time, two fields a row."""
    path = Path(path)
    fractions = []
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["slot", "fraction"]:
            raise TimeseriesParseError(f"unexpected header {header!r}; expected slot,fraction", 1)
        for line, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 2:
                raise TimeseriesParseError(f"expected 2 fields, got {len(row)}", line)
            try:
                slot = int(row[0])
                frac = float(row[1])
            except ValueError:
                raise TimeseriesParseError(f"bad shape row {row!r}", line) from None
            if slot != len(fractions):
                raise CadenceError(f"line {line}: slot {slot} out of order")
            if not 0.0 <= frac <= 1.0:
                raise TimeseriesParseError(f"fraction {frac} outside [0, 1]", line)
            fractions.append(frac)
    if not fractions:
        raise DataIntegrityError(f"{path}: no shape rows")
    return PerMwShape(np.array(fractions), label=path.stem)


def fill_gaps(values, max_gap_slots, label):
    """``shapes._fill_gaps``: each long-gap slot searches outward day by day."""
    out = values.copy()
    mask = np.isnan(out)
    if not mask.any():
        return out
    if mask.all():
        raise DataIntegrityError(f"series '{label}' has no usable values")
    n = out.shape[0]
    for start, stop in _gap_runs(mask):
        length = stop - start
        if length <= max_gap_slots and start > 0 and stop < n:
            left, right = out[start - 1], out[stop]
            if not (np.isnan(left) or np.isnan(right)):
                steps = np.arange(1, length + 1) / (length + 1)
                out[start:stop] = left + (right - left) * steps
                continue
        for s in range(start, stop):
            day, sod = divmod(s, SLOTS_PER_DAY)
            n_days = n // SLOTS_PER_DAY
            filled = False
            for dist in range(1, n_days):
                for other in (day - dist, day + dist):
                    if 0 <= other < n_days:
                        candidate = values[other * SLOTS_PER_DAY + sod]
                        if not np.isnan(candidate):
                            out[s] = candidate
                            filled = True
                            break
                if filled:
                    break
            if not filled:
                raise DataIntegrityError(
                    f"series '{label}': slot {sod} of day is missing on every day"
                )
    return out


# --- the whole-decade evaluation -------------------------------------------
#
# ``pipeline`` despatches a group year by year and steps every member's
# option stage on each year before dropping it.  The reference below
# holds a whole decade first and then sizes, simulates and prices one
# scenario on it, loop over the years after loop over the years.


@dataclass(frozen=True)
class Decade:
    """One despatch key's decade, every year held at once."""

    path: CapacityPath
    years: dict
    solar_by_year: dict
    totals: dict


def decade_totals(records):
    """Each year record's totals, one array entry per year."""
    rows = []
    for record in records:
        dy = record.dispatch
        row = {key: dy.energy_twh(key) for key in dy.supply}
        row["unmet_twh"] = dy.unmet_twh()
        row["curtailment_twh"] = dy.curtailment_twh()
        row["peak_unmet_mw"] = dy.peak_unmet_mw()
        row["capacity_requirement_mw"] = record.capacity_requirement_mw
        row["demand_twh"] = record.demand_twh
        row["flex_relaxed_slots"] = dy.relaxed_slots
        rows.append(row)
    return {key: np.array([row[key] for row in rows]) for key in rows[0]}


def despatch_decade(params, base, solar, wind):
    """``dispatch_year`` for 2021-2030, all ten kept."""
    path = build_capacity_path(params, base)
    series = {y: year_series(base, solar, wind, y) for y in YEARS}
    years = {y: dispatch_year(params, path, y, series[y]) for y in YEARS}
    return Decade(path=path, years=years, solar_by_year={y: series[y]["solar"] for y in YEARS},
                  totals=decade_totals(years.values()))


def reference_battery_plan(params, decade, keep=(), report=()):
    """The battery plan over the whole decade, with the SoC traces of
    the ``keep`` years and the export fold's inputs of the ``report``
    years: served and secondary unmet slots, and each day's displaced
    coal and bonus."""
    plan = NewSupplyPlan(option="battery_re")
    boundary = params.cycle_boundary_slot
    extra = params.dedicated_solar_extra
    traces, folds = {}, {}
    peak_secondary = np.zeros(N_YEARS)
    run_energy = run_inverter = run_solar_gw = 0.0

    for i, year in enumerate(YEARS):
        record = decade.years[year]
        dy = record.dispatch
        cycles = CycleYear.pad(dy.unmet, record.curtailed_re, decade.solar_by_year[year], boundary)
        sized = size_battery(cycles, params, decade.totals["capacity_requirement_mw"][i])
        run_energy = max(run_energy, sized.energy_capacity_mwh)
        run_inverter = max(run_inverter, sized.inverter_capacity_mw)
        battery = replace(sized, energy_capacity_mwh=run_energy, inverter_capacity_mw=run_inverter)
        plan.energy_mwh[i] = run_energy
        plan.capacity_mw[i] = run_inverter

        trace = simulate_soc(battery, cycles, 0.0)
        if battery.energy_capacity_mwh > 0:
            try:
                gw = sized_dedicated_solar(battery, cycles, extra, zero_gw=trace)
            except InfeasibleError:
                gw = sized_dedicated_solar(battery.scaled(1.0), cycles, extra)
        else:
            gw = 0.0
        run_solar_gw = max(run_solar_gw, gw)
        plan.dedicated_solar_gw[i] = run_solar_gw
        if run_solar_gw > 0:
            trace = simulate_soc(battery, cycles, run_solar_gw)
        if year in keep:
            traces[year] = trace
        plan.secondary_unmet_twh[i] = float(np.sum(trace.secondary_unmet_mw)) * SLOT_HOURS / 1e6
        peak_secondary[i] = float(np.max(trace.secondary_unmet_mw)) if dy.unmet.size else 0.0

        disp = displace_with_battery(trace, tranche_cycle_mwh(dy, cycles))
        per_day_coal = disp.per_day_mwh["coal_2019"] + disp.per_day_mwh["coal_slack"]
        bonus = coal_peak_bonus(dy, per_day_coal, params.flex_limit)
        plan.displaced_gas_twh[i] = disp.displaced_twh["gas_slack"]
        plan.displaced_coal_2019_twh[i] = disp.displaced_twh["coal_2019"]
        plan.displaced_coal_slack_twh[i] = disp.displaced_twh["coal_slack"]
        plan.bonus_curtailment_avoided_twh[i] = float(np.sum(bonus)) / 1e6
        if year in report:
            secondary = trace.secondary_unmet_mw
            folds[year] = (dy.unmet - secondary, secondary, (per_day_coal, bonus))

    diesel_aux = params.tech_costs["diesel_gen"].aux
    plan.biodiesel_capacity_mw = np.maximum.accumulate(peak_secondary / (1.0 - diesel_aux))
    return plan, traces, folds


def reference_thermal_plan(params, decade, report=()):
    """A thermal plan over the whole decade: the build is the running
    maximum of the grossed-up requirement, taken in one pass.  With it
    come the export fold's inputs of the ``report`` years: served and
    secondary unmet slots."""
    option = params.new_option
    tech = params.tech_costs[option]
    required = decade.totals["capacity_requirement_mw"]
    installed_mw = np.maximum.accumulate(required / (1.0 - tech.aux))

    size_fraction = params.new_coal_size_fraction if option == "coal" else 1.0
    plan = NewSupplyPlan(option=option, capacity_mw=installed_mw * size_fraction)
    net_caps = plan.capacity_mw * (1.0 - tech.aux)
    peak_secondary = np.zeros(N_YEARS)
    folds = {}
    for i, net_cap in enumerate(net_caps):
        dy = decade.years[YEARS[i]].dispatch
        served = np.minimum(dy.unmet, net_cap)
        secondary = np.maximum(dy.unmet - net_cap, 0.0)
        secondary[secondary < RESIDUE] = 0.0
        plan.secondary_unmet_twh[i] = float(np.sum(secondary)) * SLOT_HOURS / 1e6
        peak_secondary[i] = float(np.max(secondary)) if secondary.size else 0.0
        if option == "coal":
            rep = replace(dy, supply={**dy.supply, "new": served}, unmet=dy.unmet - served)
            plan.displaced_gas_twh[i] = displace_gas_with_new_coal(net_cap, rep)
        if YEARS[i] in report:
            folds[YEARS[i]] = (served, secondary, None)

    diesel_aux = params.tech_costs["diesel_gen"].aux
    plan.biodiesel_capacity_mw = np.maximum.accumulate(peak_secondary / (1.0 - diesel_aux))
    return plan, folds


def reference_evaluate_scenario(params, decade, detail_years=()):
    """One scenario sized, simulated and priced on a whole decade; with
    ``detail_years``, every year has its annual mix."""
    reported = YEARS if detail_years else ()
    traces = {}
    if params.new_option == "battery_re":
        plan, traces, folds = reference_battery_plan(params, decade, detail_years, reported)
    else:
        plan, folds = reference_thermal_plan(params, decade, reported)
    plan.validate()

    totals = decade.totals
    result = ScenarioResult(
        report=npv_system_cost(totals, plan, params, decade.path),
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
    year_rows, details, annual_mix = [], {}, {}
    for i, year in enumerate(YEARS):
        dy = decade.years[year].dispatch
        row = {name: float(column[i]) for name, column in columns.items()}
        row["year"] = year
        row["flex_relaxed_slots"] = dy.relaxed_slots
        year_rows.append(row)
        if year in reported:
            served, secondary, days = folds.pop(year)
            rep = _reporting_dispatch(dy, served, secondary, plan.displaced_gas_twh[i], days)
            rep.check_balance()
            annual_mix[year] = _year_mix(dy, rep)
            if year in detail_years:
                details[year] = YearDetail(dispatch=dy, reporting=rep, trace=traces.get(year))
    return ScenarioOutcome(params=params, result=result, year_rows=year_rows,
                           details=details, annual_mix=annual_mix)



def evaluate_alone(params, base, solar, wind, detail_years=()):
    """One scenario as a despatch group of its own, year-major (see
    ``OptionStage`` for ``detail_years``); a GridlabError is raised."""
    stage = OptionStage.start(params, detail_years)
    return evaluate_scenario(stage, despatch_group(params, base, solar, wind, [stage]))

class _CohortLedger:
    """Accumulates annuitized cohort payments over the horizon.

    Payments run from the build year for the asset's life; the horizon
    rule truncates them at 2030 unless full-life counting is on, in
    which case the post-2030 payments show up only in the NPV tail.
    """

    def __init__(self, discount, full_life):
        self.flows = np.zeros(N_YEARS)
        self.tail_npv = 0.0
        self._discount = discount
        self._full_life = full_life

    def add(self, build_index, principal, rate, life):
        if principal <= 0:
            return
        payment = annuity_payment(principal, rate, life)
        last = build_index + life - 1
        stop = min(last, N_YEARS - 1)
        self.flows[build_index:stop + 1] += payment
        if self._full_life and last >= N_YEARS:
            ks = np.arange(N_YEARS, last + 1, dtype=float)
            self.tail_npv += float(np.sum(payment / (1.0 + self._discount) ** ks))


def _additions(capacity):
    return np.maximum(np.diff(capacity, prepend=0.0), 0.0)


def reference_npv_system_cost(totals, plan, params, capacity_path):
    """``economics.npv_system_cost`` with one ledger and one loop over
    build years per cost line (RE, battery, thermal, biodiesel), in the
    order of every float addition the model must keep."""
    p = params
    paths = build_price_path(p)
    discount = p.discount_rate
    full_life = p.count_full_life_annuities
    factors = discount_factors(discount)
    flows = {name: np.zeros(N_YEARS) for name in COMPONENTS}
    tails = {name: 0.0 for name in COMPONENTS}

    capex_ledger = _CohortLedger(discount, full_life)
    solar_mw = capacity_path.solar_new * 1e3
    wind_mw = capacity_path.wind_new * 1e3
    solar_cost = _additions(solar_mw) * paths.solar_capex_rs_per_mw
    wind_cost = _additions(wind_mw) * paths.wind_capex_rs_per_mw
    for i in range(N_YEARS):
        capex_ledger.add(i, solar_cost[i], p.wacc, p.solar_life_years)
        capex_ledger.add(i, wind_cost[i], p.wacc, p.wind_life_years)
    flows["re_capex"] = capex_ledger.flows
    tails["re_capex"] = capex_ledger.tail_npv
    flows["re_om"] = (
        solar_mw * p.solar_om_rs_per_mw + wind_mw * p.wind_om_rs_per_mw
    ) * paths.om_inflation

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

    new_ledger = _CohortLedger(discount, full_life)
    om_cohorts = np.zeros(N_YEARS)
    secondary_kwh = plan.secondary_unmet_twh * KWH_PER_TWH
    served_by_new_kwh = np.maximum(unmet_kwh - secondary_kwh, 0.0)
    displaced_gas_kwh = plan.displaced_gas_twh * KWH_PER_TWH
    if plan.option == "battery_re":
        cell_cost = _additions(plan.energy_mwh) * KWH_PER_MWH * paths.battery_cell_rs_per_kwh
        inv_cost = _additions(plan.capacity_mw) * KWH_PER_MWH * p.inverter_capex_rs_per_kw
        sol_inc = _additions(plan.dedicated_solar_gw * 1e3)
        sol_cost = sol_inc * paths.solar_capex_rs_per_mw
        for i in range(N_YEARS):
            new_ledger.add(i, cell_cost[i], p.wacc, p.battery_life_years)
            new_ledger.add(i, inv_cost[i], p.wacc, p.inverter_life_years)
            new_ledger.add(i, sol_cost[i], p.wacc, p.solar_life_years)
            om_cohorts[i:] += (
                p.battery_om_fraction * (cell_cost[i] + inv_cost[i])
                * paths.om_inflation[i:] / paths.om_inflation[i]
            )
            om_cohorts[i:] += (
                sol_inc[i] * p.solar_om_rs_per_mw * paths.om_inflation[i:]
            )
        burn = np.zeros(N_YEARS)
    else:
        tech = p.tech_costs[plan.option]
        cost = _additions(plan.capacity_mw) * paths.tech_capex_rs_per_mw[plan.option]
        for i in range(N_YEARS):
            new_ledger.add(i, cost[i], p.wacc, tech.life_years)
            om_cohorts[i:] += (
                tech.om_fraction * cost[i] * paths.om_inflation[i:] / paths.om_inflation[i]
            )
        gross_tech = 1.0 / (1.0 - tech.aux)
        gen_kwh = served_by_new_kwh + displaced_gas_kwh
        burn = gen_kwh * paths.tech_fuel_rs_per_kwh[plan.option] * gross_tech
    flows["new_capex"] = new_ledger.flows
    tails["new_capex"] = new_ledger.tail_npv
    flows["new_om"] = om_cohorts

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

    diesel = p.tech_costs["diesel_gen"]
    bio_ledger = _CohortLedger(discount, full_life)
    bio_cost = _additions(plan.biodiesel_capacity_mw) * paths.tech_capex_rs_per_mw["diesel_gen"]
    bio_om = np.zeros(N_YEARS)
    for i in range(N_YEARS):
        bio_ledger.add(i, bio_cost[i], p.wacc, diesel.life_years)
        bio_om[i:] += diesel.om_fraction * bio_cost[i] * paths.om_inflation[i:] / paths.om_inflation[i]
    bio_fuel = secondary_kwh / (1.0 - diesel.aux) * paths.tech_fuel_rs_per_kwh["diesel_gen"]
    flows["biodiesel"] = bio_ledger.flows + bio_om + bio_fuel
    tails["biodiesel"] = bio_ledger.tail_npv

    npv_by_component = {
        name: float(np.sum(flows[name] / factors)) + tails[name] for name in COMPONENTS
    }
    existing_cost = (
        flows["re_capex"] + flows["re_om"] + flows["coal_fuel"]
        + flows["gas_fuel_2019"] + flows["gas_fuel_nonapm"]
    )
    new_cost = flows["new_capex"] + flows["new_om"] + flows["new_fuel"] + flows["biodiesel"]
    new_energy_kwh = served_by_new_kwh + displaced_kwh + secondary_kwh

    def _levelized(costs, energy):
        try:
            return levelized_cost(costs, energy, discount)
        except UndefinedCostError:
            return None

    return CostReport(
        npv_total=float(sum(npv_by_component.values())),
        npv_by_component=npv_by_component,
        levelized_existing=_levelized(existing_cost, existing_delivered_kwh),
        levelized_new=_levelized(new_cost, new_energy_kwh),
    )

def bits(value):
    """``value`` with every float and array replaced by its bytes, for
    bit-for-bit comparison: -0.0 differs from 0.0 here, and NaNs with
    the same payload match.  Dataclasses, mappings and sequences are
    walked field by field."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return type(value).__name__, {f.name: bits(getattr(value, f.name))
                                      for f in dataclasses.fields(value)}
    if isinstance(value, Mapping):
        return {key: bits(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [bits(item) for item in value]
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (float, np.floating)):
        return np.float64(value).tobytes()
    return value
