"""Slow, independent reference computations for cross-checking fast paths.

Everything in here favours obviousness over speed: literal recursions,
bisection instead of closed forms, an LP solver instead of the greedy
merit stack, and one ``csv.writer`` row per slot instead of block-wise
``%`` formatting.
"""

import csv

import numpy as np
from scipy.optimize import linprog

from gridlab.dispatch import (
    SUPPLY_KEYS,
    TRANCHES,
    apply_coal_flex,
    attach_must_run,
    load_duration_curve,
    merit_dispatch,
    net_demand,
    split_must_run,
)
from gridlab.errors import InfeasibleError, ParameterError
from gridlab.newsupply import (
    DISPLACEMENT_ORDER,
    Displacement,
    simulate_soc,
)
from gridlab.shapes import SLOTS_PER_DAY, SLOT_HOURS, HalfHourlySeries, map_values_to_year

UNMET_PRICE = 1.0e5  # Rs/kWh-scale penalty, far above any fuel


def series_to_year(series, year):
    """A base-year series mapped onto another year's slot grid (leap aware)."""
    values = map_values_to_year(series.values, series.year, year)
    return HalfHourlySeries(year, values, label=series.label)


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
    """The production path: net, merit order, must-run attach, flex floor."""
    net, interim = net_demand(demand, re, hydro, nuclear)
    must = split_must_run(demand, re, hydro, nuclear)
    pre = merit_dispatch(net, [(k, caps[k]) for k in TRANCHES])
    pre = attach_must_run(pre, must, interim)
    return pre, apply_coal_flex(pre, flex)


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
    """The full doubling ladder, 1, 2, 4, ... GW, then bisection.

    Walks every rung up to ``max_gw`` before giving up, so it calls the
    predicate about ``log2(max_gw)`` times on an infeasible search.
    """
    if predicate(0.0):
        return 0.0
    hi = 1.0
    while not predicate(hi):
        hi *= 2.0
        if hi > max_gw:
            raise InfeasibleError(
                f"no dedicated solar capacity below {max_gw:g} GW achieves {what}"
            )
    lo = hi / 2.0 if hi > 1.0 else 0.0
    while hi - lo > tolerance_gw:
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return hi


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
    charging, spent on the tranches in ``DISPLACEMENT_ORDER`` and booked
    to the calendar day the window starts in.
    """
    battery = soc.battery
    eta_c = battery.charge_eff
    eta_d = battery.discharge_eff
    windows = cycle_windows(soc.n_slots, soc.boundary_slot)
    n_days = soc.n_slots // SLOTS_PER_DAY

    leftover = (soc.source_re_mw - soc.charge_re_mw) + (soc.source_solar_mw - soc.charge_solar_mw)
    headroom = min(battery.inverter_capacity_mw, battery.energy_capacity_mwh) - soc.charge_mw
    extra_charge = np.where(soc.unmet_mw <= 0,
                            np.minimum(leftover, np.maximum(headroom, 0.0)), 0.0)

    spare_cycle = np.zeros(len(windows))
    per_day = {name: np.zeros(n_days) for name in DISPLACEMENT_ORDER}
    displaced_total = {name: 0.0 for name in DISPLACEMENT_ORDER}
    for i, (a, b) in enumerate(windows):
        min_soc = min(battery.energy_capacity_mwh, float(np.min(soc.soc_mwh[a:b])))
        depth_margin = max(min_soc - battery.floor_mwh, 0.0) * eta_d
        charge_margin = float(np.sum(extra_charge[a:b])) * SLOT_HOURS * eta_c * eta_d
        spare = min(depth_margin, charge_margin)
        spare_cycle[i] = spare

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
        spare_twh=float(np.sum(spare_cycle)) / 1e6,
        displaced_twh={k: v / 1e6 for k, v in displaced_total.items()},
        per_day_mwh=per_day,
        per_cycle_spare_mwh=spare_cycle,
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
    rerun = apply_coal_flex(dy_pre, flex, floor_day=new_floor)
    old_cut = dy_flexed.flex_re_cut + dy_flexed.flex_hydro_cut
    new_cut = rerun.flex_re_cut + rerun.flex_hydro_cut
    per_day = (old_cut - new_cut).reshape(n_days, SLOTS_PER_DAY).sum(axis=1)
    return per_day * SLOT_HOURS


def undersize_residual(
    battery,
    size_fraction,
    unmet,
    curtailed_re=None,
    solar_gen=None,
    net_capacity_mw=None,
    boundary_slot=34,
):
    """Secondary unmet when NEW supply is undersized, and its peak MW.

    ``battery`` is the full-size BatterySpec, or None for thermal.
    Batteries re-simulate at the reduced size; thermal capacity simply
    truncates slot-wise.  The peak is what a biodiesel backstop must be
    able to serve.
    """
    if not 0.0 < size_fraction <= 1.0:
        raise ParameterError("size_fraction must lie in (0, 1]")
    unmet = np.asarray(unmet, dtype=float)
    if battery is not None:
        scaled = battery.scaled(size_fraction)
        zeros = np.zeros(unmet.shape[0])
        trace = simulate_soc(
            scaled, unmet,
            zeros if curtailed_re is None else curtailed_re,
            zeros if solar_gen is None else solar_gen,
            boundary_slot=boundary_slot,
        )
        secondary = trace.secondary_unmet_mw
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
        for s in range(trace.n_slots):
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
