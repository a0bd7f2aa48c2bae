"""Sizing and simulation of NEW supply: batteries, thermal, displacement.

Unmet demand left after despatch defines the NEW supply requirement.
This module sizes the chosen option (battery with dedicated solar, or
one of the thermal technologies), simulates battery state of charge,
and computes the fossil-displacement feedback loops: spare battery
throughput displacing non-APM gas and coal, and the knock-on reduction
in RE curtailment when displaced coal lowers the daily peak that sets
the coal flexibility floor.

Conventions for battery flows:

* ``charge_mw`` is measured on the source side (grid or solar, before
  charging losses); the battery gains ``charge * charge_eff`` per hour.
* ``discharge_mw`` is measured on the battery side; the grid receives
  ``discharge * discharge_eff``.
* State of charge is bookkeeping, not physics: the recorded discharge
  is the attempt (capped by the inverter only), so SoC dives below the
  depth-of-discharge floor, and below zero, by exactly the energy the
  battery failed to deliver.  Delivered energy is capped by the floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from gridlab.errors import InfeasibleError, ParameterError
from gridlab.shapes import SLOTS_PER_DAY, SLOT_HOURS
from gridlab.dispatch import DispatchYear, write_table
from gridlab.scenario import EFF_SPLITS, N_YEARS, NEW_OPTIONS, YEARS, ScenarioParams

#: Displacement priority: highest marginal cost first.  The gas_2019
#: tranche is never displaced (committed utilisation pattern).
DISPLACEMENT_ORDER = ("gas_slack", "coal_slack", "coal_2019")

#: ``SocTrace`` source column, indexed by (charge_re > 0) + 2 * (charge_solar > 0).
_CHARGE_SOURCES = np.array(["", "re", "solar", "re+solar"])

_EPS = 1e-9


@dataclass(frozen=True)
class BatterySpec:
    """A battery's nameplate numbers plus the efficiency convention."""

    energy_capacity_mwh: float
    inverter_capacity_mw: float
    dod_buffer: float
    roundtrip_eff: float
    size_fraction: float = 1.0
    eff_split: str = "symmetric"

    def __post_init__(self):
        if self.energy_capacity_mwh < 0 or self.inverter_capacity_mw < 0:
            raise ParameterError("battery capacities must be >= 0")
        if self.energy_capacity_mwh > 0 and self.inverter_capacity_mw <= 0:
            raise ParameterError("a battery with energy needs a positive inverter")
        if not 0.0 < self.dod_buffer < 1.0:
            raise ParameterError("dod_buffer must lie in (0, 1)")
        if not 0.0 < self.roundtrip_eff <= 1.0:
            raise ParameterError("roundtrip_eff must lie in (0, 1]")
        if not 0.0 < self.size_fraction <= 1.0:
            raise ParameterError("size_fraction must lie in (0, 1]")
        if self.eff_split not in EFF_SPLITS:
            raise ParameterError(f"unknown eff_split {self.eff_split!r}")

    @property
    def usable_mwh(self) -> float:
        return self.energy_capacity_mwh * (1.0 - self.dod_buffer)

    @property
    def floor_mwh(self) -> float:
        return self.energy_capacity_mwh * self.dod_buffer

    @property
    def charge_eff(self) -> float:
        if self.eff_split == "charge_only":
            return self.roundtrip_eff
        return float(np.sqrt(self.roundtrip_eff))

    @property
    def discharge_eff(self) -> float:
        if self.eff_split == "charge_only":
            return 1.0
        return float(np.sqrt(self.roundtrip_eff))

    def scaled(self, size_fraction: float) -> "BatterySpec":
        """The same battery re-sized to a fraction of its full sizing."""
        if size_fraction <= 0:
            raise ParameterError("size_fraction must be > 0")
        full_energy = self.energy_capacity_mwh / self.size_fraction
        full_inverter = self.inverter_capacity_mw / self.size_fraction
        return BatterySpec(
            energy_capacity_mwh=full_energy * size_fraction,
            inverter_capacity_mw=full_inverter * size_fraction,
            dod_buffer=self.dod_buffer,
            roundtrip_eff=self.roundtrip_eff,
            size_fraction=size_fraction,
            eff_split=self.eff_split,
        )


@dataclass
class SocTrace:
    """Slot-level battery simulation output.

    ``soc_mwh`` may go negative: the shortfall below the DoD floor is
    exactly the battery-side energy that could not be delivered.
    """

    battery: BatterySpec
    soc_mwh: np.ndarray
    charge_mw: np.ndarray
    discharge_mw: np.ndarray
    served_mw: np.ndarray
    secondary_unmet_mw: np.ndarray
    charge_re_mw: np.ndarray
    charge_solar_mw: np.ndarray
    unmet_mw: np.ndarray
    source_re_mw: np.ndarray
    source_solar_mw: np.ndarray
    boundary_slot: int

    @property
    def n_slots(self) -> int:
        return self.soc_mwh.shape[0]

    def secondary_unmet_twh(self) -> float:
        return float(np.sum(self.secondary_unmet_mw)) * SLOT_HOURS / 1e6

    def to_csv(self, path) -> None:
        source = _CHARGE_SOURCES[(self.charge_re_mw > 0) + 2 * (self.charge_solar_mw > 0)]
        write_table(
            path,
            ["slot", "soc_mwh", "charge_mw", "discharge_mw", "source"],
            [np.arange(self.n_slots), self.soc_mwh, self.charge_mw, self.discharge_mw, source],
            ["%d", "%.3f", "%.3f", "%.3f", "%s"],
            "\r\n",
        )


def _horizon() -> np.ndarray:
    return np.zeros(N_YEARS)


@dataclass
class NewSupplyPlan:
    """The NEW supply decision for one scenario, one value per horizon year.

    Every array has ``N_YEARS`` entries, indexed by horizon position
    (``year - 2021``), and starts at zero.  ``capacity_mw`` is the gross
    thermal build or the battery inverter and ``energy_mwh`` the battery
    energy; they, ``dedicated_solar_gw`` and ``biodiesel_capacity_mw``
    are cumulative and never fall.  Displaced coal is kept per tranche,
    because each tranche is credited at its own fuel price.
    """

    option: str
    capacity_mw: np.ndarray = field(default_factory=_horizon)
    energy_mwh: np.ndarray = field(default_factory=_horizon)
    dedicated_solar_gw: np.ndarray = field(default_factory=_horizon)
    secondary_unmet_twh: np.ndarray = field(default_factory=_horizon)
    displaced_gas_twh: np.ndarray = field(default_factory=_horizon)
    displaced_coal_2019_twh: np.ndarray = field(default_factory=_horizon)
    displaced_coal_slack_twh: np.ndarray = field(default_factory=_horizon)
    bonus_curtailment_avoided_twh: np.ndarray = field(default_factory=_horizon)
    biodiesel_capacity_mw: np.ndarray = field(default_factory=_horizon)

    def validate(self) -> None:
        for name in ("displaced_gas_twh", "displaced_coal_2019_twh",
                     "displaced_coal_slack_twh", "bonus_curtailment_avoided_twh",
                     "secondary_unmet_twh"):
            values = getattr(self, name)
            i = int(np.argmin(values))
            if values[i] < -_EPS:
                raise ParameterError(f"{name}[{YEARS[i]}] is negative: {values[i]}")


def _pad_cycles(
    arr: np.ndarray, boundary_slot: int, fill: float = 0.0
) -> tuple[np.ndarray, int]:
    """Reshape a slot series to (cycles, 48), padding both ends with ``fill``.

    This is the one definition of a battery cycle window.  Windows are
    24h long and split at the daily cycle boundary; the leading (and
    trailing) partial window is kept, so every slot belongs to exactly
    one cycle.  Row ``i`` is window ``i``: it starts at slot
    ``max(i*48 - front, 0)`` and is booked to the calendar day it starts
    in, ``min(start // 48, n_days - 1)``, so a trailing partial window
    counts towards the last whole day.  Returns the matrix and the front
    padding length; padded slots are inert (no demand, no sources, or
    ``fill`` where a row reduction must ignore them) and are trimmed off
    after the fact.
    """
    if not 0 <= boundary_slot < SLOTS_PER_DAY:
        raise ParameterError("boundary_slot must lie in 0..47")
    n = arr.shape[0]
    front = (SLOTS_PER_DAY - boundary_slot) % SLOTS_PER_DAY
    back = (-(front + n)) % SLOTS_PER_DAY
    padded = np.concatenate([np.full(front, fill), arr, np.full(back, fill)])
    return padded.reshape(-1, SLOTS_PER_DAY), front


# --- capacity sizing ---------------------------------------------------


def size_new_capacity(
    unmet_by_year: Sequence[np.ndarray],
    shortfall_by_year: Sequence[np.ndarray],
    option: str,
    aux: float,
) -> np.ndarray:
    """Gross NEW capacity installed per year, built cumulatively.

    The net requirement in a year is the worst slot of unmet demand
    plus buffer shortfall; thermal options gross up by their auxiliary
    consumption.  Capacity once built never retires inside the horizon,
    so the installed capacity is the running maximum of the requirement.
    """
    if option not in NEW_OPTIONS:
        raise ParameterError(f"unknown NEW option {option!r}")
    if len(unmet_by_year) != len(shortfall_by_year):
        raise ParameterError("unmet and shortfall must cover the same years")
    if not 0.0 <= aux < 1.0:
        raise ParameterError(f"aux {aux} outside [0, 1)")
    required = np.zeros(len(unmet_by_year))
    for i, (u, s) in enumerate(zip(unmet_by_year, shortfall_by_year)):
        u = np.asarray(u, dtype=float)
        s = np.asarray(s, dtype=float)
        net = float(np.max(u + s)) if u.size else 0.0
        required[i] = net / (1.0 - aux)
    return np.maximum.accumulate(required)


def size_battery(
    unmet: np.ndarray,
    params: ScenarioParams,
    buffer_shortfall: np.ndarray | None = None,
) -> BatterySpec:
    """Back-calculate battery size from the unmet-demand profile.

    The inverter covers the worst slot of unmet demand (plus buffer
    shortfall) after discharge losses.  Energy covers the worst 24h
    cycle of unmet energy, grossed up for the DoD buffer and discharge
    losses, and never less than one slot of full inverter output.
    Both scale linearly with the configured size fraction.
    """
    spec = BatterySpec(
        energy_capacity_mwh=0.0,
        inverter_capacity_mw=0.0,
        dod_buffer=params.battery_dod_buffer,
        roundtrip_eff=params.battery_roundtrip_eff,
        size_fraction=params.battery_size_fraction,
        eff_split=params.battery_eff_split,
    )
    unmet = np.asarray(unmet, dtype=float)
    need = unmet if buffer_shortfall is None else unmet + np.asarray(buffer_shortfall, dtype=float)
    eta_d = spec.discharge_eff
    dod = spec.dod_buffer

    peak = float(np.max(need)) if need.size else 0.0
    inverter = peak / eta_d

    cycles, _ = _pad_cycles(unmet, params.cycle_boundary_slot)
    worst_cycle_mwh = float(np.max(cycles.sum(axis=1))) * SLOT_HOURS if cycles.size else 0.0
    energy = worst_cycle_mwh / ((1.0 - dod) * eta_d)
    energy = max(energy, inverter * SLOT_HOURS / (1.0 - dod))

    f = spec.size_fraction
    return replace(spec, energy_capacity_mwh=energy * f, inverter_capacity_mw=inverter * f)


# --- state-of-charge simulation ----------------------------------------


def _check_source(series: np.ndarray, n: int, name: str) -> None:
    if series.shape != (n,):
        raise ParameterError(f"{name} has shape {series.shape}, want ({n},)")


def simulate_soc(
    battery: BatterySpec,
    unmet,
    curtailed_re: np.ndarray,
    dedicated_solar_gen: np.ndarray,
    boundary_slot: int = 34,
) -> SocTrace:
    """Battery simulation against the unmet profile, cycle by cycle.

    Slots with unmet demand discharge (never charge); all other slots
    charge from curtailed RE first, then dedicated solar, capped by the
    inverter, a 1C charging rate, and the remaining headroom.  Every
    cycle window (a row of ``_pad_cycles``) starts from a full battery: the
    daily-full-recharge assumption used for sizing and displacement
    accounting.

    There is no loop over slots.  Only the headroom clamp makes SoC
    depend on its own past, so ``soc_t = min(soc_{t-1} + x_t, e_cap)``
    with a SoC-free step ``x_t``, solved in closed form per cycle (see
    ``_simulate_cycles``).  SoC therefore never exceeds ``e_cap``, and
    the result equals the literal slot recursion to a few ulps of
    ``e_cap``.
    """
    unmet = np.asarray(unmet, dtype=float)
    n = unmet.shape[0]
    _check_source(curtailed_re, n, "curtailed_re")
    _check_source(dedicated_solar_gen, n, "dedicated_solar_gen")

    soc, charge, discharge, served, re_take, sol_take = _simulate_cycles(
        battery, unmet, curtailed_re, dedicated_solar_gen, boundary_slot
    )
    # discharge losses round-trip through eta and leave +/- ulp dust on
    # "fully served" slots; snap anything below a watt so zero is zero
    secondary = unmet - served
    secondary[secondary < 1e-6] = 0.0
    return SocTrace(
        battery=battery,
        soc_mwh=soc,
        charge_mw=charge,
        discharge_mw=discharge,
        served_mw=served,
        secondary_unmet_mw=secondary,
        charge_re_mw=re_take,
        charge_solar_mw=sol_take,
        unmet_mw=unmet.copy(),
        source_re_mw=curtailed_re,
        source_solar_mw=dedicated_solar_gen,
        boundary_slot=boundary_slot,
    )


def _simulate_cycles(battery, unmet, re_src, sol_src, boundary_slot):
    """The slot recursion in closed form, across all cycles at once.

    Within a slot the SoC change ``x`` does not depend on SoC, except
    for the clamp at capacity: a discharging slot books the full
    attempt ``min(u/eta_d, inv)`` (SoC may dive below the floor), and a
    charging slot adds ``min(re + solar, min(inv, 1C)) * eta_c`` per
    hour, capped only by headroom.  So ``soc_t = min(soc_{t-1} + x_t,
    e_cap)`` from a full start, a Lindley recursion on the depth
    ``e_cap - soc``: with ``Z = cumsum(-x)`` along a row,
    ``depth = Z - minimum.accumulate(minimum(Z, 0))``.  The depth is
    never negative, so SoC never exceeds ``e_cap``.  Every flow then
    follows from the previous slot's SoC by the per-slot formulas.
    """
    e_cap = battery.energy_capacity_mwh
    inv = battery.inverter_capacity_mw
    floor = battery.floor_mwh
    eta_c = battery.charge_eff
    eta_d = battery.discharge_eff
    c_max = min(inv, e_cap)  # inverter and 1C charging rate

    u_m, front = _pad_cycles(unmet, boundary_slot)
    r_m, _ = _pad_cycles(re_src, boundary_slot)
    s_m, _ = _pad_cycles(sol_src, boundary_slot)
    on = u_m > 0
    off = ~on

    # Mask products, not np.where, and in-place updates: every fresh
    # (cycles, 48) temporary costs more than the arithmetic on it.
    discharge_m = np.minimum(u_m / eta_d, inv)
    discharge_m *= on
    gain = np.minimum(r_m + s_m, c_max)
    gain *= off
    gain *= eta_c * SLOT_HOURS
    z = np.cumsum(discharge_m * SLOT_HOURS - gain, axis=1)  # cumsum(-x)
    low = np.minimum(z, 0.0)
    np.minimum.accumulate(low, axis=1, out=low)
    z -= low  # the depth below full
    soc_m = np.subtract(e_cap, z, out=z)

    prev = np.empty_like(soc_m)
    prev[:, 0] = e_cap
    prev[:, 1:] = soc_m[:, :-1]
    served_m = prev - floor
    np.maximum(served_m, 0.0, out=served_m)
    served_m /= SLOT_HOURS
    np.minimum(discharge_m, served_m, out=served_m)
    served_m *= on
    served_m *= eta_d
    cap = np.subtract(e_cap, prev, out=prev)  # headroom, as source-side MW
    np.maximum(cap, 0.0, out=cap)
    cap /= eta_c * SLOT_HOURS
    np.minimum(cap, c_max, out=cap)
    re_m = np.minimum(r_m, cap, out=r_m)
    re_m *= off
    cap -= re_m
    sol_m = np.minimum(s_m, cap, out=s_m)
    sol_m *= off
    charge_m = re_m + sol_m

    sl = slice(front, front + unmet.shape[0])
    flat = lambda m: m.reshape(-1)[sl]
    return (flat(soc_m), flat(charge_m), flat(discharge_m),
            flat(served_m), flat(re_m), flat(sol_m))


# --- dedicated solar sizing ---------------------------------------------


def _solar_gen(solar_shape: np.ndarray, capacity_gw: float, n: int) -> np.ndarray:
    if solar_shape.shape[0] != n:
        raise ParameterError("solar shape length must match the unmet series")
    return solar_shape * capacity_gw * 1e3


def _cycle_secondary_unmet(battery, unmet, re_src, solar, boundary_slot) -> float:
    trace = simulate_soc(battery, unmet, re_src, solar, boundary_slot=boundary_slot)
    return float(np.sum(trace.secondary_unmet_mw))


def _cycle_full_recharge(battery, re_src, solar, boundary_slot) -> bool:
    """Could every full cycle's sources refill one usable battery load?

    An energy-budget test: source MW through the inverter (and 1C cap),
    charge efficiency applied, summed over the cycle, against the usable
    capacity.  Budget rather than trace, because on days where unmet
    demand overlaps the solar window no trace can both serve load and
    show a full recharge; the daily-recharge assumption is an energy
    statement.  Partial windows at the year's edges are skipped: they
    lack a full day of sun by construction, not by undersizing.
    """
    cap = min(battery.inverter_capacity_mw, battery.energy_capacity_mwh)
    src_m, front = _pad_cycles(np.minimum(re_src + solar, cap), boundary_slot)
    budget = src_m.sum(axis=1) * battery.charge_eff * SLOT_HOURS

    starts = np.arange(src_m.shape[0]) * SLOTS_PER_DAY - front
    full = (starts >= 0) & (starts + SLOTS_PER_DAY <= re_src.shape[0])
    return bool(np.all(budget[full] >= battery.usable_mwh - 1e-6))


def _search_smallest(predicate, tolerance_gw: float, max_gw: float, what: str) -> float:
    """Smallest capacity satisfying a monotone predicate, by bisection.

    A doubling ladder 1, 2, 4, ... GW (up to ``max_gw``) brackets the
    answer, then bisection narrows it to ``tolerance_gw``.  Because the
    predicate is monotone, the ladder's top rung alone decides
    feasibility: if it fails, every lower rung fails too, so an
    infeasible search costs two predicate calls instead of the whole
    ladder.  Both callers' predicates are monotone in solar GW: more
    solar only raises every slot's SoC, and the recharge budget is a sum
    of ``min``s.
    """
    if not math.isfinite(max_gw):
        raise ParameterError(f"max_gw must be finite, got {max_gw}")
    if predicate(0.0):
        return 0.0
    top = 1.0  # the ladder's last rung
    while 2.0 * top <= max_gw:
        top *= 2.0
    if not predicate(top):
        raise InfeasibleError(
            f"no dedicated solar capacity below {max_gw:g} GW achieves {what}"
        )
    hi = 1.0
    while not predicate(hi):  # stops at top at the latest
        hi *= 2.0
    lo = hi / 2.0 if hi > 1.0 else 0.0
    while hi - lo > tolerance_gw:
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return hi


def size_for_full_recharge(
    battery: BatterySpec,
    curtailed_re: np.ndarray,
    unmet,
    solar_shape: np.ndarray,
    boundary_slot: int = 34,
    tolerance_gw: float = 0.1,
    max_gw: float = 10_000.0,
) -> float:
    """Smallest dedicated solar that refills the battery every cycle."""
    if battery.energy_capacity_mwh <= 0:
        return 0.0
    n = np.asarray(unmet).shape[0]
    _check_source(curtailed_re, n, "curtailed_re")

    def ok(gw: float) -> bool:
        return _cycle_full_recharge(battery, curtailed_re,
                                    _solar_gen(solar_shape, gw, n), boundary_slot)

    return _search_smallest(ok, tolerance_gw, max_gw, "full daily recharge")


def size_dedicated_solar(
    battery: BatterySpec,
    curtailed_re: np.ndarray,
    unmet,
    solar_shape: np.ndarray,
    extra: float,
    boundary_slot: int = 34,
    tolerance_gw: float = 0.1,
    max_gw: float = 10_000.0,
) -> float:
    """Dedicated solar GW between minimum-service and full-recharge sizing.

    The minimum is the smallest capacity leaving zero secondary unmet
    in every cycle; the maximum additionally refills the battery daily.
    ``extra`` interpolates between the two.  Raises InfeasibleError if
    even the largest searched capacity cannot serve the unmet profile,
    which is the signature of a deliberately undersized battery.
    ``solar_shape`` is the per-MW output profile, one value per slot of
    ``unmet``.
    """
    if not 0.0 <= extra <= 1.0:
        raise ParameterError("extra must lie in [0, 1]")
    if battery.energy_capacity_mwh <= 0:
        return 0.0
    unmet = np.asarray(unmet, dtype=float)
    n = unmet.shape[0]
    _check_source(curtailed_re, n, "curtailed_re")

    def served(gw: float) -> bool:
        gap = _cycle_secondary_unmet(battery, unmet, curtailed_re,
                                     _solar_gen(solar_shape, gw, n), boundary_slot)
        return gap <= _EPS

    minimum = _search_smallest(served, tolerance_gw, max_gw, "zero secondary unmet")
    if extra == 0.0:
        return minimum
    maximum = size_for_full_recharge(
        battery, curtailed_re, unmet, solar_shape,
        boundary_slot=boundary_slot, tolerance_gw=tolerance_gw, max_gw=max_gw,
    )
    maximum = max(maximum, minimum)
    return minimum + extra * (maximum - minimum)


# --- displacement -------------------------------------------------------


@dataclass(frozen=True)
class Displacement:
    """Battery spare throughput turned into fossil displacement."""

    displaced_twh: dict[str, float]  # by tranche of DISPLACEMENT_ORDER
    per_day_mwh: dict[str, np.ndarray]  # calendar-day attribution


def displace_with_battery(soc: SocTrace, dy: DispatchYear) -> Displacement:
    """Spare battery throughput displacing fossil output, cycle by cycle.

    Every quantity is a row reduction over ``_pad_cycles`` matrices, one
    row per cycle window.  Spare energy per cycle is the conservative
    minimum of the unused discharge depth (the lowest state of charge
    kept above the floor) and the charging the sources could still have
    provided.  It displaces the most expensive displaceable tranche
    first, energy-matched against that tranche's output within the
    cycle; gas_2019 is never touched.  Volumes are attributed to the
    calendar day each cycle starts in (see ``_pad_cycles``).
    """
    battery = soc.battery
    eta_c = battery.charge_eff
    eta_d = battery.discharge_eff
    boundary = soc.boundary_slot
    n_days = soc.n_slots // SLOTS_PER_DAY

    # untapped charging per slot: leftover source up to the unused
    # inverter/1C headroom, in charging-eligible slots only
    leftover = (soc.source_re_mw - soc.charge_re_mw) + (soc.source_solar_mw - soc.charge_solar_mw)
    headroom = np.minimum(battery.inverter_capacity_mw,
                          battery.energy_capacity_mwh) - soc.charge_mw
    can_charge = soc.unmet_mw <= 0
    extra_charge = np.where(can_charge, np.minimum(leftover, np.maximum(headroom, 0.0)), 0.0)

    # padding the SoC with a full battery leaves each row's minimum at
    # min(capacity, lowest SoC in the window)
    soc_m, front = _pad_cycles(soc.soc_mwh, boundary, fill=battery.energy_capacity_mwh)
    depth_margin = np.maximum(soc_m.min(axis=1) - battery.floor_mwh, 0.0) * eta_d
    charge_m, _ = _pad_cycles(extra_charge, boundary)
    charge_margin = charge_m.sum(axis=1) * SLOT_HOURS * eta_c * eta_d
    spare = np.minimum(depth_margin, charge_margin)

    starts = np.maximum(np.arange(soc_m.shape[0]) * SLOTS_PER_DAY - front, 0)
    day = np.minimum(starts // SLOTS_PER_DAY, n_days - 1)
    per_day: dict[str, np.ndarray] = {}
    displaced_twh: dict[str, float] = {}
    for name in DISPLACEMENT_ORDER:
        output_m, _ = _pad_cycles(dy.supply[name], boundary)
        take = np.minimum(spare, np.maximum(output_m.sum(axis=1) * SLOT_HOURS, 0.0))
        spare = spare - take
        per_day[name] = np.bincount(day, weights=take, minlength=n_days)
        displaced_twh[name] = float(np.sum(take)) / 1e6

    return Displacement(displaced_twh=displaced_twh, per_day_mwh=per_day)


def _lowered_daily_max(coal_days: np.ndarray, displaced_mwh: np.ndarray) -> np.ndarray:
    """Water-fill level per day after shaving displaced energy off the top.

    Each row of ``coal_days`` holds one day's 48 coal outputs; stacked
    descending, they lose that day's ``displaced_mwh`` from the top.  The
    return value is each day's resulting new maximum: the old maximum
    where nothing is displaced, zero where the whole day is.
    """
    rows = np.arange(coal_days.shape[0])
    desc = np.sort(coal_days, axis=1)[:, ::-1]
    total = desc.sum(axis=1) * SLOT_HOURS
    # drops[:, k] = energy removed once the level has sunk to desc[:, k+1]
    steps = (desc[:, :-1] - desc[:, 1:]) * np.arange(1, SLOTS_PER_DAY) * SLOT_HOURS
    drops = np.cumsum(steps, axis=1)
    # the level settles between desc[:, k+1] and desc[:, k], k+1 slots above it
    k = np.sum(drops < displaced_mwh[:, None], axis=1)
    removed_above = np.concatenate([np.zeros((rows.size, 1)), drops], axis=1)[rows, k]
    level = desc[rows, k] - (displaced_mwh - removed_above) / ((k + 1) * SLOT_HOURS)
    level = np.where(displaced_mwh >= total, 0.0, level)
    return np.where(displaced_mwh <= 0, desc[:, 0], level)


def coal_peak_bonus(
    dy: DispatchYear,
    coal_displaced_in_day: np.ndarray,
    flex_limit: float,
) -> np.ndarray:
    """Avoided flex-induced curtailment per day, in MWh.

    Displaced coal comes off the top of each day's stacked output
    curve, lowering the daily maximum and with it the flexibility
    floor.  The avoided curtailment is what the flex pass would no
    longer have had to curtail at the lower floor, recomputed with the
    same slot arithmetic the flex pass itself uses, on (days, 48)
    matrices.
    """
    if dy.flex_re_cut is None or dy.coal_flex_floor is None:
        raise ParameterError("coal_peak_bonus needs a flex-adjusted despatch year")
    if coal_displaced_in_day.shape != (dy.n_days,):
        raise ParameterError(
            f"displaced energy has shape {coal_displaced_in_day.shape}, want ({dy.n_days},)"
        )

    days = (dy.n_days, SLOTS_PER_DAY)
    coal = dy.coal_total().reshape(days)
    cut = (dy.flex_re_cut + dy.flex_hydro_cut).reshape(days)
    # pre-flex net demand and absorbable must-run, reconstructed
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


def displace_gas_with_new_coal(new_coal_mw: float, dy: DispatchYear) -> float:
    """Displaced gas_slack energy (TWh) from spare NEW-coal headroom.

    NEW coal runs up into its headroom wherever non-APM gas is still
    generating; coal output only ever rises, so the flexibility floor
    of the combined fleet cannot be violated.
    """
    if new_coal_mw < 0:
        raise ParameterError("new_coal_mw must be >= 0")
    spare = np.maximum(new_coal_mw - dy.supply["new"], 0.0)
    displaced = np.minimum(spare, dy.supply["gas_slack"])
    return float(np.sum(displaced)) * SLOT_HOURS / 1e6
