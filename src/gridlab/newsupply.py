"""Sizing and simulation of NEW supply: batteries, thermal, displacement.

Unmet demand left after despatch defines the NEW supply requirement.
This module sizes the chosen option (battery with dedicated solar, or
one of the thermal technologies), simulates battery state of charge,
and computes the fossil-displacement feedback loops: spare battery
throughput displacing non-APM gas and coal, and the knock-on reduction
in RE curtailment when displaced coal lowers the daily peak that sets
the coal flexibility floor.

A battery year works on one set of cycle matrices: ``CycleYear`` pads
the unmet profile, the curtailed RE and the solar shape once into
``(cycles, 48)`` rows, one per daily cycle window.  Sizing, the SoC
kernel and the displacement read those rows, and ``SocTrace`` flattens
them only as views.  Rows are independent, so a solar-sizing probe
tests only the cycles a lower capacity left unserved.  Dedicated solar
is sized by two searches, the minimum-service one
(``size_dedicated_solar``) and the full-recharge one
(``size_for_full_recharge``), which ``dedicated_solar_gw`` blends.

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
from dataclasses import dataclass, field

import numpy as np

from gridlab.errors import InfeasibleError, InvariantError
from gridlab.shapes import SLOTS_PER_DAY, SLOT_HOURS
from gridlab.dispatch import DispatchYear, write_table
from gridlab.scenario import N_YEARS, YEARS, ScenarioParams

#: Displacement priority: highest marginal cost first.  The gas_2019
#: tranche is never displaced (committed utilisation pattern).
DISPLACEMENT_ORDER = ("gas_slack", "coal_slack", "coal_2019")

#: ``SocTrace`` source column, indexed by (charge_re > 0) + 2 * (charge_solar > 0).
_CHARGE_SOURCES = np.array(["", "re", "solar", "re+solar"])

_EPS = 1e-9

#: MW of secondary unmet per slot, or MWh of spare energy per cycle,
#: below this is rounding residue and is zero.
RESIDUE = 1e-6


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
            raise InvariantError("battery capacities must be >= 0")
        if self.energy_capacity_mwh > 0 and self.inverter_capacity_mw <= 0:
            raise InvariantError("a battery with energy needs a positive inverter")

    @property
    def usable_mwh(self) -> float:
        return self.energy_capacity_mwh * (1.0 - self.dod_buffer)

    @property
    def floor_mwh(self) -> float:
        return self.energy_capacity_mwh * self.dod_buffer

    @staticmethod
    def efficiencies(roundtrip_eff: float, eff_split: str) -> tuple[float, float]:
        """``(charge, discharge)`` efficiency: ``charge_only`` books the
        whole round-trip loss on charge, ``symmetric`` its root each way."""
        if eff_split == "charge_only":
            return roundtrip_eff, 1.0
        root = float(np.sqrt(roundtrip_eff))
        return root, root

    @property
    def charge_eff(self) -> float:
        return self.efficiencies(self.roundtrip_eff, self.eff_split)[0]

    @property
    def discharge_eff(self) -> float:
        return self.efficiencies(self.roundtrip_eff, self.eff_split)[1]

    def scaled(self, size_fraction: float) -> "BatterySpec":
        """The same battery re-sized to a fraction of its full sizing."""
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


@dataclass(frozen=True, eq=False)
class CycleYear:
    """One year's battery inputs, each padded once to (cycles, 48).

    Row ``i`` of every matrix is cycle window ``i`` of ``_pad_cycles``,
    which starts at year slot ``starts[i]`` (negative for the padded
    lead).  ``solar_shape`` is dedicated solar output per MW.  ``flat``
    trims a matrix of this layout back to the year's slots, as a view.
    """

    unmet: np.ndarray
    curtailed_re: np.ndarray
    solar_shape: np.ndarray
    front: int
    n_slots: int
    boundary_slot: int

    @classmethod
    def pad(cls, unmet, curtailed_re, solar_shape, boundary_slot: int) -> "CycleYear":
        n = unmet.shape[0]
        for name, source in (("curtailed_re", curtailed_re), ("solar_shape", solar_shape)):
            if source.shape != (n,):
                raise InvariantError(f"{name} has shape {source.shape}, want ({n},)")
        unmet_m, front = _pad_cycles(np.asarray(unmet, dtype=float), boundary_slot)
        return cls(unmet_m, _pad_cycles(curtailed_re, boundary_slot)[0],
                   _pad_cycles(solar_shape, boundary_slot)[0], front, n, boundary_slot)

    @property
    def starts(self) -> np.ndarray:
        return np.arange(self.unmet.shape[0]) * SLOTS_PER_DAY - self.front

    def flat(self, m: np.ndarray) -> np.ndarray:
        return m.reshape(-1)[self.front:self.front + self.n_slots]

    def solar(self, gw: float) -> np.ndarray:
        return self.solar_shape * gw * 1e3


def _slots(matrix) -> property:
    return property(lambda trace: trace.year.flat(matrix(trace)))


@dataclass(frozen=True)
class SocTrace:
    """One year's battery simulation, on the year's cycle matrices.

    Every array field is a (cycles, 48) matrix in ``year``'s layout; the
    ``*_mw`` and ``soc_mwh`` properties are the slot series.  ``soc``
    may go negative: the shortfall below the DoD floor is exactly the
    battery-side energy that could not be delivered.  ``solar_gw`` of
    dedicated solar output is ``year.solar(solar_gw)``.
    """

    battery: BatterySpec
    year: CycleYear
    solar_gw: float
    soc: np.ndarray
    discharge: np.ndarray
    charge_re: np.ndarray
    charge_solar: np.ndarray
    secondary_unmet: np.ndarray

    @property
    def charge(self) -> np.ndarray:
        return self.charge_re + self.charge_solar

    soc_mwh = _slots(lambda t: t.soc)
    charge_mw = _slots(lambda t: t.charge)
    discharge_mw = _slots(lambda t: t.discharge)
    charge_re_mw = _slots(lambda t: t.charge_re)
    charge_solar_mw = _slots(lambda t: t.charge_solar)
    secondary_unmet_mw = _slots(lambda t: t.secondary_unmet)

    def to_csv(self, path) -> None:
        source = _CHARGE_SOURCES[(self.charge_re_mw > 0) + 2 * (self.charge_solar_mw > 0)]
        write_table(
            path,
            ["slot", "soc_mwh", "charge_mw", "discharge_mw", "source"],
            [np.arange(self.year.n_slots), self.soc_mwh, self.charge_mw, self.discharge_mw, source],
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
                raise InvariantError(f"{name}[{YEARS[i]}] is negative: {values[i]}")


def _pad_cycles(arr: np.ndarray, boundary_slot: int) -> tuple[np.ndarray, int]:
    """Reshape a slot series to (cycles, 48), padding both ends with zeros.

    This is the one definition of a battery cycle window.  Windows are
    24h long and split at the daily cycle boundary; the leading (and
    trailing) partial window is kept, so every slot belongs to exactly
    one cycle.  Row ``i`` is window ``i``: it starts at slot
    ``max(i*48 - front, 0)`` and is booked to the calendar day it starts
    in, ``min(start // 48, n_days - 1)``, so a trailing partial window
    counts towards the last whole day.  Returns the matrix and the front
    padding length; padded slots are inert (no demand, no sources) and
    are trimmed off after the fact.
    """
    n = arr.shape[0]
    front = (SLOTS_PER_DAY - boundary_slot) % SLOTS_PER_DAY
    back = (-(front + n)) % SLOTS_PER_DAY
    padded = np.concatenate([np.zeros(front), arr, np.zeros(back)])
    return padded.reshape(-1, SLOTS_PER_DAY), front


# --- capacity sizing ---------------------------------------------------


def size_new_capacity(required_mw: float, aux: float, built_mw: float = 0.0) -> float:
    """Gross NEW capacity installed by one year, built cumulatively.

    ``required_mw`` is the year's net requirement, the worst slot of
    unmet demand plus buffer shortfall (``dispatch.compute_unmet``);
    thermal options gross up by their auxiliary consumption ``aux``,
    which ``ScenarioParams`` holds to [0, 1).  Capacity once built
    never retires inside the horizon, so the installed capacity is the
    larger of ``built_mw``, what the earlier years installed, and this
    year's gross requirement: stepped through the years, the running
    maximum of the requirement.
    """
    return float(np.maximum(built_mw, required_mw / (1.0 - aux)))


def size_battery(year: CycleYear, params: ScenarioParams, peak_mw: float) -> BatterySpec:
    """Back-calculate battery size from the unmet-demand profile.

    The inverter covers ``peak_mw``, the worst slot of unmet demand plus
    buffer shortfall (``dispatch.compute_unmet``), after discharge
    losses.  Energy covers the worst 24h cycle of unmet energy, grossed
    up for the DoD buffer and discharge losses, and never less than one
    slot of full inverter output.  Both scale linearly with the
    configured size fraction.
    """
    rt, split = params.battery_roundtrip_eff, params.battery_eff_split
    eta_d = BatterySpec.efficiencies(rt, split)[1]
    dod = params.battery_dod_buffer

    inverter = peak_mw / eta_d
    cycles = year.unmet
    worst_cycle_mwh = float(np.max(cycles.sum(axis=1))) * SLOT_HOURS if cycles.size else 0.0
    energy = worst_cycle_mwh / ((1.0 - dod) * eta_d)
    energy = max(energy, inverter * SLOT_HOURS / (1.0 - dod))

    f = params.battery_size_fraction
    return BatterySpec(energy * f, inverter * f, dod, rt, f, split)


# --- state-of-charge simulation ----------------------------------------


def simulate_soc(battery: BatterySpec, year: CycleYear, solar_gw: float) -> SocTrace:
    """Battery simulation against the year's unmet profile, cycle by cycle.

    Slots with unmet demand discharge (never charge); all other slots
    charge from curtailed RE first, then ``solar_gw`` of dedicated
    solar, capped by the inverter, a 1C charging rate, and the remaining
    headroom.  Every cycle window (a row of ``year``) starts from a full
    battery: the daily-full-recharge assumption used for sizing and
    displacement accounting.  ``_simulate_cycles`` does the work; this
    adds the secondary unmet, zero below ``RESIDUE`` (see
    ``secondary_unmet``), and wraps the matrices in a ``SocTrace``.
    """
    solar = year.solar(solar_gw)
    soc, discharge, served, re, sol = _simulate_cycles(
        battery, year.unmet, year.curtailed_re, solar)
    secondary = secondary_unmet(year.unmet, served)
    return SocTrace(battery, year, solar_gw, soc, discharge, re, sol, secondary)


def secondary_unmet(unmet: np.ndarray, served: np.ndarray) -> np.ndarray:
    """The secondary unmet a NEW option leaves, ``unmet - served`` per
    slot, with values below ``RESIDUE`` set to +0.0.

    This is the one definition for every option: a battery's discharge
    losses round-trip through eta and leave +/- ulp dust on fully served
    slots, and a thermal build grossed up and back down by its aux may
    fall an ulp short of the peak it was sized for.
    """
    secondary = unmet - served
    secondary[secondary < RESIDUE] = 0.0
    return secondary


def _simulate_cycles(battery, u_m, r_m, s_m):
    """The SoC kernel: the slot recursion in closed form, row by row.

    Takes unmet, curtailed RE and dedicated solar MW for any rows of a
    ``CycleYear`` and returns, without writing its inputs, the SoC,
    discharge, served, RE-charge and solar-charge matrices.
    Each row is one cycle from a full battery, computed on its own.

    Within a slot the SoC change ``x`` does not depend on SoC, except
    for the clamp at capacity: a discharging slot books the full
    attempt ``min(u/eta_d, inv)`` (SoC may dive below the floor), and a
    charging slot adds ``min(re + solar, min(inv, 1C)) * eta_c`` per
    hour, capped only by headroom.  So ``soc_t = min(soc_{t-1} + x_t,
    e_cap)`` from a full start, a Lindley recursion on the depth
    ``e_cap - soc``: with ``Z = cumsum(-x)`` along a row,
    ``depth = Z - minimum.accumulate(minimum(Z, 0))``.  The depth is
    never negative, so SoC never exceeds ``e_cap``.  Every flow then
    follows from the previous slot's SoC by the per-slot formulas.  The
    result equals the literal slot recursion to a few ulps of ``e_cap``.
    """
    e_cap = battery.energy_capacity_mwh
    inv = battery.inverter_capacity_mw
    floor = battery.floor_mwh
    eta_c = battery.charge_eff
    eta_d = battery.discharge_eff
    c_max = min(inv, e_cap)  # inverter and 1C charging rate

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
    re_m = np.minimum(r_m, cap)
    re_m *= off
    cap -= re_m
    sol_m = np.minimum(s_m, cap, out=cap)
    sol_m *= off
    return soc_m, discharge_m, served_m, re_m, sol_m


# --- dedicated solar sizing ---------------------------------------------


def _unresolved_rows(fails, *matrices: np.ndarray):
    """A monotone predicate over solar GW that re-tests only failing rows.

    ``fails(gw, *matrices)`` flags which rows of the row-aligned
    ``matrices`` fail at ``gw``.  Rows are independent and each row's
    test is monotone in GW, so a row that passed at the largest failing
    GW so far passes at any higher GW: a probe above it re-tests only
    the rows it left failing, and one at or below it fails untested.
    Those rows are sliced out of ``matrices`` once, when a probe narrows
    them.  The answers are exact.
    """
    fail_gw = -math.inf

    def predicate(gw: float) -> bool:
        nonlocal fail_gw, matrices
        if gw <= fail_gw:
            return False
        bad = fails(gw, *matrices)
        if not bad.any():
            return True
        fail_gw = gw
        if not bad.all():
            matrices = tuple(m[bad] for m in matrices)
        return False

    return predicate


def _search_smallest(predicate, tolerance_gw: float, max_gw: float, what: str) -> float:
    """Smallest capacity satisfying a monotone predicate, by bisection.

    A doubling ladder ``first, 2*first, ...`` GW (up to ``max_gw``, with
    ``first = min(1, max_gw)``) brackets the answer, then bisection
    narrows it to ``tolerance_gw``; no answer exceeds ``max_gw``.
    Because the predicate is monotone, the ladder's top rung alone
    decides feasibility: if it fails, every lower rung fails too, so an
    infeasible search costs two predicate calls instead of the whole
    ladder.  Both callers' predicates are monotone in solar GW: more
    solar only raises every slot's SoC, and the recharge budget is a sum
    of ``min``s.
    """
    if not (math.isfinite(max_gw) and max_gw > 0):
        raise InvariantError(f"max_gw must be finite and positive, got {max_gw}")
    if predicate(0.0):
        return 0.0
    first = min(1.0, max_gw)
    top = first  # the ladder's last rung
    while 2.0 * top <= max_gw:
        top *= 2.0
    if not predicate(top):
        raise InfeasibleError(
            f"no dedicated solar capacity below {max_gw:g} GW achieves {what}"
        )
    hi = first
    while not predicate(hi):  # stops at top at the latest
        hi *= 2.0
    lo = hi / 2.0 if hi > first else 0.0
    while hi - lo > tolerance_gw:
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return hi


def size_for_full_recharge(battery: BatterySpec, year: CycleYear,
                           tolerance_gw: float = 0.1, max_gw: float = 10_000.0) -> float:
    """Smallest dedicated solar that refills the battery every cycle.

    An energy-budget test: source MW through the inverter (and 1C cap),
    charge efficiency applied, summed over the cycle, against the usable
    capacity.  Budget rather than trace, because on days where unmet
    demand overlaps the solar window no trace can both serve load and
    show a full recharge; the daily-recharge assumption is an energy
    statement.  Partial windows at the year's edges are skipped: they
    lack a full day of sun by construction, not by undersizing.
    """
    if battery.energy_capacity_mwh <= 0:
        return 0.0
    cap = min(battery.inverter_capacity_mw, battery.energy_capacity_mwh)
    need = battery.usable_mwh - RESIDUE
    full = (year.starts >= 0) & (year.starts + SLOTS_PER_DAY <= year.n_slots)

    def short(gw: float, re: np.ndarray, shape: np.ndarray) -> np.ndarray:
        source = np.minimum(re + shape * gw * 1e3, cap)
        return source.sum(axis=1) * battery.charge_eff * SLOT_HOURS < need

    every_full_row = _unresolved_rows(short, year.curtailed_re[full], year.solar_shape[full])
    return _search_smallest(every_full_row, tolerance_gw, max_gw, "full daily recharge")


def size_dedicated_solar(battery: BatterySpec, year: CycleYear, tolerance_gw: float = 0.1,
                         max_gw: float = 10_000.0, zero_gw: SocTrace | None = None) -> float:
    """Smallest dedicated solar GW that serves the battery's unmet profile.

    That is the smallest capacity leaving zero secondary unmet (no slot
    at or above ``RESIDUE`` MW) in every cycle.  Raises InfeasibleError
    if even the largest searched capacity cannot, which is the
    signature of a deliberately undersized battery.  ``zero_gw``, if
    given, is this battery's ``simulate_soc`` trace on ``year`` at 0 GW:
    the search's first probe reads it instead of simulating again.
    """
    if zero_gw is not None and (zero_gw.battery, zero_gw.year, zero_gw.solar_gw) != (
            battery, year, 0.0):
        raise InvariantError("zero_gw must be this battery's trace on this year at 0 GW")
    if battery.energy_capacity_mwh <= 0:
        return 0.0

    def unserved(gw: float, unmet: np.ndarray, re: np.ndarray, shape: np.ndarray) -> np.ndarray:
        if gw == 0.0 and zero_gw is not None:  # the first probe: every row
            secondary = zero_gw.secondary_unmet
        else:
            served = _simulate_cycles(battery, unmet, re, shape * gw * 1e3)[2]
            secondary = secondary_unmet(unmet, served)
        return (secondary > 0).any(axis=1)

    every_row = _unresolved_rows(unserved, year.unmet, year.curtailed_re, year.solar_shape)
    return _search_smallest(every_row, tolerance_gw, max_gw, "zero secondary unmet")


def dedicated_solar_gw(minimum_gw: float, full_recharge_gw: float, extra: float) -> float:
    """The dedicated solar built: ``extra`` of the way from the
    minimum-service size to the full-recharge size, the larger of the
    two searches' answers."""
    maximum = max(full_recharge_gw, minimum_gw)
    return minimum_gw + extra * (maximum - minimum_gw)


# --- displacement -------------------------------------------------------


@dataclass(frozen=True)
class Displacement:
    """Battery spare throughput turned into fossil displacement."""

    displaced_twh: dict[str, float]  # by tranche of DISPLACEMENT_ORDER
    per_day_mwh: dict[str, np.ndarray]  # calendar-day attribution


def tranche_cycle_mwh(dy: DispatchYear, year: CycleYear) -> dict[str, np.ndarray]:
    """Each displaceable tranche's output in every cycle window of
    ``year``, in MWh and never below zero, by ``DISPLACEMENT_ORDER``."""
    return {name: np.maximum(
        _pad_cycles(dy.supply[name], year.boundary_slot)[0].sum(axis=1) * SLOT_HOURS, 0.0)
        for name in DISPLACEMENT_ORDER}


def displace_with_battery(soc: SocTrace, tranche_mwh: dict[str, np.ndarray]) -> Displacement:
    """Spare battery throughput displacing fossil output, cycle by cycle.

    Every quantity is a row reduction over the trace's cycle matrices,
    one row per cycle window.  Spare energy per cycle is the
    conservative minimum of the unused discharge depth (the lowest state
    of charge kept above the floor) and the charging the sources could
    still have provided, zero below ``RESIDUE`` MWh.  It displaces the
    most expensive displaceable tranche first, energy-matched against
    that tranche's output within the cycle, ``tranche_mwh``
    (``tranche_cycle_mwh`` on the trace's year); gas_2019 is never
    touched.  Volumes are attributed to the calendar day each cycle
    starts in (see ``_pad_cycles``).
    """
    battery = soc.battery
    year = soc.year
    eta_c = battery.charge_eff
    eta_d = battery.discharge_eff
    n_days = year.n_slots // SLOTS_PER_DAY

    # untapped charging per slot: leftover source up to the unused
    # inverter/1C headroom, in charging-eligible slots only; padded
    # slots have no source, so they add nothing
    leftover = (year.curtailed_re - soc.charge_re) + (year.solar(soc.solar_gw) - soc.charge_solar)
    headroom = np.minimum(battery.inverter_capacity_mw,
                          battery.energy_capacity_mwh) - soc.charge
    extra_charge = np.where(year.unmet <= 0, np.minimum(leftover, np.maximum(headroom, 0.0)), 0.0)

    # a padded lead holds a full battery and a padded tail repeats the
    # last SoC, so each row's minimum is min(capacity, lowest SoC in the window)
    depth_margin = np.maximum(soc.soc.min(axis=1) - battery.floor_mwh, 0.0) * eta_d
    charge_margin = extra_charge.sum(axis=1) * SLOT_HOURS * eta_c * eta_d
    spare = np.minimum(depth_margin, charge_margin)
    # a cycle whose lowest SoC is a few ulps of e_cap above the floor
    # has nothing spare
    spare[spare < RESIDUE] = 0.0

    day = np.minimum(np.maximum(year.starts, 0) // SLOTS_PER_DAY, n_days - 1)
    per_day: dict[str, np.ndarray] = {}
    displaced_twh: dict[str, float] = {}
    for name in DISPLACEMENT_ORDER:
        take = np.minimum(spare, tranche_mwh[name])
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
    matrices holding only the days with displaced coal.
    """
    if dy.flex_re_cut is None:
        raise InvariantError("coal_peak_bonus needs a flex-adjusted despatch year")
    if coal_displaced_in_day.shape != (dy.n_days,):
        raise InvariantError(
            f"displaced energy has shape {coal_displaced_in_day.shape}, want ({dy.n_days},)"
        )

    # only a day with displaced coal can lower its peak: the rest stay zero
    d = np.flatnonzero(coal_displaced_in_day > 0)

    def days(series: np.ndarray) -> np.ndarray:
        return series.reshape(dy.n_days, SLOTS_PER_DAY)[d]

    sup = {k: days(dy.supply[k]) for k in ("coal_2019", "gas_2019", "coal_slack",
                                          "gas_slack", "re", "hydro")}
    coal = sup["coal_2019"] + sup["coal_slack"]
    cut = days(dy.flex_re_cut) + days(dy.flex_hydro_cut)
    # pre-flex net demand and absorbable must-run, reconstructed
    n_pre = (
        sup["coal_2019"] + sup["gas_2019"]
        + sup["coal_slack"] + sup["gas_slack"] + days(dy.unmet)
    ) - cut
    absorb = (sup["re"] + sup["hydro"]) + cut
    coal_cap = days(dy.capacity["coal_2019"]) + days(dy.capacity["coal_slack"])

    day_disp = np.minimum(coal_displaced_in_day[d], coal.sum(axis=1) * SLOT_HOURS)
    new_floor = flex_limit * _lowered_daily_max(coal, day_disp)
    floor_slot = np.minimum(np.minimum(new_floor[:, None], n_pre + absorb), coal_cap)
    new_cut = np.maximum(floor_slot - n_pre, 0.0)
    avoided = np.maximum(cut - new_cut, 0.0).sum(axis=1) * SLOT_HOURS
    # scattered back to every day: a shorter sum could round differently
    bonus = np.zeros(dy.n_days)
    bonus[d] = np.where(day_disp > 0, avoided, 0.0)
    return bonus


def displace_gas_with_new_coal(new_coal_mw: float, dy: DispatchYear) -> float:
    """Displaced gas_slack energy (TWh) from spare NEW-coal headroom.

    NEW coal runs up into its headroom wherever non-APM gas is still
    generating; coal output only ever rises, so the flexibility floor
    of the combined fleet cannot be violated.
    """
    spare = np.maximum(new_coal_mw - dy.supply["new"], 0.0)
    displaced = np.minimum(spare, dy.supply["gas_slack"])
    return float(np.sum(displaced)) * SLOT_HOURS / 1e6
