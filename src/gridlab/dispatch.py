"""Half-hourly despatch: net demand, tranche merit order, coal flex floors.

The despatch stack serves net demand (after must-run RE, hydro and
nuclear) from four existing-fleet tranches in a fixed order:
``coal_2019``, ``gas_2019``, ``coal_slack``, ``gas_slack``.  The first
two represent utilisation up to the observed base-year pattern, the
slack tranches the headroom above it.  A daily coal flexibility floor
then raises coal in low-net-demand slots, pushing out must-run supply
as curtailment.  A grid-buffer check runs post facto and yields the
unmet residual that NEW supply must serve.

Every slot series here is a plain float array whose length is a whole
number of days.  Input series are validated once, where ``shapes``
loads them; callers pass plain values.  Results are arrays too, so the
same code serves a full year and a one-day test case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from gridlab.errors import DataIntegrityError, ParameterError
from gridlab.shapes import SLOTS_PER_DAY, SLOT_HOURS

#: Fixed merit order of the existing-fleet tranches.
TRANCHES = ("coal_2019", "gas_2019", "coal_slack", "gas_slack")

#: Every supply key a fully assembled despatch year carries.
SUPPLY_KEYS = ("re", "hydro", "nuclear") + TRANCHES + ("new",)

_TOL = 1e-6

#: Rows formatted and written per ``write`` in ``write_table``.  Writing
#: a 17,520-slot despatch table peaks at about 1.8 MB of Python objects
#: in 2,048-row blocks and 12 MB in one block, which is no faster.
_BLOCK_ROWS = 2048


@dataclass
class DispatchYear:
    """One year of slot-level despatch.

    ``demand`` is whatever the stack was asked to balance: net demand
    for a partial result straight out of merit_dispatch, full busbar
    demand once must-run supplies are attached.  The conservation
    invariant sum(supply) + unmet == demand holds in both states.

    No code writes into an array it was given: each step builds its
    result from new arrays and shares the unchanged ones.
    """

    demand: np.ndarray
    supply: dict[str, np.ndarray]
    capacity: dict[str, np.ndarray]
    curtailment: np.ndarray
    unmet: np.ndarray
    coal_flex_floor: np.ndarray | None = None
    flex_re_cut: np.ndarray | None = None
    flex_hydro_cut: np.ndarray | None = None
    relaxed_slots: int = 0

    @property
    def n_slots(self) -> int:
        return self.demand.shape[0]

    @property
    def n_days(self) -> int:
        return self.n_slots // SLOTS_PER_DAY

    def coal_total(self) -> np.ndarray:
        return self.supply["coal_2019"] + self.supply["coal_slack"]

    def gas_total(self) -> np.ndarray:
        return self.supply["gas_2019"] + self.supply["gas_slack"]

    def energy_twh(self, key: str) -> float:
        return float(np.sum(self.supply[key])) * SLOT_HOURS / 1e6

    def curtailment_twh(self) -> float:
        return float(np.sum(self.curtailment)) * SLOT_HOURS / 1e6

    def unmet_twh(self) -> float:
        return float(np.sum(self.unmet)) * SLOT_HOURS / 1e6

    def peak_unmet_mw(self) -> float:
        return float(np.max(self.unmet)) if self.n_slots else 0.0

    def check_balance(self, tolerance: float = _TOL) -> None:
        total = sum(self.supply.values()) + self.unmet
        worst = float(np.max(np.abs(total - self.demand))) if self.n_slots else 0.0
        if not worst <= tolerance:  # NaN fails too
            raise DataIntegrityError(
                f"despatch imbalance of {worst:.3e} MW exceeds {tolerance:.1e}"
            )


@dataclass(frozen=True)
class BufferReport:
    """Slot-level headroom audit against the grid capacity buffer."""

    shortfall: np.ndarray


def net_demand(
    demand: np.ndarray, re: np.ndarray, hydro: np.ndarray, nuclear: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Net demand after must-run supply, and the interim curtailment.

    Must-run output beyond demand cannot be absorbed and comes back as
    curtailment, reported as a single series.  All four inputs are
    arrays of one length; both results are new arrays of that length.
    """
    if len({a.shape[0] for a in (demand, re, hydro, nuclear)}) != 1:
        raise ParameterError("net_demand inputs must have equal lengths")
    must_run = re + hydro + nuclear
    return np.maximum(demand - must_run, 0.0), np.maximum(must_run - demand, 0.0)


def split_must_run(
    demand: np.ndarray, re: np.ndarray, hydro: np.ndarray, nuclear: np.ndarray
) -> dict[str, np.ndarray]:
    """Per-source must-run supply after netting, curtailing RE first.

    Surplus beyond demand is taken out of RE, then hydro, then nuclear,
    so the returned supplies always sum to min(demand, must-run total).
    """
    surplus = np.maximum(re + hydro + nuclear - demand, 0.0)
    re_cut = np.minimum(surplus, re)
    hydro_cut = np.minimum(surplus - re_cut, hydro)
    nuclear_cut = surplus - re_cut - hydro_cut
    return {
        "re": re - re_cut,
        "hydro": hydro - hydro_cut,
        "nuclear": nuclear - nuclear_cut,
    }


def _as_capacity(values, n_slots: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        arr = np.full(n_slots, float(arr))
    if arr.shape != (n_slots,):
        raise ParameterError(f"capacity for {name!r} has shape {arr.shape}, want ({n_slots},)")
    if np.any(arr < 0):
        raise ParameterError(f"capacity for {name!r} has negative entries")
    return arr


def merit_dispatch(net: np.ndarray, tranches: Sequence[tuple[str, object]]) -> DispatchYear:
    """Greedy fill of net demand through the tranche stack, in order.

    Each tranche serves what remains of the slot's net demand, up to
    its own per-slot capacity; anything left after the last tranche is
    unmet.  The result is partial: must-run supplies are all zero and
    ``demand`` is the net series.
    """
    n_slots = net.shape[0]
    supply: dict[str, np.ndarray] = {k: np.zeros(n_slots) for k in ("re", "hydro", "nuclear")}
    capacity: dict[str, np.ndarray] = {}
    remaining = net.copy()
    for name, cap in tranches:
        cap = _as_capacity(cap, n_slots, name)
        take = np.minimum(remaining, cap)
        supply[name] = take
        capacity[name] = cap
        remaining -= take
    supply["new"] = np.zeros(n_slots)
    return DispatchYear(
        demand=net,
        supply=supply,
        capacity=capacity,
        curtailment=np.zeros(n_slots),
        unmet=remaining,
    )


def attach_must_run(
    dy: DispatchYear,
    must_run: Mapping[str, np.ndarray],
    interim_curtailment: np.ndarray,
) -> DispatchYear:
    """Fold must-run supplies into a partial despatch result.

    ``demand`` becomes the full busbar demand (net + must-run served),
    keeping the conservation invariant intact.
    """
    supply = {**dy.supply, **{key: must_run[key] for key in ("re", "hydro", "nuclear")}}
    return replace(
        dy,
        demand=dy.demand + supply["re"] + supply["hydro"] + supply["nuclear"],
        supply=supply,
        curtailment=dy.curtailment + interim_curtailment,
    )


def apply_coal_flex(
    dy: DispatchYear,
    flex_limit: float,
    floor_day: np.ndarray | None = None,
) -> DispatchYear:
    """Enforce the daily coal flexibility floor by re-despatch.

    The floor for each day is ``flex_limit`` times that day's pre-flex
    maximum total coal output.  Slots already at or above the floor are
    untouched.  Below it, coal is raised to the floor (coal_2019 ahead
    of coal_slack) and the slot re-despatched: demand beyond the floor
    refills through gas_2019, remaining coal_slack headroom, then
    gas_slack; supply pushed out by the raise is curtailed from RE
    first, then hydro.  Where even full absorption of RE and hydro
    cannot carry the floor, it relaxes to the feasible level and the
    slot is counted in ``relaxed_slots``.

    An explicit ``floor_day`` (MW per day) replaces the default
    flex_limit * daily-max floors.  The despatch never passes it; the
    brute-force check of ``coal_peak_bonus`` uses it to replay the pass
    against a lowered coal ceiling.

    One pass suffices: floors come from pre-flex maxima and raising
    minima never changes a day's maximum.
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
        coal_flex_floor=floor_day,
        flex_re_cut=re_cut,
        flex_hydro_cut=hydro_cut,
        relaxed_slots=relaxed,
    )


def buffer_check(
    dy: DispatchYear,
    demand: np.ndarray,
    despatchable_capacity,
    grid_buffer: float,
) -> BufferReport:
    """Audit despatchable headroom against the required buffer.

    Headroom is despatchable capacity (everything but variable RE)
    minus despatchable output; the requirement scales with demand.
    """
    if grid_buffer < 0:
        raise ParameterError("grid_buffer must be >= 0")
    cap = _as_capacity(despatchable_capacity, dy.n_slots, "despatchable")
    output = (
        dy.coal_total() + dy.gas_total()
        + dy.supply["hydro"] + dy.supply["nuclear"] + dy.supply["new"]
    )
    headroom = cap - output
    return BufferReport(shortfall=np.maximum(grid_buffer * demand - headroom, 0.0))


def compute_unmet(dy: DispatchYear, buffer: BufferReport) -> float:
    """The year's capacity requirement, in MW.

    It is the worst slot of unmet demand plus buffer shortfall: what any
    new supply must be able to serve.
    """
    return float(np.max(dy.unmet + buffer.shortfall)) if dy.n_slots else 0.0


def write_table(path, header: Sequence[str], columns: Sequence[np.ndarray],
                formats: Sequence[str], newline: str) -> None:
    """Write equal-length column arrays as a comma-separated table.

    Each line is ``formats`` (one ``%`` conversion per column, such as
    ``"%d"`` or ``"%.3f"``) applied to one row.  Cells are never quoted,
    so no text cell may hold a comma, a quote or a line break.  Rows go
    out in blocks of ``_BLOCK_ROWS``: each block is sliced, converted
    with ``tolist`` and written with one ``write``.  With no columns the
    file holds the header alone.
    """
    line = ",".join(formats) + newline
    n_rows = len(columns[0]) if columns else 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + newline)
        for start in range(0, n_rows, _BLOCK_ROWS):
            block = [col[start:start + _BLOCK_ROWS].tolist() for col in columns]
            fh.write("".join([line % row for row in zip(*block)]))


def to_csv(dy: DispatchYear, path) -> None:
    """One row per slot with demand, every supply key, curtailment, unmet."""
    keys = [k for k in SUPPLY_KEYS if k in dy.supply]
    columns = [dy.demand, *[dy.supply[k] for k in keys], dy.curtailment, dy.unmet]
    write_table(
        path,
        ["slot", "demand_mw", *[f"{k}_mw" for k in keys], "curtailment_mw", "unmet_mw"],
        [np.arange(dy.n_slots), *columns],
        ["%d"] + ["%.3f"] * len(columns),
        "\r\n",
    )


def load_duration_curve(values: np.ndarray) -> np.ndarray:
    """Slot values sorted descending, the standard duration-curve form."""
    return np.sort(values)[::-1]
