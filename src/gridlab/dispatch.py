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
from functools import cache
from typing import Mapping, Sequence

import numpy as np

from gridlab.errors import DataIntegrityError, InvariantError
from gridlab.shapes import SLOTS_PER_DAY, SLOT_HOURS

#: Fixed merit order of the existing-fleet tranches.
TRANCHES = ("coal_2019", "gas_2019", "coal_slack", "gas_slack")

#: Every supply key a fully assembled despatch year carries.
SUPPLY_KEYS = ("re", "hydro", "nuclear") + TRANCHES + ("new",)

_TOL = 1e-6

#: ``check_balance`` allows this many ulps of the peak demand where that
#: is more than ``_TOL``.  The eight supply series and the unmet it sums
#: are each cut from demand by a few subtractions, and every rounding on
#: the way is at most half an ulp of a value no larger than the peak, so
#: an exact despatch can miss demand by several ulps; 16 leaves headroom
#: over that count.  Below 2**29 MW (about 5.4e8 MW) 16 ulps are less
#: than ``_TOL``, so for any real grid the bound is ``_TOL`` itself.
_BALANCE_ULPS = 16

#: Rows formatted and written per ``write`` in ``write_table``.  A block
#: of a 12-column despatch table is a 2,048 x 13 x 16 byte matrix (0.4 MB)
#: beside a few float and integer matrices of its cells.
_BLOCK_ROWS = 2048

#: Bytes per cell slot: the separator before the cell, then for a number
#: the sign, ten integer digits, the point and three decimals, as four
#: uint32 words.  Bytes left 0 are dropped from the written row.
_SLOT = 16


@cache
def _digit_words() -> tuple[np.ndarray, np.ndarray]:
    """Four ASCII bytes per uint32 word, for ``_format_block``; built on
    first use, so a run that writes no table never builds them.

    ``digits[n]`` is ``"%04d" % n`` for 0 <= n < 10,000;
    ``digits[n + 10_000]`` has its leading zeros as NUL, and
    ``digits[n + 20_000]`` too but keeps the last ``0`` of 0.
    ``decimals[m]`` is ``".%03d" % m`` for m < 1,000, and
    ``decimals[1_000]`` is four NULs.
    """
    chars = 48 + np.arange(10_000)[:, None] // 10 ** np.arange(3, -1, -1) % 10
    lead = np.cumsum(chars != 48, axis=1) == 0
    digits = np.concatenate([
        chars, np.where(lead, 0, chars), np.where(lead & (np.arange(4) < 3), 0, chars)])
    decimals = np.zeros((1_001, 4), np.int64)
    decimals[:-1] = np.column_stack([np.full(1_000, ord(".")), chars[:1_000, 1:]])
    return tuple(t.astype(np.uint8).view(np.uint32).ravel() for t in (digits, decimals))


#: A minus sign where it sits in a slot's first word: the second byte.
_MINUS = np.array([0, ord("-"), 0, 0], np.uint8).view(np.uint32)[0]


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

    def check_balance(self) -> None:
        """Raise ``DataIntegrityError`` where supply plus unmet misses
        demand.  In-bound inputs can reach it (``hydro_growth`` 1e200
        despatches NaN), so it is filed as a model limit, not a bug,
        until such inputs are bounded."""
        total = sum(self.supply.values()) + self.unmet
        worst = float(np.max(np.abs(total - self.demand))) if self.n_slots else 0.0
        if not worst <= _TOL:  # NaN fails too
            # a NaN or infinite peak has a NaN spacing, and max keeps _TOL
            peak = float(np.max(np.abs(self.demand)))
            bound = max(_TOL, _BALANCE_ULPS * float(np.spacing(peak)))
            if not worst <= bound:
                raise DataIntegrityError(
                    f"despatch imbalance of {worst:.3e} MW exceeds {bound:.1e}")


def net_demand(
    demand: np.ndarray, re: np.ndarray, hydro: np.ndarray, nuclear: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Net demand after must-run supply, and the interim curtailment.

    Must-run output beyond demand cannot be absorbed and comes back as
    curtailment, reported as a single series.  All four inputs are
    arrays of one length; both results are new arrays of that length.
    """
    if len({a.shape[0] for a in (demand, re, hydro, nuclear)}) != 1:
        raise InvariantError("net_demand inputs must have equal lengths")
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
        raise InvariantError(f"capacity for {name!r} has shape {arr.shape}, want ({n_slots},)")
    if np.any(arr < 0):
        raise InvariantError(f"capacity for {name!r} has negative entries")
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


def apply_coal_flex(dy: DispatchYear, flex_limit: float) -> DispatchYear:
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

    One pass suffices: floors come from pre-flex maxima and raising
    minima never changes a day's maximum.
    """
    if dy.n_slots % SLOTS_PER_DAY:
        raise InvariantError(f"{dy.n_slots} slots is not a whole number of days")

    coal_pre = dy.coal_total()
    by_day = coal_pre.reshape(dy.n_days, SLOTS_PER_DAY)
    floor_day = flex_limit * by_day.max(axis=1)

    # The per-slot floor never exceeds the day's floor, so only slots
    # below the day's floor can bind, and only they count as relaxed.
    # The re-despatch runs on those slots alone and is scattered back
    # into full-length copies.
    slots = np.flatnonzero(by_day < (floor_day - _TOL)[:, None])
    floor = floor_day[slots // SLOTS_PER_DAY]
    supply = dict(dy.supply)
    old1, old2, old3, old4 = (supply[k][slots] for k in TRANCHES)
    cap1, cap2, cap3, cap4 = (dy.capacity[k][slots] for k in TRANCHES)
    unmet = dy.unmet[slots]
    re, hydro = supply["re"][slots], supply["hydro"][slots]

    net = old1 + old2 + old3 + old4 + unmet
    floor_slot = np.minimum.reduce([floor, net + re + hydro, cap1 + cap3])

    binding = coal_pre[slots] < floor_slot - _TOL
    relaxed = int(np.sum(floor_slot < floor - _TOL))

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
    re_cut = np.minimum(pushed_out, re)
    hydro_cut = pushed_out - re_cut

    def scatter(full: np.ndarray, values: np.ndarray) -> np.ndarray:
        out = full.copy()
        out[slots] = values
        return out

    for key, old, new in zip(TRANCHES, (old1, old2, old3, old4), (x1, x2, x3, x4)):
        supply[key] = scatter(supply[key], np.where(binding, new, old))
    no_cut = np.zeros(dy.n_slots)
    re_cut = scatter(no_cut, np.where(binding, re_cut, 0.0))
    hydro_cut = scatter(no_cut, np.where(binding, hydro_cut, 0.0))
    supply["re"] = supply["re"] - re_cut
    supply["hydro"] = supply["hydro"] - hydro_cut

    return replace(
        dy,
        supply=supply,
        unmet=scatter(dy.unmet, np.where(binding, unmet_new, unmet)),
        curtailment=dy.curtailment + re_cut + hydro_cut,
        flex_re_cut=re_cut,
        flex_hydro_cut=hydro_cut,
        relaxed_slots=relaxed,
    )


def buffer_check(
    dy: DispatchYear,
    demand: np.ndarray,
    despatchable_capacity,
    grid_buffer: float,
) -> np.ndarray:
    """Audit despatchable headroom against the required buffer.

    Headroom is despatchable capacity (everything but variable RE)
    minus despatchable output; the requirement scales with demand.
    Returns the shortfall below the requirement, MW per slot.
    """
    cap = _as_capacity(despatchable_capacity, dy.n_slots, "despatchable")
    output = (
        dy.coal_total() + dy.gas_total()
        + dy.supply["hydro"] + dy.supply["nuclear"] + dy.supply["new"]
    )
    headroom = cap - output
    return np.maximum(grid_buffer * demand - headroom, 0.0)


def compute_unmet(dy: DispatchYear, shortfall: np.ndarray) -> float:
    """The year's capacity requirement, in MW.

    It is the worst slot of unmet demand plus buffer shortfall: what any
    new supply must be able to serve.
    """
    return float(np.max(dy.unmet + shortfall)) if dy.n_slots else 0.0


def write_table(path, header: Sequence[str], columns: Sequence[np.ndarray],
                formats: Sequence[str], newline: str) -> None:
    """Write equal-length column arrays as a comma-separated table.

    ``formats`` has one conversion per column: ``"%d"`` or ``"%.3f"``
    for a numeric column, ``"%s"`` for a str array.  Each line is the
    same bytes as ``",".join(formats) + newline`` applied with ``%`` to
    the row's values.  Cells are never quoted, so no text cell may hold
    a comma, a quote or a line break.  With no columns the file holds
    the header alone.

    Rows go out ``_BLOCK_ROWS`` at a time, formatted as a byte matrix by
    ``_format_block``.  A row goes through ``%`` itself when a cell's
    text cannot be read off its value exactly: a numeric cell that is
    not finite or is 1e9 or more in magnitude, a ``%d`` cell that is not
    a whole number, a ``%.3f`` cell whose value in thousandths is within
    one ``np.spacing`` of a rounding half, and a ``%s`` cell that is not
    ASCII or holds a NUL.  ``%`` is the definition of the bytes, so the
    block never guesses a rounding.

    Raises ``InvariantError``, before the file is opened, for another
    format, for columns of unequal length or not one per format, for a
    ``%s`` column that is not a str array, and for a line ending other
    than LF or CRLF.
    """
    if newline not in ("\n", "\r\n"):
        raise InvariantError(f"write_table line ending must be \\n or \\r\\n, not {newline!r}")
    if unknown := sorted(set(formats) - {"%d", "%.3f", "%s"}):
        raise InvariantError(f"write_table formats must be %d, %.3f or %s, not {unknown}")
    if len({len(col) for col in columns}) > 1:
        raise InvariantError(
            f"write_table columns differ in length: {[len(col) for col in columns]}")
    if columns and len(columns) != len(formats):
        raise InvariantError(f"{len(columns)} columns for {len(formats)} formats")
    if any(f == "%s" and np.asarray(col).dtype.kind != "U" for col, f in zip(columns, formats)):
        raise InvariantError("a %s column must be a str array")
    n_rows = len(columns[0]) if columns else 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + newline)
        for start in range(0, n_rows, _BLOCK_ROWS):
            fh.write(_format_block(
                [col[start:start + _BLOCK_ROWS] for col in columns], formats, newline))


def _format_block(block: list[np.ndarray], formats: Sequence[str], newline: str) -> str:
    """One block of ``write_table`` rows, as text.

    Every cell gets a fixed slot of a ``(rows, columns + 1, width)``
    byte matrix, the last slot holding the line ending.  A number's
    words come from ``_digit_words``; leading zeros, an absent sign or
    point and the padding of a ``%s`` cell stay 0, and one compress
    drops them.  The rows ``write_table`` names go through ``%`` and are
    spliced back in place.
    """
    rows, cols = len(block[0]), len(block)
    num = [j for j, f in enumerate(formats) if f != "%s"]
    text = [(j, np.ascontiguousarray(block[j]).view(np.uint32).reshape(rows, -1))
            for j, f in enumerate(formats) if f == "%s"]
    width = max([_SLOT] + [-(-(codes.shape[1] + 1) // 4) * 4 for _, codes in text])
    out = np.zeros((rows, cols + 1, width), np.uint8)
    bad = np.zeros(rows, bool)
    for j, codes in text:
        filled = codes != 0
        bad |= (codes > 127).any(axis=1) | (filled[:, 1:] & ~filled[:, :-1]).any(axis=1)
        out[:, j, 1:codes.shape[1] + 1] = codes
    if num:
        values = np.stack([block[j] for j in num], axis=1, dtype=np.float64)
        fixed = np.array([formats[j] == "%.3f" for j in num])
        scale = np.where(fixed, 1e3, 1.0)
        # a value past 1.8e305 overflows when scaled, and inf - inf is
        # NaN; those rows fall back
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = np.abs(values) * scale
            nearest = np.rint(scaled)
            ok = (scaled < scale * 1e9) & (
                np.abs(scaled - nearest) <= (0.5 - np.spacing(scaled)) * fixed)
        bad |= ~ok.all(axis=1)
        nearest[~ok] = 0.0
        whole = np.floor(nearest / scale)
        # a %d cell has no decimals: index 1,000 is four NULs
        decimals = (nearest - whole * scale + np.where(fixed, 0.0, 1e3)).astype(np.int64)
        whole = whole.astype(np.int64)
        top = whole // 10**4
        high = top // 10**4
        minus = np.signbit(values) & (fixed | (values != 0))  # %d of -0.0 is "0"
        digits, decimal_words = _digit_words()
        words = np.stack([
            digits.take(high + 10_000) | minus * _MINUS,
            digits.take(top - high * 10**4 + 10_000 * (whole < 10**8)),
            digits.take(whole - top * 10**4 + 20_000 * (whole < 10**4)),
            decimal_words.take(decimals),
        ], axis=-1)
        contiguous = num[-1] - num[0] + 1 == len(num)
        out.view(np.uint32)[:, slice(num[0], num[-1] + 1) if contiguous else num, :4] = words
    out[:, 1:cols, 0] = ord(",")
    out[:, cols, :len(newline)] = np.frombuffer(newline.encode(), np.uint8)
    out[bad] = 0
    kept = out.tobytes().translate(None, b"\0").decode("ascii")
    if not bad.any():
        return kept
    ends = np.cumsum(np.count_nonzero(out, axis=(1, 2)))
    line = ",".join(formats) + newline
    pieces, pos = [], 0
    for r in np.flatnonzero(bad):
        pieces += [kept[pos:ends[r]], line % tuple(col[r].item() for col in block)]
        pos = ends[r]
    return "".join(pieces) + kept[pos:]


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
