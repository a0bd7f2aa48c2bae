"""Half-hourly timeseries: the base year, loading, cleaning, and per-MW shapes.

Everything downstream despatches against half-hourly (30-minute) series
covering one calendar year: 17,520 slots normally, 17,568 in a leap
year.  The base year is one ``BaseYearData`` of read-only MW arrays on
its own year's slot grid, checked once when it is built;
``map_values_to_year`` places such an array on another year's grid.
This module owns the slot arithmetic, the base-year CSV loader with its
gap bookkeeping, the cleaning rules (interpolation, nearest clean day,
RE energy correction), CUF rescaling for per-MW shapes, and a
deterministic synthetic generator for self-contained runs.
"""

from __future__ import annotations

import calendar
import csv
import math
from array import array
from dataclasses import dataclass, field
from datetime import date, datetime
from itertools import chain, compress, islice
from operator import attrgetter
from pathlib import Path
from typing import Iterator

import numpy as np

from gridlab.errors import (
    CadenceError,
    DataIntegrityError,
    DegenerateShapeError,
    InfeasibleError,
    InvariantError,
    ParameterError,
    TimeseriesParseError,
)

SLOTS_PER_DAY = 48
SLOT_HOURS = 0.5

#: column order of the base-year timeseries CSV
TIMESERIES_COLUMNS = (
    "timestamp",
    "demand_mw",
    "coal_mw",
    "gas_mw",
    "hydro_mw",
    "nuclear_mw",
    "re_mw",
)

#: fuels carried in BaseYearData.supply_by_fuel, in column order
FUELS = ("coal", "gas", "hydro", "nuclear", "re")


def days_in_year(year: int) -> int:
    return 366 if calendar.isleap(year) else 365


def slots_in_year(year: int) -> int:
    return SLOTS_PER_DAY * days_in_year(year)


def map_values_to_year(values: np.ndarray, from_year: int, to_year: int) -> np.ndarray:
    """Map a year-long slot array onto another year's slot grid.

    Years of equal length return the input itself, not a copy: callers
    pass read-only values and never write into the result.  A non-leap
    source mapped onto a leap year repeats 28 February as 29 February; a
    leap source mapped onto a non-leap year drops 29 February.
    Day-of-year alignment is otherwise preserved.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (slots_in_year(from_year),):
        raise InvariantError(
            f"expected {slots_in_year(from_year)} slots for {from_year}, "
            f"got {values.shape}"
        )
    if days_in_year(from_year) == days_in_year(to_year):
        return values
    days = values.reshape(days_in_year(from_year), SLOTS_PER_DAY)
    feb29 = 59  # zero-based day-of-year of 29 February
    if days_in_year(to_year) == 366:
        out = np.vstack([days[:feb29], days[feb29 - 1 : feb29], days[feb29:]])
    else:
        out = np.vstack([days[:feb29], days[feb29 + 1 :]])
    return out.reshape(-1)


def _run_bounds(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and stops of the contiguous True runs of ``mask``."""
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    return edges[::2], edges[1::2]


def _gap_runs(mask: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Contiguous True runs of ``mask`` as half-open (start, stop) pairs."""
    starts, stops = _run_bounds(mask)
    return tuple(zip(starts.tolist(), stops.tolist()))


@dataclass(frozen=True)
class BaseYearData:
    """Base-year observations, raw from the loader or cleaned.

    ``demand`` and each ``supply_by_fuel[fuel]`` are read-only MW arrays
    on ``year``'s slot grid, checked and copied once, here.  Gaps (NaN)
    are permitted on freshly loaded data and are gone after cleaning;
    negative or infinite values are never allowed.
    """

    year: int
    demand: np.ndarray
    supply_by_fuel: dict[str, np.ndarray]
    gaps: dict[str, tuple[tuple[int, int], ...]] = field(default_factory=dict)

    def __post_init__(self):
        missing = set(FUELS) - set(self.supply_by_fuel)
        if missing:
            raise ParameterError(f"supply_by_fuel missing {sorted(missing)}")
        object.__setattr__(self, "demand", self._checked("demand", self.demand))
        object.__setattr__(self, "supply_by_fuel", {
            fuel: self._checked(fuel, values) for fuel, values in self.supply_by_fuel.items()})

    def _checked(self, label: str, values) -> np.ndarray:
        """A read-only copy of the series ``label``."""
        vals = np.array(values, dtype=float)
        n = slots_in_year(self.year)
        if vals.shape != (n,):
            raise ParameterError(
                f"series '{label}' for {self.year} needs {n} slots, got shape {vals.shape}"
            )
        if np.any(np.isinf(vals)):
            raise ParameterError(f"series '{label}' contains infinities")
        if np.any(vals < 0):
            raise ParameterError(f"series '{label}' contains negative MW")
        vals.flags.writeable = False
        return vals


@dataclass(frozen=True)
class PerMwShape:
    """Per-MW output shape: one year of slot fractions in [0, 1]."""

    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ParameterError("shape values must be a non-empty 1-D array")
        if not np.all(np.isfinite(vals)):
            raise ParameterError(f"shape '{self.label}' has non-finite values")
        if vals.min() < 0 or vals.max() > 1 + 1e-12:
            raise ParameterError(f"shape '{self.label}' values must lie in [0, 1]")
        vals = np.clip(vals, 0.0, 1.0)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


#: Rows read and checked per block by the CSV loaders.  Blocks bound the
#: loaders' working memory: loading a patchy 17,520-row base-year file
#: peaks at 1.8 MB of Python objects in 256-row blocks, as the per-row
#: loader did, at 3.2 MB in 2,048-row blocks and at 18 MB in one block,
#: and larger blocks are no faster.
_BLOCK_ROWS = 256
#: turns a blank cell into text that ``float`` reads as NaN
_BLANK_AS_NAN = {"": "nan"}


def _row_blocks(reader) -> Iterator[tuple[list[list[str]], list[int]]]:
    """The rows after the header, ``_BLOCK_ROWS`` at a time, with their
    line numbers; rows with no non-blank cell are left out."""
    line = 2
    while block := list(islice(reader, _BLOCK_ROWS)):
        keep = np.fromiter(map(bool, map(str.strip, map("".join, block))), bool, len(block))
        yield list(compress(block, keep)), (line + np.flatnonzero(keep)).tolist()
        line += len(block)


def _timeseries_row(
    row: list[str], line: int, year: int, prev_slot: int
) -> tuple[int, list[float]]:
    """The slot and six MW values of one base-year row; blank cells are NaN.

    This is the definition of a valid row.  On a faulty row it raises the
    error for the row's first fault, in this order: field count,
    timestamp, year, cadence, advance, then the cells left to right.
    """
    n_fields = len(TIMESERIES_COLUMNS)
    if len(row) != n_fields:
        raise TimeseriesParseError(f"expected {n_fields} fields, got {len(row)}", line)
    stamp = row[0].strip()
    try:
        time = datetime.fromisoformat(stamp)
    except ValueError as exc:
        raise TimeseriesParseError(f"bad timestamp {stamp!r}: {exc}", line) from None
    # wall-clock fields, as written: an offset such as +05:30 is ignored
    day = time.toordinal() - date(year, 1, 1).toordinal()
    if not 0 <= day < days_in_year(year):
        raise TimeseriesParseError(f"timestamp {stamp!r} outside year {year}", line)
    if time.minute % 30 or time.second or time.microsecond:
        raise CadenceError(f"line {line}: timestamp {stamp!r} is not on a 30-minute grid")
    slot = day * SLOTS_PER_DAY + time.hour * 2 + time.minute // 30
    if slot <= prev_slot:
        raise CadenceError(
            f"line {line}: timestamp {row[0]!r} does not advance the 30-minute grid"
        )
    values = []
    for name, cell in zip(TIMESERIES_COLUMNS[1:], map(str.strip, row[1:])):
        try:
            value = float(_BLANK_AS_NAN.get(cell, cell))
        except ValueError:
            raise TimeseriesParseError(f"bad value {cell!r} in column {name}", line) from None
        if math.isinf(value) or (math.isnan(value) and cell):
            raise TimeseriesParseError(f"non-finite value in column {name}", line)
        if value < 0:
            raise TimeseriesParseError(f"negative MW ({value}) in column {name}", line)
        values.append(value)
    return slot, values


def _timeseries_block(
    rows: list[list[str]], lines: list[int], year: int, prev_slot: int
) -> tuple[np.ndarray, np.ndarray]:
    """Slots and ``(rows, 6)`` MW values of one block of base-year rows.

    The block is parsed at once and kept when every row is clean; if not,
    ``_timeseries_row`` reads it again row by row, and raises the first
    faulty line's error or returns the same values for a valid block the
    checks here do not recognise, such as one with a cell of spaces.
    """
    n_fields = len(TIMESERIES_COLUMNS)
    if all(len(row) == n_fields for row in rows):
        cells = list(chain.from_iterable(rows))
        try:
            times = list(map(datetime.fromisoformat, map(str.strip, cells[::n_fields])))
            del cells[::n_fields]
            values = np.array(list(map(float, map(_BLANK_AS_NAN.get, cells, cells))))
        except ValueError:
            pass
        else:
            k = len(times)
            day = np.fromiter(map(datetime.toordinal, times), np.int64, k)
            day -= date(year, 1, 1).toordinal()
            hour, minute, second, microsecond = (
                np.fromiter(map(attrgetter(name), times), np.int64, k)
                for name in ("hour", "minute", "second", "microsecond")
            )
            slots = day * SLOTS_PER_DAY + hour * 2 + minute // 30
            ok = (day >= 0) & (day < days_in_year(year)) & (np.diff(slots, prepend=prev_slot) > 0)
            ok &= (minute % 30 | second | microsecond) == 0
            # a NaN, infinite or negative value is clean only as a blank cell
            odd = np.flatnonzero(~np.isfinite(values) | (values < 0))
            if ok.all() and not any(cells[j] for j in odd):
                return slots, values.reshape(k, n_fields - 1)
    slots = np.empty(len(rows), np.int64)
    values = np.empty((len(rows), n_fields - 1))
    for i, (row, line) in enumerate(zip(rows, lines)):
        slots[i], values[i] = _timeseries_row(row, line, year, prev_slot)
        prev_slot = slots[i]
    return slots, values


def load_timeseries_csv(path: str | Path, year: int) -> BaseYearData:
    """Load the base-year CSV into a raw (gap-bearing) BaseYearData.

    The file must carry the exact header
    ``timestamp,demand_mw,coal_mw,gas_mw,hydro_mw,nuclear_mw,re_mw`` with
    ISO-8601 timestamps at a strict 30-minute cadence.  Missing rows and
    empty cells become recorded gaps; negative or unparseable values
    raise :class:`TimeseriesParseError` with the offending line; more
    than 5% of rows absent raises :class:`DataIntegrityError`.  Rows are
    read and checked ``_BLOCK_ROWS`` at a time.
    """
    path = Path(path)
    n = slots_in_year(year)
    # one array per column, not one (n, 6) table: freeing an 841 KB table
    # raises glibc's mmap threshold, and the run's later slot arrays then
    # grow the heap instead (peak RSS +1 MB on a full run)
    columns = {name.removesuffix("_mw"): np.full(n, np.nan) for name in TIMESERIES_COLUMNS[1:]}
    n_rows = 0

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
        for rows, lines in _row_blocks(reader):
            slots, values = _timeseries_block(rows, lines, year, prev_slot)
            for column, column_values in zip(columns.values(), values.T):
                column[slots] = column_values
            if slots.size:
                prev_slot = int(slots[-1])
            n_rows += slots.size

    missing_rows = n - n_rows
    if missing_rows > 0.05 * n:
        raise DataIntegrityError(
            f"{path}: {missing_rows} of {n} rows missing ({missing_rows / n:.1%} > 5%)"
        )

    gaps = {name: _gap_runs(np.isnan(values)) for name, values in columns.items()}
    demand = columns.pop("demand")  # the rest are the fuels
    return BaseYearData(year, demand, columns, gaps={k: v for k, v in gaps.items() if v})


def load_shape_csv(path: str | Path) -> PerMwShape:
    """Load a per-MW shape CSV with header ``slot,fraction``.

    Every non-blank row has exactly two fields: the slot, counting up
    from 0, and a fraction in [0, 1].  A faulty row raises the error for
    its first fault, in this order: field count, parse, order, range.
    """
    path = Path(path)
    fractions = array("d")  # not a list: a float object a row adds 0.5 MB to peak RSS
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["slot", "fraction"]:
            raise TimeseriesParseError(f"unexpected header {header!r}; expected slot,fraction", 1)
        for rows, lines in _row_blocks(reader):
            for row, line in zip(rows, lines):
                if len(row) != 2:
                    raise TimeseriesParseError(f"expected 2 fields, got {len(row)}", line)
                try:
                    slot, fraction = int(row[0]), float(row[1])
                except ValueError:
                    raise TimeseriesParseError(f"bad shape row {row!r}", line) from None
                if slot != len(fractions):
                    raise CadenceError(f"line {line}: slot {slot} out of order")
                if not 0.0 <= fraction <= 1.0:
                    raise TimeseriesParseError(f"fraction {fraction} outside [0, 1]", line)
                fractions.append(fraction)
    if not fractions:
        raise DataIntegrityError(f"{path}: no shape rows")
    return PerMwShape(np.array(fractions), label=path.stem)


# ---------------------------------------------------------------------------
# cleaning
# ---------------------------------------------------------------------------


def _fill_gaps(values: np.ndarray, max_gap_slots: int, label: str) -> np.ndarray:
    out = values.copy()
    mask = np.isnan(out)
    if not mask.any():
        return out
    if mask.all():
        raise DataIntegrityError(f"series '{label}' has no usable values")
    n = out.shape[0]

    # a short gap inside the series: linear between its two neighbours
    starts, stops = _run_bounds(mask)
    short = (stops - starts <= max_gap_slots) & (starts > 0) & (stops < n)
    lengths = (stops - starts)[short]
    first = np.repeat(starts[short], lengths)
    slots = first + np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    width = np.repeat(lengths + 1, lengths)
    left, right = values[first - 1], values[first - 1 + width]
    out[slots] = left + (right - left) * ((slots - first + 1) / width)
    long_gap = mask.copy()
    long_gap[slots] = False
    if not long_gap.any():
        return out

    # long gap (or gap at a boundary): copy the same slot-of-day from the
    # nearest day that has it, preferring the earlier day on ties
    days = np.arange(n // SLOTS_PER_DAY)[:, None]
    valid = ~mask.reshape(days.size, SLOTS_PER_DAY)
    missing = long_gap & np.tile(~valid.any(axis=0), days.size)
    if missing.any():
        sod = int(np.argmax(missing)) % SLOTS_PER_DAY
        raise DataIntegrityError(f"series '{label}': slot {sod} of day is missing on every day")
    # sentinels lie farther away than any real day
    before = np.maximum.accumulate(np.where(valid, days, -days.size), axis=0)
    after = np.minimum.accumulate(np.where(valid, days, 2 * days.size)[::-1], axis=0)[::-1]
    nearest = np.where(days - before <= after - days, before, after)
    source = (nearest * SLOTS_PER_DAY + np.arange(SLOTS_PER_DAY)).reshape(-1)
    out[long_gap] = values[source[long_gap]]
    return out


def clean_series(
    raw: BaseYearData,
    max_gap_slots: int = 4,
    re_annual_target: float | None = None,
) -> BaseYearData:
    """Fill gaps and apply the RE energy correction.

    Gaps of up to ``max_gap_slots`` slots are linearly interpolated;
    longer gaps copy the same slot from the nearest clean day.  When
    ``re_annual_target`` (GWh) is given, the RE series is multiplied by
    a single scalar so its annual energy matches the target exactly.
    """
    if max_gap_slots < 0:
        raise ParameterError("max_gap_slots must be >= 0")
    if re_annual_target is not None and re_annual_target <= 0:
        raise ParameterError(f"re_annual_target must be positive, got {re_annual_target}")

    demand = _fill_gaps(raw.demand, max_gap_slots, "demand")
    supply = {fuel: _fill_gaps(raw.supply_by_fuel[fuel], max_gap_slots, fuel) for fuel in FUELS}
    if re_annual_target is not None:
        current = float(np.sum(supply["re"])) * SLOT_HOURS / 1e3
        if current <= 0:
            raise DataIntegrityError("RE series has zero energy; cannot apply correction")
        supply["re"] = supply["re"] * (re_annual_target / current)
    return BaseYearData(raw.year, demand, supply, raw.gaps)


# ---------------------------------------------------------------------------
# per-MW shapes
# ---------------------------------------------------------------------------


def rescale_to_cuf(
    shape: PerMwShape, target_cuf: float, tolerance: float = 1e-6, max_iter: int = 100
) -> PerMwShape:
    """Scale a shape to a target capacity utilisation factor.

    Values are multiplied up (or down) and clipped at 1.0, then
    re-measured; the clip-and-renormalise loop repeats until the mean is
    within ``tolerance`` of the target.  InfeasibleError is raised if it
    is not there after ``max_iter`` steps, or if the target exceeds the
    fraction of non-zero slots, as any target does for an all-zero
    shape.  Clipping flattens the peak, the intended behaviour for
    prospective fleets with better siting than the historical one.
    """
    values = shape.values.copy()
    mean = values.mean()
    ceiling = np.count_nonzero(values > 0) / values.size
    if target_cuf > ceiling + 1e-12:
        raise InfeasibleError(
            f"target CUF {target_cuf:.4f} exceeds the feasible ceiling "
            f"{ceiling:.4f} (fraction of non-zero slots)"
        )
    for _ in range(max_iter):
        if abs(mean - target_cuf) <= tolerance:
            break
        values = np.clip(values * (target_cuf / mean), 0.0, 1.0)
        mean = values.mean()
    if abs(mean - target_cuf) > tolerance:
        raise InfeasibleError(
            f"CUF {mean:.6f} still {abs(mean - target_cuf):.1e} from the target "
            f"{target_cuf:.6f} after {max_iter} rescaling steps"
        )
    return PerMwShape(values, label=shape.label)


def derive_wind_shape(
    re_series: np.ndarray,
    solar_shape: PerMwShape,
    solar_capacity_mw: float,
    wind_cuf: float | None = None,
) -> PerMwShape:
    """Estimate the wind shape left after removing implied solar output.

    Subtracts ``solar_capacity_mw * solar_shape`` from the observed RE
    series slot by slot, floors at zero, and normalises by the implied
    wind peak.  Pass ``wind_cuf`` to additionally rescale the result to
    a prospective utilisation factor.
    """
    if solar_capacity_mw < 0:
        raise ParameterError("solar_capacity_mw must be >= 0")
    if np.any(np.isnan(re_series)):
        raise ParameterError("derive_wind_shape needs a cleaned RE series")
    solar = solar_shape.values
    if solar.shape != re_series.shape:
        raise ParameterError(
            f"solar shape has {solar.size} slots, RE series has {re_series.size}"
        )
    wind = np.maximum(re_series - solar_capacity_mw * solar, 0.0)
    peak = wind.max()
    if peak <= 0:
        raise DegenerateShapeError(
            "implied wind output is zero everywhere; solar capacity too large?"
        )
    shape = PerMwShape(wind / peak, label="wind")
    if wind_cuf is not None:
        shape = rescale_to_cuf(shape, wind_cuf)
    return shape


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

SYNTH_YEAR = 2021
#: synthetic annual demand, GWh (about 1,360 BU, the 2021 benchmark)
SYNTH_DEMAND_GWH = 1_360_000.0
#: installed solar MW behind the synthetic RE column
SYNTH_SOLAR_MW = 35_000.0


def _hours_of_day() -> np.ndarray:
    return (np.arange(SLOTS_PER_DAY) + 0.5) * SLOT_HOURS


def _solar_bell() -> np.ndarray:
    h = _hours_of_day()
    bell = np.exp(-(((h - 12.5) / 3.0) ** 2))
    bell[bell < 0.02] = 0.0
    return bell / bell.max()


def synth_solar_shape(year: int = SYNTH_YEAR) -> PerMwShape:
    """Deterministic per-MW solar shape matching the synthetic generator."""
    n_days = days_in_year(year)
    day = np.arange(n_days)
    seasonal = 1.0 + 0.05 * np.sin(2 * np.pi * (day - 80) / n_days)
    values = np.outer(seasonal, _solar_bell()).reshape(-1)
    return PerMwShape(values / values.max(), label="solar")


def synth_shapes(seed: int, peakiness: float = 1.0) -> BaseYearData:
    """Generate a deterministic synthetic base year.

    Demand is bimodal within the day (morning and a stronger evening
    peak) with mild seasonality and seeded noise, whose amplitude all
    scales with ``peakiness``; zero peakiness gives perfectly flat
    demand.  Wind is monsoon-heavy, solar diurnal, and coal and gas
    jointly absorb the residual so the base year balances exactly.
    The same seed always reproduces identical arrays.
    """
    if peakiness < 0:
        raise ParameterError(f"peakiness must be >= 0, got {peakiness}")
    rng = np.random.default_rng(seed)
    n_days = days_in_year(SYNTH_YEAR)
    n = n_days * SLOTS_PER_DAY
    h = _hours_of_day()
    day = np.arange(n_days)

    morning = 0.12 * np.exp(-(((h - 9.8) / 2.2) ** 2))
    evening = 0.20 * np.exp(-(((h - 19.5) / 1.9) ** 2))
    diurnal = np.tile(morning + evening, n_days)
    seasonal = np.repeat(0.06 * np.sin(2 * np.pi * (day - 110) / n_days), SLOTS_PER_DAY)
    day_noise = np.repeat(rng.normal(0.0, 0.015, n_days), SLOTS_PER_DAY)
    slot_noise = rng.normal(0.0, 0.004, n)
    modulation = diurnal + seasonal + day_noise + slot_noise
    modulation -= modulation.mean()

    base_mw = SYNTH_DEMAND_GWH * 1e3 / (n * SLOT_HOURS)
    demand = np.maximum(base_mw * (1.0 + peakiness * modulation), 0.02 * base_mw)

    solar_season = 1.0 + 0.05 * np.sin(2 * np.pi * (day - 80) / n_days)
    solar_day_noise = 1.0 + 0.04 * rng.standard_normal(n_days)
    solar = SYNTH_SOLAR_MW * np.outer(solar_season * solar_day_noise, _solar_bell()).reshape(-1)
    solar = np.maximum(solar, 0.0)

    monsoon = 1.0 + 0.9 * np.exp(-(((day - 205) / 48.0) ** 2))
    wind_noise = np.maximum(1.0 + 0.22 * rng.standard_normal(n_days), 0.2)
    wind_diurnal = 1.0 + 0.10 * np.cos(2 * np.pi * (h - 2.0) / 24.0)
    wind = 8_500.0 * np.outer(monsoon * wind_noise, wind_diurnal).reshape(-1)
    other_re = 2_500.0
    re = solar + wind + other_re

    hydro_season = 1.0 + 0.35 * np.exp(-(((day - 215) / 55.0) ** 2))
    hydro = 11_000.0 * np.repeat(hydro_season, SLOTS_PER_DAY) * (1.0 + np.tile(morning + evening, n_days))
    nuclear = np.full(n, 4_600.0)

    residual = np.maximum(demand - re - hydro - nuclear, 0.0)
    coal = 0.88 * residual
    gas = 0.12 * residual

    return BaseYearData(
        year=SYNTH_YEAR,
        demand=demand,
        supply_by_fuel={"coal": coal, "gas": gas, "hydro": hydro, "nuclear": nuclear, "re": re},
    )
