"""The benchmark's workloads and the inputs each one is given.

A workload is a gridlab config, a parallelism and a data source.  The
benchmark seed reaches the program only through the generated inputs:
the synthetic base-year seed for the two grid sweeps, and the patchy
CSV files written for ``csv_detail``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

# Points of the paper grid's four axes (demand growth, coal flex, RE
# build-out, solar share); the paper grid itself has 3 x 3 x 7 x 3.
_THERMAL_POINTS = {
    "demand_growth": [0.05, 0.055],
    "flex_limit": [0.55, 0.7],
    "re_2030": [250.0, 400.0, 550.0],
    "solar_share": [7 / 12],
}
_BATTERY_POINTS = {
    "demand_growth": [0.0525],
    "flex_limit": [0.55],
    "re_2030": [300.0, 500.0],
    "solar_share": [7 / 12],
}

THERMAL_OPTIONS = ["coal", "ocgt", "ccgt", "gas_ic", "diesel_gen"]
NEW_OPTIONS = ["battery_re", *THERMAL_OPTIONS]

#: Installed solar MW behind the generated RE column, passed to the
#: loader so the wind-shape derivation removes the right solar share.
CSV_SOLAR_MW = 32_000.0
CSV_YEAR = 2021
DETAIL_YEAR = 2024


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    parallelism: int
    csv_inputs: bool = False
    year_detail: int | None = None

    @property
    def scenario_count(self) -> int:
        n = 1
        for value in self.config.values():
            if isinstance(value, list):
                n *= len(value)
        return n


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="battery_grid",
            config={
                **_BATTERY_POINTS,
                "new_option": "battery_re",
                "battery_size_fraction": [1.0, 0.5],
                # 1.0 sizes dedicated solar for a full daily recharge, which
                # runs the per-cycle bisection in size_for_full_recharge
                "dedicated_solar_extra": [0.0, 1.0],
            },
            parallelism=1,
        ),
        Workload(
            name="thermal_grid",
            config={**_THERMAL_POINTS, "new_option": THERMAL_OPTIONS},
            parallelism=2,
        ),
        Workload(
            name="csv_detail",
            config={
                "new_option": NEW_OPTIONS,
                "data": {"year": CSV_YEAR, "solar_capacity_mw": CSV_SOLAR_MW},
            },
            parallelism=1,
            csv_inputs=True,
            year_detail=DETAIL_YEAR,
        ),
    )
}


def input_args(workload: Workload, seed: int, in_dir: Path) -> list[str]:
    """Write the workload's inputs into ``in_dir``; return the CLI arguments
    that name them (all but ``--out``)."""
    in_dir.mkdir(parents=True, exist_ok=True)
    config_path = in_dir / "config.json"
    config_path.write_text(json.dumps(workload.config, indent=1) + "\n")
    args = ["--config", str(config_path), "--parallelism", str(workload.parallelism)]
    if workload.csv_inputs:
        write_patchy_csv(in_dir / "data", seed)
        args += ["--data", str(in_dir / "data")]
    else:
        args += ["--synthetic", str(seed)]
    if workload.year_detail is not None:
        args += ["--year-detail", str(workload.year_detail)]
    return args


# --- patchy CSV inputs ------------------------------------------------------


def _year_profiles(rng: np.random.Generator) -> dict[str, np.ndarray]:
    """One base year of half-hourly MW by column, shaped like a large
    thermal-heavy grid: evening-peaking demand, diurnal solar, monsoon
    wind and hydro, flat nuclear, coal and gas on the residual."""
    n_days = 365
    hours = (np.arange(48) + 0.5) * 0.5
    day = np.arange(n_days)

    evening_peak = rng.uniform(18.8, 20.2)
    diurnal = 0.11 * np.exp(-(((hours - 9.5) / 2.4) ** 2)) + 0.19 * np.exp(
        -(((hours - evening_peak) / 2.0) ** 2)
    )
    seasonal = 0.07 * np.sin(2 * np.pi * (day - 100) / n_days)
    weather = rng.normal(0.0, 0.02, n_days)
    shape = diurnal[None, :] + (seasonal + weather)[:, None]
    shape = shape + rng.normal(0.0, 0.005, shape.shape)
    demand = 152_000.0 * (1.0 + shape - shape.mean())

    bell = np.exp(-(((hours - 12.3) / 3.1) ** 2))
    bell[bell < 0.03] = 0.0
    clouds = np.clip(1.0 - 0.25 * rng.beta(2.0, 5.0, n_days), 0.5, 1.0)
    solar_fraction = np.outer(clouds, bell)
    solar_fraction /= solar_fraction.max()
    solar = CSV_SOLAR_MW * 0.8 * solar_fraction

    monsoon = 1.0 + 0.8 * np.exp(-(((day - 200) / 45.0) ** 2))
    gusts = np.maximum(1.0 + 0.25 * rng.standard_normal(n_days), 0.25)
    wind_diurnal = 1.0 + 0.12 * np.cos(2 * np.pi * (hours - 3.0) / 24.0)
    wind = 9_000.0 * np.outer(monsoon * gusts, wind_diurnal)
    re = solar + wind + 2_200.0

    hydro = 10_500.0 * (1.0 + 0.4 * np.exp(-(((day - 220) / 50.0) ** 2)))[:, None] * (
        1.0 + diurnal[None, :]
    )
    nuclear = np.full((n_days, 48), 4_500.0)
    residual = np.maximum(demand - re - hydro - nuclear, 0.0)
    return {
        "demand_mw": demand.reshape(-1),
        "coal_mw": 0.87 * residual.reshape(-1),
        "gas_mw": 0.13 * residual.reshape(-1),
        "hydro_mw": hydro.reshape(-1),
        "nuclear_mw": nuclear.reshape(-1),
        "re_mw": re.reshape(-1),
        "solar_fraction": solar_fraction.reshape(-1),
    }


def write_patchy_csv(data_dir: Path, seed: int) -> None:
    """Write ``base_year.csv`` and ``solar_shape.csv`` for the 2021 base year.

    The base-year file follows the README contract and carries the gaps
    a real export has: scattered blank cells, short runs of missing rows
    (interpolated by the loader), three whole missing days and a
    two-to-four-week outage of one fuel column (both filled from the
    nearest clean day).  About 1.5% of rows go missing, under
    the loader's 5% limit.
    """
    rng = np.random.default_rng(seed)
    cols = _year_profiles(rng)
    columns = ["demand_mw", "coal_mw", "gas_mw", "hydro_mw", "nuclear_mw", "re_mw"]
    n = cols["demand_mw"].shape[0]
    n_days = n // 48

    cells = np.array([[f"{cols[c][s]:.3f}" for c in columns] for s in range(n)], dtype=object)
    keep_row = np.ones(n, dtype=bool)

    # scattered blank cells
    for slot, col in zip(rng.integers(48, n - 48, 240), rng.integers(0, len(columns), 240)):
        cells[slot, col] = ""
    # short runs of missing rows, at most the loader's default of 4 slots
    for start, length in zip(rng.integers(48, n - 48, 45), rng.integers(1, 5, 45)):
        keep_row[start : start + length] = False
    # whole missing days, away from the year's edges
    for d in rng.choice(np.arange(5, n_days - 5), 3, replace=False):
        keep_row[d * 48 : (d + 1) * 48] = False
    # a multi-week outage of one fuel column
    col = int(rng.integers(1, len(columns)))
    first = int(rng.integers(30, n_days - 60)) * 48
    cells[first : first + int(rng.integers(14, 29)) * 48, col] = ""

    data_dir.mkdir(parents=True, exist_ok=True)
    start = datetime(CSV_YEAR, 1, 1)
    with (data_dir / "base_year.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["timestamp", *columns])
        for s in np.flatnonzero(keep_row):
            stamp = (start + timedelta(minutes=30 * int(s))).isoformat()
            writer.writerow([stamp, *cells[s]])
    with (data_dir / "solar_shape.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["slot", "fraction"])
        for s, value in enumerate(cols["solar_fraction"]):
            writer.writerow([s, f"{value:.6f}"])
