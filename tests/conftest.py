"""Shared fixtures: one synthetic base year, derived shapes, CSV writers."""

import csv
from datetime import datetime, timedelta

import pytest

from gridlab.shapes import (
    TIMESERIES_COLUMNS,
    derive_wind_shape,
    rescale_to_cuf,
    synth_shapes,
    synth_solar_shape,
)


@pytest.fixture(scope="session")
def base_year():
    return synth_shapes(7)


@pytest.fixture(scope="session")
def solar_shape(base_year):
    return rescale_to_cuf(synth_solar_shape(base_year.year), 0.27)


@pytest.fixture(scope="session")
def wind_shape(base_year):
    raw = synth_solar_shape(base_year.year)
    return derive_wind_shape(
        base_year.supply_by_fuel["re"], raw, 35_000.0, wind_cuf=0.35
    )


def write_timeseries_csv(path, base, skip_slots=frozenset(), blank=frozenset()):
    """Write a BaseYearData in the documented loader format.

    ``skip_slots`` drops whole rows; ``blank`` is a set of
    (slot, column_name) pairs written as empty cells.
    """
    start = datetime(base.year, 1, 1)
    series = {
        "demand_mw": base.demand.values,
        "coal_mw": base.supply_by_fuel["coal"].values,
        "gas_mw": base.supply_by_fuel["gas"].values,
        "hydro_mw": base.supply_by_fuel["hydro"].values,
        "nuclear_mw": base.supply_by_fuel["nuclear"].values,
        "re_mw": base.supply_by_fuel["re"].values,
    }
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TIMESERIES_COLUMNS)
        for s in range(base.demand.n_slots):
            if s in skip_slots:
                continue
            stamp = (start + timedelta(minutes=30 * s)).isoformat(sep=" ")
            row = [stamp]
            for name in TIMESERIES_COLUMNS[1:]:
                row.append("" if (s, name) in blank else f"{series[name][s]:.4f}")
            writer.writerow(row)


@pytest.fixture(scope="session")
def data_dir(tmp_path_factory):
    """A real-data input directory honouring the CSV contract."""
    base = synth_shapes(3)
    d = tmp_path_factory.mktemp("data")
    write_timeseries_csv(d / "base_year.csv", base)
    shape = synth_solar_shape(base.year)
    with open(d / "solar_shape.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "fraction"])
        for i, v in enumerate(shape.values):
            writer.writerow([i, f"{v:.8f}"])
    return d
