"""Series containers, CSV loading, gap cleaning, and shape derivation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from conftest import write_timeseries_csv
from gridlab.errors import (
    CadenceError,
    DataIntegrityError,
    DegenerateShapeError,
    InfeasibleError,
    ParameterError,
    TimeseriesParseError,
)
from gridlab.shapes import (
    SLOTS_PER_DAY,
    BaseYearData,
    PerMwShape,
    clean_series,
    derive_wind_shape,
    days_in_year,
    load_shape_csv,
    load_timeseries_csv,
    map_values_to_year,
    rescale_to_cuf,
    slots_in_year,
    synth_shapes,
    synth_solar_shape,
)


def _base(year=2021, demand=100.0, coal=50.0, gas=21.0, hydro=10.0,
          nuclear=5.0, re=15.0):
    n = slots_in_year(year)
    return BaseYearData(
        year=year,
        demand=np.full(n, float(demand)),
        supply_by_fuel={f: np.full(n, float(v)) for f, v in
                        [("coal", coal), ("gas", gas), ("hydro", hydro),
                         ("nuclear", nuclear), ("re", re)]},
    )


# --- calendar and year mapping -------------------------------------------


def test_slot_counts():
    assert slots_in_year(2021) == 17_520
    assert slots_in_year(2024) == 17_568
    assert days_in_year(2021) == 365
    assert days_in_year(2024) == 366


def test_map_same_length_passes_through():
    # equal-length years hand back the input itself; series values are
    # read-only, so a write through the result raises instead of aliasing
    s = _base(demand=3.0).demand
    y = map_values_to_year(s, 2021, 2022)
    assert y is s
    with pytest.raises(ValueError):
        y[0] = -1.0


def test_map_to_leap_repeats_28_february():
    x = np.arange(slots_in_year(2021), dtype=float)
    y = map_values_to_year(x, 2021, 2024)
    assert y.shape == (slots_in_year(2024),)
    day = lambda arr, d: arr[d * SLOTS_PER_DAY:(d + 1) * SLOTS_PER_DAY]
    assert np.array_equal(day(y, 58), day(x, 58))   # 28 Feb kept
    assert np.array_equal(day(y, 59), day(x, 58))   # 29 Feb is its copy
    assert np.array_equal(day(y, 60), day(x, 59))   # 1 Mar realigned


def test_map_roundtrip_through_leap_year():
    x = np.arange(slots_in_year(2021), dtype=float)
    back = map_values_to_year(map_values_to_year(x, 2021, 2024), 2024, 2021)
    assert np.array_equal(back, x)


def test_map_rejects_wrong_length():
    with pytest.raises(ParameterError):
        map_values_to_year(np.zeros(100), 2021, 2024)


# --- the base-year container ----------------------------------------------


def _base_with(label, values, year=2021):
    """``_base()`` with the series ``label`` replaced by ``values``."""
    base = _base(year)
    series = {"demand": base.demand, **base.supply_by_fuel, label: values}
    return BaseYearData(year, series.pop("demand"), series)


@pytest.mark.parametrize("label", ["demand", "gas"])
def test_base_year_series_validation(label):
    n = slots_in_year(2021)
    with pytest.raises(ParameterError, match=f"series '{label}' for 2021 needs 17520 slots"):
        _base_with(label, np.zeros(n - 1))
    bad = np.zeros(n)
    bad[3] = -2.0
    with pytest.raises(ParameterError, match=f"series '{label}' contains negative MW"):
        _base_with(label, bad)
    bad[3] = np.inf
    with pytest.raises(ParameterError, match=f"series '{label}' contains infinities"):
        _base_with(label, bad)
    bad[3] = np.nan
    _base_with(label, bad)  # a gap, not an error


def test_base_year_series_are_frozen_copies():
    values = np.full(slots_in_year(2021), 7.0)
    base = _base_with("re", values)
    values[0] = 1.0  # the caller's array is not the stored one
    assert base.supply_by_fuel["re"][0] == 7.0
    for series in (base.demand, base.supply_by_fuel["re"]):
        with pytest.raises(ValueError, match="read-only"):
            series[0] = 1.0


def test_base_year_data_needs_every_fuel():
    base = _base()
    with pytest.raises(ParameterError, match=r"supply_by_fuel missing \['gas', 'hydro'"):
        BaseYearData(year=2021, demand=base.demand,
                     supply_by_fuel={"coal": base.supply_by_fuel["coal"]})


def test_base_in_year_is_leap_aware():
    base = _base(demand=2.0)
    t = _oracles.base_in_year(base, 2024)
    assert t.year == 2024 and t.demand.size == slots_in_year(2024)
    assert float(t.demand[59 * 48]) == 2.0


def test_per_mw_shape_bounds():
    with pytest.raises(ParameterError):
        PerMwShape(np.array([0.2, 1.3]))
    with pytest.raises(ParameterError):
        PerMwShape(np.array([-0.1, 0.5]))
    with pytest.raises(ParameterError):
        PerMwShape(np.array([np.nan]))
    with pytest.raises(ParameterError):
        PerMwShape(np.array([]))
    s = PerMwShape(np.array([0.0, 0.5, 1.0]))
    assert s.values.mean() == pytest.approx(0.5)


# --- timeseries loader -----------------------------------------------------


def test_loader_roundtrip(tmp_path):
    base = synth_shapes(3)
    path = tmp_path / "base.csv"
    write_timeseries_csv(path, base)
    loaded = load_timeseries_csv(path, base.year)
    assert loaded.gaps == {}
    np.testing.assert_allclose(loaded.demand, base.demand, atol=1e-4)
    for fuel in ("coal", "gas", "hydro", "nuclear", "re"):
        np.testing.assert_allclose(
            loaded.supply_by_fuel[fuel],
            base.supply_by_fuel[fuel], atol=1e-4)


def test_loader_accepts_a_utf8_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" export starts the file with U+FEFF
    base = synth_shapes(3)
    plain = tmp_path / "plain.csv"
    write_timeseries_csv(plain, base)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    loaded = load_timeseries_csv(marked, base.year)
    expected = load_timeseries_csv(plain, base.year)
    np.testing.assert_array_equal(loaded.demand, expected.demand)
    for fuel in ("coal", "gas", "hydro", "nuclear", "re"):
        np.testing.assert_array_equal(
            loaded.supply_by_fuel[fuel], expected.supply_by_fuel[fuel])


def test_loader_records_gaps(tmp_path):
    base = synth_shapes(3)
    path = tmp_path / "gappy.csv"
    write_timeseries_csv(
        path, base,
        skip_slots={500, 501},
        blank={(100, "demand_mw"), (101, "demand_mw"), (200, "re_mw")},
    )
    loaded = load_timeseries_csv(path, base.year)
    assert loaded.gaps["demand"] == ((100, 102), (500, 502))
    assert (200, 201) in loaded.gaps["re"]
    assert np.isnan(loaded.supply_by_fuel["coal"][500])


def _tiny_csv(tmp_path, rows, header="timestamp,demand_mw,coal_mw,gas_mw,hydro_mw,nuclear_mw,re_mw"):
    path = tmp_path / "bad.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


def test_loader_rejects_bad_header(tmp_path):
    path = _tiny_csv(tmp_path, [], header="time,demand")
    with pytest.raises(TimeseriesParseError):
        load_timeseries_csv(path, 2021)


def test_loader_rejects_bad_timestamp(tmp_path):
    path = _tiny_csv(tmp_path, ["nonsense,1,1,1,1,1,1"])
    with pytest.raises(TimeseriesParseError):
        load_timeseries_csv(path, 2021)


def test_loader_rejects_wrong_year(tmp_path):
    path = _tiny_csv(tmp_path, ["2020-01-01 00:00:00,1,1,1,1,1,1"])
    with pytest.raises(TimeseriesParseError):
        load_timeseries_csv(path, 2021)


def test_loader_rejects_off_grid_cadence(tmp_path):
    path = _tiny_csv(tmp_path, ["2021-01-01 00:17:00,1,1,1,1,1,1"])
    with pytest.raises(CadenceError):
        load_timeseries_csv(path, 2021)


def test_loader_rejects_non_advancing_rows(tmp_path):
    path = _tiny_csv(tmp_path, [
        "2021-01-01 00:30:00,1,1,1,1,1,1",
        "2021-01-01 00:00:00,1,1,1,1,1,1",
    ])
    with pytest.raises(CadenceError):
        load_timeseries_csv(path, 2021)


def test_loader_rejects_negative_mw(tmp_path):
    path = _tiny_csv(tmp_path, ["2021-01-01 00:00:00,-5,1,1,1,1,1"])
    with pytest.raises(TimeseriesParseError) as err:
        load_timeseries_csv(path, 2021)
    assert "negative" in str(err.value)


def test_loader_rejects_unparseable_value(tmp_path):
    path = _tiny_csv(tmp_path, ["2021-01-01 00:00:00,abc,1,1,1,1,1"])
    with pytest.raises(TimeseriesParseError):
        load_timeseries_csv(path, 2021)


def test_loader_rejects_mostly_missing_year(tmp_path):
    # a single January day is far beyond the 5% missing-row budget
    rows = [
        f"2021-01-01 {h:02d}:{m:02d}:00,1,1,1,1,1,1"
        for h in range(24) for m in (0, 30)
    ]
    path = _tiny_csv(tmp_path, rows)
    with pytest.raises(DataIntegrityError):
        load_timeseries_csv(path, 2021)


def test_shape_csv_roundtrip_and_errors(tmp_path, data_dir):
    shape = load_shape_csv(data_dir / "solar_shape.csv")
    assert shape.values.shape == (slots_in_year(2021),)
    assert shape.values.max() <= 1.0

    bad = tmp_path / "s.csv"
    bad.write_text("slot,value\n0,0.5\n")
    with pytest.raises(TimeseriesParseError):
        load_shape_csv(bad)
    bad.write_text("slot,fraction\n1,0.5\n")
    with pytest.raises(CadenceError):
        load_shape_csv(bad)
    bad.write_text("slot,fraction\n0,1.5\n")
    with pytest.raises(TimeseriesParseError):
        load_shape_csv(bad)
    bad.write_text("slot,fraction\n")
    with pytest.raises(DataIntegrityError):
        load_shape_csv(bad)


def test_shape_csv_accepts_a_utf8_byte_order_mark(tmp_path, data_dir):
    plain = data_dir / "solar_shape.csv"
    marked = tmp_path / "solar_shape.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    np.testing.assert_array_equal(load_shape_csv(marked).values, load_shape_csv(plain).values)


# --- cleaning ---------------------------------------------------------------


def _with_gaps(values, runs):
    out = values.copy()
    for a, b in runs:
        out[a:b] = np.nan
    return out


def test_clean_interpolates_short_gaps():
    base = _base()
    vals = base.demand.copy()
    vals[1000] = 80.0
    vals[1004] = 120.0
    raw = BaseYearData(
        year=2021,
        demand=_with_gaps(vals, [(1001, 1004)]),
        supply_by_fuel=base.supply_by_fuel,
    )
    cleaned = clean_series(raw, max_gap_slots=4)
    np.testing.assert_allclose(
        cleaned.demand[1001:1004], [90.0, 100.0, 110.0])
    assert not np.isnan(cleaned.demand).any()


def test_clean_copies_nearest_day_for_long_gaps():
    base = _base()
    vals = base.demand.copy()
    day, sod = 10, 5
    prev_day_value = 77.0
    vals[(day - 1) * SLOTS_PER_DAY + sod] = prev_day_value
    gap_start = day * SLOTS_PER_DAY
    raw = BaseYearData(
        year=2021,
        demand=_with_gaps(vals, [(gap_start, gap_start + 8)]),
        supply_by_fuel=base.supply_by_fuel,
    )
    cleaned = clean_series(raw, max_gap_slots=4)
    # 8 slots exceed the interpolation budget: same slot-of-day, day before
    assert cleaned.demand[gap_start + sod] == prev_day_value


def test_clean_boundary_gap_uses_day_copy():
    base = _base()
    vals = base.demand.copy()
    raw = BaseYearData(
        year=2021,
        demand=_with_gaps(vals, [(0, 2)]),
        supply_by_fuel=base.supply_by_fuel,
    )
    cleaned = clean_series(raw)
    np.testing.assert_allclose(cleaned.demand[:2], vals[SLOTS_PER_DAY:SLOTS_PER_DAY + 2])


def test_clean_applies_re_energy_target():
    base = _base(re=15.0)
    energy_gwh = lambda mw: float(np.sum(mw)) * 0.5 / 1e3
    target = 2.0 * energy_gwh(base.supply_by_fuel["re"])
    assert target == pytest.approx(2.0 * 15.0 * 8.76)
    cleaned = clean_series(base, re_annual_target=target)
    np.testing.assert_allclose(cleaned.supply_by_fuel["re"],
                               2.0 * base.supply_by_fuel["re"])
    assert energy_gwh(cleaned.supply_by_fuel["re"]) == pytest.approx(target)


def test_clean_parameter_errors():
    base = _base()
    with pytest.raises(ParameterError):
        clean_series(base, max_gap_slots=-1)
    with pytest.raises(ParameterError):
        clean_series(base, re_annual_target=0.0)


def test_clean_rejects_all_nan_series():
    base = _base()
    n = slots_in_year(2021)
    raw = BaseYearData(
        year=2021,
        demand=np.full(n, np.nan),
        supply_by_fuel=base.supply_by_fuel,
    )
    with pytest.raises(DataIntegrityError):
        clean_series(raw)


# --- shape derivation --------------------------------------------------------


def test_rescale_to_cuf_hits_target():
    shape = rescale_to_cuf(synth_solar_shape(2021), 0.27)
    assert shape.values.mean() == pytest.approx(0.27, abs=1e-6)
    assert shape.values.max() <= 1.0


def test_rescale_infeasible_target():
    shape = synth_solar_shape(2021)
    daylight = np.count_nonzero(shape.values > 0) / shape.values.size
    with pytest.raises(InfeasibleError):
        rescale_to_cuf(shape, daylight + 0.05)


def test_rescale_unconverged_raises():
    # the synthetic solar shape needs 16 clip-and-rescale steps to reach
    # a 0.27 CUF; stopping after 3 must not hand back the wrong CUF
    with pytest.raises(InfeasibleError, match="after 3 rescaling steps"):
        rescale_to_cuf(synth_solar_shape(2021), 0.27, max_iter=3)


def test_rescale_parameter_errors():
    shape = synth_solar_shape(2021)
    with pytest.raises(ParameterError):
        rescale_to_cuf(shape, 1.0)
    with pytest.raises(ParameterError):
        rescale_to_cuf(PerMwShape(np.zeros(48)), 0.2)


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(0.25, 1.0), target=st.floats(0.05, 0.30))
def test_rescale_cuf_property(scale, target):
    shape = PerMwShape(synth_solar_shape(2021).values * scale)
    out = rescale_to_cuf(shape, target)
    assert abs(out.values.mean() - target) <= 1e-6


def test_derive_wind_shape_subtracts_solar():
    year = 2021
    n = slots_in_year(year)
    solar = synth_solar_shape(year)
    wind_mw = np.full(n, 2_000.0)
    re = 5_000.0 * solar.values + wind_mw
    shape = derive_wind_shape(re, solar, 5_000.0)
    np.testing.assert_allclose(shape.values, 1.0, atol=1e-12)


def test_derive_wind_shape_errors():
    year = 2021
    solar = synth_solar_shape(year)
    re = 1_000.0 * solar.values
    with pytest.raises(DegenerateShapeError):
        derive_wind_shape(re, solar, 2_000.0)
    gappy = 1_000.0 * solar.values + 10.0
    gappy[5] = np.nan
    with pytest.raises(ParameterError, match="needs a cleaned RE series"):
        derive_wind_shape(gappy, solar, 100.0)


def test_derive_wind_shape_rescales_to_cuf():
    year = 2021
    solar = synth_solar_shape(year)
    rng = np.random.default_rng(0)
    wind_mw = 1_500.0 + 500.0 * rng.random(slots_in_year(year))
    re = 3_000.0 * solar.values + wind_mw
    shape = derive_wind_shape(re, solar, 3_000.0, wind_cuf=0.35)
    assert shape.values.mean() == pytest.approx(0.35, abs=1e-6)


# --- synthetic generator -----------------------------------------------------


def test_synth_is_deterministic():
    a = synth_shapes(11)
    b = synth_shapes(11)
    assert np.array_equal(a.demand, b.demand)
    assert np.array_equal(a.supply_by_fuel["re"], b.supply_by_fuel["re"])
    c = synth_shapes(12)
    assert not np.array_equal(a.demand, c.demand)


def test_synth_zero_peakiness_is_flat():
    base = synth_shapes(5, peakiness=0.0)
    assert np.ptp(base.demand) == 0.0


def test_synth_balances_exactly():
    base = synth_shapes(9)
    supply = sum(base.supply_by_fuel[f] for f in
                 ("coal", "gas", "hydro", "nuclear", "re"))
    demand = base.demand
    # never under-supplied; exact balance wherever thermal is running
    assert float(np.min(supply - demand)) > -1e-9
    thermal = base.supply_by_fuel["coal"] > 0
    np.testing.assert_allclose(supply[thermal], demand[thermal], rtol=1e-12)


def test_synth_rejects_negative_peakiness():
    with pytest.raises(ParameterError):
        synth_shapes(1, peakiness=-0.5)


def test_synth_solar_shape_is_diurnal():
    shape = synth_solar_shape(2021)
    assert shape.values.max() == pytest.approx(1.0)
    night = shape.values.reshape(-1, SLOTS_PER_DAY)[:, :10]
    assert np.all(night == 0.0)
