"""Command-line driver: config parsing, sweep execution, output tables."""

import concurrent.futures
import csv
import hashlib
import json
import logging
import math
import multiprocessing
import os
import platform
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import _oracles
import gridlab
from gridlab import cli, economics, newsupply, pipeline
from gridlab import dispatch as dsp
from gridlab.errors import InfeasibleError, InvariantError, ParameterError, UndefinedCostError
from gridlab.newsupply import BatterySpec, CycleYear, SocTrace
from gridlab.scenario import DESPATCH_FIELDS, YEARS, ScenarioParams
from gridlab.shapes import derive_wind_shape, rescale_to_cuf, synth_shapes, synth_solar_shape


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestFmt:
    def test_none_is_empty_cell(self):
        assert cli._fmt(None) == ""

    def test_strings_pass_through(self):
        assert cli._fmt("battery_re") == "battery_re"

    def test_ints_have_no_decimal_point(self):
        assert cli._fmt(2030) == "2030"

    def test_floats_use_ten_significant_digits(self):
        assert cli._fmt(1 / 3) == "0.3333333333"
        assert cli._fmt(1234567.89012345) == "1234567.89"
        assert cli._fmt(0.5) == "0.5"


class TestParseConfig:
    def test_empty_config_is_one_default_scenario(self):
        scenarios, base, opts = cli.parse_config(None)
        assert scenarios == [ScenarioParams()]
        assert base == ScenarioParams()
        assert opts == cli.DataOptions()

    def test_data_options_defaults(self):
        opts = cli.DataOptions()
        assert opts.year == 2021
        assert opts.base_file == "base_year.csv"
        assert opts.solar_shape_file == "solar_shape.csv"
        assert opts.re_annual_target_gwh is None
        assert opts.solar_capacity_mw == 35_000.0
        assert opts.max_gap_slots == 4

    def test_scalar_value_overrides_the_default(self):
        scenarios, base, _ = cli.parse_config({"re_2030": 325.0})
        assert len(scenarios) == 1
        assert base.re_2030 == 325.0
        assert scenarios[0].re_2030 == 325.0

    def test_list_value_becomes_a_sweep_axis(self):
        scenarios, _, _ = cli.parse_config({"battery_size_fraction": [1.0, 0.5]})
        assert [s.battery_size_fraction for s in scenarios] == [1.0, 0.5]

    def test_axes_expand_with_the_last_axis_fastest(self):
        scenarios, _, _ = cli.parse_config(
            {"battery_size_fraction": [1.0, 0.5], "flex_limit": [0.6, 0.7]}
        )
        got = [(s.battery_size_fraction, s.flex_limit) for s in scenarios]
        assert got == [(1.0, 0.6), (1.0, 0.7), (0.5, 0.6), (0.5, 0.7)]

    def test_scalar_applies_to_every_grid_point(self):
        scenarios, _, _ = cli.parse_config(
            {"flex_limit": 0.7, "re_2030": [300.0, 500.0]}
        )
        assert all(s.flex_limit == 0.7 for s in scenarios)

    def test_paper_grid_has_189_points(self):
        scenarios, _, _ = cli.parse_config({"paper_grid": True})
        assert len(scenarios) == 189
        assert len({(s.demand_growth, s.flex_limit, s.re_2030, s.solar_share) for s in scenarios}) == 189

    def test_user_axis_overrides_a_paper_grid_axis(self):
        scenarios, _, _ = cli.parse_config({"paper_grid": True, "re_2030": [300.0]})
        assert len(scenarios) == 27
        assert all(s.re_2030 == 300.0 for s in scenarios)

    def test_unknown_scalar_key_is_rejected(self):
        with pytest.raises(ParameterError, match="unknown config keys"):
            cli.parse_config({"re_2031": 400.0})

    def test_unknown_axis_key_is_rejected(self):
        with pytest.raises(ParameterError, match="unknown grid keys"):
            cli.parse_config({"re_2031": [400.0, 500.0]})

    def test_empty_axis_is_rejected(self):
        with pytest.raises(ParameterError, match="empty"):
            cli.parse_config({"re_2030": []})

    def test_data_key_builds_loader_options(self):
        _, _, opts = cli.parse_config({"data": {"year": 2019, "max_gap_slots": 8}})
        assert opts.year == 2019
        assert opts.max_gap_slots == 8
        assert opts.base_file == "base_year.csv"

    def test_data_key_must_be_a_mapping(self):
        with pytest.raises(ParameterError, match="must be a mapping"):
            cli.parse_config({"data": 5})

    def test_unknown_data_option_is_rejected(self):
        with pytest.raises(ParameterError, match="unknown data options"):
            cli.parse_config({"data": {"basefile": "x.csv"}})

    @pytest.mark.parametrize("config, message", [
        ({"re_2030": [300.0, "400"]}, "re_2030 must be a number"),
        ({"new_option": ["ocgt", 3]}, "new_option must be a string"),
        ({"flex_limit": True}, "flex_limit must be a number"),
        ({"data": {"year": "2021"}}, "data.year must be an integer"),
        ({"data": {"re_annual_target_gwh": "1e6"}}, "re_annual_target_gwh"),
        ({"tech_costs": [{"ocgt": {"life_years": 20}}]}, "tech_costs must be"),
    ])
    def test_mistyped_value_is_rejected(self, config, message):
        with pytest.raises(ParameterError, match=message):
            cli.parse_config(config)

    def test_integers_and_null_pass_where_a_number_is_due(self):
        scenarios, _, opts = cli.parse_config(
            {"re_2030": [300, 400.0], "data": {"re_annual_target_gwh": None}})
        assert [p.re_2030 for p in scenarios] == [300, 400.0]
        assert opts.re_annual_target_gwh is None


class TestLoadInputs:
    def test_synthetic_seed_reproduces_the_generator(self):
        params = ScenarioParams()
        base, solar, wind = cli.load_inputs(None, 3, params, cli.DataOptions())
        expect = synth_shapes(3)
        assert np.array_equal(base.demand, expect.demand)
        raw = synth_solar_shape(expect.year)
        assert np.array_equal(solar.values, rescale_to_cuf(raw, params.solar_cuf).values)
        expect_wind = derive_wind_shape(
            expect.supply_by_fuel["re"], raw, 35_000.0, wind_cuf=params.wind_cuf
        )
        assert np.array_equal(wind.values, expect_wind.values)

    def test_needs_a_data_directory_or_a_seed(self):
        with pytest.raises(ParameterError, match="data directory or a synthetic seed"):
            cli.load_inputs(None, None, ScenarioParams(), cli.DataOptions())

    def test_a_data_directory_and_a_seed_together_are_refused(self):
        # the seed used to win, silently, and the directory was never read
        with pytest.raises(ParameterError) as err:
            cli.load_inputs("/nonexistent", 0, ScenarioParams(), cli.DataOptions())
        assert str(err.value) == ("data directory '/nonexistent' and synthetic seed 0 "
                                  "given together; give one")

    def test_reads_base_year_and_solar_shape_from_directory(self, data_dir):
        params = ScenarioParams()
        base, solar, _ = cli.load_inputs(data_dir, None, params, cli.DataOptions())
        expect = synth_shapes(3)
        assert base.year == expect.year
        assert base.demand == pytest.approx(expect.demand, abs=1e-3)
        raw = synth_solar_shape(expect.year)
        assert solar.values == pytest.approx(
            rescale_to_cuf(raw, params.solar_cuf).values, abs=1e-6
        )

    def test_missing_solar_shape_falls_back_to_synthetic(self, data_dir, tmp_path):
        shutil.copy(data_dir / "base_year.csv", tmp_path / "base_year.csv")
        params = ScenarioParams()
        _, solar, _ = cli.load_inputs(tmp_path, None, params, cli.DataOptions())
        expect = rescale_to_cuf(synth_solar_shape(2021), params.solar_cuf)
        assert np.array_equal(solar.values, expect.values)

    def test_solar_shape_with_wrong_slot_count_is_rejected(self, data_dir, tmp_path):
        shutil.copy(data_dir / "base_year.csv", tmp_path / "base_year.csv")
        with open(tmp_path / "solar_shape.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["slot", "fraction"])
            for i in range(10):
                writer.writerow([i, "0.1"])
        with pytest.raises(ParameterError, match="10 slots"):
            cli.load_inputs(tmp_path, None, ScenarioParams(), cli.DataOptions())


class TestRunManifest:
    def make(self, **overrides):
        fields = dict(
            version="0.1.0",
            scenario_count=4,
            failed=1,
            parallelism=2,
            synthetic_seed=None,
            data_dir="/data",
            config_digest="ab" * 32,
            detail_scenario=0,
            files=("frontier.csv",),
            wall_time_s=1.23456,
        )
        fields.update(overrides)
        return cli.RunManifest(**fields)

    def test_json_payload_round_trips(self, tmp_path):
        manifest = self.make()
        path = tmp_path / "manifest.json"
        text = manifest.to_json(path)
        assert path.read_text() == text + "\n"
        payload = json.loads(text)
        assert payload["scenario_count"] == 4
        assert payload["failed"] == 1
        assert payload["files"] == ["frontier.csv"]
        assert payload["data_dir"] == "/data"
        assert payload["synthetic_seed"] is None

    def test_wall_time_rounds_to_milliseconds(self):
        payload = json.loads(self.make(wall_time_s=1.23456).to_json())
        assert payload["wall_time_s"] == 1.235


class TestExportFiguresEmpty:
    HEADERS = {
        "generation_mix.csv": "year,re_twh,hydro_twh,nuclear_twh,coal_twh,gas_twh,"
        "new_twh,unmet_twh,curtailment_twh",
        "ldc_unmet_2030.csv": "rank,unmet_mw",
        "chronological_mix_2030.csv": "slot,demand_mw,re_mw,hydro_mw,nuclear_mw,"
        "coal_mw,gas_mw,new_mw,unmet_mw",
        "coal_output_2030.csv": "slot,pre_new_mw,post_new_mw",
        "coal_plf.csv": "year,plf_pre_displacement,plf_post_displacement",
    }

    def test_no_detail_still_writes_every_header(self, tmp_path):
        written = cli.export_figures(tmp_path, None)
        assert sorted(p.name for p in written) == sorted(self.HEADERS)
        for name, header in self.HEADERS.items():
            lines = (tmp_path / name).read_text().splitlines()
            assert lines == [header]


#: cells the %-format must write exactly as an f-string does
SPECIAL_VALUES = [-0.0, -0.0004, -0.0005, 0.0005, 2.0005, np.nan, np.inf, -np.inf,
                  1.5e9, 123456789012.3456, -7e12]


def _slot_detail(n_slots, seed=7):
    """A focus-year detail with special cells and every charge source."""
    rng = np.random.default_rng(seed)

    def series():
        values = rng.normal(0.0, 5e3, n_slots)
        where = rng.choice(n_slots, 3 * len(SPECIAL_VALUES), replace=False)
        values[where] = np.tile(SPECIAL_VALUES, 3)
        return values

    def despatch():
        return dsp.DispatchYear(
            demand=series(), supply={k: series() for k in dsp.SUPPLY_KEYS},
            capacity={}, curtailment=series(), unmet=series(),
        )

    charge = np.array([0.0, -0.0, 1e-9, 25.0, np.nan, -3.0])
    zeros = np.zeros(n_slots)
    year = CycleYear.pad(zeros, zeros, zeros, 34)

    def cycles(values):
        matrix = np.zeros(year.unmet.shape)
        year.flat(matrix)[:] = values
        return matrix

    trace = SocTrace(
        battery=BatterySpec(100.0, 50.0, 0.1, 0.9), year=year, solar_gw=0.0,
        soc=cycles(series()), discharge=cycles(series()),
        secondary_unmet=year.unmet,
        charge_re=cycles(rng.choice(charge, n_slots)),
        charge_solar=cycles(rng.choice(charge, n_slots)),
    )
    return pipeline.YearDetail(dispatch=despatch(), reporting=despatch(), trace=trace)


class TestSlotTables:
    # 17,568 slots (a leap year) is not a whole number of write blocks;
    # two blocks exactly puts the last row on a block edge
    @pytest.mark.parametrize("n_slots", [17_568, 2 * dsp._BLOCK_ROWS])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf in the mix sums
    def test_block_writer_matches_the_per_slot_writer(self, tmp_path, n_slots):
        yd = _slot_detail(n_slots)
        outcome = pipeline.ScenarioOutcome(
            params=ScenarioParams(), result=None, year_rows=[], details={2024: yd})
        new, ref = tmp_path / "new", tmp_path / "ref"
        ref.mkdir()
        cli.export_figures(new, outcome, year=2024)
        dsp.to_csv(yd.reporting, new / "dispatch_2024.csv")
        tables = {
            "dispatch_2024.csv": (_oracles.slot_dispatch_csv, yd.reporting, b"\r\n"),
            "soc_trace_2024.csv": (_oracles.slot_soc_trace_csv, yd.trace, b"\r\n"),
            "ldc_unmet_2024.csv": (_oracles.slot_ldc_csv, yd, b"\n"),
            "chronological_mix_2024.csv": (_oracles.slot_chronological_mix_csv, yd, b"\n"),
            "coal_output_2024.csv": (_oracles.slot_coal_output_csv, yd, b"\n"),
        }
        for name, (reference, source, ending) in tables.items():
            reference(source, ref / name)
            got = (new / name).read_bytes()
            assert got == (ref / name).read_bytes(), name
            assert got.endswith(ending), name
            assert got.count(b"\n") == got.count(ending) == n_slots + 1, name
            assert b"\r" not in got.replace(ending, b""), name
        dispatch = (new / "dispatch_2024.csv").read_bytes()
        for cell in (b",-0.000,", b",nan,", b",-inf,", b",1500000000.000,"):
            assert cell in dispatch
        sources = {row[-1] for row in read_rows(new / "soc_trace_2024.csv")[1:]}
        assert sources == {"", "re", "solar", "re+solar"}


CONFIG = {"battery_size_fraction": [1.0, 0.5]}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    manifest = cli.run(config=CONFIG, out_dir=out, synthetic_seed=0, parallelism=1)
    return out, manifest


class TestRun:
    def test_manifest_describes_the_run(self, run_dir):
        _, manifest = run_dir
        assert manifest.version == gridlab.__version__
        assert manifest.scenario_count == 2
        assert manifest.failed == 0
        assert manifest.parallelism == 1
        assert manifest.synthetic_seed == 0
        assert manifest.data_dir is None
        assert manifest.detail_scenario == 0
        canonical = json.dumps(CONFIG, sort_keys=True).encode()
        assert manifest.config_digest == hashlib.sha256(canonical).hexdigest()

    def test_every_listed_file_exists(self, run_dir):
        out, manifest = run_dir
        assert set(manifest.files) == {
            "frontier.csv",
            "results_by_year.csv",
            "failures.csv",
            "generation_mix.csv",
            "ldc_unmet_2030.csv",
            "chronological_mix_2030.csv",
            "coal_output_2030.csv",
            "coal_plf.csv",
            "soc_trace_2030.csv",
            "dispatch_2030.csv",
        }
        for name in manifest.files:
            assert (out / name).exists()
        assert (out / "manifest.json").exists()

    def test_frontier_ranks_by_ascending_npv(self, run_dir):
        out, _ = run_dir
        rows = read_rows(out / "frontier.csv")
        header, data = rows[0], rows[1:]
        assert header[:2] == ["rank", "scenario"]
        assert len(data) == 2
        assert [r[0] for r in data] == ["0", "1"]
        npv_col = header.index("npv_total_rs")
        npvs = [float(r[npv_col]) for r in data]
        assert npvs == sorted(npvs)
        assert {r[1] for r in data} == {"0", "1"}

    def test_frontier_carries_scenario_coordinates(self, run_dir):
        out, _ = run_dir
        rows = read_rows(out / "frontier.csv")
        header = rows[0]
        col = header.index("battery_size_fraction")
        by_scenario = {r[1]: r[col] for r in rows[1:]}
        assert by_scenario == {"0": "1", "1": "0.5"}

    def test_results_by_year_has_ten_rows_per_scenario(self, run_dir):
        out, _ = run_dir
        rows = read_rows(out / "results_by_year.csv")
        header, data = rows[0], rows[1:]
        assert len(data) == 2 * len(YEARS)
        year_col = header.index("year")
        scen_col = header.index("scenario")
        for scen in ("0", "1"):
            years = [int(r[year_col]) for r in data if r[scen_col] == scen]
            assert years == list(YEARS)

    def test_no_failures_leaves_an_empty_table(self, run_dir):
        out, manifest = run_dir
        rows = read_rows(out / "failures.csv")
        assert len(rows) == 1
        assert rows[0][-1] == "error"
        assert manifest.failed == 0

    def test_generation_mix_covers_the_horizon(self, run_dir):
        out, _ = run_dir
        rows = read_rows(out / "generation_mix.csv")
        data = rows[1:]
        assert [int(r[0]) for r in data] == list(YEARS)
        for row in data:
            values = [float(v) for v in row[1:]]
            assert all(np.isfinite(values))
            assert min(values) >= 0.0

    def test_chronological_mix_rows_sum_to_demand(self, run_dir):
        out, _ = run_dir
        rows = read_rows(out / "chronological_mix_2030.csv")
        data = rows[1:]
        assert len(data) == 17_520
        for row in data[::97]:
            demand = float(row[1])
            total = sum(float(v) for v in row[2:])
            assert total == pytest.approx(demand, abs=0.01)

    def test_unmet_duration_curve_is_sorted(self, run_dir):
        out, _ = run_dir
        rows = read_rows(out / "ldc_unmet_2030.csv")
        values = np.array([float(r[1]) for r in rows[1:]])
        assert values.shape[0] == 17_520
        assert np.all(np.diff(values) <= 1e-9)
        assert values.min() >= 0.0

    def test_coal_plf_is_a_fraction_and_displacement_lowers_it(self, run_dir):
        out, _ = run_dir
        rows = read_rows(out / "coal_plf.csv")
        data = rows[1:]
        assert [int(r[0]) for r in data] == list(YEARS)
        for row in data:
            pre, post = float(row[1]), float(row[2])
            assert 0.0 < pre <= 1.0
            assert 0.0 <= post <= pre + 1e-12

    def test_coal_output_never_rises_after_new_supply(self, run_dir):
        out, _ = run_dir
        rows = read_rows(out / "coal_output_2030.csv")
        data = rows[1:]
        assert len(data) == 17_520
        pre = np.array([float(r[1]) for r in data])
        post = np.array([float(r[2]) for r in data])
        assert np.all(post <= pre + 1e-6)
        assert post.sum() < pre.sum()

    def test_soc_trace_and_dispatch_have_their_headers(self, run_dir):
        out, _ = run_dir
        trace_header = read_rows(out / "soc_trace_2030.csv")[0]
        assert trace_header == ["slot", "soc_mwh", "charge_mw", "discharge_mw", "source"]
        dispatch_header = read_rows(out / "dispatch_2030.csv")[0]
        assert dispatch_header[:2] == ["slot", "demand_mw"]
        assert dispatch_header[-2:] == ["curtailment_mw", "unmet_mw"]


class TestRunModes:
    def test_extra_detail_year_adds_a_dispatch_table(self, tmp_path):
        manifest = cli.run(
            config=None, out_dir=tmp_path, synthetic_seed=0, detail_year=2025
        )
        assert "dispatch_2025.csv" in manifest.files
        assert "dispatch_2030.csv" in manifest.files
        assert (tmp_path / "dispatch_2025.csv").exists()

    def test_detail_year_outside_horizon_is_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="2040"):
            cli.run(config=None, out_dir=tmp_path, synthetic_seed=0, detail_year=2040)

    def test_parallelism_below_one_is_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="parallelism"):
            cli.run(config=None, out_dir=tmp_path, synthetic_seed=0, parallelism=0)

    def test_one_bad_scenario_does_not_sink_the_sweep(self, tmp_path, monkeypatch):
        real = cli.evaluate_scenario

        def flaky(stage, *args, **kwargs):
            if stage.params.battery_size_fraction == 0.5:
                raise InfeasibleError("boom")
            return real(stage, *args, **kwargs)

        monkeypatch.setattr(cli, "evaluate_scenario", flaky)
        manifest = cli.run(
            config={"battery_size_fraction": [1.0, 0.5]},
            out_dir=tmp_path,
            synthetic_seed=0,
        )
        assert manifest.failed == 1
        assert manifest.detail_scenario == 0
        rows = read_rows(tmp_path / "failures.csv")
        assert len(rows) == 2
        assert rows[1][0] == "1"
        assert rows[1][-1] == "InfeasibleError: boom"
        frontier = read_rows(tmp_path / "frontier.csv")
        assert len(frontier) == 2
        years = read_rows(tmp_path / "results_by_year.csv")
        assert len(years) == 1 + len(YEARS)

    def test_every_scenario_failing_still_writes_tables(self, tmp_path, monkeypatch):
        def doomed(*args, **kwargs):
            raise InfeasibleError("boom")

        monkeypatch.setattr(cli, "evaluate_scenario", doomed)
        manifest = cli.run(config=None, out_dir=tmp_path, synthetic_seed=0)
        assert manifest.failed == 1
        assert manifest.detail_scenario is None
        assert "dispatch_2030.csv" not in manifest.files
        assert "soc_trace_2030.csv" not in manifest.files
        assert read_rows(tmp_path / "frontier.csv") == [
            read_rows(tmp_path / "frontier.csv")[0]
        ]
        mix = (tmp_path / "generation_mix.csv").read_text().splitlines()
        assert len(mix) == 1

    def test_serial_and_parallel_runs_are_byte_identical(self, run_dir, tmp_path):
        serial_dir, manifest = run_dir
        repeat = tmp_path / "repeat"
        parallel = tmp_path / "parallel"
        cli.run(config=CONFIG, out_dir=repeat, synthetic_seed=0, parallelism=1)
        cli.run(config=CONFIG, out_dir=parallel, synthetic_seed=0, parallelism=2)
        for name in manifest.files:
            reference = (serial_dir / name).read_bytes()
            assert (repeat / name).read_bytes() == reference, name
            assert (parallel / name).read_bytes() == reference, name


#: four despatch keys, six option points each; the option axes come
#: first, so each group's members are spread through the scenario order
MIXED = {
    "new_option": ["battery_re", "coal", "ocgt"],
    "battery_size_fraction": [1.0, 0.5],
    "flex_limit": [0.55, 0.7],
    "re_2030": [300.0, 500.0],
}
#: two despatch keys, three options each, interleaved
TWO_KEYS = {"new_option": ["battery_re", "coal", "ocgt"], "re_2030": [300.0, 500.0]}


def fail_despatch(monkeypatch, re_2030, year=YEARS[0]):
    """Make dispatch_year raise for one RE build-out from ``year`` on."""
    real = pipeline.dispatch_year

    def flaky(params, path, this_year, series):
        if params.re_2030 == re_2030 and this_year >= year:
            raise InfeasibleError("no despatch")
        return real(params, path, this_year, series)

    monkeypatch.setattr(pipeline, "dispatch_year", flaky)


def fail_battery(monkeypatch, re_2030=None):
    """Make the battery option stage fail, for one RE build-out or all."""
    real = newsupply.size_battery

    def flaky(year, params, peak_mw):
        if re_2030 is None or params.re_2030 == re_2030:
            raise InfeasibleError("no battery")
        return real(year, params, peak_mw)

    monkeypatch.setattr(newsupply, "size_battery", flaky)


def count_despatches(monkeypatch) -> list:
    """Record the year of every dispatch_year call from here on."""
    calls = []
    real = pipeline.dispatch_year

    def counted(params, path, year, series):
        calls.append(year)
        return real(params, path, year, series)

    monkeypatch.setattr(pipeline, "dispatch_year", counted)
    return calls


class TestDespatchGroups:
    @pytest.fixture(scope="class")
    def alone_dir(self, tmp_path_factory):
        """MIXED with every scenario despatched alone: the swept option
        fields join the key, so each of the 24 points is its own group."""
        out = tmp_path_factory.mktemp("alone")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "DESPATCH_FIELDS",
                       DESPATCH_FIELDS + ("new_option", "battery_size_fraction"))
            calls = count_despatches(mp)
            manifest = cli.run(config=MIXED, out_dir=out, synthetic_seed=0)
        assert len(calls) == 24 * len(YEARS)
        assert manifest.failed == 0
        return out, manifest

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_grouped_tables_match_scenarios_despatched_alone(
        self, alone_dir, tmp_path, parallelism
    ):
        reference, manifest = alone_dir
        grouped = cli.run(config=MIXED, out_dir=tmp_path, synthetic_seed=0,
                          parallelism=parallelism)
        assert grouped.files == manifest.files
        for name in manifest.files:
            assert (tmp_path / name).read_bytes() == (reference / name).read_bytes(), name

    def test_one_despatch_per_key(self, tmp_path, monkeypatch):
        calls = count_despatches(monkeypatch)
        cli.run(config=TWO_KEYS, out_dir=tmp_path, synthetic_seed=0)
        # two keys; the detail exports reuse scenario 0's decade
        assert len(calls) == 2 * len(YEARS)

    def test_despatch_failure_fails_the_whole_group(self, tmp_path, monkeypatch):
        self.assert_group_1_fails_on_despatch(tmp_path, monkeypatch)

    def test_despatch_failure_wins_over_an_earlier_option_failure(
        self, tmp_path, monkeypatch
    ):
        # the battery member's option stage fails in 2021, the despatch in
        # 2026: every member reports the despatch error
        fail_battery(monkeypatch, 500.0)
        self.assert_group_1_fails_on_despatch(tmp_path, monkeypatch)

    def assert_group_1_fails_on_despatch(self, tmp_path, monkeypatch):
        fail_despatch(monkeypatch, 500.0, year=2026)
        manifest = cli.run(config=TWO_KEYS, out_dir=tmp_path, synthetic_seed=0)
        assert manifest.failed == 3
        rows = read_rows(tmp_path / "failures.csv")[1:]
        assert [r[0] for r in rows] == ["1", "3", "5"]
        assert [r[5] for r in rows] == ["battery_re", "coal", "ocgt"]
        assert all(r[-3:] == ["despatch", "InfeasibleError", "InfeasibleError: no despatch"]
                   for r in rows)
        frontier = read_rows(tmp_path / "frontier.csv")[1:]
        assert sorted(r[1] for r in frontier) == ["0", "2", "4"]

    def test_option_failure_fails_only_its_own_scenario(self, tmp_path, monkeypatch):
        fail_battery(monkeypatch, 500.0)
        manifest = cli.run(config=TWO_KEYS, out_dir=tmp_path, synthetic_seed=0)
        rows = read_rows(tmp_path / "failures.csv")[1:]
        assert [(r[0], *r[-3:]) for r in rows] == [
            ("1", "option", "InfeasibleError", "InfeasibleError: no battery")]
        assert manifest.failed == 1
        assert manifest.detail_scenario == 0

    def test_pricing_failure_names_its_stage(self, tmp_path, monkeypatch):
        real = economics.npv_system_cost

        def flaky(totals, plan, params, path):
            if params.new_option == "coal" and params.re_2030 == 500.0:
                raise UndefinedCostError("no cost")
            return real(totals, plan, params, path)

        monkeypatch.setattr(economics, "npv_system_cost", flaky)
        manifest = cli.run(config=TWO_KEYS, out_dir=tmp_path, synthetic_seed=0)
        rows = read_rows(tmp_path / "failures.csv")[1:]
        assert [(r[0], *r[-3:]) for r in rows] == [
            ("3", "pricing", "UndefinedCostError", "UndefinedCostError: no cost")]
        assert manifest.failed == 1

    @pytest.fixture(scope="class")
    def second_alone(self, tmp_path_factory):
        """TWO_KEYS scenario 1 (battery_re at RE 500) as the only scenario."""
        out = tmp_path_factory.mktemp("second")
        manifest = cli.run(config={"new_option": "battery_re", "re_2030": 500.0},
                           out_dir=out, synthetic_seed=0)
        assert manifest.detail_scenario == 0
        return out, manifest

    def assert_detail_exports_match(self, out, manifest, second_alone):
        reference, alone = second_alone
        assert manifest.detail_scenario == 1
        assert manifest.files == alone.files
        sweep_tables = {"frontier.csv", "results_by_year.csv", "failures.csv"}
        exports = [name for name in manifest.files if name not in sweep_tables]
        assert "dispatch_2030.csv" in exports and "soc_trace_2030.csv" in exports
        for name in exports:
            assert (out / name).read_bytes() == (reference / name).read_bytes(), name

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_detail_comes_from_another_group_when_group_0_fails(
        self, tmp_path, monkeypatch, second_alone, parallelism
    ):
        fail_despatch(monkeypatch, 300.0)
        manifest = cli.run(config=TWO_KEYS, out_dir=tmp_path, synthetic_seed=0,
                           parallelism=parallelism)
        assert manifest.failed == 3
        self.assert_detail_exports_match(tmp_path, manifest, second_alone)

    def test_detail_is_the_first_success_across_groups(
        self, tmp_path, monkeypatch, second_alone
    ):
        # scenario 0 fails and scenario 2 succeeds in the first group, but
        # scenario 1 in the second group comes first
        real = cli.evaluate_scenario

        def flaky(stage, *args, **kwargs):
            if stage.params.re_2030 == 300.0 and stage.params.new_option == "battery_re":
                raise InfeasibleError("no battery")
            return real(stage, *args, **kwargs)

        monkeypatch.setattr(cli, "evaluate_scenario", flaky)
        calls = count_despatches(monkeypatch)
        manifest = cli.run(config=TWO_KEYS, out_dir=tmp_path, synthetic_seed=0)
        assert manifest.failed == 1
        # the second group's decade is despatched again for the exports
        assert len(calls) == 3 * len(YEARS)
        self.assert_detail_exports_match(tmp_path, manifest, second_alone)

    def test_detail_is_rerun_when_scenario_0_fails_in_its_option_stage(
        self, tmp_path, monkeypatch
    ):
        # scenario 0 carried the detail reporting through the sweep; the
        # first success of its group is evaluated again, alone
        reference = tmp_path / "alone"
        alone = cli.run(config={"new_option": "coal"}, out_dir=reference, synthetic_seed=0)
        fail_battery(monkeypatch)
        calls = count_despatches(monkeypatch)
        out = tmp_path / "fallback"
        manifest = cli.run(config={"new_option": ["battery_re", "coal"]}, out_dir=out,
                           synthetic_seed=0)
        assert manifest.failed == 1
        assert manifest.detail_scenario == 1
        # the group once, and the detail scenario's re-run
        assert len(calls) == 2 * len(YEARS)
        assert manifest.files == alone.files
        sweep_tables = {"frontier.csv", "results_by_year.csv", "failures.csv"}
        exports = [name for name in manifest.files if name not in sweep_tables]
        assert "dispatch_2030.csv" in exports
        for name in exports:
            assert (out / name).read_bytes() == (reference / name).read_bytes(), name

    def test_a_failed_detail_rerun_exits_3(self, tmp_path, caplog, monkeypatch):
        # scenario 1 succeeds in the sweep and fails when evaluated again:
        # the same scenario cannot be both solvable and not, so it is a bug
        fail_battery(monkeypatch)
        real = cli.evaluate_scenario
        calls = []

        def second_call_fails(stage, *args):
            calls.append(stage.params.new_option)
            if calls.count("coal") > 1:
                raise InfeasibleError("gone")
            return real(stage, *args)

        monkeypatch.setattr(cli, "evaluate_scenario", second_call_fails)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"new_option": ["battery_re", "coal"]}))
        out_dir = tmp_path / "out"
        code = cli.main(["--config", str(config), "--synthetic", "0", "--out", str(out_dir)])
        assert code == 3
        assert calls == ["battery_re", "coal", "coal"]
        assert ("InvariantError: detail re-run of scenario 1 failed: InfeasibleError: gone"
                in caplog.text)

    def test_progress_log_counts_groups(self, tmp_path, caplog):
        config = {"re_2030": [300.0, 500.0], "new_option": ["coal", "ocgt"]}
        for parallelism in (1, 2):
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="gridlab"):
                cli.run(config=config, out_dir=tmp_path / str(parallelism), synthetic_seed=0,
                        parallelism=parallelism)
            assert (f"evaluating 4 scenarios in 2 despatch groups at parallelism {parallelism}"
                    in caplog.text)
            progress = [r.getMessage() for r in caplog.records if "groups done" in r.getMessage()]
            assert [line.split(" after ")[0] for line in progress] == [
                "1 of 2 despatch groups done", "2 of 2 despatch groups done"]


class TestDemandGrowthAtFloatResolution:
    """At demand growth 10 the 2026 busbar peak is 3.2e10 MW, where one
    ulp (3.8e-6 MW) is more than the balance check's 1e-6 MW."""

    def test_thermal_options_price_to_finite_tables(self, tmp_path):
        manifest = cli.run(config={"demand_growth": 10, "new_option": ["ocgt", "coal"]},
                           out_dir=tmp_path, synthetic_seed=0)
        assert manifest.failed == 0
        assert read_rows(tmp_path / "failures.csv")[1:] == []
        for name in ("frontier.csv", "results_by_year.csv"):
            rows = read_rows(tmp_path / name)[1:]
            assert len(rows) > 0, name
            for cell in (c for row in rows for c in row if c not in ("coal", "ocgt")):
                assert math.isfinite(float(cell)), (name, cell)

    def test_the_battery_option_hits_a_model_limit(self, tmp_path):
        manifest = cli.run(config={"demand_growth": 10}, out_dir=tmp_path, synthetic_seed=0)
        assert manifest.failed == 1
        (row,) = read_rows(tmp_path / "failures.csv")[1:]
        assert row[-3:-1] == ["option", "InfeasibleError"]


class TestMemory:
    def test_a_sweep_holds_less_than_one_decade_of_slot_arrays(self, tmp_path):
        # one decade of a despatch group's slot arrays was about 25 MB;
        # year-major, a group holds one year of them at a time
        tracemalloc.start()
        try:
            cli.run(config=TWO_KEYS, out_dir=tmp_path, synthetic_seed=0, detail_year=2024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 25e6, f"{peak / 1e6:.1f} MB"


class RecordingPool:
    """ProcessPoolExecutor's stand-in: records its size, starts no process
    and runs each task in this one."""

    def __init__(self, sizes, max_workers, initializer, initargs):
        sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)

    def shutdown(self, cancel_futures=False):
        pass


FOUR_KEYS = {"new_option": "coal", "re_2030": [250.0, 300.0, 400.0, 500.0]}


class TestPoolSize:
    @pytest.mark.parametrize("config, parallelism, sizes", [
        (FOUR_KEYS, 64, [3]),  # one worker per group left after group 0
        (FOUR_KEYS, 2, [2]),
        ({"new_option": ["coal", "ocgt"]}, 4, []),  # one group: no pool
    ])
    def test_workers_never_outnumber_the_groups_left(
        self, tmp_path, monkeypatch, config, parallelism, sizes
    ):
        made = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda **kw: RecordingPool(made, **kw))
        manifest = cli.run(config=config, out_dir=tmp_path, synthetic_seed=0,
                           parallelism=parallelism)
        assert made == sizes
        assert manifest.parallelism == parallelism
        assert manifest.failed == 0


SRC = Path(cli.__file__).resolve().parents[1]


def fresh_interpreter(code, **env):
    """stdout of ``python -c code`` in a new process that sees only
    these OpenBLAS settings."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    environ.update(env, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=environ,
                          capture_output=True, text=True, check=True)
    return done.stdout.split()


class TestProcessCost:
    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")
    def test_import_starts_no_blas_threads(self):
        code = "import os, gridlab.cli; print(len(os.listdir('/proc/self/task')))"
        assert fresh_interpreter(code) == ["1"]

    def test_a_blas_thread_count_the_user_set_is_kept(self):
        code = "import os, gridlab.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert fresh_interpreter(code, OPENBLAS_NUM_THREADS="2") == ["2"]

    def test_import_loads_no_multiprocessing(self):
        code = "import sys, gridlab.cli; print('multiprocessing' in sys.modules)"
        assert fresh_interpreter(code) == ["False"]

    def test_import_and_set_up_need_no_ctypes(self):
        # numpy may load ctypes itself; with it blocked, the CLI's import
        # and a --validate-only run must still work, as only the heap
        # setter of a full run imports it
        code = ("import sys; sys.modules['ctypes'] = None; import gridlab.cli; "
                "print(gridlab.cli.main(['--validate-only', '--synthetic', '0']))")
        assert fresh_interpreter(code)[-1] == "0"

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc")
    def test_heap_setter_raises_both_thresholds(self):
        code = "import gridlab.cli; print(*gridlab.cli._reuse_heap())"
        assert fresh_interpreter(code) == ["1", "1"]


class TestMain:
    def write_config(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return str(path)

    def test_validate_only_reports_the_scenario_count(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {"re_2030": [300.0, 400.0]})
        assert cli.main(["--config", cfg, "--validate-only"]) == 0
        out = capsys.readouterr().out
        assert "scenarios: 2" in out
        assert "inputs" not in out

    def test_validate_only_checks_inputs_when_given(self, capsys):
        assert cli.main(["--validate-only", "--synthetic", "1"]) == 0
        out = capsys.readouterr().out
        assert "inputs: ok" in out
        assert "scenarios: 1" in out

    def test_data_and_synthetic_together_exit_2(self, tmp_path, capsys):
        # one of the two sources would be ignored, silently
        with pytest.raises(SystemExit) as exc:
            cli.main(["--data", str(tmp_path / "nonexistent"), "--synthetic", "0",
                      "--validate-only"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("data, keys", [
        ({"year": 2020, "solar_capacity_mw": 1000}, "['solar_capacity_mw', 'year']"),
        ({"base_file": "other.csv"}, "['base_file']"),
        ({"re_annual_target_gwh": 50_000.0}, "['re_annual_target_gwh']"),
    ])
    def test_data_options_with_synthetic_inputs_exit_2(self, tmp_path, capsys, data, keys):
        cfg = self.write_config(tmp_path, {"data": data})
        assert cli.main(["--config", cfg, "--synthetic", "0", "--validate-only"]) == 2
        err = capsys.readouterr().err
        assert f"data options {keys} apply to a data directory" in err

    def test_default_data_options_pass_with_synthetic_inputs(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {"data": {"year": 2021, "max_gap_slots": 4}})
        assert cli.main(["--config", cfg, "--synthetic", "0", "--validate-only"]) == 0
        assert "inputs: ok" in capsys.readouterr().out

    def test_validate_only_rejects_a_detail_year_outside_the_horizon(self, capsys):
        assert cli.main(["--validate-only", "--year-detail", "2035"]) == 2
        assert "detail year 2035 outside horizon 2021..2030" in capsys.readouterr().err

    def test_detail_year_outside_the_horizon_stops_before_any_scenario(
        self, tmp_path, capsys, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("a scenario was evaluated")

        monkeypatch.setattr(cli, "evaluate_scenario", never)
        out_dir = tmp_path / "out"
        code = cli.main(["--synthetic", "0", "--year-detail", "2035", "--out", str(out_dir)])
        assert code == 2
        assert "detail year 2035" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_invalid_json_config_exits_2(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "{not json")
        assert cli.main(["--config", cfg, "--validate-only"]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_integer_too_long_to_read_exits_2(self, tmp_path, capsys):
        # past 4,300 digits Python refuses to convert an integer literal,
        # and json.load raises a ValueError rather than a JSONDecodeError
        cfg = self.write_config(tmp_path, '{"coal_2021": ' + "9" * 4400 + "}")
        assert cli.main(["--config", cfg, "--validate-only"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config is not valid JSON")
        assert "Traceback" not in err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {"re_2031": 400.0})
        assert cli.main(["--config", cfg, "--validate-only"]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("key", [
        "demand_2021_bu", "other_re_plf", "solar_kwh_per_kw_day", "aux_hydro",
        "aux_nuclear", "aux_re", "battery_aux", "diesel_escalation",
    ])
    def test_removed_inert_key_exits_2(self, tmp_path, capsys, key):
        cfg = self.write_config(tmp_path, {key: 0.01})
        assert cli.main(["--config", cfg, "--validate-only", "--synthetic", "0"]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["solar_cuf", "wind_cuf"])
    def test_shape_cuf_sweep_axis_exits_2(self, tmp_path, capsys, key):
        # the per-MW shapes are built once per run, so a swept CUF would
        # give every point the same result
        cfg = self.write_config(tmp_path, {"new_option": "ocgt", key: [0.2, 0.3]})
        assert cli.main(["--config", cfg, "--validate-only", "--synthetic", "0"]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("payload, key", [
        ({"flex_limit": "0.6"}, "flex_limit"),
        ({"re_2030": None}, "re_2030"),
        ({"battery_cycle_boundary_hour": 17.5}, "battery_cycle_boundary_hour"),
        ({"new_option": "ocgt", "tech_costs": {"ocgt": {"life_years": "x"}}}, "life_years"),
        ({"count_full_life_annuities": "no"}, "count_full_life_annuities"),
        ({"paper_grid": "false"}, "paper_grid"),
    ])
    def test_mistyped_value_exits_2(self, tmp_path, capsys, payload, key):
        cfg = self.write_config(tmp_path, payload)
        assert cli.main(["--config", cfg, "--validate-only"]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("payload, key", [
        ({"new_option": "battery_re", "tech_costs": {"diesel_gen": {"aux": 1.0}}},
         "tech_costs['diesel_gen'].aux"),
        ({"discount_rate": -1.0}, "discount_rate"),
        ({"new_option": "ocgt", "tech_costs": {"ocgt": {"life_years": 0}}},
         "tech_costs['ocgt'].life_years"),
        ({"solar_life_years": 0}, "solar_life_years"),
        ({"tech_costs": {"smr": {"life_years": 60, "capex_2021": 1e8, "capex_escalation": 0.0,
                                 "aux": 0.08, "fuel_2021": 1.0, "fuel_escalation": 0.0}}},
         "smr"),
        ({"om_inflation": -1.0}, "om_inflation"),
        ({"wacc": -1.0}, "wacc"),
        ({"wacc": -2.0}, "wacc"),
        ({"inverter_capex_rs_per_kw": -1e4}, "inverter_capex_rs_per_kw"),
        ({"battery_om_fraction": -1}, "battery_om_fraction"),
        ({"wind_capex_2021": 0}, "wind_capex_2021"),
        ({"battery_learning_rate": 1}, "battery_learning_rate"),
        ({"coal_escalation": -1}, "coal_escalation"),
        ({"re_2021": 0, "re_2030": 0}, "re_2021"),
        ({"hydro_2021": 0}, "hydro_2021"),
        ({"nuclear_growth": -2.0}, "nuclear_growth"),
        ({"coal_2021": 0}, "coal_retirement_2030"),
        # each overflowed the annuity: an internal error, or inf in the NPV
        ({"battery_life_years": 100000}, "battery_life_years"),
        ({"solar_life_years": 10000, "new_option": "ocgt"}, "solar_life_years"),
        ({"new_option": "ocgt", "tech_costs": {"ocgt": {"life_years": 20000}}},
         "tech_costs['ocgt'].life_years"),
        ({"wacc": 1e13, "new_option": "ocgt"}, "wacc"),
        ({"solar_life_years": 8650, "new_option": "ocgt"}, "solar_life_years"),
        ({"discount_rate": -0.999999, "count_full_life_annuities": True,
          "new_option": "ocgt", "solar_life_years": 100}, "discount_rate"),
    ])
    def test_out_of_range_cost_input_exits_2(self, tmp_path, capsys, payload, key):
        cfg = self.write_config(tmp_path, payload)
        assert cli.main(["--config", cfg, "--validate-only"]) == 2
        assert key in capsys.readouterr().err

    def test_wind_path_rounding_to_zero_exits_2_at_validation(self, tmp_path, capsys):
        # 75e6 + (1e-9 - 75e6) * 9 / 9 is exactly 0.0: the path check fails
        # on the parameters alone, so it runs at config time
        cfg = self.write_config(tmp_path, {"wind_capex_2030": 1e-9})
        assert cli.main(["--config", cfg, "--validate-only"]) == 2
        assert "wind_capex_2030" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["demand_growth", "re_2030"])
    def test_overflowing_build_out_exits_2_before_any_run(
        self, tmp_path, capsys, monkeypatch, key
    ):
        # demand_growth 1e300 overflowed the growth factor (exit 3), and
        # re_2030 1e300 wrote inf into the NPV columns (exit 0)
        def never(*args, **kwargs):
            raise AssertionError("a decade was despatched")

        monkeypatch.setattr(cli, "despatch_group", never)
        cfg = self.write_config(tmp_path, {key: 1e300})
        out_dir = tmp_path / "out"
        assert cli.main(["--config", cfg, "--synthetic", "0", "--out", str(out_dir)]) == 2
        assert key in capsys.readouterr().err
        assert not out_dir.exists()

    def test_largest_re_build_out_prices_to_finite_tables(self, tmp_path):
        out_dir = tmp_path / "out"
        cfg = self.write_config(
            tmp_path, {"re_2030": 10000.0, "new_option": ["battery_re", "coal"]})
        assert cli.main(["--config", cfg, "--synthetic", "0", "--out", str(out_dir)]) == 0
        for name in ("frontier.csv", "results_by_year.csv"):
            rows = read_rows(out_dir / name)[1:]
            assert len(rows) > 0, name
            for cell in (c for row in rows for c in row if c not in ("battery_re", "coal")):
                assert math.isfinite(float(cell)), (name, cell)

    def test_wind_path_rounding_to_zero_exits_2_before_any_run(
        self, tmp_path, capsys, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("a decade was despatched")

        monkeypatch.setattr(cli, "despatch_group", never)
        cfg = self.write_config(tmp_path, {"re_2030": 450.0, "wind_capex_2030": [7e7, 1e-9]})
        out_dir = tmp_path / "out"
        assert cli.main(["--config", cfg, "--synthetic", "0", "--out", str(out_dir)]) == 2
        assert "wind_capex_2030" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_missing_data_directory_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope")
        assert cli.main(["--data", missing, "--validate-only"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_no_input_source_exits_2(self, tmp_path, capsys):
        assert cli.main(["--out", str(tmp_path / "out")]) == 2
        assert "data directory or a synthetic seed" in capsys.readouterr().err

    def test_successful_run_exits_0(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = cli.main(["--synthetic", "0", "--out", str(out_dir)])
        assert code == 0
        assert "evaluated 1 of 1 scenarios" in capsys.readouterr().out
        assert (out_dir / "manifest.json").exists()

    def test_heap_is_set_once_before_a_full_run_only(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_reuse_heap", lambda: calls.append("heap"))
        assert cli.main(["--validate-only", "--synthetic", "0"]) == 0
        assert calls == []
        assert cli.main(["--synthetic", "0", "--out", str(tmp_path / "out")]) == 0
        assert calls == ["heap"]

    def test_scenario_failures_exit_1(self, tmp_path, capsys, monkeypatch):
        def doomed(*args, **kwargs):
            raise InfeasibleError("boom")

        monkeypatch.setattr(cli, "evaluate_scenario", doomed)
        code = cli.main(["--synthetic", "0", "--out", str(tmp_path / "out")])
        assert code == 1
        assert "failures.csv" in capsys.readouterr().err

    def test_program_error_exits_3(self, tmp_path, caplog, monkeypatch):
        # an exception that is not a GridlabError is a bug: it ends the
        # run instead of being filed as an unsolvable scenario
        def broken(*args, **kwargs):
            raise TypeError("boom")

        monkeypatch.setattr(cli, "evaluate_scenario", broken)
        out_dir = tmp_path / "out"
        assert cli.main(["--synthetic", "0", "--out", str(out_dir)]) == 3
        assert "TypeError: boom" in caplog.text
        assert not (out_dir / "failures.csv").exists()

    def test_program_error_in_group_0_ends_a_pooled_run(self, tmp_path, caplog, monkeypatch):
        # three despatch keys: the parent runs group 0 while two workers
        # run the others, and the bug is in group 0 only
        real = cli.evaluate_scenario

        def broken(stage, *args, **kwargs):
            if stage.params.re_2030 == 250.0:
                raise TypeError("boom")
            return real(stage, *args, **kwargs)

        monkeypatch.setattr(cli, "evaluate_scenario", broken)
        cfg = self.write_config(tmp_path, {"new_option": "coal", "re_2030": [250.0, 300.0, 400.0]})
        out_dir = tmp_path / "out"
        argv = ["--config", cfg, "--synthetic", "0", "--parallelism", "2", "--out", str(out_dir)]
        assert cli.main(argv) == 3
        assert "TypeError: boom" in caplog.text
        assert not (out_dir / "failures.csv").exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("where", ["pool worker", "group 0"])
    def test_broken_invariant_exits_3_and_files_no_failure(
        self, tmp_path, caplog, monkeypatch, where
    ):
        # three despatch keys at parallelism 2: the parent runs group 0
        # and two workers, forked with the patch in place, run the others
        parent = os.getpid()

        def broken(plan):
            if (os.getpid() == parent) == (where == "group 0"):
                raise InvariantError(f"broken in the {where}")

        monkeypatch.setattr(newsupply.NewSupplyPlan, "validate", broken)
        cfg = self.write_config(tmp_path, {"new_option": "coal", "re_2030": [250.0, 300.0, 400.0]})
        out_dir = tmp_path / "out"
        argv = ["--config", cfg, "--synthetic", "0", "--parallelism", "2", "--out", str(out_dir)]
        assert cli.main(argv) == 3
        assert f"InvariantError: broken in the {where}" in caplog.text
        assert not (out_dir / "failures.csv").exists()
        assert multiprocessing.active_children() == []

    def test_an_unsolvable_option_stage_is_a_failure_row_and_exits_1(
        self, tmp_path, capsys, monkeypatch
    ):
        fail_battery(monkeypatch)
        out_dir = tmp_path / "out"
        assert cli.main(["--synthetic", "0", "--out", str(out_dir)]) == 1
        assert "1 scenario(s) failed" in capsys.readouterr().err
        (row,) = read_rows(out_dir / "failures.csv")[1:]
        assert row[-3:] == ["option", "InfeasibleError", "InfeasibleError: no battery"]

    @pytest.mark.parametrize("value", ["infoo", "basic_format", "shutdown"])
    def test_unknown_log_level_exits_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, value
    ):
        # "infoo" once ran silently at WARNING, "basic_format" crashed in
        # logging.basicConfig and "shutdown" named a function, not a level
        def never(*args, **kwargs):
            raise AssertionError("a decade was despatched")

        monkeypatch.setattr(cli, "despatch_group", never)
        monkeypatch.setenv("GRIDLAB_LOG", value)
        out_dir = tmp_path / "out"
        assert cli.main(["--synthetic", "0", "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: GRIDLAB_LOG must be one of DEBUG, INFO, WARNING, "
                              "ERROR, CRITICAL")
        assert repr(value) in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("value", ["info", "Debug", "CRITICAL", ""])
    def test_log_level_names_pass_in_any_case(self, capsys, monkeypatch, value):
        monkeypatch.setenv("GRIDLAB_LOG", value)
        assert cli.main(["--validate-only"]) == 0
        assert "scenarios: 1" in capsys.readouterr().out
