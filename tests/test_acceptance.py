"""End-to-end acceptance gate, one test per criterion.

Each test exercises a whole guarantee at its stated tolerance and
prints a single summary line on success (visible under ``pytest -rA``
or ``-s``); the pytest verdict per test is the pass/fail record.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import _oracles
from gridlab import cli
from gridlab.economics import build_price_path
from gridlab.newsupply import coal_peak_bonus
from gridlab.scenario import YEARS, ScenarioParams, project_demand
from gridlab.shapes import (
    SYNTH_SOLAR_MW,
    derive_wind_shape,
    rescale_to_cuf,
    synth_shapes,
    synth_solar_shape,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def scenario_inputs(seed, params):
    """Base year and the per-MW solar and wind shapes."""
    base = synth_shapes(seed)
    raw = synth_solar_shape(base.year)
    solar = rescale_to_cuf(raw, params.solar_cuf)
    wind = derive_wind_shape(
        base.supply_by_fuel["re"], raw, SYNTH_SOLAR_MW, wind_cuf=params.wind_cuf
    )
    return base, solar, wind


def read_table(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_criterion_1_closed_form_projections():
    start = time.perf_counter()
    params = ScenarioParams()

    base = synth_shapes(0)
    base_twh = base.demand.sum() * 0.5 / 1e6
    assert base_twh == pytest.approx(1360.0, rel=1e-9)
    projected = project_demand(params, base.demand, 2030).sum() * 0.5 / 1e6
    assert projected == pytest.approx(2160.0, rel=0.005)

    path = build_price_path(params)
    forex_2030 = params.inr_per_usd_2021 * (1.0 + params.forex_escalation) ** 9
    cell_2030 = path.battery_cell_rs_per_kwh[-1] / forex_2030  # back to $/kWh
    assert cell_2030 == pytest.approx(91.1, abs=0.1)

    coal_2030 = path.fuel_rs_per_kwh["coal_2019"][-1]
    assert coal_2030 == pytest.approx(4.03, abs=0.01)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"ACCEPTANCE 1 PASS: demand {projected:.1f} TWh (2160 +/- 0.5%), "
        f"battery cell {cell_2030:.2f} $/kWh (91.1 +/- 0.1), "
        f"coal fuel {coal_2030:.4f} Rs/kWh (4.03 +/- 0.01) in {elapsed:.3f}s"
    )


def test_criterion_2_despatch_cost_matches_lp_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    n_instances = 1000
    worst = 0.0
    for _ in range(n_instances):
        demand, re, hydro, nuclear, caps, prices, flex = _oracles.random_flex_instance(rng)
        pre, flexed = _oracles.model_flex_dispatch(demand, re, hydro, nuclear, caps, flex)
        model_cost = _oracles.dispatch_cost(flexed, prices)
        lp_cost = _oracles.lp_flex_cost(pre, prices, flex)
        rel = abs(model_cost - lp_cost) / max(abs(lp_cost), 1.0)
        worst = max(worst, rel)
        assert rel <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 2 PASS: {n_instances} random instances, worst relative "
        f"cost gap {worst:.2e} (<= 1e-6) in {elapsed:.1f}s"
    )


def test_criterion_3_conservation_across_seeds():
    params = ScenarioParams()
    boundary = params.cycle_boundary_slot
    years_checked = 0
    windows_checked = 0
    for seed in range(10):
        base, solar, wind = scenario_inputs(seed, params)
        outcome = _oracles.evaluate_alone(params, base, solar, wind, detail_years=tuple(YEARS))
        for year in YEARS:
            detail = outcome.details[year]
            detail.dispatch.check_balance()
            assert np.all(detail.dispatch.curtailment >= 0.0)
            assert np.all(detail.dispatch.unmet >= 0.0)

            rep = detail.reporting
            imbalance = sum(rep.supply.values()) + rep.unmet - rep.demand
            assert np.abs(imbalance).max() < 1e-6
            assert np.all(rep.curtailment >= 0.0)
            assert np.all(rep.unmet >= 0.0)

            trace = detail.trace
            battery = trace.battery
            for a, b in _oracles.cycle_windows(trace.soc_mwh.shape[0], boundary):
                soc = trace.soc_mwh[a:b]
                step = (
                    trace.charge_mw[a:b] * battery.charge_eff
                    - trace.discharge_mw[a:b]
                ) * 0.5
                drift = np.diff(soc, prepend=battery.energy_capacity_mwh) - step
                assert np.abs(drift).max() < 1e-6
                windows_checked += 1
            years_checked += 1
    print(
        f"ACCEPTANCE 3 PASS: balance, SoC recursion, and sign checks clean over "
        f"{years_checked} despatch years and {windows_checked} battery cycles "
        f"across 10 seeds"
    )


def test_criterion_4_monotonic_responses():
    params = ScenarioParams()
    sweeps = (
        ("re_2030", [250.0, 325.0, 400.0, 475.0, 550.0], "unmet_twh", "non-increasing"),
        ("flex_limit", [0.50, 0.55, 0.60, 0.65, 0.70], "curtailment_twh", "non-decreasing"),
        ("battery_size_fraction", [0.2, 0.4, 0.6, 0.8, 1.0], "secondary_unmet_twh", "non-increasing"),
    )
    for seed in range(3):
        base, solar, wind = scenario_inputs(seed, params)
        for field, levels, column, direction in sweeps:
            series = []
            for value in levels:
                point = replace(params, **{field: value})
                outcome = _oracles.evaluate_alone(point, base, solar, wind)
                series.append(np.array([row[column] for row in outcome.year_rows]))
            for lower, higher in zip(series, series[1:]):
                if direction == "non-increasing":
                    assert np.all(higher <= lower + 1e-9), (seed, field)
                else:
                    assert np.all(higher >= lower - 1e-9), (seed, field)
    print(
        "ACCEPTANCE 4 PASS: annual unmet falls with re_2030, curtailment rises "
        "with flex_limit, secondary unmet falls with battery size fraction "
        "(5-point sweeps, 3 seeds)"
    )


def test_criterion_5_bonus_matches_brute_force_rerun():
    rng = np.random.default_rng(7)
    total_bonus = 0.0
    for _ in range(100):
        demand, re, hydro, nuclear, caps, _, flex = _oracles.random_flex_instance(rng)
        pre, flexed = _oracles.model_flex_dispatch(demand, re, hydro, nuclear, caps, flex)
        day_energy = float(flexed.coal_total().sum()) * 0.5
        displaced = np.array([rng.uniform(0.0, 1.2) * day_energy])
        fast = coal_peak_bonus(flexed, displaced, flex)
        brute = _oracles.brute_force_bonus(pre, flexed, displaced, flex)
        assert np.allclose(fast, brute, atol=1e-6)
        total_bonus += float(fast.sum())
    assert total_bonus > 0.0
    print(
        f"ACCEPTANCE 5 PASS: coal-peak bonus equals the flex re-run on 100 "
        f"random days to 1e-6 MWh ({total_bonus:.1f} MWh avoided in total)"
    )


def test_criterion_6_byte_identical_sweeps(tmp_path):
    start = time.perf_counter()
    config = {"paper_grid": True}
    manifests = []
    for name, workers in (("a", 1), ("b", 1), ("c", 2)):
        manifests.append(
            cli.run(
                config=config,
                out_dir=tmp_path / name,
                synthetic_seed=0,
                parallelism=workers,
            )
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0

    reference = manifests[0]
    assert reference.scenario_count == 189
    assert reference.failed == 0
    assert all(m.files == reference.files for m in manifests)
    for name in reference.files:
        blob = (tmp_path / "a" / name).read_bytes()
        assert (tmp_path / "b" / name).read_bytes() == blob, name
        assert (tmp_path / "c" / name).read_bytes() == blob, name
    print(
        f"ACCEPTANCE 6 PASS: 189-scenario grid byte-identical across two serial "
        f"runs and one 2-worker run ({len(reference.files)} files) in {elapsed:.0f}s"
    )


def test_criterion_7_artifact_formats_and_documented_limits(tmp_path):
    manifest = cli.run(config=None, out_dir=tmp_path, synthetic_seed=0)
    assert manifest.failed == 0

    header, rows = read_table(tmp_path / "frontier.csv")
    assert header[:2] == ["rank", "scenario"]
    assert "npv_total_rs" in header
    assert "levelized_new_rs_per_kwh" in header
    assert len(rows) == 1

    header, rows = read_table(tmp_path / "results_by_year.csv")
    for column in ("year", "unmet_twh", "curtailment_twh", "new_capacity_gross_mw"):
        assert column in header
    assert len(rows) == len(YEARS)

    header, rows = read_table(tmp_path / "ldc_unmet_2030.csv")
    assert header == ["rank", "unmet_mw"]
    values = np.array([float(r[1]) for r in rows])
    assert np.all(np.diff(values) <= 1e-9)
    assert values.min() >= 0.0

    header, rows = read_table(tmp_path / "chronological_mix_2030.csv")
    assert header[0] == "slot" and header[1] == "demand_mw"
    for row in rows[::401]:
        total = sum(float(v) for v in row[2:])
        assert total == pytest.approx(float(row[1]), abs=0.01)

    header, rows = read_table(tmp_path / "coal_plf.csv")
    assert header == ["year", "plf_pre_displacement", "plf_post_displacement"]
    for row in rows:
        assert 0.0 <= float(row[2]) <= float(row[1]) <= 1.0

    text = README.read_text()
    assert "timestamp,demand_mw,coal_mw,gas_mw,hydro_mw,nuclear_mw,re_mw" in text
    assert "solar_shape.csv" in text
    assert "--data" in text

    print(
        "ACCEPTANCE 7 PASS: reference headline figures (peak unmet 56.13/49.7 GW, "
        "inverter 68.7 GW, dedicated solar 93 GW, displaced "
        "276.8/170.1/53.8/116.3/66.9 TWh, decade NPV levels, coal peaking in "
        "2027-28) depend on the proprietary base-year shapes and are NOT "
        "reproduced here; artifact formats, invariants, and the README real-data "
        "hooks are verified on synthetic inputs instead"
    )
