"""One battery year on one set of cycle matrices.

The row-restricted solar searches and the days-only coal-peak bonus
against their whole-series references in ``_oracles``, the work one
battery year does and the work a despatch group's battery members
share, a fuzz of the battery option over the validated parameter ranges
on a small synthetic decade, and a fuzz holding the five thermal
options, stepped year by year, to the whole-decade reference on such
decades.
"""

import dataclasses
import gc
import itertools
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles
from gridlab import dispatch as dsp
from gridlab import newsupply as new
from gridlab.errors import DataIntegrityError, GridlabError, InfeasibleError, InvariantError
from gridlab.pipeline import (
    DespatchSummary,
    GroupYear,
    OptionStage,
    YearRecord,
    despatch_group,
    evaluate_scenario,
    preflex,
)
from gridlab.scenario import NEW_OPTIONS, YEARS, ScenarioParams, build_capacity_path
from gridlab.shapes import SLOT_HOURS, SLOTS_PER_DAY


def outcome_of(search, *args, **kwargs):
    try:
        return search(*args, **kwargs)
    except InfeasibleError:
        return "infeasible"


def battery_year(seed, n_slots, boundary):
    """Unmet, curtailed RE and a solar shape for one synthetic year.

    Mornings and evenings carry unmet demand on most days, so a battery
    that empties in the morning needs midday solar to serve the evening.
    """
    rng = np.random.default_rng(seed)
    n_days = n_slots // SLOTS_PER_DAY
    hour = (np.arange(n_slots) % SLOTS_PER_DAY) / 2.0
    sun = np.clip(np.sin((hour - 6.0) / 12.0 * np.pi), 0.0, None)
    shape = sun * np.repeat(rng.uniform(0.05, 1.0, n_days), SLOTS_PER_DAY) * 0.3
    morning = np.exp(-((hour - 7.5) / 1.2) ** 2) * np.repeat(
        rng.uniform(0.0, 3_000.0, n_days) * (rng.random(n_days) < 0.6), SLOTS_PER_DAY)
    evening = np.exp(-((hour - 19.5) / 1.5) ** 2) * np.repeat(
        rng.uniform(0.0, 5_000.0, n_days) * (rng.random(n_days) < 0.8), SLOTS_PER_DAY)
    unmet = morning + evening
    unmet[unmet < 50.0] = 0.0
    re = sun * np.repeat(rng.uniform(0.0, 800.0, n_days) * (rng.random(n_days) < 0.5),
                         SLOTS_PER_DAY)
    return unmet, re, shape, new.CycleYear.pad(unmet, re, shape, boundary)


class TestSearchParity:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_slots=st.sampled_from([17_520, 17_568]),
        boundary=st.sampled_from([0, 34, 47]),
        fraction=st.sampled_from([0.3, 0.9, 1.0]) | st.floats(0.3, 1.0),
        extra=st.sampled_from([0.0, 0.5, 1.0]),
        shortfall=st.sampled_from([0.0, 1.0]),
    )
    def test_row_restricted_searches_match_whole_series(self, seed, n_slots, boundary,
                                                        fraction, extra, shortfall):
        unmet, re, shape, year = battery_year(seed, n_slots, boundary)
        params = ScenarioParams(battery_size_fraction=fraction)
        battery = new.size_battery(year, params, float(unmet.max()) * (1.0 + shortfall))
        zero = new.simulate_soc(battery, year, 0.0)
        for zero_gw in (None, zero):
            got = outcome_of(_oracles.sized_dedicated_solar, battery, year, extra, zero_gw=zero_gw)
            assert got == outcome_of(_oracles.reference_size_dedicated_solar,
                                     battery, re, unmet, shape, extra, boundary)
        assert outcome_of(new.size_for_full_recharge, battery, year) == outcome_of(
            _oracles.reference_size_for_full_recharge, battery, re, unmet, shape, boundary)

    def test_searches_cover_solar_answers_and_infeasible_ones(self):
        # the parity draws are only worth as much as the answers they
        # reach.  An undersized inverter never serves the peak slot; a
        # buffer shortfall as large as the peak unmet leaves an undersized
        # battery short of energy only, which midday solar can make up.
        answers = set()
        for seed in range(4):
            unmet, re, shape, year = battery_year(seed, 17_520, 0)
            for fraction in (0.3, 0.9, 1.0):
                battery = new.size_battery(
                    year, ScenarioParams(battery_size_fraction=fraction), 2.0 * float(unmet.max()))
                got = outcome_of(new.size_dedicated_solar, battery, year)
                assert got == outcome_of(_oracles.reference_size_dedicated_solar,
                                         battery, re, unmet, shape, 0.0, 0)
                answers.add("infeasible" if got == "infeasible" else
                            "zero" if got == 0.0 else "solar")
        assert answers == {"infeasible", "zero", "solar"}

    def test_zero_gw_trace_must_match_the_search(self):
        unmet, _, _, year = battery_year(1, 17_520, 34)
        battery = new.size_battery(year, ScenarioParams(), float(unmet.max()))
        for wrong in (new.simulate_soc(battery.scaled(0.5), year, 0.0),
                      new.simulate_soc(battery, year, 1.0)):
            with pytest.raises(InvariantError):
                new.size_dedicated_solar(battery, year, zero_gw=wrong)


def flexed_days(seed, n_days=6):
    rng = np.random.default_rng(seed)
    demand, re, hydro, nuclear, caps, _, flex = _oracles.random_flex_instance(
        rng, n_slots=n_days * SLOTS_PER_DAY)
    _, flexed = _oracles.model_flex_dispatch(demand, re, hydro, nuclear, caps, flex)
    return rng, flexed, flex


class TestBonusParity:
    def assert_bit_identical(self, dy, displaced, flex):
        got = new.coal_peak_bonus(dy, displaced, flex)
        ref = _oracles.reference_coal_peak_bonus(dy, displaced, flex)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
        return got

    @pytest.mark.parametrize("seed", range(8))
    def test_no_displacement(self, seed):
        _, dy, flex = flexed_days(seed)
        assert not self.assert_bit_identical(dy, np.zeros(dy.n_days), flex).any()

    def test_every_day_displaced(self):
        gained = 0.0
        for seed in range(8):
            rng, dy, flex = flexed_days(seed)
            day_coal = dy.coal_total().reshape(dy.n_days, SLOTS_PER_DAY).sum(axis=1) * SLOT_HOURS
            displaced = rng.uniform(0.01, 0.8, dy.n_days) * day_coal
            displaced[0] = day_coal[0] * 3.0  # more than the day's coal
            gained += float(np.sum(self.assert_bit_identical(dy, displaced, flex)))
        assert gained > 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_displacement_on_a_day_without_coal(self, seed):
        rng, dy, flex = flexed_days(seed)
        coal_free = dy.supply["coal_2019"].copy(), dy.supply["coal_slack"].copy()
        for series in coal_free:
            series[2 * SLOTS_PER_DAY:3 * SLOTS_PER_DAY] = 0.0
        dy = dataclasses.replace(dy, supply={**dy.supply, "coal_2019": coal_free[0],
                                             "coal_slack": coal_free[1]})
        displaced = np.where(rng.random(dy.n_days) < 0.5, rng.uniform(0.0, 5e3, dy.n_days), 0.0)
        displaced[2] = 1e3
        bonus = self.assert_bit_identical(dy, displaced, flex)
        assert bonus[2] == 0.0


# --- a small synthetic decade ----------------------------------------------

N_DAYS = 3


def small_decade(params, base_year, seed):
    """Ten three-day despatch years through the production despatch steps.

    Demand grows at ``params.demand_growth`` and RE by a tenth a year
    against a fixed thermal fleet, so later years carry unmet evening
    demand and midday flex curtailment.
    """
    rng = np.random.default_rng(seed)
    n = N_DAYS * SLOTS_PER_DAY
    hour = (np.arange(n) % SLOTS_PER_DAY) / 2.0
    sun = np.clip(np.sin((hour - 6.0) / 12.0 * np.pi), 0.0, None)
    evening = 1.0 + 0.3 * np.exp(-((hour - 19.5) / 2.0) ** 2)
    demand0 = 150_000.0 * evening * rng.uniform(0.95, 1.05, n)
    re0 = 70_000.0 * sun + rng.uniform(0.0, 10_000.0, n)
    hydro = rng.uniform(5_000.0, 15_000.0, n)
    nuclear = np.full(n, 5_000.0)
    caps = {"coal_2019": np.full(n, 100_000.0), "gas_2019": np.full(n, 15_000.0),
            "coal_slack": np.full(n, 50_000.0), "gas_slack": np.full(n, 15_000.0)}
    despatchable = sum(caps.values()) + 20_000.0

    years = {}
    for i, year in enumerate(YEARS):
        busbar = demand0 * (1.0 + params.demand_growth) ** i * (1.0 + params.ists_loss)
        re = re0 * (1.0 + 0.1 * i)
        pre = preflex(busbar, {"re": re, "hydro": hydro, "nuclear": nuclear}, caps)
        dy = dsp.apply_coal_flex(pre, params.flex_limit)
        shortfall = dsp.buffer_check(dy, busbar, despatchable, params.grid_buffer)
        years[year] = YearRecord(
            dispatch=dy,
            curtailed_re=(re - pre.supply["re"]) + dy.flex_re_cut,
            capacity_requirement_mw=dsp.compute_unmet(dy, shortfall),
            demand_twh=float(np.sum(busbar)) * SLOT_HOURS / 1e6,
        )
    return _oracles.Decade(
        path=build_capacity_path(params, base_year),
        years=years,
        solar_by_year=dict.fromkeys(YEARS, sun * 0.25),
        totals=_oracles.decade_totals(years.values()),
    )


def stepped(params, decade, detail_years=()):
    """The option stage of ``params`` stepped through a decade's years."""
    stage = OptionStage.start(params, detail_years)
    for i, year in enumerate(YEARS):
        stage.step(i, GroupYear(decade.years[year], decade.solar_by_year[year]))
    return stage


def year_major(params, decade, detail_years=()):
    """One scenario stepped year by year through a decade, then priced."""
    stage = stepped(params, decade, detail_years)
    return evaluate_scenario(stage, DespatchSummary(path=decade.path, totals=decade.totals))


def check_battery_years(outcome, decade):
    """Balance, SoC and sizing invariants of every year of a battery outcome."""
    plan_rows = outcome.year_rows
    for a, b in zip(plan_rows, plan_rows[1:]):
        assert b["dedicated_solar_gw"] >= a["dedicated_solar_gw"]
        assert b["new_capacity_gross_mw"] >= a["new_capacity_gross_mw"]
    for year in YEARS:
        detail = outcome.details[year]
        record = decade.years[year]
        dy = record.dispatch
        detail.dispatch.check_balance()
        rep = detail.reporting
        assert np.abs(sum(rep.supply.values()) + rep.unmet - rep.demand).max() < 1e-6
        assert np.all(rep.unmet >= 0.0)

        trace = detail.trace
        battery = trace.battery
        e_cap = battery.energy_capacity_mwh
        assert np.array_equal(trace.year.flat(trace.year.unmet), dy.unmet)
        assert np.all(trace.soc_mwh <= e_cap)
        assert np.all(trace.secondary_unmet_mw >= 0.0)
        assert np.all(trace.secondary_unmet_mw <= dy.unmet + 1e-9)
        assert np.all(trace.charge_mw[dy.unmet > 0] == 0.0)
        assert np.all(trace.charge_re_mw <= record.curtailed_re + 1e-9)
        scale = max(e_cap, float(np.abs(trace.soc_mwh).max()), 1.0)
        for a, b in _oracles.cycle_windows(trace.year.n_slots, trace.year.boundary_slot):
            step = (trace.charge_mw[a:b] * battery.charge_eff - trace.discharge_mw[a:b]) * 0.5
            drift = np.diff(trace.soc_mwh[a:b], prepend=e_cap) - step
            assert np.abs(drift).max() <= 1e-9 * scale


def edge_or(values, strategy):
    return st.sampled_from(values) | strategy


class TestBatteryFuzz:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 3),
        fraction=edge_or([0.01, 1.0], st.floats(0.01, 1.0)),
        extra=edge_or([0.0, 1.0], st.floats(0.0, 1.0)),
        hour=edge_or([0, 23], st.integers(0, 23)),
        flex=edge_or([0.5, 0.8], st.floats(0.5, 0.8)),
        growth=edge_or([0.0, 0.15], st.floats(0.0, 0.15)),
        split=st.sampled_from(["symmetric", "charge_only"]),
        roundtrip=edge_or([0.5, 1.0], st.floats(0.5, 1.0)),
        dod=edge_or([0.01, 0.5], st.floats(0.01, 0.5)),
    )
    def test_battery_option_evaluates_or_raises_a_model_error(
            self, base_year, seed, fraction, extra, hour, flex, growth, split, roundtrip, dod):
        params = ScenarioParams(
            battery_size_fraction=fraction, dedicated_solar_extra=extra,
            battery_cycle_boundary_hour=hour, flex_limit=flex, demand_growth=growth,
            battery_eff_split=split, battery_roundtrip_eff=roundtrip, battery_dod_buffer=dod,
        )
        decade = small_decade(params, base_year, seed)
        try:
            outcome = year_major(params, decade, detail_years=YEARS)
        except DataIntegrityError:
            raise  # an imbalance is a bug, not a scenario the model cannot solve
        except GridlabError:
            return
        check_battery_years(outcome, decade)


class TestBatteryYearWork:
    def test_unbuilt_solar_pads_once_and_simulates_once(self, base_year, monkeypatch):
        params = ScenarioParams()
        decade = small_decade(params, base_year, 0)
        padded, kernel_rows = [], []
        pad, kernel = new._pad_cycles, new._simulate_cycles

        def counting_pad(arr, *args, **kwargs):
            padded.append(arr)
            return pad(arr, *args, **kwargs)

        def counting_kernel(battery, u_m, *args):
            kernel_rows.append(u_m.shape[0])
            return kernel(battery, u_m, *args)

        monkeypatch.setattr(new, "_pad_cycles", counting_pad)
        monkeypatch.setattr(new, "_simulate_cycles", counting_kernel)
        stage = stepped(params, decade, detail_years=YEARS[:1])
        plan = stage.plan

        assert not plan.dedicated_solar_gw.any()
        assert plan.energy_mwh[-1] > 0.0  # the later years do size a battery
        rows = stage.details[YEARS[0]].trace.year.unmet.shape[0]
        assert kernel_rows == [rows] * len(YEARS)
        per_year = len(padded) // len(YEARS)
        assert per_year * len(YEARS) == len(padded)
        for i, year in enumerate(YEARS):
            dy = decade.years[year].dispatch
            series = [dy.unmet, decade.years[year].curtailed_re, decade.solar_by_year[year],
                      *(dy.supply[name] for name in new.DISPLACEMENT_ORDER)]
            got = padded[i * per_year:(i + 1) * per_year]
            assert sorted(map(id, got)) == sorted(map(id, series))


#: One despatch group's battery members: every size fraction, solar extra
#: and cycle boundary mix.  At demand growth 0.1 the undersized members
#: retry at full size, and on seed 3 of ``small_decade`` (and on the
#: real base year) a full daily recharge is out of reach, so the members
#: with extra solar fail.
SIBLINGS = tuple(
    ScenarioParams(battery_size_fraction=f, dedicated_solar_extra=e,
                   battery_cycle_boundary_hour=h, demand_growth=0.1)
    for f, e, h in itertools.product((1.0, 0.5, 0.3), (0.0, 0.5, 1.0), (17, 6)))


def group_stepped(members, decade, after_year=lambda: None):
    """The members' option stages stepped as one despatch group: each
    year, every stage reads the same ``GroupYear``, then ``after_year``
    runs."""
    stages = [OptionStage.start(params) for params in members]
    for i, year in enumerate(YEARS):
        group_year = GroupYear(decade.years[year], decade.solar_by_year[year])
        for stage in stages:
            stage.step(i, group_year)
        after_year()
    return stages


def priced(stage, decade):
    """A stepped stage's year rows and result, or its failure's class
    and text."""
    try:
        outcome = evaluate_scenario(stage, DespatchSummary(path=decade.path, totals=decade.totals))
    except GridlabError as exc:
        return type(exc).__name__, str(exc)
    return outcome.year_rows, outcome.result


class TestGroupSharing:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_a_member_gets_what_it_gets_alone(self, base_year, seed):
        decade = small_decade(SIBLINGS[0], base_year, seed)
        together = [priced(stage, decade) for stage in group_stepped(SIBLINGS, decade)]
        alone = [priced(stepped(params, decade), decade) for params in SIBLINGS]
        assert together == alone
        failed = [got for got in together if isinstance(got[0], str)]
        assert 0 < len(failed) < len(SIBLINGS) if seed == 3 else not failed

    def test_each_distinct_battery_is_worked_out_once_a_year(self, base_year, monkeypatch):
        decade = small_decade(SIBLINGS[0], base_year, 0)
        calls = {"pad": [], "minimum": [], "recharge": []}
        pad, minimum, recharge = (new.CycleYear.pad, new.size_dedicated_solar,
                                  new.size_for_full_recharge)

        def counting_pad(unmet, curtailed_re, solar_shape, boundary_slot):
            calls["pad"].append(boundary_slot)
            return pad(unmet, curtailed_re, solar_shape, boundary_slot)

        def counting(name, search):
            def counted(battery, year, **kwargs):
                calls[name].append((year.boundary_slot, battery))
                return search(battery, year, **kwargs)
            return counted

        monkeypatch.setattr(new.CycleYear, "pad", counting_pad)
        monkeypatch.setattr(new, "size_dedicated_solar", counting("minimum", minimum))
        monkeypatch.setattr(new, "size_for_full_recharge", counting("recharge", recharge))

        def per_year(members):
            """Each year's calls of each kind, ``members`` stepped as a group."""
            years = []

            def take():
                years.append({name: made[:] for name, made in calls.items()})
                for made in calls.values():
                    made.clear()

            group_stepped(members, decade, take)
            return years

        slots = {params.cycle_boundary_slot for params in SIBLINGS}
        shared = per_year(SIBLINGS)
        for year in shared:
            assert sorted(year["pad"]) == sorted(slots)
            for name in ("minimum", "recharge"):
                assert len(year[name]) == len(set(year[name])), name
        # alone, the members repeat the searches their siblings made; the
        # undersized ones' retry at full size repeats the full-size search
        alone = [per_year([params]) for params in SIBLINGS]
        for name in ("pad", "minimum", "recharge"):
            together = sum(len(year[name]) for year in shared)
            apart = sum(len(year[name]) for member in alone for year in member)
            assert 0 < together < apart, name

    def test_nothing_outlives_its_year(self, base_year, solar_shape, wind_shape):
        # a kept search failure, or a member's, would hold the frames it
        # was raised through, and with them the year, in a reference cycle
        class Watch:
            """Fails when the previous year's record or ``GroupYear`` is
            still alive as the next year is stepped."""

            def __init__(self):
                self.refs = []

            def step(self, i, group_year):
                assert all(ref() is None for ref in self.refs), YEARS[i - 1]
                self.refs = [weakref.ref(group_year), weakref.ref(group_year.record)]

        watch = Watch()
        stages = [OptionStage.start(params, (2030,)) for params in SIBLINGS]
        gc.disable()
        try:
            despatch_group(SIBLINGS[0], base_year, solar_shape, wind_shape, [watch, *stages])
            assert all(ref() is None for ref in watch.refs), YEARS[-1]
        finally:
            gc.enable()
        failed = [stage for stage in stages if stage.error is not None]
        assert 0 < len(failed) < len(stages)


THERMAL_OPTIONS = tuple(option for option in NEW_OPTIONS if option != "battery_re")


class TestThermalFuzz:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 3),
        option=st.sampled_from(THERMAL_OPTIONS),
        coal_fraction=edge_or([0.01, 1.0], st.floats(0.01, 1.0)),
        flex=edge_or([0.5, 0.8], st.floats(0.5, 0.8)),
        growth=edge_or([0.0, 0.15], st.floats(0.0, 0.15)),
        buffer=edge_or([0.0, 0.1], st.floats(0.0, 0.1)),
        detail=st.sets(st.sampled_from(YEARS), max_size=3),
    )
    def test_year_major_matches_the_whole_decade_bit_for_bit(
            self, base_year, seed, option, coal_fraction, flex, growth, buffer, detail):
        params = ScenarioParams(
            new_option=option, new_coal_size_fraction=coal_fraction, flex_limit=flex,
            demand_growth=growth, grid_buffer=buffer,
        )
        decade = small_decade(params, base_year, seed)
        detail_years = tuple(sorted(detail))
        try:
            want = _oracles.reference_evaluate_scenario(params, decade, detail_years)
        except DataIntegrityError:
            raise  # an imbalance is a bug, not a scenario the model cannot solve
        except GridlabError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                year_major(params, decade, detail_years)
            return
        got = year_major(params, decade, detail_years)
        assert _oracles.bits(got) == _oracles.bits(want)

    def test_undersized_coal_reaches_secondary_unmet_and_displaced_gas(self, base_year):
        # the parity draws are only worth the branches they reach
        params = ScenarioParams(new_option="coal", new_coal_size_fraction=0.3,
                                demand_growth=0.1)
        row = year_major(params, small_decade(params, base_year, 0)).year_rows[-1]
        assert row["secondary_unmet_twh"] > 0
        assert row["displaced_gas_twh"] > 0
