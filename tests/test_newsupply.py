"""Battery sizing, SoC simulation, dedicated solar, and displacement."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles
from gridlab.dispatch import DispatchYear
from gridlab.errors import InfeasibleError, InvariantError, ParameterError
from gridlab.newsupply import (
    DISPLACEMENT_ORDER,
    BatterySpec,
    CycleYear,
    NewSupplyPlan,
    _lowered_daily_max,
    _pad_cycles,
    _search_smallest,
    _simulate_cycles,
    coal_peak_bonus,
    dedicated_solar_gw,
    displace_gas_with_new_coal,
    displace_with_battery,
    simulate_soc,
    size_battery,
    size_dedicated_solar,
    size_for_full_recharge,
    size_new_capacity,
    tranche_cycle_mwh,
)
from gridlab.scenario import N_YEARS, ScenarioParams
from gridlab.shapes import SLOT_HOURS

SQRT_RT = float(np.sqrt(0.9))


def make_battery(energy=1000.0, inverter=400.0, dod=0.05, rt=0.9,
                 split="symmetric", f=1.0):
    return BatterySpec(
        energy_capacity_mwh=energy,
        inverter_capacity_mw=inverter,
        dod_buffer=dod,
        roundtrip_eff=rt,
        size_fraction=f,
        eff_split=split,
    )


def bare_dispatch(n, **supply):
    """A DispatchYear shell carrying only the supply columns under test."""
    sup = {k: np.zeros(n) for k in
           ("re", "hydro", "nuclear", "coal_2019", "gas_2019",
            "coal_slack", "gas_slack")}
    for key, val in supply.items():
        sup[key] = np.asarray(val, dtype=float)
    return DispatchYear(
        demand=np.zeros(n),
        supply=sup,
        capacity={},
        curtailment=np.zeros(n),
        unmet=np.zeros(n),
    )


def cycles(unmet, re=None, shape=None, boundary=34):
    """A ``CycleYear`` from whole series; a missing source is zero."""
    unmet = np.asarray(unmet, dtype=float)
    zeros = np.zeros(unmet.shape[0])
    return CycleYear.pad(unmet, zeros if re is None else re,
                         zeros if shape is None else shape, boundary)


def soc_trace(battery, unmet, re, sol, boundary_slot=34):
    """``simulate_soc`` with ``sol`` MW of dedicated solar: ``sol`` is
    passed as the per-MW shape and run at 1 MW (1e-3 GW), so the solar
    output the trace ran with equals ``sol`` to the last ulp or so."""
    return simulate_soc(battery, cycles(unmet, re, sol, boundary_slot), 1e-3)


def served_mw(trace):
    """The SoC kernel's served MW per slot on ``trace``'s inputs: the
    trace keeps only the secondary unmet derived from it."""
    year = trace.year
    served = _simulate_cycles(trace.battery, year.unmet, year.curtailed_re,
                              year.solar(trace.solar_gw))[2]
    return year.flat(served)


def sized(unmet, params, shortfall=None):
    """``size_battery`` on a whole series, given the peak that
    ``dispatch.compute_unmet`` reports for it."""
    need = unmet if shortfall is None else unmet + shortfall
    return size_battery(cycles(unmet, boundary=params.cycle_boundary_slot), params,
                        float(need.max()))


SOC_COLUMNS = ("soc", "charge", "discharge", "served", "charge_re", "charge_solar")


def reference_windows(trace):
    """Per cycle window, the trace's columns (served from the kernel)
    and ``reference_soc``'s."""
    year = trace.year
    unmet, re, sol = (year.flat(m) for m in (year.unmet, year.curtailed_re,
                                             year.solar(trace.solar_gw)))
    got = np.column_stack([served_mw(trace) if c == "served" else year.flat(getattr(trace, c))
                           for c in SOC_COLUMNS])
    for a, end in _oracles.cycle_windows(year.n_slots, year.boundary_slot):
        yield got[a:end], _oracles.reference_soc(trace.battery, unmet[a:end],
                                                 re[a:end], sol[a:end])


# --- BatterySpec ---------------------------------------------------------


class TestBatterySpec:
    def test_usable_and_floor(self):
        b = make_battery()
        assert b.usable_mwh == pytest.approx(950.0)
        assert b.floor_mwh == pytest.approx(50.0)
        assert b.usable_mwh + b.floor_mwh == pytest.approx(b.energy_capacity_mwh)

    def test_symmetric_split(self):
        b = make_battery(rt=0.9, split="symmetric")
        assert b.charge_eff == pytest.approx(SQRT_RT)
        assert b.discharge_eff == pytest.approx(SQRT_RT)
        assert b.charge_eff * b.discharge_eff == pytest.approx(0.9)

    def test_charge_only_split(self):
        b = make_battery(rt=0.9, split="charge_only")
        assert b.charge_eff == pytest.approx(0.9)
        assert b.discharge_eff == 1.0

    @pytest.mark.parametrize("kwargs", [
        dict(energy=-1.0),
        dict(inverter=-1.0),
        dict(energy=10.0, inverter=0.0),
    ])
    def test_rejects_bad_numbers(self, kwargs):
        with pytest.raises(InvariantError):
            make_battery(**kwargs)

    def test_zero_battery_is_legal(self):
        b = make_battery(energy=0.0, inverter=0.0)
        assert b.usable_mwh == 0.0

    def test_scaled_is_linear_in_fraction(self):
        b = make_battery(energy=1000.0, inverter=400.0)
        half = b.scaled(0.5)
        assert half.energy_capacity_mwh == pytest.approx(500.0)
        assert half.inverter_capacity_mw == pytest.approx(200.0)
        assert half.size_fraction == 0.5
        assert half.dod_buffer == b.dod_buffer
        assert half.eff_split == b.eff_split

    def test_scaled_recovers_full_design(self):
        half = make_battery(energy=500.0, inverter=200.0, f=0.5)
        full = half.scaled(1.0)
        assert full.energy_capacity_mwh == pytest.approx(1000.0)
        assert full.inverter_capacity_mw == pytest.approx(400.0)


# --- cycle windows and padding -------------------------------------------


class TestCycleWindows:
    def test_boundary_34_keeps_leading_partial(self):
        assert _oracles.cycle_windows(96, 34) == [(0, 34), (34, 82), (82, 96)]

    def test_boundary_zero_has_no_partial_lead(self):
        assert _oracles.cycle_windows(96, 0) == [(0, 48), (48, 96)]

    @given(n=st.integers(1, 500), boundary=st.integers(0, 47))
    def test_windows_partition_the_series(self, n, boundary):
        windows = _oracles.cycle_windows(n, boundary)
        assert windows[0][0] == 0
        assert windows[-1][1] == n
        for (_, b0), (a1, _) in zip(windows, windows[1:]):
            assert b0 == a1
        for a, b in windows[1:-1] or []:
            assert b - a == 48
        for a, _ in windows[1:]:
            assert a % 48 == boundary % 48

    def test_pad_front_length(self):
        arr = np.arange(144.0)
        mat, front = _pad_cycles(arr, 34)
        assert front == 14
        assert mat.shape == (4, 48)
        flat = mat.reshape(-1)
        assert np.array_equal(flat[front:front + 144], arr)
        assert np.all(flat[:front] == 0)
        assert np.all(flat[front + 144:] == 0)

    def test_pad_noop_at_boundary_zero(self):
        arr = np.arange(96.0)
        mat, front = _pad_cycles(arr, 0)
        assert front == 0
        assert np.array_equal(mat.reshape(-1), arr)


# --- capacity sizing -----------------------------------------------------


class TestSizeNewCapacity:
    def test_cumulative_build_with_aux_grossup(self):
        # net requirements 10, 35 and 20 MW: the worst slot of unmet plus
        # buffer shortfall, as dispatch.compute_unmet reports it
        installed, built = [], 0.0
        for required in (10.0, 35.0, 20.0):
            built = size_new_capacity(required, aux=0.2, built_mw=built)
            installed.append(built)
        # gross 12.5, 43.75, 25.0; installed capacity never shrinks
        assert installed == pytest.approx([12.5, 43.75, 43.75])

    def test_zero_unmet_needs_nothing(self):
        assert size_new_capacity(0.0, 0.0) == 0.0


class TestSizeBattery:
    def test_single_peak_charge_only(self):
        # 1000 MW for one slot: 500 MWh of unmet energy in the worst
        # cycle, no discharge losses, a 5% DoD buffer on top
        unmet = np.zeros(96)
        unmet[50] = 1000.0
        p = ScenarioParams(battery_eff_split="charge_only")
        b = sized(unmet, p)
        assert b.inverter_capacity_mw == pytest.approx(1000.0)
        assert b.energy_capacity_mwh == pytest.approx(500.0 / 0.95)
        assert b.energy_capacity_mwh == pytest.approx(526.3158, abs=1e-3)

    def test_single_peak_symmetric(self):
        unmet = np.zeros(96)
        unmet[50] = 1000.0
        b = sized(unmet, ScenarioParams())
        assert b.inverter_capacity_mw == pytest.approx(1000.0 / SQRT_RT)
        assert b.energy_capacity_mwh == pytest.approx(500.0 / (0.95 * SQRT_RT))

    def test_fraction_scales_both_axes(self):
        unmet = np.zeros(96)
        unmet[50] = 1000.0
        full = sized(unmet, ScenarioParams())
        half = sized(unmet, ScenarioParams(battery_size_fraction=0.5))
        assert half.inverter_capacity_mw == pytest.approx(full.inverter_capacity_mw / 2)
        assert half.energy_capacity_mwh == pytest.approx(full.energy_capacity_mwh / 2)
        assert half.size_fraction == 0.5

    def test_worst_cycle_respects_boundary(self):
        # two 100 MW slots straddling slot 34 fall into different cycles,
        # so the worst cycle holds one of them, not both
        unmet = np.zeros(96)
        unmet[33] = 100.0
        unmet[35] = 100.0
        p = ScenarioParams(battery_eff_split="charge_only")
        b = sized(unmet, p)
        assert b.energy_capacity_mwh == pytest.approx(50.0 / 0.95)

    def test_buffer_shortfall_raises_inverter_only(self):
        unmet = np.zeros(96)
        unmet[50] = 1000.0
        short = np.zeros(96)
        short[20] = 1500.0
        p = ScenarioParams(battery_eff_split="charge_only")
        b = sized(unmet, p, short)
        assert b.inverter_capacity_mw == pytest.approx(1500.0)
        # cycle energy still comes from unmet alone, but the one-slot
        # inverter floor now binds
        assert b.energy_capacity_mwh == pytest.approx(1500.0 * 0.5 / 0.95)

    def test_energy_never_below_one_inverter_slot(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            unmet = rng.uniform(0.0, 300.0, 96) * (rng.random(96) < 0.3)
            b = sized(unmet, ScenarioParams())
            assert b.energy_capacity_mwh >= b.inverter_capacity_mw * 0.5 / 0.95 - 1e-9

    def test_zero_fraction_rejected(self):
        with pytest.raises(ParameterError):
            sized(np.zeros(48), ScenarioParams(battery_size_fraction=0.0))


# --- SoC simulation ------------------------------------------------------


class TestSimulateSoc:
    def test_idle_battery_stays_full(self):
        b = make_battery()
        trace = soc_trace(b, np.zeros(96), np.zeros(96), np.zeros(96))
        assert np.all(trace.soc_mwh == b.energy_capacity_mwh)
        assert not np.any(trace.charge_mw)
        assert not np.any(trace.discharge_mw)
        assert not np.any(trace.secondary_unmet_mw)

    def test_matches_literal_recursion(self):
        # every cycle window restarts full, so the closed form must equal
        # the literal slot recursion run window by window; the recursion
        # rounds at every slot, so only the discharge attempt is bitwise
        rng = np.random.default_rng(11)
        for boundary in (0, 34):
            for _ in range(5):
                n = 240
                unmet = rng.uniform(0.0, 120.0, n) * (rng.random(n) < 0.35)
                re = rng.uniform(0.0, 80.0, n)
                sol = rng.uniform(0.0, 60.0, n)
                b = make_battery(energy=rng.uniform(50, 300),
                                 inverter=rng.uniform(20, 150),
                                 dod=rng.uniform(0.05, 0.2),
                                 rt=rng.uniform(0.8, 1.0))
                trace = soc_trace(b, unmet, re, sol, boundary_slot=boundary)
                for got, ref in reference_windows(trace):
                    assert np.array_equal(got[:, 2], ref[:, 2])
                    np.testing.assert_allclose(
                        got, ref, rtol=0, atol=1e-12 * b.energy_capacity_mwh)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 150),
        boundary=st.sampled_from([0, 47]) | st.integers(0, 47),
        energy=st.just(0.0) | st.floats(1.0, 500.0),
        inverter=st.floats(1.0, 300.0),
        dod=st.floats(0.01, 0.5),
        rt=st.floats(0.5, 1.0),
        split=st.sampled_from(["symmetric", "charge_only"]),
        sources=st.sampled_from(["none", "scarce", "flood"]),
    )
    def test_closed_form_matches_reference(self, seed, n, boundary, energy,
                                           inverter, dod, rt, split, sources):
        # unmet up to twice the inverter makes the inverter bind; flooded
        # sources cap every recharge by headroom; a zero-energy battery
        # only ever overdraws
        rng = np.random.default_rng(seed)
        unmet = rng.uniform(0.0, 2.0 * inverter, n) * (rng.random(n) < 0.4)
        top = {"none": 0.0, "scarce": 0.2 * inverter, "flood": 5.0 * inverter}[sources]
        re = rng.uniform(0.0, top, n) * (rng.random(n) < 0.6)
        sol = rng.uniform(0.0, top, n)
        b = make_battery(energy=energy, inverter=inverter, dod=dod, rt=rt,
                         split=split)
        trace = soc_trace(b, unmet, re, sol, boundary_slot=boundary)
        assert np.all(trace.soc_mwh <= energy)
        for got, ref in reference_windows(trace):
            assert np.array_equal(got[:, 2], ref[:, 2])
            # overdraw takes SoC far below zero, and the rounding of the
            # running sum scales with the largest SoC magnitude
            scale = max(energy, float(np.abs(ref[:, 0]).max()))
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * scale)

    def test_overdraw_bookkeeping(self):
        # 400 MW against 95 MWh usable: the attempt is recorded in full,
        # SoC dives below the floor by the undelivered battery energy
        b = make_battery(energy=100.0, inverter=1000.0, split="charge_only")
        unmet = np.array([400.0])
        trace = soc_trace(b, unmet, np.zeros(1), np.zeros(1))
        assert served_mw(trace)[0] == pytest.approx(190.0)
        assert trace.secondary_unmet_mw[0] == pytest.approx(210.0)
        assert trace.discharge_mw[0] == pytest.approx(400.0)
        assert trace.soc_mwh[0] == pytest.approx(-100.0)
        shortfall_mwh = (400.0 - 190.0) * 0.5
        assert b.floor_mwh - trace.soc_mwh[0] == pytest.approx(shortfall_mwh)

    def test_fully_served_slot_has_exactly_zero_secondary(self):
        b = make_battery()
        unmet = np.zeros(10)
        unmet[4] = 100.0
        trace = soc_trace(b, unmet, np.zeros(10), np.zeros(10))
        # round-tripping 100/eta*eta leaves ulp dust; the trace snaps it
        assert trace.secondary_unmet_mw[4] == 0.0
        assert served_mw(trace)[4] == pytest.approx(100.0)

    def test_charge_prefers_curtailed_re_then_solar(self):
        b = make_battery(energy=10.0, inverter=1000.0, split="charge_only")
        unmet = np.array([8.0, 0.0])
        re = np.array([0.0, 5.0])
        sol = np.array([0.0, 100.0])
        trace = soc_trace(b, unmet, re, sol)
        # head after the discharge: 4 MWh / (0.9 * 0.5 h), capped by 1C
        head = 4.0 / (0.9 * 0.5)
        assert trace.charge_re_mw[1] == pytest.approx(5.0)
        assert trace.charge_solar_mw[1] == pytest.approx(head - 5.0)
        assert trace.charge_mw[1] == pytest.approx(head)
        assert trace.soc_mwh[1] == pytest.approx(10.0)

    def test_source_length_mismatch(self):
        with pytest.raises(InvariantError):
            soc_trace(make_battery(), np.zeros(10), np.zeros(9), np.zeros(10))

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        energy=st.floats(40.0, 200.0),
        inverter=st.floats(10.0, 100.0),
        dod=st.floats(0.05, 0.3),
        rt=st.floats(0.8, 1.0),
        split=st.sampled_from(["symmetric", "charge_only"]),
    )
    def test_state_machine_invariants(self, seed, energy, inverter, dod, rt,
                                      split):
        rng = np.random.default_rng(seed)
        n = 96
        unmet = rng.uniform(0.0, 50.0, n) * (rng.random(n) < 0.4)
        re = rng.uniform(0.0, 30.0, n)
        sol = rng.uniform(0.0, 30.0, n)
        b = make_battery(energy=energy, inverter=inverter, dod=dod, rt=rt,
                         split=split)
        trace = soc_trace(b, unmet, re, sol, boundary_slot=34)
        tol = 1e-9

        assert not np.any((trace.charge_mw > 0) & (trace.discharge_mw > 0))
        assert np.all(trace.charge_mw <= min(inverter, energy) + tol)
        assert np.all(trace.discharge_mw <= inverter + tol)
        assert np.all(trace.charge_re_mw <= re + tol)
        assert np.all(trace.charge_solar_mw <= sol + tol)
        assert np.allclose(trace.charge_mw,
                           trace.charge_re_mw + trace.charge_solar_mw)
        assert np.all(trace.soc_mwh <= energy + tol)
        assert np.all(served_mw(trace) <= unmet + tol)
        assert np.all(trace.charge_mw[unmet > 0] == 0)
        assert np.all(trace.discharge_mw[unmet <= 0] == 0)
        assert np.allclose(
            np.abs(trace.secondary_unmet_mw
                   - np.maximum(unmet - served_mw(trace), 0.0)),
            0.0, atol=1e-6)

        # the SoC recursion balances within every cycle
        for a, end in _oracles.cycle_windows(n, 34):
            soc = trace.soc_mwh[a:end]
            flow = (trace.charge_mw[a:end] * b.charge_eff
                    - trace.discharge_mw[a:end]) * 0.5
            assert np.allclose(np.diff(soc, prepend=energy), flow, atol=1e-9)

    def test_trace_csv_labels_charge_source(self, tmp_path):
        b = make_battery(energy=100.0, inverter=50.0, split="charge_only")
        unmet = np.array([40.0, 0.0, 0.0])
        re = np.array([0.0, 30.0, 0.0])
        sol = np.array([0.0, 100.0, 0.0])
        trace = soc_trace(b, unmet, re, sol)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "slot,soc_mwh,charge_mw,discharge_mw,source"
        assert lines[1].endswith(",")  # discharge slot: no source
        assert lines[2].endswith(",re+solar")
        assert lines[3].endswith(",")


# --- dedicated solar sizing ----------------------------------------------


def block_shape(n, lo, hi, value=1.0):
    vals = np.zeros(n)
    slots = np.arange(n) % 48
    vals[(slots >= lo) & (slots < hi)] = value
    return vals


class TestFullRecharge:
    def test_closed_form_energy_budget(self):
        # 10 unit-strength solar slots per day refill 950 usable MWh:
        # gw = usable / (slots * 0.5 h * charge_eff)
        b = make_battery(energy=1000.0, inverter=400.0)
        n = 480
        shape = block_shape(n, 10, 20)
        expected = b.usable_mwh / (10 * 0.5 * b.charge_eff * 1e3)
        got = size_for_full_recharge(b, cycles(np.zeros(n), shape=shape, boundary=0),
                                     tolerance_gw=1e-4)
        assert expected - 1e-6 <= got <= expected + 2.5e-4

    def test_partial_trailing_window_is_skipped(self):
        b = make_battery(energy=1000.0, inverter=400.0)
        n = 500  # last 20 slots form a sunless partial window
        shape = block_shape(n, 10, 20)
        expected = b.usable_mwh / (10 * 0.5 * b.charge_eff * 1e3)
        got = size_for_full_recharge(b, cycles(np.zeros(n), shape=shape, boundary=0),
                                     tolerance_gw=1e-4)
        assert got == pytest.approx(expected, abs=2.5e-4)

    def test_curtailed_re_alone_can_suffice(self):
        b = make_battery(energy=1000.0, inverter=400.0)
        n = 480
        re = np.zeros(n)
        re[np.arange(n) % 48 < 20] = 300.0
        got = size_for_full_recharge(b, cycles(np.zeros(n), re, block_shape(n, 10, 20), 0))
        assert got == 0.0

    def test_zero_battery_needs_nothing(self):
        b = make_battery(energy=0.0, inverter=0.0)
        assert size_for_full_recharge(b, cycles(np.zeros(48), shape=block_shape(48, 10, 20))) == 0.0

    def test_sunless_shape_is_infeasible(self):
        b = make_battery(energy=1000.0, inverter=400.0)
        n = 96
        with pytest.raises(InfeasibleError):
            size_for_full_recharge(b, cycles(np.zeros(n), boundary=0), max_gw=4.0)


class TestSizeDedicatedSolar:
    def setup_method(self):
        self.n = 480
        self.unmet = np.zeros(self.n)
        slots = np.arange(self.n) % 48
        self.unmet[(slots >= 36) & (slots < 41)] = 200.0
        self.shape = block_shape(self.n, 20, 31)
        self.year = cycles(self.unmet, shape=self.shape)
        self.battery = sized(self.unmet, ScenarioParams())

    def test_full_battery_needs_no_minimum_solar(self):
        # every cycle starts full and holds one cycle of unmet energy
        assert size_dedicated_solar(self.battery, self.year) == 0.0

    def test_extra_interpolates_linearly(self):
        minimum = size_dedicated_solar(self.battery, self.year, tolerance_gw=1e-4)
        recharge = size_for_full_recharge(self.battery, self.year, tolerance_gw=1e-4)
        full = dedicated_solar_gw(minimum, recharge, 1.0)
        half = dedicated_solar_gw(minimum, recharge, 0.5)
        expected = self.battery.usable_mwh / (11 * 0.5 * self.battery.charge_eff * 1e3)
        assert full == pytest.approx(expected, abs=2.5e-4)
        assert half == 0.5 * full

    def test_extra_one_with_ample_curtailed_re_is_zero(self):
        re = np.zeros(self.n)
        re[(np.arange(self.n) % 48) < 20] = 400.0
        got = _oracles.sized_dedicated_solar(self.battery, cycles(self.unmet, re, self.shape),
                                             extra=1.0)
        assert got == 0.0

    def test_undersized_battery_is_infeasible(self):
        small = self.battery.scaled(0.4)
        with pytest.raises(InfeasibleError):
            size_dedicated_solar(small, self.year, max_gw=50.0)

    def test_zero_battery_sizes_to_zero(self):
        b = make_battery(energy=0.0, inverter=0.0)
        assert _oracles.sized_dedicated_solar(b, self.year, extra=1.0) == 0.0


class TestSearchSmallest:
    @pytest.mark.parametrize("max_gw", [0.5, 4.0, 10_000.0])
    @pytest.mark.parametrize(
        "threshold", [0.0, 0.05, 0.7, 1.0, 3.3, 4096.0, 8192.0, 9000.0, 20000.0])
    def test_matches_full_ladder(self, threshold, max_gw):
        # the one-probe exit must not change any answer of a monotone search
        def run(search):
            try:
                return search(lambda gw: gw >= threshold, 0.1, max_gw, "a step")
            except InfeasibleError:
                return "infeasible"

        assert run(_search_smallest) == run(_oracles.reference_search_smallest)

    def test_infeasible_search_costs_two_calls(self):
        calls = []

        def never(gw):
            calls.append(gw)
            return False

        with pytest.raises(InfeasibleError):
            _search_smallest(never, 0.1, 10_000.0, "nothing")
        assert calls == [0.0, 8192.0]

    def test_rejects_unbounded_search(self):
        with pytest.raises(InvariantError):
            _search_smallest(lambda gw: True, 0.1, float("inf"), "anything")

    def test_first_rung_is_capped_at_max_gw(self):
        # a 0.5 GW ceiling must not be answered from a 1 GW probe
        with pytest.raises(InfeasibleError):
            _search_smallest(lambda gw: gw >= 0.7, 0.1, 0.5, "a step")
        assert _search_smallest(lambda gw: gw >= 0.3, 0.01, 0.5, "a step") <= 0.5

    @settings(max_examples=200, deadline=None)
    @given(threshold=st.floats(0.0, 64.0), max_gw=st.floats(0.01, 50.0),
           tolerance=st.sampled_from([0.001, 0.1, 1.0]))
    def test_no_answer_exceeds_max_gw(self, threshold, max_gw, tolerance):
        def run(search):
            try:
                return search(lambda gw: gw >= threshold, tolerance, max_gw, "a step")
            except InfeasibleError:
                return "infeasible"

        got = run(_search_smallest)
        assert got == run(_oracles.reference_search_smallest)
        if got == "infeasible":
            # the ladder's top rung, above max_gw / 2, failed
            assert threshold > max_gw / 2
        else:
            assert threshold <= got <= max_gw
            assert got - threshold <= tolerance


# --- displacement --------------------------------------------------------


class TestDisplaceWithBattery:
    def hand_trace(self):
        """One 48-slot cycle: one 100 MW discharge, ample RE to recharge."""
        b = make_battery(energy=300.0, inverter=200.0, split="charge_only")
        unmet = np.zeros(48)
        unmet[5] = 100.0
        re = np.zeros(48)
        re[10:30] = 500.0
        return soc_trace(b, unmet, re, np.zeros(48), boundary_slot=0)

    def test_energy_matched_price_ordered(self):
        trace = self.hand_trace()
        gas = np.zeros(48)
        gas[:10] = 10.0  # 50 MWh in-window
        dy = bare_dispatch(48, gas_slack=gas, coal_slack=np.full(48, 40.0),
                           coal_2019=np.full(48, 100.0))
        disp = displace_with_battery(trace, tranche_cycle_mwh(dy, trace.year))
        # spare = depth margin: (250 - 15) MWh * eta_d(=1), all displaced
        assert sum(disp.displaced_twh.values()) == pytest.approx(235.0 / 1e6)
        assert sum(disp.per_day_mwh.values()) == pytest.approx([235.0])
        assert disp.displaced_twh["gas_slack"] == pytest.approx(50.0 / 1e6)
        assert disp.displaced_twh["coal_slack"] == pytest.approx(185.0 / 1e6)
        assert disp.displaced_twh["coal_2019"] == 0.0
        assert "gas_2019" not in disp.displaced_twh
        assert disp.per_day_mwh["coal_slack"][0] == pytest.approx(185.0)

    def test_drained_battery_has_no_spare(self):
        b = make_battery(energy=100.0, inverter=200.0, split="charge_only")
        unmet = np.zeros(48)
        unmet[5] = 190.0  # exactly one usable load
        re = np.zeros(48)
        re[10:30] = 100.0
        trace = soc_trace(b, unmet, re, np.zeros(48), boundary_slot=0)
        dy = bare_dispatch(48, gas_slack=np.full(48, 10.0))
        disp = displace_with_battery(trace, tranche_cycle_mwh(dy, trace.year))
        assert disp.displaced_twh == {name: 0.0 for name in DISPLACEMENT_ORDER}
        assert not any(days.any() for days in disp.per_day_mwh.values())

    def test_no_leftover_sources_no_spare(self):
        # plenty of unused depth, but nothing spare to recharge with
        b = make_battery(energy=300.0, inverter=200.0, split="charge_only")
        unmet = np.zeros(48)
        unmet[5] = 100.0
        trace = soc_trace(b, unmet, np.zeros(48), np.zeros(48),
                             boundary_slot=0)
        dy = bare_dispatch(48, coal_slack=np.full(48, 40.0))
        disp = displace_with_battery(trace, tranche_cycle_mwh(dy, trace.year))
        assert disp.displaced_twh == {name: 0.0 for name in DISPLACEMENT_ORDER}
        assert not any(days.any() for days in disp.per_day_mwh.values())

    def test_attribution_to_cycle_start_day(self):
        b = make_battery(energy=300.0, inverter=200.0, split="charge_only")
        n = 96
        unmet = np.zeros(n)
        unmet[85] = 100.0  # inside the (82, 96) window, calendar day 1
        re = np.zeros(n)
        re[90:96] = 500.0
        trace = soc_trace(b, unmet, re, np.zeros(n), boundary_slot=34)
        dy = bare_dispatch(n, gas_slack=np.full(n, 10.0),
                           coal_slack=np.full(n, 40.0))
        disp = displace_with_battery(trace, tranche_cycle_mwh(dy, trace.year))
        # only the third window has spare energy, 235 MWh, booked to day 1
        assert sum(disp.per_day_mwh.values()) == pytest.approx([0.0, 235.0])
        # third window: 14 slots of gas (70 MWh), remainder from coal
        assert disp.per_day_mwh["gas_slack"][1] == pytest.approx(70.0)
        assert disp.per_day_mwh["coal_slack"][1] == pytest.approx(165.0)
        assert disp.per_day_mwh["gas_slack"][0] == 0.0
        assert disp.per_day_mwh["coal_slack"][0] == 0.0

    @pytest.mark.parametrize("boundary", [0, 10, 34])
    def test_matches_per_window_reference(self, boundary):
        rng = np.random.default_rng(41 + boundary)
        for _ in range(5):
            n = 480
            unmet = rng.uniform(0.0, 120.0, n) * (rng.random(n) < 0.3)
            re = rng.uniform(0.0, 80.0, n) * (rng.random(n) < 0.5)
            sol = rng.uniform(0.0, 60.0, n)
            b = make_battery(energy=rng.uniform(200.0, 2000.0),
                             inverter=rng.uniform(50.0, 400.0))
            trace = soc_trace(b, unmet, re, sol, boundary_slot=boundary)
            dy = bare_dispatch(n, gas_slack=rng.uniform(0.0, 5.0, n),
                               coal_slack=rng.uniform(0.0, 20.0, n),
                               coal_2019=rng.uniform(0.0, 100.0, n))
            got = displace_with_battery(trace, tranche_cycle_mwh(dy, trace.year))
            ref = _oracles.reference_displacement(trace, dy)
            assert sum(got.displaced_twh.values()) > 0.0
            for name in ref.displaced_twh:
                np.testing.assert_allclose(got.per_day_mwh[name],
                                           ref.per_day_mwh[name], rtol=1e-9)
                assert got.displaced_twh[name] == pytest.approx(
                    ref.displaced_twh[name], rel=1e-9)


class TestLoweredDailyMax:
    def test_flat_day_water_fill(self):
        day = np.full((1, 48), 10_000.0)
        level = _lowered_daily_max(day, np.array([24_000.0]))
        assert level == pytest.approx([9_000.0])

    def test_zero_displacement_keeps_max(self):
        day = np.linspace(100.0, 200.0, 48)[None, :]
        assert _lowered_daily_max(day, np.zeros(1)) == pytest.approx([200.0])

    def test_displacing_everything_reaches_zero(self):
        days = np.full((2, 48), 50.0)
        total = 50.0 * 48 * 0.5
        level = _lowered_daily_max(days, np.array([total, total * 2]))
        assert np.array_equal(level, [0.0, 0.0])

    def test_matches_bisected_water_fill(self):
        # one matrix call: zero, negative, partial and over-total rows
        rng = np.random.default_rng(23)
        days = rng.uniform(0.0, 500.0, (24, 48))
        days[3] = np.round(days[3], -2)  # tied slots
        totals = days.sum(axis=1) * 0.5
        energy = rng.uniform(0.0, 1.0, 24) * totals
        energy[0] = 0.0
        energy[1] = -50.0
        energy[2] = totals[2]
        energy[4] = totals[4] * 1.5
        levels = _lowered_daily_max(days, energy)
        assert levels.shape == (24,)
        for day, e, level in zip(days, energy, levels):
            assert level == pytest.approx(_oracles.shaved_level(day, e),
                                          abs=1e-6)
            removed = float(np.maximum(day - level, 0.0).sum()) * 0.5
            assert removed == pytest.approx(
                min(max(e, 0.0), float(day.sum()) * 0.5), abs=1e-6)


class TestCoalPeakBonus:
    def test_needs_flex_fields(self):
        rng = np.random.default_rng(0)
        demand, re, hydro, nuclear, caps, _, flex = _oracles.random_flex_instance(rng)
        pre, _ = _oracles.model_flex_dispatch(demand, re, hydro, nuclear, caps, flex)
        with pytest.raises(InvariantError):
            coal_peak_bonus(pre, np.zeros(1), flex)

    def test_rejects_wrong_shape(self):
        rng = np.random.default_rng(1)
        demand, re, hydro, nuclear, caps, _, flex = _oracles.random_flex_instance(rng)
        _, flexed = _oracles.model_flex_dispatch(demand, re, hydro, nuclear, caps, flex)
        with pytest.raises(InvariantError):
            coal_peak_bonus(flexed, np.zeros(5), flex)

    def test_zero_displacement_zero_bonus(self):
        rng = np.random.default_rng(3)
        demand, re, hydro, nuclear, caps, _, flex = _oracles.random_flex_instance(rng)
        _, flexed = _oracles.model_flex_dispatch(demand, re, hydro, nuclear, caps, flex)
        assert np.all(coal_peak_bonus(flexed, np.zeros(1), flex) == 0.0)

    def test_matches_flex_rerun(self):
        for seed in range(6):
            rng = np.random.default_rng(100 + seed)
            demand, re, hydro, nuclear, caps, _, flex = _oracles.random_flex_instance(
                rng, n_slots=144)
            pre, flexed = _oracles.model_flex_dispatch(
                demand, re, hydro, nuclear, caps, flex)
            coal = flexed.coal_total().reshape(3, 48)
            day_energy = coal.sum(axis=1) * 0.5
            displaced = rng.uniform(0.0, 0.6, 3) * day_energy
            displaced[0] = day_energy[0] * 2.0  # oversized: clips to the day
            bonus = coal_peak_bonus(flexed, displaced, flex)
            brute = _oracles.brute_force_bonus(pre, flexed, displaced, flex)
            assert np.allclose(bonus, brute, atol=1e-6)
            assert np.all(bonus >= -1e-9)


class TestDisplaceGasWithNewCoal:
    def test_spare_headroom_caps_displacement(self):
        dy = bare_dispatch(3, gas_slack=[0.0, 10.0, 30.0])
        dy.supply["new"] = np.array([0.0, 5.0, 40.0])
        got = displace_gas_with_new_coal(20.0, dy)
        # spare headroom [20, 15, 0] meets gas [0, 10, 30]
        assert got == pytest.approx(10.0 * 0.5 / 1e6)

    def test_zero_capacity_displaces_nothing(self):
        dy = bare_dispatch(3, gas_slack=[5.0, 5.0, 5.0])
        dy.supply["new"] = np.zeros(3)
        assert displace_gas_with_new_coal(0.0, dy) == 0.0


# --- undersizing (reference oracle) ------------------------------------


class TestUndersizeResidual:
    def test_thermal_truncates_slotwise(self):
        twh, peak = _oracles.undersize_residual(
            None, 0.5, np.array([100.0, 40.0, 0.0]), net_capacity_mw=120.0)
        assert twh == pytest.approx(40.0 * 0.5 / 1e6)
        assert peak == pytest.approx(40.0)

    def test_thermal_needs_capacity(self):
        with pytest.raises(ParameterError):
            _oracles.undersize_residual(None, 0.5, np.zeros(3))

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.2])
    def test_fraction_bounds(self, fraction):
        with pytest.raises(ParameterError):
            _oracles.undersize_residual(None, fraction, np.zeros(3),
                                        net_capacity_mw=10.0)

    def test_battery_path_matches_direct_simulation(self):
        unmet = np.zeros(96)
        unmet[40] = 150.0
        unmet[70] = 80.0
        battery = sized(unmet, ScenarioParams())
        twh, peak = _oracles.undersize_residual(battery, 0.5, unmet)
        trace = soc_trace(battery.scaled(0.5), unmet, np.zeros(96),
                          np.zeros(96), boundary_slot=34)
        assert twh == pytest.approx(float(np.sum(trace.secondary_unmet_mw)) * SLOT_HOURS / 1e6)
        assert peak == pytest.approx(float(trace.secondary_unmet_mw.max()))
        assert twh > 0.0

    def test_bare_battery_spec_accepted(self):
        unmet = np.zeros(96)
        unmet[40] = 150.0
        battery = sized(unmet, ScenarioParams())
        twh, peak = _oracles.undersize_residual(battery, 1.0, unmet)
        assert twh == 0.0
        assert peak == 0.0

    def test_residual_shrinks_with_size(self):
        unmet = np.zeros(96)
        unmet[40] = 150.0
        unmet[41] = 150.0
        unmet[70] = 80.0
        battery = sized(unmet, ScenarioParams())
        residuals = [_oracles.undersize_residual(battery, f, unmet)[0]
                     for f in (0.2, 0.4, 0.6, 0.8, 1.0)]
        assert all(a >= b - 1e-12 for a, b in zip(residuals, residuals[1:]))
        assert residuals[0] > 0.0
        assert residuals[-1] == 0.0


# --- plan container ------------------------------------------------------


class TestNewSupplyPlan:
    def test_validate_rejects_negative_energies(self):
        secondary = np.zeros(N_YEARS)
        secondary[-1] = -0.5
        plan = NewSupplyPlan(option="battery_re", secondary_unmet_twh=secondary)
        with pytest.raises(InvariantError, match="2030"):
            plan.validate()

    def test_validate_passes_clean_plan(self):
        coal = np.zeros(N_YEARS)
        coal[-1] = 1.25
        plan = NewSupplyPlan(option="ocgt", displaced_coal_2019_twh=coal)
        plan.validate()
