"""Merit-order despatch, the coal flex floor, and the audit helpers."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import _oracles
from gridlab.dispatch import (
    TRANCHES,
    BufferReport,
    DispatchYear,
    apply_coal_flex,
    attach_must_run,
    buffer_check,
    compute_unmet,
    load_duration_curve,
    merit_dispatch,
    net_demand,
    split_must_run,
    to_csv,
)
from gridlab.errors import DataIntegrityError, ParameterError
from gridlab.shapes import slots_in_year


def test_day_index():
    # the flex pass reads a year as (days, 48): floors come per calendar
    # day, and a series that is not whole days is rejected
    rng = np.random.default_rng(4)
    demand, re, hydro, nuclear, caps, _, flex = _oracles.random_flex_instance(rng, 96)
    pre, flexed = _oracles.model_flex_dispatch(demand, re, hydro, nuclear, caps, flex)
    day_max = pre.coal_total().reshape(2, 48).max(axis=1)
    np.testing.assert_array_equal(flexed.coal_flex_floor, flex * day_max)
    with pytest.raises(ParameterError):
        apply_coal_flex(_flat_dy(n=50), flex)


def test_net_demand_algebra():
    d = np.array([100.0, 50.0, 20.0])
    re, hy, nu = np.array([30.0, 30.0, 30.0]), np.array([10.0] * 3), np.array([5.0] * 3)
    net, curt = net_demand(d, re, hy, nu)
    np.testing.assert_allclose(net, [55.0, 5.0, 0.0])
    np.testing.assert_allclose(curt, [0.0, 0.0, 25.0])


def test_net_demand_length_check():
    with pytest.raises(ParameterError):
        net_demand(np.zeros(3), np.zeros(2), np.zeros(3), np.zeros(3))


def test_net_demand_rejects_invalid_full_year_result():
    # an infinite RE slot leaves NaN in the despatched supply (inf - inf);
    # the balance check must reject it rather than compare NaN as small
    n = slots_in_year(2021)
    d = np.full(n, 10.0)
    re, hydro, nuclear = np.zeros(n), np.zeros(n), np.zeros(n)
    re[7] = np.inf
    with np.errstate(invalid="ignore"):
        net, interim = net_demand(d, re, hydro, nuclear)
        must = split_must_run(d, re, hydro, nuclear)
        dy = merit_dispatch(net, [(k, 100.0) for k in TRANCHES])
        dy = attach_must_run(dy, must, interim)
    with pytest.raises(DataIntegrityError):
        dy.check_balance()


def test_split_must_run_cuts_re_first():
    d = np.array([20.0])
    re, hy, nu = np.array([30.0]), np.array([10.0]), np.array([5.0])
    out = split_must_run(d, re, hy, nu)
    # 25 MW of surplus: all 30 RE absorbs the first 25
    assert out["re"][0] == pytest.approx(5.0)
    assert out["hydro"][0] == pytest.approx(10.0)
    assert out["nuclear"][0] == pytest.approx(5.0)

    deeper = split_must_run(np.array([8.0]), re, hy, nu)
    assert deeper["re"][0] == 0.0
    assert deeper["hydro"][0] == pytest.approx(3.0)
    assert deeper["nuclear"][0] == pytest.approx(5.0)


def test_split_must_run_sums_to_served():
    rng = np.random.default_rng(2)
    d, re, hy, nu = (rng.uniform(0, 50, 200) for _ in range(4))
    out = split_must_run(d, re, hy, nu)
    np.testing.assert_allclose(
        out["re"] + out["hydro"] + out["nuclear"],
        np.minimum(d, re + hy + nu), atol=1e-12)


def test_merit_dispatch_hand_case():
    net = np.array([0.0, 5.0, 12.0, 31.0])
    dy = merit_dispatch(net, [("coal_2019", 10.0), ("gas_2019", 5.0),
                              ("coal_slack", 8.0), ("gas_slack", 7.0)])
    np.testing.assert_allclose(dy.supply["coal_2019"], [0, 5, 10, 10])
    np.testing.assert_allclose(dy.supply["gas_2019"], [0, 0, 2, 5])
    np.testing.assert_allclose(dy.supply["coal_slack"], [0, 0, 0, 8])
    np.testing.assert_allclose(dy.supply["gas_slack"], [0, 0, 0, 7])
    np.testing.assert_allclose(dy.unmet, [0, 0, 0, 1])
    dy.check_balance()


def test_merit_dispatch_capacity_validation():
    with pytest.raises(ParameterError):
        merit_dispatch(np.zeros(4), [("coal_2019", -1.0)])
    with pytest.raises(ParameterError):
        merit_dispatch(np.zeros(4), [("coal_2019", np.zeros(3))])


@settings(max_examples=60, deadline=None)
@given(
    net=hnp.arrays(float, 48, elements=st.floats(0, 200)),
    caps=hnp.arrays(float, (4, 48), elements=st.floats(0, 60)),
)
def test_merit_dispatch_conservation_and_greed(net, caps):
    dy = merit_dispatch(net, list(zip(TRANCHES, caps)))
    total = sum(dy.supply[k] for k in TRANCHES)
    np.testing.assert_allclose(total + dy.unmet, net, atol=1e-9)
    for k, cap in zip(TRANCHES, caps):
        assert np.all(dy.supply[k] <= cap + 1e-9)
        assert np.all(dy.supply[k] >= 0)
    # greedy property: a later tranche only runs once earlier ones are full
    for i, k in enumerate(TRANCHES[:-1]):
        later = sum(dy.supply[j] for j in TRANCHES[i + 1:])
        slack_here = caps[i] - dy.supply[k]
        assert np.all((later <= 1e-9) | (slack_here <= 1e-9))


def test_attach_must_run_restores_busbar_demand():
    net = np.array([10.0, 0.0])
    dy = merit_dispatch(net, [("coal_2019", 20.0), ("gas_2019", 0.0),
                              ("coal_slack", 0.0), ("gas_slack", 0.0)])
    must = {"re": np.array([5.0, 8.0]), "hydro": np.array([1.0, 0.0]),
            "nuclear": np.array([2.0, 2.0])}
    out = attach_must_run(dy, must, np.array([0.0, 3.0]))
    np.testing.assert_allclose(out.demand, [18.0, 10.0])
    np.testing.assert_allclose(out.curtailment, [0.0, 3.0])
    out.check_balance()


# --- coal flexibility floor --------------------------------------------------


def _one_day(net_low=10.0, net_high=120.0, re=40.0, hydro=5.0, nuclear=5.0,
             caps=(100.0, 20.0, 30.0, 10.0)):
    """A single synthetic day: 24 high-net slots then 24 low-net slots."""
    net = np.concatenate([np.full(24, net_high), np.full(24, net_low)])
    demand = net + re + hydro + nuclear
    re_s = np.full(48, re)
    hy_s = np.full(48, hydro)
    nu_s = np.full(48, nuclear)
    return demand, re_s, hy_s, nu_s, dict(zip(TRANCHES, caps))


def test_flex_raises_coal_and_curtails_re_first():
    demand, re_s, hy_s, nu_s, caps = _one_day()
    pre, flexed = _oracles.model_flex_dispatch(demand, re_s, hy_s, nu_s, caps, 0.6)
    # pre-flex: high slots run coal at 100 (daily max), low slots at 10
    assert float(pre.coal_total().max()) == pytest.approx(100.0)
    np.testing.assert_allclose(flexed.coal_flex_floor, [60.0])
    low = slice(24, 48)
    # the floor relaxes to net + absorbable must-run = 10 + 45
    np.testing.assert_allclose(flexed.coal_total()[low], 55.0)
    np.testing.assert_allclose(flexed.flex_re_cut[low], 40.0)
    np.testing.assert_allclose(flexed.flex_hydro_cut[low], 5.0)
    assert flexed.relaxed_slots == 24
    flexed.check_balance()


def test_flex_without_relaxation():
    demand, re_s, hy_s, nu_s, caps = _one_day(re=80.0)
    pre, flexed = _oracles.model_flex_dispatch(demand, re_s, hy_s, nu_s, caps, 0.6)
    low = slice(24, 48)
    np.testing.assert_allclose(flexed.coal_total()[low], 60.0)
    np.testing.assert_allclose(flexed.flex_re_cut[low], 50.0)
    np.testing.assert_allclose(flexed.flex_hydro_cut[low], 0.0)
    assert flexed.relaxed_slots == 0
    # high slots untouched
    np.testing.assert_allclose(flexed.coal_total()[:24], 100.0)


def test_flex_zero_limit_is_a_no_op():
    demand, re_s, hy_s, nu_s, caps = _one_day()
    pre, flexed = _oracles.model_flex_dispatch(demand, re_s, hy_s, nu_s, caps, 0.0)
    for k in TRANCHES:
        np.testing.assert_allclose(flexed.supply[k], pre.supply[k])
    assert flexed.curtailment_twh() == pre.curtailment_twh()


def test_flex_limit_validation():
    demand, re_s, hy_s, nu_s, caps = _one_day()
    pre, _ = _oracles.model_flex_dispatch(demand, re_s, hy_s, nu_s, caps, 0.6)
    with pytest.raises(ParameterError):
        apply_coal_flex(pre, 1.0)
    with pytest.raises(ParameterError):
        apply_coal_flex(pre, 0.6, floor_day=np.zeros(3))


def test_flex_floor_day_override():
    demand, re_s, hy_s, nu_s, caps = _one_day(re=80.0)
    pre, _ = _oracles.model_flex_dispatch(demand, re_s, hy_s, nu_s, caps, 0.6)
    lowered = apply_coal_flex(pre, 0.6, floor_day=np.array([40.0]))
    low = slice(24, 48)
    np.testing.assert_allclose(lowered.coal_total()[low], 40.0)
    np.testing.assert_allclose(lowered.coal_flex_floor, [40.0])


@pytest.mark.parametrize("seed", range(8))
def test_flex_invariants_on_random_days(seed):
    rng = np.random.default_rng(seed)
    demand, re_s, hy_s, nu_s, caps, prices, flex = _oracles.random_flex_instance(rng)
    pre, flexed = _oracles.model_flex_dispatch(demand, re_s, hy_s, nu_s, caps, flex)
    flexed.check_balance(1e-6)
    coal_pre, coal_post = pre.coal_total(), flexed.coal_total()
    assert np.all(coal_post >= coal_pre - 1e-9)
    assert float(coal_post.max()) == pytest.approx(float(coal_pre.max()))
    assert np.all(flexed.curtailment >= pre.curtailment - 1e-9)
    assert np.all(flexed.unmet <= pre.unmet + 1e-9)
    assert np.all(flexed.supply["re"] >= -1e-9)
    assert np.all(flexed.supply["hydro"] >= -1e-9)
    # the floor holds wherever it was not explicitly relaxed
    net, absorb, coal_cap, day_max = _oracles.effective_floor(pre)
    floor_slot = np.minimum.reduce(
        [np.repeat(flex * day_max, 48), net + absorb, coal_cap])
    assert np.all(coal_post >= floor_slot - 1e-6)


@pytest.mark.parametrize("seed", range(40))
def test_flex_matches_lp_oracle(seed):
    """The greedy re-despatch is cost-optimal under increasing prices."""
    rng = np.random.default_rng(1_000 + seed)
    demand, re_s, hy_s, nu_s, caps, prices, flex = _oracles.random_flex_instance(rng)
    pre, flexed = _oracles.model_flex_dispatch(demand, re_s, hy_s, nu_s, caps, flex)
    model = _oracles.dispatch_cost(flexed, prices)
    oracle = _oracles.lp_flex_cost(pre, prices, flex)
    assert model == pytest.approx(oracle, rel=1e-6, abs=1e-6)


# --- audits ------------------------------------------------------------------


def _flat_dy(coal=50.0, gas=10.0, hydro=5.0, nuclear=5.0, new=0.0, n=48):
    supply = {
        "re": np.zeros(n), "hydro": np.full(n, hydro), "nuclear": np.full(n, nuclear),
        "coal_2019": np.full(n, coal), "gas_2019": np.full(n, gas),
        "coal_slack": np.zeros(n), "gas_slack": np.zeros(n), "new": np.full(n, new),
    }
    demand = sum(supply.values())
    return DispatchYear(
        demand=demand, supply=supply,
        capacity={k: np.full(n, 100.0) for k in TRANCHES},
        curtailment=np.zeros(n), unmet=np.zeros(n),
    )


def test_buffer_check_headroom():
    dy = _flat_dy(coal=50.0, gas=10.0, hydro=5.0, nuclear=5.0)
    # despatchable output is 70 MW; 100 MW of capacity leaves 30 headroom
    report = buffer_check(dy, np.full(48, 400.0), 100.0, grid_buffer=0.05)
    # requirement 0.05 * 400 = 20 MW fits in the 30 MW of headroom
    np.testing.assert_allclose(report.shortfall, 0.0)
    # requirement 40 MW against 30 MW of headroom
    tight = buffer_check(dy, np.full(48, 800.0), 100.0, grid_buffer=0.05)
    np.testing.assert_allclose(tight.shortfall, 10.0)
    with pytest.raises(ParameterError):
        buffer_check(dy, np.full(48, 800.0), 100.0, grid_buffer=-0.1)


def test_compute_unmet_capacity_requirement():
    dy = _flat_dy()
    dy.unmet = np.linspace(0.0, 47.0, 48)
    shortfall = np.zeros(48)
    shortfall[10] = 100.0
    report = BufferReport(shortfall=shortfall)
    assert compute_unmet(dy, report) == pytest.approx(110.0)
    # with no shortfall, the worst unmet slot alone sets it
    quiet = BufferReport(shortfall=np.zeros(48))
    assert compute_unmet(dy, quiet) == 47.0



def test_check_balance_raises_on_corruption():
    dy = _flat_dy()
    dy.supply["coal_2019"] = dy.supply["coal_2019"] + 5.0
    with pytest.raises(DataIntegrityError):
        dy.check_balance()
    dy = _flat_dy()
    dy.supply["coal_2019"][3] = np.nan  # nan > tolerance is False
    with pytest.raises(DataIntegrityError):
        dy.check_balance()


# --- CSV output --------------------------------------------------------------


def test_dispatch_csv_golden(tmp_path):
    dy = _flat_dy(n=48)
    path = tmp_path / "dispatch.csv"
    to_csv(dy, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "slot", "demand_mw", "re_mw", "hydro_mw", "nuclear_mw", "coal_2019_mw",
        "gas_2019_mw", "coal_slack_mw", "gas_slack_mw", "new_mw",
        "curtailment_mw", "unmet_mw",
    ]
    assert len(rows) == 49
    assert rows[1][1] == "70.000"
    assert rows[1][5] == "50.000"


def test_duration_curve_is_sorted():
    values = np.array([3.0, 9.0, 1.0, 9.5, 0.0])
    curve = load_duration_curve(values)
    assert list(curve) == [9.5, 9.0, 3.0, 1.0, 0.0]
