"""Merit-order despatch, the coal flex floor, and the audit helpers."""

import csv
import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import _oracles
from gridlab.dispatch import (
    SUPPLY_KEYS,
    TRANCHES,
    _TOL,
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
    write_table,
)
from gridlab.errors import DataIntegrityError, InvariantError
from gridlab.pipeline import preflex
from gridlab.shapes import slots_in_year


def test_day_index():
    # the flex pass reads a year as (days, 48): floors come per calendar
    # day, and a series that is not whole days is rejected
    rng = np.random.default_rng(4)
    demand, re, hydro, nuclear, caps, _, flex = _oracles.random_flex_instance(rng, 96)
    pre, flexed = _oracles.model_flex_dispatch(demand, re, hydro, nuclear, caps, flex)
    day_max = pre.coal_total().reshape(2, 48).max(axis=1)
    # coal is raised to flex times its own day's maximum, on both days
    net, absorb, coal_cap, _ = _oracles.effective_floor(pre)
    floor_slot = np.minimum.reduce([np.repeat(flex * day_max, 48), net + absorb, coal_cap])
    coal = flexed.coal_total()
    raised = coal > pre.coal_total() + 1e-9
    assert raised.reshape(2, 48).any(axis=1).all()
    np.testing.assert_allclose(coal[raised], floor_slot[raised], rtol=1e-12)
    assert np.all(coal >= floor_slot - 1e-9)
    with pytest.raises(InvariantError):
        apply_coal_flex(_flat_dy(n=50), flex)


def test_net_demand_algebra():
    d = np.array([100.0, 50.0, 20.0])
    re, hy, nu = np.array([30.0, 30.0, 30.0]), np.array([10.0] * 3), np.array([5.0] * 3)
    net, curt = net_demand(d, re, hy, nu)
    np.testing.assert_allclose(net, [55.0, 5.0, 0.0])
    np.testing.assert_allclose(curt, [0.0, 0.0, 25.0])


def test_net_demand_length_check():
    with pytest.raises(InvariantError):
        net_demand(np.zeros(3), np.zeros(2), np.zeros(3), np.zeros(3))


def test_net_demand_rejects_invalid_full_year_result():
    # an infinite RE slot leaves NaN in the despatched supply (inf - inf);
    # the balance check must reject it rather than compare NaN as small
    n = slots_in_year(2021)
    d = np.full(n, 10.0)
    re, hydro, nuclear = np.zeros(n), np.zeros(n), np.zeros(n)
    re[7] = np.inf
    with np.errstate(invalid="ignore"):
        dy = preflex(d, {"re": re, "hydro": hydro, "nuclear": nuclear},
                     {k: np.full(n, 100.0) for k in TRANCHES})
    with pytest.raises(DataIntegrityError):
        dy.check_balance()


def test_split_must_run_cuts_re_first():
    d = np.array([20.0])
    re, hy, nu = np.array([30.0]), np.array([10.0]), np.array([5.0])
    out = split_must_run(net_demand(d, re, hy, nu)[1], re, hy, nu)
    # 25 MW of surplus: all 30 RE absorbs the first 25
    assert out["re"][0] == pytest.approx(5.0)
    assert out["hydro"][0] == pytest.approx(10.0)
    assert out["nuclear"][0] == pytest.approx(5.0)

    deeper = split_must_run(net_demand(np.array([8.0]), re, hy, nu)[1], re, hy, nu)
    assert deeper["re"][0] == 0.0
    assert deeper["hydro"][0] == pytest.approx(3.0)
    assert deeper["nuclear"][0] == pytest.approx(5.0)


def test_split_must_run_sums_to_served():
    rng = np.random.default_rng(2)
    d, re, hy, nu = (rng.uniform(0, 50, 200) for _ in range(4))
    out = split_must_run(net_demand(d, re, hy, nu)[1], re, hy, nu)
    np.testing.assert_allclose(
        out["re"] + out["hydro"] + out["nuclear"],
        np.minimum(d, re + hy + nu), atol=1e-12)


def _caps(n, *values):
    return {k: np.full(n, v) for k, v in zip(TRANCHES, values)}


def test_merit_dispatch_hand_case():
    net = np.array([0.0, 5.0, 12.0, 31.0])
    served, unmet = merit_dispatch(net, _caps(4, 10.0, 5.0, 8.0, 7.0))
    assert list(served) == list(TRANCHES)
    np.testing.assert_allclose(served["coal_2019"], [0, 5, 10, 10])
    np.testing.assert_allclose(served["gas_2019"], [0, 0, 2, 5])
    np.testing.assert_allclose(served["coal_slack"], [0, 0, 0, 8])
    np.testing.assert_allclose(served["gas_slack"], [0, 0, 0, 7])
    np.testing.assert_allclose(unmet, [0, 0, 0, 1])
    np.testing.assert_array_equal(sum(served.values()) + unmet, net)


def test_merit_dispatch_capacity_validation():
    with pytest.raises(InvariantError, match="negative"):
        merit_dispatch(np.zeros(4), {**_caps(4, 0, 0, 0, 0), "coal_2019": np.full(4, -1.0)})
    with pytest.raises(InvariantError, match="shape"):
        merit_dispatch(np.zeros(4), {**_caps(4, 0, 0, 0, 0), "gas_slack": np.zeros(3)})
    with pytest.raises(InvariantError, match="shape"):
        merit_dispatch(np.zeros(4), {**_caps(4, 0, 0, 0, 0), "gas_2019": np.zeros((4, 1))})


@settings(max_examples=60, deadline=None)
@given(
    net=hnp.arrays(float, 48, elements=st.floats(0, 200)),
    caps=hnp.arrays(float, (4, 48), elements=st.floats(0, 60)),
)
def test_merit_dispatch_conservation_and_greed(net, caps):
    served, unmet = merit_dispatch(net, dict(zip(TRANCHES, caps)))
    total = sum(served[k] for k in TRANCHES)
    np.testing.assert_allclose(total + unmet, net, atol=1e-9)
    for k, cap in zip(TRANCHES, caps):
        assert np.all(served[k] <= cap + 1e-9)
        assert np.all(served[k] >= 0)
    # greedy property: a later tranche only runs once earlier ones are full
    for i, k in enumerate(TRANCHES[:-1]):
        later = sum(served[j] for j in TRANCHES[i + 1:])
        slack_here = caps[i] - served[k]
        assert np.all((later <= 1e-9) | (slack_here <= 1e-9))


def test_attach_must_run_restores_busbar_demand():
    net = np.array([10.0, 0.0])
    caps = {**_caps(2, 20.0, 0.0, 0.0, 0.0), "coal_avail": np.full(2, 20.0)}
    served, unmet = merit_dispatch(net, caps)
    must = {"re": np.array([5.0, 8.0]), "hydro": np.array([1.0, 0.0]),
            "nuclear": np.array([2.0, 2.0])}
    out = attach_must_run(net, np.array([0.0, 3.0]), must, served, unmet, caps)
    np.testing.assert_allclose(out.demand, [18.0, 10.0])
    np.testing.assert_allclose(out.curtailment, [0.0, 3.0])
    assert list(out.supply) == list(SUPPLY_KEYS)
    assert list(out.capacity) == list(TRANCHES)
    np.testing.assert_array_equal(out.supply["new"], 0.0)
    out.check_balance()


def _assert_same_bits(got, want):
    """Every array of two despatch years holds the same bits, under the
    same keys in the same order."""
    assert list(got.supply) == list(want.supply)
    assert list(got.capacity) == list(want.capacity)
    pairs = [(got.demand, want.demand), (got.curtailment, want.curtailment),
             (got.unmet, want.unmet), (got.flex_re_cut, want.flex_re_cut),
             (got.flex_hydro_cut, want.flex_hydro_cut)]
    pairs += [(got.supply[k], want.supply[k]) for k in want.supply]
    pairs += [(got.capacity[k], want.capacity[k]) for k in want.capacity]
    for a, b in pairs:
        if b is None:
            assert a is None
        else:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got.relaxed_slots == want.relaxed_slots


@pytest.mark.parametrize("seed", range(24))
def test_preflex_matches_the_reference_chain_bit_for_bit(seed):
    # one- and multi-day instances with zero-capacity tranches, slots of
    # must-run surplus (some deep enough to cut hydro and nuclear) and,
    # on some seeds, no must-run at all
    rng = np.random.default_rng(9_000 + seed)
    n_days = (1, 2, 5)[seed % 3]
    demand, re, hydro, nuclear, caps, _, flex = _oracles.random_flex_instance(
        rng, n_days * 48)
    n = demand.shape[0]
    for key in TRANCHES:
        caps[key] = np.where(rng.random(n) < 0.2, 0.0, caps[key])
    if seed % 4 == 0:
        caps[TRANCHES[seed // 4 % 4]] = np.zeros(n)
    if seed % 6 == 5:
        re, hydro, nuclear = np.zeros(n), np.zeros(n), np.zeros(n)
    else:
        re = np.where(rng.random(n) < 0.3, re + demand, re)
        demand = np.where(rng.random(n) < 0.15, rng.uniform(0.0, 1.0, n) * nuclear, demand)
    surplus = re + hydro + nuclear > demand
    assert surplus.any() == (seed % 6 != 5)

    want = _oracles.reference_preflex(demand, re, hydro, nuclear, caps)
    got, flexed = _oracles.model_flex_dispatch(demand, re, hydro, nuclear, caps, flex)
    _assert_same_bits(got, want)
    _assert_same_bits(flexed, apply_coal_flex(want, flex))


# --- coal flexibility floor --------------------------------------------------


def _one_day(net_low=10.0, net_high=120.0, re=40.0, hydro=5.0, nuclear=5.0,
             caps=(100.0, 20.0, 30.0, 10.0)):
    """A single synthetic day: 24 high-net slots then 24 low-net slots."""
    net = np.concatenate([np.full(24, net_high), np.full(24, net_low)])
    demand = net + re + hydro + nuclear
    re_s = np.full(48, re)
    hy_s = np.full(48, hydro)
    nu_s = np.full(48, nuclear)
    return demand, re_s, hy_s, nu_s, {k: np.full(48, c) for k, c in zip(TRANCHES, caps)}


def test_flex_raises_coal_and_curtails_re_first():
    demand, re_s, hy_s, nu_s, caps = _one_day()
    pre, flexed = _oracles.model_flex_dispatch(demand, re_s, hy_s, nu_s, caps, 0.6)
    # pre-flex: high slots run coal at 100 (daily max), low slots at 10
    assert float(pre.coal_total().max()) == pytest.approx(100.0)
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


@pytest.mark.parametrize("seed", range(8))
def test_flex_invariants_on_random_days(seed):
    rng = np.random.default_rng(seed)
    demand, re_s, hy_s, nu_s, caps, prices, flex = _oracles.random_flex_instance(rng)
    pre, flexed = _oracles.model_flex_dispatch(demand, re_s, hy_s, nu_s, caps, flex)
    flexed.check_balance()
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


def _flex_case(rng, n_days, flex, zero_gas, tight):
    """A pre-flex year for the kernel parity test.

    The arrays are drawn independently: a slot may run above its
    capacity or leave unmet demand beside free capacity.  The kernel
    must match the reference on any input, and only such states show a
    candidate mask that drops ``_TOL`` or a scatter that skips a series.
    Some days have no coal, and some slots sit within a few ``_TOL`` of
    their day's floor with all their coal in ``coal_2019``.
    """
    n = n_days * 48
    supply = {k: rng.uniform(0.0, 60.0, n) for k in TRANCHES}
    if zero_gas:
        supply["gas_2019"] = np.zeros(n)
        supply["gas_slack"] = np.zeros(n)
    no_coal = np.repeat(rng.random(n_days) < 0.25, 48)
    for key in ("coal_2019", "coal_slack"):
        supply[key] = np.where(no_coal, 0.0, supply[key])
    capacity = {k: np.maximum(supply[k] + rng.uniform(-10.0, 30.0, n), 0.0) for k in TRANCHES}
    if zero_gas:
        capacity["gas_2019"] = np.zeros(n)
        capacity["gas_slack"] = np.zeros(n)
    scale = 0.01 if tight else 1.0
    supply["re"] = rng.uniform(0.0, 80.0, n) * scale
    supply["hydro"] = rng.uniform(0.0, 20.0, n) * scale
    supply["nuclear"] = rng.uniform(0.0, 5.0, n)
    supply["new"] = np.zeros(n)
    unmet = np.where(rng.random(n) < 0.3, rng.uniform(0.0, 20.0, n), 0.0)

    day_max = (supply["coal_2019"] + supply["coal_slack"]).reshape(n_days, 48).max(axis=1)
    floor_day = flex * day_max
    edges = rng.choice(n, size=12, replace=False)
    offsets = np.array([-2.0, -1.0, -0.5, 0.0, 1.0]) * _TOL
    supply["coal_slack"][edges] = 0.0
    supply["coal_2019"][edges] = floor_day[edges // 48] + rng.choice(offsets, edges.size)
    dy = DispatchYear(
        demand=sum(supply.values()) + unmet, supply=supply, capacity=capacity,
        curtailment=rng.uniform(0.0, 10.0, n), unmet=unmet,
    )
    return dy


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_days=st.integers(1, 4),
    flex=st.one_of(st.sampled_from([0.0, 0.999999]), st.floats(0.3, 0.9)),
    zero_gas=st.booleans(),
    tight=st.booleans(),
)
def test_flex_kernel_matches_full_length_reference(
    seed, n_days, flex, zero_gas, tight
):
    """The binding-slot kernel is the full-length pass, bit for bit."""
    dy = _flex_case(np.random.default_rng(seed), n_days, flex, zero_gas, tight)
    inputs = [dy.demand, dy.curtailment, dy.unmet, *dy.supply.values(), *dy.capacity.values()]
    before = [a.tobytes() for a in inputs]
    got = apply_coal_flex(dy, flex)
    want = _oracles.reference_apply_coal_flex(dy, flex)

    def same(a, b):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    for field in dataclasses.fields(DispatchYear):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(a, dict):
            assert a.keys() == b.keys(), field.name
            assert all(same(a[k], b[k]) for k in a), field.name
        elif isinstance(a, np.ndarray):
            assert same(a, b), field.name
        else:
            assert a == b, field.name
    # no input is written to, and every series the pass changes is new
    assert [a.tobytes() for a in inputs] == before
    changed = [got.unmet, got.curtailment, got.flex_re_cut, got.flex_hydro_cut,
               *(got.supply[k] for k in ("re", "hydro", *TRANCHES))]
    assert not any(np.shares_memory(a, b) for a in changed for b in inputs)


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
    shortfall = buffer_check(dy, np.full(48, 400.0), np.full(48, 100.0), grid_buffer=0.05)
    # requirement 0.05 * 400 = 20 MW fits in the 30 MW of headroom
    np.testing.assert_allclose(shortfall, 0.0)
    # requirement 40 MW against 30 MW of headroom
    tight = buffer_check(dy, np.full(48, 800.0), np.full(48, 100.0), grid_buffer=0.05)
    np.testing.assert_allclose(tight, 10.0)
    with pytest.raises(InvariantError, match="shape"):
        buffer_check(dy, np.full(48, 800.0), 100.0, grid_buffer=0.05)
    with pytest.raises(InvariantError, match="negative"):
        buffer_check(dy, np.full(48, 800.0), np.full(48, -1.0), grid_buffer=0.05)


def test_compute_unmet_capacity_requirement():
    dy = _flat_dy()
    dy.unmet = np.linspace(0.0, 47.0, 48)
    shortfall = np.zeros(48)
    shortfall[10] = 100.0
    assert compute_unmet(dy, shortfall) == pytest.approx(110.0)
    # with no shortfall, the worst unmet slot alone sets it
    assert compute_unmet(dy, np.zeros(48)) == 47.0



def test_check_balance_raises_on_corruption():
    dy = _flat_dy()
    dy.supply["coal_2019"] = dy.supply["coal_2019"] + 5.0
    with pytest.raises(DataIntegrityError):
        dy.check_balance()
    dy = _flat_dy()
    dy.supply["coal_2019"][3] = np.nan  # nan > tolerance is False
    with pytest.raises(DataIntegrityError):
        dy.check_balance()


def test_check_balance_keeps_1e_6_mw_at_ordinary_demand():
    # at 2e5 MW, 16 ulps of demand are 4.7e-10 MW: the absolute bound rules
    dy = _flat_dy(coal=2e5 - 20.0)
    dy.supply["coal_2019"] = dy.supply["coal_2019"] + 2e-6
    with pytest.raises(DataIntegrityError, match="exceeds 1.0e-06"):
        dy.check_balance()


def test_check_balance_allows_float_resolution_at_huge_demand():
    # at 3.2e10 MW one ulp of demand is 3.8e-6 MW, more than 1e-6 MW
    dy = _flat_dy(coal=3.2e10)
    dy.supply["coal_2019"] = np.nextafter(dy.supply["coal_2019"], np.inf)
    dy.check_balance()
    dy.supply["coal_2019"] = dy.supply["coal_2019"] + 1e-3
    with pytest.raises(DataIntegrityError, match="exceeds 6.1e-05"):
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


#: Cells whose text the block writer must leave to ``%``, or whose sign
#: it must get right: zeros, tiny and subnormal values, NaN and
#: infinities, and magnitudes at and past 1e9.
EDGE_VALUES = [0.0, -0.0, -1e-4, -4e-4, -5e-4, 5e-4, 2.0005, 5e-324, -5e-324, 2.5e-310,
               -2.5e-310, 1e-300, -1e-300, np.nan, np.inf, -np.inf, 999999999.9995,
               -999999999.9995, 999999999.999, 1e9, -1e9, 1.5e9, 123456789012.3456, -7e12]
LABELS = np.array(["", "re", "solar", "re+solar"])
ODD_LABELS = ["\u00e9t\u00e9", "a\x00b", "x" * 20, "a b"]


def _near_ties(rng, n):
    """Values at or one ulp either side of a ``%.3f`` rounding half."""
    ties = np.concatenate([rng.integers(-2 * 10**9, 2 * 10**9, n) / 2000,
                           (2 * rng.integers(-10**7, 10**7, n) + 1) / 16])
    return np.concatenate([ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf)])


def _sprinkle(rng, values, extra):
    where = rng.choice(values.shape[0], min(values.shape[0], len(extra)), replace=False)
    values[where] = rng.permutation(np.asarray(extra, dtype=values.dtype))[:where.size]
    return values


def _table_column(rng, fmt, n, specials):
    kind = rng.integers(4)
    if fmt == "%s":
        labels = rng.choice(LABELS, n)
        return _sprinkle(rng, labels.astype("U20"), ODD_LABELS) if kind == 0 else labels
    if fmt == "%d":
        if kind == 0:
            return np.arange(n)
        if kind == 1:
            return rng.integers(-10**12, 10**12, n, endpoint=True)
        values = np.trunc(rng.normal(0.0, 10.0 ** rng.uniform(0, 12), n))
        extra = [-0.0, 0.5, -2.5, 1e12, -1e12, 7.25]
        return _sprinkle(rng, values, extra + ([np.nan, np.inf] if kind == 3 else []))
    if kind == 0:
        return rng.integers(-10**6, 10**6, n)
    values = rng.normal(0.0, 10.0 ** rng.uniform(-4, 9), n)
    return _sprinkle(rng, values, [*EDGE_VALUES, *specials, *_near_ties(rng, 8)])


def _written(writer, path, *args):
    """The file's bytes, or the class of the error the writer raised."""
    try:
        writer(path, *args)
    except (ValueError, OverflowError) as err:  # %d of NaN or inf
        return type(err)
    return path.read_bytes()


class TestWriteTable:
    @settings(max_examples=25, deadline=None)
    @given(
        n_rows=st.sampled_from([0, 1, 2, 2047, 2048, 2049]),
        formats=st.lists(st.sampled_from(["%d", "%.3f", "%s"]), min_size=1, max_size=5),
        newline=st.sampled_from(["\n", "\r\n"]),
        seed=st.integers(0, 2**32 - 1),
        specials=st.lists(st.floats(), max_size=8),
    )
    def test_matches_the_row_writer(self, tmp_path_factory, n_rows, formats, newline,
                                    seed, specials):
        rng = np.random.default_rng(seed)
        columns = [_table_column(rng, f, n_rows, specials) for f in formats]
        header = [f"c{j}" for j in range(len(formats))]
        out = tmp_path_factory.mktemp("tables")
        got = _written(write_table, out / "block.csv", header, columns, formats, newline)
        want = _written(_oracles.reference_write_table, out / "rows.csv", header, columns,
                        formats, newline)
        assert got == want

    def test_ties_and_edges_in_one_block(self, tmp_path):
        # every near-tie and edge value in one 2,049-row table, so the
        # spliced rows sit among kernel rows and across a block edge
        rng = np.random.default_rng(11)
        values = np.resize(np.concatenate([EDGE_VALUES, _near_ties(rng, 300)]), 2049)
        labels = _sprinkle(rng, rng.choice(LABELS, 2049).astype("U20"), ODD_LABELS)
        columns = [np.arange(2049), values, rng.permutation(values), labels]
        args = (["slot", "a", "b", "source"], columns, ["%d", "%.3f", "%.3f", "%s"], "\r\n")
        write_table(tmp_path / "block.csv", *args)
        _oracles.reference_write_table(tmp_path / "rows.csv", *args)
        assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_huge_fixed_point_values_fall_back_without_a_warning(self, tmp_path):
        # 1e306 * 1e3 overflows while the %.3f cells are scaled; those
        # rows go through % and nothing is printed to stderr
        values = np.array([1e306, -1e306, 2.5])
        args = (["a", "b"], [values, values[::-1].copy()], ["%.3f", "%.3f"], "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_table(tmp_path / "block.csv", *args)
        _oracles.reference_write_table(tmp_path / "rows.csv", *args)
        assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    @pytest.mark.parametrize("columns, formats, newline", [
        ([np.zeros(5), np.zeros(3)], ["%.3f", "%.3f"], "\n"),
        ([np.zeros(5)], ["%.2f"], "\n"),
        ([np.zeros(5)], ["%5d"], "\n"),
        ([np.zeros(5)], ["%r"], "\n"),
        ([np.zeros(5), np.zeros(5)], ["%.3f"], "\n"),
        ([np.zeros(5)], ["%s"], "\n"),
        ([np.zeros(5)], ["%.3f"], "\t"),
    ], ids=["unequal-lengths", "two-decimals", "width", "repr", "fewer-formats",
            "s-of-floats", "tab-line-ending"])
    def test_rejected_before_the_file_is_opened(self, tmp_path, columns, formats, newline):
        # unequal columns would otherwise be cut to the shortest by zip
        path = tmp_path / "table.csv"
        with pytest.raises(InvariantError):
            write_table(path, ["x"] * len(formats), columns, formats, newline)
        assert not path.exists()


def test_duration_curve_is_sorted():
    values = np.array([3.0, 9.0, 1.0, 9.5, 0.0])
    curve = load_duration_curve(values)
    assert list(curve) == [9.5, 9.0, 3.0, 1.0, 0.0]
