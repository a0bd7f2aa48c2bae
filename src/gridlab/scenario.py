"""Scenario parameters, parametric grid expansion, and capacity paths.

A scenario is one fully resolved parameter point.  Defaults correspond
to the model's base case; every field can be overridden from a JSON
config, and list-valued entries in a grid file expand to the cartesian
product of all axes.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Mapping

import numpy as np

from gridlab.errors import InvariantError, ParameterError
from gridlab.shapes import BaseYearData

BASE_YEAR = 2021
FINAL_YEAR = 2030
YEARS = tuple(range(BASE_YEAR, FINAL_YEAR + 1))
N_YEARS = len(YEARS)

#: NEW supply options.  "battery_re" is storage charged from curtailed RE
#: plus dedicated solar; the rest are thermal.
NEW_OPTIONS = ("battery_re", "coal", "ocgt", "ccgt", "gas_ic", "diesel_gen")


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


#: Field annotation -> what a value must be, and its test.  An integer
#: is a valid float; a bool is never a number.
_FIELD_TYPES = {
    "float": ("a number", _is_number),
    "int": ("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "float | None": ("a number or null", lambda v: v is None or _is_number(v)),
    "Mapping[str, TechCost]": (
        "a mapping of cost rows",
        lambda v: isinstance(v, Mapping) and all(isinstance(r, TechCost) for r in v.values()),
    ),
}


def bound(default, rule):
    """A dataclass field that admits only ``rule``: an interval written
    like ``"(0, 1]"``, with ``inf`` for an open-ended side, or a tuple of
    choices.  ``bounds_of`` reads it back and ``check_bounds`` applies it."""
    return field(default=default, metadata={"bound": rule})


def _admitted(rule) -> tuple:
    """``(lowest, highest, choices, shown)`` for one ``bound`` rule.  An
    interval becomes the closed float range it admits, so NaN and the
    infinities fall outside every interval."""
    if isinstance(rule, tuple):
        return None, None, rule, "{" + ", ".join(rule) + "}"
    low, high = (float(end) for end in rule[1:-1].split(","))
    if rule[0] == "(":
        low = math.nextafter(low, math.inf)
    if rule[-1] == ")":
        high = math.nextafter(high, -math.inf)
    return low, high, (), rule


def bounds_of(cls) -> dict[str, tuple]:
    """Field name -> ``_admitted`` rule, for every bounded field of ``cls``."""
    return {f.name: _admitted(f.metadata["bound"]) for f in fields(cls) if "bound" in f.metadata}


def check_bounds(obj, bounds: Mapping[str, tuple], prefix: str = "") -> None:
    """Reject the first field of ``obj`` outside its rule in ``bounds``,
    naming ``prefix`` + key, the value and the rule."""
    values = obj.__dict__
    for name, (low, high, choices, shown) in bounds.items():
        value = values[name]
        if not (value in choices if choices else low <= value <= high):
            raise ParameterError(f"{prefix}{name} {value!r} outside {shown}")


def check_field_types(cls, values: Mapping[str, object], prefix: str = "") -> None:
    """Reject a value whose type does not match its ``cls`` field's
    annotation, naming ``prefix`` + key; names that are not fields pass."""
    annotations = {f.name: f.type for f in fields(cls)}
    for name, value in values.items():
        if name in annotations:
            expected, test = _FIELD_TYPES[annotations[name]]
            if not test(value):
                raise ParameterError(f"{prefix}{name} must be {expected}, got {value!r}")


@dataclass(frozen=True)
class TechCost:
    """One row of the new-capacity cost table."""

    life_years: int = bound(MISSING, "[1, 100]")
    capex_2021: float = bound(MISSING, "[0, inf)")  # Rs/MW
    capex_escalation: float = bound(MISSING, "(-1, inf)")  # fraction/yr
    aux: float = bound(MISSING, "[0, 1)")  # in-plant consumption fraction
    fuel_2021: float = bound(MISSING, "[0, inf)")  # Rs/kWh
    fuel_escalation: float = bound(MISSING, "(-1, inf)")  # fraction/yr
    om_fraction: float = bound(0.015, "[0, inf)")  # annual O&M as a fraction of capex

    def __post_init__(self):
        check_bounds(self, TECH_BOUNDS)


TECH_BOUNDS = bounds_of(TechCost)

#: The default rows.  A row is frozen, so every table can share them.
_DEFAULT_TECH_COSTS = {
    "coal": TechCost(25, 85_000_000.0, 0.06, 0.080, 2.4, 0.05),
    "ocgt": TechCost(25, 50_000_000.0, 0.04, 0.025, 6.8, 0.03),
    "ccgt": TechCost(25, 60_000_000.0, 0.05, 0.050, 5.0, 0.03),
    "gas_ic": TechCost(18, 55_000_000.0, 0.04, 0.005, 5.8, 0.03),
    "diesel_gen": TechCost(15, 20_000_000.0, 0.04, 0.005, 20.0, 0.03),
}


def default_tech_costs() -> dict[str, TechCost]:
    return dict(_DEFAULT_TECH_COSTS)


@dataclass(frozen=True)
class ScenarioParams:
    """One resolved point in the parametric space.

    Defaults are the base case: 5.25% demand growth, 60% coal flex,
    450 GW RE in 2030 at a 2:1 solar:wind split, battery NEW supply.
    Each field's admitted values are declared beside it with ``bound``;
    ``__post_init__`` checks them, then the rules that relate two fields.
    """

    # headline parametric axes
    demand_growth: float = bound(0.0525, "[0, 10]")
    flex_limit: float = bound(0.60, "[0.5, 0.8]")
    re_2030: float = bound(450.0, "(-inf, 10000]")  # GW
    solar_share: float = bound(8 / 12, "(0, 1]")  # solar fraction of solar+wind growth
    new_option: str = bound("battery_re", NEW_OPTIONS)
    battery_size_fraction: float = bound(1.0, "(0, 1]")
    new_coal_size_fraction: float = bound(1.0, "(0, 1]")
    # 0 = minimum sizing, 1 = full daily recharge
    dedicated_solar_extra: float = bound(0.0, "[0, 1]")

    # base-year system (net busbar GW)
    re_2021: float = bound(98.0, "(0, inf)")
    hydro_2021: float = bound(35.5, "(0, inf)")
    gas_2021: float = bound(21.3, "[0, inf)")
    nuclear_2021: float = bound(5.4, "(0, inf)")
    coal_2021: float = bound(162.6, "[0, inf)")

    # capacity trajectories
    hydro_growth: float = bound(0.03, "(-1, inf)")
    nuclear_growth: float = bound(0.039, "(-1, inf)")
    coal_retirement_2030: float = bound(20.0, "[0, inf)")  # GW, linear by 2030
    fgd_penalty: float = bound(0.025, "[0, 0.5)")  # relative output penalty once FGD is fitted
    fgd_start: int = bound(2023, "(-inf, inf)")
    fgd_end: int = bound(2027, "(-inf, inf)")

    # prospective RE characteristics
    solar_cuf: float = bound(0.27, "(0, 1)")
    wind_cuf: float = bound(0.35, "(0, 1)")

    # despatch constraints
    ists_loss: float = bound(0.0339, "[0, 0.5)")  # busbar uplift over periphery demand
    grid_buffer: float = bound(0.05, "[0, 0.5)")  # despatchable headroom over demand
    coal_peak_derate: float = bound(0.10, "[0, 0.5)")  # coal capacity out for maintenance

    # auxiliary consumption by fuel (net-to-gross conversion)
    aux_coal: float = bound(0.08, "[0, 0.5)")
    aux_gas: float = bound(0.05, "[0, 0.5)")

    # existing-fleet fuel prices, Rs/kWh in 2021
    coal_2019_price: float = bound(2.6, "(0, inf)")
    coal_slack_price: float = bound(3.0, "(0, inf)")
    gas_2019_price: float = bound(3.5, "(0, inf)")
    gas_nonapm_price: float = bound(5.0, "(0, inf)")
    coal_escalation: float = bound(0.05, "(-1, inf)")
    gas_escalation: float = bound(0.03, "(-1, inf)")

    # battery and inverter
    battery_price_2021_usd: float = bound(175.0, "(0, inf)")  # $/kWh of cells
    battery_learning_rate: float = bound(0.07, "(-inf, 1)")
    inr_per_usd_2021: float = bound(73.65, "(0, inf)")
    forex_escalation: float = bound(0.03, "(-1, inf)")
    battery_life_years: int = bound(15, "[1, 100]")
    inverter_life_years: int = bound(13, "[1, 100]")
    inverter_capex_rs_per_kw: float = bound(7500.0, "[0, inf)")
    battery_dod_buffer: float = bound(0.05, "(0, 1)")
    battery_roundtrip_eff: float = bound(0.90, "(0, 1]")
    battery_eff_split: str = bound("symmetric", ("symmetric", "charge_only"))
    battery_cycle_boundary_hour: int = bound(17, "[0, 23]")
    battery_om_fraction: float = bound(0.015, "[0, inf)")

    # RE build costs
    solar_capex_2021: float = bound(43_000_000.0, "(0, inf)")  # Rs/MW
    solar_capex_change: float = bound(-0.02, "(-1, inf)")
    wind_capex_2021: float = bound(75_000_000.0, "(0, inf)")
    wind_capex_2030: float = bound(70_500_000.0, "(0, inf)")
    solar_om_rs_per_mw: float = bound(600_000.0, "[0, inf)")
    wind_om_rs_per_mw: float = bound(500_000.0, "[0, inf)")
    om_inflation: float = bound(0.04, "(-1, inf)")
    solar_life_years: int = bound(25, "[1, 100]")
    wind_life_years: int = bound(25, "[1, 100]")

    # finance
    wacc: float = bound(0.085, "(-1, 1]")
    discount_rate: float = bound(0.06, "(-0.5, inf)")
    count_full_life_annuities: bool = False

    # new-capacity cost table
    tech_costs: Mapping[str, TechCost] = field(default_factory=default_tech_costs)

    def __post_init__(self):
        check_bounds(self, PARAM_BOUNDS)
        if self.re_2030 < self.re_2021:
            raise ParameterError(
                f"re_2030 {self.re_2030!r} outside [re_2021 = {self.re_2021!r}, inf)")
        if self.fgd_start > self.fgd_end:
            raise ParameterError(
                f"fgd_start {self.fgd_start!r} outside (-inf, fgd_end = {self.fgd_end!r}]")
        if self.coal_retirement_2030 > self.coal_2021:
            raise ParameterError(f"coal_retirement_2030 {self.coal_retirement_2030!r} "
                                 f"outside [0, coal_2021 = {self.coal_2021!r}]")
        missing = [t for t in NEW_OPTIONS if t != "battery_re" and t not in self.tech_costs]
        if missing:
            raise ParameterError(f"tech_costs missing rows for {missing}")

    @property
    def cycle_boundary_slot(self) -> int:
        return self.battery_cycle_boundary_hour * 2


_FIELD_NAMES = {f.name for f in fields(ScenarioParams)}
PARAM_BOUNDS = bounds_of(ScenarioParams)

#: Every field the despatch stage reads: scenarios equal on all of them
#: share one despatched decade.
DESPATCH_FIELDS = (
    "demand_growth", "flex_limit", "re_2030", "solar_share",
    "re_2021", "hydro_2021", "gas_2021", "nuclear_2021", "coal_2021",
    "hydro_growth", "nuclear_growth", "coal_retirement_2030",
    "fgd_penalty", "fgd_start", "fgd_end",
    "ists_loss", "grid_buffer", "coal_peak_derate",
)


def params_from_config(config: Mapping[str, object]) -> ScenarioParams:
    """Build ScenarioParams from a flat JSON-style mapping.

    Unknown keys and values of the wrong type are rejected.
    ``tech_costs`` may be given as a nested mapping of row name to field
    overrides, merged over the default rows; a row name that is not one
    of them is rejected.
    """
    unknown = set(config) - _FIELD_NAMES
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(config)
    if "tech_costs" in kwargs:
        raw = kwargs["tech_costs"]
        if not isinstance(raw, Mapping):
            raise ParameterError("tech_costs must be a mapping of technology rows")
        table = default_tech_costs()
        unknown = set(raw) - set(table)
        if unknown:
            raise ParameterError(f"unknown tech_costs rows: {sorted(unknown)}")
        for name, row in raw.items():
            if not isinstance(row, Mapping):
                raise ParameterError(f"tech_costs[{name!r}] must be a mapping")
            check_field_types(TechCost, row, f"tech_costs[{name!r}].")
            try:
                table[name] = replace(table[name], **row)
            except TypeError as exc:
                raise ParameterError(f"tech_costs[{name!r}]: {exc}") from None
            except ParameterError as exc:  # a bound, which names the field first
                raise ParameterError(f"tech_costs[{name!r}].{exc}") from None
        kwargs["tech_costs"] = table
    check_field_types(ScenarioParams, kwargs)
    return ScenarioParams(**kwargs)


@dataclass(frozen=True)
class ParamGrid:
    """Lists of values per parameter name; expansion is their product.

    Every value is type-checked against its parameter's field.
    """

    axes: Mapping[str, tuple]

    def __post_init__(self):
        unknown = set(self.axes) - _FIELD_NAMES
        if unknown:
            raise ParameterError(f"unknown grid keys: {sorted(unknown)}")
        normalized = {}
        for name, values in self.axes.items():
            values = tuple(values)
            if not values:
                raise ParameterError(f"grid axis {name!r} is empty")
            for value in values:
                check_field_types(ScenarioParams, {name: value})
            normalized[name] = values
        object.__setattr__(self, "axes", normalized)

    @classmethod
    def paper_grid(cls) -> "ParamGrid":
        """The full 189-point base grid: growth x flex x RE x solar share."""
        return cls(
            axes={
                "demand_growth": (0.05, 0.0525, 0.055),
                "flex_limit": (0.55, 0.60, 0.70),
                "re_2030": (250.0, 300.0, 350.0, 400.0, 450.0, 500.0, 550.0),
                "solar_share": (6 / 12, 7 / 12, 8 / 12),
            }
        )


def expand_param_grid(
    grid: ParamGrid, base: ScenarioParams | None = None
) -> list[ScenarioParams]:
    """Cartesian product of all grid axes over a base parameter point.

    Axes iterate in declaration order with the last axis fastest, so the
    expansion order is deterministic and reproducible.
    """
    base = base or ScenarioParams()
    names = list(grid.axes)
    out = []
    for combo in itertools.product(*grid.axes.values()):
        out.append(replace(base, **dict(zip(names, combo))))
    if not out:
        raise ParameterError("grid expanded to zero scenarios")
    return out


@dataclass(frozen=True)
class CapacityPath:
    """Net busbar GW per year for every tranche, 2021 through 2030."""

    years: tuple[int, ...]
    solar_new: np.ndarray  # dedicated growth beyond the base-year RE blend
    wind_new: np.ndarray
    hydro: np.ndarray
    nuclear: np.ndarray
    coal_total: np.ndarray
    gas_total: np.ndarray
    coal_2019_tranche: np.ndarray
    gas_2019_tranche: np.ndarray

    def index(self, year: int) -> int:
        if year not in self.years:
            raise InvariantError(f"year {year} outside path horizon {self.years[0]}..{self.years[-1]}")
        return year - self.years[0]


def build_capacity_path(
    p: ScenarioParams, base: BaseYearData | None = None
) -> CapacityPath:
    """Per-year capacity trajectories for every fuel tranche.

    RE follows a compound path hitting ``re_2030`` exactly; hydro and
    nuclear compound at their growth rates; coal declines linearly by
    the retirement total and additionally loses the FGD penalty as the
    retrofit programme ramps; gas holds constant.  When base-year data
    is given, the 2019-utilised tranche of coal and gas is capped at
    the observed base-year peak output, with retirement eating into the
    slack tranche first.
    """
    years = np.array(YEARS, dtype=float)
    t = years - BASE_YEAR

    re_total = p.re_2021 * (p.re_2030 / p.re_2021) ** (t / (FINAL_YEAR - BASE_YEAR))
    growth = np.maximum(re_total - p.re_2021, 0.0)
    solar_new = p.solar_share * growth
    wind_new = growth - solar_new

    hydro = p.hydro_2021 * (1.0 + p.hydro_growth) ** t
    nuclear = p.nuclear_2021 * (1.0 + p.nuclear_growth) ** t

    coal = p.coal_2021 - p.coal_retirement_2030 * t / (FINAL_YEAR - BASE_YEAR)
    fgd_ramp = np.clip((years - p.fgd_start) / max(p.fgd_end - p.fgd_start, 1), 0.0, 1.0)
    coal = coal * (1.0 - p.fgd_penalty * fgd_ramp)
    gas = np.full_like(coal, p.gas_2021)

    if base is not None:
        coal_2019_peak = float(np.nanmax(base.supply_by_fuel["coal"])) / 1e3
        gas_2019_peak = float(np.nanmax(base.supply_by_fuel["gas"])) / 1e3
    else:
        coal_2019_peak = p.coal_2021
        gas_2019_peak = p.gas_2021
    coal_2019 = np.minimum(coal, coal_2019_peak)
    gas_2019 = np.minimum(gas, gas_2019_peak)

    return CapacityPath(
        years=YEARS,
        solar_new=solar_new,
        wind_new=wind_new,
        hydro=hydro,
        nuclear=nuclear,
        coal_total=coal,
        gas_total=gas,
        coal_2019_tranche=coal_2019,
        gas_2019_tranche=gas_2019,
    )


def project_demand(p: ScenarioParams, demand: np.ndarray, year: int) -> np.ndarray:
    """Scale base-year ``demand``, already on ``year``'s slot grid, to
    ``year``, pro rata."""
    if not BASE_YEAR <= year <= FINAL_YEAR:
        raise InvariantError(f"year {year} outside horizon {BASE_YEAR}..{FINAL_YEAR}")
    factor = (1.0 + p.demand_growth) ** (year - BASE_YEAR)
    return demand * factor
