"""Scenario parameters, parametric grid expansion, and capacity paths.

A scenario is one fully resolved parameter point.  Defaults correspond
to the model's base case; every field can be overridden from a JSON
config, and list-valued entries in a grid file expand to the cartesian
product of all axes.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Mapping

import numpy as np

from gridlab.errors import ParameterError
from gridlab.shapes import BaseYearData, map_values_to_year

BASE_YEAR = 2021
FINAL_YEAR = 2030
YEARS = tuple(range(BASE_YEAR, FINAL_YEAR + 1))
N_YEARS = len(YEARS)

#: NEW supply options.  "battery_re" is storage charged from curtailed RE
#: plus dedicated solar; the rest are thermal.
NEW_OPTIONS = ("battery_re", "coal", "ocgt", "ccgt", "gas_ic", "diesel_gen")

EFF_SPLITS = ("symmetric", "charge_only")


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

    life_years: int
    capex_2021: float  # Rs/MW
    capex_escalation: float  # fraction/yr
    aux: float  # in-plant consumption fraction
    fuel_2021: float  # Rs/kWh
    fuel_escalation: float  # fraction/yr
    om_fraction: float = 0.015  # annual O&M as a fraction of capex


def default_tech_costs() -> dict[str, TechCost]:
    return {
        "coal": TechCost(25, 85_000_000.0, 0.06, 0.080, 2.4, 0.05),
        "ocgt": TechCost(25, 50_000_000.0, 0.04, 0.025, 6.8, 0.03),
        "ccgt": TechCost(25, 60_000_000.0, 0.05, 0.050, 5.0, 0.03),
        "gas_ic": TechCost(18, 55_000_000.0, 0.04, 0.005, 5.8, 0.03),
        "diesel_gen": TechCost(15, 20_000_000.0, 0.04, 0.005, 20.0, 0.03),
    }


@dataclass(frozen=True)
class ScenarioParams:
    """One resolved point in the parametric space.

    Defaults are the base case: 5.25% demand growth, 60% coal flex,
    450 GW RE in 2030 at a 2:1 solar:wind split, battery NEW supply.
    """

    # headline parametric axes
    demand_growth: float = 0.0525
    flex_limit: float = 0.60
    re_2030: float = 450.0  # GW
    solar_share: float = 8 / 12  # solar fraction of solar+wind growth
    new_option: str = "battery_re"
    battery_size_fraction: float = 1.0
    new_coal_size_fraction: float = 1.0
    dedicated_solar_extra: float = 0.0  # 0 = minimum sizing, 1 = full daily recharge

    # base-year system (net busbar GW)
    re_2021: float = 98.0
    hydro_2021: float = 35.5
    gas_2021: float = 21.3
    nuclear_2021: float = 5.4
    coal_2021: float = 162.6

    # capacity trajectories
    hydro_growth: float = 0.03
    nuclear_growth: float = 0.039
    coal_retirement_2030: float = 20.0  # GW, linear by 2030
    fgd_penalty: float = 0.025  # relative output penalty once FGD is fitted
    fgd_start: int = 2023
    fgd_end: int = 2027

    # prospective RE characteristics
    solar_cuf: float = 0.27
    wind_cuf: float = 0.35

    # despatch constraints
    ists_loss: float = 0.0339  # busbar uplift over periphery demand
    grid_buffer: float = 0.05  # despatchable headroom over demand
    coal_peak_derate: float = 0.10  # coal capacity out for maintenance

    # auxiliary consumption by fuel (net-to-gross conversion)
    aux_coal: float = 0.08
    aux_gas: float = 0.05

    # existing-fleet fuel prices, Rs/kWh in 2021
    coal_2019_price: float = 2.6
    coal_slack_price: float = 3.0
    gas_2019_price: float = 3.5
    gas_nonapm_price: float = 5.0
    coal_escalation: float = 0.05
    gas_escalation: float = 0.03

    # battery and inverter
    battery_price_2021_usd: float = 175.0  # $/kWh of cells
    battery_learning_rate: float = 0.07
    inr_per_usd_2021: float = 73.65
    forex_escalation: float = 0.03
    battery_life_years: int = 15
    inverter_life_years: int = 13
    inverter_capex_rs_per_kw: float = 7500.0
    battery_dod_buffer: float = 0.05
    battery_roundtrip_eff: float = 0.90
    battery_eff_split: str = "symmetric"
    battery_cycle_boundary_hour: int = 17
    battery_om_fraction: float = 0.015

    # RE build costs
    solar_capex_2021: float = 43_000_000.0  # Rs/MW
    solar_capex_change: float = -0.02
    wind_capex_2021: float = 75_000_000.0
    wind_capex_2030: float = 70_500_000.0
    solar_om_rs_per_mw: float = 600_000.0
    wind_om_rs_per_mw: float = 500_000.0
    om_inflation: float = 0.04
    solar_life_years: int = 25
    wind_life_years: int = 25

    # finance
    wacc: float = 0.085
    discount_rate: float = 0.06
    count_full_life_annuities: bool = False

    # new-capacity cost table
    tech_costs: Mapping[str, TechCost] = field(default_factory=default_tech_costs)

    def __post_init__(self):
        if not 0.5 <= self.flex_limit <= 0.8:
            raise ParameterError(f"flex_limit {self.flex_limit} outside [0.5, 0.8]")
        if self.re_2030 < self.re_2021:
            raise ParameterError(
                f"re_2030 ({self.re_2030} GW) below the {self.re_2021} GW base"
            )
        if not 0.0 < self.solar_share <= 1.0:
            raise ParameterError(f"solar_share {self.solar_share} outside (0, 1]")
        if self.new_option not in NEW_OPTIONS:
            raise ParameterError(
                f"new_option {self.new_option!r} not one of {NEW_OPTIONS}"
            )
        if not 0.0 < self.battery_size_fraction <= 1.0:
            raise ParameterError("battery_size_fraction must lie in (0, 1]")
        if not 0.0 < self.new_coal_size_fraction <= 1.0:
            raise ParameterError("new_coal_size_fraction must lie in (0, 1]")
        if not 0.0 <= self.dedicated_solar_extra <= 1.0:
            raise ParameterError("dedicated_solar_extra must lie in [0, 1]")
        if not 0.0 < self.battery_dod_buffer < 1.0:
            raise ParameterError("battery_dod_buffer must lie in (0, 1)")
        if not 0.0 < self.battery_roundtrip_eff <= 1.0:
            raise ParameterError("battery_roundtrip_eff must lie in (0, 1]")
        if self.battery_eff_split not in EFF_SPLITS:
            raise ParameterError(
                f"battery_eff_split {self.battery_eff_split!r} not one of {EFF_SPLITS}"
            )
        if not 0 <= self.battery_cycle_boundary_hour <= 23:
            raise ParameterError("battery_cycle_boundary_hour must lie in 0..23")
        if self.demand_growth < 0:
            raise ParameterError("demand_growth must be >= 0")
        if self.fgd_start > self.fgd_end:
            raise ParameterError("fgd_start must not exceed fgd_end")
        for name in ("solar_cuf", "wind_cuf"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ParameterError(f"{name} {value} outside (0, 1)")
        for name in (
            "aux_coal", "aux_gas", "ists_loss", "grid_buffer", "coal_peak_derate",
            "fgd_penalty",
        ):
            value = getattr(self, name)
            if not 0.0 <= value < 0.5:
                raise ParameterError(f"{name} {value} outside [0, 0.5)")
        for name in (
            "coal_2019_price", "coal_slack_price", "gas_2019_price",
            "gas_nonapm_price", "battery_price_2021_usd", "inr_per_usd_2021",
        ):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive")
        missing = [t for t in NEW_OPTIONS if t != "battery_re" and t not in self.tech_costs]
        if missing:
            raise ParameterError(f"tech_costs missing rows for {missing}")

    @property
    def cycle_boundary_slot(self) -> int:
        return self.battery_cycle_boundary_hour * 2


_FIELD_NAMES = {f.name for f in fields(ScenarioParams)}

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
    overrides, merged over the defaults.
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
        for name, row in raw.items():
            if not isinstance(row, Mapping):
                raise ParameterError(f"tech_costs[{name!r}] must be a mapping")
            check_field_types(TechCost, row, f"tech_costs[{name!r}].")
            base = table.get(name)
            try:
                if base is None:
                    table[name] = TechCost(**row)
                else:
                    table[name] = replace(base, **row)
            except TypeError as exc:
                raise ParameterError(f"tech_costs[{name!r}]: {exc}") from None
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

    @property
    def size(self) -> int:
        n = 1
        for values in self.axes.values():
            n *= len(values)
        return n

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
    re_total: np.ndarray
    solar_new: np.ndarray  # dedicated growth beyond the base-year RE blend
    wind_new: np.ndarray
    hydro: np.ndarray
    nuclear: np.ndarray
    coal_total: np.ndarray
    gas_total: np.ndarray
    coal_2019_tranche: np.ndarray
    coal_slack_tranche: np.ndarray
    gas_2019_tranche: np.ndarray
    gas_slack_tranche: np.ndarray

    def index(self, year: int) -> int:
        if year not in self.years:
            raise ParameterError(f"year {year} outside path horizon {self.years[0]}..{self.years[-1]}")
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
        coal_2019_peak = float(np.nanmax(base.supply_by_fuel["coal"].values)) / 1e3
        gas_2019_peak = float(np.nanmax(base.supply_by_fuel["gas"].values)) / 1e3
    else:
        coal_2019_peak = p.coal_2021
        gas_2019_peak = p.gas_2021
    coal_2019 = np.minimum(coal, coal_2019_peak)
    gas_2019 = np.minimum(gas, gas_2019_peak)

    return CapacityPath(
        years=YEARS,
        re_total=re_total,
        solar_new=solar_new,
        wind_new=wind_new,
        hydro=hydro,
        nuclear=nuclear,
        coal_total=coal,
        gas_total=gas,
        coal_2019_tranche=coal_2019,
        coal_slack_tranche=coal - coal_2019,
        gas_2019_tranche=gas_2019,
        gas_slack_tranche=gas - gas_2019,
    )


def project_demand(p: ScenarioParams, base: BaseYearData, year: int) -> np.ndarray:
    """Scale the base-year demand shape to a target year, pro rata."""
    if not BASE_YEAR <= year <= FINAL_YEAR:
        raise ParameterError(f"year {year} outside horizon {BASE_YEAR}..{FINAL_YEAR}")
    factor = (1.0 + p.demand_growth) ** (year - BASE_YEAR)
    return map_values_to_year(base.demand.values, base.year, year) * factor
