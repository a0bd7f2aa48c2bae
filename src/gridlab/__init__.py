"""Half-hourly grid balancing model for the Indian power system, 2021-2030.

The package walks a parametric scenario through six stages: load or
synthesise half-hourly base-year shapes, project demand and capacity
paths, despatch the existing fleet in tranche merit order with coal
part-load floors, size NEW supply (storage or thermal) against the
unmet remainder, price everything as an NPV, and rank scenarios on a
cost frontier.
"""

__version__ = "0.1.0"

from gridlab.errors import (
    CadenceError,
    DataIntegrityError,
    DegenerateShapeError,
    GridlabError,
    InfeasibleError,
    InvariantError,
    ParameterError,
    TimeseriesParseError,
    UndefinedCostError,
)

__all__ = [
    "__version__",
    "GridlabError",
    "TimeseriesParseError",
    "CadenceError",
    "DataIntegrityError",
    "ParameterError",
    "InfeasibleError",
    "InvariantError",
    "DegenerateShapeError",
    "UndefinedCostError",
]
