"""Exception types shared across the package."""


class GridlabError(Exception):
    """Refused input (exit 2) or a scenario the model cannot solve (a
    ``failures.csv`` row); never a bug."""


class InvariantError(Exception):
    """A broken internal invariant: a gridlab bug, never an unsolvable
    scenario.  It is not a ``GridlabError``, so the run ends with exit 3."""


class TimeseriesParseError(GridlabError):
    """A timeseries CSV row could not be parsed (bad value, bad timestamp)."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CadenceError(GridlabError):
    """Timestamps are not on a strict 30-minute grid."""


class DataIntegrityError(GridlabError):
    """Input data too broken to use (e.g. more than 5% of rows missing),
    or a despatch year that does not balance (``check_balance``)."""


class ParameterError(GridlabError, ValueError):
    """A config value, input option or loaded series is out of its allowed range."""


class InfeasibleError(GridlabError):
    """A sizing problem has no solution within physical bounds."""


class DegenerateShapeError(GridlabError):
    """A per-MW shape collapsed to all zeros and cannot be normalised."""


class UndefinedCostError(GridlabError):
    """A levelized cost was requested over a zero-energy denominator."""
