"""Output checks for one CLI run.

Every timed run is checked.  A check returns the scenario indices it
finds wrong; a run that exits abnormally, or lacks a table or a sane
manifest, counts all of its scenarios as wrong.

* Reference: for seeds with a shipped reference (``ref/<workload>.json.gz``),
  ``frontier.csv`` and ``results_by_year.csv`` match it cell by cell to
  1e-9 relative.
* Repeat: every run of an invocation writes the same two tables,
  byte for byte, as its first run.
* Invariants, for any seed: no NaN or infinity; ten year rows per
  successful scenario; manifest counts that agree with the tables;
  ``chronological_mix_2030.csv`` rows summing to demand within print
  rounding; one row per slot in each ``dispatch_<year>.csv``.
"""

from __future__ import annotations

import calendar
import csv
import gzip
import io
import json
import math
from pathlib import Path

YEARS = tuple(range(2021, 2031))
#: the output gate: tables match the reference to this relative error
REL_TOL = 1e-9
TABLES = ("frontier.csv", "results_by_year.csv")
#: figure and despatch tables every run with a success writes
FIGURES = (
    "generation_mix.csv",
    "ldc_unmet_2030.csv",
    "chronological_mix_2030.csv",
    "coal_output_2030.csv",
    "coal_plf.csv",
    "dispatch_2030.csv",
)
#: the mix columns are printed to 0.001 MW: 8 roundings of 0.0005 each
MIX_TOL_MW = 8 * 0.0005 + 1e-6


class RunBroken(Exception):
    """The run as a whole cannot be trusted."""


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _scenario_column(table: str) -> int:
    return 1 if table == "frontier.csv" else 0


def _slots_in_year(year: int) -> int:
    return 48 * (366 if calendar.isleap(year) else 365)


def compare_tables(table: str, got: str, want: str, rel_tol: float) -> set[int]:
    """Scenario indices whose rows differ beyond ``rel_tol``."""
    got_rows, want_rows = _rows(got), _rows(want)
    if not got_rows or got_rows[0] != want_rows[0]:
        raise RunBroken(f"{table}: header differs from the reference")
    col = _scenario_column(table)
    bad: set[int] = set()
    for g, w in zip(got_rows[1:], want_rows[1:]):
        if g == w:
            continue
        same = len(g) == len(w) and all(_close(a, b, rel_tol) for a, b in zip(g, w))
        if not same:
            bad.update(int(r[col]) for r in (g, w) if r[col].isdigit())
    if len(got_rows) != len(want_rows):
        extra = got_rows[len(want_rows):] + want_rows[len(got_rows):]
        bad.update(int(r[col]) for r in extra if r[col].isdigit())
    return bad


def _close(a: str, b: str, rel_tol: float) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return abs(x - y) <= rel_tol * max(abs(x), abs(y))


def _load_references(path: Path) -> dict[str, dict[str, str]]:
    """A workload's reference file: seed -> table name -> table text."""
    return json.loads(gzip.decompress(path.read_bytes())) if path.is_file() else {}


def load_reference(path: Path, seed: int) -> dict[str, str] | None:
    return _load_references(path).get(str(seed))


def write_reference(path: Path, seed: int, out_dir: Path) -> None:
    references = _load_references(path)
    references[str(seed)] = {t: (out_dir / t).read_text() for t in TABLES}
    data = json.dumps(references, sort_keys=True).encode()
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(gzip.compress(data, mtime=0))


def _numbers_finite(table: str, rows: list[list[str]]) -> None:
    for row in rows[1:]:
        for cell in row:
            if cell.lower() in ("nan", "inf", "-inf"):
                raise RunBroken(f"{table}: non-finite value {cell!r}")


def check_run(
    out_dir: Path,
    exit_code: int,
    scenario_count: int,
    year_detail: int | None,
) -> tuple[set[int], dict[str, str]]:
    """Scenarios a run got wrong by the invariants, and its two tables.

    Raises RunBroken when the run as a whole is wrong; a missing or
    malformed file raises OSError, ValueError, IndexError or KeyError.
    """
    if exit_code not in (0, 1):
        raise RunBroken(f"exit code {exit_code}")
    tables = {t: (out_dir / t).read_text() for t in TABLES}
    manifest = json.loads((out_dir / "manifest.json").read_text())
    failures = _rows((out_dir / "failures.csv").read_text())[1:]

    frontier = _rows(tables["frontier.csv"])
    years = _rows(tables["results_by_year.csv"])
    failed = {int(r[0]) for r in failures}
    succeeded = {int(r[1]) for r in frontier[1:]}
    if manifest.get("scenario_count") != scenario_count:
        raise RunBroken(f"manifest scenario_count {manifest.get('scenario_count')} != {scenario_count}")
    if manifest.get("failed") != len(failures) or (exit_code == 1) != bool(failures):
        raise RunBroken("manifest failure count disagrees with failures.csv or the exit code")
    if failed | succeeded != set(range(scenario_count)) or failed & succeeded:
        raise RunBroken("frontier.csv and failures.csv do not partition the scenarios")
    if len(frontier) - 1 != len(succeeded):
        raise RunBroken("frontier.csv repeats a scenario")
    for table, rows in (("frontier.csv", frontier), ("results_by_year.csv", years)):
        _numbers_finite(table, rows)

    wrong = set(failed)
    year_col = years[0].index("year")
    seen: dict[int, list[int]] = {}
    for row in years[1:]:
        seen.setdefault(int(row[0]), []).append(int(row[year_col]))
    for index in succeeded:
        if tuple(seen.get(index, ())) != YEARS:
            wrong.add(index)
    if set(seen) - succeeded:
        raise RunBroken("results_by_year.csv has rows for a failed scenario")

    if succeeded:
        names = set(manifest.get("files", ()))
        written = (*FIGURES, f"dispatch_{year_detail}.csv") if year_detail else FIGURES
        for name in written:
            if name not in names or not (out_dir / name).is_file():
                raise RunBroken(f"{name} missing")
        detail = manifest.get("detail_scenario")
        if not _mix_balances(out_dir / "chronological_mix_2030.csv"):
            wrong.add(detail)
        for name in (n for n in written if n.startswith("dispatch_")):
            year = int(name.removeprefix("dispatch_").removesuffix(".csv"))
            with (out_dir / name).open() as fh:
                if sum(1 for _ in fh) - 1 != _slots_in_year(year):
                    wrong.add(detail)
    return wrong, tables


def _mix_balances(path: Path) -> bool:
    rows = _rows(path.read_text())
    if len(rows) - 1 != _slots_in_year(2030):
        return False
    for row in rows[1:]:
        values = [float(v) for v in row[1:]]
        if not all(math.isfinite(v) for v in values):
            return False
        if abs(values[0] - sum(values[1:])) > MIX_TOL_MW:
            return False
    return True
