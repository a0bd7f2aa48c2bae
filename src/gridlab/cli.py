"""Command-line driver: a JSON config in, CSV tables out.

Config keys map one-to-one onto scenario parameters.  A scalar value
overrides the default; a list turns the key into a sweep axis and the
run expands the cartesian product of all axes.  Two keys are reserved:

* ``paper_grid``: true merges in the standard 189-point sweep axes
  (demand growth x coal flex x RE build-out x solar share),
* ``data``: options for the base-year loader (year, RE energy target,
  installed solar MW for the wind-shape derivation, gap tolerance).

A sweep groups its scenarios by despatch key (their values of
``DESPATCH_FIELDS``), in first-appearance order.  One task takes one
group: it despatches the decade once, then prices each member's NEW
option on it.  The parent process runs the group holding scenario 0
itself while the pool works through the others.  When that group holds
the run's first success, the detail scenario, the parent writes the
figure CSVs and ``dispatch_<year>.csv`` from the group's decade at once
and then drops it; only a detail scenario in another group is
despatched again after the sweep.  Every table is written once, by the
parent, in scenario order, so a sweep at any parallelism produces
byte-identical files.  The manifest is the only file carrying timing
and is excluded from that guarantee.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from gridlab import __version__
from gridlab import dispatch as dsp
from gridlab.economics import COMPONENTS, frontier
from gridlab.errors import GridlabError, ParameterError
from gridlab.pipeline import (
    Decade,
    ScenarioOutcome,
    despatch_decade,
    evaluate_scenario,
    year_shapes,
)
from gridlab.scenario import (
    BASE_YEAR,
    DESPATCH_FIELDS,
    FINAL_YEAR,
    YEARS,
    ParamGrid,
    ScenarioParams,
    check_field_types,
    expand_param_grid,
    params_from_config,
)
from gridlab.shapes import (
    SLOT_HOURS,
    BaseYearData,
    PerMwShape,
    clean_series,
    derive_wind_shape,
    load_shape_csv,
    load_timeseries_csv,
    rescale_to_cuf,
    slots_in_year,
    synth_shapes,
    synth_solar_shape,
)

log = logging.getLogger("gridlab")

#: scenario coordinates repeated in every output table
AXIS_COLUMNS = (
    "demand_growth",
    "flex_limit",
    "re_2030",
    "solar_share",
    "new_option",
    "battery_size_fraction",
    "new_coal_size_fraction",
    "dedicated_solar_extra",
)

YEAR_COLUMNS = (
    "year",
    "demand_twh",
    "re_twh",
    "hydro_twh",
    "nuclear_twh",
    "coal_twh",
    "gas_twh",
    "curtailment_twh",
    "unmet_twh",
    "peak_unmet_gw",
    "capacity_requirement_gw",
    "new_capacity_gross_mw",
    "dedicated_solar_gw",
    "secondary_unmet_twh",
    "displaced_gas_twh",
    "displaced_coal_twh",
    "bonus_curtailment_twh",
    "flex_relaxed_slots",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return f"{float(value):.10g}"


# --- configuration -------------------------------------------------------


@dataclass(frozen=True)
class DataOptions:
    """Loader options carried under the reserved ``data`` config key."""

    year: int = BASE_YEAR
    base_file: str = "base_year.csv"
    solar_shape_file: str = "solar_shape.csv"
    re_annual_target_gwh: float | None = None
    solar_capacity_mw: float = 35_000.0
    max_gap_slots: int = 4


#: parameters read once, when load_inputs builds the per-MW shapes
_INPUT_SHAPE_KEYS = {"solar_cuf", "wind_cuf"}


def parse_config(
    config: Mapping | None,
) -> tuple[list[ScenarioParams], ScenarioParams, DataOptions]:
    """Expand a config mapping into the scenario list it describes."""
    cfg = dict(config or {})
    paper = cfg.pop("paper_grid", False)
    if not isinstance(paper, bool):
        raise ParameterError(f"config key 'paper_grid' must be true or false, got {paper!r}")

    data_raw = cfg.pop("data", {})
    if not isinstance(data_raw, Mapping):
        raise ParameterError("config key 'data' must be a mapping")
    known = set(DataOptions.__dataclass_fields__)
    unknown = set(data_raw) - known
    if unknown:
        raise ParameterError(f"unknown data options: {sorted(unknown)}")
    check_field_types(DataOptions, data_raw, "data.")
    data_opts = DataOptions(**data_raw)

    axes = {k: tuple(v) for k, v in cfg.items() if isinstance(v, (list, tuple))}
    swept_fixed = sorted(_INPUT_SHAPE_KEYS & set(axes))
    if swept_fixed:
        raise ParameterError(
            f"config keys {swept_fixed} cannot be sweep axes: the per-MW shapes "
            "are built once per run; give one value"
        )
    overrides = {k: v for k, v in cfg.items() if k not in axes}
    base = params_from_config(overrides)

    if paper:
        merged = dict(ParamGrid.paper_grid().axes)
        merged.update(axes)
        axes = merged
    if axes:
        scenarios = expand_param_grid(ParamGrid(axes=axes), base)
    else:
        scenarios = [base]
    return scenarios, base, data_opts


def load_inputs(
    data_dir: str | Path | None,
    synthetic_seed: int | None,
    params: ScenarioParams,
    opts: DataOptions,
) -> tuple[BaseYearData, PerMwShape, PerMwShape]:
    """Base-year data plus the per-MW shapes new builds will follow."""
    if synthetic_seed is not None:
        base = synth_shapes(synthetic_seed)
        raw_solar = synth_solar_shape(base.year)
        solar_capacity_mw = 35_000.0
    elif data_dir is not None:
        directory = Path(data_dir)
        raw = load_timeseries_csv(directory / opts.base_file, opts.year)
        base = clean_series(raw, opts.max_gap_slots, opts.re_annual_target_gwh)
        shape_path = directory / opts.solar_shape_file
        if shape_path.exists():
            raw_solar = load_shape_csv(shape_path)
            if raw_solar.values.shape[0] != slots_in_year(opts.year):
                raise ParameterError(
                    f"{shape_path} has {raw_solar.values.shape[0]} slots, "
                    f"want {slots_in_year(opts.year)} for {opts.year}"
                )
        else:
            raw_solar = synth_solar_shape(opts.year)
        solar_capacity_mw = opts.solar_capacity_mw
    else:
        raise ParameterError("either a data directory or a synthetic seed is required")

    wind = derive_wind_shape(
        base.supply_by_fuel["re"], raw_solar, solar_capacity_mw, wind_cuf=params.wind_cuf
    )
    solar = rescale_to_cuf(raw_solar, params.solar_cuf)
    return base, solar, wind


# --- sweep execution ------------------------------------------------------

_WORKER_INPUTS: tuple | None = None


def _init_worker(base: BaseYearData, solar: PerMwShape, wind: PerMwShape) -> None:
    global _WORKER_INPUTS
    _WORKER_INPUTS = (base, year_shapes(base, solar), year_shapes(base, wind))


def _run_one(group: list[tuple[int, ScenarioParams]], keep: list[Decade] | None = None):
    """Despatch one group's decade once, then evaluate each member on it.

    A GridlabError is recorded, not raised: in the despatch it fails
    every member with the same message, in the option stage only its
    own scenario.  Any other exception is a bug, not an unsolvable
    scenario, and propagates to end the run.  The decade is appended
    to ``keep`` when one is given, so the caller can reuse it.
    """
    try:
        decade = despatch_decade(group[0][1], *_WORKER_INPUTS)
    except GridlabError as exc:
        return [(index, f"{type(exc).__name__}: {exc}", None) for index, _ in group]
    if keep is not None:
        keep.append(decade)
    results = []
    for index, params in group:
        try:
            results.append((index, None, evaluate_scenario(params, decade)))
        except GridlabError as exc:
            results.append((index, f"{type(exc).__name__}: {exc}", None))
    return results


@dataclass(frozen=True)
class RunManifest:
    """What a run produced, and from what."""

    version: str
    scenario_count: int
    failed: int
    parallelism: int
    synthetic_seed: int | None
    data_dir: str | None
    config_digest: str
    detail_scenario: int | None
    files: tuple[str, ...]
    wall_time_s: float

    def to_json(self, path=None) -> str:
        payload = {
            "version": self.version,
            "scenario_count": self.scenario_count,
            "failed": self.failed,
            "parallelism": self.parallelism,
            "synthetic_seed": self.synthetic_seed,
            "data_dir": self.data_dir,
            "config_digest": self.config_digest,
            "detail_scenario": self.detail_scenario,
            "files": list(self.files),
            "wall_time_s": round(self.wall_time_s, 3),
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text


def _axis_values(params: ScenarioParams) -> list:
    return [getattr(params, name) for name in AXIS_COLUMNS]


def _write_frontier(path: Path, ranked: Sequence[tuple[int, ScenarioOutcome]]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["rank", "scenario", *AXIS_COLUMNS, "npv_total_rs"]
            + [f"npv_{c}_rs" for c in COMPONENTS]
            + [
                "levelized_existing_rs_per_kwh",
                "levelized_new_rs_per_kwh",
                "new_capacity_mw",
                "curtailment_twh",
            ]
        )
        for rank, (index, outcome) in enumerate(ranked):
            report = outcome.result.report
            row = [rank, index]
            row += [_fmt(v) for v in _axis_values(outcome.params)]
            row.append(_fmt(report.npv_total))
            row += [_fmt(report.npv_by_component.get(c, 0.0)) for c in COMPONENTS]
            row.append(_fmt(report.levelized_existing))
            row.append(_fmt(report.levelized_new))
            row.append(_fmt(outcome.result.new_capacity_mw))
            row.append(_fmt(outcome.result.curtailment_twh))
            writer.writerow(row)


def _write_years(path: Path, outcomes: Sequence[tuple[int, ScenarioOutcome]]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["scenario", *AXIS_COLUMNS, *YEAR_COLUMNS])
        for index, outcome in outcomes:
            prefix = [index] + [_fmt(v) for v in _axis_values(outcome.params)]
            for row in outcome.year_rows:
                writer.writerow(prefix + [_fmt(row[c]) for c in YEAR_COLUMNS])


def _write_failures(
    path: Path, failures: Sequence[tuple[int, str]], scenarios: Sequence[ScenarioParams]
) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["scenario", *AXIS_COLUMNS, "error"])
        for index, message in failures:
            writer.writerow(
                [index] + [_fmt(v) for v in _axis_values(scenarios[index])] + [message]
            )


# --- figure data ----------------------------------------------------------

_MIX_KEYS = ("re", "hydro", "nuclear", "coal", "gas", "new")


def export_figures(
    out_dir: str | Path,
    detail: ScenarioOutcome | None = None,
    year: int = FINAL_YEAR,
) -> list[Path]:
    """Write the plot-ready CSVs for one scenario.

    With no scenario to draw from (an empty sweep, or every scenario
    failed) the files still appear with their documented headers and no
    rows, so downstream tooling never special-cases an empty run.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def _open(name: str, header: list[str]):
        path = out / name
        fh = path.open("w", newline="")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        written.append(path)
        return fh, writer

    def _table(name: str, header: list[str], columns: list, formats: list[str]) -> None:
        path = out / name
        dsp.write_table(path, header, columns, formats, "\n")
        written.append(path)

    yd = detail.details[year] if detail is not None else None

    # annual generation mix, after NEW supply and displacement
    fh, writer = _open(
        "generation_mix.csv",
        ["year"] + [f"{k}_twh" for k in _MIX_KEYS] + ["unmet_twh", "curtailment_twh"],
    )
    with fh:
        if detail is not None:
            for yr in YEARS:
                d = detail.details.get(yr)
                if d is None:
                    continue
                rep = d.reporting
                energies = {
                    "re": rep.energy_twh("re"),
                    "hydro": rep.energy_twh("hydro"),
                    "nuclear": rep.energy_twh("nuclear"),
                    "coal": rep.energy_twh("coal_2019") + rep.energy_twh("coal_slack"),
                    "gas": rep.energy_twh("gas_2019") + rep.energy_twh("gas_slack"),
                    "new": rep.energy_twh("new"),
                }
                writer.writerow(
                    [yr]
                    + [_fmt(energies[k]) for k in _MIX_KEYS]
                    + [_fmt(rep.unmet_twh()), _fmt(rep.curtailment_twh())]
                )

    # slot-level tables for the focus year; the mix rows sum to demand
    # exactly, the unmet load duration curve is ranked, not in slot order
    ldc = mix = coal = []
    if yd is not None:
        rep = yd.reporting
        slots = np.arange(rep.n_slots)
        ldc = [slots, dsp.load_duration_curve(yd.dispatch.unmet)]
        mix = [slots, rep.demand, rep.supply["re"], rep.supply["hydro"], rep.supply["nuclear"],
               rep.coal_total(), rep.gas_total(), rep.supply["new"], rep.unmet]
        coal = [slots, yd.dispatch.coal_total(), rep.coal_total()]
    _table(f"ldc_unmet_{year}.csv", ["rank", "unmet_mw"], ldc, ["%d", "%.3f"])
    _table(
        f"chronological_mix_{year}.csv",
        ["slot", "demand_mw"] + [f"{k}_mw" for k in _MIX_KEYS] + ["unmet_mw"],
        mix, ["%d"] + ["%.3f"] * 8,
    )
    _table(
        f"coal_output_{year}.csv", ["slot", "pre_new_mw", "post_new_mw"],
        coal, ["%d", "%.3f", "%.3f"],
    )

    # annual coal plant load factor
    fh, writer = _open(
        "coal_plf.csv", ["year", "plf_pre_displacement", "plf_post_displacement"]
    )
    with fh:
        if detail is not None:
            for row, yr in zip(detail.year_rows, YEARS):
                d = detail.details.get(yr)
                if d is None:
                    continue
                hours = slots_in_year(yr) * SLOT_HOURS
                cap_mw = d.dispatch.capacity["coal_2019"] + d.dispatch.capacity["coal_slack"]
                cap_twh = float(cap_mw.max()) * hours / 1e6
                pre = row["coal_twh"]
                post = (
                    d.reporting.energy_twh("coal_2019")
                    + d.reporting.energy_twh("coal_slack")
                )
                if cap_twh > 0:
                    writer.writerow([yr, _fmt(pre / cap_twh), _fmt(post / cap_twh)])

    # battery state of charge for the focus year, when there is one
    if yd is not None and yd.trace is not None:
        path = out / f"soc_trace_{year}.csv"
        yd.trace.to_csv(path)
        written.append(path)
    return written


# --- the run itself --------------------------------------------------------


def _config_digest(config: Mapping | None) -> str:
    canonical = json.dumps(config or {}, sort_keys=True).encode()
    return hashlib.sha256(canonical).hexdigest()


def _dispatch_years(detail_year: int | None) -> list[int]:
    """The years that get a ``dispatch_<year>.csv``: 2030 and ``detail_year``."""
    years = {FINAL_YEAR}
    if detail_year is not None:
        if detail_year not in YEARS:
            raise ParameterError(
                f"detail year {detail_year} outside horizon {YEARS[0]}..{YEARS[-1]}"
            )
        years.add(detail_year)
    return sorted(years)


def _write_detail(
    out: Path, params: ScenarioParams, decade: Decade, years: Sequence[int]
) -> list[str]:
    """Evaluate the detail scenario on its decade and write its exports:
    the figure CSVs, then ``dispatch_<year>.csv`` for each of ``years``."""
    detail = evaluate_scenario(params, decade, detail_years=YEARS)
    files = [path.name for path in export_figures(out, detail)]
    for year in years:
        name = f"dispatch_{year}.csv"
        dsp.to_csv(detail.details[year].reporting, out / name)
        files.append(name)
    return files


def _run_first_group(
    group: list[tuple[int, ScenarioParams]], out: Path, years: Sequence[int]
) -> tuple[list, list[str] | None]:
    """Run the group holding scenario 0 in this process.

    When its first success is the run's first success (every lower
    index is a failed member of this group), write the detail exports
    from the group's decade.  Returns the group's results and the names
    of the files written, or None when no detail exports were written.
    """
    kept: list[Decade] = []
    results = _run_one(group, kept)
    first = next((pos for pos, (_, error, _) in enumerate(results) if error is None), None)
    if first is None or results[first][0] != first:
        return results, None
    return results, _write_detail(out, group[first][1], kept[0], years)


def run(
    config: Mapping | None = None,
    data_dir: str | Path | None = None,
    out_dir: str | Path = "gridlab-out",
    parallelism: int = 1,
    synthetic_seed: int | None = None,
    detail_year: int | None = None,
) -> RunManifest:
    """Evaluate every scenario in the config and write the result tables.

    Scenario failures (a GridlabError) are isolated: the row lands in
    failures.csv and the sweep carries on; any other exception ends the
    run.  The first successful scenario doubles as the detail scenario
    feeding the figure CSVs and ``dispatch_<year>.csv`` (see the module
    docstring for when they are written).
    """
    start = time.monotonic()
    if parallelism < 1:
        raise ParameterError("parallelism must be >= 1")
    years = _dispatch_years(detail_year)
    scenarios, base_params, data_opts = parse_config(config)
    base, solar, wind = load_inputs(data_dir, synthetic_seed, base_params, data_opts)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    groups: dict[tuple, list[tuple[int, ScenarioParams]]] = {}
    for index, params in enumerate(scenarios):
        key = tuple(getattr(params, f) for f in DESPATCH_FIELDS)
        groups.setdefault(key, []).append((index, params))
    first, *rest = groups.values()
    log.info("evaluating %d scenarios in %d despatch groups at parallelism %d",
             len(scenarios), len(groups), parallelism)
    _init_worker(base, solar, wind)  # the parent runs the first group
    if parallelism == 1:
        head, detail_files = _run_first_group(first, out, years)
        raw = chain([head], map(_run_one, rest))
    else:
        with ProcessPoolExecutor(
            max_workers=parallelism,
            initializer=_init_worker,
            initargs=(base, solar, wind),
        ) as pool:
            pending = pool.map(_run_one, rest, chunksize=1)
            try:
                head, detail_files = _run_first_group(first, out, years)
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
            raw = [head, *pending]
    successes: list[tuple[int, ScenarioOutcome]] = []
    failures: list[tuple[int, str]] = []
    for index, error, outcome in sorted(chain.from_iterable(raw), key=lambda r: r[0]):
        (failures.append((index, error)) if error else successes.append((index, outcome)))
    for index, message in failures:
        log.error("scenario %d failed: %s", index, message)

    # successes are in scenario order, so frontier's input-order tie
    # break is the scenario index
    ranked: list[tuple[int, ScenarioOutcome]] = []
    if successes:
        by_result = {id(outcome.result): (index, outcome) for index, outcome in successes}
        ranked = [by_result[id(r)] for r in frontier([o.result for _, o in successes])]

    files: list[str] = []
    _write_frontier(out / "frontier.csv", ranked)
    files.append("frontier.csv")
    _write_years(out / "results_by_year.csv", successes)
    files.append("results_by_year.csv")
    _write_failures(out / "failures.csv", failures, scenarios)
    files.append("failures.csv")

    detail_index = successes[0][0] if successes else None
    if detail_files is None:
        if detail_index is None:
            detail_files = [path.name for path in export_figures(out)]
        else:
            params = scenarios[detail_index]
            detail_files = _write_detail(
                out, params, despatch_decade(params, *_WORKER_INPUTS), years
            )
    files += detail_files

    manifest = RunManifest(
        version=__version__,
        scenario_count=len(scenarios),
        failed=len(failures),
        parallelism=parallelism,
        synthetic_seed=synthetic_seed,
        data_dir=None if data_dir is None else str(data_dir),
        config_digest=_config_digest(config),
        detail_scenario=detail_index,
        files=tuple(files),
        wall_time_s=time.monotonic() - start,
    )
    manifest.to_json(out / "manifest.json")
    return manifest


# --- entry point ------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridlab",
        description="Half-hourly grid balancing sweeps: JSON config in, CSVs out.",
    )
    parser.add_argument("--config", help="JSON config file (axes, overrides, data options)")
    parser.add_argument("--data", help="directory holding base_year.csv (and optional solar_shape.csv)")
    parser.add_argument("--out", default="gridlab-out", help="output directory (default: %(default)s)")
    parser.add_argument(
        "--synthetic",
        type=int,
        metavar="SEED",
        help="generate the base year synthetically from this seed instead of --data",
    )
    parser.add_argument(
        "--parallelism", type=int, default=1, help="worker processes (default: %(default)s)"
    )
    parser.add_argument(
        "--year-detail",
        type=int,
        metavar="YEAR",
        help="also write a slot-level despatch CSV for this year",
    )
    parser.add_argument(
        "--validate-only",
        action="store_true",
        help="parse config and inputs, report the scenario count, run nothing",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    level = os.environ.get("GRIDLAB_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)

    try:
        config = None
        if args.config:
            with open(args.config) as fh:
                config = json.load(fh)

        if args.validate_only:
            _dispatch_years(args.year_detail)
            scenarios, base_params, data_opts = parse_config(config)
            if args.data is not None or args.synthetic is not None:
                load_inputs(args.data, args.synthetic, base_params, data_opts)
                print("inputs: ok")
            print(f"scenarios: {len(scenarios)}")
            return 0

        manifest = run(
            config=config,
            data_dir=args.data,
            out_dir=args.out,
            parallelism=args.parallelism,
            synthetic_seed=args.synthetic,
            detail_year=args.year_detail,
        )
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    except (GridlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        log.exception("internal error")
        return 3

    print(
        f"evaluated {manifest.scenario_count - manifest.failed} of "
        f"{manifest.scenario_count} scenarios in {manifest.wall_time_s:.1f}s"
        f" -> {args.out}"
    )
    if manifest.failed:
        print(f"{manifest.failed} scenario(s) failed; see failures.csv", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
