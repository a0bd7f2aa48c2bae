"""Command-line driver: a JSON config in, CSV tables out.

Config keys map one-to-one onto scenario parameters.  A scalar value
overrides the default; a list turns the key into a sweep axis and the
run expands the cartesian product of all axes.  Two keys are reserved:

* ``paper_grid``: true merges in the standard 189-point sweep axes
  (demand growth x coal flex x RE build-out x solar share),
* ``data``: options for the base-year loader (year, RE energy target,
  installed solar MW for the wind-shape derivation, gap tolerance).

A sweep groups its scenarios by despatch key (their values of
``DESPATCH_FIELDS``), in first-appearance order.  One runner,
``_run_one``, evaluates a group wherever it runs: it despatches each
year once, advances every member's NEW option on that year and drops
it before the next, then prices each member's finished plan.  The
parent process runs the group holding scenario 0 itself while the
pool, when there is one, works through the others.  Scenario 0 is the
presumptive detail scenario (the run's first success): it carries the
reporting the figure CSVs and ``dispatch_<year>.csv`` need through its
own sweep, and the parent writes those files as soon as the group is
done.  Only when scenario 0 fails is the first success evaluated again
after the sweep, by the same runner as a group of its own.  Every
table is written once, by the parent, in scenario order, so a sweep at
any parallelism produces byte-identical files.  The manifest is the
only file carrying timing and is excluded from that guarantee.
"""

from __future__ import annotations

import os

# gridlab makes no BLAS call, yet an OpenBLAS build of numpy starts one
# busy-waiting worker thread per extra core when it loads, which costs
# CPU time and no speed.  This runs before numpy is first imported (the
# package __init__ imports no numpy); a value the user has set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import csv
import json
import logging
import sys
import time
from dataclasses import asdict, dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from gridlab import __version__
from gridlab import dispatch as dsp
from gridlab.economics import COMPONENTS, build_price_path, frontier
from gridlab.errors import GridlabError, ParameterError
from gridlab.pipeline import (
    MIX_KEYS,
    OptionStage,
    ScenarioOutcome,
    despatch_group,
    evaluate_scenario,
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
    SYNTH_SOLAR_MW,
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
    for params in scenarios:
        build_price_path(params)  # its checks read the parameters alone
    return scenarios, base, data_opts


def load_inputs(
    data_dir: str | Path | None,
    synthetic_seed: int | None,
    params: ScenarioParams,
    opts: DataOptions,
) -> tuple[BaseYearData, PerMwShape, PerMwShape]:
    """Base-year data plus the per-MW shapes new builds will follow.
    Synthetic inputs refuse every ``opts`` value changed from its default."""
    if synthetic_seed is not None:
        default = asdict(DataOptions())
        changed = sorted(k for k, v in asdict(opts).items() if v != default[k])
        if changed:
            raise ParameterError(
                f"data options {changed} apply to a data directory, not to synthetic inputs"
            )
        base = synth_shapes(synthetic_seed)
        raw_solar = synth_solar_shape(base.year)
        solar_capacity_mw = SYNTH_SOLAR_MW
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
    _WORKER_INPUTS = (base, solar, wind)


def _failure(stage: str, exc: GridlabError) -> tuple[str, str, str]:
    """The ``failures.csv`` cells of ``exc``, raised in ``stage``:
    stage, error_type and the ``Type: message`` error text."""
    return stage, type(exc).__name__, f"{type(exc).__name__}: {exc}"


def _run_one(group: list[tuple[int, ScenarioParams]], detail_years: tuple[int, ...] = (),
             keep: list[ScenarioOutcome] | None = None):
    """Evaluate one despatch group: despatch it year by year, stepping
    every member's option stage on each year, then price each member's
    finished plan.  Pool tasks, the parent's group 0 and the detail
    re-run all go through here.

    The first member's stage keeps what the detail exports read (the
    slot detail of ``detail_years`` and every year's annual mix); when
    it succeeds its full outcome is appended to ``keep``, and the one in
    the results carries no slot detail.  Each result is ``(index,
    failure, outcome)``.  A GridlabError is recorded as a failure, not
    raised: in the despatch it fails every member with the same message,
    in the option stage or the pricing only its own scenario.  Any other
    exception is a bug, not an unsolvable scenario, and propagates to
    end the run.
    """
    stages = [OptionStage.start(params, detail_years if n == 0 else ())
              for n, (_, params) in enumerate(group)]
    try:
        despatch = despatch_group(group[0][1], *_WORKER_INPUTS, stages)
    except GridlabError as exc:
        return [(index, _failure("despatch", exc), None) for index, _ in group]
    results = []
    for (index, _), stage in zip(group, stages):
        try:
            outcome = evaluate_scenario(stage, despatch)
        except GridlabError as exc:
            where = "option" if exc is stage.error else "pricing"
            results.append((index, _failure(where, exc), None))
            continue
        if keep is not None and stage is stages[0]:
            keep.append(outcome)
            outcome = replace(outcome, details={})
        results.append((index, None, outcome))
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
        payload = {**asdict(self), "wall_time_s": round(self.wall_time_s, 3)}
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
    path: Path, failures: Sequence[tuple[int, tuple]], scenarios: Sequence[ScenarioParams]
) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["scenario", *AXIS_COLUMNS, "stage", "error_type", "error"])
        for index, failure in failures:
            writer.writerow(
                [index] + [_fmt(v) for v in _axis_values(scenarios[index])] + [*failure]
            )


# --- figure data ----------------------------------------------------------


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
    annual = detail.annual_mix if detail is not None else {}
    mix_columns = [f"{k}_twh" for k in MIX_KEYS] + ["unmet_twh", "curtailment_twh"]
    fh, writer = _open("generation_mix.csv", ["year"] + mix_columns)
    with fh:
        for yr, mix in annual.items():
            writer.writerow([yr] + [_fmt(mix[c]) for c in mix_columns])

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
        ["slot", "demand_mw"] + [f"{k}_mw" for k in MIX_KEYS] + ["unmet_mw"],
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
                mix = annual.get(yr)
                if mix is None:
                    continue
                cap_twh = mix["coal_capacity_mw"] * (slots_in_year(yr) * SLOT_HOURS) / 1e6
                pre = row["coal_twh"]
                if cap_twh > 0:
                    writer.writerow([yr, _fmt(pre / cap_twh), _fmt(mix["coal_twh"] / cap_twh)])

    # battery state of charge for the focus year, when there is one
    if yd is not None and yd.trace is not None:
        path = out / f"soc_trace_{year}.csv"
        yd.trace.to_csv(path)
        written.append(path)
    return written


# --- the run itself --------------------------------------------------------


def _config_digest(config: Mapping | None) -> str:
    import hashlib

    canonical = json.dumps(config or {}, sort_keys=True).encode()
    return hashlib.sha256(canonical).hexdigest()


def _dispatch_years(detail_year: int | None) -> tuple[int, ...]:
    """The years that get a ``dispatch_<year>.csv``: 2030 and ``detail_year``."""
    years = {FINAL_YEAR}
    if detail_year is not None:
        if detail_year not in YEARS:
            raise ParameterError(
                f"detail year {detail_year} outside horizon {YEARS[0]}..{YEARS[-1]}"
            )
        years.add(detail_year)
    return tuple(sorted(years))


def _write_detail(out: Path, outcome: ScenarioOutcome, years: tuple[int, ...]) -> list[str]:
    """Write the detail scenario's exports: the figure CSVs, then
    ``dispatch_<year>.csv`` for each of ``years``."""
    files = [path.name for path in export_figures(out, outcome)]
    for year in years:
        name = f"dispatch_{year}.csv"
        dsp.to_csv(outcome.details[year].reporting, out / name)
        files.append(name)
    return files


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
    pool = None
    if parallelism > 1 and rest:
        from concurrent.futures import ProcessPoolExecutor

        # a forked pool starts all its workers at the first submit, so
        # it gets no more of them than there are groups left to run
        pool = ProcessPoolExecutor(
            max_workers=min(parallelism, len(rest)),
            initializer=_init_worker,
            initargs=(base, solar, wind),
        )
    raw: list[list[tuple]] = []

    def done(results: list[tuple]) -> None:
        raw.append(results)
        log.info("%d of %d despatch groups done after %.1f s",
                 len(raw), len(groups), time.monotonic() - start)

    try:
        pending = pool.map(_run_one, rest, chunksize=1) if pool else map(_run_one, rest)
        kept: list[ScenarioOutcome] = []
        done(_run_one(first, years, kept))
        # scenario 0, when it succeeds, is the run's first success
        detail_files = _write_detail(out, kept[0], years) if kept else None
        for results in pending:
            done(results)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    successes: list[tuple[int, ScenarioOutcome]] = []
    failures: list[tuple[int, tuple[str, str, str]]] = []
    for index, failure, outcome in sorted(chain.from_iterable(raw), key=lambda r: r[0]):
        (failures.append((index, failure)) if failure else successes.append((index, outcome)))
    for index, (stage, _, message) in failures:
        log.error("scenario %d failed in its %s stage: %s", index, stage, message)

    # successes are in scenario order, so frontier's input-order tie
    # break is the scenario index
    results = [outcome.result for _, outcome in successes]
    ranked = [successes[i] for i in frontier(results)] if successes else []

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
            # scenario 0 failed: evaluate the first success again, alone
            ((_, failure, _),) = _run_one([(detail_index, scenarios[detail_index])], years, kept)
            if failure:
                raise GridlabError(f"detail re-run of scenario {detail_index} failed: "
                                   f"{failure[2]}")
            detail_files = _write_detail(out, kept[0], years)
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
    parser.add_argument("--out", default="gridlab-out", help="output directory (default: %(default)s)")
    inputs = parser.add_mutually_exclusive_group()
    inputs.add_argument("--data", help="directory holding base_year.csv (and optional solar_shape.csv)")
    inputs.add_argument(
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


#: glibc ``mallopt`` parameter numbers (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _reuse_heap() -> tuple[int, ...]:
    """Let freed year arrays be reused instead of handed back to the OS.

    A despatch year's slot arrays are larger than glibc's default mmap
    threshold, so each would be mapped on allocation, unmapped when its
    year is dropped and faulted in again for the next year.  With the
    thresholds raised they come from, and go back to, the heap.  Returns
    what each ``mallopt`` call returned (1 on success), or nothing where
    the C library has no ``mallopt``.
    """
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return ()
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return mallopt(_M_MMAP_THRESHOLD, 32 << 20), mallopt(_M_TRIM_THRESHOLD, 64 << 20)


#: The values GRIDLAB_LOG accepts, in any case.
_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def main(argv: Sequence[str] | None = None) -> int:
    level = os.environ.get("GRIDLAB_LOG") or "WARNING"
    if level.upper() not in _LOG_LEVELS:
        print(f"error: GRIDLAB_LOG must be one of {', '.join(_LOG_LEVELS)} "
              f"(any case), not {level!r}", file=sys.stderr)
        return 2
    logging.basicConfig(level=level.upper(), format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)

    try:
        config = None
        if args.config:
            with open(args.config) as fh:
                try:
                    config = json.load(fh)
                except ValueError as exc:  # bad JSON, or an integer too long to convert
                    raise ParameterError(f"config is not valid JSON: {exc}") from exc

        if args.validate_only:
            _dispatch_years(args.year_detail)
            scenarios, base_params, data_opts = parse_config(config)
            if args.data is not None or args.synthetic is not None:
                load_inputs(args.data, args.synthetic, base_params, data_opts)
                print("inputs: ok")
            print(f"scenarios: {len(scenarios)}")
            return 0

        _reuse_heap()
        manifest = run(
            config=config,
            data_dir=args.data,
            out_dir=args.out,
            parallelism=args.parallelism,
            synthetic_seed=args.synthetic,
            detail_year=args.year_detail,
        )
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
