"""Per-layer metrics from the span files of one traced run.

A span's self time is its duration minus the time its child spans
cover.  Each metric below sums the self time, or counts the calls, of
the wrapped functions it names.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

#: metric -> wrapped functions whose self time it sums, in seconds
SELF_TIME = {
    "newsupply.soc_s": ("newsupply.simulate_soc",),
    "newsupply.solar_sizing_self_s": ("newsupply.size_dedicated_solar",),
    "newsupply.recharge_s": ("newsupply.size_for_full_recharge",),
    "newsupply.displace_s": ("newsupply.displace_with_battery",),
    "newsupply.bonus_s": ("newsupply.coal_peak_bonus",),
    "newsupply.battery_size_s": ("newsupply.size_battery",),
    "newsupply.thermal_s": ("newsupply.size_new_capacity", "newsupply.displace_gas_with_new_coal"),
    "dispatch.must_run_s": ("dispatch.net_demand", "dispatch.split_must_run", "dispatch.attach_must_run"),
    "dispatch.merit_s": ("dispatch.merit_dispatch",),
    "dispatch.flex_s": ("dispatch.apply_coal_flex",),
    "dispatch.buffer_s": ("dispatch.buffer_check", "dispatch.compute_unmet"),
    "dispatch.csv_s": ("dispatch.to_csv",),
    "pipeline.dispatch_year_self_s": ("pipeline.dispatch_year",),
    "scenario.expand_s": ("scenario.expand_param_grid",),
    "scenario.path_s": ("scenario.build_capacity_path",),
    "scenario.demand_s": ("scenario.project_demand",),
    "shapes.map_s": ("shapes.map_values_to_year",),
    "shapes.synth_s": ("shapes.synth_shapes", "shapes.synth_solar_shape"),
    "shapes.load_s": ("shapes.load_timeseries_csv", "shapes.load_shape_csv"),
    "shapes.clean_s": ("shapes.clean_series",),
    "shapes.profile_s": ("shapes.derive_wind_shape", "shapes.rescale_to_cuf"),
    "economics.price_s": ("economics.build_price_path",),
    "economics.npv_s": ("economics.npv_system_cost",),
    "cli.import_s": ("cli.import",),
    "cli.config_s": ("cli.parse_config",),
    "cli.inputs_s": ("cli.load_inputs",),
    "cli.figures_s": ("cli.export_figures",),
}

#: metric -> wrapped function whose calls it counts
CALLS = {
    "newsupply.soc_calls": "newsupply.simulate_soc",
    "newsupply.solar_sizing_calls": "newsupply.size_dedicated_solar",
    "pipeline.dispatch_year_calls": "pipeline.dispatch_year",
    "shapes.map_calls": "shapes.map_values_to_year",
}

_NS = 1e-9


class Span:
    __slots__ = ("name", "start", "end", "parent", "error", "pid", "child_ns")

    def __init__(self, pid: int, name: str, start: int, end: int, parent: int, error):
        self.pid, self.name, self.start, self.end = pid, name, start, end
        self.parent, self.error = parent, error
        self.child_ns = 0

    @property
    def ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.ns - self.child_ns


def load_spans(trace_dir: Path) -> tuple[list[Span], dict, int]:
    """All spans of a run, the summed counters and the main process pid.

    Spans come back with ``parent`` as an index into the returned list
    (-1 for a root).  The main process is the one that ran ``cli.main``.
    """
    spans: list[Span] = []
    counters: dict = {}
    main_pid = None
    for path in sorted(trace_dir.glob("spans-*.json")):
        payload = json.loads(path.read_text())
        pid, offset = payload["pid"], len(spans)
        for name, start, end, parent, error in payload["spans"]:
            parent = parent + offset if parent >= 0 else -1
            spans.append(Span(pid, name, start, end, parent, error))
            if name == "cli.main":
                main_pid = pid
        for key, value in payload["counters"].items():
            counters[key] = counters.get(key, 0) + value
    if main_pid is None:
        raise ValueError(f"no cli.main span in {trace_dir}")
    for span in spans:
        if span.parent >= 0:
            spans[span.parent].child_ns += span.ns
    return spans, counters, main_pid


def tail_quantile(n: int) -> float:
    """The highest quantile with at least 10 samples beyond it, never
    below the median."""
    return max(0.5, 1.0 - 10.0 / n) if n else 0.5


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(trace_dir: Path, wall_s: float, parallelism: int) -> dict[str, float]:
    """Per-layer metrics of one traced run whose wall time was ``wall_s``."""
    spans, counters, main_pid = load_spans(trace_dir)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name: str) -> list[Span]:
        return by_name.get(name, [])

    out: dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(s.self_ns for n in names for s in named(n)) * _NS
    for metric, name in CALLS.items():
        out[metric] = len(named(name))

    sizing = named("newsupply.size_dedicated_solar")
    ok = sum(1 for s in sizing if s.error is None)
    out["newsupply.solar_sizing_ok_frac"] = ok / len(sizing) if sizing else 1.0
    soc_in_sizing = sum(
        1 for s in named("newsupply.simulate_soc")
        if s.parent >= 0 and spans[s.parent].name == "newsupply.size_dedicated_solar"
    )
    out["newsupply.soc_per_sizing"] = soc_in_sizing / len(sizing) if sizing else 0.0
    out["shapes.gap_slots"] = counters.get("shapes.gap_slots", 0)

    # sweep calls run inside a pool task; the detail call comes from cli.run
    evaluations = named("pipeline.evaluate_scenario")
    sweep, detail = [], []
    for s in evaluations:
        in_task = s.parent >= 0 and spans[s.parent].name == "cli._run_one"
        (sweep if in_task else detail).append(s)
    latencies = [s.ns * 1e-6 for s in sweep]
    out["pipeline.self_s"] = sum(s.self_ns for s in sweep) * _NS
    out["pipeline.detail_s"] = sum(s.ns for s in detail) * _NS
    out["pipeline.scenario_n"] = len(latencies)
    out["pipeline.scenario_ms.p50"] = _quantile(latencies, 0.5)
    out["pipeline.scenario_ms.tail"] = _quantile(latencies, tail_quantile(len(latencies)))

    tasks = named("cli._run_one")
    busy_ns = sum(s.ns for s in tasks)
    out["cli.worker_busy_s"] = busy_ns * _NS
    (run,) = [s for s in named("cli.run") if s.pid == main_pid]
    run_self_ns = run.self_ns
    if tasks:
        # from the end of input loading, through pool start-up, to the
        # last task's end: the window the workers were there to fill
        (inputs,) = [s for s in named("cli.load_inputs") if s.pid == main_pid]
        window_ns = max(s.end for s in tasks) - inputs.end
        out["cli.worker_idle_frac"] = 1.0 - busy_ns / (parallelism * window_ns)
        if parallelism > 1:
            # the parent waits on the pool here; that wait is the workers' time
            run_self_ns -= max(s.end for s in tasks) - min(s.start for s in tasks)
    else:
        out["cli.worker_idle_frac"] = 0.0
    out["cli.self_s"] = run_self_ns * _NS
    n_results = counters.get("cli.results", 0)
    out["cli.result_bytes"] = counters.get("cli.result_bytes", 0) / n_results if n_results else 0.0

    covered_ns = sum(s.ns for s in spans if s.pid == main_pid and s.parent < 0)
    out["trace.coverage_frac"] = covered_ns * _NS / wall_s
    return out
