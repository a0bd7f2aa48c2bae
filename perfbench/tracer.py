"""Run the gridlab CLI with each layer's functions wrapped in spans.

usage: python perfbench/tracer.py TRACE_DIR <gridlab cli arguments>

The program is not changed: before ``gridlab.cli.main`` runs, every
function named in ``SPANS`` is replaced, in each gridlab module that
binds it, by a wrapper that records a span (name, start, end, parent,
exception class).  Module-global lookups then reach the wrappers, so a
call nested in another wrapped call becomes its child span.  Spans stay
in memory; each process writes its own ``spans-<pid>.json`` into
TRACE_DIR when it ends.  Pool workers fork with the wrappers in place
and write their file from a multiprocessing exit finalizer.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing
import multiprocessing.util
import os
import pickle
import sys
import time
from collections import Counter
from pathlib import Path

#: Wrapped functions as ``module.function``.  Calls to functions not
#: listed here count towards the self time of the wrapped caller.
SPANS = (
    "cli.main",
    "cli.run",
    "cli.parse_config",
    "cli.load_inputs",
    "cli._run_one",  # the pool task around one evaluate_scenario call
    "cli.export_figures",
    "pipeline.evaluate_scenario",
    "pipeline.dispatch_year",
    "scenario.expand_param_grid",
    "scenario.build_capacity_path",
    "scenario.project_demand",
    "shapes.synth_shapes",
    "shapes.synth_solar_shape",
    "shapes.load_timeseries_csv",
    "shapes.load_shape_csv",
    "shapes.clean_series",
    "shapes.derive_wind_shape",
    "shapes.rescale_to_cuf",
    "shapes.map_values_to_year",
    "dispatch.net_demand",
    "dispatch.split_must_run",
    "dispatch.merit_dispatch",
    "dispatch.attach_must_run",
    "dispatch.apply_coal_flex",
    "dispatch.buffer_check",
    "dispatch.compute_unmet",
    "dispatch.to_csv",
    "newsupply.size_battery",
    "newsupply.simulate_soc",
    "newsupply.size_dedicated_solar",
    "newsupply.size_for_full_recharge",
    "newsupply.displace_with_battery",
    "newsupply.coal_peak_bonus",
    "newsupply.size_new_capacity",
    "newsupply.displace_gas_with_new_coal",
    "economics.build_price_path",
    "economics.npv_system_cost",
)

MODULES = ("shapes", "scenario", "dispatch", "newsupply", "economics", "pipeline", "cli")


def _gap_slots(tracer: "Tracer", raw) -> None:
    """Slots of the loaded base year with at least one missing cell."""
    slots = set()
    for runs in raw.gaps.values():
        for start, stop in runs:
            slots.update(range(start, stop))
    tracer.counters["shapes.gap_slots"] += len(slots)


def _result_bytes(tracer: "Tracer", result) -> None:
    """Size of the pickled outcome a pool worker sends back."""
    tracer.counters["cli.results"] += 1
    tracer.counters["cli.result_bytes"] += len(pickle.dumps(result))


#: Counters taken from a wrapped function's return value.
PROBES = {
    "shapes.load_timeseries_csv": _gap_slots,
    "cli._run_one": _result_bytes,
}


class Tracer:
    """Spans and counters of one process."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()

    def wrap(self, name: str, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(span_id)
            error = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                self.stack.pop()
                self.spans[span_id] = (name, start, end, parent, error)
            if probe is not None:
                probe(self, result)
            return result

        return wrapper

    def record(self, name: str, start: int, end: int) -> None:
        """A span measured by the caller, outside any wrapped call."""
        self.spans.append((name, start, end, -1, None))

    def install(self) -> None:
        """Rebind every listed function in every module that binds it."""
        modules = [importlib.import_module(f"gridlab.{m}") for m in MODULES]
        for name in SPANS:
            module_name, attr = name.split(".")
            original = getattr(importlib.import_module(f"gridlab.{module_name}"), attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        # runs in a forked multiprocessing child before its target, after
        # the child's inherited exit finalizers were cleared
        self._reset()
        multiprocessing.util.Finalize(None, self.dump, exitpriority=100)

    def dump(self) -> None:
        payload = {"pid": self.pid, "spans": self.spans, "counters": dict(self.counters)}
        path = self.out_dir / f"spans-{self.pid}.json"
        path.write_text(json.dumps(payload))


def main(argv: list[str]) -> int:
    if len(argv) < 1:
        print(__doc__, file=sys.stderr)
        return 2
    if multiprocessing.get_start_method() != "fork":
        print("tracing needs pool workers forked with the wrappers in place", file=sys.stderr)
        return 2
    tracer = Tracer(Path(argv[0]))
    start = time.perf_counter_ns()
    import gridlab.cli

    tracer.record("cli.import", start, time.perf_counter_ns())
    tracer.install()
    try:
        return gridlab.cli.main(argv[1:])
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
