"""gridlab benchmark: timed, checked runs of the real CLI on one workload.

usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload NAME --seed N --write-reference

Run from the root of a gridlab checkout; the program is run from its
``src`` directory.  One CLI process runs at a time, closed loop, each
with a fresh output directory.  Wall time is taken from spawn to exit;
CPU time (user plus system) and peak resident memory of the largest
process come from ``os.wait4`` and cover the whole process tree.

``--trace 0`` alternates a ``--validate-only`` run (set-up) with a full
run until ``--seconds`` is used up and reports the end-to-end metrics as
medians.  ``--trace 1`` alternates untraced runs
with runs under ``tracer.py`` and reports the per-layer metrics (medians
over the traced runs) and the tracing overhead.  Every run's outputs are
checked (see ``checks.py``).  The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` count scenarios
over all runs, and ``metrics`` maps each name to its value and unit.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import REL_TOL, RunBroken, check_run, compare_tables, load_reference, write_reference  # noqa: E402
from layers import layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload, input_args  # noqa: E402

#: fewest full runs (and set-up runs) an invocation makes
MIN_RUNS = 5
#: fewest traced runs (each paired with an untraced one) an invocation makes
MIN_TRACED = 3
#: processes still running this long after the invocation started are
#: killed, so that it ends well within its 180 s allowance
DEADLINE_S = 150.0

CLI = [sys.executable, "-m", "gridlab.cli"]


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


def _kill_group(pgid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pgid, signal.SIGKILL)


def spawn(argv: list[str], log_path: Path, timeout_s: float) -> Proc:
    """Run one process tree to completion and measure it; the tree is
    killed after ``timeout_s``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.pop("GRIDLAB_LOG", None)
    with log_path.open("wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log,
            stderr=subprocess.STDOUT, start_new_session=True,
        )
        killer = threading.Timer(max(timeout_s, 0.0), _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
    )


class Bench:
    """Runs of one workload at one seed, with their output checks."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.work = work
        self.inputs = input_args(workload, seed, work / "in")
        self.reference = load_reference(reference_path(workload), seed)
        self.first_tables: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._count = 0
        self._deadline = time.perf_counter() + DEADLINE_S

    def _spawn(self, argv: list[str], log_path: Path) -> Proc:
        return spawn(argv, log_path, self._deadline - time.perf_counter())

    def setup(self) -> float:
        """Wall time of one ``--validate-only`` run."""
        proc = self._spawn([*CLI, "--validate-only", *self.inputs], self.work / "setup.log")
        text = (self.work / "setup.log").read_text()
        if proc.exit_code != 0 or f"scenarios: {self.workload.scenario_count}" not in text:
            raise SystemExit(f"set-up run failed (exit {proc.exit_code}):\n{text}")
        return proc.wall_s

    def run(self, trace_dir: Path | None = None) -> tuple[Proc, Path, bool]:
        """One full run; returns its measurements, its output directory
        and whether its outputs passed every check."""
        self._count += 1
        out = self.work / f"out-{self._count}"
        if trace_dir is None:
            argv = CLI
        else:
            trace_dir.mkdir()
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_dir)]
        proc = self._spawn([*argv, *self.inputs, "--out", str(out)], self.work / f"run-{self._count}.log")
        return proc, out, self._check(out, proc.exit_code)

    def _check(self, out: Path, exit_code: int) -> bool:
        n = self.workload.scenario_count
        self.attempted += n
        try:
            wrong, tables = check_run(out, exit_code, n, self.workload.year_detail)
            if self.first_tables is None:
                self.first_tables = tables
            for name, text in tables.items():
                if text != self.first_tables[name]:
                    wrong |= set(range(n))
                if self.reference is not None:
                    wrong |= compare_tables(name, text, self.reference[name], rel_tol=REL_TOL)
            if wrong:
                self.problems.append(f"run {self._count}: scenarios {sorted(wrong)} wrong")
        except (RunBroken, OSError, ValueError, IndexError, KeyError) as exc:
            # a malformed or missing table condemns the whole run
            self.problems.append(f"run {self._count}: {type(exc).__name__}: {exc}")
            wrong = set(range(n))
        self.failed += len(wrong)
        return not wrong


def reference_path(workload: Workload) -> Path:
    return HERE / "ref" / f"{workload.name}.json.gz"


def _out_bytes(out: Path) -> int:
    """Bytes of every table a run wrote; the manifest carries timing."""
    return sum(p.stat().st_size for p in out.iterdir() if p.name != "manifest.json")


def _relaxed_slots(out: Path) -> int:
    with (out / "results_by_year.csv").open() as fh:
        return sum(int(row["flex_relaxed_slots"]) for row in csv.DictReader(fh))


def measure_end_to_end(bench: Bench, seconds: float) -> dict[str, float]:
    # set-up and full runs alternate, so both sample the whole window
    start = time.perf_counter()
    setups: list[float] = []
    runs: list[Proc] = []
    while len(runs) < MIN_RUNS or (
        time.perf_counter() - start
        + statistics.median(setups) + statistics.median(r.wall_s for r in runs)
        <= seconds
    ):
        setups.append(bench.setup())
        proc, out, _ = bench.run()
        shutil.rmtree(out, ignore_errors=True)
        runs.append(proc)
    run_s = statistics.median(r.wall_s for r in runs)
    return {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "scenarios_per_s": bench.workload.scenario_count / run_s,
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
    }


def measure_layers(bench: Bench, seconds: float) -> dict[str, float]:
    start = time.perf_counter()
    plain: list[float] = []
    traced: list[float] = []
    samples: list[dict[str, float]] = []
    while len(traced) < MIN_TRACED or (
        time.perf_counter() - start + statistics.median(plain) + statistics.median(traced)
        <= seconds
    ):
        proc, out, _ = bench.run()
        shutil.rmtree(out, ignore_errors=True)
        plain.append(proc.wall_s)

        trace_dir = bench.work / f"trace-{len(traced)}"
        proc, out, ok = bench.run(trace_dir)
        traced.append(proc.wall_s)
        if ok:
            sample = layer_metrics(trace_dir, proc.wall_s, bench.workload.parallelism)
            sample["cli.out_bytes"] = _out_bytes(out)
            sample["dispatch.relaxed_slots"] = _relaxed_slots(out)
            samples.append(sample)
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(trace_dir, ignore_errors=True)
    if not samples:
        raise SystemExit("no traced run finished")
    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="run once and store frontier.csv and results_by_year.csv as this seed's reference",
    )
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running CLI is killed and scratch removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "gridlab" / "cli.py").is_file():
        print(f"no gridlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=ROOT / ".perfbench-work"))
    try:
        bench = Bench(workload, args.seed, work)
        if args.write_reference:
            bench.reference = None
            _, out, ok = bench.run()
            if not ok:
                print("\n".join(bench.problems), file=sys.stderr)
                return 1
            write_reference(reference_path(workload), args.seed, out)
            return 0
        if args.trace:
            values = measure_layers(bench, args.seconds)
        else:
            values = measure_end_to_end(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(values) != set(units):
        print(f"measured metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}",
              file=sys.stderr)
        return 2

    correct = bench.failed == 0 and not bench.problems
    for name, value in values.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    reference = "with reference" if bench.reference is not None else "no reference for this seed"
    print(f"check: {'ok' if correct else 'FAILED'} ({reference}); "
          f"{bench.failed} of {bench.attempted} scenarios wrong")
    for problem in bench.problems:
        print(f"  {problem}")
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
