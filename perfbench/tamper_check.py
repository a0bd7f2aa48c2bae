"""Show that the output check catches a wrong table and passes a right one.

usage: python3 perfbench/tamper_check.py

Runs ``csv_detail`` once at a seed with a shipped reference, then checks
three copies of its ``frontier.csv`` against that reference: as
written, with one numeric cell moved by 1e-12 relative (inside the
1e-9 gate, must pass), and with the same cell moved by 1e-8 relative
(must fail).  The program itself is not touched.  Exits 0 when all
three verdicts are as expected.
"""

from __future__ import annotations

import csv
import io
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import REL_TOL, compare_tables, load_reference  # noqa: E402
from run import ROOT, Bench, reference_path  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 0


def _nudge(text: str, rel: float) -> str:
    """Scale the first row's ``npv_total_rs`` by ``1 + rel``."""
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index("npv_total_rs")
    rows[1][col] = repr(float(rows[1][col]) * (1.0 + rel))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def main() -> int:
    workload = WORKLOADS["csv_detail"]
    reference = load_reference(reference_path(workload), SEED)
    if reference is None:
        print(f"no reference for {workload.name} seed {SEED}", file=sys.stderr)
        return 2
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="tamper-", dir=ROOT / ".perfbench-work"))
    try:
        bench = Bench(workload, SEED, work)
        _, out, _ = bench.run()
        written = (out / "frontier.csv").read_text()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    want = reference["frontier.csv"]
    cases = (
        ("as written", written, True),
        ("one cell x (1 + 1e-12)", _nudge(written, 1e-12), True),
        ("one cell x (1 + 1e-8)", _nudge(written, 1e-8), False),
    )
    ok = True
    for label, text, should_pass in cases:
        wrong = compare_tables("frontier.csv", text, want, rel_tol=REL_TOL)
        passed = not wrong
        verdict = "pass" if passed else f"reject (scenarios {sorted(wrong)})"
        expected = passed == should_pass
        ok &= expected
        print(f"{label:24s} {verdict:32s} {'as expected' if expected else 'UNEXPECTED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
