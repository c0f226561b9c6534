"""Every result row of the benchmark's workloads and the report commands,
without wall time: a digest for changes that must move no value.

    PYTHONPATH=src python3 bench/rows.py > rows.txt

Runs the seed-1 plan of each benchmark workload once, through
`perfbench/workloads.py`'s `make_plan` and `call_unit`, then the I, C, S and
D vertex reports, the bound table at alpha = (1.2, 0.7, 0.3) and the
averaged-QFI point report there, at the optimized probe and at probe
(1.1, 0.4), with BLAS pinned to one thread.  Prints one line per row: a
label (the workload, `vertex`, `bound` or `point`) and the row's CSV fields
without `wall_time_ms`; the bound table's first line is its probe optimum
(h2, probe, sigma).  Two trees that compute the same values print the same
bytes, so a `diff` of their outputs is the check.  Exits 1 if a workload
unit raised.
"""

from __future__ import annotations

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import qrl  # noqa: E402
from qrl.harness import _fmt, point_report, run_bound_table, run_vertex_report  # noqa: E402
from workloads import WORKLOADS, call_unit, make_plan  # noqa: E402

SEED = 1
ALPHA = qrl.UnitaryParams(1.2, 0.7, 0.3)
PROBE = qrl.ProbeState(1.1, 0.4)
EPSILONS = (0.01, 0.05, 0.1)
NS = (100, 1000)


def line(label: str, fields) -> str:
    return ",".join([label, *fields])


def main() -> int:
    failed = 0
    for workload in WORKLOADS:
        for unit in make_plan(workload, SEED):
            res = call_unit(qrl, unit)
            if res.error:
                failed += 1
                print(f"{workload}: {unit.describe()} raised {res.error}", file=sys.stderr)
            for fields in res.fields:
                print(line(workload, fields[:-1]))
    for vertex in "ICSD":
        for report in run_vertex_report(vertex, 0.05, 1000):
            print(line("vertex", report.csv_fields()[:-1]))
    opt, rows = run_bound_table(ALPHA, EPSILONS, NS)
    print(line("bound", map(_fmt, (opt.h2, opt.probe.phi1, opt.probe.phi2, *opt.sigma))))
    for eps, n, *values in rows:
        print(line("bound", [_fmt(eps), str(n), *map(_fmt, values)]))
    for probe in (None, PROBE):
        print(line("point", point_report(ALPHA, probe).csv_fields()[:-1]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
