"""Self-test of the benchmark's output checker; needs no qrl.

    python3 perfbench/selftest.py

Builds well-formed rows for each workload, requires the checker to accept
them, then requires it to reject every perturbed copy (failed status, wrong
gate, impossible probe or value, anchor value moved past its tolerance, a
CS drop in t) and requires the ledger to reject a one-digit change.  Every
benchmark run repeats the perturbation half of this on its own first rows.
"""

from __future__ import annotations

import math
import os
import sys
import tempfile

import checks
from workloads import Unit

HALF_PI = math.pi / 2.0


def fmt(x) -> str:
    return "" if x is None else f"{x:.12g}"


def row(edge, t, alpha, metric, value, status, probe=(1.0, 0.5), sigma=None, ms=1000.0):
    sigma = sigma or (None, None, None)
    norm = math.sqrt(sum(a * a for a in alpha))
    return [edge, fmt(t), *map(fmt, alpha), fmt(norm), metric, fmt(value), status,
            *map(fmt, probe), *map(fmt, sigma), fmt(ms)]


def sweep_rows(edge, metric, values, statuses, sigma=None):
    n = len(values)
    out = []
    for i, (v, st) in enumerate(zip(values, statuses)):
        t = i / (n - 1)
        out.append(row(edge, t, checks.EDGE_ALPHA[edge](t * HALF_PI), metric, v, st, sigma=sigma))
    return out


def cases():
    boundary = (0.0, 0.0, 0.9999999)
    h2 = lambda e, vs, sts: ("h2-sweep", Unit("sweep", edge=e, metric="h2", samples=len(vs)),
                             sweep_rows(e, "h2", vs, sts, boundary))
    qfi = lambda e, vs, sts: ("qfi-sweep", Unit("sweep", edge=e, metric="qfi", samples=len(vs)),
                              sweep_rows(e, "qfi", vs, sts))
    c_probe = Unit("point", alpha=(HALF_PI, 0.0, 0.0), probe=(math.pi, 0.0), anchor="C")
    rand = Unit("point", alpha=(1.2, 0.7, 0.3), probe=(2.0, 4.0))
    return [
        h2("DS", [0.999999997] * 3, ["ok"] * 3),
        h2("IC", [0.0, 0.0, 0.0, 0.0], ["clamped"] * 4),
        h2("CS", [0.0, 0.4, 0.7, 1.0], ["clamped", "ok", "ok", "ok"]),
        qfi("CS", [1.761084, 3.2, None], ["ok", "ok", "divergent"]),
        qfi("IC", [0.0, 1.761084], ["ok", "ok"]),
        ("qfi-fixed-probe", c_probe,
         [row("point", 0.0, c_probe.alpha, "qfi", 1.761084, "ok", probe=(math.pi, 0.0))]),
        ("qfi-fixed-probe", rand,
         [row("point", 0.0, rand.alpha, "qfi", 2.5, "ok", probe=rand.probe)]),
    ]


def main() -> int:
    failures = []
    for workload, unit, rows in cases():
        name = f"{workload} {unit.describe()}"
        errs, _ = checks.check_unit(workload, unit, rows)
        if any(errs):
            failures.append(f"{name}: good rows rejected: {errs}")
            continue
        for i, good in enumerate(rows):
            for bad in checks.perturbations(unit, good):
                trial = list(rows)
                trial[i] = bad
                if not any(checks.check_unit(workload, unit, trial)[0]):
                    failures.append(f"{name}: accepted {checks.row_key(bad)}")
        if workload == "h2-sweep" and unit.edge == "CS":
            swapped = list(rows)
            swapped[1], swapped[2] = sweep_rows("CS", "h2", [0.0, 0.7, 0.4, 1.0], ["clamped", "ok", "ok", "ok"],
                                                (0.0, 0.0, 0.9999999))[1:3]
            if not any(checks.check_unit(workload, unit, swapped)[0]):
                failures.append(f"{name}: accepted a drop in t")

    keys = [checks.row_key(r) for _, _, rows in cases() for r in rows]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ledger.txt")
        if checks.ledger_check(path, keys[:3]) != (True, 0):
            failures.append("ledger: first record not accepted")
        if checks.ledger_check(path, keys) != (True, 3):
            failures.append("ledger: longer matching run not accepted")
        changed = list(keys)
        changed[4] = changed[4].replace("1", "2", 1)
        if checks.ledger_check(path, changed)[0]:
            failures.append("ledger: one-digit change accepted")
    for f in failures:
        print("FAIL", f)
    print("selftest:", "ok" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
