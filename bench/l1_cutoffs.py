"""L1 time of one averaged-QFI call over three cutoffs against three calls.

    PYTHONPATH=src python3 bench/l1_cutoffs.py

Times `avg_trace_qfi` on the ladder's 256x256 angular grid at its three
cutoffs (1e-4, 1e-5, 1e-6): one call that carries all three, and three
one-cutoff calls.  The two are interleaved, so that drift of the machine's
speed hits both alike, over three finite gate/probe pairs, with BLAS pinned
to one thread.  Prints one JSON object: the median and quartiles of each
in ms per gate/probe pair, and the quartiles of the ratio one call / three
calls within each interleaved pair.  Exits 1 if the
two ever differ in a bit.
"""

from __future__ import annotations

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from qrl import ProbeState, QuadSpec, avg_trace_qfi  # noqa: E402
from qrl.unitary import edge_point  # noqa: E402

ETAS = (1e-4, 1e-5, 1e-6)
QUAD = QuadSpec(48, 256, 256)
CASES = (
    (edge_point("CS", 0.5)[0], ProbeState(1.2, 0.7)),
    (edge_point("ID", 0.3)[0], ProbeState(2.2, 5.1)),
    (edge_point("IC", 0.6)[0], ProbeState(math.pi, 0.0)),
)
ROUNDS = 40


def summary(ms: list) -> dict:
    q1, med, q3 = statistics.quantiles(ms, n=4)
    return {"median_ms": med, "q1_ms": q1, "q3_ms": q3}


def main() -> int:
    one, three = [], []
    for r in range(ROUNDS + 1):
        for p, probe in CASES:
            t0 = time.perf_counter()
            joint = avg_trace_qfi(p, probe, QUAD, ETAS)
            t1 = time.perf_counter()
            apart = tuple(avg_trace_qfi(p, probe, QUAD, eta) for eta in ETAS)
            t2 = time.perf_counter()
            if joint != apart:
                print(f"values differ: {joint!r} != {apart!r}", file=sys.stderr)
                return 1
            if r:  # the first round warms the angular tables
                one.append((t1 - t0) * 1e3)
                three.append((t2 - t1) * 1e3)
    report = {
        "grid": [QUAD.n_theta1, QUAD.n_theta2],
        "etas": list(ETAS),
        "samples": len(one),
        "one_call_over_three_cutoffs": summary(one),
        "three_one_cutoff_calls": summary(three),
    }
    q1, med, q3 = statistics.quantiles([a / b for a, b in zip(one, three)], n=4)
    report["paired_ratio"] = {"median": med, "q1": q1, "q3": q3}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
