"""L2 time of both probe searches at generic points of the tetrahedron.

    PYTHONPATH=src python3 bench/l2_generic.py

The benchmark's sweeps sample edges at t = 0, 1/3, 2/3 and 1, where the
gates are vertices or lie on an edge; this script times `best_probe_h2` and
`maximize_over_probe` at CD t = 1/3 and 2/3 and at three interior gates,
with BLAS pinned to one thread.  The two searches alternate per gate, so
that drift of the machine's speed hits both alike.  Counts the
`h2_conditional` calls of one H2 search per stage, told apart by the
config each stage passes: the scan (`_COARSE`), the refinement (`_MEDIUM`)
and the final solve (the default).  Prints one JSON object: per gate, the
median and quartiles over rounds of each search's time in ms, and the
calls per stage.
"""

from __future__ import annotations

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from qrl import capacity  # noqa: E402
from qrl.capacity import _COARSE, _MEDIUM, DEFAULT_CONFIG, best_probe_h2  # noqa: E402
from qrl.fisher import maximize_over_probe  # noqa: E402
from qrl.unitary import UnitaryParams, edge_point  # noqa: E402

GATES = {
    "CD 1/3": edge_point("CD", 1.0 / 3.0),
    "CD 2/3": edge_point("CD", 2.0 / 3.0),
    "1.2,0.7,0.3": UnitaryParams(1.2, 0.7, 0.3),
    "1.0,0.6,0.2": UnitaryParams(1.0, 0.6, 0.2),
    "1.4,1.0,0.5": UnitaryParams(1.4, 1.0, 0.5),
}
STAGES = {"scan": _COARSE, "refine": _MEDIUM, "final": DEFAULT_CONFIG}
ROUNDS = 5


def summary(ms: list) -> dict:
    q1, med, q3 = statistics.quantiles(ms, n=4)
    return {"median_ms": med, "q1_ms": q1, "q3_ms": q3}


def count_stages(p) -> dict:
    """h2_conditional calls of one best_probe_h2 search, per stage."""
    plain = capacity.h2_conditional
    configs = []

    def counted(rho, config=DEFAULT_CONFIG):
        configs.append(config)
        return plain(rho, config)

    capacity.h2_conditional = counted
    try:
        best_probe_h2(p)
    finally:
        capacity.h2_conditional = plain
    return {name: sum(c is config for c in configs) for name, config in STAGES.items()}


def main() -> int:
    ms = {gate: {"h2": [], "qfi": []} for gate in GATES}
    for r in range(ROUNDS + 1):
        for gate, p in GATES.items():
            t0 = time.perf_counter()
            best_probe_h2(p)
            t1 = time.perf_counter()
            maximize_over_probe(p)
            t2 = time.perf_counter()
            if r:  # the first round warms the caches
                ms[gate]["h2"].append((t1 - t0) * 1e3)
                ms[gate]["qfi"].append((t2 - t1) * 1e3)
    report = {"rounds": ROUNDS, "gates": {}}
    for gate, p in GATES.items():
        report["gates"][gate] = {
            "alpha": p.as_array().tolist(),
            "best_probe_h2": summary(ms[gate]["h2"]),
            "maximize_over_probe": summary(ms[gate]["qfi"]),
            "h2_conditional_calls": count_stages(p),
        }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
