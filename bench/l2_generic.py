"""L2 time of both probe searches at generic points and on faces of the tetrahedron.

    PYTHONPATH=src python3 bench/l2_generic.py

The benchmark's sweeps sample edges at t = 0, 1/3, 2/3 and 1, where the
gates are vertices or lie on an edge; this script times `best_probe_h2` and
`maximize_over_probe` at CD t = 1/3 and 2/3 and at three interior gates,
with BLAS pinned to one thread.  It times the same at face gates, IS, ID,
CS and DS at t = 1/3 and 2/3 and the vertices S and D, where the searches
are reduced.  The H2 search makes one sigma solve, at the probe (0, 0), on
every one of them.  The QFI search searches phi1 alone on IS
and ID (the face ax = ay), returns at the pole probe (0, 0) with no scan or
simplex on DS, S and D, where that probe's channel is unitary, and keeps
the 2-D search on CS.  The two searches alternate per gate, so that drift
of the machine's speed hits both alike.

Counts the work of one search per stage.  For H2 these are the
`h2_conditional` calls, told apart by the config each stage passes: the scan
(`_COARSE`), the refinement (`_MEDIUM`) and the final solve (the default).
For the QFI these are the probes of the batched scan and the simplex's
evaluations, the `fisher._averages` calls that `maximize_over_probe` makes
outside `avg_trace_qfi`; both read 0 where the search returns at a pole.
On a face gate the H2 counts read 0 scan, 0 refinement and 1 final solve.
Prints one JSON object: per gate, the median and quartiles over rounds of
each search's time in ms, and the counts per stage, under "gates" for the
generic gates and under "face_gates" for the face gates.
"""

from __future__ import annotations

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from qrl import capacity, fisher  # noqa: E402
from qrl.capacity import _COARSE, _MEDIUM, DEFAULT_CONFIG, best_probe_h2  # noqa: E402
from qrl.fisher import maximize_over_probe  # noqa: E402
from qrl.unitary import VERTICES, UnitaryParams, edge_point  # noqa: E402

GATES = {
    "CD 1/3": edge_point("CD", 1.0 / 3.0),
    "CD 2/3": edge_point("CD", 2.0 / 3.0),
    "1.2,0.7,0.3": UnitaryParams(1.2, 0.7, 0.3),
    "1.0,0.6,0.2": UnitaryParams(1.0, 0.6, 0.2),
    "1.4,1.0,0.5": UnitaryParams(1.4, 1.0, 0.5),
}
FACE_GATES = {f"{edge} {k}/3": edge_point(edge, k / 3.0) for edge in ("IS", "ID", "CS", "DS") for k in (1, 2)}
FACE_GATES.update(S=VERTICES["S"], D=VERTICES["D"])
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


def count_qfi_stages(p) -> dict:
    """Scan probes and simplex evaluations of one maximize_over_probe: its
    _averages calls outside avg_trace_qfi, the first one the scan."""
    plain_avg, plain_trace = fisher._averages, fisher.avg_trace_qfi
    sizes, inside = [], [0]

    def counted(probes, *args):
        if not inside[0]:
            sizes.append(len(probes))
        return plain_avg(probes, *args)

    def traced(*args):
        inside[0] += 1
        try:
            return plain_trace(*args)
        finally:
            inside[0] -= 1

    fisher._averages, fisher.avg_trace_qfi = counted, traced
    try:
        maximize_over_probe(p)
    finally:
        fisher._averages, fisher.avg_trace_qfi = plain_avg, plain_trace
    return {"scan_probes": sizes[0] if sizes else 0, "simplex_evaluations": max(len(sizes) - 1, 0)}


def main() -> int:
    gates = {**GATES, **FACE_GATES}
    ms = {gate: {"h2": [], "qfi": []} for gate in gates}
    for r in range(ROUNDS + 1):
        for gate, p in gates.items():
            t0 = time.perf_counter()
            best_probe_h2(p)
            t1 = time.perf_counter()
            maximize_over_probe(p)
            t2 = time.perf_counter()
            if r:  # the first round warms the caches
                ms[gate]["h2"].append((t1 - t0) * 1e3)
                ms[gate]["qfi"].append((t2 - t1) * 1e3)
    report = {"rounds": ROUNDS, "gates": {}, "face_gates": {}}
    for key, group in (("gates", GATES), ("face_gates", FACE_GATES)):
        for gate, p in group.items():
            report[key][gate] = {
                "alpha": p.as_array().tolist(),
                "best_probe_h2": summary(ms[gate]["h2"]),
                "maximize_over_probe": summary(ms[gate]["qfi"]),
                "h2_conditional_calls": count_stages(p),
                "qfi_averages": count_qfi_stages(p),
            }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
