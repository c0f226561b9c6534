"""L2 time of both probe searches at generic points and on faces of the tetrahedron.

    PYTHONPATH=src python3 bench/l2_generic.py

The benchmark's sweeps sample edges at t = 0, 1/3, 2/3 and 1, where the
gates are vertices or lie on an edge; this script times `best_probe_h2` and
`maximize_over_probe` at CD t = 1/3 and 2/3 and at three interior gates,
with BLAS pinned to one thread.  It times the same at face gates, IS, ID,
CS and DS at t = 1/3 and 2/3 and the vertices S and D, where the searches
are reduced.  The H2 search makes one sigma solve, at the probe (0, 0), on
every one of them.  The QFI search takes the cutoff schedule at the pole
probe (pi, 0), with no table, stencil, scan or simplex, on IS, ID, DS, S
and D (the face ax = ay).  Every other gate reads its probe-affine table at
both poles and a tangent stencil about each (8 probes) and takes the
better pole where its tangent Hessian shows no ascent (the pole rule, CD
and the interior gates here); otherwise (CS) it runs the 2-D search: a
scan of 79 probes, phi2 on [0, pi) only, since the trapezoid rule on
theta2 keeps the Z (x) Z image (phi1, phi2 + pi) exact, then a simplex.
The two searches alternate per gate, so that drift of the machine's speed
hits both alike.

Counts the work of one search per stage.  For H2 these are the
`h2_conditional` calls, told apart by the config each stage passes: the scan
(`_COARSE`), the refinement (`_MEDIUM`) and the final solve (the default).
For the QFI these are the `fisher._averages` calls that
`maximize_over_probe` makes outside `avg_trace_qfi`: the stencil's probes,
the probes of the batched scan and the simplex's solves, and the rule
they add up to: "face pole" (no such call), "pole" (the stencil alone) or
"2-D" (stencil, scan and simplex).
On a face gate the H2 counts read 0 scan, 0 refinement and 1 final solve.
Beside the simplex's solves stand the points it evaluates (`simplex_points`,
each distinct point once): a search solves each distinct probe once, so a
point that names a probe solved before, such as the pole under another
phi2, adds a point and no solve (`channel.once_per_probe`).
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


def counting_simplex(module, points: list):
    """`module.nelder_mead` that adds to points[0] one per point a probe
    simplex (a 2-D search) evaluates; the sigma solve's 1-D search is left
    uncounted."""
    plain = module.nelder_mead

    def counted(f, x0, *args, **kwargs):
        if len(x0) != 2:
            return plain(f, x0, *args, **kwargs)

        def seen(x):
            points[0] += 1
            return f(x)

        return plain(seen, x0, *args, **kwargs)

    return counted


def count_stages(p) -> dict:
    """h2_conditional calls of one best_probe_h2 search, per stage, and the
    points its simplex evaluates."""
    plain, plain_nm = capacity.h2_conditional, capacity.nelder_mead
    configs, points = [], [0]

    def counted(rho, config=DEFAULT_CONFIG):
        configs.append(config)
        return plain(rho, config)

    capacity.h2_conditional, capacity.nelder_mead = counted, counting_simplex(capacity, points)
    try:
        best_probe_h2(p)
    finally:
        capacity.h2_conditional, capacity.nelder_mead = plain, plain_nm
    counts = {name: sum(c is config for c in configs) for name, config in STAGES.items()}
    return {**counts, "simplex_points": points[0]}


def count_qfi_stages(p) -> dict:
    """The rule, stencil and scan probes, simplex solves and simplex points
    of one maximize_over_probe: its _averages calls outside avg_trace_qfi,
    in order the pole stencil, the scan and the simplex's, and the points
    the simplex evaluates."""
    plain_avg, plain_trace, plain_nm = fisher._averages, fisher.avg_trace_qfi, fisher.nelder_mead
    sizes, inside, points = [], [0], [0]

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
    fisher.nelder_mead = counting_simplex(fisher, points)
    try:
        maximize_over_probe(p)
    finally:
        fisher._averages, fisher.avg_trace_qfi, fisher.nelder_mead = plain_avg, plain_trace, plain_nm
    stencil, scan, simplex = sizes[:1], sizes[1:2], sizes[2:]
    rule = "2-D" if scan else "pole" if stencil else "face pole"
    return {
        "rule": rule,
        "stencil_probes": sum(stencil),
        "scan_probes": sum(scan),
        "simplex_solves": len(simplex),
        "simplex_points": points[0],
    }


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
