"""L1 time and minor page faults per QFI kernel call, by call shape, against
the reference kernel.

    PYTHONPATH=src python3 bench/l1_kernel.py

Times `qrl.fisher._averages` and `averages_reference` from
`tests/oracles.py`, the same kernel with fresh temporaries per block and per
cutoff, on each call shape that the benchmark's QFI workloads make: the
sphere search's one-probe simplex call and 79-probe scan (three CS gates),
the pole stencil's 8 probes, the face base grid 32x2 and the base grid
32x32 over the five default cutoffs, and the ladder's rungs 64x64 and
128x128 over three cutoffs and 256x256 over two (three gates each).  Within a
round the two kernels alternate on every call, the one that goes first
alternating with the round, so that drift of the machine's speed hits both
alike; BLAS is pinned to one thread.  The first round warms the angular
tables and is not counted.

Minor page faults depend on what the C allocator holds, and so on every
call a process made before, so each kernel also runs each shape's calls
alone, the same rounds in a fresh interpreter (`multiprocessing`'s spawn),
which counts its faults per call with `resource.getrusage` around each
call, again without the first round.

Prints one JSON object: per shape, each kernel's median and quartiles in us
per call, the quartiles of the paired ratio kernel / reference, and each
kernel's minor page faults per call.  Exits 1 if the two kernels ever
differ in a bit.
"""

from __future__ import annotations

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import numpy as np  # noqa: E402

from oracles import averages_reference  # noqa: E402
from qrl import fisher  # noqa: E402
from qrl.channel import probe_scan, probe_table, table_at  # noqa: E402
from qrl.fisher import DEFAULT_ETA_SCHEDULE, QuadSpec  # noqa: E402
from qrl.unitary import UnitaryParams, edge_point  # noqa: E402

# the sphere search runs on the face ay == az (the CS edge), the pole
# stencil, base grids and rungs on the other gates off the face ax == ay,
# and the face base grid on that face, at its pole probe
SEARCH_GATES = tuple(edge_point("CS", t) for t in (0.25, 0.5, 0.75))
GATES = (UnitaryParams(1.2, 0.7, 0.3), edge_point("CD", 0.6), edge_point("IC", 0.4))
FACE_GATES = (edge_point("ID", 0.3), edge_point("IS", 0.5), edge_point("DS", 0.4))
POLE = np.array([[math.pi, 0.0]])
ROUNDS = 20
KERNELS = {"kernel": fisher._averages, "reference": averages_reference}


def at_probes(p: UnitaryParams, probes: np.ndarray):
    """The kernel's (probes, affine) arguments for gate p, off its table."""
    return probes, table_at(probe_table(lambda q: fisher._probe_affine(p, q)), probes)


def shapes() -> dict:
    """Per shape name: its grid, its cutoffs and one (probes, affine) per gate."""
    simplex = np.array([[math.pi / 2, 1.35]])  # near the optimum of the CS edge
    return {
        "simplex 32x32 x1": (QuadSpec(), [1e-2], [at_probes(p, simplex) for p in SEARCH_GATES]),
        "scan 79 x 32x32 x1": (QuadSpec(), [1e-2], [at_probes(p, probe_scan(13, 7, math.pi)) for p in SEARCH_GATES]),
        "stencil 8 x 32x32 x1": (QuadSpec(), [1e-2], [at_probes(p, fisher._POLE_STENCIL) for p in GATES]),
        "face base 32x2 x5": (QuadSpec(32, 2), list(DEFAULT_ETA_SCHEDULE), [at_probes(p, POLE) for p in FACE_GATES]),
        "base 32x32 x5": (QuadSpec(), list(DEFAULT_ETA_SCHEDULE), [at_probes(p, POLE) for p in GATES]),
        "rung 64x64 x3": (QuadSpec(64, 64), [1e-4, 1e-5, 1e-6], [at_probes(p, POLE) for p in GATES]),
        "rung 128x128 x3": (QuadSpec(128, 128), [1e-4, 1e-5, 1e-6], [at_probes(p, POLE) for p in GATES]),
        "rung 256x256 x2": (QuadSpec(256, 256), [1e-5, 1e-6], [at_probes(p, POLE) for p in GATES]),
    }


def faults_alone(name: str, shape: str) -> float:
    """Minor page faults per call of one kernel on one shape's calls, over
    ROUNDS rounds after a warm-up round, in this process."""
    kernel, (quad, etas, calls) = KERNELS[name], shapes()[shape]
    faults = 0
    for r in range(ROUNDS + 1):
        for probes, affine in calls:
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            kernel(probes, affine, quad, etas)
            if r:
                faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
    return faults / (ROUNDS * len(calls))


def quartiles(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3}


def main() -> int:
    cases = shapes()
    us = {name: {k: [] for k in KERNELS} for name in cases}
    for r in range(ROUNDS + 1):
        order = list(KERNELS) if r % 2 else list(KERNELS)[::-1]
        for name, (quad, etas, calls) in cases.items():
            for probes, affine in calls:
                results = {}
                for k in order:
                    t0 = time.perf_counter()
                    results[k] = KERNELS[k](probes, affine, quad, etas)
                    if r:  # the first round warms the angular tables
                        us[name][k].append((time.perf_counter() - t0) * 1e6)
                if not np.array_equal(results["kernel"], results["reference"]):
                    print(f"{name}: the kernel and the reference differ", file=sys.stderr)
                    return 1
    faults = {k: {} for k in KERNELS}
    for name in cases:
        for k in KERNELS:
            with multiprocessing.get_context("spawn").Pool(1) as pool:
                faults[k][name] = pool.apply(faults_alone, (k, name))
    report = {"rounds": ROUNDS, "shapes": {}}
    for name in cases:
        ratios = [a / b for a, b in zip(us[name]["kernel"], us[name]["reference"])]
        report["shapes"][name] = {
            **{f"{k}_us": quartiles(us[name][k]) for k in KERNELS},
            "paired_ratio": quartiles(ratios),
            **{f"{k}_faults_per_call": faults[k][name] for k in KERNELS},
        }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
