"""Seeded workload plans and the loop that runs them against the clock.

A plan is a list of units, each one call into the program's public front
end: an edge sweep through ``harness.run_edge_sweep`` or a single query
through ``harness.point_report``.  The seed fixes the plan; the program only
ever sees the generated edges, sample counts, gates and probes.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

EDGES = ("IC", "IS", "ID", "CS", "CD", "DS")
HALF_PI = math.pi / 2.0

# samples per edge.  Every edge gets the same count, as in a default sweep
# of all six edges, so each edge has the same weight as there, and every
# seed sweeps the same points; the seed picks the edge order.  Every grid
# holds both endpoints.
SWEEP_SAMPLES = 4
SWEEP_METRIC = {"h2-sweep": "h2", "qfi-sweep": "qfi"}
FIXED_PROBE_QUERIES = 64

# (name, alpha, probe) anchor queries added to every fixed-probe plan
FIXED_ANCHORS = (
    ("C", (HALF_PI, 0.0, 0.0), (math.pi, 0.0)),
    ("S", (HALF_PI, HALF_PI, HALF_PI), (0.0, 0.0)),
)


def _kronecker(d: int) -> tuple:
    """Generator of the additive-recurrence low-discrepancy sequence in d
    dimensions: powers of 1/phi_d, phi_d the positive root of x^(d+1) = x + 1."""
    phi = 2.0
    for _ in range(60):
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    return tuple(phi ** -(j + 1) for j in range(d))


# fixed-probe queries: the first points of the Kronecker sequence in the
# unit 5-cube (three gate angles, two probe coordinates), which cover the
# ordered tetrahedron and the sphere evenly.  The set is the same for every
# seed, which orders it: query costs run from 60 ms to 1 s in two clusters,
# and the median of any 64 seeded random queries moves by 25-50% between
# seeds, more than any change worth measuring.
_KRONECKER = _kronecker(5)

WORKLOADS = ("h2-sweep", "qfi-sweep", "qfi-fixed-probe")


@dataclass(frozen=True)
class Unit:
    """One call into the program."""

    kind: str  # "sweep" or "point"
    edge: str = ""
    metric: str = ""
    samples: int = 0
    alpha: tuple = ()
    probe: tuple = ()
    anchor: str = ""

    @property
    def points(self) -> int:
        return self.samples if self.kind == "sweep" else 1

    def describe(self) -> dict:
        if self.kind == "sweep":
            return {"edge": self.edge, "metric": self.metric, "samples": self.samples}
        return {"alpha": list(self.alpha), "probe": list(self.probe), "anchor": self.anchor}


def make_plan(workload: str, seed: int) -> list:
    """The seeded unit list; a run makes whole passes over it."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in SWEEP_METRIC:
        order = rng.sample(EDGES, len(EDGES))
        return [Unit("sweep", edge=e, metric=SWEEP_METRIC[workload], samples=SWEEP_SAMPLES) for e in order]
    if workload == "qfi-fixed-probe":
        plan = [Unit("point", alpha=a, probe=q, anchor=name) for name, a, q in FIXED_ANCHORS]
        for i in range(1, FIXED_PROBE_QUERIES + 1):
            x = [(i * g) % 1.0 for g in _KRONECKER]
            alpha = tuple(sorted((HALF_PI * c for c in x[:3]), reverse=True))
            probe = (math.acos(1.0 - 2.0 * x[3]), 2.0 * math.pi * x[4])
            plan.append(Unit("point", alpha=alpha, probe=probe))
        rng.shuffle(plan)
        return plan
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


@dataclass
class UnitResult:
    unit: Unit
    fields: list  # one list of CSV fields per row; empty when the call raised
    started: float  # perf_counter seconds when the call began
    outside_ms: float
    error: str = ""


def call_unit(qrl, unit: Unit, sweep_call=None, point_call=None) -> UnitResult:
    """Run one unit; the optional wrappers let the tracer put a root span
    around the front-end call."""
    harness = qrl.harness
    if unit.kind == "sweep":
        cfg = harness.SweepConfig(edge=unit.edge, metric=unit.metric, samples=unit.samples, workers=1)
        fn, args = harness.run_edge_sweep, (cfg,)
        fn = sweep_call(fn) if sweep_call else fn
    else:
        args = (qrl.UnitaryParams(*unit.alpha), qrl.ProbeState(*unit.probe))
        fn = point_call(harness.point_report) if point_call else harness.point_report
    started = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # a raised call is a failed point, not a crash
        return UnitResult(unit, [], started, (time.perf_counter() - started) * 1e3, f"{type(exc).__name__}: {exc}")
    outside_ms = (time.perf_counter() - started) * 1e3
    reports = out if unit.kind == "sweep" else [out]
    return UnitResult(unit, [r.csv_fields() for r in reports], started, outside_ms)


def run_for(qrl, plan: list, seconds: float, call=call_unit):
    """Run the whole plan, then again while one more pass would fit in
    `seconds` at the pace so far, so that every run holds the same mix of
    points.  Returns the results of `call(qrl, unit)`."""
    results = []
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if results and elapsed * (len(results) + len(plan)) / len(results) > seconds:
            break
        results += [call(qrl, u) for u in plan]
    return results
