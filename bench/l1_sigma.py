"""L1 time and evaluation count of the sigma solve in H2(B|F).

    PYTHONPATH=src python3 bench/l1_sigma.py

Times `h2_conditional` at the three settings the probe search runs it with
(`_COARSE` for the scan, `_MEDIUM` for the refinement, the default for the
final solve) on the 43 states of `best_probe_h2`'s probe scan, for three
gates: CS at t = 1/2 (optimum inside the ball), IC at t = 1/2 (optimum at
x = 0) and S (optimum at the cap), with BLAS pinned to one thread.  Counts
the radial-profile evaluations per solve, the seven seed evaluations
included.  Times the pole closed form `h2_at_pole` beside `h2_conditional`
at its default settings on the same pole states, the probe (0, 0) of every
edge at 41 t (the states of every face and vertex row), the two
alternating in each round.  Prints one JSON object: per setting, the
median and quartiles over rounds of the mean time per solve in us, and the
mean evaluations per solve, overall and per gate; under "pole", the same
times of both solves and their ratio.
"""

from __future__ import annotations

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from qrl import capacity  # noqa: E402
from qrl.capacity import _COARSE, _MEDIUM, DEFAULT_CONFIG, h2_at_pole, h2_conditional  # noqa: E402
from qrl.channel import ProbeState, choi_bf, probe_scan, probe_table, stinespring_isometry, table_at  # noqa: E402
from qrl.unitary import VERTICES, edge_point  # noqa: E402

GATES = {"CS": edge_point("CS", 0.5), "IC": edge_point("IC", 0.5), "S": VERTICES["S"]}
CONFIGS = {"coarse": _COARSE, "medium": _MEDIUM, "default": DEFAULT_CONFIG}
POLE_SOLVES = {"h2_conditional": h2_conditional, "h2_at_pole": h2_at_pole}
ROUNDS = 15


def scan_states(p) -> list:
    """rho_BF at the probes of best_probe_h2's scan, read off its table."""
    table = probe_table(lambda probe: choi_bf(stinespring_isometry(p, probe)))
    return list(table_at(table, probe_scan(7, 7, math.pi / 2.0)))


def pole_states() -> list:
    """rho_BF at the probe (0, 0) of every edge at 41 t."""
    ts = [k / 40.0 for k in range(41)]
    return [choi_bf(stinespring_isometry(edge_point(e, t), ProbeState(0.0, 0.0)))
            for e in ("IS", "ID", "DS", "IC", "CS", "CD") for t in ts]


def quartiles(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3}


def count_evaluations(states: dict) -> dict:
    profile = capacity._RadialProfile
    plain = profile.__call__
    calls = [0]

    def counted(self, x):
        calls[0] += 1
        return plain(self, x)

    profile.__call__ = counted
    try:
        out = {}
        for name, config in CONFIGS.items():
            per_gate = {}
            for gate, rhos in states.items():
                calls[0] = 0
                for rho in rhos:
                    h2_conditional(rho, config)
                per_gate[gate] = calls[0] / len(rhos)
            out[name] = per_gate
        return out
    finally:
        profile.__call__ = plain


def main() -> int:
    states = {gate: scan_states(p) for gate, p in GATES.items()}
    rhos = [rho for gate_states in states.values() for rho in gate_states]
    poles = pole_states()
    us = {name: [] for name in CONFIGS}
    pole_us = {name: [] for name in POLE_SOLVES}
    for r in range(ROUNDS + 1):
        for name, config in CONFIGS.items():
            t0 = time.perf_counter()
            for rho in rhos:
                h2_conditional(rho, config)
            if r:  # the first round warms the caches
                us[name].append((time.perf_counter() - t0) * 1e6 / len(rhos))
        for name, solve in POLE_SOLVES.items():
            t0 = time.perf_counter()
            for rho in poles:
                solve(rho)
            if r:
                pole_us[name].append((time.perf_counter() - t0) * 1e6 / len(poles))
    evals = count_evaluations(states)
    report = {"states": {gate: len(s) for gate, s in states.items()}, "rounds": ROUNDS}
    for name in CONFIGS:
        per_gate = evals[name]
        report[name] = {
            "solve_us": quartiles(us[name]),
            "evaluations_per_solve": sum(per_gate[g] * len(states[g]) for g in GATES) / len(rhos),
            "evaluations_per_solve_by_gate": per_gate,
        }
    report["pole"] = {
        "states": len(poles),
        **{f"{name}_us": quartiles(pole_us[name]) for name in POLE_SOLVES},
        "ratio": statistics.median(a / b for a, b in zip(pole_us["h2_conditional"], pole_us["h2_at_pole"])),
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
