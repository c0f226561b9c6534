"""L1 time and evaluation count of the sigma solve in H2(B|F).

    PYTHONPATH=src python3 bench/l1_sigma.py

Times `h2_conditional` at the three settings the probe search runs it with
(`_COARSE` for the scan, `_MEDIUM` for the refinement, the default for the
final solve) on the 43 states of `best_probe_h2`'s probe scan, for three
gates: CS at t = 1/2 (optimum inside the ball), IC at t = 1/2 (optimum at
x = 0) and S (optimum at the cap), with BLAS pinned to one thread.  The
scan's first state, at the pole probe (0, 0), takes the closed branch; the
other 42 the radius search.  Counts the radial-profile evaluations per
solve, the seven seed evaluations included.  Times both branches of
`h2_conditional` on the same states, the probe (0, 0) of every edge at
41 t (the states of every face and vertex row): the closed branch that
`h2_conditional` takes there and the radius search (`_radius_solve`) at
its default settings, the two alternating in each round.  Times the value
of a solve at its reported sigma on the scan states: the block sums in
sigma's eigenbasis that `h2_conditional` evaluates, against the Pauli form
c^T G c it evaluated before (`_inv_sqrt_coeffs` in `tests/oracles.py`).
Prints one JSON object: per setting, the median and quartiles over rounds
of the mean time per solve in us, and the mean evaluations per solve,
overall and per gate; under "pole", the same times of both branches and
their ratio; under "value", those of both evaluations and their ratio.
"""

from __future__ import annotations

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from oracles import _inv_sqrt_coeffs  # noqa: E402
from qrl import capacity  # noqa: E402
from qrl.capacity import _COARSE, _MEDIUM, DEFAULT_CONFIG, h2_conditional  # noqa: E402
from qrl.channel import ProbeState, choi_bf, probe_scan, probe_table, stinespring_isometry, table_at  # noqa: E402
from qrl.unitary import VERTICES, edge_point  # noqa: E402

GATES = {"CS": edge_point("CS", 0.5), "IC": edge_point("IC", 0.5), "S": VERTICES["S"]}
CONFIGS = {"coarse": _COARSE, "medium": _MEDIUM, "default": DEFAULT_CONFIG}
POLE_SOLVES = {"closed": h2_conditional, "radius": lambda rho: capacity._radius_solve(rho, DEFAULT_CONFIG)}
ROUNDS = 15


def value_inputs(rho) -> tuple:
    """rho, its Gram matrix and the sigma of its default solve: as a Bloch
    array, and as a unit direction with its eigenvalues."""
    p = h2_conditional(rho).sigma
    r = math.sqrt(sum(v * v for v in p))
    n = tuple(v / r for v in p) if r > 0.0 else (0.0, 0.0, 1.0)
    return rho, capacity._collision_gram(rho), np.array(p), n, (1.0 + r) / 2.0, (1.0 - r) / 2.0


def block_value(rho, gram, p, n, lam, mu) -> float:
    """The value step of a radius solve: block sums in sigma's eigenbasis,
    with the floor and dimension checks."""
    blocks = capacity._pole_blocks(capacity._eigenbasis(rho.tolist(), n))
    return capacity._optimum(blocks, lam, mu, tuple(p), True).value


def pauli_value(rho, gram, p, n, lam, mu) -> float:
    """The value step it replaced: the floor check on |p|, and c^T G c at
    the Gram matrix the search built."""
    if float(np.linalg.norm(p)) > 1.0 - 2.0 * capacity.LAMBDA_FLOOR:
        raise RuntimeError("sigma below the floor")
    c = _inv_sqrt_coeffs(p)
    return -math.log2(c @ gram @ c)


VALUES = {"blocks": block_value, "pauli": pauli_value}


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
    inputs = [value_inputs(rho) for rho in rhos]
    us = {name: [] for name in CONFIGS}
    pole_us = {name: [] for name in POLE_SOLVES}
    value_us = {name: [] for name in VALUES}
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
        for name, value in VALUES.items():
            t0 = time.perf_counter()
            for args in inputs:
                value(*args)
            if r:
                value_us[name].append((time.perf_counter() - t0) * 1e6 / len(rhos))
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
        "ratio": statistics.median(a / b for a, b in zip(pole_us["radius"], pole_us["closed"])),
    }
    report["value"] = {
        **{f"{name}_us": quartiles(value_us[name]) for name in VALUES},
        "ratio": statistics.median(a / b for a, b in zip(value_us["pauli"], value_us["blocks"])),
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
