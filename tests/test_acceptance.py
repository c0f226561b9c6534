"""Acceptance gate: one test per shipped claim, at the stated tolerances.

Each test prints a single summary line with the measured numbers so a -s run
doubles as a results table.  Criterion 6 asserts the finite-edge links the
eta -> 0 averaged QFI is shown to satisfy: the stated IS <= CS and CS ~= CD
are refuted, and the pole-probe identity behind them is asserted in their
place (see the README).
"""

import math
import os
import subprocess
import sys
import time

import numpy as np

import qrl
from qrl.capacity import (
    best_probe_h2,
    correction_bits,
    delta_star,
    g_eps,
    h2_conditional,
    one_shot_lower_bound,
    BLOCH_CAP,
)
from qrl.channel import (
    ProbeState,
    apply_channel,
    choi_bf,
    stinespring_isometry,
)
from qrl.fisher import (
    QuadSpec,
    avg_qfi_at_probe,
    avg_trace_qfi,
    maximize_over_probe,
)
from qrl.harness import SweepConfig, run_edge_sweep
from qrl.linalg import partial_trace, validate_density
from qrl.unitary import (
    UnitaryParams,
    VERTICES,
    build_unitary,
    edge_point,
)
from oracles import (
    EnvState,
    channel_qfi,
    delta_star_golden,
    magic_basis_reconstruction,
    qfi_matrix,
    renyi2_divergence,
    renyi2_divergence_grid,
)

rng = np.random.default_rng(20260814)

I2 = np.eye(2)
PROBES = (ProbeState(0.0, 0.0), ProbeState(np.pi, 0.0), ProbeState(1.1, 0.7), ProbeState(2.0, 4.5))
GRID_R = np.linspace(0.05, 0.45, 5)
GRID_T1 = np.linspace(0.1, np.pi - 0.1, 5)
GRID_T2 = np.linspace(0.0, 5.9, 5)


def random_params():
    ax = rng.uniform(0.05, np.pi / 2)
    ay = rng.uniform(0.0, ax)
    az = rng.uniform(0.0, ay)
    return UnitaryParams(ax, ay, az)


def random_probe():
    return ProbeState(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))


def test_criterion_1_vertex_capacity_values():
    raws, times = {}, {}
    for name in ("I", "C", "S", "D"):
        started = time.perf_counter()
        raws[name] = best_probe_h2(VERTICES[name]).h2
        times[name] = time.perf_counter() - started
    print(
        "criterion 1: raw h2 I=%.3g C=%.3g S=%.9f D=%.9f, slowest %.1fs"
        % (raws["I"], raws["C"], raws["S"], raws["D"], max(times.values()))
    )
    assert raws["I"] <= 1e-6
    assert raws["C"] <= 1e-6
    assert raws["S"] >= 1.0 - 1e-3
    assert raws["D"] >= 1.0 - 1e-3
    for name, dt in times.items():
        assert dt < 30.0, f"vertex {name} took {dt:.1f}s"


def test_criterion_2_bound_expression():
    h2 = best_probe_h2(VERTICES["S"]).h2
    eps = 0.05
    corr = correction_bits(eps)
    prev = -math.inf
    for n in (10, 10**2, 10**3, 10**4, 10**5, 10**6):
        res = one_shot_lower_bound(h2, eps, n)
        assert abs(res.clamped_bound - max(0.0, 1.0 - corr / n)) <= 1e-6
        assert res.raw_bound > prev
        prev = res.raw_bound
    final = one_shot_lower_bound(h2, eps, 10**6).clamped_bound
    assert abs(final - 1.0) <= 1e-3

    for e in (0.01, 0.05, 0.1):
        d = delta_star(e)
        h = 1e-6

        def obj(x, _e=e):
            return g_eps(math.sqrt(_e / 2.0) - x) + 4.0 * math.log2(1.0 / x)

        residual = abs(obj(d + h) - obj(d - h)) / (2.0 * h)
        assert residual < 1e-6 * max(1.0, abs(obj(d)))
        assert abs(d - delta_star_golden(e)) <= 1e-6
    print(f"criterion 2: bound(1e6)={final:.9f}, correction={corr:.6f} bits")


def test_criterion_3_edge_sweep_shapes():
    started = time.perf_counter()
    sweeps = {
        edge: run_edge_sweep(SweepConfig(edge=edge, metric="h2", samples=41))
        for edge in ("IC", "DS", "CS", "CD")
    }
    assert all(r.value <= 1e-3 for r in sweeps["IC"])
    assert all(abs(r.value - 1.0) <= 1e-3 for r in sweeps["DS"])
    for edge in ("CS", "CD"):
        vals = [r.value for r in sweeps[edge]]
        drops = [a - b for a, b in zip(vals, vals[1:])]
        assert max(drops, default=0.0) <= 1e-4, f"{edge} not monotone: {max(drops):.2e}"

    # raw values for the threshold edges; the clamp would hide the crossing
    thresholds = {}
    for edge in ("IS", "ID"):
        ts = np.linspace(0.0, 1.0, 41)
        raw = [best_probe_h2(edge_point(edge, t)).h2 for t in ts]
        idx = [i for i in range(40) if raw[i] < 0.0 <= raw[i + 1]]
        assert len(idx) == 1, f"{edge}: expected one sign change, got {len(idx)}"
        lo, hi = ts[idx[0]], ts[idx[0] + 1]
        while hi - lo > 2e-3:
            mid = 0.5 * (lo + hi)
            if best_probe_h2(edge_point(edge, mid)).h2 < 0.0:
                lo = mid
            else:
                hi = mid
        thresholds[edge] = 0.5 * (lo + hi) * (np.pi / 2.0)
        assert abs(thresholds[edge] - np.pi / 3.4) <= 0.05
    elapsed = time.perf_counter() - started
    print(
        "criterion 3: thresholds IS=%.4f ID=%.4f (target %.4f), %.0fs"
        % (thresholds["IS"], thresholds["ID"], np.pi / 3.4, elapsed)
    )
    assert elapsed < 600.0


def _swap_diag(r, t1):
    return np.array([4.0 / (1.0 - 4.0 * r * r), 4.0 * r * r, 4.0 * r * r * math.sin(t1) ** 2])


def _cnot_diag(r, t1, t2, probe):
    k = 1.0 - math.sin(probe.phi1) ** 2 * math.cos(probe.phi2) ** 2
    s1, c1 = math.sin(t1), math.cos(t1)
    s2, c2 = math.sin(t2), math.cos(t2)
    den = 1.0 - 4.0 * r * r * s1 * s1 * c2 * c2
    return np.array(
        [
            4.0 * s1 * s1 * c2 * c2 * k / den,
            4.0 * r * r * c1 * c1 * c2 * c2 * k / den,
            4.0 * r * r * s1 * s1 * s2 * s2 * k / den,
        ]
    )


def _dcnot_diag(r, t1, probe):
    cp2 = math.cos(probe.phi1) ** 2
    s1, c1 = math.sin(t1), math.cos(t1)
    den = 1.0 - 4.0 * r * r * (c1 * c1 + s1 * s1 * cp2)
    return np.array(
        [
            4.0 * (c1 * c1 + s1 * s1 * cp2) / den,
            4.0 * r * r * (s1 * s1 - (4.0 * r * r - c1 * c1) * cp2) / den,
            4.0 * r * r * s1 * s1 * cp2,
        ]
    )


def test_criterion_4_vertex_qfi_closed_forms():
    worst = 0.0
    for r in GRID_R:
        for t1 in GRID_T1:
            for t2 in GRID_T2:
                env = EnvState(r, t1, t2)
                f = channel_qfi(VERTICES["S"], PROBES[2], env).entries
                worst = max(worst, float(np.max(np.abs(f - np.diag(_swap_diag(r, t1))))))
                for probe in PROBES:
                    fc = channel_qfi(VERTICES["C"], probe, env).entries
                    worst = max(worst, float(np.max(np.abs(np.diag(fc) - _cnot_diag(r, t1, t2, probe)))))
                    fd = channel_qfi(VERTICES["D"], probe, env).entries
                    worst = max(worst, float(np.max(np.abs(np.diag(fd) - _dcnot_diag(r, t1, probe)))))
                # at cos^2 phi1 = 1 the DCNOT matrix is exactly diagonal
                fd0 = channel_qfi(VERTICES["D"], PROBES[0], env).entries
                worst = max(worst, float(np.max(np.abs(fd0 - np.diag(_dcnot_diag(r, t1, PROBES[0]))))))
    print(f"criterion 4: worst closed-form deviation {worst:.3e}")
    assert worst < 1e-8


def test_criterion_5_averaged_qfi_vertices():
    # calibrate the divergence detector on the analytic SWAP integral first
    etas = (1e-4, 1e-5, 1e-6)
    analytic = [2.0 * math.log((1.0 - e) / e) + 184.0 * (0.5 - e) ** 3 / 45.0 for e in etas]
    numeric = [avg_trace_qfi(VERTICES["S"], ProbeState(0.0, 0.0), QuadSpec(), e) for e in etas]
    x = np.log(1.0 / np.array(etas))
    slope_an = float(np.polyfit(x, analytic, 1)[0])
    slope_num = float(np.polyfit(x, numeric, 1)[0])
    assert slope_an > 0.5
    assert abs(slope_num - slope_an) < 1e-3

    times, values = {}, {}
    for name in ("I", "C", "S", "D"):
        started = time.perf_counter()
        values[name] = maximize_over_probe(VERTICES[name])
        times[name] = time.perf_counter() - started
        assert times[name] < 300.0, f"vertex {name} took {times[name]:.0f}s"
    assert math.isfinite(values["I"].value)
    assert values["I"].value == 0.0
    assert math.isfinite(values["C"].value)
    assert abs(values["C"].value - 1.76108) <= 1e-2
    assert values["S"].value == math.inf
    assert values["D"].value == math.inf
    print(
        "criterion 5: slope_num=%.4f (analytic %.4f), C=%.6f, slowest %.1fs"
        % (slope_num, slope_an, values["C"].value, max(times.values()))
    )


def test_criterion_6_sd_edge_and_ordering():
    failures = []
    sweep = run_edge_sweep(SweepConfig(edge="DS", metric="qfi", samples=41))
    n_div = sum(r.status == "divergent" for r in sweep)
    if n_div != 41:
        failures.append(f"SD edge: {41 - n_div} sampled points not divergent")

    # The stated chain IC <= ID <= IS <= CS ~= CD is not what the eta -> 0
    # merit satisfies.  ZZ commutes with XX and YY, so at a pole probe the
    # alpha_z factor only shifts theta2, which neither the prior nor tr F sees:
    # ID = IS, and CS at its best pole equals CD.  CS's optimum is an
    # equatorial probe and lies strictly above that pole value.
    slack = 2e-2
    chain = ("IC", "ID", "IS", "CS", "CD")
    rows = {}
    for t in (0.3, 0.5, 0.7):
        vals = {}
        for edge in chain:
            res = maximize_over_probe(edge_point(edge, t))
            if not math.isfinite(res.value):
                failures.append(f"{edge} t={t}: unexpected divergence")
                vals[edge] = math.inf
            else:
                vals[edge] = res.value
        cs_params = edge_point("CS", t)
        vals["CSpole"] = max(
            avg_qfi_at_probe(cs_params, ProbeState(phi1, 0.0)).value for phi1 in (0.0, math.pi)
        )
        rows[t] = vals
        links = (
            ("IC <= ID", "IC", "ID", vals["IC"] <= vals["ID"] + slack),
            ("ID ~= IS", "ID", "IS", abs(vals["ID"] - vals["IS"]) <= slack),
            ("CD <= CS", "CD", "CS", vals["CD"] <= vals["CS"] + slack),
            ("CSpole ~= CD", "CSpole", "CD", abs(vals["CSpole"] - vals["CD"]) <= slack),
            ("CS > CSpole", "CS", "CSpole", vals["CS"] > vals["CSpole"] + slack),
        )
        for name, a, b, ok in links:
            if not ok:
                failures.append(f"{name} violated at t={t}: {a}={vals[a]:.4f}, {b}={vals[b]:.4f}")
    table = "; ".join(
        "t=%.1f " % t + " ".join(f"{e}={v:.3f}" for e, v in row.items())
        for t, row in rows.items()
    )
    print(
        f"criterion 6: SD divergent {n_div}/41; links IC<=ID, ID~=IS, CD<=CS, "
        f"CSpole~=CD, CS>CSpole at slack {slack}; {table}"
    )
    assert not failures, "; ".join(failures)


def test_criterion_7_optimizer_and_derivative_oracles():
    # refined sigma search against an exhaustive Bloch-ball grid, evaluated
    # by the batched literal divergence; a sample of its points is checked
    # against the scalar literal divergence
    axis = np.linspace(-BLOCH_CAP, BLOCH_CAP, 21)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    grid = grid[np.linalg.norm(grid, axis=1) <= BLOCH_CAP]
    worst_gap = -math.inf
    for k in range(50):
        rho = choi_bf(stinespring_isometry(random_params(), random_probe()))
        refined = h2_conditional(rho).value
        literal = renyi2_divergence_grid(rho, grid)
        if k < 5:
            for i in range(k, len(grid), 41):
                assert abs(literal[i] - renyi2_divergence(rho, grid[i])) <= 1e-12
        best = -float(np.min(literal))
        worst_gap = max(worst_gap, best - refined)
        assert refined >= best - 1e-4

    # analytic QFI derivatives against central differences
    h = 1e-5
    worst_fd = 0.0
    for _ in range(200):
        p, probe = random_params(), random_probe()
        env = EnvState(
            rng.uniform(1e-3, 0.5 - 1e-3),
            rng.uniform(1e-3, np.pi - 1e-3),
            rng.uniform(0, 2 * np.pi),
        )
        iso = stinespring_isometry(p, probe)
        fd = []
        for axis_i in range(3):
            coords = np.array([env.r, env.theta1, env.theta2])
            up, dn = coords.copy(), coords.copy()
            up[axis_i] += h
            dn[axis_i] -= h
            rho_up, rho_dn = (apply_channel(iso, EnvState(*x).matrix()) for x in (up, dn))
            fd.append((rho_up - rho_dn) / (2 * h))
        diff = np.max(
            np.abs(channel_qfi(p, probe, env).entries - qfi_matrix(apply_channel(iso, env.matrix()), fd).entries)
        )
        worst_fd = max(worst_fd, float(diff))
        assert diff < 1e-6
    print(f"criterion 7: grid gap <= {worst_gap:.2e}, FD deviation <= {worst_fd:.2e}")


def test_criterion_8_structural_invariants():
    # channel outputs stay physical along every edge
    for edge in ("IC", "IS", "ID", "CS", "CD", "DS"):
        for t in np.linspace(0.0, 1.0, 41):
            params = edge_point(edge, t)
            for probe in (ProbeState(0.0, 0.0), ProbeState(1.1, 0.7)):
                iso = stinespring_isometry(params, probe)
                rho = choi_bf(iso)  # checked: density and marginal
                out = apply_channel(iso, EnvState(0.3, 1.0, 2.0).matrix())
                assert validate_density(out) == ()
                marg = partial_trace(rho, keep="first")
                assert np.max(np.abs(marg - 0.5 * I2)) < 1e-12

    # prior normalization via the same quadrature family the averages use
    from numpy.polynomial.legendre import leggauss

    x1, w1 = leggauss(40)
    t1 = 0.5 * np.pi * (x1 + 1.0)
    mass = 0.5 * 2.0 * np.pi * float(np.sum(w1 * 0.5 * np.pi * np.sin(t1 / 2.0) / (2.0 * np.pi)))
    assert abs(mass - 1.0) <= 1e-8

    # eigenphase route reproduces the canonical matrix
    worst = 0.0
    for _ in range(200):
        p = random_params()
        worst = max(worst, float(np.max(np.abs(magic_basis_reconstruction(p) - build_unitary(p)))))
    assert worst <= 1e-12
    print(f"criterion 8: prior mass {mass:.12f}, magic reconstruction <= {worst:.2e}")


def test_criterion_9_cli_reproducibility(tmp_path):
    # the CLI runs from the same source tree as the tests import
    src = os.path.dirname(os.path.dirname(qrl.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}

    def run(args, out):
        cmd = [sys.executable, "-m", "qrl.cli"] + args + ["--out", str(out)]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return "\n".join(line.rsplit(",", 1)[0] for line in out.read_text().splitlines())

    h2_args = ["sweep", "--edge", "IS", "--metric", "h2", "--samples", "9"]
    a = run(h2_args, tmp_path / "h2_a.csv")
    b = run(h2_args, tmp_path / "h2_b.csv")
    assert a == b

    qfi_args = ["--eta-schedule", "1e-2,1e-3,1e-4", "sweep", "--edge", "DS",
                "--metric", "qfi", "--samples", "5"]
    c = run(qfi_args, tmp_path / "qfi_a.csv")
    d = run(qfi_args, tmp_path / "qfi_b.csv")
    assert c == d
    print("criterion 9: h2 and qfi sweeps byte-identical after wall-time strip")
