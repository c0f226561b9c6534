"""Tests for sweep orchestration, report rows, file outputs, and the CLI."""

import concurrent.futures
import logging
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import qrl.channel
import qrl.cli
import qrl.harness
from qrl.capacity import ProbeOptimum, one_shot_lower_bound
from qrl.channel import ProbeState
from qrl.cli import load_config, main
from qrl.fisher import QuadratureError
from qrl.harness import (
    BOUND_HEADER,
    CSV_HEADER,
    MeritReport,
    SweepConfig,
    point_report,
    run_bound_table,
    run_edge_sweep,
    run_vertex_report,
    write_bound_csv,
    write_reports_csv,
    write_sweep_svg,
)
from qrl.unitary import UnitaryParams, VERTICES

FAST_ETA = (1e-2, 1e-3)


def make_report(**overrides):
    base = dict(
        edge="IC",
        t=0.5,
        alpha=(np.pi / 4, 0.0, 0.0),
        metric="h2",
        value=0.25,
        status="ok",
        probe=(0.1, 0.2),
        sigma=(0.0, 0.0, 0.3),
        wall_time_ms=12.0,
    )
    base.update(overrides)
    return MeritReport(**base)


def fake_optimum():
    return ProbeOptimum(h2=0.5, probe=ProbeState(0.1, 0.2), sigma=(0.0, 0.0, 0.3), converged=True)


def fails_at_identity(params):
    """Stand-in for best_probe_h2 whose search fails at the I end of an edge."""
    if not params.as_array().any():
        raise QuadratureError("NaN integrand at node r=0.1")
    return fake_optimum()


def strip_wall(text: str) -> str:
    return "\n".join(line.rsplit(",", 1)[0] for line in text.strip().splitlines())


# ---------------------------------------------------------------------------
# Report rows and CSV schema


def test_csv_headers_are_pinned():
    assert CSV_HEADER == (
        "edge,t,alpha_x,alpha_y,alpha_z,alpha_norm,metric,value,status,"
        "probe_phi1,probe_phi2,sigma_p1,sigma_p2,sigma_p3,wall_time_ms"
    )
    assert BOUND_HEADER == "epsilon,n,delta_star,correction,raw_bound,clamped_bound"


def test_merit_report_validation():
    make_report()
    with pytest.raises(ValueError, match="metric"):
        make_report(metric="entropy")
    with pytest.raises(ValueError, match="status"):
        make_report(status="fine")
    # |alpha| is read off alpha, never stored beside it
    assert make_report(alpha=(3.0, 0.0, 4.0)).alpha_norm == 5.0
    with pytest.raises(TypeError, match="alpha_norm"):
        make_report(alpha_norm=1.0)


def test_merit_report_csv_fields():
    fields = make_report().csv_fields()
    assert len(fields) == len(CSV_HEADER.split(","))
    assert fields[0] == "IC"
    assert fields[1] == "0.5"
    assert fields[6] == "h2"
    assert fields[7] == "0.25"
    empty = make_report(metric="qfi", value=None, status="divergent", probe=None, sigma=None)
    fields = empty.csv_fields()
    assert fields[7] == ""
    assert fields[9] == fields[10] == fields[11] == fields[12] == fields[13] == ""


def test_sweep_config_validation():
    SweepConfig(edge="IC", samples=2)
    with pytest.raises(ValueError, match="samples"):
        SweepConfig(edge="IC", samples=1)
    with pytest.raises(ValueError, match="metric"):
        SweepConfig(edge="IC", metric="capacity")
    with pytest.raises(ValueError):
        SweepConfig(edge="XY")
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers"):
            SweepConfig(edge="IC", workers=workers)
    assert SweepConfig(edge="IC", workers=None).workers is None  # every CPU
    assert [SweepConfig(edge=e).edge for e in ("SD", "ds", "DS")] == ["DS"] * 3


# ---------------------------------------------------------------------------
# Vertex reports and sweeps


def test_vertex_report_swap():
    rows = run_vertex_report("S", 0.05, 1000, eta_schedule=FAST_ETA)
    assert [r.metric for r in rows] == ["h2", "bound", "qfi"]
    assert all(r.edge == "S" and r.t == 0.0 for r in rows)
    h2_row, bound_row, qfi_row = rows
    assert h2_row.status == "ok"
    assert h2_row.value == pytest.approx(1.0, abs=1e-3)
    assert bound_row.status == "ok"
    assert 0.9 < bound_row.value < 1.0
    assert qfi_row.status == "divergent"
    assert qfi_row.value is None


def test_vertex_report_runs_one_probe_search(monkeypatch):
    calls = []

    def counted(params):
        calls.append(params)
        return fake_optimum()

    monkeypatch.setattr(qrl.harness, "best_probe_h2", counted)
    h2_row, bound_row, _ = run_vertex_report("C", 0.05, 1000, eta_schedule=FAST_ETA)
    assert len(calls) == 1
    assert h2_row.value == 0.5
    assert bound_row.value == one_shot_lower_bound(0.5, 0.05, 1000).clamped_bound
    assert h2_row.probe == bound_row.probe == (0.1, 0.2)
    assert h2_row.sigma == bound_row.sigma == (0.0, 0.0, 0.3)


def test_vertex_report_rejects_unknown_name():
    with pytest.raises(ValueError, match="vertex"):
        run_vertex_report("X", 0.05, 10)


def test_sweep_endpoints_match_vertex_rows():
    sweep = run_edge_sweep(SweepConfig(edge="DS", metric="h2", samples=2))
    d_row = run_vertex_report("D", 0.05, 1000, eta_schedule=FAST_ETA)[0]
    s_row = run_vertex_report("S", 0.05, 1000, eta_schedule=FAST_ETA)[0]
    assert sweep[0].t == 0.0 and sweep[1].t == 1.0
    assert sweep[0].value == pytest.approx(d_row.value, abs=1e-6)
    assert sweep[1].value == pytest.approx(s_row.value, abs=1e-6)
    assert tuple(sweep[0].alpha) == tuple(VERTICES["D"].as_array())


def test_sweep_numerical_failure_is_a_non_converged_row(monkeypatch):
    monkeypatch.setattr(qrl.harness, "best_probe_h2", fails_at_identity)
    failed, done = run_edge_sweep(SweepConfig(edge="IC", samples=2, workers=1))
    assert (failed.status, failed.value, failed.probe, failed.sigma) == ("non-converged", None, None, None)
    assert failed.alpha == (0.0, 0.0, 0.0)
    assert (done.status, done.value) == ("ok", 0.5)


def test_sweep_propagates_programming_errors(monkeypatch):
    def broken(params):
        raise TypeError("bad call")

    monkeypatch.setattr(qrl.harness, "best_probe_h2", broken)
    with pytest.raises(TypeError, match="bad call"):
        run_edge_sweep(SweepConfig(edge="IC", samples=2, workers=1))


def test_sweep_non_finite_n_is_an_argument_error():
    # a bound sweep with n = inf or NaN raises ValueError, not one
    # non-converged row per point
    for n in (math.inf, math.nan):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            run_edge_sweep(SweepConfig(edge="IS", metric="bound", samples=2, n=n, workers=1))


def test_sweep_pool_holds_at_most_one_worker_per_point(monkeypatch):
    # the pool starts every worker it is asked for at the first submit, so
    # the sweep asks for no more than it has points, and for none at one
    # worker; a stub stands in for the pool and starts no process
    asked = []

    class Pool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(qrl.harness, "_eval_point", lambda cfg, t: make_report(t=float(t)))
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    for workers, samples, expected in ((None, 2, [2]), (None, 41, [41]), (8, 3, [3]), (3, 41, [3]), (1, 41, [])):
        asked.clear()
        rows = run_edge_sweep(SweepConfig(edge="IC", samples=samples, workers=workers))
        assert asked == expected, (workers, samples)
        assert [r.t for r in rows] == np.linspace(0.0, 1.0, samples).tolist()


def test_import_leaves_the_process_pool_unloaded():
    # the sweep imports the pool where it starts one, so an in-process
    # caller pays neither its import time nor its memory
    src = os.path.dirname(os.path.dirname(qrl.harness.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, qrl, qrl.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_sweep_deterministic_and_files(tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    svg = tmp_path / "sweep.svg"
    cfg = SweepConfig(edge="DS", metric="qfi", samples=3, eta_schedule=FAST_ETA)
    rep_a, rep_b = run_edge_sweep(cfg), run_edge_sweep(cfg)
    write_reports_csv(rep_a, str(out_a))
    write_sweep_svg(rep_a, str(svg))
    write_reports_csv(rep_b, str(out_b))
    for a, b in zip(rep_a, rep_b):
        assert a.csv_fields()[:-1] == b.csv_fields()[:-1]
    text_a, text_b = out_a.read_text(), out_b.read_text()
    assert text_a.splitlines()[0] == CSV_HEADER
    assert strip_wall(text_a) == strip_wall(text_b)
    assert len(text_a.strip().splitlines()) == 4
    svg_text = svg.read_text()
    assert svg_text.startswith("<svg")
    assert "viewBox" in svg_text
    # every DS point is divergent, so the plot has no polyline to draw
    assert all(r.status == "divergent" for r in rep_a)


def test_qfi_pole_rows_are_exact_and_reproducible():
    # the qfi-sweep rows of IC and CD, C among them (CD t = 0, IC t = 1),
    # and the C vertex's qfi row take the pole rule: each reports an exact
    # pole probe, status ok (converged), and the same bits when run again.
    # I (IC t = 0) and D (CD t = 1, divergent) take the face rule's pole.
    # The 2-D search stopped 8.9e-9 from the pole on CD t = 1/3 and printed
    # an arbitrary phi2 there (8.94069671631e-09,0.0749999955297)
    def rows():
        sweeps = [run_edge_sweep(SweepConfig(edge=e, metric="qfi", samples=4, workers=1)) for e in ("IC", "CD")]
        vertex = [r for r in run_vertex_report("C", 0.05, 1000) if r.metric == "qfi"]
        return [r for rows in sweeps for r in rows] + vertex

    first, again = rows(), rows()
    assert len(first) == 9
    for a, b in zip(first, again):
        assert a.status == ("divergent" if (a.edge, a.t) == ("CD", 1.0) else "ok"), a
        assert a.probe in ((0.0, 0.0), (math.pi, 0.0)), a
        assert np.array([a.value, *a.probe]).tobytes() == np.array([b.value, *b.probe]).tobytes(), a
        assert a.csv_fields()[:-1] == b.csv_fields()[:-1]


def test_sweep_svg_draws_finite_series(tmp_path):
    reports = [
        make_report(t=t, value=v, alpha=(t, 0.0, 0.0))
        for t, v in [(0.0, 0.1), (0.5, 0.4), (1.0, 0.9)]
    ]
    path = tmp_path / "plot.svg"
    write_sweep_svg(reports, str(path))
    text = path.read_text()
    assert "polyline" in text
    assert "IC: h2 vs |alpha|" in text


def test_reports_csv_round_trip(tmp_path):
    path = tmp_path / "rows.csv"
    write_reports_csv([make_report()], str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("IC,0.5,")


# ---------------------------------------------------------------------------
# Bound tables


def test_bound_table_swap():
    opt, rows = run_bound_table(VERTICES["S"], (0.01, 0.05, 0.1, 0.3), (10, 100))
    assert opt.h2 == pytest.approx(1.0, abs=1e-3)
    corrs = [rows[i][3] for i in range(0, len(rows), 2)]
    assert corrs == sorted(corrs, reverse=True)  # looser epsilon, smaller correction
    for i in range(0, len(rows), 2):
        assert rows[i + 1][4] > rows[i][4]  # larger n, better bound


def test_bound_table_identity_all_clamped():
    opt, rows = run_bound_table(VERTICES["I"], (0.05,), (10, 1000))
    assert opt.h2 < 0.0
    assert all(row[5] == 0.0 for row in rows)
    assert all(row[4] < 0.0 for row in rows)


def test_bound_csv(tmp_path):
    _, rows = run_bound_table(VERTICES["S"], (0.05,), (10, 100))
    path = tmp_path / "bound.csv"
    write_bound_csv(rows, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == BOUND_HEADER
    assert len(lines) == 3
    eps, n, ds, corr, raw, clamped = lines[1].split(",")
    assert float(eps) == 0.05
    assert int(n) == 10
    assert float(clamped) == max(0.0, float(raw))


# ---------------------------------------------------------------------------
# Point reports


def test_point_report_finite_case():
    rep = point_report(UnitaryParams(np.pi / 2, 0.0, 0.0), ProbeState(np.pi, 0.0), FAST_ETA)
    assert rep.edge == "point"
    assert rep.metric == "qfi"
    assert rep.status == "ok"
    assert rep.value > 0.0
    assert rep.probe == (np.pi, 0.0)


def test_point_report_divergent_case():
    rep = point_report(VERTICES["S"], ProbeState(0.0, 0.0), (1e-3, 1e-4, 1e-5))
    assert rep.status == "divergent"
    assert rep.value is None


# ---------------------------------------------------------------------------
# Config files


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "qrl.ini"
    path.write_text("[global]\nseed = 7\n\n[sweep]\nedge = DS\nsamples = 3\n")
    cfg = load_config(str(path))
    assert cfg["global"]["seed"] == "7"
    assert cfg["sweep"] == {"edge": "DS", "samples": "3"}


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ValueError, match="not found"):
        load_config(str(tmp_path / "absent.ini"))


def test_cli_malformed_config_file_exits_2(tmp_path, capsys):
    # no section header, a duplicated key or section, a line without "="
    ini = tmp_path / "run.ini"
    for text in ("out = a.csv\n", "[qfi]\nout = a.csv\nout = b.csv\n", "[qfi]\n[qfi]\n", "[qfi]\nout\n"):
        ini.write_text(text)
        assert main(["--config", str(ini), "qfi", "--alpha", "0,0,0", "--probe", "0,0"]) == 2
        assert str(ini) in capsys.readouterr().err
    # values are read raw: a % is literal, not interpolation
    ini.write_text(f"[qfi]\nout = {tmp_path / 'a%.csv'}\n")
    assert main(["--config", str(ini), "--eta-schedule", "1e-2", "qfi", "--alpha", "0,0,0", "--probe", "0,0"]) == 0
    assert (tmp_path / "a%.csv").read_text().startswith(CSV_HEADER)


# ---------------------------------------------------------------------------
# CLI


def test_cli_qfi_stdout(capsys):
    code = main(
        [
            "--eta-schedule",
            "1e-3,1e-4,1e-5",
            "qfi",
            "--alpha",
            f"{np.pi / 2},{np.pi / 2},0.0",
            "--probe",
            "0.0,0.0",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == CSV_HEADER
    row = out[1].split(",")
    assert row[0] == "point"
    assert row[6] == "qfi"
    assert row[8] == "divergent"
    assert row[7] == ""  # divergent rows carry no value


def test_cli_qfi_writes_file(tmp_path):
    out = tmp_path / "point.csv"
    code = main(
        ["--eta-schedule", "1e-2,1e-3", "qfi", "--alpha", "0.0,0.0,0.0",
         "--probe", "1.0,0.5", "--out", str(out)]
    )
    assert code == 0
    assert out.read_text().splitlines()[0] == CSV_HEADER


def test_cli_invalid_alpha_ordering_exits_2(capsys):
    assert main(["qfi", "--alpha", "0.3,0.5,0.1", "--probe", "0,0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_malformed_probe_exits_2():
    assert main(["qfi", "--alpha", "0.5,0.3,0.1", "--probe", "0.4"]) == 2


def test_cli_missing_required_exits_2():
    assert main(["sweep", "--metric", "h2", "--samples", "3"]) == 2  # no edge, no out


def test_cli_unknown_edge_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--edge", "XY", "--samples", "3", "--out", "x.csv"])
    assert exc.value.code == 2


def test_cli_numerical_failure_exits_3(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise QuadratureError("NaN integrand at node r=0.1")

    monkeypatch.setattr(qrl.cli, "point_report", boom)
    assert main(["qfi", "--alpha", "0.5,0.3,0.1"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_sweep_exits_3_on_one_failed_point(monkeypatch, tmp_path, caplog):
    monkeypatch.setattr(qrl.harness, "best_probe_h2", fails_at_identity)
    out = tmp_path / "ic.csv"
    assert main(["--workers", "1", "sweep", "--edge", "IC", "--samples", "3", "--out", str(out)]) == 3
    lines = out.read_text().strip().splitlines()
    assert [line.split(",")[8] for line in lines[1:]] == ["non-converged", "ok", "ok"]
    assert "3 points, 1 non-converged" in caplog.text


def test_cli_bound_exits_3_on_a_non_converged_optimum(monkeypatch, tmp_path, caplog):
    # the bound table has no status column: with a non-converged H2 optimum
    # it is still written, one error line names the gate, and the exit is 3
    args = ["bound", "--alpha", "1.2,0.7,0.3", "--epsilons", "0.05", "--ns", "1000", "--out"]
    for converged, code in ((True, 0), (False, 3)):
        caplog.clear()
        optimum = replace(fake_optimum(), converged=converged)
        monkeypatch.setattr(qrl.harness, "best_probe_h2", lambda params: optimum)
        out = tmp_path / f"b{converged}.csv"
        assert main([*args, str(out)]) == code
        lines = out.read_text().strip().splitlines()
        assert lines[0] == BOUND_HEADER and len(lines) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        if converged:
            assert errors == []
        else:
            assert len(errors) == 1 and "alpha=1.2,0.7,0.3" in errors[0] and "non-converged" in errors[0]


def test_cli_channel_fault_is_a_non_converged_row(monkeypatch, tmp_path):
    # a failed check of a value the channel layer makes is a numerical
    # fault: each point becomes a non-converged row and the sweep exits 3,
    # not 2 for invalid arguments
    monkeypatch.setattr(qrl.channel, "build_unitary", lambda p: 1.5 * np.eye(4, dtype=complex))
    out = tmp_path / "ic.csv"
    assert main(["--workers", "1", "sweep", "--edge", "IC", "--samples", "2", "--out", str(out)]) == 3
    lines = out.read_text().strip().splitlines()
    assert [line.split(",")[8] for line in lines[1:]] == ["non-converged", "non-converged"]


def test_cli_error_reaches_stderr_once(tmp_path):
    # in a child process at the default log level: under pytest the root
    # logger already has handlers, so a logged copy of the error would not
    # reach the captured stderr
    src = os.path.dirname(os.path.dirname(qrl.cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    env.pop("QRL_LOG", None)
    for args in (["qfi", "--alpha", "0,1,0"], ["sweep", "--edge", "IC"]):
        proc = subprocess.run([sys.executable, "-m", "qrl.cli", *args], capture_output=True, text=True,
                              env=env, cwd=tmp_path, timeout=120)
        assert proc.returncode == 2, args
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (args, lines)


def test_cli_config_file_merge(tmp_path):
    ini = tmp_path / "run.ini"
    out = tmp_path / "sweep.csv"
    ini.write_text(
        "[global]\neta_schedule = 1e-2,1e-3\n\n"
        f"[sweep]\nedge = DS\nmetric = qfi\nsamples = 3\nout = {out}\n"
    )
    assert main(["--config", str(ini), "sweep"]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    assert all(line.split(",")[8] == "divergent" for line in lines[1:])


def test_cli_config_rejects_unknown_keys(tmp_path, capsys):
    # a misspelt key must not fall back to the default schedule silently
    ini = tmp_path / "typo.ini"
    ini.write_text("[global]\neta_shedule = 1e-2\nseed = 5\n")
    assert main(["--config", str(ini), "qfi", "--alpha", "0,0,0", "--probe", "0,0"]) == 2
    err = capsys.readouterr().err
    assert "eta_shedule" in err and "seed" in err and "[global]" in err


def test_cli_config_rejects_keys_of_other_commands(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[qfi]\nalpha = 0,0,0\nprobe = 0,0\nsamples = 3\n")
    assert main(["--config", str(ini), "qfi"]) == 2
    assert "samples" in capsys.readouterr().err
    ini.write_text("[qfi]\nalpha = 0,0,0\nprobe = 0,0\n\n[sweep]\nsamples = 3\n")
    assert main(["--config", str(ini), "qfi"]) == 0


def test_cli_flag_overrides_config(tmp_path):
    ini = tmp_path / "run.ini"
    out = tmp_path / "short.csv"
    ini.write_text("[sweep]\nedge = DS\nmetric = qfi\nsamples = 5\n")
    code = main(
        ["--eta-schedule", "1e-2,1e-3", "--config", str(ini),
         "sweep", "--samples", "2", "--out", str(out)]
    )
    assert code == 0
    assert len(out.read_text().strip().splitlines()) == 3  # header + 2 points


def test_cli_sweep_epsilon_and_n_flags_match_file_keys(monkeypatch, tmp_path):
    monkeypatch.setattr(qrl.harness, "best_probe_h2", lambda params: fake_optimum())
    ini = tmp_path / "run.ini"
    ini.write_text("[global]\nepsilon = 0.1\n\n[sweep]\nedge = IC\nmetric = bound\nsamples = 2\nn = 100\n")
    from_file, from_flags, default = tmp_path / "file.csv", tmp_path / "flags.csv", tmp_path / "default.csv"
    assert main(["--workers", "1", "--config", str(ini), "sweep", "--out", str(from_file)]) == 0
    assert main(["--workers", "1", "sweep", "--edge", "IC", "--metric", "bound", "--samples", "2",
                 "--epsilon", "0.1", "--n", "100", "--out", str(from_flags)]) == 0
    assert main(["--workers", "1", "sweep", "--edge", "IC", "--metric", "bound", "--samples", "2",
                 "--out", str(default)]) == 0
    assert strip_wall(from_file.read_text()) == strip_wall(from_flags.read_text())
    assert strip_wall(from_file.read_text()) != strip_wall(default.read_text())
    value = float(from_flags.read_text().splitlines()[1].split(",")[7])
    assert value == pytest.approx(one_shot_lower_bound(0.5, 0.1, 100).clamped_bound, rel=1e-11)


def test_cli_sweep_writes_the_canonical_edge(monkeypatch, tmp_path):
    monkeypatch.setattr(qrl.harness, "best_probe_h2", lambda params: fake_optimum())
    out = tmp_path / "sd.csv"
    assert main(["--workers", "1", "sweep", "--edge", "SD", "--samples", "2", "--out", str(out)]) == 0
    assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == ["DS", "DS"]
    ini = tmp_path / "run.ini"
    for spelling in ("SD", "ds"):
        ini.write_text(f"[sweep]\nedge = {spelling}\nsamples = 2\nout = {out}\n")
        assert main(["--workers", "1", "--config", str(ini), "sweep"]) == 0
        assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == ["DS", "DS"]


def test_cli_rejects_workers_below_one(tmp_path, capsys):
    for workers in ("0", "-3"):
        assert main(["--workers", workers, "sweep", "--edge", "IC", "--samples", "2",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "workers" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def _status_of(capsys):
    return capsys.readouterr().out.strip().splitlines()[1].split(",")[8]


def test_cli_single_cutoff_schedule_reads_the_status(capsys):
    # the status comes from the channel at the probe, not from the growth
    # of the trace, so one cutoff tells SWAP from C
    swap = "1.5707963267948966,1.5707963267948966,1.5707963267948966"
    assert main(["--eta-schedule", "1e-2", "qfi", "--alpha", swap, "--probe", "0,0"]) == 0
    assert _status_of(capsys) == "divergent"
    c = ["qfi", "--alpha", "1.5707963267948966,0,0", "--probe", "3.141592653589793,0"]
    for schedule in ("1e-2", "1e-2,1e-2", "0.3,0.2"):
        assert main(["--eta-schedule", schedule, *c]) == 0
        assert _status_of(capsys) == "ok"


def test_cli_non_finite_input_exits_2(capsys):
    c = ["qfi", "--alpha", "1.5707963267948966,0,0"]
    for argv, name in (
        (["--eta-schedule", "1e-2,nan", *c, "--probe", "0,0"], "eta schedule"),
        ([*c, "--probe", "1,nan"], "phi2"),
        ([*c, "--probe", "1,inf"], "phi2"),
        ([*c, "--probe", "nan,0"], "phi1"),
    ):
        assert main(argv) == 2
        assert name in capsys.readouterr().err


def test_cli_bound_non_finite_n_exits_2_and_tiny_epsilon_runs(tmp_path, capsys):
    # a non-finite n is an invalid argument, not a numerical failure; an
    # epsilon as small as 1e-300 gives a finite correction
    out = tmp_path / "bound.csv"
    bound = ["bound", "--alpha", "1.2,0.7,0.3", "--out", str(out)]
    for ns in ("inf", "nan", "10,inf"):
        assert main([*bound, "--epsilons", "0.05", "--ns", ns]) == 2
        assert "expected integers" in capsys.readouterr().err
    assert not out.exists()
    assert main([*bound, "--epsilons", "1e-300", "--ns", "10"]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert all(math.isfinite(float(v)) for v in row)


def test_cli_config_rejects_dashed_eta_schedule(tmp_path, capsys):
    # a file names each key by its option's dest: eta_schedule, not eta-schedule
    ini = tmp_path / "run.ini"
    ini.write_text("[global]\neta-schedule = 1e-2,1e-3\n")
    assert main(["--config", str(ini), "qfi", "--alpha", "0,0,0", "--probe", "0,0"]) == 2
    err = capsys.readouterr().err
    assert "eta-schedule" in err and "[global]" in err


def test_cli_config_malformed_value_exits_2(tmp_path, capsys):
    # file values go through the option's type, so argparse refuses them
    ini = tmp_path / "run.ini"
    for text in ("[global]\nworkers = two\n", "[global]\neta_schedule = 1e-2;1e-3\n",
                 "[sweep]\nsamples = 3.5\n"):
        ini.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(ini), "sweep", "--edge", "IC", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "invalid" in capsys.readouterr().err
