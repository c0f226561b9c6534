"""qrl benchmark: run one workload for a fixed time and print one JSON result.

    python3 perfbench/run.py --workload h2-sweep --seed 1 --seconds 25 --trace 0

Workloads (see perfbench/README.md for why each exists):
  h2-sweep         run_edge_sweep(metric="h2") over all six edges
  qfi-sweep        run_edge_sweep(metric="qfi") over all six edges
  qfi-fixed-probe  point_report(params, probe) on 64 gate/probe queries and
                   two anchors, in seeded order

--trace 0 prints the end-to-end metrics; --trace 1 makes every call twice,
with layer spans and without, and prints the per-layer metrics and the
tracing overhead.  Times are scaled to a reference machine speed
(refspeed.py).  The last stdout line is the result object; the line before
it is the full report (environment, workload properties, checks), also
written to perfbench/out/.
"""

from __future__ import annotations

import os

# single-threaded BLAS before numpy loads, here and in every child
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import refspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 9
TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile

# per-layer metrics that must be non-zero in a traced run of each workload:
# a layer that records no spans there means a wrapped attribute no longer
# sees the calls, and the run is not correct.  A change that removes one of
# these calls on purpose updates this table.
MUST_ENTER = {
    "h2-sweep": (
        "channel.isometry.calls", "channel.choi.calls",
        "optimize.nelder_mead.sigma.calls", "optimize.nelder_mead.probe.calls",
        "capacity.best_probe_h2.ms", "capacity.h2_conditional.scan.calls",
        "capacity.h2_conditional.refine.calls", "capacity.h2_conditional.final.calls",
    ),
    "qfi-sweep": (
        "channel.isometry.calls", "optimize.nelder_mead.probe.calls",
        "fisher.maximize_over_probe.ms", "fisher.avg_qfi_at_probe.ms",
        "fisher.avg_trace_qfi.base.calls", "fisher.avg_trace_qfi.ladder.calls",
    ),
    "qfi-fixed-probe": (
        "channel.isometry.calls", "fisher.avg_qfi_at_probe.ms",
        "fisher.avg_trace_qfi.base.calls", "fisher.avg_trace_qfi.ladder.calls",
    ),
}

# the first calls, which fill the lazy sigma-seed, angular and radial tables
FIRST_CALLS = """
qrl.h2_conditional(qrl.choi_bf(qrl.stinespring_isometry(qrl.VERTICES["C"], qrl.ProbeState(0.0, 0.0))))
qrl.avg_trace_qfi(qrl.VERTICES["C"], qrl.ProbeState(math.pi, 0.0), qrl.QuadSpec(), 1e-2)
"""
# set-up as a fresh interpreter sees it: import qrl, then the first calls;
# then one reference-speed sample in the same interpreter
SETUP_CODE = (
    "import time\nt0 = time.perf_counter()\nimport math, qrl\n"
    + FIRST_CALLS
    + "dt = time.perf_counter() - t0\n"
    + f"import sys\nsys.path.insert(0, {str(HERE)!r})\nimport refspeed\n"
    + "print(repr(dt), repr(refspeed.sample()))\n"
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup() -> list:
    """(raw seconds, reference sample in ms) of each fresh interpreter."""
    runs = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=120, check=True,
        )
        raw, ref = out.stdout.strip().splitlines()[-1].split()
        runs.append((float(raw), float(ref)))
    return runs


def warm(qrl):
    """The set-up's first calls in this process, so timing starts warm."""
    exec(FIRST_CALLS, {"qrl": qrl, "math": math})


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy has no dict form
        blas = "unknown"
    threads = None
    try:
        with open("/proc/self/status") as fh:
            threads = next(int(l.split()[1]) for l in fh if l.startswith("Threads:"))
    except (OSError, StopIteration):
        pass
    digest = hashlib.sha256()
    for f in sorted((SRC / "qrl").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.exists() else None
        else:
            commit = ref
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "os_threads": threads,
        "workers": 1,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def tail_of(values):
    """(latency, percentile, samples above it) of the highest percentile with
    at least TAIL_BEYOND samples above it.  A run too short for that to
    reach p75 reports p90 instead, interpolated between the two samples
    around it, with fewer samples above: a sweep run holds one pass of 24
    points, and the same 24 every seed."""
    s = sorted(values)
    n = len(s)
    k = n - TAIL_BEYOND - 1
    if k >= 0.75 * n:
        return s[k], 100.0 * (k + 1) / n, n - 1 - k
    p90 = statistics.quantiles(s, n=10, method="inclusive")[8] if n > 1 else s[0]
    return p90, 90.0, sum(v > p90 for v in s)


def assess(workload, results):
    """Check every row.  Returns (attempted, failed, anchor deviations,
    problems, clock mismatches); a point fails when its call raised, its row
    is missing, or its row fails its check."""
    attempted = failed = 0
    devs, problems, clock_bad = [], [], []
    for k, res in enumerate(results):
        attempted += res.unit.points
        if res.error:
            failed += res.unit.points
            problems.append(f"unit {k} {res.unit.describe()} raised {res.error}")
            continue
        errors, d = checks.check_unit(workload, res.unit, res.fields)
        devs += d
        for fields, errs in zip(res.fields, errors):
            if errs:
                failed += 1
                problems.append(f"unit {k} row {checks.row_key(fields)}: {'; '.join(errs)}")
        failed += max(res.unit.points - len(res.fields), 0)
        total = sum(float(f[checks.WALL]) for f in res.fields)
        if total > res.outside_ms + 0.5 or res.outside_ms - total > 0.25 * res.outside_ms + 20.0:
            clock_bad.append(f"unit {k}: rows {total:.1f} ms, outside clock {res.outside_ms:.1f} ms")
    return attempted, failed, devs, problems, clock_bad


def scaled_times(results, sampler):
    """Each row's and each call's time at the reference speed.  A sweep's
    rows run back to back from the start of the call, so each row's interval
    follows from the ones before it."""
    rows, calls = [], []
    for res in results:
        t = res.started
        for f in res.fields:
            end = t + float(f[checks.WALL]) / 1e3
            rows.append(sampler.scaled_ms(t, end))
            t = end
        calls.append(sampler.scaled_ms(res.started, res.started + res.outside_ms / 1e3))
    return rows, calls


def unit_keys(res) -> list:
    return [checks.row_key(f) for f in res.fields] or [f"raised {res.error}"]


def determinism(results, ledger_path):
    """Rows must agree byte for byte with an earlier run at the same seed,
    sources and plan."""
    keys = [k for res in results for k in unit_keys(res)]
    ok, ledger_rows = checks.ledger_check(str(ledger_path), keys)
    mismatches = [] if ok else [f"rows differ from the earlier run recorded in {ledger_path.name}"]
    return mismatches, ledger_rows


def properties(workload, plan, results, hist=None):
    rows = [checks.as_row(f) for r in results for f in r.fields]
    props = {
        "units": len(results),
        "points": len(rows),
    }
    if workload != "qfi-fixed-probe":
        props["points_per_edge"] = {u.edge: u.samples for u in plan}
        props["edge_order"] = [u.edge for u in plan]
    if workload == "h2-sweep":
        props["raw_h2_le_0_share"] = sum(r["status"] == "clamped" for r in rows) / max(len(rows), 1)
    else:
        props["divergent_share"] = sum(r["status"] == "divergent" for r in rows) / max(len(rows), 1)
    if hist is not None:
        props["ladder_depth_histogram"] = hist
    return props


def traced_run(qrl, plan, seconds, sampler):
    """Make every unit twice, untraced and traced, back to back and taking
    turns at going first, so that drift in the machine's speed falls on
    both alike.  The reference kernel runs during the untraced calls only.
    Returns (untraced, traced, tracer)."""
    tr = tracing.Tracer()
    traced = []

    def traced_call(unit):
        sampler.stop()
        tr.install(qrl)
        try:
            return wl.call_unit(
                qrl, unit, sweep_call=tr.root("harness.run_edge_sweep"),
                point_call=tr.root("harness.point_report"),
            )
        finally:
            tr.uninstall()
            sampler.start()

    def paired(_, unit):
        if len(traced) % 2:
            traced.append(traced_call(unit))
            return wl.call_unit(qrl, unit)
        plain = wl.call_unit(qrl, unit)
        traced.append(traced_call(unit))
        return plain

    return wl.run_for(qrl, plan, seconds, paired), traced, tr


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qrl" / "__init__.py").is_file():
        print(f"error: no qrl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qrl  # every layer module comes in with the package

    OUT.mkdir(exist_ok=True)
    setup = measure_setup() if args.trace == 0 else []
    warm(qrl)
    plan = wl.make_plan(args.workload, args.seed)
    env = environment(args.seed)
    sampler = refspeed.Sampler()
    sampler.start()
    try:
        if args.trace == 0:
            results = wl.run_for(qrl, plan, args.seconds)
            passes = results
        else:
            results, traced, tr = traced_run(qrl, plan, args.seconds, sampler)
            passes = results + traced
    finally:
        sampler.stop()
    latencies, call_ms = scaled_times(results, sampler)

    attempted, failed, devs, problems, clock_bad = assess(args.workload, passes)
    first = next((r for r in passes if r.fields), None)
    accepted = checks.checker_self_test(args.workload, first.unit, first.fields) if first else ["no rows"]
    # rows are compared only between runs of the same sources and plan
    plan_sha = hashlib.sha256(json.dumps([u.describe() for u in plan]).encode()).hexdigest()
    ledger = OUT / f"rows-{args.workload}-seed{args.seed}-{env['src_sha256'][:12]}-{plan_sha[:12]}.txt"
    mismatch, ledger_rows = determinism(results, ledger)
    if args.trace == 1:
        for k, (a, b) in enumerate(zip(results, traced)):
            if unit_keys(a) != unit_keys(b):
                mismatch.append(f"traced call of unit {k} differs from the untraced one")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "checks": {
            "problems": problems[:50],
            "checker_accepted_perturbed": accepted,
            "determinism_mismatches": mismatch,
            "traced_twins_compared": len(traced) if args.trace == 1 else 0,
            "rows_compared_with_ledger": ledger_rows,
            "clock_mismatches": clock_bad,
        },
        "fail_ratio": failed / attempted,
    }
    if args.trace == 0:
        tail, pct, beyond = tail_of(latencies)
        metrics = {
            "setup_s": (statistics.median(raw * refspeed.NOMINAL_MS / ref for raw, ref in setup), "s"),
            "points_per_s": (len(latencies) / (sum(call_ms) / 1e3), "1/s"),
            "point_ms_p50": (statistics.median(latencies), "ms"),
            "point_ms_tail": (tail, "ms"),
            "ok_ratio": (1.0 - failed / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ref_err": (checks.ref_err(devs), "tol"),
        }
        report["setup_runs"] = [{"raw_s": raw, "reference_ms": ref} for raw, ref in setup]
        report["raw"] = {
            "points_per_s": len(latencies) / (sum(r.outside_ms for r in results) / 1e3),
            "point_ms_p50": statistics.median(float(f[checks.WALL]) for r in results for f in r.fields),
            "setup_s": statistics.median(raw for raw, _ in setup),
        }
        report["anchor_max_abs_dev"] = max((d for d, _ in devs), default=None)
        report["tail"] = {"percentile": pct, "samples": len(latencies), "samples_above": beyond}
        report["point_ms"] = latencies
        report["reference_runs"] = len(sampler.starts)
        report["properties"] = properties(args.workload, plan, results)
    else:
        traced_rows = [checks.as_row(f) for r in traced for f in r.fields]
        base = qrl.QuadSpec()
        splits = [sampler.split(r.started, r.started + r.outside_ms / 1e3) for r in results]
        scale = statistics.median(refspeed.NOMINAL_MS / ref for _, ref in splits)
        layer, hist, shares = tracing.analyse(
            tr.spans, len(traced_rows), (base.nr, base.n_theta1, base.n_theta2),
            sum(r["status"] == "divergent" for r in traced_rows), scale,
        )
        wall_plain = sum(busy for busy, _ in splits) / 1e3  # kernel runs left out
        wall_traced = sum(r.outside_ms for r in traced) / 1e3
        metrics = dict(layer, **{"trace.overhead_ratio": (wall_traced / wall_plain - 1.0, "ratio")})
        report["checks"]["layers_not_entered"] = [m for m in MUST_ENTER[args.workload] if not metrics[m][0] > 0]
        report["time_shares"] = shares
        report["spans"] = len(tr.spans)
        report["reference_scale"] = scale
        report["untraced_s"], report["traced_s"] = wall_plain, wall_traced
        report["properties"] = properties(args.workload, plan, traced, hist)
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
            for span in tr.spans:
                fh.write(json.dumps(span) + "\n")
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    correct = not (failed or accepted or mismatch or clock_bad or report["checks"].get("layers_not_entered"))
    with open(OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
