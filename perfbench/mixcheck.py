"""Compare the sweep workloads' point mix with a default sweep.

    python3 perfbench/mixcheck.py --metric h2      # 4-6 minutes
    python3 perfbench/mixcheck.py --metric qfi     # 5-8 minutes

Runs ``run_edge_sweep`` on all six edges twice: once at the default 41
samples, as ``qrl sweep`` does, and once at the benchmark's own sample count.
For each it prints the vertex, divergent and clamped shares of the rows and
the per-point latency at the reference speed (median, and the median of the
vertex and of the interior rows).  Nothing here is timed by the benchmark;
the figures are recorded in README.md and baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import run  # pins BLAS to one thread before numpy loads
import refspeed
import workloads as wl


def sweep_rows(qrl, metric: str, samples: int, sampler) -> list:
    """(vertex?, status, scaled ms) of every row of six edge sweeps."""
    rows = []
    for edge in wl.EDGES:
        cfg = qrl.harness.SweepConfig(edge=edge, metric=metric, samples=samples, workers=1)
        t = time.perf_counter()
        for r in qrl.harness.run_edge_sweep(cfg):
            end = t + r.wall_time_ms / 1e3
            rows.append((r.t in (0.0, 1.0), r.status, sampler.scaled_ms(t, end)))
            t = end
    return rows


def summary(rows) -> dict:
    n = len(rows)
    share = lambda status: sum(s == status for _, s, _ in rows) / n
    med = lambda sel: statistics.median(ms for v, _, ms in rows if sel(v))
    return {
        "points": n,
        "vertex_share": sum(v for v, _, _ in rows) / n,
        "divergent_share": share("divergent"),
        "clamped_share": share("clamped"),
        "point_ms_p50": med(lambda v: True),
        "vertex_ms_p50": med(lambda v: v),
        "interior_ms_p50": med(lambda v: not v),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--metric", required=True, choices=sorted(set(wl.SWEEP_METRIC.values())))
    args = ap.parse_args()
    if not (run.SRC / "qrl" / "__init__.py").is_file():
        print(f"error: no qrl sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    import qrl

    run.warm(qrl)
    sampler = refspeed.Sampler()
    sampler.start()
    try:
        default = qrl.harness.SweepConfig.samples
        out = {
            f"default_{default}": summary(sweep_rows(qrl, args.metric, default, sampler)),
            f"benchmark_{wl.SWEEP_SAMPLES}": summary(sweep_rows(qrl, args.metric, wl.SWEEP_SAMPLES, sampler)),
        }
    finally:
        sampler.stop()
    print(json.dumps({"metric": args.metric, **out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
