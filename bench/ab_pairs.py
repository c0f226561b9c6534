"""Alternating parent/change runs of one perfbench workload, paired by seed.

    python3 bench/ab_pairs.py --workload h2-sweep --seeds 2801-2805 PARENT CHANGE
    python3 bench/ab_pairs.py --workload h2-sweep --seeds 2806 --aa PARENT PARENT_COPY

PARENT and CHANGE are two checkouts, each with its own `perfbench/run.py`
and `src/qrl`; make each a fresh copy (`git archive` of the commit) at a
path of the same length, since the path's length shifts the process's
memory layout and with it the timings.  Per seed the script runs
`python3 perfbench/run.py --workload W --seed N --seconds S --trace 0`, S
the `run_seconds` of `BENCHMARK.json`, once in each tree, back to back,
the side that runs first alternating with the seed.  With --aa the second tree is a copy of the first (an A/A pair), and
its side is named `parent_copy`.

From each run it reads the result line and, from `os.wait4`, the run's
minor page faults and max RSS (that of the benchmark process and the
set-up interpreters it waited for).  The QFI kernel keeps its
temporaries in one workspace per call, so a QFI run reads tens of
thousands of minor faults (about 58k per 25 s `qfi-sweep` run); a run near
1M per 10 s means block-sized temporaries are back and glibc returns them
to the OS between blocks (heap trimming), a kernel regression that cost
the QFI workloads 35-45% of p50.

Prints, to stderr, one line per run and then per end-to-end metric of
`BENCHMARK.json` the median of each side and the pairs each side won
(ties count for neither).  The last stdout line is one JSON entry in the
shape of `BENCH_trajectory.json`'s: its `workloads` block for a pair, its
`aa` block with --aa.  It leaves `label` and `claim` to be filled in.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
# metrics whose every run goes into the entry, as in the existing entries
PER_RUN = ("point_ms_p50", "point_ms_tail", "points_per_s", "peak_rss_mb")


def parse_seeds(text: str) -> list:
    """'2801-2805' or '2801,2803' or '2801'."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One benchmark run in `tree`: its result, report env and rusage."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"]
    with tempfile.TemporaryFile() as out:
        proc = subprocess.Popen(cmd, cwd=tree, stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        out.seek(0)
        lines = out.read().decode().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{tree}: run.py exited {proc.returncode} at seed {seed}")
    result, report = json.loads(lines[-1]), json.loads(lines[-2])
    return {
        "correct": result["correct"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "env": report["env"],
        "minor_faults": usage.ru_minflt,
        "max_rss_mb": usage.ru_maxrss / 1024.0,
    }


def quartiles(values: list) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def better(metric: str, a: float, b: float) -> bool:
    """Whether a beats b on the metric."""
    return a < b if END_TO_END[metric] == "lower" else a > b


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 2801-2805 or 2801,2803")
    ap.add_argument("--aa", action="store_true", help="CHANGE is a copy of PARENT")
    args = ap.parse_args(argv)
    trees = [args.parent.resolve(), args.change.resolve()]
    if len(str(trees[0])) != len(str(trees[1])):
        ap.error(f"tree paths differ in length: {trees[0]} and {trees[1]}")
    sides = ("parent", "parent_copy" if args.aa else "change")

    runs = {side: [] for side in sides}
    for k, seed in enumerate(args.seeds):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        for i in order:
            run = run_once(trees[i], args.workload, seed)
            runs[sides[i]].append(run)
            m = run["metrics"]
            print(f"seed {seed} {sides[i]:11s} correct={run['correct']} points/s {m['points_per_s']:.2f} "
                  f"p50 {m['point_ms_p50']:.4f} tail {m['point_ms_tail']:.3f} ms peak RSS {m['peak_rss_mb']:.2f} MB "
                  f"minor faults {run['minor_faults']}", file=sys.stderr)

    values = {side: {name: [r["metrics"][name] for r in runs[side]] for name in END_TO_END} for side in sides}
    won = {}  # per metric, the pairs the first side won and the pairs the second won
    for name in END_TO_END:
        first, second = (values[side][name] for side in sides)
        won[name] = (sum(map(lambda x, y: better(name, x, y), first, second)),
                     sum(map(lambda x, y: better(name, y, x), first, second)))
        meds = [statistics.median(v) for v in (first, second)]
        move = f"{(meds[1] / meds[0] - 1) * 100:+.1f}%" if meds[0] else "n/a"
        print(f"{name:14s} {sides[0]} {meds[0]:.6g}  {sides[1]} {meds[1]:.6g}  ({move})"
              f"  pairs won {won[name][0]} : {won[name][1]}", file=sys.stderr)

    faults = {side: [r["minor_faults"] for r in runs[side]] for side in sides}
    max_rss = {side: [round(r["max_rss_mb"], 4) for r in runs[side]] for side in sides}
    env, change_env = (runs[side][0]["env"] for side in sides)
    if args.aa:
        block = {metric: {side: [round(v, 4) for v in values[side][metric]] for side in sides} for metric in PER_RUN}
        entry = {"aa": {args.workload: {"seeds": args.seeds, **block, "minor_faults": faults, "max_rss_mb": max_rss}}}
    else:
        block = {
            "pairs": len(args.seeds),
            "correct": all(r["correct"] for side in sides for r in runs[side]),
            **{side: {name: quartiles(values[side][name]) for name in END_TO_END} for side in sides},
            "minor_faults": faults,
            "max_rss_mb": max_rss,
            "change_better_in_pairs": {name: won[name][1] for name in PER_RUN},
            "runs": {side: {name: [round(v, 4) for v in values[side][name]] for name in PER_RUN} for side in sides},
        }
        entry = {
            "label": None,
            "parent": env["git_commit"],
            "commit": change_env["git_commit"],
            "src_sha256": {"parent": env["src_sha256"], "change": change_env["src_sha256"]},
            "seeds": {args.workload: args.seeds},
            "claim": None,
            "runs": f"python3 perfbench/run.py --workload {args.workload} --seed N --seconds {BENCHMARK['run_seconds']} "
                    "--trace 0 in each tree per seed, back to back, the side that runs first alternating with "
                    "the seed; minor page faults and max RSS from os.wait4 (bench/ab_pairs.py)",
            "env": {k: env[k] for k in ("nproc", "python", "numpy")},
            "workloads": {args.workload: block},
        }
    print(json.dumps(entry))
    return 0 if all(r["correct"] for side in sides for r in runs[side]) else 1


if __name__ == "__main__":
    sys.exit(main())
