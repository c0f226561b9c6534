"""Command line front end.

Exit codes: 0 on success, 2 for invalid arguments (including tetrahedron
ordering violations), 3 when any row is non-converged or an internal
numerical invariant fails.  Log verbosity is taken from the QRL_LOG
environment variable (error, info, debug); logs go to stderr so stdout stays
machine readable.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .fisher import DEFAULT_ETA_SCHEDULE, QuadSpec
from .harness import (
    CSV_HEADER,
    NUMERICAL_ERRORS,
    SweepConfig,
    load_config,
    point_report,
    run_bound_table,
    run_edge_sweep,
    run_vertex_report,
    write_bound_csv,
    write_reports_csv,
)
from .channel import ProbeState
from .unitary import EDGE_IDS, UnitaryParams

log = logging.getLogger("qrl")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    name = os.environ.get("QRL_LOG", "error").strip().lower()
    level = _LOG_LEVELS.get(name)
    logging.basicConfig(stream=sys.stderr, level=level or logging.ERROR,
                        format="%(levelname)s %(name)s: %(message)s")
    if level is None and name not in _LOG_LEVELS:
        log.error("unknown QRL_LOG value %r; using error", name)


def _floats(text: str) -> tuple:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}")


def _ints(text: str) -> tuple:
    vals = _floats(text)
    out = tuple(int(v) for v in vals)
    if any(abs(a - b) > 0 for a, b in zip(out, vals)):
        raise ValueError(f"expected integers, got {text!r}")
    return out


def _alpha(text: str) -> UnitaryParams:
    vals = _floats(text)
    if len(vals) != 3:
        raise ValueError(f"--alpha needs three comma-separated values, got {text!r}")
    return UnitaryParams(*vals)


def _probe(text: str) -> ProbeState:
    vals = _floats(text)
    if len(vals) != 2:
        raise ValueError(f"--probe needs two comma-separated values, got {text!r}")
    return ProbeState(vals[0], vals[1])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrl",
        description="Readout limits of environment-parametrized two-qubit channels",
    )
    parser.add_argument("--config", help="INI file with [global] and per-command sections")
    parser.add_argument("--workers", type=int, help="process count for sweeps")
    parser.add_argument("--eta-schedule", help="comma-separated radial cutoffs, largest first")
    sub = parser.add_subparsers(dest="command", required=True)

    vertex = sub.add_parser("vertex", help="all three merits at a named vertex")
    vertex.add_argument("--name", choices=("I", "C", "S", "D"))
    vertex.add_argument("--epsilon", type=float)
    vertex.add_argument("--n", type=int)
    vertex.add_argument("--out")

    sweep = sub.add_parser("sweep", help="one metric along a tetrahedron edge")
    sweep.add_argument("--edge", choices=EDGE_IDS)
    sweep.add_argument("--metric", choices=("h2", "qfi", "bound"))
    sweep.add_argument("--samples", type=int)
    sweep.add_argument("--svg")
    sweep.add_argument("--out")

    bound = sub.add_parser("bound", help="capacity bound table over (epsilon, n)")
    bound.add_argument("--alpha", help="alpha_x,alpha_y,alpha_z")
    bound.add_argument("--epsilons", help="comma-separated epsilon values")
    bound.add_argument("--ns", help="comma-separated block lengths")
    bound.add_argument("--out")

    qfi = sub.add_parser("qfi", help="averaged QFI at one tetrahedron point")
    qfi.add_argument("--alpha", help="alpha_x,alpha_y,alpha_z")
    qfi.add_argument("--probe", help="phi1,phi2 (default: optimized)")
    qfi.add_argument("--out")
    return parser


# the config keys each command reads, from its own section or from [global]
_GLOBAL_KEYS = ("workers", "eta-schedule", "eta_schedule")
_COMMAND_KEYS = {
    "vertex": ("name", "epsilon", "n", "out"),
    "sweep": ("edge", "metric", "samples", "epsilon", "n", "out", "svg"),
    "bound": ("alpha", "epsilons", "ns", "out"),
    "qfi": ("alpha", "probe", "out"),
}


def _check_keys(file_cfg: dict, command: str) -> None:
    """A key the command does not read is a typo or a stale setting: refuse
    it rather than run on with the default."""
    known = set(_GLOBAL_KEYS + _COMMAND_KEYS[command])
    for section in (command, "global"):
        unknown = sorted(set(file_cfg.get(section, {})) - known)
        if unknown:
            raise ValueError(
                f"config section [{section}] has key(s) that '{command}' does not read: {', '.join(unknown)}"
            )


def _merge(args, file_cfg: dict, key: str, default=None, cast=None):
    """CLI flag, else [command] section, else [global] section, else default."""
    if key not in _GLOBAL_KEYS + _COMMAND_KEYS[args.command]:
        raise KeyError(f"config key {key!r} missing from the key table of '{args.command}'")
    cli_val = getattr(args, key.replace("-", "_"), None)
    if cli_val is not None:
        return cast(cli_val) if cast else cli_val
    for section in (args.command, "global"):
        raw = file_cfg.get(section, {}).get(key)
        if raw is not None:
            return cast(raw) if cast else raw
    return default


def _require(value, flag: str):
    if value is None:
        raise ValueError(f"missing required option {flag}")
    return value


def _emit(reports, out: str) -> None:
    if out:
        write_reports_csv(reports, out)
    else:
        print(CSV_HEADER)
        for r in reports:
            print(",".join(r.csv_fields()))


def _run(args) -> int:
    file_cfg = load_config(args.config) if args.config else {}
    _check_keys(file_cfg, args.command)
    workers = _merge(args, file_cfg, "workers", None, int)
    schedule = _merge(args, file_cfg, "eta-schedule", None, _floats)
    if schedule is None:
        schedule = _merge(args, file_cfg, "eta_schedule", DEFAULT_ETA_SCHEDULE, _floats)

    if args.command == "vertex":
        name = _require(_merge(args, file_cfg, "name"), "--name")
        epsilon = _merge(args, file_cfg, "epsilon", 0.05, float)
        n = _merge(args, file_cfg, "n", 1000, int)
        out = _merge(args, file_cfg, "out")
        reports = run_vertex_report(name, epsilon, n, tuple(schedule))
        _emit(reports, out)
        return 3 if any(r.status == "non-converged" for r in reports) else 0

    if args.command == "sweep":
        cfg = SweepConfig(
            edge=_require(_merge(args, file_cfg, "edge"), "--edge"),
            metric=_merge(args, file_cfg, "metric", "h2"),
            samples=_merge(args, file_cfg, "samples", 41, int),
            epsilon=_merge(args, file_cfg, "epsilon", 0.05, float),
            n=_merge(args, file_cfg, "n", 1000, int),
            eta_schedule=tuple(schedule),
            workers=workers,
            out=_require(_merge(args, file_cfg, "out"), "--out"),
            svg=_merge(args, file_cfg, "svg"),
        )
        reports = run_edge_sweep(cfg)
        failed = sum(r.status == "non-converged" for r in reports)
        log.log(logging.ERROR if failed else logging.INFO,
                "sweep %s/%s: %d points, %d non-converged -> %s",
                cfg.edge, cfg.metric, len(reports), failed, cfg.out)
        return 3 if failed else 0

    if args.command == "bound":
        params = _alpha(_require(_merge(args, file_cfg, "alpha"), "--alpha"))
        epsilons = _floats(_require(_merge(args, file_cfg, "epsilons"), "--epsilons"))
        ns = _ints(_require(_merge(args, file_cfg, "ns"), "--ns"))
        out = _require(_merge(args, file_cfg, "out"), "--out")
        table = run_bound_table(params, epsilons, ns)
        write_bound_csv(table, out)
        log.info("bound table at h2=%.9g (probe %.6g,%.6g) -> %s",
                 table.h2, table.probe.phi1, table.probe.phi2, out)
        return 0

    probe_text = _merge(args, file_cfg, "probe")
    params = _alpha(_require(_merge(args, file_cfg, "alpha"), "--alpha"))
    probe = _probe(probe_text) if probe_text else None
    report = point_report(params, probe, QuadSpec(), tuple(schedule))
    _emit([report], _merge(args, file_cfg, "out"))
    return 3 if report.status == "non-converged" else 0


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except NUMERICAL_ERRORS as exc:
        log.error("%s", exc)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
