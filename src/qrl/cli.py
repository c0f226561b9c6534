"""Command line front end.

The argparse parser is the one table of commands, keys, types and defaults:
defaults come from `SweepConfig`'s fields and choices from METRICS, VERTICES
and EDGE_IDS.  A --config file names each key by its option's dest
(eta_schedule, epsilon, ...); its [global] and [command] sections become
parser defaults, so argparse applies the precedence and the casts.  The CLI
writes every output file.

Exit codes: 0 on success, 2 for invalid arguments (including tetrahedron
ordering violations), 3 when any row is non-converged or an internal
numerical invariant fails.  Log verbosity is taken from the QRL_LOG
environment variable (error, info, debug); logs go to stderr so stdout stays
machine readable.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import math
import os
import sys
from dataclasses import fields

from .harness import (
    CSV_HEADER,
    METRICS,
    NUMERICAL_ERRORS,
    SweepConfig,
    point_report,
    run_bound_table,
    run_edge_sweep,
    run_vertex_report,
    write_bound_csv,
    write_reports_csv,
    write_sweep_svg,
)
from .channel import ProbeState
from .unitary import EDGE_IDS, VERTICES, UnitaryParams, edge_id

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
    if not all(math.isfinite(v) and v == int(v) for v in vals):
        raise ValueError(f"expected integers, got {text!r}")
    return tuple(int(v) for v in vals)


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


def _build_parser():
    """The parser and its command subparsers by name: the one table of the
    CLI's keys, types, choices and defaults."""
    parser = argparse.ArgumentParser(
        prog="qrl",
        description="Readout limits of environment-parametrized two-qubit channels",
    )
    parser.add_argument("--config", help="INI file with [global] and per-command sections")
    parser.add_argument("--workers", type=int, default=SweepConfig.workers,
                        help="process count for sweeps (default: every CPU)")
    parser.add_argument("--eta-schedule", type=_floats, default=SweepConfig.eta_schedule,
                        help="comma-separated radial cutoffs, one or more")
    sub = parser.add_subparsers(dest="command", required=True)

    vertex = sub.add_parser("vertex", help="all three merits at a named vertex")
    vertex.add_argument("--name", choices=tuple(VERTICES))

    sweep = sub.add_parser("sweep", help="one metric along a tetrahedron edge")
    sweep.add_argument("--edge", type=edge_id, choices=EDGE_IDS, help="SD names DS; case is ignored")
    sweep.add_argument("--metric", choices=METRICS, default=SweepConfig.metric)
    sweep.add_argument("--samples", type=int, default=SweepConfig.samples)
    sweep.add_argument("--svg")
    for cmd in (vertex, sweep):
        cmd.add_argument("--epsilon", type=float, default=SweepConfig.epsilon)
        cmd.add_argument("--n", type=int, default=SweepConfig.n)

    bound = sub.add_parser("bound", help="capacity bound table over (epsilon, n)")
    bound.add_argument("--alpha", help="alpha_x,alpha_y,alpha_z")
    bound.add_argument("--epsilons", help="comma-separated epsilon values")
    bound.add_argument("--ns", help="comma-separated block lengths")

    qfi = sub.add_parser("qfi", help="averaged QFI at one tetrahedron point")
    qfi.add_argument("--alpha", help="alpha_x,alpha_y,alpha_z")
    qfi.add_argument("--probe", help="phi1,phi2 (default: optimized)")
    for cmd in sub.choices.values():
        cmd.add_argument("--out")
    return parser, sub.choices


def load_config(path: str) -> dict:
    """Plain key = value sections, values raw strings (a % is literal)."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ValueError(f"config file {path!r} is malformed: {exc}") from None
    if not read:
        raise ValueError(f"config file {path!r} not found or unreadable")
    return {section: dict(parser.items(section)) for section in parser.sections()}


def _keys(parser) -> set:
    """The config keys a parser reads: the dests of its options."""
    return {a.dest for a in parser._actions if a.option_strings} - {"help", "config"}


def _parse(argv):
    """Parse argv; with --config, the file's [global] and then [command]
    sections become parser defaults and argv is parsed again, so a flag
    beats [command], which beats [global], which beats the built-in
    default, and file values go through the same casts as flags."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if not args.config:
        return args
    file_cfg = load_config(args.config)
    command = commands[args.command]
    main_keys, command_keys = _keys(parser), _keys(command)
    # a key the command does not read is a typo or a stale setting: refuse
    # it rather than run on with the default
    for section in (args.command, "global"):
        unknown = sorted(set(file_cfg.get(section, {})) - main_keys - command_keys)
        if unknown:
            raise ValueError(
                f"config section [{section}] has key(s) that '{args.command}' does not read: {', '.join(unknown)}"
            )
    for section in ("global", args.command):
        for key, value in file_cfg.get(section, {}).items():
            (parser if key in main_keys else command).set_defaults(**{key: value})
    return parser.parse_args(argv)


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
    if args.command == "vertex":
        reports = run_vertex_report(_require(args.name, "--name"), args.epsilon, args.n, args.eta_schedule)
        _emit(reports, args.out)
        return 3 if any(r.status == "non-converged" for r in reports) else 0

    if args.command == "sweep":
        _require(args.edge, "--edge")
        out = _require(args.out, "--out")
        cfg = SweepConfig(**{f.name: getattr(args, f.name) for f in fields(SweepConfig)})
        reports = run_edge_sweep(cfg)
        write_reports_csv(reports, out)
        if args.svg:
            write_sweep_svg(reports, args.svg)
        failed = sum(r.status == "non-converged" for r in reports)
        log.log(logging.ERROR if failed else logging.INFO,
                "sweep %s/%s: %d points, %d non-converged -> %s",
                cfg.edge, cfg.metric, len(reports), failed, out)
        return 3 if failed else 0

    if args.command == "bound":
        params = _alpha(_require(args.alpha, "--alpha"))
        epsilons = _floats(_require(args.epsilons, "--epsilons"))
        ns = _ints(_require(args.ns, "--ns"))
        out = _require(args.out, "--out")
        opt, rows = run_bound_table(params, epsilons, ns)
        write_bound_csv(rows, out)
        log.info("bound table at h2=%.9g (probe %.6g,%.6g) -> %s",
                 opt.h2, opt.probe.phi1, opt.probe.phi2, out)
        return 0

    params = _alpha(_require(args.alpha, "--alpha"))
    probe = _probe(args.probe) if args.probe else None
    report = point_report(params, probe, args.eta_schedule)
    _emit([report], args.out)
    return 3 if report.status == "non-converged" else 0


def main(argv=None) -> int:
    _setup_logging()
    try:
        return _run(_parse(argv))
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
