"""Batch front end: vertex reports, edge sweeps, bound tables, CSV/SVG writers.

Every figure-of-merit evaluation is reduced to MeritReport rows with a fixed
CSV schema so that runs are comparable byte for byte (modulo wall time).
Sweep points are independent and may be fanned out to worker processes; rows
are sorted by the edge parameter, so their order never depends on
scheduling.  The runners only return results; the caller (the CLI) writes
files with the writers below.
"""

from __future__ import annotations

import logging
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .capacity import best_probe_h2, delta_star, one_shot_lower_bound
from .channel import ProbeState
from .fisher import DEFAULT_ETA_SCHEDULE, avg_qfi_at_probe, maximize_over_probe
from .unitary import VERTICES, UnitaryParams, edge_id, edge_point

log = logging.getLogger("qrl")

CSV_HEADER = (
    "edge,t,alpha_x,alpha_y,alpha_z,alpha_norm,metric,value,status,"
    "probe_phi1,probe_phi2,sigma_p1,sigma_p2,sigma_p3,wall_time_ms"
)
BOUND_HEADER = "epsilon,n,delta_star,correction,raw_bound,clamped_bound"

METRICS = ("h2", "qfi", "bound")
STATUSES = ("ok", "clamped", "divergent", "non-converged")

# faults of the numerics rather than of the caller's input; LinAlgError is
# also a ValueError, so handlers must test this tuple first
NUMERICAL_ERRORS = (RuntimeError, ArithmeticError, np.linalg.LinAlgError)


def _fmt(x) -> str:
    if x is None or x == "":
        return ""
    return f"{x:.12g}"


@dataclass(frozen=True)
class MeritReport:
    """One figure-of-merit evaluation at one tetrahedron point."""

    edge: str
    t: float
    alpha: tuple
    metric: str
    value: float
    status: str
    probe: tuple
    sigma: tuple
    wall_time_ms: float

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")

    @property
    def alpha_norm(self) -> float:
        return float(np.linalg.norm(self.alpha))

    def csv_fields(self) -> list:
        probe = self.probe if self.probe is not None else ("", "")
        sigma = self.sigma if self.sigma is not None else ("", "", "")
        return [
            self.edge,
            _fmt(self.t),
            _fmt(self.alpha[0]),
            _fmt(self.alpha[1]),
            _fmt(self.alpha[2]),
            _fmt(self.alpha_norm),
            self.metric,
            _fmt(self.value),
            self.status,
            _fmt(probe[0]),
            _fmt(probe[1]),
            _fmt(sigma[0]),
            _fmt(sigma[1]),
            _fmt(sigma[2]),
            _fmt(self.wall_time_ms),
        ]


@dataclass(frozen=True)
class SweepConfig:
    """Settings for one edge sweep; the CLI takes its defaults from these
    fields.  The edge is stored as its canonical id; workers None means
    every CPU."""

    edge: str
    metric: str = "h2"
    samples: int = 41
    epsilon: float = 0.05
    n: int = 1000
    eta_schedule: tuple = DEFAULT_ETA_SCHEDULE
    workers: int = None

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError(f"samples must be >= 2, got {self.samples!r}")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}, got {self.metric!r}")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1 (or None for every CPU), got {self.workers!r}")
        object.__setattr__(self, "edge", edge_id(self.edge))


def _status(ok: bool, otherwise: str, converged: bool) -> str:
    if not converged:
        return "non-converged"
    return "ok" if ok else otherwise


def _h2_fields(opt, metric: str, epsilon: float, n: int) -> dict:
    """Row fields of an h2 or bound row from one probe optimum; the value is
    clamped at 0 and the raw value sets the status."""
    raw = opt.h2 if metric == "h2" else one_shot_lower_bound(opt.h2, epsilon, n).raw_bound
    return dict(
        value=max(0.0, raw),
        status=_status(raw > 0.0, "clamped", opt.converged),
        probe=(opt.probe.phi1, opt.probe.phi2),
        sigma=opt.sigma,
    )


def _qfi_fields(res) -> dict:
    divergent = res.value == math.inf
    return dict(
        value=None if divergent else res.value,
        status=_status(not divergent, "divergent", res.converged),
        probe=(res.probe_opt.phi1, res.probe_opt.phi2),
    )


def _row(edge: str, t: float, params: UnitaryParams, metric: str, started: float,
         value=None, status="non-converged", probe=None, sigma=None) -> MeritReport:
    """A row at `params` timed from `started`; without fields it is the
    row of a failed evaluation."""
    return MeritReport(
        edge=edge,
        t=t,
        alpha=tuple(params.as_array()),
        metric=metric,
        value=value,
        status=status,
        probe=probe,
        sigma=sigma,
        wall_time_ms=(time.perf_counter() - started) * 1e3,
    )


def _eval_point(cfg: SweepConfig, t: float) -> MeritReport:
    params = edge_point(cfg.edge, t)
    started = time.perf_counter()
    try:
        if cfg.metric == "qfi":
            fields = _qfi_fields(maximize_over_probe(params, eta_schedule=cfg.eta_schedule))
        else:
            fields = _h2_fields(best_probe_h2(params), cfg.metric, cfg.epsilon, cfg.n)
    except NUMERICAL_ERRORS:
        log.exception("point evaluation failed: edge=%s t=%s metric=%s", cfg.edge, t, cfg.metric)
        fields = {}
    return _row(cfg.edge, t, params, cfg.metric, started, **fields)


def run_edge_sweep(cfg: SweepConfig) -> list:
    """Rows of the configured metric along the edge.

    Points are independent; failures are recorded per point and the sweep
    continues.  Results are sorted by t, so output is deterministic for any
    worker count.
    """
    ts = np.linspace(0.0, 1.0, cfg.samples)
    workers = cfg.workers or os.cpu_count() or 1
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_eval_point, [cfg] * len(ts), ts))
    else:
        reports = [_eval_point(cfg, t) for t in ts]
    reports.sort(key=lambda r: r.t)
    return reports


def run_vertex_report(
    vertex: str,
    epsilon: float,
    n: int,
    eta_schedule: tuple = DEFAULT_ETA_SCHEDULE,
) -> list:
    """H2, capacity bound and averaged-QFI rows for a named vertex; the h2
    and bound rows share one probe search."""
    if vertex not in VERTICES:
        raise ValueError(f"vertex must be one of {sorted(VERTICES)}, got {vertex!r}")
    params = VERTICES[vertex]
    started = time.perf_counter()
    opt = best_probe_h2(params)
    rows = [_row(vertex, 0.0, params, m, started, **_h2_fields(opt, m, epsilon, n)) for m in ("h2", "bound")]
    started = time.perf_counter()
    res = maximize_over_probe(params, eta_schedule=eta_schedule)
    rows.append(_row(vertex, 0.0, params, "qfi", started, **_qfi_fields(res)))
    return rows


def run_bound_table(p: UnitaryParams, epsilons, ns) -> tuple:
    """Bound grid over (epsilon, n) at the probe that maximizes H2: the
    probe optimum and the rows (epsilon, n, delta_star, correction, raw,
    clamped)."""
    opt = best_probe_h2(p)
    rows = []
    for eps in epsilons:
        ds = delta_star(eps)
        for n in ns:
            res = one_shot_lower_bound(opt.h2, eps, n)
            rows.append((eps, int(n), ds, res.correction, res.raw_bound, res.clamped_bound))
    return opt, rows


# --- file output -------------------------------------------------------------

def write_reports_csv(reports, path: str) -> None:
    lines = [CSV_HEADER]
    lines += [",".join(r.csv_fields()) for r in reports]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_bound_csv(rows, path: str) -> None:
    lines = [BOUND_HEADER]
    for eps, n, ds, corr, raw, clamped in rows:
        lines.append(",".join([_fmt(eps), str(n), _fmt(ds), _fmt(corr), _fmt(raw), _fmt(clamped)]))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


_SVG_W, _SVG_H = 800, 600
_MARGIN = 70


def write_sweep_svg(reports, path: str) -> None:
    """Minimal static plot: one polyline per metric against alpha_norm."""
    series = {}
    for r in reports:
        if r.value is not None:
            series.setdefault(r.metric, []).append((r.alpha_norm, r.value))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_SVG_H - _MARGIN}" x2="{_SVG_W - _MARGIN}" y2="{_SVG_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" y2="{_SVG_H - _MARGIN}" stroke="black"/>',
    ]
    pts_all = [p for pts in series.values() for p in pts]
    if pts_all:
        xs = [p[0] for p in pts_all]
        ys = [p[1] for p in pts_all]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        xspan = (x1 - x0) or 1.0
        yspan = (y1 - y0) or 1.0

        def sx(x):
            return _MARGIN + (x - x0) / xspan * (_SVG_W - 2 * _MARGIN)

        def sy(y):
            return _SVG_H - _MARGIN - (y - y0) / yspan * (_SVG_H - 2 * _MARGIN)

        colors = {"h2": "#1f77b4", "qfi": "#d62728", "bound": "#2ca02c"}
        for metric, pts in sorted(series.items()):
            coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in sorted(pts))
            parts.append(
                f'<polyline fill="none" stroke="{colors.get(metric, "black")}" points="{coords}"/>'
            )
        parts.append(
            f'<text x="{_MARGIN}" y="{_SVG_H - _MARGIN + 30}" font-size="14">{_fmt(x0)}</text>'
        )
        parts.append(
            f'<text x="{_SVG_W - _MARGIN - 40}" y="{_SVG_H - _MARGIN + 30}" font-size="14">{_fmt(x1)}</text>'
        )
        parts.append(f'<text x="{_MARGIN - 60}" y="{_SVG_H - _MARGIN}" font-size="14">{_fmt(y0)}</text>')
        parts.append(f'<text x="{_MARGIN - 60}" y="{_MARGIN + 10}" font-size="14">{_fmt(y1)}</text>')
    edges = sorted({r.edge for r in reports})
    metrics = sorted({r.metric for r in reports})
    parts.append(
        f'<text x="{_SVG_W / 2 - 60}" y="{_MARGIN - 30}" font-size="16">'
        f'{"+".join(edges)}: {"+".join(metrics)} vs |alpha|</text>'
    )
    parts.append(f'<text x="{_SVG_W / 2 - 30}" y="{_SVG_H - 20}" font-size="14">|alpha|</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def point_report(
    p: UnitaryParams,
    probe: ProbeState = None,
    eta_schedule: tuple = DEFAULT_ETA_SCHEDULE,
) -> MeritReport:
    """Single averaged-QFI row at an arbitrary tetrahedron point, at `probe`
    or at the optimized probe when it is None."""
    started = time.perf_counter()
    if probe is None:
        res = maximize_over_probe(p, eta_schedule=eta_schedule)
    else:
        res = avg_qfi_at_probe(p, probe, eta_schedule=eta_schedule)
    return _row("point", 0.0, p, "qfi", started, **_qfi_fields(res))
