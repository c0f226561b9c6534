"""Output checks for every benchmark row, and the determinism ledger.

Rows arrive as the program's CSV fields (``MeritReport.csv_fields``) and are
checked against anchors that do not depend on the program: the gate of each
row is recomputed here from its edge and t, and the reference values are the
paper's (H2 = 1 on the DS edge, C-vertex averaged QFI 1.76108).  Nothing in
this module imports qrl, so the self-test runs without it.
"""

from __future__ import annotations

import math
import os

HALF_PI = math.pi / 2.0
HEADER = (
    "edge,t,alpha_x,alpha_y,alpha_z,alpha_norm,metric,value,status,"
    "probe_phi1,probe_phi2,sigma_p1,sigma_p2,sigma_p3,wall_time_ms"
).split(",")
WALL = HEADER.index("wall_time_ms")

EDGE_ALPHA = {
    "IC": lambda s: (s, 0.0, 0.0),
    "IS": lambda s: (s, s, s),
    "ID": lambda s: (s, s, 0.0),
    "CS": lambda s: (HALF_PI, s, s),
    "CD": lambda s: (HALF_PI, s, 0.0),
    "DS": lambda s: (HALF_PI, HALF_PI, s),
}
VERTICES = {
    "I": (0.0, 0.0, 0.0),
    "C": (HALF_PI, 0.0, 0.0),
    "S": (HALF_PI, HALF_PI, HALF_PI),
    "D": (HALF_PI, HALF_PI, 0.0),
}

ALPHA_TOL = 1e-9
H2_DS_TOL = 1e-3  # DS rows: H2 = 1
H2_IC_TOL = 1e-3  # IC rows: H2 <= 1e-3
H2_MONO_TOL = 1e-4  # CS, CD: non-decreasing in t
C_QFI = 1.76108
C_QFI_TOL = 1e-2
I_QFI_TOL = 1e-9
# ref_err resolves deviations down to this share of the anchor's tolerance:
# a change that keeps every anchor within a fifth of its tolerance reads as
# none, so a numerical change is flagged only once it spends a real share
REF_RESOLUTION = 0.2


def ref_err(devs) -> float:
    """Largest anchor deviation as a share of its tolerance, floored at
    REF_RESOLUTION so that moves far inside every tolerance read as none."""
    return max((max(d / tol, REF_RESOLUTION) for d, tol in devs), default=REF_RESOLUTION)


def as_row(fields) -> dict:
    if len(fields) != len(HEADER):
        raise ValueError(f"row has {len(fields)} fields, expected {len(HEADER)}")
    return dict(zip(HEADER, fields))


def row_key(fields) -> str:
    """The row as compared between runs: every field but wall_time_ms."""
    return ",".join(f for i, f in enumerate(fields) if i != WALL)


def _num(row, key):
    s = row[key]
    return float(s) if s != "" else None


def vertex_of(alpha) -> str:
    for name, v in VERTICES.items():
        if max(abs(a - b) for a, b in zip(alpha, v)) <= ALPHA_TOL:
            return name
    return ""


def expected_alpha(unit_kind: str, unit_alpha, row) -> tuple:
    if unit_kind == "sweep":
        return EDGE_ALPHA[row["edge"]](float(row["t"]) * HALF_PI)
    return tuple(unit_alpha)


def _common(row, alpha, metric) -> list:
    errs = []
    if row["metric"] != metric:
        errs.append(f"metric {row['metric']!r} != {metric!r}")
    got = tuple(_num(row, k) for k in ("alpha_x", "alpha_y", "alpha_z"))
    if None in got or max(abs(a - b) for a, b in zip(got, alpha)) > ALPHA_TOL:
        errs.append(f"alpha {got} != expected {alpha}")
    else:
        norm = _num(row, "alpha_norm")
        if norm is None or abs(norm - math.sqrt(sum(a * a for a in got))) > ALPHA_TOL:
            errs.append("alpha_norm does not match alpha")
    phi1, phi2 = _num(row, "probe_phi1"), _num(row, "probe_phi2")
    # fields carry 12 significant digits, so pi itself prints a little above pi
    if phi1 is None or phi2 is None or not (
        0.0 <= phi1 <= math.pi + ALPHA_TOL and 0.0 <= phi2 < 2.0 * math.pi + ALPHA_TOL
    ):
        errs.append(f"probe ({phi1}, {phi2}) outside [0, pi] x [0, 2pi)")
    wall = _num(row, "wall_time_ms")
    if wall is None or not wall >= 0.0:
        errs.append("wall_time_ms missing or negative")
    return errs


def _h2_row(row, alpha) -> tuple:
    """Errors and the anchor (deviation, tolerance), or None, of one h2 row."""
    errs, dev = [], None
    v = _num(row, "value")
    if v is None or not 0.0 <= v <= 1.0 + 1e-9:
        return errs + [f"H2 {v} outside [0, 1]"], dev
    if row["status"] not in ("ok", "clamped"):
        errs.append(f"status {row['status']!r}")
    if (row["status"] == "clamped") != (v == 0.0):
        errs.append(f"status {row['status']!r} with value {v}")
    sigma = [_num(row, k) for k in ("sigma_p1", "sigma_p2", "sigma_p3")]
    if None in sigma or math.sqrt(sum(s * s for s in sigma)) > 1.0:
        errs.append(f"sigma {sigma} outside the Bloch ball")
    vert = vertex_of(alpha)
    if row["edge"] == "DS" or vert in ("S", "D"):
        dev = (abs(v - 1.0), H2_DS_TOL)
        if dev[0] > H2_DS_TOL:
            errs.append(f"H2 {v} not within {H2_DS_TOL} of 1 on DS/S/D")
    elif row["edge"] == "IC" or vert in ("I", "C"):
        dev = (v, H2_IC_TOL)
        if v > H2_IC_TOL:
            errs.append(f"H2 {v} above {H2_IC_TOL} on IC/I/C")
    return errs, dev


def _qfi_row(row, alpha, unit) -> tuple:
    errs, dev = [], None
    v = _num(row, "value")
    vert = vertex_of(alpha)
    if unit.kind == "sweep":
        divergent = row["edge"] == "DS" or vert in ("S", "D")
    elif unit.anchor:
        divergent = unit.anchor in ("S", "D")
    else:
        divergent = None  # a random query may land on either side
    if row["status"] == "divergent":
        if v is not None:
            errs.append("divergent row carries a value")
        if divergent is False:
            errs.append("divergent where a finite value is expected")
    elif row["status"] == "ok":
        if v is None or not math.isfinite(v) or v < -1e-12:
            errs.append(f"averaged QFI {v} not finite and >= 0")
        elif divergent:
            errs.append(f"finite value {v} where divergence is expected")
        elif vert == "C":
            dev = (abs(v - C_QFI), C_QFI_TOL)
            if dev[0] > C_QFI_TOL:
                errs.append(f"C-vertex QFI {v} not within {C_QFI_TOL} of {C_QFI}")
        elif vert == "I":
            dev = (abs(v), I_QFI_TOL)
            if dev[0] > I_QFI_TOL:
                errs.append(f"I-vertex QFI {v} is not 0")
    else:
        errs.append(f"status {row['status']!r}")
    if unit.kind == "point" and not errs:
        phi1, phi2 = _num(row, "probe_phi1"), _num(row, "probe_phi2")
        want2 = unit.probe[1] % (2.0 * math.pi)
        d2 = abs(phi2 - want2)
        if abs(phi1 - unit.probe[0]) > ALPHA_TOL or min(d2, 2.0 * math.pi - d2) > ALPHA_TOL:
            errs.append("reported probe is not the queried probe")
    return errs, dev


def check_unit(workload: str, unit, rows_fields) -> tuple:
    """Per-row error lists and the (deviation, tolerance) pairs of the
    unit's anchor rows."""
    errors, devs = [], []
    rows = []
    for fields in rows_fields:
        try:
            rows.append(as_row(fields))
        except ValueError as exc:
            rows.append(None)
            errors.append([str(exc)])
            continue
        errors.append([])
    if unit.kind == "sweep" and len(rows) != unit.samples:
        errors = [e + [f"sweep returned {len(rows)} rows for {unit.samples} samples"] for e in errors]
    metric = "h2" if workload == "h2-sweep" else "qfi"
    for i, row in enumerate(rows):
        if row is None:
            continue
        try:
            if unit.kind == "sweep":
                if row["edge"] != unit.edge or row["edge"] not in EDGE_ALPHA:
                    errors[i].append(f"edge {row['edge']!r} != {unit.edge!r}")
                    continue
                want_t = i / (unit.samples - 1)
                if abs(float(row["t"]) - want_t) > ALPHA_TOL:
                    errors[i].append(f"t {row['t']} != {want_t}")
                    continue
            alpha = expected_alpha(unit.kind, unit.alpha, row)
            errors[i] += _common(row, alpha, metric)
            errs, dev = _h2_row(row, alpha) if metric == "h2" else _qfi_row(row, alpha, unit)
        except ValueError as exc:  # a field that does not parse as a number
            errors[i].append(f"unparsable field: {exc}")
            rows[i] = None
            continue
        errors[i] += errs
        if dev is not None:
            devs.append(dev)
    if metric == "h2" and unit.kind == "sweep" and unit.edge in ("CS", "CD"):
        vals = [_num(r, "value") if r else None for r in rows]
        for i in range(1, len(vals)):
            if None not in (vals[i - 1], vals[i]) and vals[i - 1] - vals[i] > H2_MONO_TOL:
                errors[i].append(f"{unit.edge} drops by {vals[i - 1] - vals[i]:.3g} from the previous t")
    return errors, devs


def _is_anchor(row, unit) -> bool:
    vert = vertex_of(expected_alpha(unit.kind, unit.alpha, row))
    if row["metric"] == "h2":
        return row["edge"] in ("DS", "IC") or vert != ""
    return vert in ("C", "I") and row["value"] != ""


def perturbations(unit, fields) -> list:
    """Copies of a good row that the checker must reject: a failed status,
    a wrong gate, an impossible probe, an impossible value and, on anchor
    rows, a value moved past the anchor's tolerance."""
    row = as_row(fields)

    def with_(**kw):
        r = dict(row, **kw)
        return [r[h] for h in HEADER]

    out = [
        with_(status="non-converged"),
        with_(alpha_x=repr(float(row["alpha_x"]) + 1e-3)),
        with_(probe_phi1=repr(4.0)),
    ]
    v = row["value"]
    if row["metric"] == "h2":
        out.append(with_(value=repr(1.5)))
        if _is_anchor(row, unit):
            out.append(with_(value=repr(float(v) + 0.01 if float(v) < 0.5 else float(v) - 0.01)))
    else:
        out.append(with_(value=repr(-1.0), status="ok"))
        if _is_anchor(row, unit):
            out.append(with_(value=repr(float(v) + 0.05)))
    return out


def checker_self_test(workload: str, unit, rows_fields) -> list:
    """Perturb the first good row of a real unit; return the perturbed rows
    the checker wrongly accepted (empty when it rejects them all)."""
    base, _ = check_unit(workload, unit, rows_fields)
    good = [i for i, errs in enumerate(base) if not errs]
    if not good:
        return []
    i = good[0]
    accepted = []
    for bad in perturbations(unit, rows_fields[i]):
        trial = list(rows_fields)
        trial[i] = bad
        errs, _ = check_unit(workload, unit, trial)
        if not any(errs):
            accepted.append(row_key(bad))
    return accepted


def ledger_check(path: str, keys: list) -> tuple:
    """Compare this run's row keys with an earlier run at the same seed and
    source; the shorter run must be a prefix of the longer.  Returns
    (ok, rows compared) and keeps the longer record."""
    old = []
    if os.path.exists(path):
        with open(path) as fh:
            old = fh.read().splitlines()
    n = min(len(old), len(keys))
    ok = old[:n] == keys[:n]
    if ok and len(keys) > len(old):
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write("\n".join(keys) + "\n")
        os.replace(tmp, path)
    return ok, n
