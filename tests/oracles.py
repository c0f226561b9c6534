"""Reference implementations that the library no longer runs.

`avg_trace_qfi_ugrid` is the radial quadrature that `qrl.fisher.avg_trace_qfi`
used before its radial integral was written in closed form: Gauss-Legendre
in u = -ln(1/2 - r), `quad.nr` nodes, one radial slice at a time.  The
nodes resolve the cutoff shell at any eta, so at modest angular grids it
agrees with the closed form to round-off and serves as its oracle.
"""

import math
from functools import lru_cache

import numpy as np

from qrl.fisher import PURITY_TOL, _angular_tables, _gl, _probe_affine


@lru_cache(maxsize=64)
def _radial_tables(nr: int, eta: float):
    if eta == 0.0:
        return _gl(0.0, 0.5, nr)
    u, wu = _gl(math.log(2.0), math.log(1.0 / eta), nr)
    return 0.5 - np.exp(-u), wu * np.exp(-u)


def avg_trace_qfi_ugrid(p, probe, quad, eta, mask=True):
    """Prior average of tr F on a u-substituted radial grid.

    mask=True drops the cross term wherever 1 - |b|^2 < 4 PURITY_TOL, as the
    library did per node; mask=False keeps every node.
    """
    _, _, dirs, w_ang = _angular_tables(quad.n_theta1, quad.n_theta2)
    r_nodes, w_r = _radial_tables(quad.nr, float(eta))
    offset, m = _probe_affine(p, probe)
    a, b1, b2 = m @ dirs
    dot = lambda x, y: np.einsum("jk,jk->k", x, y)
    total = 0.0
    for r, wr in zip(r_nodes, w_r):
        s = 2.0 * r
        b = offset[:, None] + s * a
        den = 1.0 - dot(b, b)
        cross = 4.0 * dot(b, a) ** 2 + s**2 * (dot(b, b1) ** 2 + dot(b, b2) ** 2)
        tr_f = 4.0 * dot(a, a) + s**2 * (dot(b1, b1) + dot(b2, b2))
        if mask:
            mixed = den >= 4.0 * PURITY_TOL
            tr_f = tr_f + np.where(mixed, cross / np.where(mixed, den, 1.0), 0.0)
        else:
            tr_f = tr_f + cross / den
        total += wr * float(tr_f @ w_ang)
    return total
