"""Conditional Renyi-2 entropy and the one-shot capacity lower bound.

H2(B|F) is the maximum over conditioning states sigma_F of minus the
sandwiched Renyi-2 divergence from I (x) sigma_F.  The supremum for the
strongly entangling unitaries sits on the Bloch boundary (rank-deficient
sigma), so the search ball is capped at radius 1 - 1e-7 and inverse powers
are floored at 1e-9; the reported maximum then sits within about
2*floor/ln2 bits of the supremum.

The capacity lower bound per channel use is h2 - correction/n with
correction = g(sqrt(eps/2) - delta*) + 4 log2(1/delta*) + 2.  delta* is the
closed-form stationary point of that correction; the golden-section search
it replaced is kept in tests/oracles.py as its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import BipartiteState, ProbeState, choi_bf, stinespring_isometry
from .linalg import I2, PAULI, kron
from .optimize import ball_grid, ball_projector, nelder_mead, rect_grid
from .unitary import UnitaryParams

LAMBDA_FLOOR = 1e-9
BLOCH_CAP = 1.0 - 1e-7

# I (x) sigma_k stacked over k = 0..3
_KRON_F = np.stack([kron(I2, s) for s in PAULI])


@dataclass(frozen=True)
class ConditioningState:
    """sigma_F = (I + p.sigma)/2 with both eigenvalues >= LAMBDA_FLOOR."""

    bloch: tuple

    def __post_init__(self):
        p = np.asarray(self.bloch, dtype=float)
        if p.shape != (3,):
            raise ValueError("bloch must have three components")
        if np.linalg.norm(p) > 1.0 - 2.0 * LAMBDA_FLOOR:
            raise ValueError(
                f"|p| = {np.linalg.norm(p)!r} leaves an eigenvalue below the {LAMBDA_FLOOR:.0e} floor"
            )
        object.__setattr__(self, "bloch", tuple(float(x) for x in p))

    def matrix(self) -> np.ndarray:
        p1, p2, p3 = self.bloch
        return 0.5 * (I2 + p1 * PAULI[1] + p2 * PAULI[2] + p3 * PAULI[3])


@dataclass(frozen=True)
class OptimizerConfig:
    """Grid sizes and simplex settings for the sigma and probe searches."""

    sigma_grid: int = 9
    probe_grid: int = 13
    restarts: int = 3
    tol: float = 1e-9
    max_iter: int = 400


DEFAULT_CONFIG = OptimizerConfig()
# staged settings used while scanning probes; the final answer is always
# recomputed at the caller's config
_COARSE = OptimizerConfig(restarts=1, tol=1e-6, max_iter=120)
_MEDIUM = OptimizerConfig(restarts=1, tol=1e-8, max_iter=250)


@dataclass(frozen=True)
class H2Optimum:
    value: float
    sigma: ConditioningState
    converged: bool


@dataclass(frozen=True)
class ProbeOptimum:
    h2: float
    probe: ProbeState
    sigma: ConditioningState
    converged: bool


@dataclass(frozen=True)
class CapacityResult:
    h2: float
    correction: float
    raw_bound: float
    clamped_bound: float


def g_eps(x: float) -> float:
    """g(x) = -log2(1 - sqrt(1 - x^2)) for x in (0, 1], in the stable form
    -log2(x^2 / (1 + sqrt(1 - x^2)))."""
    if x <= 0.0:
        raise ValueError(f"g_eps requires x > 0, got {x!r}")
    if x > 1.0:
        raise ValueError(f"g_eps requires x <= 1, got {x!r}")
    return -math.log2(x * x / (1.0 + math.sqrt(max(1.0 - x * x, 0.0))))


def _as_rho(rho) -> np.ndarray:
    if isinstance(rho, BipartiteState):
        return rho.rho_bf
    return np.asarray(rho, dtype=complex)


def _collision_gram(rho: np.ndarray) -> np.ndarray:
    # G_kl = Tr[rho (I (x) s_k) rho (I (x) s_l)]; real symmetric
    return np.einsum("ab,kbc,cd,lda->kl", rho, _KRON_F, rho, _KRON_F).real


def _inv_sqrt_coeffs(p: np.ndarray) -> np.ndarray:
    """Pauli coefficients of sigma^{-1/2}, eigenvalues floored at
    LAMBDA_FLOOR, so that c^T G c = Tr[rho s^{-1/2} rho s^{-1/2}]."""
    nrm = math.sqrt(p[0] * p[0] + p[1] * p[1] + p[2] * p[2])
    lp = max((1.0 + nrm) / 2.0, LAMBDA_FLOOR)
    lm = max((1.0 - nrm) / 2.0, LAMBDA_FLOOR)
    a, b = lp ** -0.5, lm ** -0.5
    mean, half_gap = (a + b) / 2.0, (a - b) / 2.0
    if nrm < 1e-15:
        return np.array([mean, 0.0, 0.0, 0.0])
    s = half_gap / nrm
    return np.array([mean, s * p[0], s * p[1], s * p[2]])


@lru_cache(maxsize=8)
def _seed_grid(n: int):
    grid = ball_grid(n, BLOCH_CAP)
    coeffs = np.stack([_inv_sqrt_coeffs(p) for p in grid])
    return grid, coeffs


def h2_conditional(rho, config: OptimizerConfig = DEFAULT_CONFIG) -> H2Optimum:
    """Maximize -D2(rho || I (x) sigma) over the conditioning Bloch ball.

    Coarse grid seeding, then Nelder-Mead from the best seeds.  The value is
    bounded by log2 dim(B) = 1; non-convergence of every restart is flagged
    and the best point found is still returned.
    """
    r = _as_rho(rho)
    gram = _collision_gram(r)
    grid, coeffs = _seed_grid(config.sigma_grid)
    seed_vals = np.einsum("nk,kl,nl->n", coeffs, gram, coeffs)
    order = np.argsort(seed_vals)

    def objective(p):
        c = _inv_sqrt_coeffs(p)
        return c @ gram @ c

    project = ball_projector(BLOCH_CAP)
    best, converged = None, False
    for idx in order[: config.restarts]:
        res = nelder_mead(
            objective, grid[idx], 0.12, tol=config.tol, max_iter=config.max_iter, project=project
        )
        converged = converged or res.converged
        if best is None or res.fun < best.fun:
            best = res
    value = -math.log2(best.fun)
    if value > 1.0 + 1e-9:
        raise RuntimeError(f"H2 exceeded the dimension bound: {value}")
    return H2Optimum(value=value, sigma=ConditioningState(tuple(best.x)), converged=converged)


def delta_star(epsilon: float) -> float:
    """Minimizer of g(sqrt(eps/2) - delta) - 4 log2(delta) on (0, sqrt(eps/2)),
    in closed form: the stationary point of that unimodal objective.

    Evaluated with principal complex square and cube roots; the conjugate
    radical branch lands outside (0, sqrt(eps/2)).  Within 4e-15 relative of
    a 60-digit reference for eps >= 0.01; the objective is flat at its
    minimum, so a numeric search resolves delta* only to about sqrt(macheps).
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    e = epsilon + 0.0j
    radical = (
        np.sqrt(2.0 * e ** 3)
        + np.sqrt(1728.0 * e ** 2 + 715392.0 * e - 5971968.0)
        + 648.0 * np.sqrt(2.0 * e)
    )
    cbrt = radical ** (1.0 / 3.0)
    value = (
        13.0 * np.sqrt(e) / (15.0 * math.sqrt(2.0))
        - (1.0 + 1j * math.sqrt(3.0)) * cbrt / (30.0 * 2.0 ** (2.0 / 3.0))
        - (1.0 - 1j * math.sqrt(3.0)) * (e + 144.0) / (30.0 * 2.0 ** (1.0 / 3.0) * cbrt)
    )
    return float(value.real)


def correction_bits(epsilon: float) -> float:
    """n-independent penalty g(sqrt(eps/2) - delta*) + 4 log2(1/delta*) + 2."""
    ds = delta_star(epsilon)
    s = math.sqrt(epsilon / 2.0)
    return g_eps(s - ds) + 4.0 * math.log2(1.0 / ds) + 2.0


def one_shot_lower_bound(h2: float, epsilon: float, n: int) -> CapacityResult:
    """Assemble the per-use lower bound h2 - correction/n and its clamp at 0."""
    if n < 1 or int(n) != n:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    corr = correction_bits(epsilon)
    raw = h2 - corr / n
    return CapacityResult(h2=h2, correction=corr, raw_bound=raw, clamped_bound=max(0.0, raw))


def _h2_for_probe(p: UnitaryParams, phi1: float, phi2: float, config: OptimizerConfig) -> H2Optimum:
    probe = ProbeState(min(max(phi1, 0.0), math.pi), phi2)
    return h2_conditional(choi_bf(stinespring_isometry(p, probe)), config)


def best_probe_h2(p: UnitaryParams, config: OptimizerConfig = DEFAULT_CONFIG) -> ProbeOptimum:
    """Maximize H2(B|F) over the probe.

    Probe grid scan with a cheap inner sigma search, simplex refinement of
    the probe at intermediate accuracy, then a final full-accuracy sigma
    optimization at the selected probe.
    """
    probe_pts = rect_grid(config.probe_grid, config.probe_grid, 0.0, math.pi, 0.0, 2.0 * math.pi)
    best_val, best_pt = -math.inf, probe_pts[0]
    for phi1, phi2 in probe_pts:
        val = _h2_for_probe(p, phi1, phi2, _COARSE).value
        if val > best_val:
            best_val, best_pt = val, (phi1, phi2)

    def neg_h2(q):
        return -_h2_for_probe(p, q[0], q[1], _MEDIUM).value

    def clamp(q):
        return np.array([min(max(q[0], 0.0), math.pi), q[1]])

    probe_tol = max(1e-7, 10.0 * config.tol)
    probe_iter = min(200, config.max_iter)
    probe_res = nelder_mead(neg_h2, np.asarray(best_pt), 0.15, tol=probe_tol, max_iter=probe_iter, project=clamp)
    final = _h2_for_probe(p, probe_res.x[0], probe_res.x[1], config)
    probe = ProbeState(min(max(probe_res.x[0], 0.0), math.pi), probe_res.x[1])
    return ProbeOptimum(
        h2=final.value,
        probe=probe,
        sigma=final.sigma,
        converged=probe_res.converged and final.converged,
    )
