"""Per-frame foreground/background separation by block coordinate descent.

Each iteration solves the ridge problem for the subspace coefficients with
the foreground fixed, then the structured prox for the foreground with the
coefficients fixed, until the scaled change of both blocks drops below tau.
"""

from __future__ import annotations

import numpy as np

from .groups import GroupStructure, omega_norm
from .model import Frame, HyperParams, SeparationResult
from .prox import structured_prox_dual


def ridge_solve(
    d: np.ndarray, s: np.ndarray, L: np.ndarray, lambda1: float
) -> np.ndarray:
    """Minimize 0.5*||d - L r - s||^2 + 0.5*lambda1*||r||^2 over r.

    Solves the r x r normal equations (L^T L + lambda1 I) r = L^T (d - s).
    """
    d = np.asarray(d, dtype=np.float64).ravel()
    s = np.asarray(s, dtype=np.float64).ravel()
    L = np.asarray(L, dtype=np.float64)
    if lambda1 <= 0:
        raise ValueError("lambda1 must be positive")
    if d.size != L.shape[0] or s.size != L.shape[0]:
        raise ValueError("d, s and the basis rows must have equal length")
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(s))
            and np.all(np.isfinite(L))):
        raise ValueError("inputs contain non-finite values")
    gram = L.T @ L + lambda1 * np.eye(L.shape[1])
    return np.linalg.solve(gram, L.T @ (d - s))


def frame_cost(
    resid: np.ndarray, r: np.ndarray, penalty: float, params: HyperParams
) -> float:
    """Per-frame cost 0.5*||resid||^2 + 0.5*lam1*||r||^2 + penalty.

    ``resid`` is d - L r - s and ``penalty`` is lam2*Omega(s); the one place
    the cost is written out.
    """
    return float(0.5 * resid @ resid + 0.5 * params.lambda1 * (r @ r) + penalty)


def joint_objective(
    d: np.ndarray,
    L: np.ndarray,
    r: np.ndarray,
    s: np.ndarray,
    g: GroupStructure,
    params: HyperParams,
) -> float:
    """Joint per-frame cost 0.5*||d-Lr-s||^2 + 0.5*lam1*||r||^2 + lam2*Omega(s)."""
    return frame_cost(d - L @ r - s, r, params.lambda2 * omega_norm(s, g), params)


def separate(
    d: Frame,
    L: np.ndarray,
    g: GroupStructure,
    params: HyperParams,
) -> SeparationResult:
    """Split one frame into background L@r and structured-sparse foreground s.

    Starts cold at r = 0, s = 0 and alternates the exact ridge step with the
    structured prox. Each prox call gets as its bound the prox objective of
    the previous foreground at the new coefficients, so it stops once it
    has certified a descent of the cost (see ``modet.prox``), or on its
    tolerance or sweep cap. Stops when
    max(||r' - r''||_2, ||s' - s''||_2) / p <= tau or the iteration budget
    runs out; a final_delta above tau flags the latter for the caller.
    """
    pix = d.pixels
    p = pix.size
    L = np.asarray(L, dtype=np.float64)
    if L.shape[0] != p:
        raise ValueError(f"basis has {L.shape[0]} rows for a frame of {p} pixels")
    if L.shape[1] != params.rank:
        raise ValueError(f"basis has {L.shape[1]} columns, expected rank {params.rank}")
    if p != g.p:
        raise ValueError(f"frame length {p} != group domain {g.p}")
    if not np.all(np.isfinite(L)) or not np.all(np.isfinite(pix)):
        raise ValueError("inputs contain non-finite values")

    gram = L.T @ L + params.lambda1 * np.eye(L.shape[1])

    r = np.zeros(L.shape[1])
    s = np.zeros(p)
    penalty = 0.0
    xi = None  # the prox's dual state, carried across its calls
    trace = []
    delta = np.inf
    iters = 0
    sweeps_total = capped = 0
    for iters in range(1, params.max_sep_iters + 1):
        r_new = np.linalg.solve(gram, L.T @ (pix - s))
        u = pix - L @ r_new
        # the cost at (r_new, s) less its ridge term: the prox objective at
        # s, which the prox step must not raise
        bound = (frame_cost(u - s, r_new, penalty, params)
                 - 0.5 * params.lambda1 * (r_new @ r_new))
        s_new, xi, sweeps, change = structured_prox_dual(
            u,
            g,
            params.lambda2,
            tol=params.prox_tol,
            max_iters=params.max_prox_iters,
            init=xi,
            bound=bound,
        )
        sweeps_total += sweeps
        capped += int(sweeps >= params.max_prox_iters
                      and change > params.prox_tol)
        penalty_new = params.lambda2 * omega_norm(s_new, g)
        cost = frame_cost(u - s_new, r_new, penalty_new, params)
        delta = max(
            float(np.linalg.norm(r_new - r)), float(np.linalg.norm(s_new - s))
        ) / p
        r, s, penalty = r_new, s_new, penalty_new
        trace.append(cost)
        if delta <= params.tau:
            break

    return SeparationResult(
        coeffs=r,
        foreground=s,
        background=L @ r,
        iters=iters,
        final_delta=delta,
        objective_trace=trace,
        prox_sweeps=sweeps_total,
        prox_capped=capped,
    )
