"""Per-frame foreground/background separation by block coordinate descent.

Each iteration solves the ridge problem for the subspace coefficients with
the foreground fixed, then the structured prox for the foreground with the
coefficients fixed. A ridge step, not the first, that moves the
coefficients by at most tau per pixel ends the frame.
The solvers' budgets are module globals that ``separate`` reads at each
call: ``MAX_SEP_ITERS``, and the prox budget ``PROX_TOL``/``MAX_PROX_ITERS``,
which ``modet.prox`` defines and which this module imports under the same
names (patching them here changes what ``separate`` passes to the prox).
"""

from __future__ import annotations

import numpy as np

from .groups import GroupStructure, omega_norm
from .model import Frame, HyperParams, SeparationResult
from .prox import MAX_PROX_ITERS, PROX_TOL, structured_prox_dual
from .subspace import basis_gram

MAX_SEP_ITERS = 100  # alternations per frame, at least 1


def _ridge_system(L, pix, lambda1, gram=None):
    """solve(s) = argmin_r 0.5*||pix - L r - s||^2 + 0.5*lambda1*||r||^2,
    from (G + lambda1 I) r = L^T pix - L[nz]^T s[nz], G = ``gram`` or
    ``basis_gram(L)``. Checks the frame and G's diagonal for finiteness: a
    non-finite entry of L makes a diagonal entry non-finite."""
    if gram is None:
        gram = basis_gram(L)
    if not (np.all(np.isfinite(pix)) and np.all(np.isfinite(np.diag(gram)))):
        raise ValueError("inputs contain non-finite values")
    A = gram + lambda1 * np.eye(L.shape[1])
    rhs = L.T @ pix

    def solve(s):
        nz = np.flatnonzero(s)
        return np.linalg.solve(A, rhs - L[nz].T @ s[nz])

    return solve


def ridge_solve(
    d: np.ndarray, s: np.ndarray, L: np.ndarray, lambda1: float
) -> np.ndarray:
    """Minimize 0.5*||d - L r - s||^2 + 0.5*lambda1*||r||^2 over r, by the
    one ridge system ``separate`` solves: (L^T L + lambda1 I) r = L^T(d - s).
    """
    d = np.asarray(d, dtype=np.float64).ravel()
    s = np.asarray(s, dtype=np.float64).ravel()
    L = np.asarray(L, dtype=np.float64)
    if lambda1 <= 0:
        raise ValueError("lambda1 must be positive")
    if d.size != L.shape[0] or s.size != L.shape[0]:
        raise ValueError("d, s and the basis rows must have equal length")
    if not np.all(np.isfinite(s)):
        raise ValueError("inputs contain non-finite values")
    return _ridge_system(L, d, lambda1)(s)


def frame_cost(resid: np.ndarray, r: np.ndarray, penalty: float,
               params: HyperParams) -> float:
    """Per-frame cost 0.5*||resid||^2 + 0.5*lam1*||r||^2 + penalty.

    ``resid`` is d - L r - s and ``penalty`` is lam2*Omega(s); the one place
    the cost is written out.
    """
    return float(0.5 * resid @ resid + 0.5 * params.lambda1 * (r @ r) + penalty)


def separate(d: Frame, L: np.ndarray, g: GroupStructure, params: HyperParams,
             gram: np.ndarray | None = None) -> SeparationResult:
    """Split one frame into background L@r and structured-sparse foreground s.

    Starts cold at r = 0, s = 0 and alternates the exact ridge step with the
    structured prox. ``gram`` is ``basis_gram(L)``, as ``update_basis``
    carries it; None computes it. Each prox call gets as its bound the prox
    objective of the previous foreground at the new coefficients, so it
    stops once it has certified a descent of the cost (see ``modet.prox``),
    or on ``PROX_TOL`` or after ``MAX_PROX_ITERS`` sweeps. It starts from
    the previous call's dual and residual, moved by the change of u. A prox
    step that would raise the cost, which only a call stopped on
    ``PROX_TOL`` or on its cap can return, is not taken: s stays, and
    ``prox_rejected`` counts it.

    The one stop test: a ridge step, not the first, with
    ||r_new - r||_2 / p <= tau ends the frame at the new r and the same s
    with no prox call. The exact ridge step did not raise the cost. After a
    rejected step the next ridge step repeats r, so the frame ends there.
    Otherwise the frame ends after ``MAX_SEP_ITERS`` iterations. Either way
    final_delta is the last ridge step's ||r_new - r||_2 / p, so a value
    above tau flags the cap for the caller.
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
    ridge = _ridge_system(L, pix, params.lambda1, gram)

    r = np.zeros(L.shape[1])
    s = np.zeros(p)
    penalty = 0.0
    # the prox's dual, carried across its calls, and the last call's input
    # and returned residual, which that dual belongs to even when rejected
    xi = u_last = res_last = None
    trace = []
    sweeps_total = capped = rejected = 0
    for iters in range(1, MAX_SEP_ITERS + 1):
        r_new = ridge(s)
        background = L @ r_new
        u = pix - background
        delta = float(np.linalg.norm(r_new - r)) / p
        r = r_new
        # the cost at (r, s); less its ridge term, the prox objective at s,
        # which the prox step must not raise
        before = frame_cost(u - s, r, penalty, params)
        if iters > 1 and delta <= params.tau:
            trace.append(before)
            break
        bound = before - 0.5 * params.lambda1 * (r @ r)
        s_new, xi, sweeps, change = structured_prox_dual(
            u, g, params.lambda2, tol=PROX_TOL, max_iters=MAX_PROX_ITERS,
            init=xi, bound=bound,
            residual=None if xi is None else res_last + (u - u_last))
        res_last, u_last = s_new, u
        sweeps_total += sweeps
        capped += int(sweeps >= MAX_PROX_ITERS and change > PROX_TOL)
        penalty_new = params.lambda2 * omega_norm(s_new, g)
        cost = frame_cost(u - s_new, r, penalty_new, params)
        if cost > before:
            rejected += 1
            cost = before
        else:
            s, penalty = s_new, penalty_new
        trace.append(cost)

    return SeparationResult(
        coeffs=r, foreground=s, background=background, iters=iters,
        final_delta=delta, objective_trace=trace, prox_sweeps=sweeps_total,
        prox_capped=capped, prox_rejected=rejected)
