from dataclasses import replace

import numpy as np
import pytest

import modet.prox
from modet.groups import GroupStructure, omega_norm
from modet.model import SubspaceModel
from modet.prox import _project_l1_rows, _scatter_sum
from modet.separation import frame_cost, separate


@pytest.fixture
def numpy_backend(monkeypatch):
    """Run the prox sweeps on the numpy fallback, as without a compiler."""
    monkeypatch.setattr(modet.prox, "_sweep_c", None)
    monkeypatch.setattr(modet.prox, "BACKEND", "numpy")


def add_covering_windows(rows, p, k):
    """Append a window of k consecutive pixels at each pixel of [0, p) that
    the k-wide ``rows`` leave uncovered; returns ``rows``."""
    hit = set().union(*map(set, rows))
    for i in range(p):
        if i not in hit:
            start = min(i, p - k)
            rows.append(list(range(start, start + k)))
            hit.update(rows[-1])
    return rows


# Reference solutions: slower, desk-scale or closed-form routes to what the
# library's prox, l1-ball projection and basis sweep compute, which the tests
# compare the library against.
def project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Exact Euclidean projection of v onto the l1 ball of the given radius.

    Sort-based threshold search; O(n log n), no iteration. With u the sorted
    magnitudes, the rho largest entries are kept, rho being the number of k
    with sum_{j<=k} (u_j - u_k) < radius; each becomes its height above u_rho
    plus an equal share of what is left of the radius. Those sums are built
    from the gaps between neighbours, not from a threshold near the entries,
    so the result is accurate relative to the radius even when the radius
    is far below the entries.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    v = np.asarray(v, dtype=np.float64)
    if radius == 0.0:
        return np.zeros_like(v)
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    u = np.sort(a)[::-1]
    excess = np.cumsum(np.arange(u.size) * -np.diff(u, prepend=u[0]))
    rho = int(np.count_nonzero(excess < radius))  # >= 1: excess[0] = 0
    floor = u[rho - 1]
    share = (radius - excess[rho - 1]) / rho
    return np.sign(v) * np.where(a >= floor, a - floor + share, 0.0)


def oracle_prox(
    u: np.ndarray,
    g: GroupStructure,
    lambda2: float,
    tol: float = 1e-9,
    max_iters: int = 200_000,
) -> np.ndarray:
    """Independent desk-scale solver for the same prox, for verification.

    Projected gradient on the dual with a slowly diminishing step, all groups
    updated simultaneously (Jacobi), started from per-group projections of u
    rather than from zero. Restricted to p <= 64 and at most 8 groups.
    """
    u = np.asarray(u, dtype=np.float64).ravel()
    if u.size != g.p:
        raise ValueError(f"input length {u.size} != group domain {g.p}")
    if g.p > 64 or g.n_groups > 8:
        raise ValueError("oracle_prox is desk-scale only (p <= 64, <= 8 groups)")
    if lambda2 <= 0:
        raise ValueError("lambda2 must be positive")

    idx = g.index_matrix
    coverage = np.bincount(idx.ravel(), minlength=g.p)
    base_step = 1.0 / float(coverage.max())

    xi = _project_l1_rows(u[idx], lambda2)
    for it in range(max_iters):
        residual = u - _scatter_sum(xi, g)
        step = base_step / (1.0 + it / 500.0)
        new = _project_l1_rows(xi + step * residual[idx], lambda2)
        change = float(np.abs(new - xi).max())
        xi = new
        if change <= tol:
            break
    return u - _scatter_sum(xi, g)


def closed_form_basis(model: SubspaceModel, lambda1: float) -> np.ndarray:
    """Exact surrogate minimizer accB @ (accA + lambda1 I)^-1."""
    if lambda1 <= 0:
        raise ValueError("lambda1 must be positive")
    At = model.accA + lambda1 * np.eye(model.rank)
    return np.linalg.solve(At, model.accB.T).T


def basis_sweep_loop(model, lambda1, passes=1):
    """``update_basis`` as the column loop it computes in closed form: the
    block-coordinate sweep of Mairal, Bach, Ponce & Sapiro (JMLR 2010,
    Algorithm 2), one column at a time. Leaves ``model`` as it is and
    returns the new basis and the per-column changes of the quadratic."""
    L = model.basis.copy()
    At = model.accA + lambda1 * np.eye(model.rank)
    deltas = []
    for _ in range(passes):
        for i in range(model.rank):
            step = (model.accB[:, i] - L @ At[:, i]) / At[i, i]
            L[:, i] += step
            deltas.append(-At[i, i] * float(step @ step))
    return L, np.array(deltas)


# Reference costs from the convergence analysis of the online loop, which
# the tests compare the library against.
def joint_objective(d, L, r, s, g, params):
    """Per-frame cost 0.5*||d-Lr-s||^2 + 0.5*lam1*||r||^2 + lam2*Omega(s)."""
    return frame_cost(d - L @ r - s, r, params.lambda2 * omega_norm(s, g),
                      params)


def surrogate_cost(model, history, g, params):
    """Surrogate cost at the model's basis over the stored history.

    ``history`` holds the (Frame, SeparationResult) pairs in processing
    order, one per frame the model has seen, each as it was produced.
    """
    L = model.basis
    total = sum(joint_objective(frame.pixels, L, res.coeffs, res.foreground,
                                g, params) for frame, res in history)
    t = len(history)
    return float(total / t + 0.5 * params.lambda1 * np.sum(L * L) / t)


def empirical_cost(L, frames, g, params):
    """Average per-frame cost at a fixed basis, each frame separated anew
    at a 10x tighter stop tolerance."""
    tight = replace(params, tau=params.tau / 10.0)
    total = 0.0
    for frame in frames:
        res = separate(frame, L, g, tight)
        total += joint_objective(frame.pixels, L, res.coeffs, res.foreground,
                                 g, params)
    n = len(frames)
    return float(total / n + 0.5 * params.lambda1 * np.sum(L * L) / n)
