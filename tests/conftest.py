from dataclasses import replace

import numpy as np
import pytest

import modet.prox
from modet.groups import omega_norm
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
