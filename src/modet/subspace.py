"""Online subspace-basis maintenance and its verification oracles.

The basis minimizes a quadratic surrogate built from two running matrices:
accA = sum of coefficient outer products, accB = sum of (frame - foreground)
coefficient outer products. One column sweep of coordinate descent per frame
keeps the work independent of how many frames have been seen; the closed-form
solve accB @ (accA + lambda1 I)^-1 serves as the reference answer.
"""

from __future__ import annotations

import struct
from dataclasses import replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .groups import GroupStructure
from .model import Frame, HyperParams, SeparationResult, SubspaceModel
from .separation import joint_objective, separate

CHECKPOINT_MAGIC = b"MODETCKP"
CHECKPOINT_VERSION = 1


def update_accumulators(
    model: SubspaceModel, d: Frame, res: SeparationResult
) -> SubspaceModel:
    """Fold one separated frame into the running statistics (in place).

    accA += r r^T, accB += (d - s) r^T, frames_seen += 1. Returns the same
    model object.
    """
    r = res.coeffs
    s = res.foreground
    if r.size != model.rank or s.size != model.p or d.pixels.size != model.p:
        raise ValueError("separation result does not match the model dimensions")
    model.accA += np.outer(r, r)
    model.accB += np.outer(d.pixels - s, r)
    model.frames_seen += 1
    return model


def update_basis(
    model: SubspaceModel,
    lambda1: float,
    passes: int = 1,
    return_deltas: bool = False,
):
    """Column-wise coordinate descent on the surrogate objective (in place).

    With At = accA + lambda1 I, each column step replaces column i by
    l_i + (accB[:,i] - L @ At[:,i]) / At[i,i], the exact minimizer of the
    quadratic tr(L^T L At) - 2 tr(L^T accB) over that column given the
    others (updated columns are used immediately within a sweep).

    When ``return_deltas`` is set, also returns the per-column change of that
    quadratic objective, which is -At[i,i] * ||step||^2 by exact algebra.
    """
    if lambda1 <= 0:
        raise ValueError("lambda1 must be positive")
    if passes < 1:
        raise ValueError("passes must be >= 1")
    L = model.basis
    At = model.accA + lambda1 * np.eye(model.rank)
    deltas = []
    for _ in range(passes):
        for i in range(model.rank):
            step = (model.accB[:, i] - L @ At[:, i]) / At[i, i]
            L[:, i] += step
            if return_deltas:
                deltas.append(-At[i, i] * float(step @ step))
    if return_deltas:
        return model, np.array(deltas)
    return model


def closed_form_basis(model: SubspaceModel, lambda1: float) -> np.ndarray:
    """Exact surrogate minimizer accB @ (accA + lambda1 I)^-1 via SPD solve."""
    if lambda1 <= 0:
        raise ValueError("lambda1 must be positive")
    At = model.accA + lambda1 * np.eye(model.rank)
    return cho_solve(cho_factor(At, lower=True), model.accB.T).T


def basis_quadratic(model: SubspaceModel, lambda1: float, L=None) -> float:
    """The quadratic tr(L^T L (accA + lambda1 I)) - 2 tr(L^T accB).

    Equal to 2*frames_seen times the surrogate cost up to an L-independent
    constant; used to check per-column descent.
    """
    if L is None:
        L = model.basis
    At = model.accA + lambda1 * np.eye(model.rank)
    return float(np.sum((L.T @ L) * At) - 2.0 * np.sum(L * model.accB))


def surrogate_cost(
    model: SubspaceModel,
    history,
    g: GroupStructure,
    params: HyperParams,
) -> float:
    """Surrogate cost at the model's basis over the retained history.

    ``history`` is the list of (Frame, SeparationResult) pairs in processing
    order, with the coefficient/foreground pairs frozen as produced;
    its length must equal frames_seen. Desk-scale diagnostic.
    """
    if len(history) == 0:
        raise ValueError("history is empty")
    if len(history) != model.frames_seen:
        raise ValueError(
            f"history length {len(history)} != frames seen {model.frames_seen}"
        )
    L = model.basis
    t = len(history)
    total = 0.0
    for frame, res in history:
        total += joint_objective(frame.pixels, L, res.coeffs, res.foreground,
                                 g, params)
    return float(total / t + 0.5 * params.lambda1 * np.sum(L * L) / t)


def empirical_cost(
    L: np.ndarray,
    frames,
    g: GroupStructure,
    params: HyperParams,
) -> float:
    """Average fully re-optimized per-frame cost at a fixed basis.

    Re-runs the separation for every frame at a 10x tighter stop tolerance;
    desk-scale diagnostic.
    """
    frames = list(frames)
    if len(frames) == 0:
        raise ValueError("no frames given")
    tight = replace(params, tau=params.tau / 10.0)
    total = 0.0
    for frame in frames:
        res = separate(frame, L, g, tight)
        total += joint_objective(frame.pixels, L, res.coeffs, res.foreground,
                                 g, params)
    n = len(frames)
    return float(total / n + 0.5 * params.lambda1 * np.sum(L * L) / n)


def save_checkpoint(
    path,
    model: SubspaceModel,
    height: int,
    width: int,
    lambda1: float,
    lambda2: float,
) -> None:
    """Write the model to a binary checkpoint (bit-exact round trip).

    Layout: 8-byte magic, u32 version, u32 height/width/rank, u64
    frames_seen, f64 lambda1/lambda2, then the basis, accA and accB as
    row-major little-endian float64.
    """
    if height * width != model.p:
        raise ValueError("height*width does not match the model")
    header = CHECKPOINT_MAGIC + struct.pack(
        "<IIIIQdd",
        CHECKPOINT_VERSION,
        height,
        width,
        model.rank,
        model.frames_seen,
        lambda1,
        lambda2,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(model.basis, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.accA, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.accB, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint; returns (model, height, width, lambda1, lambda2)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != CHECKPOINT_MAGIC:
        raise ValueError("not a model checkpoint (bad magic at offset 0)")
    head = struct.calcsize("<IIIIQdd")
    if len(data) < 8 + head:
        raise ValueError("truncated checkpoint header")
    version, height, width, rank, frames_seen, lam1, lam2 = struct.unpack(
        "<IIIIQdd", data[8 : 8 + head]
    )
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    p = height * width
    need = 8 + head + (p * rank + rank * rank + p * rank) * 8
    if len(data) != need:
        raise ValueError(
            f"checkpoint payload is {len(data)} bytes, expected {need}"
        )
    off = 8 + head
    basis = np.frombuffer(data, dtype="<f8", count=p * rank, offset=off)
    off += p * rank * 8
    accA = np.frombuffer(data, dtype="<f8", count=rank * rank, offset=off)
    off += rank * rank * 8
    accB = np.frombuffer(data, dtype="<f8", count=p * rank, offset=off)
    model = SubspaceModel(
        basis=basis.reshape(p, rank).copy(),
        accA=accA.reshape(rank, rank).copy(),
        accB=accB.reshape(p, rank).copy(),
        frames_seen=int(frames_seen),
    )
    return model, height, width, lam1, lam2
