"""Online subspace-basis maintenance and binary checkpoints.

The basis minimizes a quadratic surrogate built from two running matrices:
accA = sum of coefficient outer products, accB = sum of (frame - foreground)
coefficient outer products. One column sweep of coordinate descent per frame
keeps the work independent of how many frames have been seen; the tests
hold the exact minimizer accB @ (accA + lambda1 I)^-1 as the reference the
repeated sweeps approach.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .model import Frame, SeparationResult, SubspaceModel

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


def update_basis(model: SubspaceModel, lambda1: float) -> SubspaceModel:
    """One column sweep of coordinate descent on the surrogate (in place).

    With At = accA + lambda1 I, each column step replaces column i by
    l_i + (accB[:,i] - L @ At[:,i]) / At[i,i], the exact minimizer of the
    quadratic tr(L^T L At) - 2 tr(L^T accB) over that column given the
    others (updated columns are used immediately within a sweep). Step i
    changes that quadratic by -At[i,i] * ||l'_i - l_i||^2 by exact algebra,
    so the sweep never raises it.

    A sweep over the columns in order is one Gauss-Seidel step, so it is
    computed in closed form: the new basis solves L' triu(At) = accB -
    L tril(At, -1), i.e. L' = (accB - L tril(At, -1)) triu(At)^-1. That is
    two p x r x r matrix products and the inverse of an r x r triangle,
    whose diagonal is at least lambda1 > 0; it equals the column loop up
    to rounding. Returns the same model object.
    """
    if lambda1 <= 0:
        raise ValueError("lambda1 must be positive")
    L = model.basis
    At = model.accA + lambda1 * np.eye(model.rank)
    rhs = L @ np.tril(At, -1)
    np.subtract(model.accB, rhs, out=rhs)
    np.matmul(rhs, np.linalg.inv(np.triu(At)), out=L)
    return model


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
    row-major little-endian float64. The bytes go to a temporary file next
    to ``path`` that then replaces it, so a failed write leaves the previous
    checkpoint as it was.
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
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            for a in (model.basis, model.accA, model.accB):
                fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
