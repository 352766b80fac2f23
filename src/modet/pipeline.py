"""The online loop: separate each frame, fold it in, update the basis."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .groups import GroupStructure, build_grid_groups, omega_norm
from .model import (
    Frame,
    HyperParams,
    SeparationResult,
    SubspaceModel,
    default_hyperparams,
    init_subspace,
)
from .separation import frame_cost, separate
from .subspace import save_checkpoint, update_accumulators, update_basis


@dataclass
class FrameOutput:
    """Per-frame record emitted by the online loop.

    ``g_cost`` (surrogate cost at the updated basis) and ``basis_delta``
    (Frobenius change of the basis) are filled only when a tracker is given.
    """

    index: int
    separation: SeparationResult
    g_cost: float | None = None
    basis_delta: float | None = None
    wall_time: float = 0.0


@dataclass
class RunSummary:
    """Run totals. The first processed frame is timed apart from the rest:
    it starts from the random basis, so it costs several times a later
    frame.
    ``mean_wall_ms`` is the mean over the later frames (NaN when there are
    none)."""

    frames_processed: int
    first_frame_ms: float
    mean_wall_ms: float
    checkpoint_path: str | None
    model: SubspaceModel
    params: HyperParams
    height: int
    width: int


class SurrogateTracker:
    """Running scalar that makes the surrogate cost O(1) to evaluate.

    The cost over the frozen history decomposes into the accumulator
    matrices plus one scalar: the per-frame cost with the background left
    out of the residual, summed once per frame. Matches the evaluation over
    the stored history to rounding.
    """

    def __init__(self):
        self.const = 0.0

    def add(
        self,
        frame: Frame,
        res: SeparationResult,
        g: GroupStructure,
        params: HyperParams,
    ) -> None:
        self.const += frame_cost(
            frame.pixels - res.foreground,
            res.coeffs,
            params.lambda2 * omega_norm(res.foreground, g),
            params,
        )

    def value(self, model: SubspaceModel, params: HyperParams) -> float:
        t = model.frames_seen
        if t == 0:
            raise ValueError("no frames folded in yet")
        L = model.basis
        quad = 0.5 * float(np.sum((L.T @ L) * model.accA))
        cross = float(np.sum(L * model.accB))
        reg = 0.5 * params.lambda1 * float(np.sum(L * L))
        return (self.const - cross + quad + reg) / t


def process_frame(
    model: SubspaceModel,
    d: Frame,
    g: GroupStructure,
    params: HyperParams,
    tracker: SurrogateTracker | None = None,
):
    """One step of the online loop; returns (model, FrameOutput).

    Separates the frame against the current basis, with the Gram matrix
    the last basis sweep carried (``separate`` computes it when the model
    has none, as on the first frame or after a checkpoint load), folds the
    result into the accumulators, then runs one basis sweep, which carries
    the next frame's Gram matrix. The model is updated in place
    and returned. With a ``tracker``, the frame is folded into it too, and
    the output carries ``basis_delta`` and ``g_cost``.
    """
    t0 = time.perf_counter()
    res = separate(d, model.basis, g, params, gram=model.gram)
    update_accumulators(model, d, res)
    if tracker is not None:
        tracker.add(d, res, g, params)
        prev_basis = model.basis.copy()
    update_basis(model, params.lambda1)
    basis_delta = g_cost = None
    if tracker is not None:
        basis_delta = float(np.linalg.norm(model.basis - prev_basis))
        g_cost = tracker.value(model, params)
    out = FrameOutput(
        index=d.index,
        separation=res,
        g_cost=g_cost,
        basis_delta=basis_delta,
        wall_time=time.perf_counter() - t0,
    )
    return model, out


def run_sequence(
    source,
    params: HyperParams | None = None,
    downsample: int = 1,
    seed: int = 0,
    sinks=(),
    diagnostics: bool = False,
    evaluator=None,
    checkpoint_path=None,
) -> RunSummary:
    """Consume a frame iterator and run the online loop over it.

    Only frames whose index is a multiple of ``downsample`` are processed.
    Each processed frame yields a flat record dict that is passed to every
    sink; ``evaluator(frame, separation)``, when given, may return extra
    fields to merge in (detection scores, typically). Group
    structure, hyperparameters and the model are created lazily from the
    first frame's shape; a later frame of another shape raises. Returns
    run totals plus the final model.
    """
    if downsample < 1:
        raise ValueError("downsample factor must be >= 1")
    model = None
    groups = None
    height = width = 0
    processed = 0
    first_ms = later_ms = 0.0
    tracker = SurrogateTracker() if diagnostics else None
    for frame in source:
        if frame.index % downsample:
            continue
        if model is None:
            height, width = frame.height, frame.width
            if params is None:
                params = default_hyperparams(height * width)
            groups = build_grid_groups(height, width)
            model = init_subspace(height * width, params, seed)
        elif (frame.height, frame.width) != (height, width):
            raise ValueError(f"frame {frame.index} is {frame.height}x"
                             f"{frame.width}, but the first frame is "
                             f"{height}x{width}")
        model, out = process_frame(model, frame, groups, params, tracker)
        processed += 1
        if processed == 1:
            first_ms = out.wall_time * 1e3
        else:
            later_ms += out.wall_time * 1e3
        record = {
            "frame_index": out.index,
            "iters": out.separation.iters,
            "final_delta": out.separation.final_delta,
            "fg_energy": float(np.linalg.norm(out.separation.foreground)),
            "basis_delta": out.basis_delta,
            "g_cost": out.g_cost,
            "prox_sweeps": out.separation.prox_sweeps,
            "prox_capped": out.separation.prox_capped,
            "prox_rejected": out.separation.prox_rejected,
            "wall_ms": out.wall_time * 1e3,
        }
        if evaluator is not None:
            record.update(evaluator(frame, out.separation))
        for sink in sinks:
            sink(record)
    if model is None:
        raise ValueError("the frame source was empty or fully skipped")
    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, model, height, width,
                        params.lambda1, params.lambda2)
    return RunSummary(
        frames_processed=processed,
        first_frame_ms=first_ms,
        mean_wall_ms=later_ms / (processed - 1) if processed > 1 else math.nan,
        checkpoint_path=str(checkpoint_path) if checkpoint_path else None,
        model=model,
        params=params,
        height=height,
        width=width,
    )
