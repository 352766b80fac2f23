"""Streaming moving-object detection.

Each incoming video frame is split into a low-rank background (reconstructed
from an online-maintained subspace basis) and a structured-sparse foreground,
the foreground is segmented into detections, and the basis is refreshed from
running sufficient statistics so the work per frame is independent of the
sequence length.
"""

from .detection import (
    Box,
    MatchResult,
    connected_components,
    iou,
    match_detections,
    metrics_window,
    threshold_mask,
)
from .groups import GroupStructure, build_grid_groups, omega_norm
from .model import (
    Frame,
    HyperParams,
    SeparationResult,
    SubspaceModel,
    default_hyperparams,
    init_subspace,
)
from .pipeline import FrameOutput, RunSummary, process_frame, run_sequence
from .separation import ridge_solve, separate
from .subspace import (
    load_checkpoint,
    save_checkpoint,
    update_accumulators,
    update_basis,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "Frame",
    "FrameOutput",
    "GroupStructure",
    "HyperParams",
    "MatchResult",
    "RunSummary",
    "SeparationResult",
    "SubspaceModel",
    "build_grid_groups",
    "connected_components",
    "default_hyperparams",
    "init_subspace",
    "iou",
    "load_checkpoint",
    "match_detections",
    "metrics_window",
    "omega_norm",
    "process_frame",
    "ridge_solve",
    "run_sequence",
    "save_checkpoint",
    "separate",
    "threshold_mask",
    "update_accumulators",
    "update_basis",
]
