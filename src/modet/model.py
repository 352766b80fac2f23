"""Core domain types: frames, hyperparameters, the online subspace model."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Frame:
    """One grayscale frame as a flat intensity vector.

    ``pixels`` is row-major of length height*width; intensities are expected
    in [0, 1] after ingestion. ``index`` is the frame's position in the
    source sequence.
    """

    pixels: np.ndarray
    height: int
    width: int
    index: int = 0

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float64).ravel()
        if self.height <= 0 or self.width <= 0:
            raise ValueError("frame dimensions must be positive")
        if self.index < 0:
            raise ValueError("frame index must be nonnegative")
        if self.pixels.size != self.height * self.width:
            raise ValueError(
                f"pixel count {self.pixels.size} != {self.height}x{self.width}"
            )


@dataclass
class HyperParams:
    """The four values that ``modet run`` sets for a stream.

    lambda1 weighs the low-rank/ridge terms, lambda2 the structured-sparsity
    penalty, rank is the number of basis columns, tau is the per-frame
    separation stop tolerance. The solvers' iteration budgets are the
    constants of ``modet.separation``.
    """

    lambda1: float
    lambda2: float
    rank: int = 25
    tau: float = 1e-5

    def __post_init__(self):
        weights = (self.lambda1, self.lambda2, self.tau)
        if not all(w > 0 and math.isfinite(w) for w in weights):
            raise ValueError("lambda1, lambda2 and tau must be positive and "
                             "finite")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")


def default_hyperparams(p: int) -> HyperParams:
    """Default weights for a frame of p pixels in [0, 1].

    lambda1 = 1/sqrt(p), lambda2 = 10*lambda1, rank 25, tau 1e-5.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    lam1 = 1.0 / math.sqrt(p)
    return HyperParams(lambda1=lam1, lambda2=10.0 * lam1)


@dataclass
class SubspaceModel:
    """Background subspace basis plus its running sufficient statistics.

    ``accA`` accumulates coefficient outer products (r x r), ``accB``
    accumulates (frame - foreground) x coefficient outer products (p x r).
    Both start at zero and grow by one rank-1 term per processed frame.
    """

    basis: np.ndarray
    accA: np.ndarray
    accB: np.ndarray
    frames_seen: int = 0

    @property
    def p(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]


def init_subspace(p: int, params: HyperParams, seed: int) -> SubspaceModel:
    """Fresh model with a randomly initialized basis and zero accumulators.

    Entries are i.i.d. standard normal scaled by 1/sqrt(p) (so initial
    reconstructions are O(1) in magnitude). The same seed always yields a
    bit-identical basis.
    """
    r = params.rank
    if p < r:
        raise ValueError(f"p={p} must be >= rank={r}")
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((p, r)) * (1.0 / math.sqrt(p))
    return SubspaceModel(
        basis=basis,
        accA=np.zeros((r, r)),
        accB=np.zeros((p, r)),
        frames_seen=0,
    )


@dataclass
class SeparationResult:
    """Output of one frame's foreground/background separation.

    ``background`` is always basis @ coeffs recomputed from the final
    coefficients. ``objective_trace`` holds the per-frame cost after each
    alternation, ``final_delta`` the last stop-criterion value (> tau only
    when ``modet.separation.MAX_SEP_ITERS`` ran out). ``prox_sweeps`` sums
    the dual sweeps of the frame's prox calls, one call per iteration;
    ``prox_capped`` counts the calls that hit
    ``modet.separation.MAX_PROX_ITERS`` with the dual change still above
    ``modet.separation.PROX_TOL``.
    """

    coeffs: np.ndarray
    foreground: np.ndarray
    background: np.ndarray
    iters: int
    final_delta: float
    objective_trace: list = field(default_factory=list)
    prox_sweeps: int = 0
    prox_capped: int = 0
