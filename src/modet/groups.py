"""Overlapping pixel groups defining the l1/linf structured-sparsity norm."""

from __future__ import annotations

import numpy as np


class GroupStructure:
    """An ordered collection of overlapping pixel-index groups with weights.

    The structured norm of a vector s is sum_g weight_g * max_i_in_g |s_i|.
    Groups must jointly cover every pixel index in [0, p) so the norm is
    positive definite.

    ``groups`` is a list of index sequences, or a 2-D integer array with one
    group per row, padded at the end with p. Either way the groups are
    stored as that padded ``index_matrix`` (the pad points at a scratch slot
    that always reads 0) and partitioned into color classes of
    pairwise-disjoint groups, which lets block-coordinate sweeps over the
    dual run one color at a time. ``color_of``, one label per group, gives
    a known proper coloring (the builder of a regular grid has one in
    closed form); without it a greedy coloring is computed. ``colors``
    holds each class's groups in index order, and ``order`` lists the
    groups color-major, the classes in sequence.
    """

    def __init__(self, groups, weights, p: int, color_of=None):
        if p <= 0:
            raise ValueError("p must be positive")
        self.p = int(p)
        if isinstance(groups, np.ndarray) and groups.ndim == 2:
            matrix = np.ascontiguousarray(groups, dtype=np.int64)
        else:
            groups = [np.asarray(g, dtype=np.int64) for g in groups]
            sizes = np.array([g.size for g in groups], dtype=np.int64)
            matrix = np.full((sizes.size, sizes.max(initial=0)), self.p,
                             dtype=np.int64)
            flat = np.concatenate(groups) if groups else np.empty(0, np.int64)
            # a listed index p would read as padding: fail the range check
            matrix[np.arange(matrix.shape[1]) < sizes[:, None]] = np.where(
                flat == self.p, -1, flat)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.n_groups = matrix.shape[0]
        if self.n_groups == 0:
            raise ValueError("at least one group is required")
        if self.weights.shape != (self.n_groups,):
            raise ValueError("one weight per group is required")
        if np.any(self.weights <= 0):
            raise ValueError("group weights must be positive")

        pad = matrix == self.p
        bad = pad.all(axis=1)
        if bad.any():
            raise ValueError(f"group {int(np.argmax(bad))} is empty")
        bad = ((matrix < 0) | (matrix > self.p)).any(axis=1)
        if bad.any():
            raise ValueError(f"group {int(np.argmax(bad))} has indices "
                             f"outside [0, {self.p})")
        # strictly increasing, then padding to the end of the row
        bad = ((np.diff(matrix, axis=1) <= 0) & ~pad[:, 1:]).any(axis=1)
        if bad.any():
            raise ValueError(f"group {int(np.argmax(bad))} indices must be "
                             "strictly increasing")
        covered = np.bincount(matrix.ravel(), minlength=self.p + 1)[: self.p] > 0
        if not covered.all():
            missing = int(np.argmin(covered))
            raise ValueError(f"pixel {missing} is not covered by any group")
        self.index_matrix = matrix

        if color_of is None:
            color_of = self._greedy_colors()
        else:
            color_of = np.asarray(color_of)
            if color_of.shape != (self.n_groups,):
                raise ValueError("one color label per group is required")
            _, color_of = np.unique(color_of, return_inverse=True)
            # proper: no pixel is covered twice by groups of one color
            slots = (color_of[:, None] * (self.p + 1) + matrix).ravel()
            counts = np.bincount(slots, minlength=(color_of.max() + 1)
                                 * (self.p + 1)).reshape(-1, self.p + 1)
            if (counts[:, : self.p] > 1).any():
                raise ValueError("groups of one color must be disjoint")
        self.order = np.argsort(color_of, kind="stable").astype(np.int64)
        self.colors = np.split(self.order,
                               np.cumsum(np.bincount(color_of))[:-1])

    def _greedy_colors(self) -> np.ndarray:
        """Greedy coloring of the group-overlap graph, one label per group.

        Groups sharing a pixel get different colors: each group takes the
        smallest color no earlier group on its pixels holds.
        """
        pixel_owner = [[] for _ in range(self.p)]
        color_of = np.full(self.n_groups, -1, dtype=np.int64)
        for i, row in enumerate(self.index_matrix.tolist()):
            pixels = [px for px in row if px != self.p]
            taken = {color_of[j] for px in pixels for j in pixel_owner[px]}
            c = 0
            while c in taken:
                c += 1
            color_of[i] = c
            for px in pixels:
                pixel_owner[px].append(i)
        return color_of


def build_grid_groups(H: int, W: int, k: int = 3) -> GroupStructure:
    """Groups from a k x k window at every origin of an H x W frame.

    All weights are 1.0. Windows whose origins agree modulo k never
    overlap, so the color (row mod k, col mod k) of each origin is a proper
    coloring, and it is the one the greedy coloring finds.
    """
    if H <= 0 or W <= 0 or k <= 0:
        raise ValueError("H, W and k must be positive")
    if k > min(H, W):
        raise ValueError(f"window k={k} exceeds frame extent {H}x{W}")
    rows, cols = np.arange(H - k + 1), np.arange(W - k + 1)
    base = (np.arange(k)[:, None] * W + np.arange(k)[None, :]).ravel()
    origins = (rows[:, None] * W + cols[None, :]).ravel()
    color_of = ((rows[:, None] % k) * k + cols[None, :] % k).ravel()
    return GroupStructure(origins[:, None] + base[None, :],
                          np.ones(origins.size), H * W, color_of=color_of)


def omega_norm(s: np.ndarray, g: GroupStructure) -> float:
    """Weighted sum over groups of the max absolute value inside each group."""
    s = np.asarray(s, dtype=np.float64).ravel()
    if s.size != g.p:
        raise ValueError(f"vector length {s.size} != group domain {g.p}")
    padded = np.append(np.abs(s), 0.0)
    return float(padded[g.index_matrix].max(axis=1) @ g.weights)
