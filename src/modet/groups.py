"""Overlapping pixel groups defining the l1/linf structured-sparsity norm."""

from __future__ import annotations

import numpy as np


WINDOW = 3  # the side of LSD's square windows (Liu et al., IEEE TIP 2015)


class GroupStructure:
    """An ordered collection of overlapping pixel-index groups.

    The structured norm of a vector s is sum_g max_i_in_g |s_i|.
    Groups must jointly cover every pixel index in [0, p) so the norm is
    positive definite.

    ``groups`` is a list of equal-length index sequences or a 2-D integer
    array, one group per row; every group has the same size k. It is stored
    as one dense ``(n_groups, k)`` ``index_matrix``, and the dual sweeps of
    the prox visit the groups in that index order. ``color_of``, one label
    per group, nonnegative and non-decreasing, groups the rows into color
    classes of pairwise-disjoint groups, listed color by color; a batched
    sweep then runs one class at a time. Without it each group is a class
    of its own. ``colors`` holds each class as a slice of the rows.
    """

    def __init__(self, groups, p: int, color_of=None):
        if p <= 0:
            raise ValueError("p must be positive")
        self.p = int(p)
        try:
            matrix = np.ascontiguousarray(groups, dtype=np.int64)
        except ValueError:  # ragged rows
            matrix = None
        if matrix is not None and matrix.size == 0:
            raise ValueError("at least one nonempty group is required")
        if matrix is None or matrix.ndim != 2:
            raise ValueError("every group must have the same size")
        self.n_groups = matrix.shape[0]

        bad = ((matrix < 0) | (matrix >= self.p)).any(axis=1)
        if bad.any():
            raise ValueError(f"group {int(np.argmax(bad))} has indices "
                             f"outside [0, {self.p})")
        bad = (np.diff(matrix, axis=1) <= 0).any(axis=1)
        if bad.any():
            raise ValueError(f"group {int(np.argmax(bad))} indices must be "
                             "strictly increasing")
        covered = np.bincount(matrix.ravel(), minlength=self.p) > 0
        if not covered.all():
            missing = int(np.argmin(covered))
            raise ValueError(f"pixel {missing} is not covered by any group")
        self.index_matrix = matrix

        if color_of is None:
            self.colors = [slice(i, i + 1) for i in range(self.n_groups)]
        else:
            color_of = np.asarray(color_of)
            if color_of.shape != (self.n_groups,):
                raise ValueError("one color label per group is required")
            step = np.diff(color_of)
            if color_of[0] < 0 or (step < 0).any():
                raise ValueError("color labels must be nonnegative and "
                                 "non-decreasing: groups color by color")
            cuts = [0, *(np.flatnonzero(step) + 1).tolist(), self.n_groups]
            self.colors = [slice(a, b) for a, b in zip(cuts[:-1], cuts[1:])]
            # proper: no pixel is covered twice by groups of one class
            if any((np.bincount(matrix[c].ravel()) > 1).any()
                   for c in self.colors):
                raise ValueError("groups of one color must be disjoint")


def build_grid_groups(H: int, W: int) -> GroupStructure:
    """Groups from a k x k window, k = ``WINDOW``, at every origin of an
    H x W frame.

    Windows whose origins agree modulo k never overlap, so the color
    (row mod k, col mod k) of each origin is a proper coloring. The windows
    are stored color by color, in that order, and each class in raster order.
    """
    k = WINDOW
    if H < k or W < k:
        raise ValueError(f"a {H}x{W} frame is smaller than the {k}x{k} "
                         "window")
    origins = np.arange(H - k + 1)[:, None] * W + np.arange(W - k + 1)
    blocks = [origins[a::k, b::k].ravel() for a in range(k) for b in range(k)]
    base = (np.arange(k)[:, None] * W + np.arange(k)).ravel()
    color_of = np.repeat(np.arange(k * k), [b.size for b in blocks])
    return GroupStructure(np.concatenate(blocks)[:, None] + base, H * W,
                          color_of=color_of)


def group_max(a: np.ndarray, g: GroupStructure) -> np.ndarray:
    """The max of ``a`` over each group's pixels, one entry per group.

    A running maximum over the k columns of ``g.index_matrix``, one
    n_groups-long gather at a time, rather than a gather of the whole
    (n_groups, k) matrix; the maxima are the same.
    """
    cols = g.index_matrix.T
    m = a[cols[0]]
    for col in cols[1:]:
        np.maximum(m, a[col], out=m)
    return m


def omega_norm(s: np.ndarray, g: GroupStructure) -> float:
    """Sum over groups of the max absolute value inside each group."""
    s = np.asarray(s, dtype=np.float64).ravel()
    if s.size != g.p:
        raise ValueError(f"vector length {s.size} != group domain {g.p}")
    return float(group_max(np.abs(s), g).sum())
