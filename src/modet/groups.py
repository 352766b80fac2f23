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
    as one dense ``(n_groups, k)`` ``index_matrix`` and partitioned into
    color classes of pairwise-disjoint groups, which lets block-coordinate
    sweeps over the dual run one color at a time. ``color_of``, one label
    per group, gives a known proper coloring (the builder of a regular grid
    has one in closed form); without it a greedy coloring is computed.
    ``colors`` holds each class's groups in index order, and ``order``
    lists the groups color-major, the classes in sequence.
    ``pixel_groups()`` gives the groups on each pixel; it is built at its
    first call, the structure's first prox call on the C kernel, so that
    building a structure does not pay for it.
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
            color_of = self._greedy_colors()
        else:
            color_of = np.asarray(color_of)
            if color_of.shape != (self.n_groups,):
                raise ValueError("one color label per group is required")
            _, color_of = np.unique(color_of, return_inverse=True)
            # proper: no pixel is covered twice by groups of one color
            slots = (color_of[:, None] * self.p + matrix).ravel()
            if (np.bincount(slots) > 1).any():
                raise ValueError("groups of one color must be disjoint")
        self.order = np.argsort(color_of, kind="stable").astype(np.int64)
        self.colors = np.split(self.order,
                               np.cumsum(np.bincount(color_of))[:-1])
        self._pixel_groups = None

    def pixel_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """The groups on each pixel as a read-only CSR index ``(ptr, grp)``.

        The groups covering pixel i are ``grp[ptr[i]:ptr[i + 1]]``, in
        ascending order; ``ptr`` (p + 1 entries) is int64 and ``grp`` int32.
        Built at the first call and cached on the structure.
        """
        if self._pixel_groups is None:
            flat = self.index_matrix.ravel()
            ptr = np.zeros(self.p + 1, dtype=np.int64)
            np.cumsum(np.bincount(flat, minlength=self.p), out=ptr[1:])
            # a stable sort by pixel keeps each pixel's groups ascending
            entries = np.argsort(flat, kind="stable")
            entries //= self.index_matrix.shape[1]
            grp = entries.astype(np.int32)
            ptr.setflags(write=False)
            grp.setflags(write=False)
            self._pixel_groups = (ptr, grp)
        return self._pixel_groups

    def _greedy_colors(self) -> np.ndarray:
        """Greedy coloring of the group-overlap graph, one label per group.

        Groups sharing a pixel get different colors: each group takes the
        smallest color no earlier group on its pixels holds.
        """
        pixel_owner = [[] for _ in range(self.p)]
        color_of = np.full(self.n_groups, -1, dtype=np.int64)
        for i, row in enumerate(self.index_matrix.tolist()):
            taken = {color_of[j] for px in row for j in pixel_owner[px]}
            c = 0
            while c in taken:
                c += 1
            color_of[i] = c
            for px in row:
                pixel_owner[px].append(i)
        return color_of


def build_grid_groups(H: int, W: int) -> GroupStructure:
    """Groups from a k x k window, k = ``WINDOW``, at every origin of an
    H x W frame.

    Windows whose origins agree modulo k never overlap, so the color
    (row mod k, col mod k) of each origin is a proper coloring, and it is
    the one the greedy coloring finds.
    """
    k = WINDOW
    if H < k or W < k:
        raise ValueError(f"a {H}x{W} frame is smaller than the {k}x{k} "
                         "window")
    rows, cols = np.arange(H - k + 1), np.arange(W - k + 1)
    base = (np.arange(k)[:, None] * W + np.arange(k)[None, :]).ravel()
    origins = (rows[:, None] * W + cols[None, :]).ravel()
    color_of = ((rows[:, None] % k) * k + cols[None, :] % k).ravel()
    return GroupStructure(origins[:, None] + base[None, :], H * W,
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
