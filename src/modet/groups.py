"""Overlapping pixel groups defining the l1/linf structured-sparsity norm."""

from __future__ import annotations

import numpy as np


class GroupStructure:
    """An ordered collection of overlapping pixel-index groups with weights.

    The structured norm of a vector s is sum_g weight_g * max_i_in_g |s_i|.
    Groups must jointly cover every pixel index in [0, p) so the norm is
    positive definite.

    ``groups`` is a list of index sequences, or a 2-D integer array with one
    group per row. Internally the groups are packed into one padded index
    matrix (pad value p, pointing at a scratch slot that always reads 0) and
    partitioned into color classes of pairwise-disjoint groups, which lets
    block-coordinate sweeps over the dual run one color at a time.
    ``color_of``, one label per group, gives a known proper coloring (the
    builder of a regular grid has one in closed form); without it a greedy
    coloring is computed. ``order`` lists the groups color-major (colors in
    sequence, each color's groups in index order) and ``color_ptr`` delimits
    the colors in it.
    """

    def __init__(self, groups, weights, p: int, color_of=None):
        if p <= 0:
            raise ValueError("p must be positive")
        self.p = int(p)
        if isinstance(groups, np.ndarray) and groups.ndim == 2:
            matrix = np.ascontiguousarray(groups, dtype=np.int64)
            self.groups = list(matrix)
        else:
            self.groups = [np.asarray(g, dtype=np.int64) for g in groups]
            matrix = None
        self.weights = np.asarray(weights, dtype=np.float64)
        if len(self.groups) == 0:
            raise ValueError("at least one group is required")
        if self.weights.shape != (len(self.groups),):
            raise ValueError("one weight per group is required")
        if np.any(self.weights <= 0):
            raise ValueError("group weights must be positive")

        self.n_groups = len(self.groups)
        self.sizes = np.array([g.size for g in self.groups], dtype=np.int64)
        if not self.sizes.all():
            raise ValueError(f"group {int(np.argmin(self.sizes))} is empty")
        self.max_size = int(self.sizes.max())
        flat = matrix.ravel() if matrix is not None else np.concatenate(self.groups)
        owner = np.repeat(np.arange(self.n_groups), self.sizes)
        bad = (flat < 0) | (flat >= self.p)
        if bad.any():
            raise ValueError(f"group {owner[np.argmax(bad)]} has indices "
                             f"outside [0, {self.p})")
        bad = (np.diff(flat) <= 0) & (owner[1:] == owner[:-1])
        if bad.any():
            raise ValueError(f"group {owner[np.argmax(bad)]} indices must be "
                             "strictly increasing")
        covered = np.bincount(flat, minlength=self.p) > 0
        if not covered.all():
            missing = int(np.argmin(covered))
            raise ValueError(f"pixel {missing} is not covered by any group")

        # Padded (n_groups, max_size) index matrix; pad slot is index p.
        if matrix is None:
            matrix = np.full((self.n_groups, self.max_size), self.p,
                             dtype=np.int64)
            starts = np.cumsum(self.sizes) - self.sizes
            matrix[owner, np.arange(flat.size) - starts[owner]] = flat
        self.index_matrix = matrix

        if color_of is None:
            color_of = self._greedy_colors()
        else:
            color_of = np.asarray(color_of)
            if color_of.shape != (self.n_groups,):
                raise ValueError("one color label per group is required")
            _, color_of = np.unique(color_of, return_inverse=True)
            # proper: no pixel is covered twice by groups of one color
            keys = np.sort(color_of[owner] * self.p + flat)
            if (np.diff(keys) == 0).any():
                raise ValueError("groups of one color must be disjoint")
        self.order = np.argsort(color_of, kind="stable").astype(np.int64)
        self.color_ptr = np.concatenate(
            ([0], np.cumsum(np.bincount(color_of)))).astype(np.int64)
        self.colors = np.split(self.order, self.color_ptr[1:-1])

    def _greedy_colors(self) -> np.ndarray:
        """Greedy coloring of the group-overlap graph, one label per group.

        Groups sharing a pixel get different colors: each group takes the
        smallest color no earlier group on its pixels holds.
        """
        pixel_owner = [[] for _ in range(self.p)]
        color_of = np.full(self.n_groups, -1, dtype=np.int64)
        for i, g in enumerate(self.groups):
            taken = set()
            for px in g:
                for j in pixel_owner[px]:
                    taken.add(color_of[j])
            c = 0
            while c in taken:
                c += 1
            color_of[i] = c
            for px in g:
                pixel_owner[px].append(i)
        return color_of

    def __len__(self) -> int:
        return self.n_groups


def build_grid_groups(H: int, W: int, k: int = 3, stride: int = 1) -> GroupStructure:
    """Groups from a k x k window scanned over an H x W frame.

    Windows are placed at every stride-step origin; for stride > 1 extra
    windows clamped to the right/bottom edges are appended so every pixel is
    covered. All weights are 1.0. At stride 1, windows whose origins agree
    modulo k never overlap, so the color (row mod k, col mod k) of each
    origin is a proper coloring, and it is the one the greedy coloring finds.
    """
    if H <= 0 or W <= 0 or k <= 0 or stride <= 0:
        raise ValueError("H, W, k and stride must be positive")
    if k > min(H, W):
        raise ValueError(f"window k={k} exceeds frame extent {H}x{W}")
    if stride > k:
        raise ValueError(f"stride {stride} > window {k} would leave uncovered pixels")

    def starts(n):
        s = np.arange(0, n - k + 1, stride)
        return s if s[-1] == n - k else np.append(s, n - k)

    rows, cols = starts(H), starts(W)
    base = (np.arange(k)[:, None] * W + np.arange(k)[None, :]).ravel()
    origins = (rows[:, None] * W + cols[None, :]).ravel()
    color_of = None
    if stride == 1:
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
