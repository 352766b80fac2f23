"""Foreground segmentation, bounding boxes and detection scoring."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Box:
    """Axis-aligned box: top-left pixel (x, y) and positive extents (w, h)."""

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.w < 1 or self.h < 1:
            raise ValueError("box extents must be positive")
        if self.x < 0 or self.y < 0:
            raise ValueError("box origin must be nonnegative")

    @property
    def area(self) -> int:
        return self.w * self.h


@dataclass
class MatchResult:
    """One frame's detection-to-groundtruth matching counts."""

    tp: int
    fp: int
    fn: int
    pairs: list = field(default_factory=list)


def threshold_mask(s: np.ndarray, mode: str = "fixed", value: float = 0.1):
    """Binary foreground mask from |s| by fixed or quantile threshold.

    ``mode="fixed"`` keeps entries with |s_i| >= value; ``mode="quantile"``
    first sets the threshold to the value-quantile of |s|.
    """
    s = np.asarray(s, dtype=np.float64).ravel()
    a = np.abs(s)
    if mode == "fixed":
        theta = float(value)
    elif mode == "quantile":
        if not 0.0 < value < 1.0:
            raise ValueError("quantile must lie in (0, 1)")
        theta = float(np.quantile(a, value))
    else:
        raise ValueError(f"unknown threshold mode {mode!r}")
    return a >= theta


_OFFSETS = ((-1, 0), (1, 0), (0, -1), (0, 1),
            (-1, -1), (-1, 1), (1, -1), (1, 1))


def connected_components(mask: np.ndarray, H: int, W: int, min_area: int = 2):
    """Bounding boxes of 8-connected true-regions, sorted by (y, x).

    Components smaller than ``min_area`` pixels are dropped. Each true pixel
    takes the smallest raster number in its component by min-label
    propagation with pointer jumping, vectorised over the true pixels; boxes
    with the same corner keep the raster order of their first pixels.
    """
    mask = np.asarray(mask, dtype=bool).ravel()
    if mask.size != H * W:
        raise ValueError(f"mask length {mask.size} != {H}x{W}")
    ys, xs = np.nonzero(mask.reshape(H, W))
    n = ys.size
    number = np.full((H + 2, W + 2), n)  # n marks "no true pixel"
    number[ys + 1, xs + 1] = np.arange(n)
    nbrs = np.stack([number[ys + 1 + dy, xs + 1 + dx] for dy, dx in _OFFSETS])
    lab = np.arange(n + 1)
    while True:
        new = lab.copy()
        new[:n] = np.minimum(lab[:n], lab[nbrs].min(axis=0))
        new = new[new]
        if np.array_equal(new, lab):
            break
        lab = new
    roots, comp, area = np.unique(lab[:n], return_inverse=True,
                                  return_counts=True)
    # a root is its component's first pixel in raster order: on its top row
    y0, y1, x0, x1 = ys[roots], ys[roots], xs[roots], xs[roots]
    np.maximum.at(y1, comp, ys)
    np.minimum.at(x0, comp, xs)
    np.maximum.at(x1, comp, xs)
    keep = area >= min_area
    boxes = [
        Box(x=a, y=b, w=c - a + 1, h=d - b + 1)
        for a, b, c, d in zip(*(v[keep].tolist() for v in (x0, y0, x1, y1)))
    ]
    boxes.sort(key=lambda b: (b.y, b.x))
    return boxes


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes; 0 when disjoint."""
    ix = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    iy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / float(a.area + b.area - inter)


def match_detections(dets, gts, thresh: float = 0.3) -> MatchResult:
    """Greedy descending-IoU one-to-one matching of detections to groundtruth.

    Pairs below the IoU threshold never match; leftovers count as FP/FN.
    """
    if not 0.0 < thresh <= 1.0:
        raise ValueError("IoU threshold must lie in (0, 1]")
    cands = []
    for di, dbox in enumerate(dets):
        for gi, gbox in enumerate(gts):
            v = iou(dbox, gbox)
            if v >= thresh:
                cands.append((v, di, gi))
    cands.sort(key=lambda t: (-t[0], t[1], t[2]))
    pairs = []
    used_d, used_g = set(), set()
    for v, di, gi in cands:
        if di in used_d or gi in used_g:
            continue
        used_d.add(di)
        used_g.add(gi)
        pairs.append((di, gi, v))
    tp = len(pairs)
    return MatchResult(tp=tp, fp=len(dets) - tp, fn=len(gts) - tp, pairs=pairs)


def metrics_window(history, mode: str = "accumulated", k: int = 5):
    """(recall, precision, f1) over a window of per-frame match results.

    ``mode="accumulated"`` sums all frames, ``mode="last_k"`` only the k most
    recent. Empty denominators score 0 by convention.
    """
    if len(history) == 0:
        raise ValueError("history is empty")
    if mode == "accumulated":
        window = history
    elif mode == "last_k":
        if k < 1:
            raise ValueError("window length must be >= 1")
        window = history[-k:]
    else:
        raise ValueError(f"unknown metrics mode {mode!r}")
    tp = sum(m.tp for m in window)
    fp = sum(m.fp for m in window)
    fn = sum(m.fn for m in window)
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    f1 = (
        2.0 * recall * precision / (recall + precision)
        if recall + precision > 0
        else 0.0
    )
    return recall, precision, f1


def read_boxes_csv(path):
    """Parse a groundtruth/detections CSV into {frame_index: [Box, ...]}.

    Format: header ``frame_index,x,y,w,h`` then one integer row per box.
    Malformed lines raise with their line number.
    """
    by_frame: dict[int, list[Box]] = {}
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "frame_index,x,y,w,h":
        raise ValueError(f"{path}: line 1: expected header 'frame_index,x,y,w,h'")
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise ValueError(f"{path}: line {ln}: expected 5 comma-separated fields")
        try:
            fi, x, y, w, h = (int(v) for v in parts)
        except ValueError:
            raise ValueError(f"{path}: line {ln}: fields must be integers") from None
        if fi < 0:
            raise ValueError(f"{path}: line {ln}: frame_index must be >= 0")
        try:
            box = Box(x=x, y=y, w=w, h=h)
        except ValueError as exc:
            raise ValueError(f"{path}: line {ln}: {exc}") from None
        by_frame.setdefault(fi, []).append(box)
    return by_frame


def write_boxes_csv(path, by_frame) -> None:
    """Write {frame_index: [Box, ...]} in the groundtruth CSV format."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("frame_index,x,y,w,h\n")
        for fi in sorted(by_frame):
            for b in by_frame[fi]:
                fh.write(f"{fi},{b.x},{b.y},{b.w},{b.h}\n")
