import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from modet.detection import (
    Box,
    MatchResult,
    connected_components,
    iou,
    match_detections,
    metrics_window,
    read_boxes_csv,
    threshold_mask,
    write_boxes_csv,
)


class TestThresholdMask:
    def test_zero_signal_fixed(self):
        assert not threshold_mask(np.zeros(10), mode="fixed", value=0.1).any()

    def test_fixed_rule(self):
        s = np.array([0.05, 0.2, 0.0, -0.3])
        got = threshold_mask(s, mode="fixed", value=0.1)
        assert got.tolist() == [False, True, False, True]

    def test_quantile_count(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=1000)
        mask = threshold_mask(s, mode="quantile", value=0.99)
        assert abs(int(mask.sum()) - 10) <= 1

    def test_bad_quantile(self):
        with pytest.raises(ValueError):
            threshold_mask(np.zeros(4), mode="quantile", value=1.5)
        with pytest.raises(ValueError):
            threshold_mask(np.zeros(4), mode="median", value=0.5)


def reference_components(mask, H, W, min_area=2):
    """Depth-first flood fill over the pixels: the reference labelling."""
    offsets = [(-1, 0), (1, 0), (0, -1), (0, 1),
               (-1, -1), (-1, 1), (1, -1), (1, 1)]
    grid = np.asarray(mask, dtype=bool).reshape(H, W)
    seen = np.zeros((H, W), dtype=bool)
    boxes = []
    for sy, sx in zip(*np.nonzero(grid)):
        if seen[sy, sx]:
            continue
        seen[sy, sx] = True
        stack, pixels = [(int(sy), int(sx))], []
        while stack:
            cy, cx = stack.pop()
            pixels.append((cy, cx))
            for dy, dx in offsets:
                ny, nx = cy + dy, cx + dx
                if 0 <= ny < H and 0 <= nx < W and grid[ny, nx] and not seen[ny, nx]:
                    seen[ny, nx] = True
                    stack.append((ny, nx))
        if len(pixels) >= min_area:
            py, px = zip(*pixels)
            boxes.append(Box(x=min(px), y=min(py), w=max(px) - min(px) + 1,
                             h=max(py) - min(py) + 1))
    boxes.sort(key=lambda b: (b.y, b.x))
    return boxes


@st.composite
def masks(draw):
    H = draw(st.integers(1, 40))
    W = draw(st.integers(1, 40))
    density = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).random((H, W)) < density


class TestConnectedComponents:
    @settings(max_examples=150, deadline=None)
    @given(masks(), st.integers(1, 5))
    def test_matches_reference(self, m, min_area):
        H, W = m.shape
        got = connected_components(m.ravel(), H, W, min_area)
        assert got == reference_components(m, H, W, min_area)

    def test_pinned_shapes_match_reference(self):
        # a U with a short left arm, so its box corner (0, 0) is not one of
        # its pixels; a pixel inside the U's box; components on every edge
        m = np.zeros((7, 9), dtype=bool)
        m[1:4, 0] = m[0:4, 4] = m[3, 0:5] = True   # U open at the top
        m[0, 2] = True                             # inside the U's box
        m[0, 6:9] = True                           # top edge, top-right corner
        m[6, 0:3] = True                           # bottom edge, bottom-left
        m[3:6, 8] = True                           # right edge
        m[5:7, 5] = True                           # bottom edge
        for min_area in (1, 2, 3, 5):
            got = connected_components(m.ravel(), 7, 9, min_area)
            assert got == reference_components(m, 7, 9, min_area)
        assert connected_components(m.ravel(), 7, 9, 1) == [
            Box(x=0, y=0, w=5, h=4), Box(x=2, y=0, w=1, h=1),
            Box(x=6, y=0, w=3, h=1), Box(x=8, y=3, w=1, h=3),
            Box(x=5, y=5, w=1, h=2), Box(x=0, y=6, w=3, h=1),
        ]

    def test_same_corner_keeps_raster_order(self):
        # an L and a pixel share the box corner (0, 0); the pixel comes first
        m = np.zeros((5, 6), dtype=bool)
        m[0, 0] = True
        m[0:4, 5] = m[3, 0:6] = True
        got = connected_components(m.ravel(), 5, 6, 1)
        assert got == reference_components(m, 5, 6, 1)
        assert got == [Box(x=0, y=0, w=1, h=1), Box(x=0, y=0, w=6, h=4)]

    def test_empty_mask(self):
        assert connected_components(np.zeros(64, dtype=bool), 8, 8) == []

    def test_single_block(self):
        m = np.zeros((8, 8), dtype=bool)
        m[2:5, 2:5] = True
        boxes = connected_components(m.ravel(), 8, 8)
        assert boxes == [Box(x=2, y=2, w=3, h=3)]

    def test_diagonal_connectivity(self):
        m = np.zeros((4, 4), dtype=bool)
        m[1, 1] = True
        m[2, 2] = True
        assert len(connected_components(m.ravel(), 4, 4, min_area=1)) == 1

    def test_min_area_filter(self):
        m = np.zeros((6, 6), dtype=bool)
        m[0, 0] = True          # area 1, dropped at min_area=2
        m[3:5, 3:5] = True      # area 4, kept
        boxes = connected_components(m.ravel(), 6, 6, min_area=2)
        assert boxes == [Box(x=3, y=3, w=2, h=2)]

    def test_partition_and_tight_boxes(self):
        rng = np.random.default_rng(1)
        m = rng.random((12, 12)) < 0.3
        boxes = connected_components(m.ravel(), 12, 12, min_area=1)
        # total boxed pixels cover every true pixel exactly once per component
        label = np.zeros((12, 12), dtype=int)
        for i, b in enumerate(boxes, start=1):
            sub = m[b.y : b.y + b.h, b.x : b.x + b.w]
            # tight: every border row/column of the box touches its component
            assert sub[0, :].any() and sub[-1, :].any()
            assert sub[:, 0].any() and sub[:, -1].any()
        counts = sum(
            int(m[b.y : b.y + b.h, b.x : b.x + b.w].sum()) for b in boxes
        )
        assert counts >= int(m.sum())  # boxes may overlap, never undercount

    def test_sorted_by_position(self):
        m = np.zeros((8, 8), dtype=bool)
        m[5:7, 0:2] = True
        m[0:2, 5:7] = True
        boxes = connected_components(m.ravel(), 8, 8)
        assert boxes == [Box(x=5, y=0, w=2, h=2), Box(x=0, y=5, w=2, h=2)]


class TestIoU:
    def test_identical(self):
        b = Box(1, 2, 5, 4)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(Box(0, 0, 2, 2), Box(5, 5, 2, 2)) == 0.0

    def test_half_overlap_arithmetic(self):
        assert iou(Box(0, 0, 10, 10), Box(5, 0, 10, 10)) == pytest.approx(1 / 3)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = Box(*rng.integers(0, 10, 2), *rng.integers(1, 8, 2))
            b = Box(*rng.integers(0, 10, 2), *rng.integers(1, 8, 2))
            assert iou(a, b) == iou(b, a)
            assert 0.0 <= iou(a, b) <= 1.0


class TestMatching:
    def test_identical_lists(self):
        boxes = [Box(0, 0, 4, 4), Box(6, 6, 3, 3)]
        m = match_detections(boxes, list(boxes), thresh=0.3)
        assert (m.tp, m.fp, m.fn) == (2, 0, 0)

    def test_greedy_prefers_higher_iou(self):
        det = [Box(0, 0, 10, 10)]
        gt_hi = Box(0, 0, 10, 15)   # IoU 10/15 = 0.667
        gt_lo = Box(0, 0, 10, 25)   # IoU 0.4
        m = match_detections(det, [gt_lo, gt_hi], thresh=0.3)
        assert (m.tp, m.fp, m.fn) == (1, 0, 1)
        assert m.pairs[0][1] == 1  # matched the higher-IoU groundtruth
        assert m.pairs[0][2] == pytest.approx(10 / 15)

    def test_conservation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            dets = [Box(*rng.integers(0, 20, 2), *rng.integers(1, 6, 2))
                    for _ in range(rng.integers(0, 6))]
            gts = [Box(*rng.integers(0, 20, 2), *rng.integers(1, 6, 2))
                   for _ in range(rng.integers(0, 6))]
            m = match_detections(dets, gts, thresh=0.3)
            assert m.tp + m.fp == len(dets)
            assert m.tp + m.fn == len(gts)
            assert m.tp == len(m.pairs)
            assert all(v >= 0.3 for _, _, v in m.pairs)

    def test_threshold_guard(self):
        with pytest.raises(ValueError):
            match_detections([], [], thresh=0.0)


class TestMetricsWindow:
    def test_single_perfect_frame(self):
        assert metrics_window([MatchResult(1, 0, 0)]) == (1.0, 1.0, 1.0)

    def test_formula_case(self):
        got = metrics_window([MatchResult(3, 1, 1)])
        assert got == (0.75, 0.75, 0.75)

    def test_all_zero_convention(self):
        assert metrics_window([MatchResult(0, 0, 0)]) == (0.0, 0.0, 0.0)

    def test_last_k_equals_manual_tail_sum(self):
        rng = np.random.default_rng(4)
        hist = [
            MatchResult(int(rng.integers(0, 4)), int(rng.integers(0, 3)),
                        int(rng.integers(0, 3)))
            for _ in range(10)
        ]
        got = metrics_window(hist, mode="last_k", k=5)
        ref = metrics_window(hist[5:], mode="accumulated")
        assert got == ref

    def test_tp_only_frame_never_hurts(self):
        rng = np.random.default_rng(5)
        hist = [MatchResult(2, 1, 1), MatchResult(1, 2, 0)]
        r0, p0, _ = metrics_window(hist)
        hist.append(MatchResult(3, 0, 0))
        r1, p1, _ = metrics_window(hist)
        assert r1 >= r0 and p1 >= p0

    def test_empty_history(self):
        with pytest.raises(ValueError):
            metrics_window([])


box_strategy = st.builds(Box, st.integers(0, 10_000), st.integers(0, 10_000),
                         st.integers(1, 10_000), st.integers(1, 10_000))


class TestBoxesCsv:
    # the file is rewritten on every example, so one tmp_path serves all
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.dictionaries(st.integers(0, 10**6),
                           st.lists(box_strategy, min_size=1, max_size=5),
                           max_size=8))
    @example({0: [Box(1, 2, 3, 4)], 2: [Box(0, 0, 1, 1), Box(5, 5, 2, 2)]})
    def test_round_trip(self, tmp_path, by_frame):
        path = tmp_path / "gt.csv"
        write_boxes_csv(path, by_frame)
        again = read_boxes_csv(path)
        assert again == by_frame

    def test_header_only(self, tmp_path):
        path = tmp_path / "gt.csv"
        write_boxes_csv(path, {})
        assert path.read_text() == "frame_index,x,y,w,h\n"
        assert read_boxes_csv(path) == {}

    def test_malformed_lines_carry_line_numbers(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("frame_index,x,y,w,h\n0,1,2,3,4\n0,1,2\n")
        with pytest.raises(ValueError, match="line 3"):
            read_boxes_csv(path)
        path.write_text("frame_index,x,y,w,h\n0,a,2,3,4\n")
        with pytest.raises(ValueError, match="line 2"):
            read_boxes_csv(path)
        path.write_text("frame_index,x,y,w,h\n0,1,2,0,4\n")
        with pytest.raises(ValueError, match="line 2"):
            read_boxes_csv(path)
        path.write_text("x,y\n")
        with pytest.raises(ValueError, match="line 1"):
            read_boxes_csv(path)


def test_box_invariants():
    with pytest.raises(ValueError):
        Box(0, 0, 0, 3)
    with pytest.raises(ValueError):
        Box(-1, 0, 2, 2)
    assert Box(0, 0, 2, 3).area == 6
