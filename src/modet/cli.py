"""Command-line entry point: run the online loop, make data, score results."""

from __future__ import annotations

import argparse
import itertools
import logging
import math
import sys
from collections import deque
from pathlib import Path

import numpy as np

from . import prox
from .detection import (
    BOXES_HEADER,
    MatchResult,
    box_rows,
    connected_components,
    match_detections,
    metrics_window,
    read_boxes_csv,
    threshold_mask,
    write_boxes_csv,
)
from .io import (
    MetricsSink,
    SynthSpec,
    iter_sequence,
    synth_sequence,
    write_frame_pgm,
    write_sequence_dir,
)
from .model import HyperParams
from .pipeline import run_sequence

log = logging.getLogger(__name__)


def _parse_size(text: str):
    try:
        h, w = text.lower().split("x")
        h, w = int(h), int(w)
        if h < 1 or w < 1:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"size must be HxW with positive integers, got {text!r}"
        ) from None
    return h, w


def _parse_seg(text: str):
    mode, _, value = text.partition(":")
    if mode not in ("fixed", "quantile") or not value:
        raise argparse.ArgumentTypeError(
            f"segmentation must be fixed:THETA or quantile:Q, got {text!r}"
        )
    try:
        value = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad segmentation parameter in {text!r}"
        ) from None
    if mode == "quantile" and not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(
            f"quantile must lie in (0, 1), got {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"threshold must be finite, got {text!r}")
    return mode, value


def _positive_int(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, got {text!r}")
    return value


def _iou_thresh(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"IoU threshold must lie in (0, 1], got {text!r}")
    return value


def _frame_list(frames, shown=20) -> str:
    text = " ".join(map(str, frames[:shown]))
    return text + (f" and {len(frames) - shown} more"
                   if len(frames) > shown else "")


def cmd_run(args) -> int:
    source = iter_sequence(args.input)
    first = next(iter(source))
    source = itertools.chain([first], source)
    height, width = first.height, first.width
    p = height * width

    lambda1 = args.lambda1 if args.lambda1 is not None else 1.0 / math.sqrt(p)
    lambda2 = args.lambda2 if args.lambda2 is not None else 10.0 * lambda1
    params = HyperParams(
        lambda1=lambda1, lambda2=lambda2, rank=args.rank, tau=args.tau
    )
    seg_mode, seg_value = args.seg
    log.info("prox backend: %s", prox.BACKEND)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = Path(args.checkpoint) if args.checkpoint else out / "model.ckpt"
    comments = [
        f"input={args.input}",
        f"height={height} width={width} rank={params.rank}",
        f"lambda1={params.lambda1!r} lambda2={params.lambda2!r} tau={params.tau!r}",
        f"downsample={args.downsample} seed={args.seed}",
        f"seg={seg_mode}:{seg_value!r} iou_thresh={args.iou_thresh!r}",
    ]

    gt = read_boxes_csv(args.gt) if args.gt else None
    total = MatchResult(tp=0, fp=0, fn=0)  # the run's summed match counts
    recent = deque(maxlen=5)  # the last 5 frames' matches
    capped = {}  # frame index -> prox calls that hit the sweep cap
    exhausted = []  # frames whose separation ran out of iterations

    def evaluate(frame, sep):
        if sep.prox_capped:
            capped[frame.index] = sep.prox_capped
        if sep.final_delta > params.tau:
            exhausted.append(frame.index)
        mask = threshold_mask(sep.foreground, mode=seg_mode, value=seg_value)
        boxes = connected_components(mask, height, width,
                                     min_area=args.min_area)
        dets.write(box_rows(frame.index, boxes))
        if args.dump_frames:
            (out / f"bg_{frame.index:06d}.pgm").write_bytes(
                write_frame_pgm(sep.background, height, width)
            )
            (out / f"fg_{frame.index:06d}.pgm").write_bytes(
                write_frame_pgm(np.abs(sep.foreground), height, width)
            )
        if gt is None:
            return {}
        m = match_detections(boxes, gt.get(frame.index, []),
                             thresh=args.iou_thresh)
        recent.append(m)
        total.tp, total.fp, total.fn = (total.tp + m.tp, total.fp + m.fp,
                                        total.fn + m.fn)
        r5, p5, f5 = metrics_window(recent)
        ra, pa, fa = metrics_window([total])
        return {
            "recall5": r5, "precision5": p5, "f1_5": f5,
            "recall_acc": ra, "precision_acc": pa, "f1_acc": fa,
        }

    with MetricsSink(out / "metrics.csv", comments=comments) as sink, \
            open(out / "detections.csv", "w", encoding="ascii",
                 newline="\n") as dets:
        dets.write(BOXES_HEADER + "\n")
        summary = run_sequence(
            source,
            params=params,
            downsample=args.downsample,
            seed=args.seed,
            sinks=(sink,),
            diagnostics=args.diagnostics,
            evaluator=evaluate,
            checkpoint_path=ckpt,
        )
    if capped:
        log.warning("%d prox calls stopped at the %d-sweep cap, in %d "
                    "frames: %s", sum(capped.values()), params.max_prox_iters,
                    len(capped), _frame_list(list(capped)))
    if exhausted:
        log.warning("%d frames stopped at the %d-iteration separation cap "
                    "with their change above tau: %s", len(exhausted),
                    params.max_sep_iters, _frame_list(exhausted))
    print(
        f"processed {summary.frames_processed} frames "
        f"({summary.mean_wall_ms:.1f} ms/frame), "
        f"metrics in {out / 'metrics.csv'}, checkpoint in {ckpt}"
    )
    return 0


def cmd_synth(args) -> int:
    height, width = args.size
    spec = SynthSpec(
        height=height,
        width=width,
        n_frames=args.frames,
        rank=args.rank,
        n_blobs=args.blobs,
        noise_sigma=args.noise,
    )
    frames, gt = synth_sequence(spec, args.seed)
    out = Path(args.out)
    n = write_sequence_dir(out, frames)
    write_boxes_csv(out / "gt.csv", gt)
    print(f"wrote {n} frames of {height}x{width} to {out}")
    return 0


def cmd_eval(args) -> int:
    dets = read_boxes_csv(args.dets)
    gt = read_boxes_csv(args.gt)
    indices = set(dets) | set(gt)
    if not indices:
        print(",".join(["0.0"] * 6))
        return 0
    history = [
        match_detections(dets.get(i, []), gt.get(i, []), thresh=args.iou_thresh)
        for i in range(max(indices) + 1)
    ]
    ra, pa, fa = metrics_window(history, mode="accumulated")
    rk, pk, fk = metrics_window(history, mode="last_k", k=args.window)
    print(",".join(repr(v) for v in (ra, pa, fa, rk, pk, fk)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modet",
        description="Streaming moving-object detection via online low-rank "
                    "background / structured-sparse foreground decomposition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="process a frame sequence online")
    run.add_argument("--input", required=True,
                     help="sequence directory or manifest file")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--rank", type=_positive_int, default=25)
    run.add_argument("--lambda1", type=_positive_float, default=None,
                     help="low-rank weight (default 1/sqrt(pixels))")
    run.add_argument("--lambda2", type=_positive_float, default=None,
                     help="structured-sparsity weight (default 10*lambda1)")
    run.add_argument("--tau", type=_positive_float, default=1e-5,
                     help="separation stop tolerance")
    run.add_argument("--downsample", type=_positive_int, default=1,
                     metavar="T",
                     help="process one frame in every T")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--diagnostics", action="store_true",
                     help="track surrogate cost and basis drift")
    run.add_argument("--checkpoint", default=None,
                     help="model checkpoint path (default OUT/model.ckpt)")
    run.add_argument("--gt", default=None, help="groundtruth boxes CSV")
    run.add_argument("--iou-thresh", type=_iou_thresh, default=0.3)
    run.add_argument("--seg", type=_parse_seg, default=("quantile", 0.995),
                     help="fixed:THETA or quantile:Q (default quantile:0.995)")
    run.add_argument("--min-area", type=int, default=2,
                     help="drop components below this pixel area")
    run.add_argument("--dump-frames", action="store_true",
                     help="write background/foreground PGMs per frame")
    run.set_defaults(func=cmd_run)

    synth = sub.add_parser("synth", help="generate a synthetic sequence")
    synth.add_argument("--out", required=True)
    synth.add_argument("--frames", type=int, default=500)
    synth.add_argument("--size", type=_parse_size, default=(64, 64),
                       metavar="HxW")
    synth.add_argument("--rank", type=int, default=2,
                       help="true background rank")
    synth.add_argument("--blobs", type=int, default=3)
    synth.add_argument("--noise", type=float, default=0.01)
    synth.add_argument("--seed", type=int, default=0)
    synth.set_defaults(func=cmd_synth)

    ev = sub.add_parser("eval", help="score detections against groundtruth")
    ev.add_argument("--dets", required=True, help="detections CSV")
    ev.add_argument("--gt", required=True, help="groundtruth CSV")
    ev.add_argument("--iou-thresh", type=_iou_thresh, default=0.3)
    ev.add_argument("--window", type=int, default=5)
    ev.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
