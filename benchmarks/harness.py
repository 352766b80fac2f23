"""Workloads, input generation and one timed pass of the stream loop.

A pass drives a generated PGM sequence through the same public calls that
``modet run`` makes: ``io.iter_sequence`` -> ``pipeline.run_sequence``, with
an evaluator (fixed threshold -> connected components -> IoU matching ->
accumulated scores) and a ``MetricsSink``. The load is a closed loop: the
next frame is requested only after the previous record reached the sinks.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import modet.detection as detection
from modet.io import (
    MetricsSink,
    SynthSpec,
    iter_sequence,
    synth_sequence,
    write_sequence_dir,
)
from modet.detection import write_boxes_csv
from modet.groups import build_grid_groups
from modet.model import Frame, default_hyperparams, init_subspace
from modet.pipeline import run_sequence
from modet.subspace import load_checkpoint

from tracing import Tracer

MODEL_SEED = 0
SCENE_SEED = 7  # the data seed of acceptance gate 07's stream
NOISE_SIGMA = 0.01
SEG_THETA = 0.1
MIN_AREA = 2
IOU_THRESH = 0.3
OBJECTIVE_RISE_TOL = 1e-10  # acceptance gate 05's bound on a separation step


@dataclass(frozen=True)
class Workload:
    """One synthetic stream; ``frames`` is the length of one pass.

    ``f1_floor`` is the lowest accumulated F1 a whole pass may score.
    """

    name: str
    size: int
    blobs: int
    frames: int
    f1_floor: float

    def spec(self, n_frames: int) -> SynthSpec:
        return SynthSpec(height=self.size, width=self.size, n_frames=n_frames,
                         rank=2, n_blobs=self.blobs, noise_sigma=0.0)


# Why each workload exists is recorded in BENCHMARK.json and the README.
# A pass is about 30-40 s of the baseline code's frame loop, so that the
# first pass still ends within a run when the machine is a third slower.
WORKLOADS = {w.name: w for w in (
    Workload("synth64", size=64, blobs=3, frames=100, f1_floor=0.55),
    Workload("wide128", size=128, blobs=12, frames=16, f1_floor=0.45),
)}


def prepare_inputs(workload: Workload, seed: int, n_frames: int,
                   root: Path) -> Path:
    """Write the workload's sequence and groundtruth once per (seed, length).

    The scene (background maps, blob sizes, speeds and paths) comes from
    ``SCENE_SEED``; the data ``seed`` draws the sensor noise, added and
    clipped the way ``synth_sequence`` adds its own. Letting the seed pick
    the scene too made per-seed work differ by up to 40% on three blobs, far
    more than any bound a timing could be held to. The directory is built
    under a temporary name and renamed when complete, so an interrupted run
    never leaves a partial sequence behind.
    """
    spec = workload.spec(n_frames)
    key = hashlib.sha256(repr((spec, SCENE_SEED, NOISE_SIGMA)).encode())
    out = root / f"{workload.name}-seed{seed}-n{n_frames}-{key.hexdigest()[:12]}"
    if (out / "gt.csv").is_file():
        return out
    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    frames, gt = synth_sequence(spec, SCENE_SEED)
    rng = np.random.default_rng(seed)
    noisy = (Frame(np.clip(f.pixels + rng.normal(0.0, NOISE_SIGMA,
                                                  f.pixels.size), 0.0, 1.0),
                   f.height, f.width, f.index) for f in frames)
    write_sequence_dir(tmp, noisy)
    write_boxes_csv(tmp / "gt.csv", gt)
    shutil.rmtree(out, ignore_errors=True)
    tmp.rename(out)
    return out


def setup_once(size: int) -> float:
    """One stream's one-off set-up at the given frame size; seconds taken."""
    t0 = time.perf_counter()
    p = size * size
    build_grid_groups(size, size)
    params = default_hyperparams(p)
    init_subspace(p, params, MODEL_SEED)
    return time.perf_counter() - t0


@dataclass
class PassResult:
    """What one pass over the stream measured and checked."""

    requested: list   # perf_counter when frame i was requested
    delivered: list   # perf_counter when frame i's record reached the sinks
    objectives: list  # final per-frame cost, objective_trace[-1]
    f1_acc: float
    failed: int       # frames with non-finite output or an exhausted budget
    problems: list    # failed output checks, as messages
    spans: list | None = None

    @property
    def frames(self) -> int:
        return len(self.delivered)

    def latencies_ms(self) -> list:
        """Frame latencies in ms, frame 0 excluded: run_sequence builds the
        groups and the model lazily inside it, so it carries the set-up."""
        return [(d - r) * 1e3 for r, d in
                zip(self.requested[1:], self.delivered[1:])]

    def loop_seconds(self) -> float:
        """Wall time of the timed frames, from frame 1's request to the last
        record reaching the sinks."""
        if self.frames < 2:
            return 0.0
        return self.delivered[-1] - self.requested[1]


def run_pass(seq_dir: Path, gt: dict, work: Path, tracer: Tracer | None,
             deadline: float | None = None) -> PassResult:
    """Run the stream loop once over ``seq_dir`` and check its outputs.

    With a ``deadline`` (a perf_counter value) no frame after the first is
    requested past it, so the pass may end early; without one it covers the
    sequence.
    """
    requested, delivered, objectives = [], [], []
    history, problems, final_deltas, nonfinite = [], [], [], []

    def source():
        frames = iter_sequence(seq_dir)
        while not (requested and deadline is not None
                   and time.perf_counter() >= deadline):
            requested.append(time.perf_counter())
            if tracer is not None:
                tracer.frame = len(delivered)
                tracer.open("frame")
                tracer.open("io.read")
            try:
                frame = next(frames)
            except StopIteration:
                requested.pop()
                if tracer is not None:
                    tracer.discard()
                    tracer.discard()
                break
            if tracer is not None:
                tracer.close()
            yield frame
        if tracer is not None:
            tracer.frame = -1

    def evaluate(frame, sep):
        finite = all(np.isfinite(a).all() for a in
                     (sep.coeffs, sep.foreground, sep.background))
        nonfinite.append(not finite)
        if not finite:
            problems.append(f"frame {frame.index}: non-finite output")
        trace = sep.objective_trace
        rise = max((b - a for a, b in zip(trace, trace[1:])), default=0.0)
        if not rise <= OBJECTIVE_RISE_TOL:
            problems.append(f"frame {frame.index}: objective rose by {rise:.3g}")
        objectives.append(trace[-1])
        mask = detection.threshold_mask(sep.foreground, mode="fixed",
                                        value=SEG_THETA)
        boxes = detection.connected_components(mask, frame.height,
                                               frame.width, min_area=MIN_AREA)
        history.append(detection.match_detections(
            boxes, gt.get(frame.index, []), thresh=IOU_THRESH))
        r5, p5, f5 = detection.metrics_window(history, mode="last_k", k=5)
        ra, pa, fa = detection.metrics_window(history, mode="accumulated")
        return {"recall5": r5, "precision5": p5, "f1_5": f5,
                "recall_acc": ra, "precision_acc": pa, "f1_acc": fa}

    def delivered_sink(record):
        # Last sink, so the record has reached every other sink by now.
        delivered.append(time.perf_counter())
        if tracer is not None:
            tracer.close()
        final_deltas.append(record["final_delta"])

    ckpt = work / "model.ckpt"
    with MetricsSink(work / "metrics.csv",
                     comments=[f"input={seq_dir.name}"]) as sink:
        summary = run_sequence(source(), params=None, seed=MODEL_SEED,
                               sinks=(sink, delivered_sink),
                               evaluator=evaluate, checkpoint_path=ckpt)
    problems += check_checkpoint(ckpt, summary)
    tau = summary.params.tau
    failed = sum(bad or fd > tau for bad, fd in zip(nonfinite, final_deltas))
    f1_acc = detection.metrics_window(history, mode="accumulated")[2]
    return PassResult(requested, delivered, objectives, f1_acc, failed,
                      problems, tracer.spans if tracer is not None else None)


def check_checkpoint(path: Path, summary) -> list:
    """The final checkpoint must load back bit for bit."""
    model, h, w, lam1, lam2 = load_checkpoint(path)
    want = summary.model
    same = (
        (h, w) == (summary.height, summary.width)
        and model.frames_seen == want.frames_seen
        and lam1 == summary.params.lambda1 and lam2 == summary.params.lambda2
        and all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in (
            (model.basis, want.basis), (model.accA, want.accA),
            (model.accB, want.accB)))
    )
    return [] if same else [f"{path.name}: checkpoint does not round-trip"]

