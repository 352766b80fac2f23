"""Spans for the traced benchmark run, recorded from outside the library.

Each traced layer is one of modet's public functions, replaced for the
duration of a traced pass by a wrapper installed at the module attribute its
caller looks up (``modet.pipeline.separate`` is what ``process_frame`` calls,
``modet.separation.structured_prox_dual`` is what ``separate`` calls, and so
on). The library's code is untouched; the untraced run installs nothing.

A span is ``[name, start, end, parent, frame, info]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span (-1 for a
root), ``frame`` the pass-relative frame index shared by every span of one
frame (-1 after the stream ends), and ``info`` the counts taken from the
call's result. Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

import modet.detection
import modet.pipeline
import modet.separation

NAME, START, END, PARENT, FRAME, INFO = range(6)


def _groups_info(out, args, kwargs):
    return {"n_groups": out.n_groups, "n_colors": len(out.colors)}


def _separation_info(out, args, kwargs):
    params = args[3] if len(args) > 3 else kwargs["params"]
    return {"iters": out.iters, "exhausted": int(out.final_delta > params.tau)}


def _prox_info(out, args, kwargs):
    # separate() always passes tol and max_iters by keyword.
    sweeps, change = out[2], out[3]
    capped = sweeps >= kwargs["max_iters"] and change > kwargs["tol"]
    return {"sweeps": sweeps, "capped": int(capped)}


def _mask_info(out, args, kwargs):
    return {"mask_px": int(out.sum())}


def _boxes_info(out, args, kwargs):
    return {"boxes": len(out)}


# (module, attribute its caller looks up, span name, result -> counts)
TARGETS = (
    (modet.pipeline, "build_grid_groups", "groups.build", _groups_info),
    (modet.pipeline, "init_subspace", "model.init", None),
    (modet.pipeline, "process_frame", "pipeline.process_frame", None),
    (modet.pipeline, "separate", "separation", _separation_info),
    (modet.separation, "structured_prox_dual", "prox", _prox_info),
    (modet.separation, "omega_norm", "groups.omega", None),
    (modet.pipeline, "update_accumulators", "subspace.accumulate", None),
    (modet.pipeline, "update_basis", "subspace.basis_update", None),
    (modet.pipeline, "save_checkpoint", "subspace.checkpoint", None),
    (modet.detection, "threshold_mask", "detection.threshold", _mask_info),
    (modet.detection, "connected_components", "detection.components",
     _boxes_info),
    (modet.detection, "match_detections", "detection.match", None),
)


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self):
        self.spans = []
        self.frame = -1
        self._open = []

    def open(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.frame, None])
        self._open.append(len(self.spans) - 1)

    def close(self) -> None:
        self.spans[self._open.pop()][END] = time.perf_counter()

    def discard(self) -> None:
        """Drop the innermost open span, which must be the newest one."""
        idx = self._open.pop()
        if idx != len(self.spans) - 1:
            raise RuntimeError("only the newest span can be discarded")
        self.spans.pop()

    def _wrap(self, fn, name, info_fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close()
                raise
            span = self.spans[self._open[-1]]
            self.close()
            if info_fn is not None:
                span[INFO] = info_fn(out, args, kwargs)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Install a wrapper on every target; restore the originals after."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in TARGETS]
        try:
            for (mod, attr, name, info_fn), (_, _, fn) in zip(TARGETS, saved):
                setattr(mod, attr, self._wrap(fn, name, info_fn))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def write_jsonl(self, path, pass_index: int) -> None:
        with open(path, "a", encoding="ascii") as fh:
            for name, start, end, parent, frame, info in self.spans:
                fh.write(json.dumps({
                    "pass": pass_index, "frame": frame, "name": name,
                    "start": start, "end": end, "parent": parent,
                    "info": info,
                }) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the time its direct children cover.

    Children of one parent never overlap (calls are sequential), so the part
    of a parent's interval they cover is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def check_nesting(spans, tol: float = 1e-9):
    """Problems with the span tree: a child outside its parent, a frame id
    that differs from its parent's, or a span never closed."""
    problems = []
    for i, (name, start, end, parent, frame, _) in enumerate(spans):
        if end is None or end < start:
            problems.append(f"span {i} ({name}) is not closed")
            continue
        if parent >= 0:
            p = spans[parent]
            if p[END] is None:
                continue  # reported as not closed on its own
            if start < p[START] - tol or end > p[END] + tol:
                problems.append(f"span {i} ({name}) lies outside its parent "
                                f"{p[NAME]}")
            if frame != p[FRAME]:
                problems.append(f"span {i} ({name}) has frame {frame}, its "
                                f"parent {p[FRAME]}")
    return problems
