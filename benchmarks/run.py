"""Streaming benchmark for modet: frame latency, throughput, set-up, quality.

Run from the repository root:

    python3 benchmarks/run.py --workload synth64 --seed 7 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed in the
library. ``--trace 1`` runs the same stream untraced and traced, checks that
both give the same results, and reports the per-layer metrics from the
traced pass. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the run exits 1
when an output check fails. See ``benchmarks/README.md``.
"""

import os

# Single-threaded baseline: pin every BLAS/OpenMP pool before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
# BENCHMARK.json declares the workloads and every metric with its unit.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# modet is imported from this checkout's src/ only; without it the run fails.
sys.path.insert(0, str(SRC))
try:
    import modet
    import numpy
    import scipy

    from harness import WORKLOADS, prepare_inputs, run_pass, setup_once
    from modet.detection import read_boxes_csv
    from tracing import (
        END,
        FRAME,
        INFO,
        NAME,
        START,
        Tracer,
        check_nesting,
        self_times,
    )
except ImportError as exc:
    raise SystemExit(f"error: cannot import modet from {SRC}: {exc}")

SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 2.5
# Reported as frame_ms_tail. A run of the baseline code times about 20
# frames on wide128 and 140 on synth64, where p75 leaves 35 beyond it.
# Higher percentiles spread by up to 25% over ten seeds in 30 s runs.
TAIL_PERCENTILE = 75


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, workload, pass_frames):
    """What the numbers depend on besides the code: machine, versions, pins."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "modet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pass_frames": pass_frames,
    }


def measure_setup(size):
    """Median of repeated one-off set-ups; enough repeats to be steady."""
    samples = []
    while len(samples) < SETUP_MIN_REPEATS or sum(samples) < SETUP_MIN_SECONDS:
        gc.collect()
        samples.append(setup_once(size))
    return statistics.median(samples), len(samples)


def determinism_problems(first, later):
    """A repeated pass over the same input must give identical results."""
    n = later.frames
    if later.objectives != first.objectives[:n]:
        return ["a repeated pass gave different per-frame objectives"]
    if n == first.frames and later.f1_acc != first.f1_acc:
        return ["a repeated pass gave a different accumulated F1"]
    return []


def stream_passes(seq_dir, gt, work, deadline):
    """Passes over the sequence until the deadline; the first one always
    covers the whole sequence, the last may stop early."""
    gc.collect()
    passes = [run_pass(seq_dir, gt, work, None)]
    # A pass that cannot reach its first timed frame adds nothing.
    warmup = passes[0].delivered[1] - passes[0].requested[0]
    while time.perf_counter() + warmup < deadline:
        gc.collect()
        passes.append(run_pass(seq_dir, gt, work, None, deadline))
    return passes


def end_to_end(workload, passes, setup_s):
    lat = [x for p in passes for x in p.latencies_ms()]
    loop = sum(p.loop_seconds() for p in passes)
    first = passes[0]
    attempted = sum(p.frames for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "frames_per_s": len(lat) / loop,
        "frame_ms_p50": statistics.median(lat),
        "frame_ms_tail": float(numpy.percentile(lat, TAIL_PERCENTILE)),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "f1_acc": first.f1_acc,
        "objective_mean": statistics.fmean(first.objectives),
        "frames_ok_frac": 1.0 - failed / attempted,
    }
    beyond = sum(x > metrics["frame_ms_tail"] for x in lat)
    detail = {
        "timed_frames": len(lat),
        "tail_percentile": TAIL_PERCENTILE,
        "tail_frames_beyond": beyond,
        "passes": len(passes),
        "frames_per_pass": [p.frames for p in passes],
        "failed_frac": failed / attempted,
    }
    return metrics, detail, attempted, failed


# Self time of every layer a timed frame passes through; together they
# cover the traced frame time.
SELF_TIME_METRICS = (
    "io.read_ms_per_frame", "groups.omega_ms_per_frame", "prox.ms_per_frame",
    "separation.self_ms_per_frame", "subspace.accumulate_ms_per_frame",
    "subspace.basis_update_ms_per_frame", "detection.threshold_ms_per_frame",
    "detection.components_ms_per_frame", "detection.match_ms_per_frame",
    "pipeline.self_ms_per_frame",
)


def layer_metrics(traced, untraced, seq_dir, work):
    """Per-layer metrics from the traced passes, per timed frame (frame 0,
    which carries the lazy set-up, is left out as in the untraced run)."""
    dur, own, calls, info = defaultdict(float), defaultdict(float), Counter(), Counter()
    once = defaultdict(list)
    problems = []
    frames = 0
    for p in traced:
        spans = p.spans
        problems += check_nesting(spans)
        for span, st in zip(spans, self_times(spans)):
            name, frame = span[NAME], span[FRAME]
            d = span[END] - span[START]
            if name in ("groups.build", "model.init", "subspace.checkpoint"):
                once[name].append(d)
            if name == "groups.build":
                once["groups.info"].append(span[INFO])
            if frame < 1:
                continue
            dur[name] += d
            own[name] += st
            calls[name] += 1
            for key, val in (span[INFO] or {}).items():
                info[name + "." + key] += val
        frames += p.frames - 1

    def per_frame_ms(name, table=dur):
        return table[name] * 1e3 / frames

    n_passes = len(traced)
    prox_calls = calls["prox"]
    sweeps = info["prox.sweeps"]
    capped = info["prox.capped"]
    groups_info = once["groups.info"][0]
    untraced_fps = sum(p.frames - 1 for p in untraced) / sum(
        p.loop_seconds() for p in untraced)
    traced_fps = frames / sum(p.loop_seconds() for p in traced)
    frame_file = seq_dir / "frame_000000.pgm"
    metrics = {
        "io.read_ms_per_frame": per_frame_ms("io.read"),
        "io.bytes_per_frame": float(frame_file.stat().st_size),
        "groups.build_s": statistics.median(once["groups.build"]),
        "groups.n_groups": groups_info["n_groups"],
        "groups.n_colors": groups_info["n_colors"],
        "groups.omega_calls_per_frame": calls["groups.omega"] / frames,
        "groups.omega_ms_per_frame": per_frame_ms("groups.omega"),
        "prox.calls_per_frame": prox_calls / frames,
        "prox.ms_per_frame": per_frame_ms("prox"),
        "prox.sweeps_per_call": sweeps / prox_calls,
        "prox.sweeps_per_frame": sweeps / frames,
        "prox.us_per_sweep": dur["prox"] * 1e6 / sweeps,
        "prox.capped_calls": capped / n_passes,
        "prox.converged_ratio": 1.0 - capped / prox_calls,
        "prox.share": dur["prox"] / dur["frame"],
        "separation.ms_per_frame": per_frame_ms("separation"),
        "separation.self_ms_per_frame": per_frame_ms("separation", own),
        "separation.iters_per_frame": info["separation.iters"] / frames,
        "separation.budget_exhausted": info["separation.exhausted"] / n_passes,
        "subspace.accumulate_ms_per_frame": per_frame_ms("subspace.accumulate"),
        "subspace.basis_update_ms_per_frame":
            per_frame_ms("subspace.basis_update"),
        "subspace.checkpoint_ms":
            statistics.median(once["subspace.checkpoint"]) * 1e3,
        "subspace.checkpoint_bytes": float((work / "model.ckpt").stat().st_size),
        "model.init_ms": statistics.median(once["model.init"]) * 1e3,
        "pipeline.process_frame_ms_per_frame":
            per_frame_ms("pipeline.process_frame"),
        # Everything no other layer covers: run_sequence's loop, the
        # process_frame glue, the scoring and the sinks.
        "pipeline.self_ms_per_frame": (own["frame"]
                                       + own["pipeline.process_frame"])
                                      * 1e3 / frames,
        "detection.threshold_ms_per_frame": per_frame_ms("detection.threshold"),
        "detection.components_ms_per_frame":
            per_frame_ms("detection.components"),
        "detection.match_ms_per_frame": per_frame_ms("detection.match"),
        "detection.mask_px_per_frame":
            info["detection.threshold.mask_px"] / frames,
        "detection.boxes_per_frame":
            info["detection.components.boxes"] / frames,
        "trace.frame_ms_per_frame": per_frame_ms("frame"),
        "trace.overhead_ratio": untraced_fps / traced_fps,
    }
    covered = sum(metrics[name] for name in SELF_TIME_METRICS)
    if abs(covered - metrics["trace.frame_ms_per_frame"]) > 1e-6 * covered:
        problems.append("the layer self times do not add up to the traced "
                        "frame time")
    return metrics, problems


def traced_pairs(seq_dir, gt, work, deadline, spans_path):
    """Untraced then traced pass over the same input, repeated while a
    whole pair still fits before the deadline."""
    untraced, traced, problems = [], [], []
    while True:
        t0 = time.perf_counter()
        gc.collect()
        u = run_pass(seq_dir, gt, work, None)
        gc.collect()
        tracer = Tracer()
        with tracer.installed():
            t = run_pass(seq_dir, gt, work, tracer)
        tracer.write_jsonl(spans_path, len(traced))
        if t.f1_acc != u.f1_acc or t.objectives != u.objectives:
            problems.append("the traced pass changed f1_acc or objective_mean")
        untraced.append(u)
        traced.append(t)
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            return untraced, traced, problems


def main(argv=None):
    where = Path(modet.__file__).resolve().parent.parent
    if where != SRC.resolve():
        raise SystemExit(f"error: modet was imported from {where}, not {SRC}")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7,
                        help="data seed of the synthetic sequence")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="measurement time; the first pass always "
                             "completes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--frames", type=int, default=None,
                        help="frames per pass (default: the workload's)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    pass_frames = args.frames or workload.frames
    if pass_frames < 2 or (args.trace and pass_frames < 4):
        parser.error("--frames must leave at least one timed frame per pass")
    # A traced run spends its time on two passes over half the stream.
    if args.trace:
        pass_frames //= 2

    results = OUT / "results"
    work = OUT / "work" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    results.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True, exist_ok=True)
    seq_dir = prepare_inputs(workload, args.seed, pass_frames, OUT / "inputs")
    gt = read_boxes_csv(seq_dir / "gt.csv")
    env = environment(args, workload, pass_frames)
    stem = results / f"{workload.name}-seed{args.seed}-trace{args.trace}"

    start = time.perf_counter()
    deadline = start + args.seconds
    if args.trace:
        spans_path = stem.with_suffix(".spans.jsonl")
        spans_path.unlink(missing_ok=True)
        untraced, traced, problems = traced_pairs(seq_dir, gt, work, deadline,
                                                  spans_path)
        passes = untraced + traced
        metrics, more = layer_metrics(traced, untraced, seq_dir, work)
        problems += more
        declared = SPEC["per_layer"]
        detail = {"pairs": len(traced), "frames_per_pass": pass_frames,
                  "spans": str(spans_path.relative_to(ROOT))}
        attempted = sum(p.frames for p in passes)
        failed = sum(p.failed for p in passes)
    else:
        setup_s, setup_repeats = measure_setup(workload.size)
        passes = stream_passes(seq_dir, gt, work, deadline)
        metrics, detail, attempted, failed = end_to_end(workload, passes,
                                                        setup_s)
        detail["setup_repeats"] = setup_repeats
        declared = SPEC["end_to_end"]
        problems = []
        for later in passes[1:]:
            problems += determinism_problems(passes[0], later)
        # The floor holds for the workload's own pass length; a shortened
        # pass (--frames) is scored mostly on its cold-start frames.
        detail["f1_floor"] = (workload.f1_floor
                              if pass_frames == workload.frames else None)
        if detail["f1_floor"] is not None and metrics["f1_acc"] < workload.f1_floor:
            problems.append(f"f1_acc {metrics['f1_acc']:.4f} is below the "
                            f"floor {workload.f1_floor}")
    for p in passes:
        problems += p.problems
    detail["measured_s"] = time.perf_counter() - start
    detail["attempted"] = attempted
    detail["failed"] = failed

    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError("computed metrics differ from BENCHMARK.json")
    correct = not problems
    record = {"environment": env, "detail": detail, "problems": problems,
              "metrics": {m["name"]: {"value": metrics[m["name"]],
                                      "unit": m["unit"]} for m in declared}}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")

    why = {w["name"]: w["why"] for w in SPEC["workloads"]}
    print(f"workload {workload.name}: {why[workload.name]}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    for name, value in record["metrics"].items():
        print(f"  {name:40s} {value['value']:14.6g} {value['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
