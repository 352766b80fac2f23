"""Acceptance suite: every release gate in one module, one test per gate.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion. The synthetic benchmark (64x64, 500 frames, true background rank
2, three moving blobs, noise 0.01, fixed seeds) is executed once and shared
by the criteria that read from it.
"""

import time

import numpy as np
import pytest

from conftest import closed_form_basis, oracle_prox, project_l1_ball
from modet.cli import main
from modet.detection import (
    connected_components,
    match_detections,
    metrics_window,
    threshold_mask,
)
from modet.groups import GroupStructure, build_grid_groups
from modet.io import SynthSpec, synth_sequence
from modet.model import default_hyperparams, init_subspace
from modet.pipeline import SurrogateTracker
from modet.prox import structured_prox_dual
from modet.separation import ridge_solve, separate
from modet.subspace import (
    SubspaceModel,
    update_accumulators,
    update_basis,
)

DATA_SEED = 7
MODEL_SEED = 0
SEG = ("fixed", 0.1)  # declared segmentation for the benchmark gates


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)


def covering_group_structure(H, W, extras, rng):
    """k=3 windows that cover an HxW grid plus `extras` random windows."""
    base_rows = sorted(set(range(0, H - 3, 3)) | {H - 3})
    base_cols = sorted(set(range(0, W - 3, 3)) | {W - 3})
    origins = [(r, c) for r in base_rows for c in base_cols]
    for _ in range(extras):
        origins.append((int(rng.integers(0, H - 2)), int(rng.integers(0, W - 2))))
    origins = list(dict.fromkeys(origins))
    tile = (np.arange(3)[:, None] * W + np.arange(3)[None, :]).ravel()
    groups = [np.sort(tile + r * W + c) for r, c in origins]
    return GroupStructure(groups, H * W)


@pytest.fixture(scope="module")
def bench():
    spec = SynthSpec()
    frames, gt = synth_sequence(spec, DATA_SEED)
    p = spec.height * spec.width
    params = default_hyperparams(p)
    g = build_grid_groups(spec.height, spec.width)
    model = init_subspace(p, params, MODEL_SEED)
    tracker = SurrogateTracker()

    g_costs = []
    basis_deltas = []
    basis_norms = []
    matches = {}
    worst_sep_step = -np.inf
    worst_col_delta = -np.inf
    t0 = time.perf_counter()
    for frame in frames:
        res = separate(frame, model.basis, g, params)
        trace = np.asarray(res.objective_trace)
        if trace.size > 1:
            worst_sep_step = max(worst_sep_step, float(np.diff(trace).max()))
        update_accumulators(model, frame, res)
        tracker.add(frame, res, g, params)
        prev = model.basis.copy()
        update_basis(model, params.lambda1)
        step = model.basis - prev
        col_deltas = -(np.diag(model.accA) + params.lambda1) * (
            step * step).sum(axis=0)
        worst_col_delta = max(worst_col_delta, float(col_deltas.max()))
        basis_deltas.append(float(np.linalg.norm(model.basis - prev)))
        basis_norms.append(float(np.linalg.norm(model.basis)))
        g_costs.append(tracker.value(model, params))
        mask = threshold_mask(res.foreground, mode=SEG[0], value=SEG[1])
        boxes = connected_components(mask, spec.height, spec.width, min_area=2)
        matches[frame.index] = match_detections(boxes, gt[frame.index], thresh=0.3)
    elapsed = time.perf_counter() - t0
    return {
        "spec": spec,
        "gt": gt,
        "params": params,
        "g_costs": np.asarray(g_costs),
        "basis_deltas": np.asarray(basis_deltas),
        "basis_norms": np.asarray(basis_norms),
        "matches": matches,
        "worst_sep_step": worst_sep_step,
        "worst_col_delta": worst_col_delta,
        "elapsed": elapsed,
    }


def test_criterion_01_prox_oracle_equivalence():
    rng = np.random.default_rng(100)
    shapes = [(5, 5), (4, 6), (6, 6)]
    lambdas = [0.01, 0.1, 1.0]
    worst = 0.0
    t0 = time.perf_counter()
    for i in range(200):
        H, W = shapes[i % len(shapes)]
        g = covering_group_structure(H, W, extras=2, rng=rng)
        assert g.n_groups <= 6 and g.p <= 36
        u = rng.uniform(-1, 1, g.p)
        lam2 = lambdas[i % len(lambdas)]
        s = structured_prox_dual(u, g, lam2, tol=1e-10, max_iters=5000)[0]
        ref = oracle_prox(u, g, lam2)
        worst = max(worst, float(np.abs(s - ref).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 10.0
    report(1, "prox matches independent oracle", ok,
           f"max |diff|={worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-5
    assert elapsed < 10.0


def test_criterion_02_moreau_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(3, 30))
        g = GroupStructure([list(range(p))], p)
        u = rng.normal(size=p)
        lam2 = float(rng.uniform(0.05, 2.0))
        s = structured_prox_dual(u, g, lam2)[0]
        worst = max(worst, float(np.abs(s + project_l1_ball(u, lam2) - u).max()))
    ok = worst < 1e-10
    report(2, "Moreau identity on single groups", ok, f"max |gap|={worst:.2e}")
    assert ok


def test_criterion_03_ridge_correctness():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(2, 65))
        r = int(rng.integers(1, 9))
        L = rng.normal(size=(p, r))
        d = rng.normal(size=p)
        s = rng.normal(size=p)
        lam1 = float(rng.uniform(0.01, 2.0))
        coef = ridge_solve(d, s, L, lam1)
        resid = (L.T @ L + lam1 * np.eye(r)) @ coef - L.T @ (d - s)
        worst = max(worst, float(np.abs(resid).max()))
    ok = worst <= 1e-10
    report(3, "ridge normal-equation residual", ok, f"max resid={worst:.2e}")
    assert ok


def test_criterion_04_basis_bcd_matches_closed_form():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        p = int(rng.integers(4, 33))
        r = int(rng.integers(1, 6))
        Y = rng.normal(size=(r, int(rng.integers(r, 3 * r + 1))))
        model = SubspaceModel(
            basis=rng.normal(size=(p, r)),
            accA=Y @ Y.T,
            accB=rng.normal(size=(p, r)),
            frames_seen=int(rng.integers(1, 50)),
        )
        lam1 = float(rng.uniform(0.1, 1.0))
        ref = closed_form_basis(model, lam1)
        for _ in range(3000):
            before = model.basis.copy()
            update_basis(model, lam1)
            if np.linalg.norm(model.basis - before) <= 1e-13:
                break
        worst = max(worst, float(np.abs(model.basis - ref).max()))
    ok = worst < 1e-8
    report(4, "basis coordinate descent vs closed form", ok,
           f"max |diff|={worst:.2e}")
    assert ok


def test_criterion_05_monotone_descent(bench):
    sep_ok = bench["worst_sep_step"] <= 1e-10
    col_ok = bench["worst_col_delta"] <= 1e-10
    report(5, "monotone descent of both objectives", sep_ok and col_ok,
           f"worst separation step={bench['worst_sep_step']:.2e}, "
           f"worst column step={bench['worst_col_delta']:.2e}")
    assert sep_ok, "per-frame separation objective increased"
    assert col_ok, "basis column update objective increased"


def test_criterion_06_convergence_diagnostics(bench):
    g_costs = bench["g_costs"]
    n = g_costs.size
    window = 50
    kernel = np.full(window, 1.0 / window)
    ma = np.convolve(g_costs, kernel, mode="valid")  # ma[i] is frames i..i+49
    diffs = np.abs(np.diff(ma))
    # diffs index i corresponds to frame t = i + window + 1
    split = n // 2 - window
    tv_first = float(diffs[:split].sum())
    tv_second = float(diffs[split:].sum())
    a_ok = tv_second <= 0.10 * tv_first

    t = np.arange(1, n + 1)
    scaled = t * bench["basis_deltas"]
    med_mid = float(np.median(scaled[49:250]))
    med_late = float(np.median(scaled[249:500]))
    b_ok = med_late <= 2.0 * med_mid

    norms = bench["basis_norms"]
    c_ok = norms[-100:].max() <= 1.2 * norms[99:200].max()

    time_ok = bench["elapsed"] < 300.0
    ok = a_ok and b_ok and c_ok and time_ok
    report(6, "convergence diagnostics on the benchmark", ok,
           f"TV ratio={tv_second / tv_first:.3f}, "
           f"drift medians {med_late:.3g}/{med_mid:.3g}, "
           f"norm ratio={norms[-100:].max() / norms[99:200].max():.3f}, "
           f"{bench['elapsed']:.0f}s")
    assert a_ok, f"surrogate moving average TV ratio {tv_second / tv_first:.3f} > 0.10"
    assert b_ok, f"basis drift medians: late {med_late:.4g} > 2x mid {med_mid:.4g}"
    assert c_ok, "basis norm grew beyond the boundedness gate"
    assert time_ok, f"benchmark run took {bench['elapsed']:.0f}s >= 300s"


def _batch_alternation_f1(spec, gt, params, seed):
    """Joint batch solve (all frames at once) scored like the online run."""
    frames = list(synth_sequence(spec, DATA_SEED)[0])
    g = build_grid_groups(spec.height, spec.width)
    p = spec.height * spec.width
    model = init_subspace(p, params, seed)
    results = [None] * len(frames)
    for _ in range(8):
        accA = np.zeros((params.rank, params.rank))
        accB = np.zeros((p, params.rank))
        for i, frame in enumerate(frames):
            res = separate(frame, model.basis, g, params)
            results[i] = res
            accA += np.outer(res.coeffs, res.coeffs)
            accB += np.outer(frame.pixels - res.foreground, res.coeffs)
        batch = SubspaceModel(model.basis, accA, accB, len(frames))
        model.basis = closed_form_basis(batch, params.lambda1)
    history = []
    for i in range(100, len(frames)):
        mask = threshold_mask(results[i].foreground, mode=SEG[0], value=SEG[1])
        boxes = connected_components(mask, spec.height, spec.width, min_area=2)
        history.append(match_detections(boxes, gt[i], thresh=0.3))
    return metrics_window(history, mode="accumulated")[2]


def test_criterion_07_synthetic_detection_quality(bench):
    steady = [bench["matches"][i] for i in range(100, 500)]
    recall, precision, f1 = metrics_window(steady, mode="accumulated")
    if f1 >= 0.80:
        report(7, "detection quality on the benchmark", True,
               f"accumulated F1[100:500]={f1:.4f}")
        return
    # fall back to the batch-solve gate when the direct bar is missed
    batch_f1 = _batch_alternation_f1(bench["spec"], bench["gt"],
                                     bench["params"], MODEL_SEED)
    ok = (batch_f1 < 0.85 and f1 >= batch_f1 - 0.05)
    report(7, "detection quality on the benchmark", ok,
           f"online F1={f1:.4f}, batch F1={batch_f1:.4f}")
    assert ok, f"online F1 {f1:.4f} below gate (batch reference {batch_f1:.4f})"


def test_criterion_08_downsampling_robustness(bench):
    spec = bench["spec"]
    params = bench["params"]
    all_f1 = {1: metrics_window(
        [bench["matches"][i] for i in sorted(bench["matches"])],
        mode="accumulated")[2]}
    for T in (3, 5, 10):
        frames, gt = synth_sequence(spec, DATA_SEED)
        g = build_grid_groups(spec.height, spec.width)
        model = init_subspace(spec.height * spec.width, params, MODEL_SEED)
        history = []
        for frame in frames:
            if frame.index % T != 0:
                continue
            res = separate(frame, model.basis, g, params)
            update_accumulators(model, frame, res)
            update_basis(model, params.lambda1)
            mask = threshold_mask(res.foreground, mode=SEG[0], value=SEG[1])
            boxes = connected_components(mask, spec.height, spec.width,
                                         min_area=2)
            history.append(match_detections(boxes, gt[frame.index], thresh=0.3))
        all_f1[T] = metrics_window(history, mode="accumulated")[2]
    spread = max(all_f1.values()) - min(all_f1.values())
    ok = spread <= 0.05
    detail = ", ".join(f"T={t}: {v:.4f}" for t, v in all_f1.items())
    report(8, "temporal down-sampling robustness", ok,
           f"{detail}, spread={spread:.4f}")
    assert ok, f"accumulated F1 spread {spread:.4f} > 0.05 ({detail})"


def test_criterion_09_determinism(tmp_path):
    seq = tmp_path / "seq"
    rc = main(["synth", "--out", str(seq), "--frames", "40", "--size",
               "32x32", "--rank", "2", "--blobs", "2", "--seed", "5"])
    assert rc == 0
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        rc = main([
            "run", "--input", str(seq), "--out", str(out), "--seed", "9",
            "--gt", str(seq / "gt.csv"), "--seg", "fixed:0.1",
        ])
        assert rc == 0
        outs.append(out)

    def masked_metrics(path):
        lines = (path / "metrics.csv").read_text().splitlines()
        return [",".join(ln.split(",")[:-1]) for ln in lines]

    metrics_ok = masked_metrics(outs[0]) == masked_metrics(outs[1])
    ckpt_ok = (outs[0] / "model.ckpt").read_bytes() == \
              (outs[1] / "model.ckpt").read_bytes()
    ok = metrics_ok and ckpt_ok
    report(9, "seeded runs are byte-identical", ok,
           f"metrics match={metrics_ok}, checkpoint match={ckpt_ok}")
    assert metrics_ok, "metrics CSVs differ beyond the timing column"
    assert ckpt_ok, "checkpoints differ"


def test_criterion_10_default_parameter_fidelity():
    hp = default_hyperparams(160000)
    ok = (hp.lambda1 == 0.0025 and hp.lambda2 == 0.025)
    report(10, "default weights at 400x400 resolution", ok,
           f"lambda1={hp.lambda1!r}, lambda2={hp.lambda2!r}")
    assert hp.lambda1 == 0.0025
    assert hp.lambda2 == 0.025
