import dataclasses
import logging
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modet.cli
import modet.separation
from modet.cli import _frame_list, build_parser, main
from modet.detection import (
    Box,
    connected_components,
    match_detections,
    metrics_window,
    read_boxes_csv,
    write_boxes_csv,
)
from modet.io import write_frame_pgm
from modet.model import HyperParams, default_hyperparams


def read_rows(path):
    lines = [
        ln for ln in path.read_text().splitlines() if not ln.startswith("#")
    ]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


@pytest.fixture(scope="module")
def small_sequence(tmp_path_factory):
    out = tmp_path_factory.mktemp("seq") / "data"
    rc = main([
        "synth", "--out", str(out), "--frames", "30", "--size", "16x16",
        "--rank", "1", "--blobs", "1", "--noise", "0.005", "--seed", "3",
    ])
    assert rc == 0
    return out


def test_synth_writes_frames_manifest_and_gt(small_sequence):
    pgms = sorted(small_sequence.glob("*.pgm"))
    assert len(pgms) == 30
    assert pgms[0].name == "frame_000000.pgm"
    assert (small_sequence / "manifest.txt").is_file()
    assert (small_sequence / "gt.csv").is_file()


def test_synth_no_blobs_header_only_gt(tmp_path):
    rc = main([
        "synth", "--out", str(tmp_path / "s"), "--frames", "3",
        "--size", "8x8", "--rank", "1", "--blobs", "0", "--noise", "0",
    ])
    assert rc == 0
    assert (tmp_path / "s" / "gt.csv").read_text() == "frame_index,x,y,w,h\n"


def test_synth_identical_seeds_identical_bytes(tmp_path):
    for name in ("a", "b"):
        rc = main([
            "synth", "--out", str(tmp_path / name), "--frames", "4",
            "--size", "8x8", "--rank", "2", "--blobs", "2", "--seed", "11",
        ])
        assert rc == 0
    a, b = tmp_path / "a", tmp_path / "b"
    files = sorted(f.name for f in a.iterdir())
    assert files == sorted(f.name for f in b.iterdir())
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_bad_size_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", str(tmp_path / "x"), "--size", "64by64"])
    assert exc.value.code == 2


def test_run_on_synthetic_sequence(small_sequence, tmp_path, caplog):
    out = tmp_path / "out"
    rc = main([
        "run", "--input", str(small_sequence), "--out", str(out),
        "--rank", "5", "--seed", "1",
        "--gt", str(small_sequence / "gt.csv"), "--seg", "fixed:0.1",
    ])
    assert rc == 0
    header, rows = read_rows(out / "metrics.csv")
    assert len(rows) == 30
    assert header[0] == "frame_index"
    # solver counters come before wall_ms, which stays last
    assert header[-4:] == ["prox_sweeps", "prox_capped", "prox_rejected",
                           "wall_ms"]
    assert all(int(row[-4]) > 0 and int(row[-3]) >= 0 and int(row[-2]) >= 0
               for row in rows)
    # each warning appears exactly when its column counts one
    assert ("sweep cap" in caplog.text) == any(int(row[-3]) for row in rows)
    assert ("not taken" in caplog.text) == any(int(row[-2]) for row in rows)
    assert (out / "model.ckpt").is_file()
    assert (out / "detections.csv").is_file()
    # detection columns populated when gt was given
    idx = header.index("f1_acc")
    assert rows[-1][idx] != ""


def test_run_warns_once_about_capped_prox_calls(small_sequence, tmp_path,
                                                monkeypatch, caplog):
    # two sweeps per prox call: frames with a foreground hit the cap, and a
    # capped call's step that would raise the cost is not taken
    monkeypatch.setattr(modet.separation, "MAX_PROX_ITERS", 2)
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING, logger="modet.cli"):
        rc = main(["run", "--input", str(small_sequence), "--out", str(out),
                   "--rank", "4", "--downsample", "3"])
    assert rc == 0
    header, rows = read_rows(out / "metrics.csv")
    counts = []
    for name in ("prox_capped", "prox_rejected"):
        col = header.index(name)
        counts.append({int(row[0]): int(row[col]) for row in rows
                       if int(row[col])})
    capped, rejected = counts
    assert capped and rejected
    warnings = [r.getMessage() for r in caplog.records
                if r.name == "modet.cli" and r.levelno == logging.WARNING]
    assert warnings == [
        f"{sum(capped.values())} prox calls stopped at the 2-sweep cap, in "
        f"{len(capped)} frames: " + " ".join(map(str, capped)),
        f"{sum(rejected.values())} prox steps were not taken because they "
        f"raised the frame cost, in {len(rejected)} frames: "
        + " ".join(map(str, rejected))]


def test_frame_list_names_the_first_twenty():
    assert _frame_list([3, 7]) == "3 7"
    assert _frame_list(list(range(25))) == (
        " ".join(map(str, range(20))) + " and 5 more")


def test_run_echoes_default_lambda1(small_sequence, tmp_path):
    out = tmp_path / "out"
    rc = main([
        "run", "--input", str(small_sequence), "--out", str(out),
        "--rank", "4", "--downsample", "10",
    ])
    assert rc == 0
    text = (out / "metrics.csv").read_text()
    # 16x16 frames: effective lambda1 = 1/16
    assert "lambda1=0.0625" in text
    _, rows = read_rows(out / "metrics.csv")
    assert len(rows) == 3  # frames 0, 10, 20


def test_run_default_weights_are_default_hyperparams(small_sequence,
                                                     tmp_path):
    # the weights acceptance gate 10 checks are the ones a run uses
    want = default_hyperparams(16 * 16)
    runs = {(): (want.lambda1, want.lambda2), ("--lambda1", "0.2"): (0.2, 2.0)}
    for i, (flags, (lambda1, lambda2)) in enumerate(runs.items()):
        out = tmp_path / f"out{i}"
        assert main(["run", "--input", str(small_sequence), "--out", str(out),
                     "--rank", "4", "--downsample", "15", *flags]) == 0
        assert (f"# lambda1={lambda1!r} lambda2={lambda2!r} "
                in (out / "metrics.csv").read_text())


def test_run_on_frames_below_the_window_writes_nothing(tmp_path, capsys):
    seq = tmp_path / "tiny"
    assert main(["synth", "--out", str(seq), "--frames", "3", "--size", "2x2",
                 "--rank", "1", "--blobs", "0"]) == 0
    out = tmp_path / "out"
    rc = main(["run", "--input", str(seq), "--out", str(out), "--rank", "1"])
    assert rc == 1
    assert ("error: the 2x2 frames are smaller than the 3x3 window"
            in capsys.readouterr().err)
    assert not out.exists()


def test_diagnostics_write_the_surrogate_cost(small_sequence, tmp_path):
    for flags in (["--diagnostics"], []):
        out = tmp_path / f"out{len(flags)}"
        rc = main(["run", "--input", str(small_sequence), "--out", str(out),
                   "--rank", "4", "--downsample", "10", *flags])
        assert rc == 0
        header, rows = read_rows(out / "metrics.csv")
        assert header[header.index("basis_delta") + 1] == "g_cost"
        col = header.index("g_cost")
        assert len(rows) == 3
        if flags:
            assert all(np.isfinite(float(row[col])) for row in rows)
        else:
            assert all(row[col] == "" for row in rows)


def test_run_never_imports_scipy(small_sequence, tmp_path):
    # a fresh interpreter: this one may have scipy loaded by other tests
    src = str(Path(modet.cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["run", "--input", str(small_sequence), "--out",
            str(tmp_path / "out"), "--rank", "4", "--downsample", "10",
            "--gt", str(small_sequence / "gt.csv"), "--seg", "fixed:0.1",
            "--diagnostics", "--dump-frames"]
    script = (
        "import sys\n"
        "from modet.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "out" / "model.ckpt").is_file()


def test_run_streams_what_whole_history_scoring_gives(small_sequence,
                                                     tmp_path, monkeypatch):
    # every frame's boxes, as the run found them
    found = []
    monkeypatch.setattr(modet.cli, "connected_components", lambda *a, **kw:
                        found.append(connected_components(*a, **kw))
                        or found[-1])
    out = tmp_path / "out"
    rc = main(["run", "--input", str(small_sequence), "--out", str(out),
               "--rank", "4", "--downsample", "2", "--seg", "fixed:0.1",
               "--gt", str(small_sequence / "gt.csv")])
    assert rc == 0
    header, rows = read_rows(out / "metrics.csv")
    indices = [int(row[0]) for row in rows]
    assert len(rows) == len(found) == 15
    write_boxes_csv(tmp_path / "expect.csv", dict(zip(indices, found)))
    assert ((out / "detections.csv").read_bytes()
            == (tmp_path / "expect.csv").read_bytes())
    gt = read_boxes_csv(small_sequence / "gt.csv")
    cols = [header.index(c) for c in ("recall5", "precision5", "f1_5",
                                      "recall_acc", "precision_acc", "f1_acc")]
    history = []
    for row, i, boxes in zip(rows, indices, found):
        history.append(match_detections(boxes, gt.get(i, []), thresh=0.3))
        want = (metrics_window(history, mode="last_k", k=5)
                + metrics_window(history, mode="accumulated"))
        assert [row[c] for c in cols] == [repr(v) for v in want]
    assert any(float(row[cols[-1]]) > 0 for row in rows)


def test_failed_run_keeps_the_finished_frames_detections(small_sequence,
                                                         tmp_path,
                                                         monkeypatch):
    found = []

    def fail_on_frame_3(*a, **kw):
        if len(found) == 3:
            raise ValueError("frame 3 fails")
        found.append(connected_components(*a, **kw))
        return found[-1]

    monkeypatch.setattr(modet.cli, "connected_components", fail_on_frame_3)
    out = tmp_path / "out"
    rc = main(["run", "--input", str(small_sequence), "--out", str(out),
               "--rank", "4", "--seg", "fixed:0.1"])
    assert rc == 1
    write_boxes_csv(tmp_path / "expect.csv", dict(enumerate(found)))
    assert ((out / "detections.csv").read_bytes()
            == (tmp_path / "expect.csv").read_bytes())


def test_run_reads_and_echoes_non_ascii_paths(small_sequence, tmp_path):
    seq = tmp_path / "seq\u00e9"
    seq.mkdir()
    names = [f"\u00e9{i}.pgm" for i in range(3)]
    for name, src in zip(names, sorted(small_sequence.glob("*.pgm"))):
        shutil.copy(src, seq / name)
    (seq / "manifest.txt").write_text("".join(n + "\n" for n in names),
                                      encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["run", "--input", str(seq), "--out", str(out), "--rank", "2"])
    assert rc == 0
    text = (out / "metrics.csv").read_text(encoding="utf-8")
    assert text.startswith(f"# input={seq}\n")
    assert len(text.splitlines()) == 5 + 1 + 3  # comments, header, frames


@pytest.mark.parametrize("flag", [["--seg", "quantile:1.5"],
                                  ["--seg", "quantile:0"],
                                  ["--downsample", "0"],
                                  ["--seg", "fixed:nan"],
                                  ["--seg", "fixed:inf"],
                                  ["--iou-thresh", "5"],
                                  ["--iou-thresh", "0"],
                                  ["--rank", "0"],
                                  ["--rank", "257"],
                                  ["--lambda1", "-1"],
                                  ["--lambda2", "0"],
                                  ["--lambda2", "inf"],
                                  ["--tau", "-1"],
                                  ["--tau", "nan"],
                                  ["--seg", "fixed:0"],
                                  ["--seg", "fixed:-1"]])
def test_run_bad_value_is_usage_error(small_sequence, tmp_path, flag):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--input", str(small_sequence), "--out", str(out),
              "--gt", str(small_sequence / "gt.csv"), *flag])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [["synth", "--frames", "0"],
                                  ["synth", "--rank", "0"],
                                  ["synth", "--blobs", "-1"],
                                  ["synth", "--noise", "-1"],
                                  ["synth", "--noise", "nan"],
                                  ["synth", "--noise", "inf"],
                                  ["run", "--min-area", "0"],
                                  ["run", "--min-area", "-3"]])
def test_bad_count_or_noise_is_usage_error(tmp_path, argv):
    # a run that parsed would fail later, on its missing input, with exit 1
    out = tmp_path / "out"
    if argv[0] == "run":
        argv = [*argv, "--input", str(tmp_path / "missing")]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("value", ["1.5", "0", "nan"])
def test_eval_bad_iou_thresh_is_usage_error(tmp_path, value):
    path = tmp_path / "boxes.csv"
    write_boxes_csv(path, {0: [Box(0, 0, 4, 4)]})
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--dets", str(path), "--gt", str(path),
              "--iou-thresh", value])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["0", "-3", "x"])
def test_eval_bad_window_is_usage_error(tmp_path, value):
    path = tmp_path / "boxes.csv"
    write_boxes_csv(path, {0: [Box(0, 0, 4, 4)]})
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--dets", str(path), "--gt", str(path),
              "--window", value])
    assert exc.value.code == 2


def test_every_hyperparam_has_a_run_flag():
    # a config field comes with the `modet run` flag that sets it
    names = [f.name for f in dataclasses.fields(HyperParams)]
    assert names == ["lambda1", "lambda2", "rank", "tau"]
    for name in names:
        args = build_parser().parse_args(
            ["run", "--input", "in", "--out", "out", f"--{name}", "3"])
        assert getattr(args, name) == 3


def test_run_warns_once_about_exhausted_separations(small_sequence, tmp_path,
                                                    monkeypatch, caplog):
    # one iteration per frame: frames with a foreground stop above tau
    monkeypatch.setattr(modet.separation, "MAX_SEP_ITERS", 1)
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING, logger="modet.cli"):
        rc = main(["run", "--input", str(small_sequence), "--out", str(out),
                   "--rank", "4", "--downsample", "3"])
    assert rc == 0
    header, rows = read_rows(out / "metrics.csv")
    col = header.index("final_delta")
    exhausted = [row[0] for row in rows if float(row[col]) > 1e-5]
    assert exhausted
    warnings = [r.getMessage() for r in caplog.records
                if r.name == "modet.cli" and "separation" in r.getMessage()]
    assert warnings == [
        f"{len(exhausted)} frames stopped at the 1-iteration separation cap "
        "with their change above tau: " + " ".join(exhausted)]


def test_run_dump_frames(small_sequence, tmp_path):
    out = tmp_path / "out"
    rc = main([
        "run", "--input", str(small_sequence), "--out", str(out),
        "--rank", "4", "--downsample", "15", "--dump-frames",
    ])
    assert rc == 0
    assert (out / "bg_000000.pgm").is_file()
    assert (out / "fg_000015.pgm").is_file()


def twelve_frames(small_sequence, tmp_path):
    seq = tmp_path / "seq"
    seq.mkdir()
    for src in sorted(small_sequence.glob("*.pgm"))[:12]:
        shutil.copy(src, seq / src.name)
    return seq


def test_run_names_a_frame_it_cannot_decode(small_sequence, tmp_path, capsys):
    seq = twelve_frames(small_sequence, tmp_path)
    bad = seq / "frame_000005.pgm"
    bad.write_bytes(bad.read_bytes()[:20])
    rc = main(["run", "--input", str(seq), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert (f"error: {bad}: byte 20: truncated P5 payload (7 of 256 bytes)"
            in capsys.readouterr().err)


def test_run_rejects_a_frame_of_another_size(small_sequence, tmp_path,
                                             capsys):
    seq = twelve_frames(small_sequence, tmp_path)
    (seq / "frame_000007.pgm").write_bytes(
        write_frame_pgm(np.zeros(144), 12, 12))
    rc = main(["run", "--input", str(seq), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert ("error: frame 7 is 12x12, but the first frame is 16x16"
            in capsys.readouterr().err)


def test_checkpoint_in_a_missing_directory_fails_first(small_sequence,
                                                      tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--input", str(small_sequence), "--out", str(out),
               "--checkpoint", str(tmp_path / "nodir" / "m.ckpt")])
    assert rc == 1
    assert (f"error: no directory {tmp_path / 'nodir'} for the checkpoint"
            in capsys.readouterr().err)
    assert not out.exists()
    # a checkpoint inside OUT needs no directory made beforehand
    rc = main(["run", "--input", str(twelve_frames(small_sequence, tmp_path)),
               "--out", str(out), "--checkpoint", str(out / "m.ckpt")])
    assert rc == 0 and (out / "m.ckpt").is_file()


@pytest.mark.parametrize("argv", [["run", "--seed", "-1"],
                                  ["synth", "--seed", "-3"]])
def test_negative_seed_is_usage_error(small_sequence, tmp_path, argv):
    # numpy used to reject it only after run had written OUT/
    out = tmp_path / "out"
    if argv[0] == "run":
        argv = [*argv, "--input", str(small_sequence)]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_run_reports_frame_0_apart(small_sequence, tmp_path, capsys):
    seq = tmp_path / "seq"
    seq.mkdir()
    for src in sorted(small_sequence.glob("*.pgm"))[:6]:
        shutil.copy(src, seq / src.name)
    out = tmp_path / "out"
    assert main(["run", "--input", str(seq), "--out", str(out)]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    match = re.fullmatch(r"processed 6 frames \(frame 0: (\S+) ms, then "
                         r"(\S+) ms/frame\), metrics in .*", line)
    assert match, line
    _, rows = read_rows(out / "metrics.csv")
    wall_ms = [float(row[-1]) for row in rows]
    first, later = map(float, match.groups())
    assert abs(first - wall_ms[0]) <= 0.051
    assert abs(later - np.mean(wall_ms[1:])) <= 0.051


def test_run_missing_input_is_runtime_error(tmp_path, capsys):
    rc = main(["run", "--input", str(tmp_path / "nope"), "--out",
               str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_eval_identical_files(tmp_path, capsys):
    path = tmp_path / "boxes.csv"
    write_boxes_csv(path, {0: [Box(0, 0, 4, 4)], 1: [Box(2, 2, 3, 3)]})
    rc = main(["eval", "--dets", str(path), "--gt", str(path)])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert out.split(",")[:3] == ["1.0", "1.0", "1.0"]


def test_eval_empty_dets(tmp_path, capsys):
    dets = tmp_path / "dets.csv"
    gt = tmp_path / "gt.csv"
    write_boxes_csv(dets, {})
    write_boxes_csv(gt, {0: [Box(0, 0, 4, 4)]})
    rc = main(["eval", "--dets", str(dets), "--gt", str(gt)])
    assert rc == 0
    vals = [float(v) for v in capsys.readouterr().out.strip().split(",")]
    assert vals == [0.0] * 6


def test_eval_three_tp_one_fn_one_fp(tmp_path, capsys):
    gt_boxes = [Box(0, 0, 4, 4), Box(10, 0, 4, 4), Box(0, 10, 4, 4),
                Box(10, 10, 4, 4)]
    det_boxes = gt_boxes[:3] + [Box(30, 30, 4, 4)]
    dets = tmp_path / "dets.csv"
    gt = tmp_path / "gt.csv"
    write_boxes_csv(dets, {0: det_boxes})
    write_boxes_csv(gt, {0: gt_boxes})
    rc = main(["eval", "--dets", str(dets), "--gt", str(gt)])
    assert rc == 0
    vals = [float(v) for v in capsys.readouterr().out.strip().split(",")]
    assert vals[:3] == [0.75, 0.75, 0.75]


def test_eval_scores_the_frames_present_as_the_dense_history(tmp_path,
                                                              capsys):
    rng = np.random.default_rng(4)

    def boxes():
        return {int(i): [Box(*rng.integers(0, 6, 2), *rng.integers(1, 5, 2))
                         for _ in range(rng.integers(1, 4))]
                for i in rng.choice(40, 12, replace=False)}

    dets, gt = boxes(), boxes()
    write_boxes_csv(tmp_path / "dets.csv", dets)
    write_boxes_csv(tmp_path / "gt.csv", gt)
    for window in (1, 5, 100):
        rc = main(["eval", "--dets", str(tmp_path / "dets.csv"), "--gt",
                   str(tmp_path / "gt.csv"), "--window", str(window)])
        assert rc == 0
        # every frame index up to the largest, as the evaluation once did
        history = [match_detections(dets.get(i, []), gt.get(i, []),
                                    thresh=0.3)
                   for i in range(max(*dets, *gt) + 1)]
        want = (metrics_window(history)
                + metrics_window(history, mode="last_k", k=window))
        assert capsys.readouterr().out == ",".join(map(repr, want)) + "\n"


def test_eval_of_a_far_frame_index_scores_two_frames(tmp_path, capsys,
                                                    monkeypatch):
    # a dense history up to frame 10**9 would take some 170 GB
    calls = []

    def counted(*a, **kw):
        calls.append(a)
        assert len(calls) <= 2, "a frame in neither file was scored"
        return match_detections(*a, **kw)

    monkeypatch.setattr(modet.cli, "match_detections", counted)
    write_boxes_csv(tmp_path / "dets.csv", {10**9: [Box(0, 0, 4, 4)]})
    write_boxes_csv(tmp_path / "gt.csv", {0: [Box(0, 0, 4, 4)]})
    rc = main(["eval", "--dets", str(tmp_path / "dets.csv"), "--gt",
               str(tmp_path / "gt.csv")])
    assert rc == 0
    assert capsys.readouterr().out == "0.0,0.0,0.0,0.0,0.0,0.0\n"


def test_eval_malformed_csv_status_one(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("frame_index,x,y,w,h\n0,1,2\n")
    gt = tmp_path / "gt.csv"
    write_boxes_csv(gt, {})
    rc = main(["eval", "--dets", str(bad), "--gt", str(gt)])
    assert rc == 1
    assert "line 2" in capsys.readouterr().err


def test_usage_error_without_command():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
