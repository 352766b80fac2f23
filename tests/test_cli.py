import functools
import logging

import numpy as np
import pytest

import modet.cli
from modet.cli import _frame_list, main
from modet.detection import Box, write_boxes_csv
from modet.model import HyperParams


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
    assert header[-3:] == ["prox_sweeps", "prox_capped", "wall_ms"]
    assert all(int(row[-3]) > 0 and int(row[-2]) >= 0 for row in rows)
    # the capped-call warning appears exactly when the column counts one
    assert ("sweep cap" in caplog.text) == any(int(row[-2]) for row in rows)
    assert (out / "model.ckpt").is_file()
    assert (out / "detections.csv").is_file()
    # detection columns populated when gt was given
    idx = header.index("f1_acc")
    assert rows[-1][idx] != ""


def test_run_warns_once_about_capped_prox_calls(small_sequence, tmp_path,
                                                monkeypatch, caplog):
    # two sweeps per prox call: frames with a foreground hit the cap
    monkeypatch.setattr(modet.cli, "HyperParams",
                        functools.partial(HyperParams, max_prox_iters=2))
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING, logger="modet.cli"):
        rc = main(["run", "--input", str(small_sequence), "--out", str(out),
                   "--rank", "4", "--downsample", "3"])
    assert rc == 0
    header, rows = read_rows(out / "metrics.csv")
    col = header.index("prox_capped")
    capped = {int(row[0]): int(row[col]) for row in rows if int(row[col])}
    assert capped
    warnings = [r.getMessage() for r in caplog.records
                if r.name == "modet.cli" and r.levelno == logging.WARNING]
    assert warnings == [
        f"{sum(capped.values())} prox calls stopped at the 2-sweep cap, in "
        f"{len(capped)} frames: " + " ".join(map(str, capped))]


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


def test_run_dump_frames(small_sequence, tmp_path):
    out = tmp_path / "out"
    rc = main([
        "run", "--input", str(small_sequence), "--out", str(out),
        "--rank", "4", "--downsample", "15", "--dump-frames",
    ])
    assert rc == 0
    assert (out / "bg_000000.pgm").is_file()
    assert (out / "fg_000015.pgm").is_file()


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
