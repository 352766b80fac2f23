"""Tests of the benchmark itself; run with ``python -m pytest benchmarks``.

The smoke tests run every workload for a few frames through the one command,
untraced and traced, and require every declared metric with its unit and
every output check to pass.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import modet.pipeline  # noqa: E402
from modet.subspace import load_checkpoint  # noqa: E402
from harness import WORKLOADS, check_checkpoint, prepare_inputs, run_pass  # noqa: E402
from tracing import TARGETS, Tracer, check_nesting  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_command(cwd, *args):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = run_command(ROOT, "--workload", workload, "--seed", "3",
                       "--seconds", "1", "--trace", str(trace),
                       "--frames", "4")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 4
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    printed = {tuple(line.split()[::2]) for line in lines[:-1]
               if len(line.split()) == 3}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        assert (m["name"], m["unit"]) in printed


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_command(tmp_path, "--workload", "synth64", "--seconds", "1",
                       "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tampered_checkpoint_is_caught(tmp_path):
    seq = prepare_inputs(WORKLOADS["synth64"], 1, 2, tmp_path)
    assert run_pass(seq, {}, tmp_path, None).problems == []
    ckpt = tmp_path / "model.ckpt"
    model, height, width, lam1, lam2 = load_checkpoint(ckpt)
    summary = SimpleNamespace(
        model=model, height=height, width=width,
        params=SimpleNamespace(lambda1=lam1, lambda2=lam2))
    assert check_checkpoint(ckpt, summary) == []
    data = bytearray(ckpt.read_bytes())
    data[-1] ^= 1
    ckpt.write_bytes(bytes(data))
    assert check_checkpoint(ckpt, summary) != []


def test_traced_pass_nests_and_changes_nothing(tmp_path):
    seq = prepare_inputs(WORKLOADS["synth64"], 1, 3, tmp_path)
    plain = run_pass(seq, {}, tmp_path, None)
    tracer = Tracer()
    with tracer.installed():
        traced = run_pass(seq, {}, tmp_path, tracer)
    assert traced.objectives == plain.objectives
    assert check_nesting(traced.spans) == []
    names = {span[0] for span in traced.spans}
    assert {name for _, _, name, _ in TARGETS} <= names


def test_tracer_restores_the_library():
    before = [getattr(mod, attr) for mod, attr, _, _ in TARGETS]
    with Tracer().installed():
        assert modet.pipeline.separate is not before[3]
    assert [getattr(mod, attr) for mod, attr, _, _ in TARGETS] == before
