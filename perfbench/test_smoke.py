"""Smoke self-test of the benchmark: python3 -m pytest perfbench

Runs every workload with both --trace settings at the smallest settings
(--smoke: batch 4, one set-up) and checks the result contract against
BENCHMARK.json, plus the correctness gate itself.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402  (every workload, declared in BENCHMARK.json or not)


def run_bench(cwd, workload, trace, smoke=True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_reported_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert "vs stored in float64, worst rel error" in proc.stdout  # the gate ran
    if trace:
        assert "counts identical" in proc.stdout


def test_gate_catches_a_gradient_mismatch(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    import bench
    from revtrain import ops, train, zoo
    from revtrain.model import ReversibleBlock

    config = train.TrainConfig(arch=zoo.get_spec("small-hybrid"), mode="block", batch_size=2)
    x = ops.gaussian((2, 3, 8, 8), seed=1)
    labels = np.array([0, 1])
    worst, n = bench.gradient_gate(config, x, labels)
    assert n > 0 and worst <= bench.GATE_TOL

    original = ReversibleBlock.backward_blockrev

    def skewed(self, *args, **kwargs):
        x_in, grad_in, grads = original(self, *args, **kwargs)
        return x_in, grad_in, {k: v * 1.01 for k, v in grads.items()}

    monkeypatch.setattr(ReversibleBlock, "backward_blockrev", skewed)
    worst, _ = bench.gradient_gate(config, x, labels)
    assert worst > bench.GATE_TOL


def test_tail_has_ten_steps_beyond_it():
    import bench

    value, pct, n = bench.tail([float(i) for i in range(14, 0, -1)])
    assert (value, n) == (4.0, 14)
    assert pct == pytest.approx(100 * 4 / 14)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, BENCH["workloads"][0]["name"], 0, smoke=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
