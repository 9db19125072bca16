"""The benchmark calls revtrain in-process, so its breakage is a failure here.

perfbench/tracer.py looks each entry point up with vars(owner)[attr], so
renaming, removing or moving one to a base class breaks the benchmark.
perfbench/bench.py calls forward, backward and `SavedState.activation_bytes`
directly; its measurement functions run here on a small spec.
"""

import importlib.util
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from revtrain import ops, train, zoo

ROOT = Path(__file__).resolve().parents[1]


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_entry_point_is_defined_on_its_owner():
    for owner, attr, name in load_tracer()._targets():
        assert attr in vars(owner), name


def test_every_declared_layer_metric_has_a_traced_method():
    names = {name for _, _, name in load_tracer()._targets()}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    for metric in declared:
        parts = metric["name"].split(".")
        if parts[0] == "layers" and parts[-1] == "calls":
            assert ".".join(parts[:-1]) in names, metric["name"]


@pytest.mark.parametrize("mode, shim, methods", [
    ("stored", "backward_stored", {"apply_record", "backward_from_record"}),
    ("block", "backward_blockrev", {"apply", "apply_record", "backward_from_record"}),
    ("hybrid", "backward_hybrid", {"apply", "walk_backward"}),
])
def test_each_mode_runs_through_its_traced_entry_points(mode, shim, methods):
    # a step that bypasses a traced shim or Module method still leaves it
    # defined, but the benchmark's per-layer metric for it would read 0
    spec = zoo.small_hybrid_spec()
    model = zoo.build_model(spec, seed=0)
    x = ops.gaussian((2, spec.input_channels, 8, 8), seed=1)
    tracer = load_tracer().Tracer()
    with tracer.installed():
        logits, saved = model.forward(x, mode)
        model.backward(saved, ops.gaussian(logits.shape, seed=2), x)
    names = {span[0] for span in tracer.spans}
    assert {n for n in names if n.startswith("model.block_backward.")} == {
        f"model.block_backward.{shim}"}
    assert {f"model.module.{m}" for m in methods} <= names


@pytest.mark.parametrize("op", ["conv2d_forward", "conv2d_backward_input", "conv2d_backward_weight"])
def test_conv_padding_is_keyword_only(op):
    # the tracer derives each conv call's FLOPs and workspace from padding read
    # by name; a positional padding would land in another parameter there
    assert op in load_tracer().CONV_OPS
    param = inspect.signature(getattr(ops, op)).parameters["padding"]
    assert param.kind is inspect.Parameter.KEYWORD_ONLY


@pytest.fixture(scope="module")
def bench():
    """perfbench/bench.py, which imports its sibling tracer module by name."""
    here = str(ROOT / "perfbench")
    sys.path.insert(0, here)
    try:
        spec = importlib.util.spec_from_file_location("perfbench_bench", ROOT / "perfbench" / "bench.py")
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
    finally:
        sys.path.remove(here)
    return bench


def test_bench_measurements_run_in_process(bench):
    # small-hybrid at 8x8, batch 2: every admitted mode's step, gate and SNR
    spec = zoo.small_hybrid_spec()
    x = ops.gaussian((2, spec.input_channels, 8, 8), seed=1)
    labels = np.array([3, 7])
    modes = bench.accepted_modes(spec)
    assert modes == ["stored", "block", "hybrid"]
    for mode in modes:
        config = train.TrainConfig(arch=spec, mode=mode, batch_size=2)
        row = bench.measure_step(config, mode, x, labels)
        assert row["saved_mb"] > 0 and row["tracked_mb"] > 0 and np.isfinite(row["loss"]), mode
        worst, n = bench.gradient_gate(config, x, labels)
        assert worst <= bench.GATE_TOL and n == len(zoo.build_model(spec).params()), mode
        snr = bench.recon_snr_db(config, x, labels)
        assert (snr == {}) == (mode == "stored") and all(map(math.isfinite, snr.values())), mode
        assert bench.sim_mb(spec, mode, 2) > 0
