"""The benchmark's span tracer patches revtrain entry points by name.

perfbench/tracer.py looks each one up with vars(owner)[attr], so renaming,
removing or moving an entry point to a base class breaks the benchmark;
these tests make that a test failure here too.
"""

import importlib.util
import inspect
import json
from pathlib import Path

import pytest

from revtrain import ops

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


@pytest.mark.parametrize("op", ["conv2d_forward", "conv2d_backward_input", "conv2d_backward_weight"])
def test_conv_padding_is_keyword_only(op):
    # the tracer derives each conv call's FLOPs and workspace from padding read
    # by name; a positional padding would land in another parameter there
    assert op in load_tracer().CONV_OPS
    param = inspect.signature(getattr(ops, op)).parameters["padding"]
    assert param.kind is inspect.Parameter.KEYWORD_ONLY
