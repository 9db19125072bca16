"""Span tracing of revtrain's public entry points, installed from outside.

`Tracer.installed()` replaces the public functions of the traced modules, the
per-kind layer methods and the model's forward/backward entry points with
wrappers that append one span per call to an in-memory list:
``[name, start, end, parent, step, work]``. ``parent`` is the index of the
enclosing span (-1 at top level), ``step`` the timed training step the call
belongs to (None outside timed steps), and ``work`` a shape-derived figure
for calls that have one (conv FLOPs and im2col bytes, bytes registered with
memtrack). Functions imported by name into another module (``memtrack.track``
inside ``ops`` and ``layers``) are patched there too. Leaving the context
restores every original, so untraced phases run the package unmodified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("ops", "memtrack", "layers", "model", "train", "data", "zoo", "memory_model", "snr")
LAYER_KINDS = ("conv", "bn", "lrelu", "invconv", "pool_c", "pool_b", "maxpool", "head")
LAYER_METHODS = ("forward", "forward_cached", "inverse", "backward")
COUPLING_OPS = ("split_channels", "concat_channels", "add", "sub")
POOL_OPS = ("pool_channels", "unpool_channels", "pool_batch", "unpool_batch")
CONV_OPS = ("conv2d_forward", "conv2d_backward_input", "conv2d_backward_weight")
BLOCK_BACKWARDS = ("backward_stored", "backward_blockrev", "backward_hybrid")


# Shape-derived work of the im2col convolutions: (flops, workspace bytes). The
# workspace is the column matrix each call materialises (see ops._im2col).

def _conv_forward_work(x, kernel, bias=None, stride=1, padding=0):
    bs, cin, h, w = x.shape
    cout, _, kh, kw = kernel.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    cols = bs * oh * ow * cin * kh * kw
    return 2 * cols * cout, cols * x.itemsize


def _conv_backward_input_work(grad_out, kernel, stride=1, padding=0, input_hw=None):
    bs, cout, oh, ow = grad_out.shape
    _, cin, kh, kw = kernel.shape
    gh = (oh - 1) * stride + kh
    gw = (ow - 1) * stride + kw
    cols = bs * gh * gw * cout * kh * kw
    return 2 * cols * cin, cols * grad_out.itemsize


def _conv_backward_weight_work(x, grad_out, stride=1, padding=0, kernel_hw=None):
    bs, cin, h, w = x.shape
    _, cout, oh, ow = grad_out.shape
    if kernel_hw is None:
        kernel_hw = (h + 2 * padding - (oh - 1) * stride, w + 2 * padding - (ow - 1) * stride)
    cols = bs * oh * ow * cin * kernel_hw[0] * kernel_hw[1]
    return 2 * cols * cout, cols * x.itemsize


def _track_work(arr):
    return arr.nbytes


WORK = {
    "ops.conv2d_forward": _conv_forward_work,
    "ops.conv2d_backward_input": _conv_backward_input_work,
    "ops.conv2d_backward_weight": _conv_backward_weight_work,
    "memtrack.track": _track_work,
}


def _layer_classes():
    layers = importlib.import_module("revtrain.layers")
    found = {cls.kind: cls for cls in vars(layers).values()
             if inspect.isclass(cls) and getattr(cls, "kind", None) in LAYER_KINDS}
    return {kind: found[kind] for kind in LAYER_KINDS}


def _methods(cls):
    return [meth for meth in LAYER_METHODS if meth in vars(cls)]


def _targets():
    """(owner, attribute, span name) for every entry point to wrap."""
    out = []
    for short in MODULES:
        mod = importlib.import_module(f"revtrain.{short}")
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                out.append((mod, name, f"{short}.{name}"))
    for kind, cls in _layer_classes().items():
        for meth in _methods(cls):
            out.append((cls, meth, f"layers.{kind}.{meth}"))
    model = importlib.import_module("revtrain.model")
    out.append((model.SequentialModel, "forward", "model.forward"))
    out.append((model.SequentialModel, "backward", "model.backward"))
    for meth in BLOCK_BACKWARDS:
        out.append((model.ReversibleBlock, meth, f"model.block_backward.{meth}"))
    for meth in ("apply", "apply_record", "backward_from_record", "walk_backward"):
        out.append((model.Module, meth, f"model.module.{meth}"))
    data = importlib.import_module("revtrain.data")
    out.append((data.DatasetSource, "normalize", "data.normalize"))
    return out


class Tracer:
    """In-memory span recorder; see the module docstring for the span layout."""

    def __init__(self):
        self.spans = []
        self.step = None
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.step,
                   work(*args, **kwargs) if work else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        patches = []
        wrapped = {}
        try:
            for owner, attr, name in _targets():
                original = vars(owner)[attr]
                wrapped[id(original)] = (original, self._wrap(name, original))
                patches.append((owner, attr, original))
                setattr(owner, attr, wrapped[id(original)][1])
            # by-name imports of a wrapped function (memtrack.track in ops/layers)
            for modname, mod in list(sys.modules.items()):
                if not modname.startswith("revtrain.") or mod is None:
                    continue
                for attr, obj in list(vars(mod).items()):
                    hit = wrapped.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        patches.append((mod, attr, obj))
                        setattr(mod, attr, hit[1])
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(spans, steps):
    """Per-layer metrics from spans: per timed step for step work, per call
    for set-up and evaluation entry points (load, build, evaluate, simulate)."""
    calls = defaultdict(int)
    secs = defaultdict(float)
    work = defaultdict(float)
    per_call = defaultdict(list)
    child_ops = defaultdict(float)
    largest_ws = 0
    for name, start, end, parent, _, _ in spans:
        if parent >= 0 and name.startswith("ops."):
            child_ops[parent] += end - start
    kind_self = defaultdict(float)
    for idx, (name, start, end, parent, step, w) in enumerate(spans):
        dur = end - start
        if step is None:
            per_call[name].append(dur)
            continue
        calls[name] += 1
        secs[name] += dur
        if name in WORK:
            if name == "memtrack.track":
                work[name] += w
            else:
                work[name] += w[0]
                largest_ws = max(largest_ws, w[1])
        if name.startswith("layers."):
            kind_self[name.split(".")[1]] += dur - child_ops[idx]

    def mean_call(name):
        vals = per_call.get(name, [])
        return sum(vals) / len(vals) if vals else 0.0

    m = {}
    conv_s = 0.0
    conv_flop = 0.0
    for op in CONV_OPS:
        name = f"ops.{op}"
        m[f"{name}.calls"] = (calls[name] / steps, "count")
        m[f"{name}.s"] = (secs[name] / steps, "s")
        conv_s += secs[name]
        conv_flop += work[name]
    m["ops.conv.gflop"] = (conv_flop / steps / 1e9, "GFLOP")
    m["ops.conv.gflop_per_s"] = (conv_flop / conv_s / 1e9 if conv_s else 0.0, "GFLOP/s")
    m["ops.conv.im2col_mb"] = (largest_ws / 1e6, "MB")
    coupling = [f"ops.{op}" for op in COUPLING_OPS]
    m["ops.coupling.calls"] = (sum(calls[n] for n in coupling) / steps, "count")
    m["ops.coupling.s"] = (sum(secs[n] for n in coupling) / steps, "s")
    m["ops.pool.s"] = (sum(secs[f"ops.{op}"] for op in POOL_OPS) / steps, "s")
    m["ops.channel_mean_var.s"] = (secs["ops.channel_mean_var"] / steps, "s")
    m["memtrack.track.calls"] = (calls["memtrack.track"] / steps, "count")
    m["memtrack.track.s"] = (secs["memtrack.track"] / steps, "s")
    m["memtrack.tracked_mb"] = (work["memtrack.track"] / steps / 1e6, "MB")
    for kind, cls in _layer_classes().items():
        for meth in _methods(cls):
            name = f"layers.{kind}.{meth}"
            m[f"{name}.calls"] = (calls[name] / steps, "count")
            m[f"{name}.s"] = (secs[name] / steps, "s")
        m[f"layers.{kind}.self_s"] = (kind_self[kind] / steps, "s")
    fwd, bwd = secs["model.forward"] / steps, secs["model.backward"] / steps
    m["model.forward.s"] = (fwd, "s")
    m["model.backward.s"] = (bwd, "s")
    m["model.block_backward.s"] = (
        sum(secs[f"model.block_backward.{b}"] for b in BLOCK_BACKWARDS) / steps, "s")
    m["model.bwd_fwd_x"] = (bwd / fwd if fwd else 0.0, "ratio")
    for name in ("train.softmax_cross_entropy", "train.sgd_step", "data.augment", "data.normalize"):
        m[f"{name}.s"] = (secs[name] / steps, "s")
    for name in ("train.evaluate", "data.load_cifar10", "zoo.build_model",
                 "memory_model.simulate_schedule"):
        m[f"{name}.s"] = (mean_call(name), "s")
    return m

