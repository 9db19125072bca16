#!/usr/bin/env python3
"""Hashes of one training step on every zoo pair, to show that no bit moved.

For every zoo spec, every backprop mode its model admits, and f32 and f64,
builds `zoo.build_model(spec, seed=0)`, runs one forward and backward at
batch 2, 16x16, and prints one line: short hashes of the initial weights,
the logits, every gradient, the batch norms' cached and running statistics
after the step, and the memtrack event sequence (the live bytes after every
track and release, from the model's build to the end of the step, counted
above the bytes live before the build), then the event count and the
tracked peak in bytes. It takes no options; two trees are compared by
diffing its output:

    python3 scripts/bits_check.py > new.txt
    (cd ../parent && python3 scripts/bits_check.py) > old.txt
    diff old.txt new.txt
"""

import gc
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from revtrain import memory_model as mm  # noqa: E402
from revtrain import memtrack, ops, train, zoo  # noqa: E402
from revtrain.errors import ConfigError  # noqa: E402
from revtrain.model import BackpropMode  # noqa: E402

import numpy as np  # noqa: E402

BATCH, SIDE = 2, 16
DTYPES = (np.float32, np.float64)


def digest(named):
    """A short hash of (name, array) pairs: names, dtypes, shapes and bytes."""
    h = hashlib.blake2b(digest_size=8)
    for name, arr in named:
        arr = np.ascontiguousarray(arr)
        h.update(f"{name}:{arr.dtype}:{arr.shape};".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def bn_stats(model):
    for path, layer in model.named_layers():
        if layer.kind == "bn":
            mean, var = layer.cached_stats
            yield from ((f"{path}.{k}", a) for k, a in (
                ("mean", mean), ("var", var),
                ("running_mean", layer.running_mean), ("running_var", layer.running_var)))


def check(spec, mode, dtype):
    """One pair's line."""
    x = ops.gaussian((BATCH, spec.input_channels, SIDE, SIDE), seed=1, dtype=dtype)
    labels = ops.default_rng(2).integers(0, spec.head().c_out, BATCH)
    gc.collect()
    base = memtrack.live_bytes()
    with memtrack.recording() as events:
        model = zoo.build_model(spec, seed=0, dtype=dtype)
        weights = digest(model.params().items())
        logits, saved = model.forward(x, mode)
        _, grad_logits = train.softmax_cross_entropy(logits, labels)
        grads, _ = model.backward(saved, grad_logits, x)
        del saved, grad_logits
    events = np.array(events, dtype=np.int64) - base
    return (f"{spec.name} {mode.value} {np.dtype(dtype).name} weights={weights} "
            f"logits={digest([('logits', logits)])} grads={digest(sorted(grads.items()))} "
            f"bn={digest(bn_stats(model))} events={digest([('events', events)])} "
            f"n_events={len(events)} peak={int(events.max())}")


def main():
    for name in zoo.ZOO:
        spec = zoo.get_spec(name)
        for mode in BackpropMode:
            try:
                mm.validate_mode(spec, mode)
            except ConfigError:
                continue
            for dtype in DTYPES:
                print(check(spec, mode, dtype), flush=True)


if __name__ == "__main__":
    main()
