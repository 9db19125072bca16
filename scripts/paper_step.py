#!/usr/bin/env python3
"""One training step of the paper's geometry against its 1 GB card.

Builds the hybrid spec from seed 0 and runs one full hybrid-mode training
step on a Gaussian batch of 32 at 240x240: forward, loss, backward and
`train.sgd_step`, whose momentum buffers the step allocates. It prints the
`tracemalloc` peak counted from before the model is built (weights, batch,
gradients, momentum and kernel scratch included), the memtrack peak over
the same span (no kernel scratch, no momentum), and
`memory_model.executor_peak` for hybrid, block and stored mode at the same
size (weights and gradients, no batch or momentum). It exits 1 if the real
peak reaches 1e9 bytes. It takes no options, about 3 minutes and 1 GB:

    python3 scripts/paper_step.py
"""

import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from revtrain import memory_model as mm  # noqa: E402
from revtrain import memtrack, ops, train, zoo  # noqa: E402
from revtrain.model import BackpropMode  # noqa: E402

SPEC, MODE = "hybrid", BackpropMode.HYBRID
SIDE, BATCH = 240, 32
CARD_BYTES = 1e9


def measure(side, batch):
    """(real peak, tracked peak, step seconds) of one training step of a
    fresh hybrid-spec model in hybrid mode, in bytes from before the build."""
    spec = zoo.get_spec(SPEC)
    tracemalloc.start()
    try:
        with memtrack.MeasureScope() as scope:
            model = zoo.build_model(spec, seed=0)
            params, velocity = model.params(), {}
            x = ops.gaussian((batch, spec.input_channels, side, side), seed=1)
            labels = ops.default_rng(2).integers(0, spec.head().c_out, batch)
            start = time.perf_counter()
            logits, saved = model.forward(x, MODE)
            _, grad_logits = train.softmax_cross_entropy(logits, labels)
            grads, _ = model.backward(saved, grad_logits, x)
            train.sgd_step(params, grads, velocity, lr=0.1, momentum=0.9)
            seconds = time.perf_counter() - start
        real = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return real, scope.peak_bytes - scope.baseline_live, seconds


def main(side=SIDE, batch=BATCH):
    real, tracked, seconds = measure(side, batch)
    print(f"{SPEC} {MODE.value} batch {batch} at {side}x{side}, one step with sgd_step "
          f"from a fresh model: {seconds:.1f} s")
    print(f"real peak {real / 1e6:.1f} MB (tracemalloc, from before the model is built)")
    print(f"tracked peak {tracked / 1e6:.1f} MB (memtrack, from before the model is built)")
    spec = zoo.get_spec(SPEC)
    for mode in (BackpropMode.HYBRID, BackpropMode.BLOCK_REVERSIBLE, BackpropMode.STORED):
        peak = mm.executor_peak(spec, mode, side, side, batch)
        print(f"executor_peak {mode.value} {peak / 1e6:.1f} MB")
    fits = real < CARD_BYTES
    print(f"real peak {'under' if fits else 'at or over'} {CARD_BYTES:.0e} B")
    return 0 if fits else 1


if __name__ == "__main__":
    sys.exit(main())
