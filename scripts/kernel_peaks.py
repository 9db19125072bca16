#!/usr/bin/env python3
"""Per-kernel allocator peaks of one training step.

Builds a zoo spec (or an arch file), runs one warm-up step, then runs one
more forward and backward from fresh weights under `tracemalloc`, counted
from just before forward, as perfbench's memory ladder does. Each call of a
hot kernel records the allocator's peak during the call, the bytes live at
its entry, and their difference: the call's scratch plus its output. One row
per kernel and input shape, for the call with the highest peak, largest
first:

    python3 scripts/kernel_peaks.py --config small-hybrid --mode block --batch 32

The kernels are the three conv kernels in `ops`, the batch statistics
(`ops.channel_mean_var`), batch norm's forward (`forward` and
`forward_cached`) and backward, leaky ReLU's backward, and the inverses a
hybrid-mode walk runs (batch norm, leaky ReLU, InvConv). A kernel that calls
another (batch norm's forward and backward call `channel_mean_var`, InvConv's
inverse the conv forward) counts the inner call's bytes in its own peak too.
"""

import argparse
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from revtrain import layers, ops, train, zoo  # noqa: E402
from revtrain.cli import resolve_spec  # noqa: E402
from revtrain.memory_model import BackpropMode  # noqa: E402

# (owner, attribute, label); each is wrapped where the models look it up
KERNELS = (
    (ops, "conv2d_forward", "conv forward"),
    (ops, "conv2d_backward_input", "conv input gradient"),
    (ops, "conv2d_backward_weight", "conv weight gradient"),
    (ops, "channel_mean_var", "bn statistics"),
    (layers.InvBatchNorm, "forward", "bn forward"),
    (layers.InvBatchNorm, "forward_cached", "bn forward"),
    (layers.InvBatchNorm, "backward", "bn backward"),
    (layers.InvBatchNorm, "inverse", "bn inverse"),
    (layers.InvLeakyReLU, "backward", "lrelu backward"),
    (layers.InvLeakyReLU, "inverse", "lrelu inverse"),
    (layers.InvConv, "inverse", "invconv inverse"),
)


class Ledger:
    """The step's allocator peak and, per (kernel, shape), the call with the
    highest peak as (peak, entry bytes, calls)."""

    def __init__(self):
        self.rows = {}
        self.open = [0]  # peaks so far of the step and of each call in progress

    def step_peak(self):
        self._fold()
        return self.open[0]

    def _fold(self):
        """Fold the allocator's peak since the last reset into every open
        peak, then reset it, so nested calls each see their own."""
        peak = tracemalloc.get_traced_memory()[1]
        self.open = [max(p, peak) for p in self.open]
        tracemalloc.reset_peak()

    def wrap(self, label, fn, arg):
        """fn, recording its call under label and the shape of args[arg]."""

        def traced(*args, **kwargs):
            first = args[arg]
            first = first.v if isinstance(first, layers._Cell) else first
            self._fold()
            entry = tracemalloc.get_traced_memory()[0]
            self.open.append(entry)
            try:
                return fn(*args, **kwargs)
            finally:
                self._fold()
                peak = self.open.pop()
                key = (label, tuple(first.shape))
                best, best_entry, calls = self.rows.get(key, (-1, 0, 0))
                if peak > best:
                    best, best_entry = peak, entry
                self.rows[key] = (best, best_entry, calls + 1)

        return traced


def step(model, mode, x, labels):
    logits, saved = model.forward(x, mode)
    _, grad_logits = train.softmax_cross_entropy(logits, labels)
    model.backward(saved, grad_logits, x)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--config", required=True, help="zoo spec name or arch file")
    p.add_argument("--mode", required=True, choices=[m.value for m in BackpropMode])
    p.add_argument("--batch", type=int, required=True)
    p.add_argument("--size", type=int, default=32, help="input height and width")
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    spec = resolve_spec(args.config)
    mode = BackpropMode.parse(args.mode)
    x = ops.gaussian((args.batch, spec.input_channels, args.size, args.size), seed=args.seed + 1)
    labels = ops.default_rng(args.seed + 2).integers(0, spec.head().c_out, args.batch)
    step(zoo.build_model(spec, seed=args.seed), mode, x, labels)  # warm-up

    ledger = Ledger()
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in KERNELS]
    for (owner, name, label), (_, _, fn) in zip(KERNELS, originals):
        # a method's first argument is the layer
        setattr(owner, name, ledger.wrap(label, fn, 1 if isinstance(owner, type) else 0))
    model = zoo.build_model(spec, seed=args.seed)
    tracemalloc.start()
    try:
        step(model, mode, x, labels)
        step_peak = ledger.step_peak()
    finally:
        tracemalloc.stop()
        for owner, name, fn in originals:
            setattr(owner, name, fn)

    print(f"{spec.name} {mode.value} batch {args.batch} at {args.size}x{args.size}: "
          f"step peak {step_peak / 1e6:.2f} MB (tracemalloc, from just before forward)")
    print(f"{'kernel':<22} {'input shape':<20} {'calls':>5} {'peak MB':>9} "
          f"{'entry MB':>9} {'scratch+out MB':>15}")
    for (label, shape), (peak, entry, calls) in sorted(
            ledger.rows.items(), key=lambda kv: -kv[1][0]):
        print(f"{label:<22} {str(shape):<20} {calls:>5} {peak / 1e6:>9.2f} "
              f"{entry / 1e6:>9.2f} {(peak - entry) / 1e6:>15.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
